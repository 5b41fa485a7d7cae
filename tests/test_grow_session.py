"""Differential tests of `GrowSession`, the kept-root engine of the grow
probes in global minimization, against fresh oracle calls.

Every probe must answer exactly what a fresh `Oracle(vars).solve` over
`hard` and the kept members with the probed one, in index order, answers
under the same budget: the same result type, assignment and conflict count.

On random models (the small, searching and pairwise `!=` models of
`test_engine_fuzz`, split into hard and soft constraints, hard
satisfiable), each example runs
rounds: a drawn set of members that has a model with hard is kept, or every
member that model satisfies, as global minimization keeps a satisfied set
(none when the drawn set has no model); then members are probed one by one
under budgets 0/1/2/4/50 and the oracle's own, a Sat probe keeping its
member, and the round ends by switching every member off. On the pipeline,
every grow probe of the three `minglob` variants on sudoku4, jobshop and
mutated seeds 1-3 is compared the same way.

Probes from a kept root must also build every trail entry's premises, the
kept root's too, at every conflict and after each probe, as a session over
`test_engine_fuzz.EagerEngine`, which builds them at each push, and answer
as it does.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq import oracle as oracle_module
from proofseq.engine import DEFAULT_BUDGET, Engine
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Domain,
    VarId,
    eval_expr,
)
from proofseq.oracle import BudgetExceeded, GrowSession, Oracle, Sat, Unsat
from proofseq.pipeline import run_pipeline
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof

from test_engine_fuzz import (
    EagerEngine,
    _reasons,
    count_holes_cited,
    holed_models,
    linne_models,
    record_conflicts,
    searching_models,
    small_models,
)

BUDGETS = (None, 0, 1, 2, 4, 50)


def _fresh(session, i, budget):
    """What a fresh oracle answers for the probe of member i."""
    members = [session.soft[j] for j in sorted(session.kept | {i})]
    return Oracle(session.oracle.vars, min(budget, session.oracle.budget)).solve(
        list(session.hard) + members)


def draw_kept(data, doms, hard, soft):
    """A kept set as global minimization keeps one: a drawn set of members,
    or every member that its model satisfies, when hard and the drawn set
    have a model, else none."""
    drawn = data.draw(st.sets(st.integers(0, len(soft) - 1), max_size=len(soft)))
    model = Oracle(doms).model_of(list(hard) + [soft[j] for j in sorted(drawn)])
    if model is None:
        return set()
    if data.draw(st.booleans()):
        return {j for j, c in enumerate(soft) if eval_expr(c, model)}
    return drawn


def _same(got, expected):
    return type(got) is type(expected) and got == expected


def test_probes_match_a_fresh_oracle():
    seen = dict.fromkeys((Sat, Unsat, BudgetExceeded, "sat after conflicts"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(st.one_of(small_models(), searching_models(), linne_models()), st.data())
    def run(model, data):
        doms, cons = model
        cut = data.draw(st.integers(0, min(2, len(cons) - 1)))
        hard, soft = cons[:cut], cons[cut:]
        members = st.integers(0, len(soft) - 1)
        if Oracle(doms).model_of(hard) is None:
            return
        oracle = Oracle(doms)
        session = GrowSession(oracle, hard, soft)
        for _ in range(data.draw(st.integers(1, 3))):
            session.keep(draw_kept(data, doms, hard, soft))
            for i in data.draw(st.lists(members, max_size=len(soft) + 2)):
                if i in session.kept:
                    continue
                budget = data.draw(st.sampled_from(BUDGETS))
                budget = oracle.budget if budget is None else budget
                expected = _fresh(session, i, budget)
                kept, calls = set(session.kept), oracle.calls
                got = session.probe(i, budget)
                assert _same(got, expected), (i, kept, budget, got, expected)
                assert oracle.calls == calls + 1
                assert session.kept == (kept | {i} if isinstance(got, Sat) else kept)
                # the kept root is at its fixpoint again
                assert session.engine.queue == []
                seen[type(got)] += 1
                if isinstance(got, Sat) and session.engine.conflicts:
                    seen["sat after conflicts"] += 1
            session.clear()
            # hard alone again: every member off, no nogood, nothing queued
            eng = session.engine
            assert not session.kept and eng.queue == [] and eng.level == 0
            assert len(eng.props) == session.ranges[-1].stop
            assert all(eng.in_queue[idx] == 3 for props in session.ranges for idx in props)

    run()
    # every kind of answer, and Sat after searches that learned
    assert min(seen.values()) >= 20, seen


def test_lazy_premises_match_eager_ones_from_a_kept_root():
    """Probes from a kept root, whose entries outlive many searches, build
    every entry's premises at every conflict, and after each probe, as a
    session whose engine builds them at each push does, and answer as it
    does."""
    seen = collections.Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.one_of(searching_models(), holed_models()), st.data())
    def run(model, data):
        doms, cons = model
        cut = data.draw(st.integers(0, min(2, len(cons) - 1)))
        hard, soft = cons[:cut], cons[cut:]
        if Oracle(doms).model_of(hard) is None:
            return
        kept = draw_kept(data, doms, hard, soft)
        probes = data.draw(st.lists(st.tuples(st.integers(0, len(soft) - 1),
                                              st.sampled_from(BUDGETS[1:])),
                                    max_size=len(soft) + 2))
        runs = []
        for lazy, cls in ((True, Engine), (False, EagerEngine)):
            records, answers = collections.defaultdict(list), []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle_module, "Engine", cls)
                record_conflicts(mp, records)
                count_holes_cited(mp, seen)
                session = GrowSession(Oracle(doms), hard, soft)
                session.keep(kept)
                for i, budget in probes:
                    if i not in session.kept:
                        answers.append(session.probe(i, budget))
                        eng = session.engine
                        if lazy:  # the kept root's entries that keep a marker
                            seen["conflicts"] += eng.conflicts
                            seen["root markers"] += sum(
                                r is not None and len(r) == 3 for r in eng.t_reason)
                        answers.append((list(eng.t_atom), _reasons(eng)))
            runs.append((records[id(session.engine)], answers))
        assert runs[0] == runs[1]

    run()
    # probes that search and conflict, kept root entries with markers, and
    # the `==` hole rule applied
    assert min(seen.values()) >= 50, seen


def test_an_off_member_stays_off_when_its_wake_record_is_popped():
    x, y, z, w = (VarId(i, n) for i, n in enumerate("xyzw"))
    doms = [(v, Domain(0, 2)) for v in (x, y, z, w)]
    clause = Clause((AtomicConstraint(x, ">=", 1), AtomicConstraint(y, "==", 0)))
    soft = (AtomicConstraint(x, ">=", 1), Conjunction((clause, AllDifferent((x, y, z, w)))),
            AtomicConstraint(x, "<=", 0), AtomicConstraint(y, ">=", 1))
    session = GrowSession(Oracle(doms), (), soft)
    # x >= 1 is the kept root's one entry; the probed clause sleeps on it at
    # once, and then the pigeonhole search fails
    session.keep({0})
    assert _same(session.probe(1, DEFAULT_BUDGET), Unsat())
    session.clear()
    # popping x >= 1 must not wake the clause, which would force y == 0
    session.keep({2})
    expected = _fresh(session, 3, DEFAULT_BUDGET)
    assert isinstance(expected, Sat)
    assert _same(session.probe(3, DEFAULT_BUDGET), expected)


def test_a_kept_root_that_fails_is_an_assertion_error():
    x = VarId(0, "x")
    soft = (AtomicConstraint(x, ">=", 1), AtomicConstraint(x, "<=", 0))
    session = GrowSession(Oracle([(x, Domain(0, 2))]), (), soft)
    with pytest.raises(AssertionError, match="kept root fails"):
        session.keep({0, 1})


def test_an_untouched_empty_domain_probes_unsat_without_a_conflict():
    x, y = VarId(0, "x"), VarId(1, "y")
    soft = (AtomicConstraint(y, ">=", 1), AtomicConstraint(y, "<=", 1))
    session = GrowSession(Oracle([(x, Domain.empty()), (y, Domain(0, 2))]), (), soft)
    # no member touches x, so the kept root propagates; the engine answers
    # before searching, as a fresh one does, even with no conflict allowed
    session.keep({0})
    for budget in (0, DEFAULT_BUDGET):
        expected = _fresh(session, 1, budget)
        assert _same(expected, Unsat()) and _same(session.probe(1, budget), expected)
        assert session.engine.conflicts == 0 and session.kept == {0}


def _pipeline_probes(suite, seed, variant, checked):
    """Run the variant with every grow probe compared to a fresh oracle."""
    probe = GrowSession.probe

    def compared(session, i, budget):
        expected = _fresh(session, i, budget)
        got = probe(session, i, budget)
        assert _same(got, expected), (suite, seed, variant, i)
        checked[type(got)] += 1
        return got

    model = generate_instance(suite, seed)
    solver = flatten(model)
    proof = parse_drcp(solve_with_proof(solver)[1], solver)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GrowSession, "probe", compared)
        run_pipeline(model, proof, variant, solver)


def test_pipeline_grow_probes_match_a_fresh_oracle():
    checked = dict.fromkeys((Sat, Unsat, BudgetExceeded), 0)
    for suite in ("sudoku4", "jobshop", "mutated"):
        for seed in (1, 2, 3):
            for variant in ("trim+minglob", "minglob", "minglob+minloc"):
                _pipeline_probes(suite, seed, variant, checked)
    assert checked[Sat] > 100 and checked[Unsat] > 100, checked
