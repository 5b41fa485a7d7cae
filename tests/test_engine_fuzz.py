"""Property tests of the engine.

On small random models (at most 5 variables, at most 6 values per domain,
interior holes, atoms, clauses of up to 5 atoms, alldifferents, linears and
disjunctions), and on searching models (such a model's constraints with
more variables and an alldifferent over them all, so the engine backtracks
and learns nogoods):

- `Oracle.solve` must give the brute-force verdict, and every model it
  returns must satisfy every constraint by the independent evaluator in
  `helpers`. Disjunctions draw atoms, clauses, linears, conjunctions and
  nested disjunctions as members, so the engine's selector compilation is
  checked as well;
- `Oracle.solve`, which copies its root slots and replays the propagators
  it compiled in earlier calls, must run the engine that a fresh `Engine`
  without proof logging over the same constraints in the same order is:
  the same propagators (constraint ids, alldifferent done sets and learned
  nogoods included), watches and final trail, and the same status,
  assignment and conflict count, under small budgets too, over repeated
  and reordered queries on one oracle. A proof-logging `Engine` keeps
  root-level atoms in its nogoods, which the proof-free one leaves out,
  and lists a nogood's atoms in another order. So the proof-logging engine
  must reach the same status whenever neither runs out of budget, and
  search exactly the same way (the same trail, constraint propagators,
  learned nogoods as atom sets in learning order, assignment and conflict
  count) whenever it learns no nogood with a root-level atom. These draws
  learn no copy of an earlier nogood in such a run, so a copy is never
  compared.

On searching models, a solve without proof logging must learn only
nogoods that hold no atom false at the root fixpoint and that every
brute-force solution satisfies, and reach the brute-force verdict.

At every propagation fixpoint of the search on a searching model, with
proof logging and without, a propagator that sleeps until backtrack, a
done slot of an alldifferent, and an idle learned nogood must have nothing
left to do: run again, none changes the trail or the queue, and the nogood
does not fail. After each propagation of those searches, and after the
two-term `!=` searches below (with `log_all` too), no trail reason may list
a premise entry twice: the engine logs premises without deduplicating them
again.

Every test here checks each `Engine._push`, the trail write behind `apply`
that alldifferent also calls directly: the atom must be undecided.

On random clauses over random domain states, a clause wake-up, which stops
reading at the first true atom or the second undecided one, must reach the
verdict and the premises of a full scan from atom 0: it answers SLEEP only
with a true atom, and None only with two undecided ones.

On searching models with two-term linear `!=`s added (some over one
variable twice, some guarded), the engine, whose `_prop_linne` has a branch
for an unguarded two-term `!=`, must search exactly as an engine whose
`_prop_linne` takes only the general pass: the same trail and reasons,
learned nogoods, status, assignment, conflict count and proof steps, with
proof logging and without. On the same models, an engine that wakes an
unguarded two-term `!=` only when one of its slots is fixed must reach the
verdict of one that wakes it on every event and queues it at registration,
under budgets too, and never run it while both its slots are unfixed.

`skipping_models`, searching models with a few more variables that often
need no decision, serve `test_skipped_slots`.
"""

import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq.engine import DEFAULT_BUDGET, SLEEP, Conflict, Engine, _negate_atom, _stable_unique
from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Disjunction,
    Domain,
    HalfReified,
    Linear,
    VarId,
)
from proofseq.oracle import BudgetExceeded, Oracle, Sat, Unsat

from helpers import all_assignments, brute_eval

OPS = ("<=", ">=", "==", "!=")


@pytest.fixture(autouse=True)
def push_only_undecided(monkeypatch):
    """`Engine._push` trusts its caller that the atom is undecided; every
    push in these tests checks it."""
    push = Engine._push

    def checked(eng, atom, reason):
        assert eng.status(atom) is None, ("push of a decided atom", atom)
        return push(eng, atom, reason)

    monkeypatch.setattr(Engine, "_push", checked)


@st.composite
def small_models(draw, max_constraints=6):
    vs = [VarId(i, f"x{i}") for i in range(draw(st.integers(1, 5)))]
    doms = []
    for v in vs:
        lo = draw(st.integers(-2, 2))
        hi = lo + draw(st.integers(0, 5))
        holes = draw(st.frozensets(st.integers(lo + 1, hi - 1))) if hi - lo > 1 else frozenset()
        doms.append((v, Domain(lo, hi, holes)))

    def atom():
        return AtomicConstraint(draw(st.sampled_from(vs)), draw(st.sampled_from(OPS)),
                                draw(st.integers(-3, 8)))

    def linear():
        xs = draw(st.lists(st.sampled_from(vs), min_size=1, max_size=3, unique=True))
        terms = tuple((draw(st.sampled_from((-2, -1, 1, 2))), x) for x in xs)
        return Linear(terms, draw(st.sampled_from(OPS)), draw(st.integers(-6, 10)))

    def member(nested):
        kinds = ("atom", "clause", "linear", "and") + (() if nested else ("or",))
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            return atom()
        if kind == "clause":
            return Clause(tuple(atom() for _ in range(draw(st.integers(1, 3)))))
        if kind == "linear":
            return linear()
        if kind == "and":
            return Conjunction(tuple(draw(st.sampled_from((atom, linear)))() for _ in range(2)))
        return Disjunction(tuple(member(True) for _ in range(draw(st.integers(1, 2)))))

    cons = []
    for _ in range(draw(st.integers(1, max_constraints))):
        kind = draw(st.sampled_from(("atom", "clause", "linear", "alldiff", "disjunction")))
        if kind == "atom":
            cons.append(atom())
        elif kind == "clause":
            cons.append(Clause(tuple(atom() for _ in range(draw(st.integers(1, 5))))))
        elif kind == "disjunction":
            cons.append(Disjunction(tuple(member(False) for _ in range(draw(st.integers(1, 3))))))
        elif kind == "linear" or len(vs) < 2:
            cons.append(linear())
        else:
            xs = draw(st.lists(st.sampled_from(vs), min_size=2, max_size=len(vs), unique=True))
            cons.append(AllDifferent(tuple(xs)))
    return doms, cons


@st.composite
def searching_models(draw):
    """A small model's constraints, over 4 to 7 variables with domain 0..k,
    k within one of their count, and an alldifferent over them all; unless
    the domain is a pigeonhole already (k = n - 2), they also confine a few
    of the variables to as many values (a pocket). Small models alone are
    decided at the root or by their first branch; most of these are not, so
    the engine backtracks and learns a nogood (see
    `test_searching_models_mostly_search`). A pocket holds a value that an
    earlier decision may take, so sat models backtrack too."""
    doms, cons = draw(small_models(max_constraints=4))
    n = draw(st.integers(max(len(doms), 4), 7))
    k = n - 1 + draw(st.integers(-1, 1))
    vs = tuple(VarId(i, f"x{i}") for i in range(n))
    pocket = (draw(st.lists(st.sampled_from(vs[1:]), min_size=2, max_size=n - 2, unique=True))
              if k >= n - 1 else ())
    return ([(v, Domain(0, k)) for v in vs],
            [AllDifferent(vs)] + [AtomicConstraint(v, "<=", len(pocket) - 1) for v in pocket]
            + cons)


@st.composite
def skipping_models(draw):
    """A searching model with 1 to 4 more variables of domain 0..3 among its
    own, which only drawn clauses over all the variables constrain: once
    those clauses are true, and so asleep, or when there are none, no idle
    propagator watches such a variable, and the search skips it. An
    alldifferent over every variable watches each of them, so a searching
    model alone skips no variable."""
    doms, cons = draw(searching_models())
    n = len(doms)
    for i in range(draw(st.integers(1, 4))):
        doms.insert(draw(st.integers(0, len(doms))), (VarId(n + i, f"y{i}"), Domain(0, 3)))
    vs = [v for v, _ in doms]

    def atom():
        return AtomicConstraint(draw(st.sampled_from(vs)), draw(st.sampled_from(OPS)),
                                draw(st.integers(0, 4)))

    clauses = [Clause(tuple(atom() for _ in range(draw(st.integers(2, 3)))))
               for _ in range(draw(st.integers(0, len(doms) - n + 2)))]
    return doms, cons + clauses


def _solutions(doms, cons):
    """Every solution, by brute force. Under an alldifferent over every
    variable, as in `searching_models`, only the injective assignments are
    enumerated: the full product would be up to 8^7."""
    vs = [v for v, _ in doms]
    if any(isinstance(c, AllDifferent) and set(c.vars) == set(vs) for c in cons):
        values = sorted(set().union(*(d.values() for _, d in doms)))
        candidates = (dict(zip(vs, combo)) for combo in itertools.permutations(values, len(vs)))
    else:
        candidates = all_assignments(doms)
    for alpha in candidates:
        if all(alpha[v] in d for v, d in doms) and all(brute_eval(c, alpha) for c in cons):
            yield alpha


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.one_of(small_models(), searching_models()))
def test_oracle_agrees_with_brute_force(model):
    doms, cons = model
    expected = next(_solutions(doms, cons), None)
    res = Oracle(doms).solve(cons)
    if expected is None:
        assert isinstance(res, Unsat)
    else:
        assert isinstance(res, Sat)
        assert all(res.assignment[v] in d for v, d in doms)
        assert all(brute_eval(c, res.assignment) for c in cons)


def test_searching_models_mostly_search():
    tally = dict.fromkeys(("examples", "learned a nogood"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(searching_models())
    def run(model):
        doms, cons = model
        eng = Engine(doms, proof=False)
        for i, c in enumerate(cons):
            eng.add_constraint(f"h{i}", c)
        compiled = len(eng.props)
        eng.solve()
        tally["examples"] += 1
        tally["learned a nogood"] += len(eng.props) > compiled

    run()
    # a third, with room for the draws of other hypothesis versions
    assert tally["learned a nogood"] > 67, tally


def _reference(doms, hard, budget, proof):
    """A fresh engine over hard, compiled in order under the ids that
    `Oracle.solve` gives them, and its result."""
    eng = Engine(doms, budget=budget, proof=proof)
    for i, c in enumerate(hard):
        eng.add_constraint(f"h{i}", c)
    return eng, eng.solve()


def _solve_and_catch_engine(oracle, hard):
    """oracle.solve(hard) and the engine it ran."""
    engines = []
    solve = Engine.solve

    def catch(eng):
        engines.append(eng)
        return solve(eng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "solve", catch)
        res = oracle.solve(hard)
    return res, engines[0]


def _compiled(eng):
    """The propagators of the constraints, in registration order."""
    return [p for p in eng.props if isinstance(p[1], str)]


def _nogood_sets(eng):
    """The atom sets of the learned nogoods, in learning order."""
    return [frozenset(p[2]) for p in eng.props if not isinstance(p[1], str)]


def _logged_reference(doms, hard, budget):
    """`_reference` with proof logging, and whether it learned a nogood with
    a root-level atom: the negation of a trail entry below `level_start[1]`."""
    rooted = False
    analyze = Engine._analyze

    def watch(eng, conflict):
        nonlocal rooted
        clevel, entries, _ = found = analyze(eng, conflict)
        rooted = rooted or bool(clevel and entries[0] < eng.level_start[1])
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_analyze", watch)
        eng, res = _reference(doms, hard, budget, proof=True)
    return eng, res, rooted


def test_oracle_matches_a_fresh_engine():
    seen = dict.fromkeys(("backtracked", "same search after a nogood", "searches may part"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.one_of(small_models(), searching_models()), st.data())
    def run(model, data):
        doms, cons = model
        oracle = Oracle(doms)
        kinds = set()
        # each query, a prefix of the model's constraints (so searching
        # queries often keep their alldifferent) and then a drawn list,
        # repeats and reorders the constraints of the one before
        for _ in range(data.draw(st.integers(1, 4))):
            hard = tuple(cons[:data.draw(st.integers(0, len(cons)))]
                         + data.draw(st.lists(st.sampled_from(cons), min_size=1,
                                              max_size=len(cons) + 2)))
            oracle.budget = data.draw(st.sampled_from((DEFAULT_BUDGET, 0, 1, 2, 4)))
            ref_eng, ref = _reference(doms, hard, oracle.budget, proof=False)
            res, eng = _solve_and_catch_engine(oracle, hard)
            assert not eng.proof
            # the same propagators (keys, done sets and learned nogoods too),
            # watches and final trail
            assert eng.props == ref_eng.props
            assert eng.watch == ref_eng.watch
            assert eng.fix_watch == ref_eng.fix_watch
            assert eng.t_atom == ref_eng.t_atom
            if any(not isinstance(p[1], str) for p in ref_eng.props):
                kinds.add("backtracked")  # a nogood is learned on backtracking
            # proof logging keeps root-level atoms in the nogoods; only these
            # can make it search differently
            log_eng, logged, rooted = _logged_reference(doms, hard, oracle.budget)
            if "budget" not in (logged.status, ref.status):
                assert logged.status == ref.status
            nogoods = _nogood_sets(log_eng)
            if rooted:
                kinds.add("searches may part")
            else:
                assert _compiled(log_eng) == _compiled(ref_eng)
                assert nogoods == _nogood_sets(ref_eng)
                assert log_eng.t_atom == ref_eng.t_atom
                assert (logged.status, logged.assignment, logged.conflicts) == \
                    (ref.status, ref.assignment, ref.conflicts)
                if nogoods:
                    kinds.add("same search after a nogood")
            if ref.status == "budget":
                assert res == BudgetExceeded(ref.conflicts)
                continue
            assert res == (Sat(ref.assignment) if ref.status == "sat" else Unsat())
            if ref.conflicts:
                # one conflict fewer runs out at the same conflict
                assert Oracle(doms, ref.conflicts - 1).solve(hard) == BudgetExceeded(ref.conflicts)
        for kind in kinds:
            seen[kind] += 1

    run()
    # examples that reach a learned nogood, ones where the two searches are
    # checked to be the same after it, and ones where they may part
    assert min(seen.values()) > 0, seen


def test_proof_free_nogoods_are_root_free_and_sound():
    seen = dict.fromkeys(("nogoods", "checked against solutions"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(searching_models())
    def run(model):
        doms, cons = model
        solutions = _solutions(doms, cons)
        first = next(solutions, None)
        root, eng = Engine(doms, proof=False), Engine(doms, proof=False)
        for i, c in enumerate(cons):
            root.add_constraint(f"h{i}", c)
            eng.add_constraint(f"h{i}", c)
        compiled = len(eng.props)
        res = eng.solve()
        assert res.status == ("unsat" if first is None else "sat")
        learned = eng.props[compiled:]
        solutions = [] if first is None or not learned else [first, *solutions]
        assert all(p[0] is Engine._prop_clause for p in learned)
        # the state the search starts from, before its first decision
        if root._propagate() is not None:
            assert not learned
            return
        for p in learned:
            atoms = p[2]
            seen["nogoods"] += 1
            assert all(root.status(a) is not False for a in atoms), atoms
            # a nogood over selector slots holds only with the selectors' meaning
            if solutions and all(s < len(doms) for s, _, _ in atoms):
                seen["checked against solutions"] += 1
                literals = [AtomicConstraint(doms[s][0], op, val) for s, op, val in atoms]
                for alpha in solutions:
                    assert any(brute_eval(a, alpha) for a in literals), atoms

    run()
    assert min(seen.values()) >= 100, seen


def _assert_premises_unique(eng):
    """No trail reason lists a premise entry twice: logged steps negate the
    premises as they are (see the engine docstring)."""
    for reason in eng.t_reason:
        if reason is not None:
            assert len(set(reason[1])) == len(reason[1]), reason


def _rerun_sleepers(eng, seen):
    """At a propagation fixpoint nothing is queued, and re-running each
    sleeping propagator, each done slot of an alldifferent and each idle
    learned nogood leaves the trail and the queue as they are: a sleeper
    answers SLEEP again, and the nogood finds no conflict."""
    assert eng.queue == [] and 1 not in eng.in_queue
    trail = list(eng.t_atom)
    effects = list(eng.t_effects[-1]) if eng.t_effects else None
    for idx, p in enumerate(eng.props):
        if eng.in_queue[idx] == 2:
            seen["sleepers"] += 1
            assert p[0](eng, p) is SLEEP
        elif p[0] is Engine._prop_alldiff:
            slots, done = p[2], p[3]
            for s in done:
                # every other slot counts as done, so only s is looked at
                seen["done slots"] += 1
                assert p[0](eng, p[:3] + (set(slots) - {s},)) is None
        elif not isinstance(p[1], str) and not eng.in_queue[idx]:
            # an idle learned nogood: it neither propagates nor fails
            seen["idle nogoods"] += 1
            assert not isinstance(p[0](eng, p), Conflict)
        assert eng.t_atom == trail and eng.queue == []
    if effects is not None:
        eng.t_effects[-1][:] = effects  # drop the records the re-runs added


def test_sleepers_would_do_nothing():
    seen = dict.fromkeys(("fixpoints", "sleepers", "done slots", "idle nogoods", "backtracks"), 0)
    propagate, backtrack_to = Engine._propagate, Engine.backtrack_to

    def checked(eng):
        conflict = propagate(eng)
        if conflict is None:
            seen["fixpoints"] += 1
            _rerun_sleepers(eng, seen)
        _assert_premises_unique(eng)
        return conflict

    def counted(eng, level):
        seen["backtracks"] += 1
        return backtrack_to(eng, level)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(searching_models())
    def run(model):
        doms, cons = model
        for proof in (False, True):
            eng = Engine(doms, proof=proof)
            for i, c in enumerate(cons):
                eng.add_constraint(f"h{i}", c)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Engine, "_propagate", checked)
                mp.setattr(Engine, "backtrack_to", counted)
                eng.solve()

    run()
    # the property is checked after backtracks, with sleepers and done slots
    assert min(seen.values()) >= 100, seen


def _scan_from_atom_0(eng, atoms):
    """What a clause wake-up must do, from an in-order scan: None (nothing),
    ("unit", atom, premise entries) or ("conflict", entries)."""
    statuses = [eng.status(a) for a in atoms]
    if True in statuses:
        return None
    undecided = [a for a, st in zip(atoms, statuses) if st is None]
    if len(undecided) > 1:
        return None
    if not undecided:
        entries = [e for a in atoms for e in eng.justify_false(a)]
        return ("conflict", _stable_unique(entries))
    premises = [e for a in atoms if a != undecided[0] for e in eng.justify_false(a)]
    return ("unit", undecided[0], tuple(_stable_unique(premises)))


def test_clause_look_order_does_not_change_the_answer():
    rng = random.Random(5)
    seen = {"unit": 0, "conflict": 0}
    for _ in range(5000):
        doms = []
        for i in range(rng.randint(1, 5)):
            lo = rng.randint(-2, 2)
            hi = lo + rng.randint(0, 5)
            holes = frozenset(v for v in range(lo + 1, hi) if rng.random() < 0.3)
            doms.append((VarId(i, f"x{i}"), Domain(lo, hi, holes)))
        eng = Engine(doms)

        def atom():
            return (rng.randrange(len(doms)), rng.choice(OPS), rng.randint(-3, 8))

        # a domain state: decisions on levels 1, 2, ..., each on a still-undecided atom
        for _ in range(rng.randint(0, 6)):
            a = atom()
            if eng.status(a) is None:
                eng.level += 1
                eng.level_start.append(len(eng.t_atom))
                assert eng.apply(a, None) is None
        assert len(eng.level_start) == eng.level + 1
        # negated decisions are false, so units and conflicts are common
        false = [_negate_atom(a) for a in eng.t_atom]
        atoms = tuple(dict.fromkeys(
            rng.choice(false) if false and rng.random() < 0.5 else atom()
            for _ in range(rng.randint(2, 6))))
        if len(atoms) < 2:
            continue
        expected = _scan_from_atom_0(eng, atoms)
        trail = len(eng.t_atom)
        got = eng._prop_clause((Engine._prop_clause, "c", atoms))
        statuses = [eng.status(a) for a in atoms]
        # SLEEP only with a true atom after the call, None only with two undecided
        if got is SLEEP:
            assert True in statuses
        elif got is None:
            assert statuses.count(None) >= 2
        if expected is None:
            assert got in (None, SLEEP) and len(eng.t_atom) == trail
            continue
        seen[expected[0]] += 1
        if expected[0] == "unit":
            # the unit atom is undecided, so it goes onto the trail
            assert got is SLEEP and len(eng.t_atom) == trail + 1
            assert (eng.t_atom[-1], eng.t_reason[-1]) == (expected[1], ("c", expected[2]))
        else:
            assert isinstance(got, Conflict)
            assert (got.entries, got.key, got.step_atoms) == (expected[1], "c", atoms)
    assert min(seen.values()) >= 200


@st.composite
def linne_models(draw):
    """A searching model with two to six two-term linear `!=`s added after
    its constraints: coefficients in {-2, -1, 1, 2}, rhs in -2..2, both
    terms sometimes on one variable, and about one in three guarded. About
    one in six is over two new variables instead, which atoms fix, so that
    it finds both fixed when it first runs, and then its rhs is often their
    sum: a search fixes one at a time and runs it in between, so it seldom
    finds its sum violated. New ones, since atoms that fix two of the
    searching variables often leave a pocket too few values, and the
    alldifferent, which wakes before a pairwise `!=`, then fails first."""
    doms, cons = draw(searching_models())
    vs = [v for v, _ in doms]
    coef = st.sampled_from((-2, -1, 1, 2))
    for _ in range(draw(st.integers(2, 6))):
        c1, x, c2, y = draw(coef), draw(st.sampled_from(vs)), draw(coef), draw(st.sampled_from(vs))
        rhs = draw(st.integers(-2, 2))
        if draw(st.integers(0, 5)) == 0:
            x, y = (VarId(len(doms) + i, f"f{len(doms) + i}") for i in range(2))
            doms += [(x, Domain(0, 2)), (y, Domain(0, 2))]
            a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            cons += [AtomicConstraint(x, "==", a), AtomicConstraint(y, "==", b)]
            if abs(c1 * a + c2 * b) <= 2 and draw(st.booleans()):
                rhs = c1 * a + c2 * b
        lin = Linear(((c1, x), (c2, y)), "!=", rhs)
        if draw(st.integers(0, 2)) == 0:
            guard = AtomicConstraint(draw(st.sampled_from(vs)), draw(st.sampled_from(OPS)),
                                     draw(st.integers(0, len(vs))))
            lin = HalfReified(guard, lin)
        cons.append(lin)
    return doms, cons


class GeneralPassEngine(Engine):
    """The reference for the two-term `!=` branch: every linear `!=` takes
    the general pass of `Engine._prop_linne`, which this copies, and each
    wake-up of an unguarded two-term one is counted by case in `tally`. It
    registers each propagator as `Engine` does, an unguarded two-term `!=`
    on its slots' fixes only."""

    def __init__(self, *args, tally: collections.Counter, **kwargs):
        super().__init__(*args, **kwargs)
        self.tally = tally

    def _install(self, prop, slots, on_fix=False):
        if prop[0] is Engine._prop_linne:
            prop = (GeneralPassEngine._prop_linne,) + prop[1:]
        super()._install(prop, slots, on_fix)

    def _prop_linne(self, p):
        _, cid, guard, terms, rhs = p
        if guard is None and len(terms) == 2:
            self.tally[_two_term_case(self, terms, rhs)] += 1
        gst = True if guard is None else self.status(guard)
        if gst is False:
            return SLEEP
        lb, ub = self.lb, self.ub
        rem, unfixed = rhs, None
        for coef, s in terms:
            if lb[s] == ub[s]:
                rem -= coef * lb[s]
            elif unfixed is None:
                unfixed = (coef, s)
            else:
                return None
        cited = terms
        if unfixed is not None:
            coef, s = unfixed
            if rem % coef != 0:
                return SLEEP
            if gst is not True:
                return None
            target = (s, "!=", rem // coef)
            if self.status(target) is True:
                return SLEEP
        elif rem != 0:
            return SLEEP
        elif gst is not True:
            target = _negate_atom(guard)
        elif not terms:
            return Conflict((), cid, ())
        else:
            s = terms[0][1]
            target = (s, "!=", self.lb[s])
            cited = terms[1:]
        premises = (self.justify_false(_negate_atom(guard))
                    if gst is True and guard is not None else [])
        for _, s in cited:
            if self.lb[s] == self.ub[s]:
                premises += self.justify_bound(0, s, self.lb[s]) + self.justify_bound(1, s, self.ub[s])
        r = self.apply(target, (cid, tuple(_stable_unique(premises))))
        return SLEEP if r is None else r


def _two_term_case(eng, terms, rhs):
    (c1, s1), (c2, s2) = terms
    if s1 == s2:
        return "one variable"
    fixed1, fixed2 = (eng.lb[s] == eng.ub[s] for s in (s1, s2))
    if fixed1 and fixed2:
        return "violated" if c1 * eng.lb[s1] + c2 * eng.lb[s2] == rhs else "entailed"
    if not (fixed1 or fixed2):
        return "none fixed"
    # the other term's coefficient, its slot and what is left of rhs
    coef, s, rem = (c2, s2, rhs - c1 * eng.lb[s1]) if fixed1 else (c1, s1, rhs - c2 * eng.lb[s2])
    if rem % coef or eng.status((s, "!=", rem // coef)) is True:
        return "unit entailed"
    return "first fixed" if fixed1 else "second fixed"


def test_two_term_linne_branch_matches_the_general_pass():
    tally = collections.Counter()
    reference = functools.partial(GeneralPassEngine, tally=tally)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(linne_models())
    def run(model):
        doms, cons = model
        for proof, log_all in ((False, False), (True, False), (True, True)):
            runs = []
            for cls in (Engine, reference):
                eng = cls(doms, proof=proof, log_all=log_all)
                for i, c in enumerate(cons):
                    eng.add_constraint(f"h{i}", c)
                compiled = len(eng.props)
                res = eng.solve()
                _assert_premises_unique(eng)
                runs.append((eng.t_atom, eng.t_reason, eng.props[compiled:], res.status,
                             res.assignment, res.conflicts, res.steps))
            assert runs[0] == runs[1]

    run()
    # every case of the branch is reached, the pivot of a violated one too;
    # woken only on a fix, it never runs with neither slot fixed
    cases = ("one variable", "violated", "entailed", "unit entailed",
             "first fixed", "second fixed")
    assert min(tally[c] for c in cases) >= 30 and not tally["none fixed"], tally


def test_pairwise_ne_compiles_as_the_general_path():
    """`_compile_linear` builds an unguarded two-term `!=` directly; with a
    zero term added, the same constraint takes the general path, and both
    must register the same propagator, watches and fix watches, and queue
    it only when one of its slots is fixed."""
    doms = [(VarId(0, "x"), Domain(0, 3)), (VarId(1, "y"), Domain(0, 3)),
            (VarId(2, "z"), Domain(2, 2))]
    x, y, z = (v for v, _ in doms)
    for (c1, a), (c2, b) in (((1, x), (-1, y)), ((2, y), (1, y)), ((-1, z), (2, x))):
        engines = []
        for terms in (((c1, a), (c2, b)), ((c1, a), (0, y), (c2, b))):
            eng = Engine(doms)
            eng.add_constraint("a", AtomicConstraint(x, "<=", 2))
            eng.add_constraint("p", Linear(terms, "!=", 1))
            engines.append((eng.props, eng.prop_slots, eng.watch, eng.fix_watch, eng.queue))
        assert engines[0] == engines[1]
        assert engines[0][4] == ([0, 1] if z in (a, b) else [0])


class AnyEventEngine(Engine):
    """The reference for the fix-only wake-up: every propagator, an
    unguarded two-term `!=` too, watches its slots for any event and is
    queued at registration."""

    def _install(self, prop, slots, on_fix=False):
        super()._install(prop, slots)


def test_pairwise_ne_wakes_only_on_a_fix():
    """An unguarded two-term `!=` that wakes only when one of its slots is
    fixed reaches the verdict of one that wakes on every event, and every
    Sat model satisfies each constraint; a counter shows that it never runs
    while both its slots are unfixed."""
    seen = collections.Counter()
    prop_linne = Engine._prop_linne

    def counted(eng, p):
        _, _, guard, terms, rhs = p
        if guard is None and len(terms) == 2 and \
                _two_term_case(eng, terms, rhs) == "none fixed":
            seen["run unfixed", type(eng)] += 1
        return prop_linne(eng, p)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(linne_models())
    def run(model):
        doms, cons = model
        for (proof, log_all), budget in itertools.product(
                ((False, False), (True, False), (True, True)), (None, 1, 2, 4)):
            results = []
            for cls in (Engine, AnyEventEngine):
                eng = cls(doms, budget=DEFAULT_BUDGET if budget is None else budget,
                          proof=proof, log_all=log_all)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(Engine, "_prop_linne", counted)
                    for i, c in enumerate(cons):
                        eng.add_constraint(f"h{i}", c)
                    res = eng.solve()
                if res.status == "sat":
                    assert all(res.assignment[v] in d for v, d in doms)
                    assert all(brute_eval(c, res.assignment) for c in cons)
                results.append((res.status, eng.t_atom))
            (status, trail), (ref_status, ref_trail) = results
            if "budget" not in (status, ref_status):
                assert status == ref_status
                seen[status] += 1
            seen["searches part"] += trail != ref_trail

    run()
    # the fix-only engine never runs one with both slots unfixed, the
    # reference often does; both verdicts, and searches that part
    assert not seen["run unfixed", Engine], seen
    assert min(seen["run unfixed", AnyEventEngine], seen["sat"], seen["unsat"],
               seen["searches part"]) >= 30, seen
