import random

import pytest

from proofseq.engine import Engine
from proofseq.errors import BudgetExceededError, FlattenError
from proofseq.flatten import flatten
from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Disjunction,
    Domain,
    Linear,
    TRUE,
    VarId,
    eval_expr,
    negate_expr,
    parse_model,
)
from proofseq.oracle import BudgetExceeded, GrowSession, Oracle, Sat, Unsat

from helpers import all_assignments, brute_eval, brute_satisfiable
from test_model import JOBSHOP_MOD


def _vars(*names, lo=0, hi=6):
    vs = [VarId(i, n) for i, n in enumerate(names)]
    return vs, [(v, Domain(lo, hi)) for v in vs]


def test_two_contradictory_precedences_unsat():
    (a, b), doms = _vars("a", "b")
    res = Oracle(doms).solve((
        Linear(((1, a), (-1, b)), "<=", -3),   # a + 3 <= b
        Linear(((1, b), (-1, a)), "<=", -4),   # b + 4 <= a
    ))
    assert isinstance(res, Unsat)


def test_alldiff_sat_with_model():
    (x, y), doms = _vars("x", "y", hi=1)
    res = Oracle(doms).solve((AllDifferent((x, y)),))
    assert isinstance(res, Sat)
    assert res.assignment in ({x: 0, y: 1}, {x: 1, y: 0})


def test_jobshop_solver_model_unsat():
    s = flatten(parse_model(JOBSHOP_MOD))
    res = Oracle(s.vars).solve([c.expr for c in s.constraints])
    assert isinstance(res, Unsat)


def test_budget_exceeded_is_result():
    # single alldifferent over 8 vars of 7 values: lots of conflicts, budget 1
    vs, doms = _vars(*[f"v{i}" for i in range(8)])
    res = Oracle(doms, budget=1).solve((AllDifferent(tuple(vs)),))
    assert isinstance(res, BudgetExceeded)


def test_per_call_budget_is_capped_by_the_oracle_budget():
    vs, doms = _vars(*[f"v{i}" for i in range(8)])
    pigeonhole = (AllDifferent(tuple(vs)),)
    small, large = Oracle(doms, budget=2), Oracle(doms)
    # a grow probe is the one call with a budget of its own
    assert GrowSession(small, (), pigeonhole).probe(0, 10**9) == BudgetExceeded(3)
    assert GrowSession(large, (), pigeonhole).probe(0, 4) == BudgetExceeded(5)
    assert isinstance(large.solve(pigeonhole), Unsat)
    assert (small.calls, large.calls) == (1, 2)


def test_negate_conjunction_examples():
    (x, c, d), doms = _vars("x", "c", "d")
    n = negate_expr(Conjunction((AtomicConstraint(x, "==", 3),)))
    assert n == AtomicConstraint(x, "!=", 3)
    clause = Clause((AtomicConstraint(c, "<=", 3), AtomicConstraint(d, ">=", 7)))
    n2 = negate_expr(Conjunction((clause,)))
    assert n2 == Conjunction((AtomicConstraint(c, ">=", 4), AtomicConstraint(d, "<=", 6)))
    n3 = negate_expr(Conjunction((AtomicConstraint(c, ">=", 3), AtomicConstraint(d, "<=", 1))))
    assert n3 == Clause((AtomicConstraint(c, "<=", 2), AtomicConstraint(d, ">=", 2)))
    # truth-table cross-check on c,d in 0..6
    for alpha in all_assignments(doms[1:]):
        want = not (alpha[c] >= 3 and alpha[d] <= 1)
        assert brute_eval(n3, alpha) == want


def test_negate_conjunction_of_bottom_is_trivially_true():
    assert negate_expr(Conjunction((Clause(()),))) == TRUE
    sat = negate_expr(Conjunction(()))
    assert sat == Clause(())  # nothing can be violated


def test_negated_linear_boundaries():
    (x,), doms = _vars("x")
    n = negate_expr(Conjunction((Linear(((1, x),), "<=", 3),)))
    assert n == Linear(((1, x),), ">=", 4)


def _random_problem(rng, max_dom=4):
    nv = rng.randint(1, 4)
    vs = [VarId(i, f"v{i}") for i in range(nv)]
    doms = [(v, Domain(0, rng.randint(1, max_dom))) for v in vs]
    cons = []
    for _ in range(rng.randint(1, 5)):
        k = rng.randrange(5)
        if k == 0:
            cons.append(AtomicConstraint(rng.choice(vs), rng.choice(["<=", ">=", "==", "!="]),
                                         rng.randint(-1, max_dom + 1)))
        elif k == 1:
            atoms = tuple(AtomicConstraint(rng.choice(vs), rng.choice(["<=", ">=", "==", "!="]),
                                           rng.randint(0, max_dom)) for _ in range(rng.randint(1, 3)))
            cons.append(Clause(atoms))
        elif k == 2:
            sub = rng.sample(vs, rng.randint(1, min(3, nv)))
            terms = tuple((rng.choice([-2, -1, 1, 2]), v) for v in sub)
            cons.append(Linear(terms, rng.choice(["<=", ">=", "==", "!="]), rng.randint(-4, 8)))
        elif k == 3 and nv >= 2:
            cons.append(AllDifferent(tuple(rng.sample(vs, rng.randint(2, nv)))))
        else:
            sub = rng.sample(vs, rng.randint(1, min(2, nv)))
            terms = tuple((1, v) for v in sub)
            cons.append(Clause((AtomicConstraint(rng.choice(vs), "<=", rng.randint(0, 2)),
                                AtomicConstraint(rng.choice(vs), ">=", rng.randint(1, max_dom)))))
    return doms, cons


def _with_holes(rng, doms):
    """The same variables with random values punched out of each domain's interior."""
    return [(v, Domain(d.lower, d.upper,
                       frozenset(h for h in range(d.lower + 1, d.upper) if rng.random() < 0.4)))
            for v, d in doms]


def _implied(doms, premises, clause) -> bool:
    return all(brute_eval(clause, alpha) for alpha in all_assignments(doms)
               if all(brute_eval(p, alpha) for p in premises))


def test_engine_steps_implied_over_domains_with_holes():
    """Every step the engine logs, checked by brute force on its own: an
    inference against its one constraint, a nogood against the steps it
    cites, and the conclusion's citations must be unsatisfiable together."""
    rng = random.Random(47)
    n_unsat = n_steps = 0
    for _ in range(600):
        doms, cons = _random_problem(rng, max_dom=5)
        doms = _with_holes(rng, doms)
        expected = brute_satisfiable(doms, cons)
        n_unsat += expected is None
        by_cid = {f"k{i}": c for i, c in enumerate(cons)}
        for log_all in (False, True):
            eng = Engine(doms, log_all=log_all)
            for cid, c in by_cid.items():
                eng.add_constraint(cid, c)
            var_of = {eng.slot_of[v]: v for v, _ in doms}
            res = eng.solve()
            assert res.status == ("unsat" if expected is None else "sat")
            if res.assignment is not None:
                alpha = res.assignment
                assert all(alpha[v] in d for v, d in doms)
                assert all(brute_eval(c, alpha) for c in cons)
            derived = []
            for st in res.steps:
                clause = Clause(tuple(AtomicConstraint(var_of[s], op, val) for s, op, val in st.atoms))
                cids = [by_cid[r] for r in st.reasons if isinstance(r, str)]
                cited = [derived[r - 1] for r in st.reasons if isinstance(r, int)]
                if not st.atoms:  # the conclusion
                    assert brute_satisfiable(doms, cited + cids) is None
                elif cids:  # an inference
                    assert len(st.reasons) == 1, st
                    assert _implied(doms, cids, clause), st
                else:  # a nogood
                    assert _implied(doms, cited, clause), st
                derived.append(clause)
            n_steps += len(res.steps)
    assert n_unsat > 150 and n_steps > 1000


def test_oracle_agrees_with_brute_force():
    rng = random.Random(21)
    n_unsat = 0
    for _ in range(300):
        doms, cons = _random_problem(rng)
        expected = brute_satisfiable(doms, cons)
        res = Oracle(doms).solve(cons)
        if expected is None:
            assert isinstance(res, Unsat)
            n_unsat += 1
        else:
            assert isinstance(res, Sat)
            assert all(eval_expr(c, res.assignment) for c in cons)
    assert n_unsat > 20  # the generator must exercise both outcomes


def test_oracle_sat_assignments_verified_by_eval():
    rng = random.Random(5)
    for _ in range(100):
        doms, cons = _random_problem(rng)
        res = Oracle(doms).solve(cons)
        if isinstance(res, Sat):
            for c in cons:
                assert brute_eval(c, res.assignment)


def test_oracle_with_disjunction_and_negations():
    rng = random.Random(31)
    for _ in range(120):
        doms, cons = _random_problem(rng, max_dom=3)
        derived = cons[: rng.randint(1, len(cons))]
        neg = negate_expr(Conjunction(tuple(derived)))
        expected = brute_satisfiable(doms, list(cons) + [neg])
        res = Oracle(doms).solve(tuple(cons) + (neg,))
        assert isinstance(res, Sat) == (expected is not None)


def test_oracle_class_counts_calls():
    (x,), doms = _vars("x", hi=3)
    o = Oracle(doms)
    assert o.model_of([AtomicConstraint(x, "<=", 1)]) is not None
    assert o.model_of([AtomicConstraint(x, "<=", -1)]) is None
    assert o.calls == 2
    with pytest.raises(BudgetExceededError):
        vs, doms8 = _vars(*[f"w{i}" for i in range(8)])
        Oracle(doms8, budget=1).model_of([AllDifferent(tuple(vs))])


def test_engine_cannot_guard_alldifferent_disjunct():
    (x, y, z), doms = _vars("x", "y", "z")
    d = Disjunction((AtomicConstraint(x, "==", 0), AllDifferent((y, z))))
    with pytest.raises(FlattenError, match="cannot guard AllDifferent"):
        Engine(doms).add_constraint("d", d)
