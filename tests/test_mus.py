import random

import pytest

from proofseq import mus
from proofseq.errors import BudgetExceededError, SatInputError
from proofseq.model import (
    AtomicConstraint,
    Clause,
    Domain,
    Linear,
    VarId,
    parse_model,
)
from proofseq.mus import extract_mus_indices
from proofseq.oracle import GrowSession, Oracle

from helpers import brute_mus_family, extract_mus, verify_mus
from test_model import JOBSHOP_MOD


def _vars(*names, hi=6):
    vs = [VarId(i, n) for i, n in enumerate(names)]
    return vs, [(v, Domain(0, hi)) for v in vs]


def test_direct_contradiction_with_hard():
    (a, b, c), doms = _vars("a", "b", "c")
    soft = (AtomicConstraint(a, "<=", 3), AtomicConstraint(b, ">=", 9), AtomicConstraint(c, "==", 1))
    hard = (AtomicConstraint(a, ">=", 4),)
    # b >= 9 is unsatisfiable against the 0..6 domain on its own, so both it
    # and the hard-conflicting a <= 3 are singleton MUSes; the documented
    # reverse-declaration deletion order settles on a <= 3
    got = extract_mus(soft, hard, Oracle(doms))
    assert got == (soft[0],)
    assert verify_mus(got, hard, Oracle(doms))


def test_jobshop_user_constraints_mus():
    m = parse_model(JOBSHOP_MOD)
    doms = m.vars
    soft = tuple(c.expr for c in m.constraints)
    got = extract_mus(soft, (), Oracle(doms))
    family = brute_mus_family(doms, soft, [])
    got_idx = frozenset(soft.index(g) for g in got)
    assert got_idx in family
    # the family is the two 3-subsets {no1,p1,p2} and {no2,p1,p2}
    assert family == [frozenset({0, 2, 3}), frozenset({1, 2, 3})]
    got2 = extract_mus(soft, (), Oracle(doms), weights=(1,) * len(soft))
    assert frozenset(soft.index(g) for g in got2) in family


def test_three_way_overconstrained_variable():
    (x,), doms = _vars("x")
    soft = (AtomicConstraint(x, "<=", 2), AtomicConstraint(x, ">=", 5), AtomicConstraint(x, "==", 3))
    got = frozenset(soft.index(g) for g in extract_mus(soft, (), Oracle(doms)))
    assert got in (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
    got2 = extract_mus(soft, (), Oracle(doms), weights=(1, 1, 1))
    assert len(got2) == 2


def test_sat_input_is_an_error():
    (x,), doms = _vars("x")
    with pytest.raises(SatInputError):
        extract_mus((AtomicConstraint(x, "<=", 2),), (), Oracle(doms))


def test_satisfiable_start_is_an_error():
    (x,), doms = _vars("x")
    soft = (AtomicConstraint(x, "<=", 2), AtomicConstraint(x, ">=", 5), AtomicConstraint(x, "==", 3))
    for weights in (None, (1, 1, 1)):
        with pytest.raises(SatInputError):
            extract_mus_indices(soft, (), Oracle(doms), weights, start=(1,))
    with pytest.raises(ValueError, match="start"):
        extract_mus_indices(soft, (), Oracle(doms), start=(3,))


def test_start_bounds_the_unweighted_mus_but_not_the_weighted_one():
    (x,), doms = _vars("x")
    soft = (AtomicConstraint(x, "<=", 2), AtomicConstraint(x, ">=", 5), AtomicConstraint(x, "==", 3))
    # {0, 1} is the only MUS inside start; {0, 2} weighs less
    assert extract_mus_indices(soft, (), Oracle(doms), start=(0, 1)) == (0, 1)
    oracle = Oracle(doms)
    assert extract_mus_indices(soft, (), oracle, (1, 3, 1), start=(0, 1)) == (0, 2)
    # up-front check over start, two deletion probes over start (both sat),
    # then hitting sets {2} (sat, then two grow probes) and {0, 2} (unsat)
    assert oracle.calls == 7


def test_weight_count_and_sign_are_checked():
    (x,), doms = _vars("x")
    soft = (AtomicConstraint(x, "<=", 2), AtomicConstraint(x, ">=", 5))
    with pytest.raises(ValueError, match="one weight per soft constraint"):
        extract_mus_indices(soft, (), Oracle(doms), weights=(1,))
    for weights in ((1, -1), (1, 0)):
        with pytest.raises(ValueError, match="positive"):
            extract_mus_indices(soft, (), Oracle(doms), weights=weights)


def test_correction_set_cap_raises_budget_exceeded(monkeypatch):
    (x,), doms = _vars("x")
    soft = (AtomicConstraint(x, ">=", 2), AtomicConstraint(x, "<=", 2),
            AtomicConstraint(x, "<=", 0), AtomicConstraint(x, ">=", 5))
    weights = (1, 2, 3, 1)
    oracle = Oracle(doms)
    # the deletion seed finds {0, 2} (weight 4) and donates two correction
    # sets; the hitting-set loop then needs a third to reach {1, 3} (weight 3)
    assert extract_mus_indices(soft, (), oracle, weights) == (1, 3)
    # up-front check 1, deletion seed 4, hitting sets {3} (sat, then two grow
    # probes) and {1, 3} (unsat), which is returned without a deletion pass
    assert oracle.calls == 9
    monkeypatch.setattr(mus, "MAX_CORRECTION_SETS", 1)
    with pytest.raises(BudgetExceededError):
        extract_mus_indices(soft, (), Oracle(doms), weights)


def test_grow_probe_out_of_budget_is_no_error(monkeypatch):
    (x,), doms = _vars("x")
    soft = (AtomicConstraint(x, ">=", 2), AtomicConstraint(x, "<=", 2),
            AtomicConstraint(x, "<=", 0), AtomicConstraint(x, ">=", 5))
    weights = (1, 2, 3, 1)
    oracle = Oracle(doms)
    outcomes = []
    orig = GrowSession.probe

    def probe(self, i, budget):
        res = orig(self, i, budget)
        outcomes.append(type(res).__name__)
        return res

    # with no conflicts allowed, both grow probes after hitting set {3}
    # run out; each is still counted, and the answer is as with budget
    monkeypatch.setattr(GrowSession, "probe", probe)
    monkeypatch.setattr(mus, "GROW_BUDGET", 0)
    assert extract_mus_indices(soft, (), oracle, weights) == (1, 3)
    assert outcomes == ["BudgetExceeded", "BudgetExceeded"]
    assert oracle.calls == 9


def test_verify_mus_rejects_non_minimal_and_sat():
    (x,), doms = _vars("x")
    soft = (AtomicConstraint(x, "<=", 2), AtomicConstraint(x, ">=", 5), AtomicConstraint(x, "==", 3))
    assert not verify_mus((), (), Oracle(doms))            # satisfiable, not an MUS
    assert not verify_mus(soft, (), Oracle(doms))          # a proper subset suffices
    assert verify_mus(soft[:2], (), Oracle(doms))


def test_extraction_deterministic():
    (x, y), doms = _vars("x", "y")
    soft = (AtomicConstraint(x, "<=", 2), AtomicConstraint(x, ">=", 4),
            AtomicConstraint(y, "<=", 1), AtomicConstraint(y, ">=", 3),
            Linear(((1, x), (1, y)), "<=", 1))
    first = extract_mus_indices(soft, (), Oracle(doms))
    for _ in range(5):
        assert extract_mus_indices(soft, (), Oracle(doms)) == first


def _random_query(rng):
    nv = rng.randint(1, 3)
    vs = [VarId(i, f"v{i}") for i in range(nv)]
    doms = [(v, Domain(0, rng.randint(2, 6))) for v in vs]

    def one():
        k = rng.randrange(4)
        if k == 0:
            return AtomicConstraint(rng.choice(vs), rng.choice(["<=", ">=", "==", "!="]),
                                    rng.randint(0, 6))
        if k == 1:
            return Clause(tuple(
                AtomicConstraint(rng.choice(vs), rng.choice(["<=", ">=", "==", "!="]),
                                 rng.randint(0, 5)) for _ in range(rng.randint(1, 2))))
        if k == 2 and nv >= 2:
            sub = rng.sample(vs, 2)
            return Linear(((1, sub[0]), (rng.choice([-1, 1]), sub[1])),
                          rng.choice(["<=", ">=", "=="]), rng.randint(-3, 6))
        return AtomicConstraint(rng.choice(vs), rng.choice(["<=", ">="]), rng.randint(-1, 7))

    soft = tuple(one() for _ in range(rng.randint(2, 10)))
    hard = tuple(one() for _ in range(rng.randint(0, 2)))
    return doms, soft, hard


def test_every_output_passes_verify_mus():
    rng = random.Random(17)
    from helpers import brute_satisfiable
    done = 0
    while done < 40:
        doms, soft, hard = _random_query(rng)
        if brute_satisfiable(doms, list(soft) + list(hard)) is not None:
            continue
        done += 1
        oracle = Oracle(doms)
        for weights in (None, (1,) * len(soft)):
            got = extract_mus(soft, hard, oracle, weights)
            assert verify_mus(got, hard, oracle)
