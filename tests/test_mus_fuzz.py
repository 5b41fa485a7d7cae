"""Property tests of MUS extraction against brute force.

The small random models of `test_engine_fuzz` (atoms, clauses, linears,
alldifferents and disjunctions over domains with holes) are split into hard
and soft constraints, with the variables of alldifferents narrowed to a few
values so that alldifferents take part in MUSes. A satisfiable query must
raise SatInputError. Otherwise the subset-minimal result must be one of the
brute-force MUSes, and the smallest-weighted result, with weights drawn from
1-3 and, as global minimization weighs its candidates, from {1, n+1}, must be
a MUS of the brute-force minimum weight. Each query is also answered from a
random unsat `start` (a brute-force MUS plus random extra members) and with
grow probes allowed no conflicts at all.

The branch and bound over hitting sets is checked on its own against brute
force, and stopped at the previous optimum of a growing family it must
return the very set the unbounded search returns. In its feasibility form
(floor at least cap - 1), the form the grow rounds' early exit uses, it must
return a hitting set lighter than cap exactly when brute force finds one.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq import mus
from proofseq.errors import SatInputError
from proofseq.model import AllDifferent, Domain
from proofseq.mus import _min_hitting_set, extract_mus_indices
from proofseq.oracle import Oracle

from helpers import brute_mus_family, brute_satisfiable, verify_mus
from test_engine_fuzz import small_models


@st.composite
def mus_queries(draw):
    doms, cons = draw(small_models())
    # an alldifferent over wide domains almost never takes part in a MUS, so
    # each variable of one gets a domain 0..k-2 to 0..k for the k variables
    # of the first alldifferent it is in: from a pigeonhole to one spare value
    width = {}
    for c in cons:
        if isinstance(c, AllDifferent):
            for v in c.vars:
                width.setdefault(v, len(c.vars) - 2 + draw(st.integers(0, 2)))
    doms = [(v, Domain(0, width[v])) if v in width else (v, d) for v, d in doms]
    cut = draw(st.integers(0, min(2, len(cons) - 1)))
    hard, soft = tuple(cons[:cut]), tuple(cons[cut:])
    n = len(soft)

    def per_member(elements):
        return tuple(draw(st.lists(elements, min_size=n, max_size=n)))

    weight_draws = (per_member(st.sampled_from((1, n + 1))), per_member(st.integers(1, 3)))
    # a start: the brute-force MUS at index pick (modulo their number) plus
    # the members flagged in extra
    pick = draw(st.integers(0, 7))
    extra = per_member(st.booleans())
    return doms, soft, hard, weight_draws, (pick, extra)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mus_queries())
def test_mus_agrees_with_brute_force(query):
    doms, soft, hard, weight_draws, (pick, extra) = query
    oracle = Oracle(doms)
    if brute_satisfiable(doms, soft + hard) is not None:
        with pytest.raises(SatInputError):
            extract_mus_indices(soft, hard, oracle)
        return
    family = brute_mus_family(doms, soft, hard)
    start = sorted(family[pick % len(family)] | {i for i, e in enumerate(extra) if e})
    got = extract_mus_indices(soft, hard, oracle)
    assert frozenset(got) in family
    got = extract_mus_indices(soft, hard, oracle, start=start)
    assert frozenset(got) in family and set(got) <= set(start), (start, got)
    for weights in weight_draws:
        best = min(sum(weights[i] for i in fam) for fam in family)
        for grow_budget in (mus.GROW_BUDGET, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mus, "GROW_BUDGET", grow_budget)
                for seed in (None, start):
                    got = extract_mus_indices(soft, hard, oracle, weights, seed)
                    assert sum(weights[i] for i in got) == best, (weights, seed, got, family)
                    assert frozenset(got) in family
                    assert verify_mus([soft[i] for i in got], hard, oracle)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=10),
    st.one_of(st.none(), st.integers(0, 12)))))
def test_floor_at_the_previous_optimum_changes_no_hitting_set(case):
    weights, sets, cap = case
    cap = float("inf") if cap is None else cap
    subsets = [frozenset(c) for r in range(len(weights) + 1)
               for c in itertools.combinations(range(len(weights)), r)]
    floor = 0
    for k in range(1, len(sets) + 1):
        family = sets[:k]
        full = _min_hitting_set(family, weights, cap)
        assert _min_hitting_set(family, weights, cap, floor=floor) == full
        best = min(sum(weights[i] for i in h) for h in subsets if all(h & s for s in family))
        if best >= cap:
            assert full is None
            break  # no hitting set is lighter than the cap, nor for any larger family
        assert all(full & s for s in family) and sum(weights[i] for i in full) == best
        floor = best


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=10),
    st.integers(0, 12), st.integers(0, 2))))
def test_floor_at_the_cap_finds_a_lighter_hitting_set_exactly_when_one_exists(case):
    weights, sets, cap, above = case
    subsets = [frozenset(c) for r in range(len(weights) + 1)
               for c in itertools.combinations(range(len(weights)), r)]
    lighter = [h for h in subsets
               if all(h & s for s in sets) and sum(weights[i] for i in h) < cap]
    got = _min_hitting_set(sets, weights, cap, floor=cap - 1 + above)
    assert (got is not None) == bool(lighter)
    if got is not None:
        assert all(got & s for s in sets) and sum(weights[i] for i in got) < cap
