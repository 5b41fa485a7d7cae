"""Property test of MUS extraction against brute force: the small random
models of `test_engine_fuzz` (atoms, clauses, linears, alldifferents and
disjunctions over domains with holes) are split into hard and soft
constraints, with the variables of alldifferents narrowed to a few values
so that alldifferents take part in MUSes. A satisfiable query must raise
SatInputError. Otherwise the subset-minimal result must be one of the
brute-force MUSes, and the smallest-weighted result, with weights drawn from
0-3 and from 1-3, must be a MUS of the brute-force minimum weight."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq.errors import SatInputError
from proofseq.model import AllDifferent, Domain
from proofseq.mus import extract_mus_indices
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
    with_zero = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    positive = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return doms, soft, hard, (with_zero, positive)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mus_queries())
def test_mus_agrees_with_brute_force(query):
    doms, soft, hard, weight_draws = query
    oracle = Oracle(doms)
    if brute_satisfiable(doms, soft + hard) is not None:
        with pytest.raises(SatInputError):
            extract_mus_indices(soft, hard, oracle)
        return
    family = brute_mus_family(doms, soft, hard)
    assert frozenset(extract_mus_indices(soft, hard, oracle)) in family
    for weights in weight_draws:
        got = extract_mus_indices(soft, hard, oracle, weights)
        best = min(sum(weights[i] for i in fam) for fam in family)
        assert sum(weights[i] for i in got) == best, (weights, got, family)
        assert frozenset(got) in family
        assert verify_mus([soft[i] for i in got], hard, oracle)
