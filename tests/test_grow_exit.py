"""Grow rounds that stop once the incumbent is proven optimal, against full
grow rounds.

`_smallest_mus` ends a grow round as soon as no hitting set of the family
plus the round's correction set so far is lighter than the incumbent. The
reference below is the same search with every round grown to the end, in
the same lightest-first order. The correction set only shrinks during a
round, so the reference would end the search after that round with the same
incumbent: both must return the very same MUS, and the early exit may only
save oracle calls. Checked on random queries (those of `test_mus_fuzz`, and
crowded ones with many MUSes, under both grow budgets, from every member and
from a drawn unsat start) and on every global query of sudoku4, jobshop and
mutated seeds 1-3, where both are seeded from the Sat models of the pass's
earlier queries, as the pipeline seeds them. The queries of `test_mus_fuzz` alone rarely reach a grow
round: an exit that returns the incumbent as soon as a witness dies, without
looking for another one, passes on them but fails on the crowded ones and on
the global queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq import mus, pipeline
from proofseq.errors import SatInputError
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.model import AllDifferent, AtomicConstraint, Domain, Linear, VarId
from proofseq.mus import (
    _deletion_mus,
    _min_hitting_set,
    _model_correction_sets,
    _satisfied,
    _smallest_mus,
    extract_mus_indices,
)
from proofseq.oracle import DEFAULT_BUDGET, GrowSession, Oracle, Sat
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof

from test_engine_fuzz import OPS
from test_mus_fuzz import mus_queries


def _full_grow_mus(soft, hard, weights, oracle, start, models):
    n = len(soft)
    grow = None
    deletion_models = []
    best_known = _deletion_mus(soft, hard, oracle, start, deletion_models)
    correction_sets = _model_correction_sets(soft, hard, deletion_models + list(models))
    ub = sum(weights[i] for i in best_known)
    lb = 0
    while True:
        h = _min_hitting_set(correction_sets, weights, cap=ub, floor=lb)
        if h is None:
            return best_known
        lb = sum(weights[i] for i in h)
        model = oracle.model_of(hard + [soft[i] for i in sorted(h)])
        if model is None:
            return tuple(sorted(h))
        sat = _satisfied(soft, model, h)
        if grow is None:
            grow = GrowSession(oracle, hard, soft)
        grow.keep(sat)
        for i in sorted(range(n), key=weights.__getitem__):
            if i in sat:
                continue
            res = grow.probe(i, mus.GROW_BUDGET)
            if isinstance(res, Sat):
                sat = _satisfied(soft, res.assignment, sat | {i})
                grow.keep(sat)
        grow.clear()
        correction_sets.append(frozenset(range(n)) - sat)


def _compare(soft, hard, weights, vars_, start, budget=DEFAULT_BUDGET, models=()):
    """Answer and oracle calls of the search and of the reference, each on a
    fresh oracle and seeded from the same earlier models; the answer must
    match and the search may only save calls. Returns the calls saved."""
    soft, hard, weights = list(soft), list(hard), list(weights)
    oracle, reference = Oracle(vars_, budget), Oracle(vars_, budget)
    got = _smallest_mus(soft, hard, weights, oracle, start, list(models))
    assert got == _full_grow_mus(soft, hard, weights, reference, start, models), (weights, start)
    assert oracle.calls <= reference.calls
    return reference.calls - oracle.calls


@st.composite
def crowded_queries(draw):
    """Queries in the shape of `mus_queries`, with 4-12 atoms and sums over
    two to four variables of domain 0..3, and at times an alldifferent over
    all of them as the hard constraint: many MUSes, so that grow rounds run
    and a witness often dies while another is left."""
    vs = [VarId(i, f"x{i}") for i in range(draw(st.integers(2, 4)))]

    def atom():
        return AtomicConstraint(draw(st.sampled_from(vs)), draw(st.sampled_from(OPS)),
                                draw(st.integers(0, 3)))

    def linear():
        xs = draw(st.lists(st.sampled_from(vs), min_size=2, max_size=3, unique=True))
        return Linear(tuple((1, x) for x in xs), draw(st.sampled_from(OPS)), draw(st.integers(0, 8)))

    soft = tuple(draw(st.sampled_from((atom, atom, linear)))() for _ in range(draw(st.integers(4, 12))))
    hard = (AllDifferent(tuple(vs)),) if draw(st.booleans()) else ()
    n = len(soft)
    weight_draws = tuple(draw(st.lists(weight, min_size=n, max_size=n))
                         for weight in (st.sampled_from((1, n + 1)), st.integers(1, 3)))
    extra = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return [(v, Domain(0, 3)) for v in vs], soft, hard, weight_draws, (0, extra)


def test_random_queries_match_full_grow_rounds():
    saved = [0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(st.one_of(mus_queries(), crowded_queries()))
    def run(query):
        doms, soft, hard, weight_draws, (_, extra) = query
        try:
            deletion = extract_mus_indices(soft, hard, Oracle(doms))
        except SatInputError:
            return
        starts = (range(len(soft)), sorted(set(deletion) | {i for i, e in enumerate(extra) if e}))
        for weights in weight_draws:
            for grow_budget in (mus.GROW_BUDGET, 0):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mus, "GROW_BUDGET", grow_budget)
                    for start in starts:
                        saved[0] += _compare(soft, hard, weights, doms, start)

    run()
    assert saved[0] > 0


def test_global_queries_match_full_grow_rounds():
    queries, saved = [0], [0]

    def compared(soft, hard, weights, oracle, start, models):
        queries[0] += 1
        saved[0] += _compare(soft, hard, weights, oracle.vars, start, oracle.budget, models)
        return _smallest_mus(soft, hard, weights, oracle, start, models)

    for suite in ("sudoku4", "jobshop", "mutated"):
        for seed in (1, 2, 3):
            model = generate_instance(suite, seed)
            solver = flatten(model)
            proof = parse_drcp(solve_with_proof(solver)[1], solver)
            for variant in ("trim+minglob", "minglob"):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mus, "_smallest_mus", compared)
                    pipeline.run_pipeline(model, proof, variant, solver)
    assert queries[0] == 92 and saved[0] > 0, (queries, saved)
