"""Micro-benchmarks of MUS extraction on one fixed global-minimization query.

    PYTHONPATH=src pytest tests/bench_mus.py --benchmark-only

The query is the first one that the `minglob` variant sends to
`extract_mus_indices` on sudoku4 seed 1 (the final step, against every user
constraint and earlier fact, seeded from the step's own reasons), and the
families are the correction sets that `_min_hitting_set` receives while that
query is answered, each replayed with the cap and floor it was given. Both
are collected at run time, so they follow the current pipeline. The default
test run does not collect this file: pytest only picks up test_*.py files
unless a file is named on the command line.
"""

import pytest

from proofseq import mus, pipeline
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.oracle import Oracle
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof


class _Recorded(Exception):
    pass


@pytest.fixture(scope="module")
def global_query():
    """(soft, hard, weights, start, vars) of the first minglob query on sudoku4 seed 1."""
    model = generate_instance("sudoku4", 1)
    solver = flatten(model)
    proof = parse_drcp(solve_with_proof(solver)[1], solver)
    queries = []

    def record(soft, hard, oracle, weights=None, start=None):
        queries.append((tuple(soft), tuple(hard), weights, start, oracle.vars))
        raise _Recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "extract_mus_indices", record)
        with pytest.raises(_Recorded):
            pipeline.run_pipeline(model, proof, "minglob", solver)
    return queries[0]


@pytest.fixture(scope="module")
def hitting_set_calls(global_query):
    """The (sets, weights, cap, floor) arguments of every _min_hitting_set call the query makes."""
    soft, hard, weights, start, vars_ = global_query
    calls = []
    orig = mus._min_hitting_set

    def record(sets, ws, cap=float("inf"), floor=0):
        calls.append((list(sets), ws, cap, floor))
        return orig(sets, ws, cap, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mus, "_min_hitting_set", record)
        mus.extract_mus_indices(soft, hard, Oracle(vars_), weights, start)
    return calls


def test_min_hitting_set_families(benchmark, hitting_set_calls):
    """Branch and bound alone, stopped at its floor, over every correction-set
    family of the query."""
    def run_all():
        return [mus._min_hitting_set(sets, ws, cap, floor)
                for sets, ws, cap, floor in hitting_set_calls]

    results = benchmark(run_all)
    assert len(results) == len(hitting_set_calls)
    # every family but the last has a hitting set lighter than the incumbent
    assert all(h is not None for h in results[:-1])


def test_extract_mus_indices_global_query(benchmark, global_query):
    """The whole smallest-weighted extraction: oracle calls, grow and hitting sets."""
    soft, hard, weights, start, vars_ = global_query
    got = benchmark(lambda: mus.extract_mus_indices(soft, hard, Oracle(vars_), weights, start))
    assert got
