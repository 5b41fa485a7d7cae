"""Micro-benchmarks of MUS extraction on fixed global-minimization queries.

    PYTHONPATH=src pytest tests/bench_mus.py --benchmark-only

The sudoku4 query is the first one that the `minglob` variant sends to
`extract_mus_indices` on sudoku4 seed 1 (the final step, against every user
constraint and earlier fact, seeded from the step's own reasons), and its
families are the correction sets that `_min_hitting_set` receives while that
query is answered, each replayed with the cap and floor it was given. Both
are collected at run time, so they follow the current pipeline. Seeded from
the step's own reasons, that query gives a single small family, so it times
little more than the call itself.

The grow query is the third `minglob` query on sudoku4 seed 3, also
collected at run time. Before grow rounds stopped once the incumbent was
proven optimal, it made the most grow probes of any `minglob` query on
sudoku4 seeds 1-3 (93 of its 102 oracle calls); it is kept so that the
benchmark times the same query. It now makes 5 grow probes and 8 oracle
calls in all, as a witness check (`_min_hitting_set` over the family and
the round's correction set so far) ends its one grow round early. Both
queries are replayed alone, without the Sat models of the pass's earlier
queries that the pipeline seeds them with.

The sudoku9 families load the hitting set: they are every `_min_hitting_set`
call that `trim+minglob` makes on sudoku9 seed 1, recorded once in
`tests/data/sudoku9_seed1_hitting_sets.json` because the run takes over a
minute. Per query the file holds the weights and the final family of
correction sets (a family only grows within a query), and per call the
number of sets it saw, its cap and its floor; `results` holds every call's
hitting set (sorted indices, or null). The file is a fixed load for the
branch and bound: it was recorded before the grow rounds visited their
candidates lightest first, which collects other correction sets, and it is
kept as it is so that its timings stay comparable.

The default test run does not collect this file: pytest only picks up
test_*.py files unless a file is named on the command line.
"""

import json
from pathlib import Path

import pytest

from proofseq import mus, pipeline
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.oracle import Oracle
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof


class _Recorded(Exception):
    pass


def _minglob_query(seed: int, k: int):
    """(soft, hard, weights, start, vars) of query k (from 0) that the minglob
    variant sends to extract_mus_indices on sudoku4 seed `seed`. The Sat
    models of the earlier queries, which the pipeline also passes, are left
    out: a replay answers the query alone."""
    model = generate_instance("sudoku4", seed)
    solver = flatten(model)
    proof = parse_drcp(solve_with_proof(solver)[1], solver)
    queries = []
    extract = pipeline.extract_mus_indices

    def record(soft, hard, oracle, weights=None, start=None, models=None):
        queries.append((tuple(soft), tuple(hard), weights, start, oracle.vars))
        if len(queries) > k:
            raise _Recorded
        return extract(soft, hard, oracle, weights, start, models=models)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "extract_mus_indices", record)
        with pytest.raises(_Recorded):
            pipeline.run_pipeline(model, proof, "minglob", solver)
    return queries[k]


@pytest.fixture(scope="module")
def global_query():
    """The first minglob query on sudoku4 seed 1."""
    return _minglob_query(1, 0)


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


@pytest.fixture(scope="module")
def grow_query():
    """The third minglob query on sudoku4 seed 3."""
    return _minglob_query(3, 2)


def test_extract_mus_indices_grow_rounds(benchmark, grow_query):
    """The smallest-weighted extraction whose time goes mostly to grow rounds."""
    soft, hard, weights, start, vars_ = grow_query
    oracles = []

    def run():
        oracles.append(Oracle(vars_))
        return mus.extract_mus_indices(soft, hard, oracles[-1], weights, start)

    assert benchmark(run) == (13,)
    assert oracles[-1].calls == 8


@pytest.fixture(scope="module")
def sudoku9_families():
    """(sets, weights, cap, floor) of every recorded call, and the results."""
    path = Path(__file__).parent / "data" / "sudoku9_seed1_hitting_sets.json"
    data = json.loads(path.read_text())
    calls = []
    for q in data["queries"]:
        sets = [frozenset(s) for s in q["sets"]]
        calls.extend((sets[:n], q["weights"], cap, floor) for n, cap, floor in q["calls"])
    expected = [None if h is None else frozenset(h) for h in data["results"]]
    return calls, expected


def test_min_hitting_set_sudoku9_families(benchmark, sudoku9_families):
    """Branch and bound over every correction-set family of sudoku9 seed 1's
    `trim+minglob` run, each with its recorded cap and floor: the hitting
    set's share of that run (one round, as it takes tens of seconds)."""
    calls, expected = sudoku9_families

    def run_all():
        return [mus._min_hitting_set(sets, ws, cap, floor) for sets, ws, cap, floor in calls]

    assert benchmark.pedantic(run_all, rounds=1, iterations=1) == expected
