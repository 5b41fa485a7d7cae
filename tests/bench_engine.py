"""Micro-benchmarks of engine compilation, propagation and search, of the
proof rewrite stages, and of oracle call overhead, on fixed inputs; and
checks that generating a model and whole operations leave no reference
cycles behind, since cyclic garbage makes the collector run more often.

    PYTHONPATH=src pytest tests/bench_engine.py --benchmark-only

The default test run does not collect this file: pytest only picks up
test_*.py files unless a file is named on the command line.
"""

import gc
import hashlib

import pytest

from proofseq import mus, pipeline
from proofseq.engine import DEFAULT_BUDGET, Engine
from proofseq.errors import BudgetExceededError
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.oracle import BudgetExceeded, Oracle, Sat, Unsat
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof

from test_determinism import PINNED_PROOFS

# constraint ids of sudoku9 seed 19 that one of its trim+minloc probes sends
# to the oracle: unsat after 158 conflicts, which register 157 nogoods of up
# to 11 atoms (4.8 on average), since the oracle's nogoods leave out
# root-level atoms; 44 of them repeat the atoms of an earlier one
RELAXATION = (
    "row1", "row2", "col3", "col4", "col6", "col9", "blk1", "blk2", "blk6", "blk8",
    "h1", "h3", "h5", "h8", "h9", "h10", "h11", "h12", "h13", "h18", "h19", "h21",
    "h22", "h23", "h24", "h27", "h29", "h30", "h32", "h33", "h37",
)

# constraint ids, in call order, of the probe that sudoku9 seed 15's
# trim+minloc run sends to its budget-500 oracle; the run fails there
# (the probe's other member is the empty conjunction, which adds nothing)
LONG_SEARCH = (
    "row5", "col7", "col5", "row7", "blk9", "col8", "blk7", "blk6", "blk5", "col1",
    "col4", "row9", "blk8", "row8", "row6", "col9", "col3", "row2", "blk3", "col2",
    "h37", "h36", "h35", "h34", "h33", "h32", "h31", "h30", "h29", "h28", "h27", "h26",
    "h25", "h24", "h23", "h22", "h21", "h20", "h17", "h16", "h13", "h9", "h8", "h5",
)


def test_solve_with_proof_sudoku9(benchmark):
    """Propagation and proof logging with the alldifferent propagator."""
    solver = flatten(generate_instance("sudoku9", 1))
    result, _ = benchmark(solve_with_proof, solver)
    assert isinstance(result, Unsat)


def test_proof_round_trip_sudoku9_decomposed(benchmark):
    """The proof round trip of one `sudoku9-proof` operation before its
    rewrite stages: flatten with decomposed alldifferent, prove with every
    propagation logged, and parse the proof text back. The text must be the
    pinned one, so the timed path cannot change the proof."""
    model = generate_instance("sudoku9", 1)

    def round_trip():
        solver = flatten(model, decompose_alldiff=True)
        text = solve_with_proof(solver, log_all=True)[1]
        return text, parse_drcp(text, solver)

    text, proof = benchmark(round_trip)
    assert proof.is_refutation()
    pinned = {row[:4]: row[4] for row in PINNED_PROOFS}
    assert hashlib.sha256(text.encode()).hexdigest() == pinned["sudoku9", 1, True, True]


def test_pipeline_trim_sudoku9_decomposed(benchmark):
    """The rewrite stages of one `sudoku9-proof` operation, merge_steps
    included: `run_pipeline` with `trim` on a `log_all` proof of the
    decomposed model, parsed once outside the timed region."""
    model = generate_instance("sudoku9", 1)
    solver = flatten(model, decompose_alldiff=True)
    proof = parse_drcp(solve_with_proof(solver, log_all=True)[1], solver)
    result = benchmark(pipeline.run_pipeline, model, proof, "trim", solver)
    assert result.oracle_calls == 0 and result.sequence.derives_false()


def test_oracle_solve_sudoku9_relaxation(benchmark):
    """Search that learns about 160 nogoods, so clause propagation dominates."""
    model = generate_instance("sudoku9", 19)
    constraints = [model.constraint_map[cid].expr for cid in RELAXATION]
    oracle = Oracle(model.vars)
    result = benchmark(oracle.solve, constraints)
    assert isinstance(result, Unsat)
    eng = oracle._engine(constraints)
    compiled = len(eng.props)
    assert eng.solve().conflicts == 158
    assert len(eng.props) - compiled == 157  # every learned nogood, copies too


def test_oracle_solve_sudoku9_long_search(benchmark):
    """A search that runs out of its 500-conflict budget, as in the
    `sudoku9-minloc` operations that fail: the cost of a conflict late in a
    long search, with hundreds of learned nogoods. A clause unit's premises
    are built only when conflict analysis reads them, so for fewer entries
    than the search pushes units."""
    model = generate_instance("sudoku9", 15)
    constraints = [model.constraint_map[cid].expr for cid in LONG_SEARCH]
    result = benchmark(Oracle(model.vars, budget=500).solve, constraints)
    assert result == BudgetExceeded(501)
    counts = {"units pushed": 0, "unit premises built": 0}
    push, premises = Engine._push, Engine.premises

    def counted_push(eng, atom, reason):
        # a clause unit's marker is its clause's propagator (see `Engine.premises`)
        counts["units pushed"] += reason is not None and reason[0] is Engine._prop_clause
        return push(eng, atom, reason)

    def counted_premises(eng, e):
        counts["unit premises built"] += eng.t_reason[e][0] is Engine._prop_clause
        return premises(eng, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_push", counted_push)
        mp.setattr(Engine, "premises", counted_premises)
        assert Oracle(model.vars, budget=500).solve(constraints) == result
    assert 0 < counts["unit premises built"] < counts["units pushed"], counts


def test_compile_jobshop_user_model(benchmark):
    """Engine set-up and compilation alone: jobshop's or() constraints go
    through the disjunction compiler, which adds selectors and guarded members."""
    model = generate_instance("jobshop", 1)

    def compile_all():
        eng = Engine(model.vars)
        for c in model.constraints:
            eng.add_constraint(c.id, c.expr)
        return eng

    eng = benchmark(compile_all)
    assert len(eng.props) > len(model.constraints)


class _FirstQueryDone(Exception):
    pass


@pytest.fixture(scope="module")
def minglob_oracle_calls():
    """(variables, calls, results) of the first query that the `minglob`
    variant sends to `extract_mus_indices` on sudoku4 seed 1: each call is
    the hard that `Oracle.solve` received."""
    model = generate_instance("sudoku4", 1)
    solver = flatten(model)
    proof = parse_drcp(solve_with_proof(solver)[1], solver)
    calls, results = [], []
    solve = Oracle.solve

    def record(oracle, hard=()):
        calls.append(tuple(hard))
        results.append(solve(oracle, hard))
        return results[-1]

    def first_query(soft, hard, oracle, weights=None, start=None, models=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Oracle, "solve", record)
            mus.extract_mus_indices(soft, hard, oracle, weights, start, models=models)
        raise _FirstQueryDone(oracle.vars)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "extract_mus_indices", first_query)
        with pytest.raises(_FirstQueryDone) as done:
            pipeline.run_pipeline(model, proof, "minglob", solver)
    return done.value.args[0], calls, results


def test_oracle_calls_of_a_minglob_query(benchmark, minglob_oracle_calls):
    """Per-call overhead: every oracle call of one global-minimization query,
    mostly cheap ones, replayed through one new Oracle, as the pipeline
    makes them through its own."""
    vars_, calls, expected = minglob_oracle_calls

    def replay():
        oracle = Oracle(vars_)
        return [oracle.solve(hard) for hard in calls]

    assert benchmark(replay) == expected
    assert {type(r) for r in expected} == {Sat, Unsat}


def _explain(model, variant, decompose_alldiff=False, log_all=False, budget=DEFAULT_BUDGET):
    """One operation of the benchmark from a generated model: flatten,
    prove, parse the proof and run the pipeline."""
    solver = flatten(model, decompose_alldiff=decompose_alldiff)
    proof = parse_drcp(solve_with_proof(solver, budget=budget, log_all=log_all)[1], solver)
    return pipeline.run_pipeline(model, proof, variant, solver, budget=budget)


def _cyclic_garbage(run):
    """(run(), the number of unreachable objects that `gc.collect()` then
    finds), with the cyclic collector off while run() runs."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(), gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("suite, variant, decomposed", [
    ("sudoku9", "trim", True),  # a `sudoku9-proof` operation
    ("sudoku9", "trim+minloc", False),  # a `sudoku9-minloc` one: proof-free searches
    ("sudoku4", "minglob", False),  # global minimization: the hitting-set search
])
def test_operation_leaves_no_cyclic_garbage(suite, variant, decomposed):
    # generating the model, whose full grid a recursive closure fills, too
    model, garbage = _cyclic_garbage(lambda: generate_instance(suite, 1))
    assert garbage == 0
    result, garbage = _cyclic_garbage(
        lambda: _explain(model, variant, decompose_alldiff=decomposed, log_all=decomposed))
    assert garbage == 0
    assert result.sequence.derives_false()


def test_failed_operation_leaves_no_cyclic_garbage():
    """sudoku9 seed 13's `sudoku9-minloc` operation, which runs out of its
    500-conflict budget: the engines of a failed search, whose trail
    entries keep their clauses' atoms, leave no cycles either."""
    model = generate_instance("sudoku9", 13)

    def failed():
        try:
            _explain(model, "trim+minloc", budget=500)
        except BudgetExceededError as err:
            return str(err)

    message, garbage = _cyclic_garbage(failed)
    assert garbage == 0
    assert message is not None and message.startswith("oracle budget exhausted")
