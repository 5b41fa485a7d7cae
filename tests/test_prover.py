import functools

import pytest

from proofseq import instances
from proofseq.engine import Engine, EngineResult, EngineStep
from proofseq.errors import BudgetExceededError, EmptyDomainWarning, ProofSerializeError
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.model import AllDifferent, AtomicConstraint, clause_of, eval_expr, parse_model
from proofseq.oracle import Oracle, Sat, Unsat
from proofseq.proofcore import (
    AbstractProof,
    ProofStep,
    check_proof,
    parse_drcp,
    serialize_proof,
    trim,
)
from proofseq.prover import solve_with_proof

from test_model import JOBSHOP_MOD


def test_tiny_contradiction_proof():
    m = parse_model("var x 0..1\ncon a: clause x >= 1\ncon b: clause x <= 0\n")
    s = flatten(m)
    res, text = solve_with_proof(s)
    assert isinstance(res, Unsat)
    p = parse_drcp(text, s)
    assert p.is_refutation()
    assert len(p.steps) <= 3
    assert check_proof(p, s) == []


EMPTY_DOMAIN_MOD = "var x 3..1\nvar y 0..3\ncon a: lin 1*x + 1*y <= 2\n"


def test_empty_domain_is_refuted_by_the_bare_conclusion():
    """A declared empty domain makes the model unsat before any propagation:
    the proof is the conclusion alone, and every variant explains it in one
    step that derives false from no reasons."""
    from proofseq.pipeline import VARIANTS, run_pipeline
    from proofseq.sequence import validate_sequence
    with pytest.warns(EmptyDomainWarning):
        m = parse_model(EMPTY_DOMAIN_MOD)
    s = flatten(m)
    res, text = solve_with_proof(s)
    assert isinstance(res, Unsat)
    assert text == "# drcp 1\nc UNSAT\n"
    p = parse_drcp(text, s)
    assert p.is_refutation()
    assert check_proof(p, s) == []
    for name in VARIANTS:
        seq = run_pipeline(m, p, name, s).sequence
        assert (seq.sequence_length, seq.max_stepsize) == (1, 0), name
        assert seq.derives_false(), name
        assert validate_sequence(seq, m) == [], name


CONSTANT_LINEARS = ("lin 0*x <= -1", "lin 0*x >= 1", "lin 0*x == 1", "lin 0*x != 0")


@pytest.mark.parametrize("log_all", (False, True))
@pytest.mark.parametrize("decompose", (False, True))
def test_a_false_constant_linear_is_refuted_by_the_conclusion(log_all, decompose):
    """A linear whose coefficients are all 0 and which is false on its own
    fails the first time it propagates: the proof is the conclusion citing
    it, and every variant explains it in one step of one constraint. Its
    true forms are satisfiable."""
    from proofseq.pipeline import VARIANTS, run_pipeline
    from proofseq.sequence import validate_sequence
    for body in CONSTANT_LINEARS:
        m = parse_model(f"var x 0..3\ncon a: {body}\n")
        s = flatten(m, decompose_alldiff=decompose)
        res, text = solve_with_proof(s, log_all=log_all)
        assert isinstance(res, Unsat) and text == "# drcp 1\nc UNSAT c:a\n", body
        p = parse_drcp(text, s)
        assert check_proof(p, s) == [], body
        for name in VARIANTS:
            seq = run_pipeline(m, p, name, s).sequence
            assert (seq.sequence_length, seq.max_stepsize) == (1, 1), (body, name)
            assert validate_sequence(seq, m) == [], (body, name)
    for body in ("lin 0*x <= 0", "lin 0*x != 1"):
        s = flatten(parse_model(f"var x 0..3\ncon a: {body}\n"), decompose_alldiff=decompose)
        assert isinstance(solve_with_proof(s, log_all=log_all)[0], Sat), body


def test_jobshop_proof_validates():
    m = parse_model(JOBSHOP_MOD)
    s = flatten(m)
    res, text = solve_with_proof(s)
    assert isinstance(res, Unsat)
    p = parse_drcp(text, s)
    assert p.is_refutation()
    assert check_proof(p, s) == []


def test_sat_model_returns_assignment_and_empty_proof():
    m = parse_model("var x 0..3\nvar y 0..3\ncon ad: alldifferent(x,y)\n")
    s = flatten(m)
    res, text = solve_with_proof(s)
    assert isinstance(res, Sat)
    assert eval_expr(AllDifferent(tuple(v for v, _ in m.vars)), res.assignment)
    p = parse_drcp(text, s)
    assert len(p.steps) == 0 and not p.is_refutation()


def test_proof_steps_have_drcp_shape():
    m = parse_model(JOBSHOP_MOD)
    s = flatten(m)
    _, text = solve_with_proof(s)
    p = parse_drcp(text, s)
    for step in p.steps[:-1]:
        inference = len(step.reasons) == 1 and isinstance(step.reasons[0], str)
        nogood = step.reasons and all(isinstance(r, int) for r in step.reasons)
        assert inference or nogood, step


def test_log_all_leaves_room_for_trimming():
    m = parse_model(JOBSHOP_MOD)
    s = flatten(m)
    _, lazy_text = solve_with_proof(s)
    _, full_text = solve_with_proof(s, log_all=True)
    lazy = parse_drcp(lazy_text, s)
    full = parse_drcp(full_text, s)
    assert len(full.steps) >= len(lazy.steps)
    trimmed = trim(full)
    assert len(trimmed.steps) < len(full.steps)
    assert check_proof(full, s) == []
    # trimming a fully valid proof never invalidates a surviving step
    assert check_proof(trimmed, s) == []


def test_generate_sudoku9():
    m = generate_instance("sudoku9", 1)
    assert len(m.vars) == 81
    alldiffs = [c for c in m.constraints if c.id.startswith(("row", "col", "blk"))]
    assert len(alldiffs) == 27
    solver = flatten(m)
    res, text = solve_with_proof(solver)
    assert isinstance(res, Unsat)
    p = parse_drcp(text, solver)
    assert check_proof(p, solver) == []


def test_prover_agrees_with_oracle_on_generated_instances():
    for kind, seeds in (("sudoku4", [1, 2]), ("jobshop", [1, 2]), ("mutated", [1, 2])):
        for seed in seeds:
            model = generate_instance(kind, seed)
            solver = flatten(model)
            res, text = solve_with_proof(solver)
            assert isinstance(res, Unsat), (kind, seed)
            oracle_res = Oracle(solver.vars).solve(hard=[c.expr for c in solver.constraints])
            assert isinstance(oracle_res, Unsat)
            p = parse_drcp(text, solver)
            assert p.is_refutation()
            assert check_proof(p, solver) == [], (kind, seed)


def test_generate_sudoku4_shape():
    m = generate_instance("sudoku4", 1)
    assert len(m.vars) == 16
    alldiffs = [c for c in m.constraints if c.id.startswith(("row", "col", "blk"))]
    assert len(alldiffs) == 12
    hints = [c for c in m.constraints if c.id.startswith("h")]
    assert len(hints) >= 6
    assert all(isinstance(h.expr, AtomicConstraint) for h in hints)


def test_generate_deterministic_in_seed():
    a = generate_instance("jobshop", 7)
    b = generate_instance("jobshop", 7)
    assert a == b
    c = generate_instance("jobshop", 8)
    assert a != c


def test_generate_jobshop_tightness():
    m = generate_instance("jobshop", 1)
    task_vars = [v for v, _ in m.vars]
    assert len(task_vars) == 6  # 3 jobs x 2 tasks
    s = flatten(m)
    assert isinstance(Oracle(s.vars).solve(hard=[c.expr for c in s.constraints]), Unsat)


def test_generate_mutated_each_constraint_satisfiable():
    m = generate_instance("mutated", 3)
    s = flatten(m)
    assert isinstance(Oracle(s.vars).solve(hard=[c.expr for c in s.constraints]), Unsat)
    for c in m.constraints:
        one = flatten(type(m)(m.vars, (c,)))
        assert isinstance(Oracle(one.vars).solve(hard=[x.expr for x in one.constraints]), Sat), c.id


def test_generate_budget_exhaustion_is_an_error(monkeypatch):
    # an exhausted budget is no verdict: with budget 0 the first conflict of
    # a generation query must raise, not read as "satisfiable"
    monkeypatch.setattr(instances, "Oracle", functools.partial(Oracle, budget=0))
    with pytest.raises(BudgetExceededError):
        generate_instance("jobshop", 1)


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate_instance("nope", 1)


def test_prover_deterministic_proof_text():
    m = parse_model(JOBSHOP_MOD)
    s = flatten(m)
    _, first = solve_with_proof(s)
    for _ in range(3):
        _, again = solve_with_proof(s)
        assert again == first


def test_sudoku9_trim_pipeline_fast_and_valid():
    from proofseq.pipeline import run_pipeline
    from proofseq.sequence import validate_sequence
    m = generate_instance("sudoku9", 1)
    solver = flatten(m)
    _, text = solve_with_proof(solver)
    proof = parse_drcp(text, solver)
    r = run_pipeline(m, proof, "trim", solver)
    assert r.oracle_calls == 0
    assert r.sequence.derives_false()
    assert validate_sequence(r.sequence, m) == []


def _text_through_abstract_proof(s, res):
    """The proof text of an engine result by way of the abstract proof: one
    AtomicConstraint per engine atom, a clause per step, `serialize_proof`."""
    by_slot = {slot: v for v, slot in Engine(s.vars).slot_of.items()}
    if res.status == "sat":
        return serialize_proof(AbstractProof(()))
    steps = tuple(ProofStep(clause_of([AtomicConstraint(by_slot[vi], op, val)
                                       for vi, op, val in st.atoms]), st.reasons)
                  for st in res.steps)
    return serialize_proof(AbstractProof(steps))


def _engine_result(s, log_all):
    eng = Engine(s.vars, log_all=log_all)
    for c in s.constraints:
        eng.add_constraint(c.id, c.expr)
    return eng.solve()


PROOF_TEXT_CASES = ([(suite, seed) for suite in ("sudoku4", "jobshop", "mutated")
                     for seed in range(1, 11)]
                    + [("sudoku9", seed) for seed in (1, 2, 3)])


@pytest.mark.parametrize("log_all", (False, True))
@pytest.mark.parametrize("decompose", (False, True))
def test_proof_text_is_the_abstract_proofs(log_all, decompose):
    """`solve_with_proof` renders the engine's steps directly; its text is
    byte for byte what the abstract proof of the same run serializes to."""
    for suite, seed in PROOF_TEXT_CASES:
        solver = flatten(generate_instance(suite, seed), decompose_alldiff=decompose)
        res, text = solve_with_proof(solver, log_all=log_all)
        assert isinstance(res, Unsat), (suite, seed)
        assert text == _text_through_abstract_proof(solver, _engine_result(solver, log_all)), \
            (suite, seed)


def test_sat_proof_text_is_the_empty_abstract_proofs():
    s = flatten(parse_model("var x 0..3\nvar y 0..3\ncon ad: alldifferent(x,y)\n"))
    res, text = solve_with_proof(s)
    assert isinstance(res, Sat)
    assert text == _text_through_abstract_proof(s, _engine_result(s, False)) == "# drcp 1\n"


_X0 = ((0, "<=", 0),)
UNRENDERABLE_RUNS = (
    # a false step before the conclusion
    ([EngineStep(_X0, ("a",)), EngineStep((), (1,)), EngineStep(_X0, (2,))],
     "step 2 derives false before"),
    # an input and a step reason on one step
    ([EngineStep(_X0, ("a",)), EngineStep(_X0, (1, "b")), EngineStep((), (2,))],
     "step 2 has neither"),
)


@pytest.mark.parametrize("steps,message", UNRENDERABLE_RUNS)
def test_both_renderings_reject_the_same_steps(monkeypatch, steps, message):
    s = flatten(parse_model("var x 0..1\ncon a: clause x >= 1\ncon b: clause x <= 0\n"))
    res = EngineResult("unsat", steps=steps)
    with pytest.raises(ProofSerializeError, match=message):
        _text_through_abstract_proof(s, res)
    monkeypatch.setattr(Engine, "solve", lambda eng: res)
    with pytest.raises(ProofSerializeError, match=message):
        solve_with_proof(s)
