from dataclasses import replace
from pathlib import Path

import pytest

from proofseq.errors import (
    BudgetExceededError,
    LiftBeforeSimplifyError,
    ProofShapeError,
    SatInputError,
)
from proofseq.flatten import flatten
from proofseq.model import (
    AtomicConstraint,
    FALSE,
    clause_of,
    parse_model,
)
from proofseq.oracle import Oracle
from proofseq.pipeline import (
    GLOBAL,
    LOCAL,
    VARIANTS,
    PipelineVariant,
    lift_to_user_level,
    merge_steps,
    minimize_reasons,
    run_pipeline,
    simplify,
    simplify_aux_vars,
    simplify_to_domain_reductions,
    variant,
)
from proofseq.proofcore import (
    AbstractProof,
    ProofStep,
    check_proof,
    parse_drcp,
    trim,
)
from proofseq.sequence import DomainFact, ExplanationSequence, validate_sequence

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def jobshop():
    model = parse_model((DATA / "jobshop.mod").read_text())
    solver = flatten(model)
    proof = parse_drcp((DATA / "jobshop.drcp").read_text(), solver)
    return model, solver, proof


def _derived_atoms(p):
    return [s.derived for s in p.steps]


def test_simplify_aux_vars_surviving_steps(jobshop):
    model, solver, proof = jobshop
    p = simplify_aux_vars(proof, solver)
    # aux-var clauses are derived by steps 5-9 and 11; eight steps survive
    assert len(p.steps) == 8
    a = model.var_by_name("a")
    assert p.steps[1].derived == AtomicConstraint(a, "<=", 3)
    # the step deriving c>=3 absorbed the two reified halves of no1
    c_step = p.steps[4]
    assert c_step.derived == AtomicConstraint(model.var_by_name("c"), ">=", 3)
    assert c_step.reasons == (2, "no1/2", "no1/1")
    assert check_proof(p, solver) == []


def test_simplify_true_predicate_is_identity(jobshop):
    _, _, proof = jobshop
    assert simplify(proof, lambda s: True) == proof


def test_simplify_rejects_failing_final_step(jobshop):
    _, _, proof = jobshop
    with pytest.raises(ProofShapeError):
        simplify(proof, lambda s: s.derived != FALSE)


def test_degenerate_collapse_to_single_step(jobshop):
    """Every non-final step derives an aux-var constraint: the whole proof
    folds into one step deriving false from solver constraints."""
    _, solver, _ = jobshop
    text = ("i _x1>=1|a>=4|c<=-1 c:no1/2\n"
            "n _x1>=1|a>=4 s:1\n"
            "i _x2<=0|b<=2|d>=7 c:no2/1\n"
            "c UNSAT s:2,s:3\n")
    p = parse_drcp(text, solver)
    out = simplify_aux_vars(p, solver)
    assert len(out.steps) == 1
    assert out.steps[0].derived == FALSE
    assert set(out.steps[0].reasons) == {"no1/2", "no2/1"}


def test_lift_rejects_leftover_aux_vars(jobshop):
    _, solver, proof = jobshop
    with pytest.raises(LiftBeforeSimplifyError):
        lift_to_user_level(proof, solver)


def test_lift_dedupes_and_maps_to_user_ids(jobshop):
    model, solver, proof = jobshop
    p = lift_to_user_level(simplify_aux_vars(proof, solver), solver)
    c_step = p.steps[4]
    assert c_step.reasons == (2, "no1")
    d_step = p.steps[5]
    assert d_step.reasons == (4, "no2")
    assert check_proof(p, model) == []


def test_lift_identity_on_user_level_atoms():
    m = parse_model("var x 0..3\ncon h: clause x == 2\n")
    s = flatten(m)
    p = parse_drcp("i x==2 c:h\n", s)
    lifted = lift_to_user_level(p, s)
    assert lifted.steps == p.steps


def test_lift_decomposed_alldiff_reason():
    # x != y from the decomposition lifts back to the global alldifferent
    m = parse_model("var x 1..3\nvar y 1..3\nvar z 1..3\ncon ad: alldifferent(x,y,z)\n")
    s = flatten(m, decompose_alldiff=True)
    p = parse_drcp("i x!=1|y!=1 c:ad/1\n", s)
    lifted = lift_to_user_level(p, s)
    assert lifted.steps[0].reasons == ("ad",)
    assert check_proof(lifted, m) == []


GOLDEN_FIVE = [("a", "<=", 3), ("b", ">=", 3), ("c", ">=", 3), ("d", "<=", 1)]


def _user_level_five(model, solver, proof):
    p = lift_to_user_level(simplify_aux_vars(proof, solver), solver)
    p = trim(p)
    return simplify_to_domain_reductions(p, model)


def test_domain_reduction_matches_lifted_table(jobshop):
    """The trim-path stages reproduce the five-step user-level explanation:
    facts a<=3, b>=3, c>=3, d<=1, false with reasons p1, p1, {1,no1},
    {2,no2}, {3,4,p2}."""
    model, solver, proof = jobshop
    p = _user_level_five(model, solver, proof)
    assert len(p.steps) == 5
    atoms = _derived_atoms(p)
    for k, (name, op, val) in enumerate(GOLDEN_FIVE):
        assert atoms[k] == AtomicConstraint(model.var_by_name(name), op, val)
    assert atoms[4] == FALSE
    assert p.steps[0].reasons == ("p1",)
    assert p.steps[1].reasons == ("p1",)
    assert p.steps[2].reasons == (1, "no1")
    assert p.steps[3].reasons == (2, "no2")
    assert p.steps[4].reasons == (3, 4, "p2")
    assert trim(p) == p
    assert check_proof(p, model) == []


def test_global_minimization_reaches_three_steps(jobshop):
    model, solver, proof = jobshop
    p = _user_level_five(model, solver, proof)
    out = minimize_reasons(p, GLOBAL, model, Oracle(model.vars))
    assert len(out.steps) == 3
    assert out.steps[-1].derived == FALSE
    assert trim(out) == out
    assert check_proof(out, model) == []
    # each step cites exactly one user constraint
    for s in out.steps:
        assert sum(1 for r in s.reasons if isinstance(r, str)) == 1
    atoms = _derived_atoms(out)
    a = model.var_by_name("a")
    c = model.var_by_name("c")
    if atoms[0] == AtomicConstraint(a, "<=", 3):
        # the a/c chain: a<=3 from p1; c>=3 from fact+no1; false from fact+p2
        assert out.steps[0].reasons == ("p1",)
        assert out.steps[1].reasons == ("no1", 1)
        assert atoms[1] == AtomicConstraint(c, ">=", 3)
        assert out.steps[2].reasons == ("p2", 2)
    else:
        # the mirror through b/d is equally minimal; require the same shape
        b = model.var_by_name("b")
        assert atoms[0] == AtomicConstraint(b, ">=", 3)


def _resolved_reason_keys(p, model, step):
    from proofseq.model import canonical_key
    return {canonical_key(p.resolve(r, model)) for r in step.reasons}


def test_local_minimization_on_five_step(jobshop):
    model, solver, proof = jobshop
    p = _user_level_five(model, solver, proof)
    out = minimize_reasons(p, LOCAL, model, Oracle(model.vars))
    assert len(out.steps) == 3
    assert check_proof(out, model) == []
    # local containment: each kept step's reasons are a subset of before
    before = {s.derived: _resolved_reason_keys(p, model, s) for s in p.steps}
    for s in out.steps:
        assert _resolved_reason_keys(out, model, s) <= before[s.derived]
    assert trim(out) == out


def test_local_containment_holds_on_generated_instances():
    from proofseq.instances import generate_instance
    from proofseq.prover import solve_with_proof
    for kind, seed in (("sudoku4", 3), ("jobshop", 2), ("mutated", 5)):
        model = generate_instance(kind, seed)
        solver = flatten(model)
        _, text = solve_with_proof(solver)
        proof = parse_drcp(text, solver)
        p = _user_level_five_generic(model, solver, proof)
        out = minimize_reasons(p, LOCAL, model, Oracle(model.vars))
        before = {}
        for s in p.steps:
            before.setdefault(s.derived, set()).update(
                _resolved_reason_keys(p, model, s))
        for s in out.steps:
            assert _resolved_reason_keys(out, model, s) <= before[s.derived]
        assert trim(out) == out


def _user_level_five_generic(model, solver, proof):
    p = lift_to_user_level(simplify_aux_vars(proof, solver), solver)
    return simplify_to_domain_reductions(trim(p), model)


def test_minimize_identity_on_irreducible_singletons():
    """Singleton irreducible reasons survive minimization unchanged."""
    m = parse_model("var x 0..6\n"
                    "con a: clause x >= 4\n"
                    "con b: clause x <= 3\n")
    p = AbstractProof((
        ProofStep(AtomicConstraint(m.var_by_name("x"), ">=", 4), ("a",)),
        ProofStep(FALSE, (1, "b")),
    ))
    for mode in (LOCAL, GLOBAL):
        out = minimize_reasons(p, mode, m, Oracle(m.vars))
        assert [s.derived for s in out.steps] == [s.derived for s in p.steps]
        assert set(out.steps[0].reasons) == {"a"}
        assert set(out.steps[1].reasons) == {1, "b"}


def test_domain_reduction_identity_on_unary_proof():
    m = parse_model("var x 0..6\n"
                    "con a: clause x >= 4\n"
                    "con b: clause x <= 3\n")
    p = AbstractProof((
        ProofStep(AtomicConstraint(m.var_by_name("x"), ">=", 4), ("a",)),
        ProofStep(FALSE, (1, "b")),
    ))
    assert simplify_to_domain_reductions(p, m).steps == p.steps


def test_minimize_local_idempotent(jobshop):
    model, solver, proof = jobshop
    p = _user_level_five(model, solver, proof)
    once = minimize_reasons(p, LOCAL, model, Oracle(model.vars))
    twice = minimize_reasons(once, LOCAL, model, Oracle(model.vars))
    assert once == twice


def test_minimize_rejects_invalid_step(jobshop):
    model, solver, _ = jobshop
    a = model.var_by_name("a")
    bogus = AbstractProof((
        ProofStep(AtomicConstraint(a, ">=", 5), ("p1",)),
        ProofStep(FALSE, (1, "p2")),
    ))
    with pytest.raises(SatInputError):
        minimize_reasons(bogus, LOCAL, model, Oracle(model.vars))


def test_local_minimization_drops_irrelevant_reason():
    """A cell-assignment step that needlessly cites an unrelated hint loses
    it under local minimization."""
    m = parse_model(
        "var r1 1..2\nvar r2 1..2\nvar q 1..4\n"
        "con ad: alldifferent(r1,r2)\n"
        "con h1: clause r1 == 1\n"
        "con h2: clause q == 3\n")
    p = AbstractProof((
        ProofStep(AtomicConstraint(m.var_by_name("r2"), "==", 2), ("ad", "h1", "h2")),
        ProofStep(FALSE, (1, "ad", "h1")),
    ))
    # make it a refutation: r2 == 2 and alldifferent and r1 == 1 is satisfiable,
    # so use a contradictory final step instead
    m2 = parse_model(
        "var r1 1..2\nvar r2 1..2\nvar q 1..4\n"
        "con ad: alldifferent(r1,r2)\n"
        "con h1: clause r1 == 1\n"
        "con h2: clause q == 3\n"
        "con h3: clause r2 == 1\n")
    p = AbstractProof((
        ProofStep(AtomicConstraint(m2.var_by_name("r2"), "==", 2), ("ad", "h1", "h2")),
        ProofStep(FALSE, (1, "h3")),
    ))
    out = minimize_reasons(p, LOCAL, m2, Oracle(m2.vars))
    first = out.steps[0]
    assert "h2" not in first.reasons
    assert set(first.reasons) == {"ad", "h1"}


def test_merge_steps_on_worked_example(jobshop):
    model, solver, proof = jobshop
    p = _user_level_five(model, solver, proof)
    seq = merge_steps(p, model)
    # steps 1 and 2 share the reason set {p1} and merge at the front
    assert seq.sequence_length == 4
    first = seq.steps[0]
    assert first.reasons_user == ("p1",)
    assert len(first.facts) == 2
    assert seq.max_stepsize == 1
    assert seq.derives_false()
    assert validate_sequence(seq, model) == []


def test_merge_all_distinct_is_identity_shape(jobshop):
    model, solver, proof = jobshop
    p = _user_level_five(model, solver, proof)
    out = minimize_reasons(p, GLOBAL, model, Oracle(model.vars))
    seq = merge_steps(out, model)
    assert seq.sequence_length == 3
    assert seq.max_stepsize == 1


def test_variants_table():
    assert set(VARIANTS) == {"trim", "trim+minloc", "trim+minglob", "minloc",
                             "minglob", "minloc+minloc", "minglob+minloc"}
    with pytest.raises(ValueError):
        PipelineVariant("bad", LOCAL, GLOBAL)
    with pytest.raises(ValueError):
        variant("nope")


def test_run_pipeline_trim_makes_no_oracle_calls(jobshop):
    model, solver, proof = jobshop
    res = run_pipeline(model, proof, "trim", solver)
    assert res.oracle_calls == 0
    assert res.sequence.sequence_length == 4
    assert res.sequence.max_stepsize == 1
    sizes = res.stage_sizes()
    assert sizes["proof"] == 14
    assert sizes["no_aux"] == 8
    assert sizes["user_cons"] == 8
    assert sizes["min1"] == 8
    assert sizes["domain_red"] == 5
    assert sizes["min2"] == 5
    assert sizes["merged"] == 4


def test_run_pipeline_trim_minglob_golden(jobshop):
    model, solver, proof = jobshop
    res = run_pipeline(model, proof, "trim+minglob", solver, debug=True)
    seq = res.sequence
    assert seq.sequence_length == 3
    assert seq.max_stepsize <= 2
    assert seq.derives_false()
    assert res.oracle_calls > 0
    assert validate_sequence(seq, model) == []


def test_run_pipeline_all_variants_valid(jobshop):
    model, solver, proof = jobshop
    for name in VARIANTS:
        res = run_pipeline(model, proof, name, solver, debug=True)
        assert res.sequence.derives_false(), name
        assert validate_sequence(res.sequence, model) == [], name
        assert res.sequence.max_stepsize <= 2, name


def test_run_pipeline_debug_checks_use_the_run_budget(jobshop):
    model, solver, proof = jobshop
    # trim makes no pipeline oracle calls, so only the debug checks spend budget
    assert run_pipeline(model, proof, "trim", solver, budget=0).oracle_calls == 0
    with pytest.raises(BudgetExceededError):
        run_pipeline(model, proof, "trim", solver, budget=0, debug=True)


def test_merge_never_reorders_fact_availability(jobshop):
    model, solver, proof = jobshop
    for name in VARIANTS:
        seq = run_pipeline(model, proof, name, solver).sequence
        seen = set()
        for step in seq.steps:
            assert all(f in seen for f in step.reasons_facts)
            seen.update(f for f in step.facts if isinstance(f, DomainFact))


def test_merge_never_lengthens(jobshop):
    model, solver, proof = jobshop
    for name in VARIANTS:
        r = run_pipeline(model, proof, name, solver)
        sizes = r.stage_sizes()
        assert sizes["merged"] <= sizes["min2"], name


def test_non_contiguous_domain_fact_roundtrip():
    """A split unary clause becomes a set-valued domain statement and the
    resulting explanation still oracle-checks."""
    m = parse_model("var x 0..6\nvar y 0..6\n"
                    "con w: clause x <= 1 | x >= 5\n"
                    "con lo: clause x >= 2\n"
                    "con hi: clause x <= 4\n")
    p = AbstractProof((
        ProofStep(clause_of((AtomicConstraint(m.var_by_name("x"), "<=", 1),
                             AtomicConstraint(m.var_by_name("x"), ">=", 5))),
                  ("w",)),
        ProofStep(FALSE, (1, "lo", "hi")),
    ))
    seq = merge_steps(simplify_to_domain_reductions(p, m), m)
    assert validate_sequence(seq, m) == []
    fact = seq.steps[0].facts[0]
    assert fact.allowed == frozenset({0, 1, 5, 6})
    assert fact.display(m.domain_of(m.var_by_name("x"))) == "x in {0..1, 5..6}"


def test_domain_fact_expr_roundtrip_random():
    import random as _random
    from proofseq.model import Domain, VarId
    rng = _random.Random(55)
    for _ in range(300):
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(0, 7)
        holes = frozenset(v for v in range(lo + 1, hi) if rng.random() < 0.2)
        dom = Domain(lo, hi, holes)
        var = VarId(0, "x")
        values = list(dom.values())
        allowed = frozenset(v for v in values if rng.random() < 0.5)
        fact = DomainFact(var, allowed)
        expr = fact.to_expr(dom)
        if allowed:
            assert DomainFact.from_expr(expr, dom) == fact
        else:
            from proofseq.model import eval_expr
            assert all(not eval_expr(expr, {var: v}) for v in values)


def test_minimize_local_idempotent_on_generated_instances():
    from proofseq.instances import generate_instance
    from proofseq.prover import solve_with_proof
    for kind, seed in (("sudoku4", 7), ("jobshop", 11), ("mutated", 2)):
        model = generate_instance(kind, seed)
        solver = flatten(model)
        _, text = solve_with_proof(solver)
        proof = parse_drcp(text, solver)
        p = _user_level_five_generic(model, solver, proof)
        once = minimize_reasons(p, LOCAL, model, Oracle(model.vars))
        twice = minimize_reasons(once, LOCAL, model, Oracle(model.vars))
        assert once == twice, (kind, seed)


def test_every_stage_keeps_reasons_plain_keys():
    """A reason is exactly a constraint id (str) or a step id (int) in the
    parsed prover proof and after every rewrite stage."""
    from proofseq.instances import generate_instance
    from proofseq.prover import solve_with_proof

    def check(p, where):
        for i, s in enumerate(p.steps, start=1):
            assert all(type(r) in (str, int) for r in s.reasons), (where, i, s.reasons)

    for kind in ("sudoku4", "jobshop", "mutated"):
        model = generate_instance(kind, 1)
        solver = flatten(model)
        proof = parse_drcp(solve_with_proof(solver)[1], solver)
        check(proof, (kind, "proof"))
        no_aux = simplify_aux_vars(proof, solver)
        check(no_aux, (kind, "no_aux"))
        lifted = lift_to_user_level(no_aux, solver)
        check(lifted, (kind, "user_cons"))
        for name, out in (("trim", trim(lifted)),
                          (LOCAL, minimize_reasons(lifted, LOCAL, model, Oracle(model.vars))),
                          (GLOBAL, minimize_reasons(lifted, GLOBAL, model, Oracle(model.vars)))):
            check(out, (kind, name))
            check(simplify_to_domain_reductions(out, model), (kind, name, "domain_red"))


def test_simplify_aux_vars_returns_an_unchanged_proof_itself():
    """Without auxiliaries and repeated reasons nothing changes, so the
    input comes back; a repeated reason is still deduplicated."""
    model = parse_model("var x 0..3\ncon a: x >= 2\ncon b: x <= 1\n")
    solver = flatten(model)
    p = AbstractProof((
        ProofStep(AtomicConstraint(model.var_by_name("x"), ">=", 2), ("a",)),
        ProofStep(FALSE, (1, "b")),
    ))
    assert simplify_aux_vars(p, solver) is p
    twice = AbstractProof((p.steps[0], ProofStep(FALSE, (1, "b", 1))))
    assert simplify_aux_vars(twice, solver) == p


def _broken_sequences(seq):
    """(kind, 1-based step, seq with only that step broken): each step with
    one reason dropped, and each step that derives a fact no earlier step
    did with that fact added to its own reasons."""
    seen = set()
    for i, step in enumerate(seq.steps, start=1):
        user, facts = step.reasons_user, step.reasons_facts
        broken = [("dropped reason", replace(step, reasons_user=user[:k] + user[k + 1:]))
                  for k in range(len(user))]
        broken += [("dropped reason", replace(step, reasons_facts=facts[:k] + facts[k + 1:]))
                   for k in range(len(facts))]
        broken += [("own fact", replace(step, reasons_facts=facts + (f,)))
                   for f in step.facts if isinstance(f, DomainFact) and f not in seen]
        for kind, b in broken:
            yield kind, i, ExplanationSequence(seq.steps[:i - 1] + (b,) + seq.steps[i:])
        seen.update(step.facts)


def test_validate_sequence_reports_exactly_the_broken_step(jobshop):
    """trim+minglob reasons are minimum-weight MUSes with positive weights,
    hence subset-minimal: without any one of them a step no longer follows.
    A step may not cite a fact before some earlier step derives it."""
    from proofseq.instances import generate_instance
    from proofseq.prover import solve_with_proof
    runs = [jobshop]
    for kind in ("jobshop", "mutated"):
        for seed in (1, 2, 3):
            model = generate_instance(kind, seed)
            solver = flatten(model)
            _, text = solve_with_proof(solver)
            runs.append((model, solver, parse_drcp(text, solver)))
    seen = {"dropped reason": 0, "own fact": 0}
    for model, solver, proof in runs:
        seq = run_pipeline(model, proof, "trim+minglob", solver).sequence
        oracle = Oracle(model.vars)
        assert validate_sequence(seq, model, oracle=oracle) == []
        for kind, i, broken in _broken_sequences(seq):
            seen[kind] += 1
            bad = validate_sequence(broken, model, oracle=oracle)
            assert bad == [i], (kind, broken.steps[i - 1])
    assert min(seen.values()) >= 10, seen
