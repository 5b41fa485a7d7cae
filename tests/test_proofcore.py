import random
from pathlib import Path

import pytest

from proofseq.errors import (
    DanglingReferenceError,
    ForwardReferenceError,
    ProofParseError,
    ProofSerializeError,
    ProofShapeError,
    UnknownConstraintError,
)
from proofseq.flatten import flatten
from proofseq.model import (
    AtomicConstraint,
    Clause,
    FALSE,
    Linear,
    VarId,
    clause_of,
    conjunction_of,
    parse_model,
)
from proofseq.oracle import Oracle
from proofseq.proofcore import (
    AbstractProof,
    ProofStep,
    check_proof,
    check_step,
    parse_drcp,
    serialize_proof,
    trim,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def jobshop():
    model = parse_model((DATA / "jobshop.mod").read_text())
    solver = flatten(model)
    proof = parse_drcp((DATA / "jobshop.drcp").read_text(), solver)
    return model, solver, proof


def test_parse_golden_proof_shape(jobshop):
    _, solver, proof = jobshop
    assert len(proof.steps) == 14
    last = proof.steps[-1]
    assert last.derived == FALSE
    assert last.reasons == (10, 12, 13)
    assert proof.is_refutation()
    # step 5 derives the reified clause over the first selector
    x1 = solver.var_by_name("_x1")
    s5 = proof.steps[4].derived
    assert isinstance(s5, Clause) and s5.atoms[0] == AtomicConstraint(x1, ">=", 1)
    assert proof.steps[4].reasons == ("no1/2",)


def test_parse_empty_proof_not_a_refutation(jobshop):
    _, solver, _ = jobshop
    p = parse_drcp("", solver)
    assert len(p.steps) == 0
    assert not p.is_refutation()


def test_parse_forward_reference_rejected(jobshop):
    _, solver, _ = jobshop
    text = "i a<=3|b>=7 c:p1\nn a<=3 s:3\nn b>=3 s:1\n"
    with pytest.raises(ForwardReferenceError):
        parse_drcp(text, solver)


def test_parse_unknown_constraint_and_variable(jobshop):
    _, solver, _ = jobshop
    with pytest.raises(UnknownConstraintError):
        parse_drcp("i a<=3 c:nope\n", solver)
    with pytest.raises(ProofParseError):
        parse_drcp("i zz<=3 c:p1\n", solver)
    with pytest.raises(ProofParseError):
        parse_drcp("c UNSAT\nn a<=3 s:1\n", solver)  # content after conclusion


REJECTED_LINES = (
    ("i a<=3|b>=7 c:p1\nn a<=3 s:0\n", DanglingReferenceError),
    ("i c:p1\n", ProofParseError),                          # inference without atoms
    ("i a<=3 c:p1\ni b>=7 s:1\n", ProofParseError),          # inference citing a step
    ("n a<=3 c:p1\n", ProofParseError),                     # nogood citing a constraint
    ("i a<=3 c:p1\ni b>=7 c:p1\nd s:1,s:2\n", ProofParseError),  # deletion of two steps
    ("n a<=3 s:1\n", ForwardReferenceError),                # step citing itself
    ("i a<=3|b>=7 c:p1\nd s:2\n", ForwardReferenceError),    # deletion of a later step
    ("c SAT\n", ProofParseError),                           # unknown conclusion
    ("x a<=3 c:p1\n", ProofParseError),                     # unknown line tag
)


def test_parse_rejects_malformed_line_shapes(jobshop):
    _, solver, _ = jobshop
    for text, error in REJECTED_LINES:
        with pytest.raises(ProofParseError) as info:
            parse_drcp(text, solver)
        assert type(info.value) is error, text


def _parse_error(text, solver):
    with pytest.raises(ProofParseError) as info:
        parse_drcp(text, solver)
    return type(info.value), info.value.line, str(info.value)


def test_parse_memo_keeps_forward_reference_checks(jobshop):
    """A step token remembered as valid must have been checked at its first
    valid use: used too early, it still fails at that early line."""
    _, solver, _ = jobshop
    ok = "i a<=3|b>=7 c:p1\ni b>=7 c:p1\nn a<=3 s:2\nn b>=3 s:2,s:1\n"
    p = parse_drcp(ok, solver)
    assert p.steps[3].reasons == (2, 1)
    early = "i a<=3|b>=7 c:p1\nn a<=3 s:2\ni b>=7 c:p1\nn b>=3 s:2\n"
    assert _parse_error(early, solver) == (
        ForwardReferenceError, 2, "line 2: reference to step 2 before it exists")


def test_parse_memo_rechecks_bad_atoms_and_refs(jobshop):
    """Malformed and unknown tokens take the checked path every time, with
    the same error class, message and line, also right after a valid token
    of the same variable or kind, and in a second parse (every memo is
    local to one call)."""
    _, solver, _ = jobshop
    cases = (
        ("i a<=3 c:p1\ni a<=3|a<3 c:p1\n",
         (ProofParseError, 2, "line 2: malformed atom 'a<3'")),
        ("i a<=3 c:p1\ni a<=3| a<=x c:p1\n",
         (ProofParseError, 2, "line 2: malformed atom 'a<=x'")),
        ("i a<=3 c:p1\ni a<=3|aa<=3 c:p1\n",
         (ProofParseError, 2, "line 2: unknown variable 'aa'")),
        ("i a<=3 c:p1\ni a<=3 c:nope\ni a<=3 c:nope\n",
         (UnknownConstraintError, 2, "line 2: unknown constraint id 'nope'")),
        ("i a<=3 c:p1\nn a<=3 c:p1\n",  # a valid c: token is still no nogood reason
         (ProofParseError, 2, "line 2: malformed reference 'c:p1'")),
    )
    for text, expected in cases:
        assert _parse_error(text, solver) == expected, text
        assert _parse_error(text, solver) == expected, text


@pytest.mark.parametrize("decompose", [False, True])
@pytest.mark.parametrize("log_all", [False, True])
def test_prover_proofs_roundtrip(log_all, decompose):
    from proofseq.instances import generate_instance
    from proofseq.prover import solve_with_proof

    for suite in ("sudoku4", "jobshop", "mutated"):
        for seed in (1, 2, 3):
            solver = flatten(generate_instance(suite, seed), decompose_alldiff=decompose)
            text = solve_with_proof(solver, log_all=log_all)[1]
            p = parse_drcp(text, solver)
            assert p.is_refutation(), (suite, seed)
            assert serialize_proof(p) == text, (suite, seed)
            assert parse_drcp(serialize_proof(p), solver) == p, (suite, seed)


def test_serialize_roundtrip_golden(jobshop):
    _, solver, proof = jobshop
    text = serialize_proof(proof)
    assert parse_drcp(text, solver) == proof
    # canonical file round-trips byte-exactly
    assert text == (DATA / "jobshop.drcp").read_text()


def test_deletion_line_validated_and_dropped(jobshop):
    _, solver, _ = jobshop
    text = "# drcp 1\ni a<=3|b>=7 c:p1\nn a<=3 s:1\nc UNSAT s:2\n"
    with_hint = text.replace("c UNSAT", "d s:1\nc UNSAT")
    p = parse_drcp(with_hint, solver)
    assert p == parse_drcp(text, solver)
    assert serialize_proof(p) == text  # no d line is written


def test_zero_step_proof_serializes_to_header(jobshop):
    _, solver, _ = jobshop
    p = AbstractProof(())
    assert serialize_proof(p) == "# drcp 1\n"
    assert parse_drcp(serialize_proof(p), solver) == p


_A = AtomicConstraint(VarId(0, "a"), "<=", 3)
SERIALIZE_REJECTED = (
    # mixed input and step reasons
    ((ProofStep(_A, ("p1",)), ProofStep(_A, (1, "p2"))),
     "step 2 has neither"),
    # a non-final step with no reasons
    ((ProofStep(_A, ()), ProofStep(FALSE, (1,))), "step 1 has neither"),
    # a derivation that is not a clause
    ((ProofStep(Linear(((1, VarId(0, "a")),), "<=", 3), ("p1",)),),
     "step 1 derives a non-clause"),
    # false before the last step
    ((ProofStep(FALSE, ("p1",)), ProofStep(_A, (1,))),
     "step 1 derives false before"),
)


def test_serialize_rejects_shapes_the_format_cannot_hold():
    for steps, message in SERIALIZE_REJECTED:
        with pytest.raises(ProofSerializeError, match=message):
            serialize_proof(AbstractProof(steps))


def test_check_step_golden_all_valid(jobshop):
    _, solver, proof = jobshop
    oracle = Oracle(solver.vars)
    for i in range(1, 15):
        assert check_step(proof, i, solver, oracle=oracle) is None, f"step {i}"
    assert check_proof(proof, solver) == []


def test_check_step_replacement_example(jobshop):
    # (x != 1) | (y != 1) follows from x != y
    m = parse_model("var x 0..2\nvar y 0..2\nvar z 0..2\n"
                    "con ne: lin 1*x - 1*y != 0\n")
    s = flatten(m)
    proof = parse_drcp("i x!=1|y!=1 c:ne\n", s)
    assert check_step(proof, 1, s) is None


def test_check_step_invalid_with_witness(jobshop):
    m = parse_model("var a 0..6\nvar b 0..6\nvar x 0..6\ncon p: lin 1*a - 1*b <= -3\n")
    s = flatten(m)
    proof = parse_drcp("i x<=3 c:p\n", s)
    res = check_step(proof, 1, s)
    assert res is not None
    x = s.var_by_name("x")
    assert res[x] >= 4


def test_trim_keeps_all_golden_steps(jobshop):
    _, _, proof = jobshop
    trimmed = trim(proof)
    assert len(trimmed.steps) == 14
    assert trimmed.steps == trim(trimmed).steps  # idempotent


def test_trim_removes_unused_step(jobshop):
    _, solver, _ = jobshop
    text = ("i a<=3|b>=7 c:p1\n"
            "n a<=3 s:1\n"
            "i c<=2|d>=2 c:p2\n"   # never referenced
            "c UNSAT s:2\n")
    p = parse_drcp(text, solver)
    t = trim(p)
    assert len(t.steps) == 3
    assert t.steps[-1].reasons == (2,)
    assert trim(t) == t


def test_numeric_constraint_id_stays_apart_from_step_ids():
    """A constraint id may look like a number: c:1 is the str "1" and s:1
    the int 1, through parsing, serialization, trimming and lifting."""
    from proofseq.flatten import SolverModel
    from proofseq.pipeline import lift_to_user_level

    user = parse_model("var x 0..3\nvar y 0..3\ncon 1: x >= 2\ncon 2: lin 1*x - 1*y <= -2\n")
    solver = SolverModel(vars=user.vars, constraints=user.constraints, aux_vars=frozenset(),
                         provenance={"1": "hint", "2": "gap"})
    text = ("# drcp 1\n"
            "i x>=2 c:1\n"
            "i x<=1 c:2\n"      # never referenced, though the conclusion cites c:2
            "n x>=2 s:1\n"
            "c UNSAT s:3,c:2\n")
    p = parse_drcp(text, solver)
    assert [s.reasons for s in p.steps] == [("1",), ("2",), (1,), (3, "2")]
    assert [type(r) for s in p.steps for r in s.reasons] == [str, str, int, int, str]
    assert serialize_proof(p) == text
    assert parse_drcp(serialize_proof(p), solver) == p
    assert check_proof(p, solver) == []

    t = trim(p)
    assert [s.derived for s in t.steps] == [p.steps[0].derived, p.steps[2].derived, FALSE]
    assert [s.reasons for s in t.steps] == [("1",), (1,), (2, "2")]

    lifted = lift_to_user_level(p, solver)
    assert [s.reasons for s in lifted.steps] == [("hint",), ("gap",), (1,), (3, "gap")]


def test_trim_requires_refutation(jobshop):
    _, solver, _ = jobshop
    p = parse_drcp("i a<=3|b>=7 c:p1\n", solver)
    with pytest.raises(ProofShapeError):
        trim(p)


def test_fuzz_roundtrip_through_concrete_syntax(jobshop):
    _, solver, _ = jobshop
    rng = random.Random(77)
    names = [v.name for v, _ in solver.vars]
    cids = list(solver.constraint_map)
    for _ in range(200):
        lines = []
        n = rng.randint(1, 10)
        for i in range(1, n + 1):
            atoms = "|".join(
                f"{rng.choice(names)}{rng.choice(['<=', '>=', '==', '!='])}{rng.randint(-2, 7)}"
                for _ in range(rng.randint(1, 3)))
            if rng.random() < 0.5 or i == 1:
                lines.append(f"i {atoms} c:{rng.choice(cids)}")
            else:
                refs = ",".join(f"s:{rng.randint(1, i - 1)}"
                                for _ in range(rng.randint(1, 3)))
                lines.append(f"n {atoms} {refs}")
        if rng.random() < 0.5:
            lines.append(f"c UNSAT s:{rng.randint(1, n)}")
        text = "\n".join(lines) + "\n"
        p = parse_drcp(text, solver)
        assert parse_drcp(serialize_proof(p), solver) == p


def test_proof_parser_survives_junk_input(jobshop):
    import string
    from proofseq.errors import ProofseqError
    _, solver, _ = jobshop
    rng = random.Random(6)
    for _ in range(400):
        n = rng.randint(1, 4)
        text = "\n".join("".join(rng.choice(string.printable[:70])
                                 for _ in range(rng.randint(0, 30)))
                         for _ in range(n))
        try:
            parse_drcp(text, solver)
        except ProofseqError:
            pass


def test_check_step_agrees_with_enumeration():
    """Dual-route validity: the oracle verdict matches brute-force implication
    checking (reasons entail derived iff no assignment satisfies the reasons
    while violating a derived constraint)."""
    from proofseq.model import Domain, UserModel, Constraint
    from helpers import all_assignments, brute_eval

    rng = random.Random(3030)
    agree_valid = agree_invalid = 0
    for _ in range(150):
        nv = rng.randint(1, 3)
        vs = [VarId(i, f"v{i}") for i in range(nv)]
        doms = [(v, Domain(0, rng.randint(1, 4))) for v in vs]

        def rand_expr():
            k = rng.randrange(3)
            if k == 0:
                return AtomicConstraint(rng.choice(vs), rng.choice(["<=", ">=", "==", "!="]),
                                        rng.randint(0, 4))
            if k == 1:
                return clause_of([AtomicConstraint(rng.choice(vs),
                                                   rng.choice(["<=", ">=", "==", "!="]),
                                                   rng.randint(0, 4))
                                  for _ in range(rng.randint(1, 2))])
            sub = rng.sample(vs, rng.randint(1, min(2, nv)))
            return Linear(tuple((rng.choice([-1, 1]), v) for v in sub),
                          rng.choice(["<=", ">="]), rng.randint(-2, 6))

        reason_exprs = [rand_expr() for _ in range(rng.randint(1, 3))]
        derived = [rand_expr() for _ in range(rng.randint(1, 2))]
        model = UserModel(tuple(doms),
                          tuple(Constraint(f"r{i}", e) for i, e in enumerate(reason_exprs)))
        proof = AbstractProof((
            ProofStep(conjunction_of(derived),
                      tuple(f"r{i}" for i in range(len(reason_exprs)))),))
        got = check_step(proof, 1, model) is None
        want = True
        for alpha in all_assignments(doms):
            if all(brute_eval(r, alpha) for r in reason_exprs) and \
                    not all(brute_eval(d, alpha) for d in derived):
                want = False
                break
        assert got == want, (reason_exprs, derived)
        agree_valid += got
        agree_invalid += not got
    assert agree_valid > 20 and agree_invalid > 20
