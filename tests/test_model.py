import dataclasses
import random

import pytest

from proofseq.errors import EmptyDomainWarning, ModelParseError
from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Constraint,
    Disjunction,
    Domain,
    FALSE,
    HalfReified,
    Linear,
    TRUE,
    VarId,
    canonical_key,
    clause_of,
    eval_expr,
    negate_expr,
    parse_model,
    scope,
    serialize_model,
)
from proofseq.proofcore import ProofStep

from helpers import all_assignments, brute_eval

JOBSHOP_MOD = """\
# simplified jobshop: 4 tasks in 0..6
var a 0..6
var b 0..6
var c 0..6
var d 0..6
con no1: or(lin 1*a - 1*c <= -3; lin 1*c - 1*a <= -4)
con no2: or(lin 1*b - 1*d <= -4; lin 1*d - 1*b <= -5)
con p1: lin 1*a - 1*b <= -3
con p2: lin 1*c - 1*d <= -4
"""


def _vars(*names, lo=0, hi=6):
    return [VarId(i, n) for i, n in enumerate(names)], Domain(lo, hi)


def test_varid_hashes_orders_and_prints_as_before():
    """Set and dict iteration orders over variables, and with them every
    proof, explanation and digest, depend on hash(VarId): it must stay
    hash((index, name)), the hash of the frozen dataclass VarId once was."""
    for index, name in ((0, "a"), (7, "r1c1"), (12, "_x3")):
        v = VarId(index, name)
        assert hash(v) == hash((index, name))
        assert v == VarId(index=index, name=name)
        assert (v.index, v.name) == (index, name)
        assert repr(v) == f"VarId(index={index}, name={name!r})"
        assert str(v) == name
    assert VarId(0, "b") < VarId(1, "a") < VarId(1, "b")
    assert sorted([VarId(2, "a"), VarId(0, "z"), VarId(0, "y")]) == [
        VarId(0, "y"), VarId(0, "z"), VarId(2, "a")]
    assert max(VarId(3, "c"), VarId(3, "d")) == VarId(3, "d")


def test_records_keep_their_dataclass_behaviour():
    """The records built per pair or per proof line fill their fields
    directly, and keep the frozen dataclass's hash, equality, repr,
    `replace` and frozenness, and the atom's operator check."""
    x = VarId(0, "x")
    atom = AtomicConstraint(x, "<=", 2)
    records = {
        atom: (x, "<=", 2),
        Linear(((1, x), (-1, VarId(1, "y"))), "!=", 0): (((1, x), (-1, VarId(1, "y"))), "!=", 0),
        Constraint("c1", atom): ("c1", atom),
        ProofStep(atom, ("c1", 3)): (atom, ("c1", 3)),
    }
    for r, fields in records.items():
        assert hash(r) == hash(fields)
        assert r == type(r)(*fields)
        name = dataclasses.fields(r)[-1].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, None)
        assert dataclasses.replace(r) == r
        assert getattr(dataclasses.replace(r, **{name: 5}), name) == 5
    # equal fields, another class
    assert Constraint(atom, ("c1", 3)) != ProofStep(atom, ("c1", 3))
    assert Linear(x, "<=", 2) != atom
    assert repr(atom) == "AtomicConstraint(var=VarId(index=0, name='x'), op='<=', value=2)"
    assert repr(Linear(((2, x),), ">=", -1)) == \
        "Linear(terms=((2, VarId(index=0, name='x')),), op='>=', rhs=-1)"
    assert repr(Constraint("c1", atom)) == f"Constraint(id='c1', expr={atom!r})"
    assert repr(ProofStep(atom, (1,))) == f"ProofStep(derived={atom!r}, reasons=(1,))"
    with pytest.raises(ValueError, match="^unknown atom operator '<>'$"):
        AtomicConstraint(x, "<>", 1)
    with pytest.raises(ValueError, match="^unknown atom operator '<>'$"):
        dataclasses.replace(atom, op="<>")


def test_parse_jobshop_counts():
    m = parse_model(JOBSHOP_MOD)
    assert len(m.vars) == 4
    assert len(m.constraints) == 4
    assert [c.id for c in m.constraints] == ["no1", "no2", "p1", "p2"]
    no1 = m.constraint_by_id("no1").expr
    assert isinstance(no1, Disjunction) and len(no1.members) == 2


def test_parse_empty_model():
    m = parse_model("var x 0..3\n")
    assert len(m.constraints) == 0
    assert m.domain_of(m.var_by_name("x")) == Domain(0, 3)


def test_parse_errors_carry_line():
    with pytest.raises(ModelParseError) as e:
        parse_model("var x 0..3\nfrob y\n")
    assert e.value.line == 2
    with pytest.raises(ModelParseError):
        parse_model("con c1: lin 1*x <= 3\n")  # undeclared variable
    with pytest.raises(ModelParseError):
        parse_model("var x 0..1\nvar x 2..3\n")


def test_empty_domain_is_warning_not_error():
    with pytest.warns(EmptyDomainWarning):
        m = parse_model("var x 3..1\n")
    assert m.domain_of(m.var_by_name("x")).is_empty()


def test_scope_examples():
    (x, y, z), _ = _vars("x", "y", "z")
    assert scope(AllDifferent((x, y, z))) == {x, y, z}
    assert scope(AtomicConstraint(x, "<=", 3)) == {x}
    # guard variable plus the linear scope, as in x1 => a + 3 <= c
    (x1, a, c), _ = _vars("x1", "a", "c")
    hr = HalfReified(AtomicConstraint(x1, "==", 1), Linear(((1, a), (-1, c)), "<=", -3))
    assert scope(hr) == {x1, a, c}
    assert scope(Clause(())) == frozenset()


def test_eval_examples():
    (a, b), _ = _vars("a", "b")
    lin = Linear(((1, a), (-1, b)), "<=", -3)  # a + 3 <= b
    assert eval_expr(lin, {a: 0, b: 3}) is True
    (x, y), _ = _vars("x", "y")
    assert eval_expr(AllDifferent((x, y)), {x: 1, y: 1}) is False
    cl = Clause((AtomicConstraint(a, "<=", 3), AtomicConstraint(b, ">=", 7)))
    assert eval_expr(cl, {a: 4, b: 2}) is False


def test_eval_missing_variable_raises():
    (x, y), _ = _vars("x", "y")
    with pytest.raises(KeyError):
        eval_expr(AllDifferent((x, y)), {x: 1})


def _random_expr(rng, vars_):
    kind = rng.randrange(7)
    def atom():
        return AtomicConstraint(rng.choice(vars_), rng.choice(["<=", ">=", "==", "!="]),
                                rng.randint(-1, 5))
    if kind == 0:
        return atom()
    if kind == 1:
        return Clause(tuple(atom() for _ in range(rng.randint(0, 3))))
    if kind == 2:
        terms = tuple((rng.choice([-2, -1, 1, 2]), v) for v in rng.sample(vars_, rng.randint(1, 2)))
        return Linear(terms, rng.choice(["<=", ">=", "==", "!="]), rng.randint(-4, 8))
    if kind == 3:
        return AllDifferent(tuple(rng.sample(vars_, rng.randint(2, 3))))
    if kind == 4:
        return HalfReified(AtomicConstraint(vars_[0], "==", rng.randint(0, 1)),
                           Linear(((1, vars_[1]), (1, vars_[2])), "<=", rng.randint(0, 6)))
    if kind == 5:
        return Conjunction(tuple(FALSE if rng.random() < 0.25 else _random_expr(rng, vars_)
                                 for _ in range(rng.randint(0, 3))))
    return Disjunction(tuple(_random_expr(rng, vars_) for _ in range(rng.randint(1, 2))))


def test_eval_agrees_with_independent_interpreter():
    rng = random.Random(7)
    vars_ = [VarId(i, n) for i, n in enumerate("pqr")]
    doms = [(v, Domain(0, 4)) for v in vars_]
    for _ in range(150):
        e = _random_expr(rng, vars_)
        for alpha in all_assignments(doms):
            assert eval_expr(e, alpha) == brute_eval(e, alpha)


def test_negate_expr_is_complement():
    rng = random.Random(13)
    vars_ = [VarId(i, n) for i, n in enumerate("pqr")]
    doms = [(v, Domain(0, 4)) for v in vars_]
    for _ in range(150):
        e = _random_expr(rng, vars_)
        ne = negate_expr(e)
        for alpha in all_assignments(doms):
            assert eval_expr(ne, alpha) == (not eval_expr(e, alpha))
    # a false member makes the conjunction's negation trivially true
    assert negate_expr(Conjunction((AtomicConstraint(vars_[0], "<=", 2), FALSE))) == TRUE


def test_canonical_key_orientation():
    (x, y), _ = _vars("x", "y")
    a = Linear(((1, x), (-1, y)), ">=", 3)
    b = Linear(((-1, x), (1, y)), "<=", -3)
    assert canonical_key(a) == canonical_key(b)
    c1 = Clause((AtomicConstraint(x, "<=", 2), AtomicConstraint(y, ">=", 5)))
    c2 = Clause((AtomicConstraint(y, ">=", 5), AtomicConstraint(x, "<=", 2)))
    assert canonical_key(c1) == canonical_key(c2)
    assert canonical_key(clause_of([AtomicConstraint(x, "<=", 2)])) == \
        canonical_key(AtomicConstraint(x, "<=", 2))


def test_serialize_roundtrip_jobshop():
    m = parse_model(JOBSHOP_MOD)
    again = parse_model(serialize_model(m))
    assert again == m


def test_serialize_roundtrip_random_models():
    rng = random.Random(99)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        lines = [f"var v{i} {rng.randint(-2, 0)}..{rng.randint(1, 6)}" for i in range(nvars)]
        names = [f"v{i}" for i in range(nvars)]
        for k in range(rng.randint(0, 5)):
            choice = rng.randrange(4)
            if choice == 0 and nvars >= 2:
                vs = rng.sample(names, rng.randint(2, nvars))
                lines.append(f"con c{k}: alldifferent({','.join(vs)})")
            elif choice == 1:
                vs = rng.sample(names, rng.randint(1, min(2, nvars)))
                terms = " + ".join(f"{rng.choice([-2, 1, 3])}*{v}" for v in vs)
                lines.append(f"con c{k}: lin {terms} {rng.choice(['<=', '>=', '==', '!='])} {rng.randint(-3, 6)}")
            elif choice == 2:
                parts = " | ".join(
                    f"{rng.choice(names)} {rng.choice(['<=', '>=', '==', '!='])} {rng.randint(-2, 6)}"
                    for _ in range(rng.randint(1, 3)))
                lines.append(f"con c{k}: clause {parts}")
            else:
                m1 = f"lin 1*{rng.choice(names)} <= {rng.randint(0, 4)}"
                m2 = f"clause {rng.choice(names)} >= {rng.randint(0, 4)}"
                lines.append(f"con c{k}: or({m1}; {m2})")
        text = "\n".join(lines) + "\n"
        m = parse_model(text)
        assert parse_model(serialize_model(m)) == m


def test_domain_holes():
    d = Domain(0, 5, frozenset({2, 3}))
    assert list(d.values()) == [0, 1, 4, 5]
    assert 2 not in d and 4 in d
    with pytest.raises(ValueError):
        Domain(0, 5, frozenset({0}))


def test_linear_sign_composition():
    m = parse_model("var a 0..9\nvar b 0..9\n"
                    "con c1: lin 1*a - -2*b <= 3\n"
                    "con c2: lin a +-2*b >= 0\n"
                    "con c3: lin -1*a - b != 1\n")
    c1 = m.constraint_by_id("c1").expr
    assert c1.terms == ((1, m.var_by_name("a")), (2, m.var_by_name("b")))
    c2 = m.constraint_by_id("c2").expr
    assert c2.terms == ((1, m.var_by_name("a")), (-2, m.var_by_name("b")))
    c3 = m.constraint_by_id("c3").expr
    assert c3.terms == ((-1, m.var_by_name("a")), (-1, m.var_by_name("b")))


def test_linear_dangling_sign_is_an_error():
    for body in ("lin 1*x - <= 3", "lin 2*x + 1*y - <= 0", "lin 1*x + <= 3", "lin - <= 3"):
        with pytest.raises(ModelParseError) as e:
            parse_model(f"var x 0..9\nvar y 0..9\ncon c: {body}\n")
        assert e.value.line == 3, body
        assert "sign without a term" in str(e.value), body


# the parser's rejections that test_parse_errors_carry_line does not make:
# (text, line of the error, message fragment)
REJECTED_MODELS = (
    ("var 1x 0..3\n", 1, "malformed var declaration"),
    ("var x 0..3\ncon a lin 1*x <= 2\n", 2, "malformed con statement"),
    ("var x 0..3\ncon a: x <= 2\ncon a: x >= 1\n", 3, "duplicate constraint id 'a'"),
    ("var x 0..3\ncon a: clause x <= 1 | x =< 2\n", 2, "malformed atom 'x =< 2'"),
    ("var x 0..3\ncon a: alldifferent()\n", 2, "alldifferent needs at least one variable"),
    ("var x 0..3\ncon a: foo(x)\n", 2, "unknown constraint body 'foo(x)'"),
    ("var x 0..3\ncon a: or(x <= 1) ; (x >= 2)\n", 2, "unbalanced parentheses"),
    ("var x 0..3\ncon a: or((x <= 1; x >= 2)\n", 2, "unbalanced parentheses"),
    ("var x 0..3\ncon a: or(x <= 1; ; x >= 2)\n", 2, "empty or() member"),
    ("var x 0..3\nvar y 0..3\ncon a: or(alldifferent(x,y); x <= 1)\n", 3,
     "or() members must be"),
    ("var x 0..3\ncon a: lin 1*x + 2\n", 2, "missing comparison operator"),
    ("var x 0..3\ncon a: lin 1*x <= x\n", 2, "malformed right-hand side 'x'"),
    ("var x 0..3\ncon a: lin 2x <= 3\n", 2, "malformed linear term '2x'"),
    ("var x 0..3\ncon a: lin <= 3\n", 2, "linear constraint has no terms"),
)


def test_parse_rejections_carry_line_and_message():
    for text, line, fragment in REJECTED_MODELS:
        with pytest.raises(ModelParseError) as e:
            parse_model(text)
        assert e.value.line == line, text
        assert fragment in str(e.value), (text, str(e.value))


def test_nested_or_parses_and_roundtrips():
    m = parse_model("var x 0..5\nvar y 0..5\n"
                    "con n: or(lin 1*x - 1*y <= 0; or(x <= 1; clause y >= 4 | x == 2))\n")
    x, y = m.var_by_name("x"), m.var_by_name("y")
    assert m.constraint_by_id("n").expr == Disjunction((
        Linear(((1, x), (-1, y)), "<=", 0),
        Disjunction((AtomicConstraint(x, "<=", 1),
                     Clause((AtomicConstraint(y, ">=", 4), AtomicConstraint(x, "==", 2)))))))
    assert parse_model(serialize_model(m)) == m


def test_parser_survives_junk_input():
    import string
    from proofseq.errors import ProofseqError
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 4)
        text = "\n".join("".join(rng.choice(string.printable[:70])
                                 for _ in range(rng.randint(0, 30)))
                         for _ in range(n))
        try:
            parse_model(text)
        except ProofseqError:
            pass
