import functools
import random

import pytest

from proofseq.errors import FlattenError
from proofseq.flatten import _Flattener, flatten, SolverModel
from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    HalfReified,
    Linear,
    parse_model,
)

from helpers import check_projection_equivalence
from test_model import JOBSHOP_MOD


def test_flatten_binary_disjunction_uses_one_selector():
    m = parse_model("var x 0..9\nvar y 0..9\ncon c: or(lin 1*x - 1*y <= -4; lin 1*y - 1*x <= -6)\n")
    s = flatten(m)
    assert len(s.aux_vars) == 1
    (aux,) = s.aux_vars
    assert aux.name == "_x1"
    ids = [c.id for c in s.constraints]
    assert ids == ["c/1", "c/2"]
    c1, c2 = s.constraints
    assert isinstance(c1.expr, HalfReified) and c1.expr.guard == AtomicConstraint(aux, "==", 1)
    assert isinstance(c2.expr, HalfReified) and c2.expr.guard == AtomicConstraint(aux, "==", 0)
    assert s.provenance == {"c/1": "c", "c/2": "c"}


def test_flatten_wide_disjunction_gets_cover_clause():
    m = parse_model(
        "var x 0..3\n"
        "con c: or(clause x <= 0; clause x == 2; lin 1*x >= 3)\n")
    s = flatten(m)
    assert len(s.aux_vars) == 3
    ids = [c.id for c in s.constraints]
    assert ids == ["c/1", "c/2", "c/3", "c/g"]
    cover = s.constraint_by_id("c/g").expr
    assert isinstance(cover, Clause) and len(cover.atoms) == 3
    assert all(s.provenance[i] == "c" for i in ids)


def test_flatten_or_with_a_clause_member_and_a_single_member():
    m = parse_model("var a 0..5\nvar b 0..5\nvar c 0..5\n"
                    "con d: or(clause a >= 3 | c == 0; lin 1*b - 1*c <= -2)\n"
                    "con e: or(c >= 3)\n")
    s = flatten(m)
    a, b, c = (m.var_by_name(n) for n in "abc")
    (x1,) = s.aux_vars
    assert x1.name == "_x1"
    assert [(k.id, k.expr) for k in s.constraints] == [
        # a guarded clause member is a clause with the negated guard added
        ("d/1", Clause((AtomicConstraint(x1, "!=", 1), AtomicConstraint(a, ">=", 3),
                        AtomicConstraint(c, "==", 0)))),
        ("d/2", HalfReified(AtomicConstraint(x1, "==", 0), Linear(((1, b), (-1, c)), "<=", -2))),
        # a single member is emitted as it is, with no selector
        ("e/1", AtomicConstraint(c, ">=", 3)),
    ]
    assert s.provenance == {"d/1": "d", "d/2": "d", "e/1": "e"}
    assert check_projection_equivalence(m, s)


def test_flatten_atomic_is_identity():
    m = parse_model("var x 0..3\ncon h: clause x == 2\n")
    s = flatten(m)
    assert s.constraints == m.constraints
    assert not s.aux_vars
    assert s.provenance == {"h": "h"}


def test_flatten_alldiff_default_native_and_decomposed():
    m = parse_model("var x 0..2\nvar y 0..2\nvar z 0..2\ncon ad: alldifferent(x,y,z)\n")
    s = flatten(m)
    assert [c.id for c in s.constraints] == ["ad"]
    s2 = flatten(m, decompose_alldiff=True)
    assert [c.id for c in s2.constraints] == ["ad/1", "ad/2", "ad/3"]
    assert all(isinstance(c.expr, Linear) and c.expr.op == "!=" for c in s2.constraints)
    assert all(s2.provenance[c.id] == "ad" for c in s2.constraints)


def test_jobshop_flatten_projection_equivalence():
    m = parse_model(JOBSHOP_MOD)
    s = flatten(m)
    assert len(s.aux_vars) == 2
    assert {v.name for v in s.aux_vars} == {"_x1", "_x2"}
    assert len(s.provenance) == len(s.constraints) == 6
    assert check_projection_equivalence(m, s, cap=10**6)


def test_empty_model_projection_equivalence():
    m = parse_model("var x 0..4\n")
    assert check_projection_equivalence(m, flatten(m), cap=100)


def test_broken_flatten_detected_by_projection_check():
    m = parse_model("var x 0..3\n"
                    "con c: or(clause x <= 0; clause x == 2; clause x >= 3)\n")
    s = flatten(m)
    # drop the cover clause: every x now admits a solver solution
    broken = SolverModel(
        vars=s.vars,
        constraints=tuple(c for c in s.constraints if c.id != "c/g"),
        aux_vars=s.aux_vars,
        provenance={k: v for k, v in s.provenance.items() if k != "c/g"},
    )
    assert check_projection_equivalence(m, s, cap=10**4)
    assert not check_projection_equivalence(m, broken, cap=10**4)


def test_fresh_aux_never_collides():
    m = parse_model("var x1 0..1\nvar y 0..5\n"
                    "con c: or(lin 1*y <= 1; lin 1*y >= 4)\n")
    s = flatten(m)
    user_names = {v.name for v, _ in m.vars}
    assert all(a.name not in user_names for a in s.aux_vars)
    assert all(a.name.startswith("_") for a in s.aux_vars)


def test_projection_cap_enforced():
    m = parse_model("var x 0..999\nvar y 0..999\n")
    with pytest.raises(ValueError):
        check_projection_equivalence(m, flatten(m), cap=10)


def test_random_models_projection_equivalence():
    rng = random.Random(4)
    for _ in range(25):
        nvars = rng.randint(2, 3)
        lines = [f"var v{i} 0..{rng.randint(1, 4)}" for i in range(nvars)]
        names = [f"v{i}" for i in range(nvars)]
        for k in range(rng.randint(1, 3)):
            style = rng.randrange(3)
            if style == 0:
                a, b = rng.sample(names, 2)
                lines.append(f"con c{k}: or(lin 1*{a} - 1*{b} <= -1; lin 1*{b} - 1*{a} <= -1)")
            elif style == 1:
                members = "; ".join(f"clause {rng.choice(names)} == {rng.randint(0, 4)}"
                                    for _ in range(rng.randint(2, 4)))
                lines.append(f"con c{k}: or({members})")
            else:
                lines.append(f"con c{k}: alldifferent({','.join(rng.sample(names, 2))})")
        m = parse_model("\n".join(lines) + "\n")
        s = flatten(m, decompose_alldiff=bool(rng.getrandbits(1)))
        assert check_projection_equivalence(m, s, cap=10**5)


def test_flatten_rejects_solver_id_collision():
    """A user id that looks like flattening output clashes with it, placed
    before or after the constraint whose output it copies: a disjunction's
    member ids, and a decomposed alldifferent's pair ids. The pairs are
    emitted in bulk, and must give the ids, provenance, order and errors of
    one `emit` per pair, which `_one_emit_per_pair` keeps as the reference."""
    m = parse_model("var x 0..3\n"
                    "con c/1: clause x <= 2\n"
                    "con c: or(lin 1*x <= 0; lin 1*x >= 3)\n")
    with pytest.raises(FlattenError):
        flatten(m)
    head = "var x 0..3\nvar y 0..3\nvar z 0..3\nvar w 0..3\n"
    alldiff = "con r: alldifferent(x,y,z,w)\n"
    user = "con r/2: clause x <= 2\n"
    # with two before it, the error names the first pair id in emission order
    for body in (user + alldiff, alldiff + user, "con r/5: clause y <= 2\n" + user + alldiff):
        m = parse_model(head + body)
        assert flatten(m).provenance["r"] == "r"  # native: no pair ids
        for run in (functools.partial(flatten, decompose_alldiff=True), _one_emit_per_pair):
            with pytest.raises(FlattenError, match=r"^solver constraint id collision: 'r/2' "):
                run(m)
    m = parse_model(head + "con u: clause x <= 2\n" + alldiff
                    + "con s: alldifferent(w,x)\ncon v: clause y >= 1\n")
    s, ref = flatten(m, decompose_alldiff=True), _one_emit_per_pair(m)
    assert list(s.constraints) == ref.out
    assert list(s.provenance.items()) == list(ref.prov.items())
    assert [c.id for c in s.constraints] == ["u", *(f"r/{k}" for k in range(1, 7)), "s/1", "v"]


def _one_emit_per_pair(m):
    """The decomposition as a per-pair loop: the k-th pair (x, y) of an
    alldifferent `cid` is emitted on its own as `{cid}/k: x - y != 0`."""
    f = _Flattener(m, decompose_alldiff=True)
    f.vars = list(m.vars)
    for c in m.constraints:
        if not isinstance(c.expr, AllDifferent):
            f.flatten_constraint(c)
            continue
        k = 0
        for i, x in enumerate(c.expr.vars):
            for y in c.expr.vars[i + 1:]:
                k += 1
                f.emit(f"{c.id}/{k}", Linear(((1, x), (-1, y)), "!=", 0), c.id)
    return f
