"""User-level CSP representation: variables, finite domains, constraints.

Constraints are plain immutable expression trees (`Expr`). A model-level
constraint additionally carries an identifier used for provenance tracking.
The module also implements the line-oriented model file format:

    # comment
    var <name> <lb>..<ub>
    con <id>: alldifferent(<v1>,<v2>,...)
    con <id>: lin <c1>*<v1> + <c2>*<v2> ... <op> <rhs>
    con <id>: clause <v> <op> <k> | <v> <op> <k> | ...
    con <id>: or(<body>; <body>; ...)

with <op> one of <=, >=, ==, != and or() bodies restricted to lin, clause,
bare atoms and nested or(). Variable names match [A-Za-z][A-Za-z0-9_]* so
that names starting with '_' stay reserved for generated auxiliaries.

`VarId` is a `NamedTuple` of (index, name): every slot, domain, scope and
evaluation lookup hashes one, and a tuple's hash is computed in C.
`hash(VarId(index, name))` must equal `hash((index, name))`, because set and
dict iteration orders, and every output built from them, feed the
determinism pins.

The records built once per pair or per proof line (`AtomicConstraint`,
`Linear`, `Constraint`, and `proofcore.ProofStep`) are frozen dataclasses
with slots, `init=False` and an `__init__` that sets each field through its
slot's own setter (`slot_setters`): a frozen dataclass's own `__init__`
goes through `object.__setattr__` for each field, about twice the cost.
Writing the instance `__dict__` instead is as cheap to build, but makes
every later attribute read about three times slower. Equality, hash, repr,
`dataclasses.replace` and the `FrozenInstanceError` on assignment are the
dataclass's own, as before.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import EmptyDomainWarning, ModelParseError

OPS = ("<=", ">=", "==", "!=")

_NEGATED_OP = {"<=": ">=", ">=": "<=", "==": "!=", "!=": "=="}
_NEGATED_SHIFT = {"<=": 1, ">=": -1, "==": 0, "!=": 0}


def slot_setters(cls) -> tuple:
    """The setters of a slotted frozen dataclass's fields, in field order:
    each sets its field on an instance past the frozen `__setattr__`."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


class VarId(NamedTuple):
    index: int
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Domain:
    """Integer interval with optional excluded values strictly inside it.

    An empty domain is canonically ``Domain(0, -1)``.
    """

    lower: int
    upper: int
    holes: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.is_empty():
            bad = [h for h in self.holes if not (self.lower < h < self.upper)]
            if bad:
                raise ValueError(f"holes {bad} outside open interval ({self.lower}, {self.upper})")

    @staticmethod
    def empty() -> "Domain":
        return Domain(0, -1)

    def is_empty(self) -> bool:
        return self.lower > self.upper

    def __contains__(self, v: int) -> bool:
        return self.lower <= v <= self.upper and v not in self.holes

    def values(self) -> Iterator[int]:
        for v in range(self.lower, self.upper + 1):
            if v not in self.holes:
                yield v


@dataclass(frozen=True, slots=True, init=False)
class AtomicConstraint:
    """A comparison between one variable and a constant (x <= v, x >= v, x == v, x != v)."""

    var: VarId
    op: str
    value: int

    def __init__(self, var: VarId, op: str, value: int):
        if op not in OPS:
            raise ValueError(f"unknown atom operator {op!r}")
        set_var, set_op, set_value = _ATOM_SETTERS  # see the module docstring
        set_var(self, var)
        set_op(self, op)
        set_value(self, value)

    def negated(self) -> "AtomicConstraint":
        return AtomicConstraint(self.var, _NEGATED_OP[self.op], self.value + _NEGATED_SHIFT[self.op])

    def holds(self, v: int) -> bool:
        if self.op == "<=":
            return v <= self.value
        if self.op == ">=":
            return v >= self.value
        if self.op == "==":
            return v == self.value
        return v != self.value

    def __str__(self) -> str:
        return f"{self.var.name} {self.op} {self.value}"


_ATOM_SETTERS = slot_setters(AtomicConstraint)


@dataclass(frozen=True)
class Clause:
    """Disjunction of atomic constraints. The empty clause is the false constraint."""

    atoms: tuple[AtomicConstraint, ...] = ()


@dataclass(frozen=True, slots=True, init=False)
class Linear:
    """sum(coef_i * var_i) <op> rhs over integer variables."""

    terms: tuple[tuple[int, VarId], ...]
    op: str
    rhs: int

    def __init__(self, terms: tuple[tuple[int, VarId], ...], op: str, rhs: int):
        set_terms, set_op, set_rhs = _LINEAR_SETTERS  # see the module docstring
        set_terms(self, terms)
        set_op(self, op)
        set_rhs(self, rhs)


_LINEAR_SETTERS = slot_setters(Linear)


@dataclass(frozen=True)
class AllDifferent:
    vars: tuple[VarId, ...]


@dataclass(frozen=True)
class HalfReified:
    """guard => then, with guard an atomic constraint on a 0-1 variable."""

    guard: AtomicConstraint
    then: Linear


@dataclass(frozen=True)
class Disjunction:
    members: tuple["Expr", ...]


@dataclass(frozen=True)
class Conjunction:
    """Conjunction of expressions. The empty conjunction is the true constraint."""

    members: tuple["Expr", ...] = ()


Expr = Union[AtomicConstraint, Clause, Linear, AllDifferent, HalfReified, Disjunction, Conjunction]

FALSE: Expr = Clause(())
TRUE: Expr = Conjunction(())


@dataclass(frozen=True, slots=True, init=False)
class Constraint:
    """An identified constraint; ids are unique within one model level."""

    id: str
    expr: Expr

    def __init__(self, id: str, expr: Expr):
        set_id, set_expr = _CONSTRAINT_SETTERS  # see the module docstring
        set_id(self, id)
        set_expr(self, expr)

    def __str__(self) -> str:
        return f"{self.id}: {format_expr(self.expr)}"


_CONSTRAINT_SETTERS = slot_setters(Constraint)


def clause_of(atoms: Iterable[AtomicConstraint]) -> Expr:
    """Normalizing clause constructor: one atom becomes the atom itself."""
    atoms = tuple(atoms)
    if len(atoms) == 1:
        return atoms[0]
    return Clause(atoms)


def conjunction_of(members: Iterable[Expr]) -> Expr:
    members = tuple(members)
    if len(members) == 1:
        return members[0]
    return Conjunction(members)


def disjuncts(e: Disjunction) -> list[Expr]:
    """The members of a disjunction, with nested disjunctions spliced in in order."""
    out: list[Expr] = []
    for m in e.members:
        out.extend(disjuncts(m) if isinstance(m, Disjunction) else (m,))
    return out


def scope(c: Expr) -> frozenset[VarId]:
    """Variables syntactically occurring in a constraint expression."""
    if isinstance(c, AtomicConstraint):
        return frozenset((c.var,))
    if isinstance(c, Clause):
        return frozenset(a.var for a in c.atoms)
    if isinstance(c, Linear):
        return frozenset(v for _, v in c.terms)
    if isinstance(c, AllDifferent):
        return frozenset(c.vars)
    if isinstance(c, HalfReified):
        return frozenset((c.guard.var,)) | scope(c.then)
    if isinstance(c, (Disjunction, Conjunction)):
        out: frozenset[VarId] = frozenset()
        for m in c.members:
            out |= scope(m)
        return out
    raise TypeError(f"cannot take scope of {type(c).__name__}")


def eval_expr(c: Expr, assignment: Mapping[VarId, int]) -> bool:
    """Evaluate a constraint under a total assignment of its scope.

    Raises KeyError when the assignment misses a scoped variable.
    """
    if isinstance(c, AtomicConstraint):
        return c.holds(assignment[c.var])
    if isinstance(c, Clause):
        return any(a.holds(assignment[a.var]) for a in c.atoms)
    if isinstance(c, Linear):
        total = sum(coef * assignment[v] for coef, v in c.terms)
        if c.op == "<=":
            return total <= c.rhs
        if c.op == ">=":
            return total >= c.rhs
        if c.op == "==":
            return total == c.rhs
        return total != c.rhs
    if isinstance(c, AllDifferent):
        vals = [assignment[v] for v in c.vars]
        return len(set(vals)) == len(vals)
    if isinstance(c, HalfReified):
        if not c.guard.holds(assignment[c.guard.var]):
            return True
        return eval_expr(c.then, assignment)
    if isinstance(c, Disjunction):
        return any(eval_expr(m, assignment) for m in c.members)
    if isinstance(c, Conjunction):
        return all(eval_expr(m, assignment) for m in c.members)
    raise TypeError(f"cannot evaluate {type(c).__name__}")


def negate_expr(c: Expr) -> Expr:
    """Constraint true exactly when the argument is violated."""
    if isinstance(c, AtomicConstraint):
        return c.negated()
    if isinstance(c, Clause):
        return conjunction_of(a.negated() for a in c.atoms)
    if isinstance(c, Linear):
        if c.op == "<=":
            return Linear(c.terms, ">=", c.rhs + 1)
        if c.op == ">=":
            return Linear(c.terms, "<=", c.rhs - 1)
        return Linear(c.terms, "!=" if c.op == "==" else "==", c.rhs)
    if isinstance(c, AllDifferent):
        pairs = []
        for i, x in enumerate(c.vars):
            for y in c.vars[i + 1:]:
                pairs.append(Linear(((1, x), (-1, y)), "==", 0))
        return Disjunction(tuple(pairs))
    if isinstance(c, HalfReified):
        return Conjunction((c.guard, negate_expr(c.then)))
    if isinstance(c, Disjunction):
        return conjunction_of(negate_expr(m) for m in c.members)
    if isinstance(c, Conjunction):
        negs = tuple(negate_expr(m) for m in c.members)
        if TRUE in negs:
            return TRUE  # a false member: the conjunction is always violated
        if all(isinstance(n, AtomicConstraint) for n in negs):
            return clause_of(negs)  # type: ignore[arg-type]
        return Disjunction(negs) if len(negs) != 1 else negs[0]
    raise TypeError(f"cannot negate {type(c).__name__}")


def canonical_key(c: Expr):
    """Hashable, order-insensitive structural key used for constraint equality."""
    if isinstance(c, AtomicConstraint):
        return ("atom", c.var.index, c.op, c.value)
    if isinstance(c, Clause):
        return ("clause", tuple(sorted(set(canonical_key(a) for a in c.atoms))))
    if isinstance(c, Linear):
        terms = tuple(sorted((v.index, coef) for coef, v in c.terms if coef != 0))
        op, rhs = c.op, c.rhs
        if op == ">=":  # canonical orientation: a >= b stored as -a <= -b
            terms = tuple((i, -coef) for i, coef in terms)
            op, rhs = "<=", -rhs
        elif op in ("==", "!=") and terms and terms[0][1] < 0:
            terms = tuple((i, -coef) for i, coef in terms)
            rhs = -rhs
        return ("lin", terms, op, rhs)
    if isinstance(c, AllDifferent):
        return ("alldiff", tuple(sorted(v.index for v in c.vars)))
    if isinstance(c, HalfReified):
        return ("half", canonical_key(c.guard), canonical_key(c.then))
    if isinstance(c, Disjunction):
        return ("or", tuple(sorted(set(canonical_key(m) for m in c.members))))
    if isinstance(c, Conjunction):
        return ("and", tuple(sorted(set(canonical_key(m) for m in c.members))))
    raise TypeError(f"cannot key {type(c).__name__}")


def format_expr(c: Expr) -> str:
    """Human-oriented rendering (not the file format; see serialize_model)."""
    if isinstance(c, AtomicConstraint):
        return str(c)
    if isinstance(c, Clause):
        if not c.atoms:
            return "false"
        return " | ".join(str(a) for a in c.atoms)
    if isinstance(c, Linear):
        return f"{_format_terms(c.terms)} {c.op} {c.rhs}"
    if isinstance(c, AllDifferent):
        return f"alldifferent({', '.join(v.name for v in c.vars)})"
    if isinstance(c, HalfReified):
        return f"({c.guard}) -> ({format_expr(c.then)})"
    if isinstance(c, Disjunction):
        return " or ".join(f"({format_expr(m)})" for m in c.members)
    if isinstance(c, Conjunction):
        if not c.members:
            return "true"
        return " and ".join(f"({format_expr(m)})" for m in c.members)
    raise TypeError(f"cannot format {type(c).__name__}")


def _format_terms(terms: Iterable[tuple[int, VarId]]) -> str:
    parts = []
    for i, (coef, v) in enumerate(terms):
        mag = f"{v.name}" if abs(coef) == 1 else f"{abs(coef)}*{v.name}"
        if i == 0:
            parts.append(mag if coef >= 0 else f"-{mag}")
        else:
            parts.append(f"{'+' if coef >= 0 else '-'} {mag}")
    return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class IndexedModel:
    """Variables with their domains and identified constraints, plus lookups
    by variable name, variable and constraint id. The indexes are built on
    first use and shared by every caller, so constraint_map is read-only.
    A missing key raises KeyError."""

    vars: tuple[tuple[VarId, Domain], ...]
    constraints: tuple[Constraint, ...]

    @cached_property
    def _var_named(self) -> dict[str, VarId]:
        return {v.name: v for v, _ in self.vars}

    @cached_property
    def _domains(self) -> dict[VarId, Domain]:
        return dict(self.vars)

    @cached_property
    def constraint_map(self) -> Mapping[str, Constraint]:
        return {c.id: c for c in self.constraints}

    def var_by_name(self, name: str) -> VarId:
        return self._var_named[name]

    def domain_of(self, var: VarId) -> Domain:
        return self._domains[var]

    def constraint_by_id(self, cid: str) -> Constraint:
        return self.constraint_map[cid]


@dataclass(frozen=True)
class UserModel(IndexedModel):
    """A model at user level, as parsed from a model file."""


# --- model file format ---------------------------------------------------

_VAR_RE = re.compile(r"^var\s+([A-Za-z][A-Za-z0-9_]*)\s+(-?\d+)\s*\.\.\s*(-?\d+)\s*$")
_CON_RE = re.compile(r"^con\s+([A-Za-z0-9_./~-]+)\s*:\s*(.*)$")
_ATOM_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|==|!=)\s*(-?\d+)\s*$")
_TERM_RE = re.compile(r"^\s*(?:(-?\d+)\s*\*\s*)?([A-Za-z_][A-Za-z0-9_]*)\s*$")


class _ModelParser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.vars: list[tuple[VarId, Domain]] = []
        self.by_name: dict[str, VarId] = {}
        self.constraints: list[Constraint] = []
        self.cids: set[str] = set()

    def error(self, msg: str, lineno: int, col: int = 1):
        raise ModelParseError(msg, lineno, col)

    def parse(self) -> UserModel:
        for i, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("var"):
                self.parse_var(line, i)
            elif line.startswith("con"):
                self.parse_con(line, i)
            else:
                self.error(f"unknown statement {line.split()[0]!r}", i)
        return UserModel(tuple(self.vars), tuple(self.constraints))

    def parse_var(self, line: str, lineno: int):
        m = _VAR_RE.match(line)
        if not m:
            self.error("malformed var declaration (expected: var <name> <lb>..<ub>)", lineno)
        name, lb, ub = m.group(1), int(m.group(2)), int(m.group(3))
        if name in self.by_name:
            self.error(f"duplicate variable {name!r}", lineno)
        if lb > ub:
            warnings.warn(f"variable {name!r} declared with empty domain {lb}..{ub}", EmptyDomainWarning)
        vid = VarId(len(self.vars), name)
        self.by_name[name] = vid
        self.vars.append((vid, Domain(lb, ub) if lb <= ub else Domain.empty()))

    def parse_con(self, line: str, lineno: int):
        m = _CON_RE.match(line)
        if not m:
            self.error("malformed con statement (expected: con <id>: <body>)", lineno)
        cid, body = m.group(1), m.group(2).strip()
        if cid in self.cids:
            self.error(f"duplicate constraint id {cid!r}", lineno)
        expr = self.parse_body(body, lineno)
        self.cids.add(cid)
        self.constraints.append(Constraint(cid, expr))

    def lookup(self, name: str, lineno: int) -> VarId:
        if name not in self.by_name:
            self.error(f"undeclared variable {name!r}", lineno)
        return self.by_name[name]

    def parse_atom(self, text: str, lineno: int) -> AtomicConstraint:
        m = _ATOM_RE.match(text)
        if not m:
            self.error(f"malformed atom {text.strip()!r}", lineno)
        return AtomicConstraint(self.lookup(m.group(1), lineno), m.group(2), int(m.group(3)))

    def parse_body(self, body: str, lineno: int) -> Expr:
        if body.startswith("alldifferent(") and body.endswith(")"):
            names = [n.strip() for n in body[len("alldifferent("):-1].split(",")]
            if not all(names) or not names:
                self.error("alldifferent needs at least one variable", lineno)
            return AllDifferent(tuple(self.lookup(n, lineno) for n in names))
        if body.startswith("lin "):
            return self.parse_linear(body[4:], lineno)
        if body.startswith("clause "):
            atoms = tuple(self.parse_atom(part, lineno) for part in body[7:].split("|"))
            return clause_of(atoms)
        if body.startswith("or(") and body.endswith(")"):
            return self.parse_or(body[3:-1], lineno)
        if _ATOM_RE.match(body):
            return self.parse_atom(body, lineno)
        self.error(f"unknown constraint body {body!r}", lineno)

    def parse_or(self, inner: str, lineno: int) -> Expr:
        members, depth, cur = [], 0, []
        for ch in inner:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    self.error("unbalanced parentheses in or()", lineno)
            if ch == ";" and depth == 0:
                members.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        members.append("".join(cur))
        if depth != 0:
            self.error("unbalanced parentheses in or()", lineno)
        parsed = []
        for part in members:
            part = part.strip()
            if not part:
                self.error("empty or() member", lineno)
            expr = self.parse_body(part, lineno)
            if isinstance(expr, (AllDifferent, HalfReified)):
                self.error("or() members must be lin, clause, atoms or nested or()", lineno)
            parsed.append(expr)
        return Disjunction(tuple(parsed))

    def parse_linear(self, text: str, lineno: int) -> Linear:
        m = re.search(r"(<=|>=|==|!=)", text)
        if not m:
            self.error("linear constraint missing comparison operator", lineno)
        lhs, op, rhs_text = text[:m.start()], m.group(1), text[m.end():].strip()
        try:
            rhs = int(rhs_text)
        except ValueError:
            self.error(f"malformed right-hand side {rhs_text!r}", lineno)
        # split the sum into signed terms; separators compose, so "- -2*b" is +2*b
        tokens = re.split(r"(?<=[\w\s])([+-])", " " + lhs)
        terms: list[tuple[int, VarId]] = []
        sign, signed = 1, False
        for tok in tokens:
            tok = tok.strip()
            if not tok:
                continue
            if tok in ("+", "-"):
                sign = -sign if tok == "-" else sign
                signed = True
                continue
            tm = _TERM_RE.match(tok)
            if not tm:
                self.error(f"malformed linear term {tok!r}", lineno)
            coef = int(tm.group(1)) if tm.group(1) is not None else 1
            terms.append((sign * coef, self.lookup(tm.group(2), lineno)))
            sign, signed = 1, False
        if signed:
            self.error("linear sign without a term after it", lineno)
        if not terms:
            self.error("linear constraint has no terms", lineno)
        return Linear(tuple(terms), op, rhs)


def parse_model(text: str) -> UserModel:
    """Parse a model file. Raises ModelParseError with line information."""
    return _ModelParser(text).parse()


def _serialize_body(expr: Expr) -> str:
    if isinstance(expr, AtomicConstraint):
        return f"clause {expr.var.name} {expr.op} {expr.value}"
    if isinstance(expr, Clause):
        return "clause " + " | ".join(f"{a.var.name} {a.op} {a.value}" for a in expr.atoms)
    if isinstance(expr, Linear):
        parts = []
        for i, (coef, v) in enumerate(expr.terms):
            if i == 0:
                parts.append(f"{coef}*{v.name}")
            else:
                parts.append(f"{'+' if coef >= 0 else '-'} {abs(coef)}*{v.name}")
        return f"lin {' '.join(parts)} {expr.op} {expr.rhs}"
    if isinstance(expr, AllDifferent):
        return f"alldifferent({','.join(v.name for v in expr.vars)})"
    if isinstance(expr, Disjunction):
        return "or(" + "; ".join(_serialize_body(m) for m in expr.members) + ")"
    raise TypeError(f"{type(expr).__name__} has no model-file form")


def serialize_model(m: UserModel) -> str:
    lines = [f"var {v.name} {d.lower}..{d.upper}" for v, d in m.vars]
    lines += [f"con {c.id}: {_serialize_body(c.expr)}" for c in m.constraints]
    return "\n".join(lines) + "\n"
