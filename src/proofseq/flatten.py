"""Lower a user model to solver form, tracking provenance and auxiliaries.

Solver-level constraints are restricted to atoms, clauses, linear
comparisons, half-reified linears and (optionally decomposed) alldifferent.
Every emitted constraint maps back to exactly one user constraint.

Disjunctions are reified with fresh 0-1 selector variables:

* two members use a single selector s with ``s == 1 => m1`` and
  ``s == 0 => m2`` (no cover clause needed);
* three or more members get one selector each plus a cover clause
  ``s1 >= 1 | s2 >= 1 | ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FlattenError
from .model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Constraint,
    Disjunction,
    Domain,
    Expr,
    HalfReified,
    IndexedModel,
    Linear,
    UserModel,
    VarId,
    disjuncts,
)


@dataclass(frozen=True)
class SolverModel(IndexedModel):
    aux_vars: frozenset[VarId]
    provenance: dict[str, str]  # solver constraint id -> user constraint id (total)


@dataclass
class _Flattener:
    model: UserModel
    decompose_alldiff: bool = False
    vars: list = field(default_factory=list)
    out: list = field(default_factory=list)
    aux: list = field(default_factory=list)
    prov: dict = field(default_factory=dict)
    aux_count: int = 0

    def fresh_bool(self) -> VarId:
        self.aux_count += 1
        v = VarId(len(self.vars), f"_x{self.aux_count}")
        self.vars.append((v, Domain(0, 1)))
        self.aux.append(v)
        return v

    def emit(self, solver_id: str, expr: Expr, user_id: str):
        if solver_id in self.prov:
            raise _collision(solver_id)
        self.out.append(Constraint(solver_id, expr))
        self.prov[solver_id] = user_id

    def emit_pairwise_ne(self, cid: str, vs: tuple[VarId, ...]):
        """Emit `x - y != 0` as `{cid}/k` for the k-th pair of vs, in the
        order and with the ids and the error that one `emit` per pair gives,
        in bulk: each variable's (1, x) and (-1, x) terms are built once and
        shared by its pairs."""
        pos = [(1, x) for x in vs]
        neg = [(-1, x) for x in vs]
        pairs = [(pos[i], neg[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]
        ids = [f"{cid}/{k}" for k in range(1, len(pairs) + 1)]
        prov = self.prov
        if not prov.keys().isdisjoint(ids):
            raise _collision(next(i for i in ids if i in prov))
        self.out.extend([Constraint(i, Linear(terms, "!=", 0)) for i, terms in zip(ids, pairs)])
        prov.update(dict.fromkeys(ids, cid))

    def run(self) -> SolverModel:
        self.vars = list(self.model.vars)
        for c in self.model.constraints:
            self.flatten_constraint(c)
        return SolverModel(
            vars=tuple(self.vars),
            constraints=tuple(self.out),
            aux_vars=frozenset(self.aux),
            provenance=dict(self.prov),
        )

    def flatten_constraint(self, c: Constraint):
        expr = c.expr
        if isinstance(expr, (AtomicConstraint, Clause, Linear)):
            self.emit(c.id, expr, c.id)
        elif isinstance(expr, AllDifferent):
            if not self.decompose_alldiff:
                self.emit(c.id, expr, c.id)
            else:
                self.emit_pairwise_ne(c.id, expr.vars)
        elif isinstance(expr, Disjunction):
            self.flatten_disjunction(c.id, expr)
        else:
            raise FlattenError(f"constraint {c.id}: unsupported body {type(expr).__name__}")

    def flatten_disjunction(self, cid: str, expr: Disjunction):
        members = disjuncts(expr)
        if not members:
            raise FlattenError(f"constraint {cid}: empty disjunction")
        if len(members) == 1:
            self.emit(f"{cid}/1", members[0], cid)
            return
        if len(members) == 2:
            s = self.fresh_bool()
            self.emit_guarded(f"{cid}/1", AtomicConstraint(s, "==", 1), members[0], cid)
            self.emit_guarded(f"{cid}/2", AtomicConstraint(s, "==", 0), members[1], cid)
            return
        sels = [self.fresh_bool() for _ in members]
        for i, (s, m) in enumerate(zip(sels, members), start=1):
            self.emit_guarded(f"{cid}/{i}", AtomicConstraint(s, "==", 1), m, cid)
        cover = Clause(tuple(AtomicConstraint(s, ">=", 1) for s in sels))
        self.emit(f"{cid}/g", cover, cid)

    def emit_guarded(self, solver_id: str, guard: AtomicConstraint, member: Expr, user_id: str):
        if isinstance(member, Linear):
            self.emit(solver_id, HalfReified(guard, member), user_id)
        elif isinstance(member, AtomicConstraint):
            self.emit(solver_id, HalfReified(guard, _atom_to_linear(member)), user_id)
        elif isinstance(member, Clause):
            # guard => clause is itself a clause with the negated guard added
            self.emit(solver_id, Clause((guard.negated(),) + member.atoms), user_id)
        elif isinstance(member, Conjunction):
            for j, part in enumerate(member.members, start=1):
                self.emit_guarded(f"{solver_id}.{j}", guard, part, user_id)
        else:
            raise FlattenError(f"cannot reify {type(member).__name__} under a guard")


def _collision(solver_id: str) -> FlattenError:
    return FlattenError(f"solver constraint id collision: {solver_id!r} "
                        f"(user ids that look like flattening output can clash)")


def _atom_to_linear(a: AtomicConstraint) -> Linear:
    return Linear(((1, a.var),), a.op, a.value)


def flatten(m: UserModel, decompose_alldiff: bool = False) -> SolverModel:
    """Flatten a user model. Auxiliary selectors are named _x1, _x2, ... in emission order."""
    return _Flattener(m, decompose_alldiff).run()
