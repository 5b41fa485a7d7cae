"""Satisfiability oracle over finite integer domains.

Decides satisfiability of a set of plain expressions (propagation +
backtracking search with nogood learning) and returns a verified model, or
Unsat. BudgetExceeded is a result, not an error. Callers pass `Expr`s: a
model-level `Constraint` goes in as its `.expr`.

`Oracle.solve` answers every satisfiability question but the grow probes of
global minimization, which a `GrowSession` answers exactly as `Oracle.solve`
would (below). Both are bounded by the oracle's budget (or by a smaller
per-call one) and count each call. `model_of` is the one
place where an oracle's budget exhaustion becomes BudgetExceededError, and
the one implication query: reasons imply `derived` iff
`model_of(reasons + [negate_expr(derived)])` is None. `negate_expr` of a
conjunction of several members is a disjunction, for which the engine
introduces its own selector variables.

Each call runs one new `Engine`, which pays only for its search:

- its root slot state is copied from a `RootSlots` that the oracle builds
  once;
- it compiles each expression at most once per oracle: `Engine.add_cached`
  keeps the propagators of each expression in the oracle's cache, and later
  calls register them again, so that the engine equals a freshly compiled
  one, constraint ids included. An expression whose compile adds selector
  slots (a disjunction that is not a plain clause) is compiled on every
  call;
- it logs no proof (see `engine`): the prover alone logs one. So its
  learned nogoods leave out the atoms that are false at the root, and its
  search, models and conflict counts may differ from a proof-logging
  engine's over the same constraints; its sat/unsat verdicts do not.

A `GrowSession` keeps one proof-free engine for all the grow probes of one
MUS query, each of which adds one soft member to a kept set (see `mus`). It
compiles `hard`, then every soft member once, in index order, each switched
off (see `engine`, on a kept root). `keep(members)` switches members on and
propagates them at the root, which is then kept. `probe(i, budget)` switches
an off member i on and solves from the kept root. A Sat probe that learned
no nogood keeps i and the root it propagated. Any other probe pops back to
the kept root, dropping the nogoods it learned and the root entries they
produced, and then switches i off, or, when Sat, propagates it again.
`clear()` goes back to `hard` alone. Each probe counts as one call and
returns what `Oracle.solve(hard + [soft[j] for j in sorted(kept | {i})],
budget)` returns: the same result, model (re-checked by eval in the same
way) and conflict count. While the kept root fails, each probe returns,
without solving, what a fresh solve returns: one conflict, or none with an
empty domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .engine import DEFAULT_BUDGET, Engine, EngineResult, RootSlots
from .errors import BudgetExceededError
from .model import Domain, Expr, VarId, eval_expr


@dataclass
class Sat:
    assignment: dict[VarId, int]


@dataclass
class Unsat:
    """No assignment satisfies the constraints."""


@dataclass
class BudgetExceeded:
    conflicts: int = 0


OracleResult = Union[Sat, Unsat, BudgetExceeded]


class Oracle:
    """Oracle bound to a fixed variable set, with an invocation counter.

    The counter is the pipeline's "NP-call" count: one per engine solve.
    """

    def __init__(self, vars_domains: Sequence[tuple[VarId, Domain]],
                 budget: int = DEFAULT_BUDGET):
        self.vars = tuple(vars_domains)
        self.budget = budget
        self.calls = 0
        self._root = RootSlots(self.vars)
        # the compile cache of Engine.add_cached: id(expr) -> (expr, its propagators)
        self._compiled: dict[int, tuple[Expr, list[tuple]]] = {}

    def solve(self, hard: Sequence[Expr] = (), budget: Optional[int] = None) -> OracleResult:
        """Complete within budget: the oracle's own, or the smaller of it and
        `budget` when given. Sat assignments are re-checked by eval before return."""
        self.calls += 1
        hard = tuple(hard)
        if budget is None or budget > self.budget:
            budget = self.budget
        eng = Engine(self._root, budget=budget, proof=False)
        for i, c in enumerate(hard):
            eng.add_cached(self._compiled, f"h{i}", c)
        return _answer(eng.solve(), hard)

    def model_of(self, constraints: Sequence[Expr]) -> Optional[dict[VarId, int]]:
        res = self.solve(hard=tuple(constraints))
        if isinstance(res, BudgetExceeded):
            raise BudgetExceededError(f"oracle budget exhausted after {res.conflicts} conflicts")
        return res.assignment if isinstance(res, Sat) else None


class GrowSession:
    """One proof-free engine over `hard` and every member of `soft`, for
    probes that each add one member to a kept set; see the module docstring.

    A probe answers exactly what `oracle.solve(hard + [soft[j] for j in
    sorted(kept | {i})], budget)` would, and counts as one call of it."""

    def __init__(self, oracle: Oracle, hard: Sequence[Expr], soft: Sequence[Expr]):
        self.oracle = oracle
        self.hard, self.soft = tuple(hard), tuple(soft)
        eng = self.engine = Engine(oracle._root, proof=False)
        for i, c in enumerate(self.hard):
            eng.add_cached(oracle._compiled, f"h{i}", c)
        # per member: (its propagators, its selector slots), all off for now
        self.ranges: list[tuple[range, range]] = []
        for j, c in enumerate(self.soft):
            n_props, n_slots = len(eng.props), len(eng.lb)
            eng.add_cached(oracle._compiled, f"s{j}", c)
            self.ranges.append((range(n_props, len(eng.props)), range(n_slots, len(eng.lb))))
            eng.switch(*self.ranges[j], on=False)
        self.kept: set[int] = set()
        # the conflicts of every probe while the root fails (0 with an empty
        # domain, which a fresh engine answers without propagating), else None
        self.failed: Optional[int] = 0 if any(lo > hi for lo, hi in zip(eng.lb, eng.ub)) else None
        self._propagate_root()
        self._base = (len(eng.t_atom), self.failed)

    def _propagate_root(self):
        if self.failed is None and self.engine._propagate() is not None:
            self.failed = 1

    def keep(self, members):
        """Switch the members on for every later probe, at the root."""
        for j in sorted(set(members) - self.kept):
            self.kept.add(j)
            self.engine.switch(*self.ranges[j], on=True)
        self._propagate_root()

    def clear(self):
        """Switch every member off again: back to `hard` alone."""
        mark, self.failed = self._base
        self.engine.undo_root(mark)
        for j in self.kept:
            self.engine.switch(*self.ranges[j], on=False)
        self.kept.clear()

    def probe(self, i: int, budget: Optional[int] = None) -> OracleResult:
        """Solve with the off member i switched on as well; keep it when Sat."""
        oracle, eng = self.oracle, self.engine
        oracle.calls += 1
        if budget is None or budget > oracle.budget:
            budget = oracle.budget
        if self.failed is not None:
            return BudgetExceeded(self.failed) if self.failed > budget else Unsat()
        mark, n_props = len(eng.t_atom), len(eng.props)
        eng.switch(*self.ranges[i], on=True)
        eng.budget, eng.conflicts = budget, 0
        members = (self.soft[j] for j in sorted(self.kept | {i}))
        res = _answer(eng.solve(), chain(self.hard, members))
        sat = isinstance(res, Sat)
        if sat and not eng.conflicts:
            # no nogood was learned, so the root is the fixpoint with i
            if eng.level:
                eng.backtrack_to(0)
        else:
            # back to the kept root: the nogoods go, with the root entries
            # they produced; a Sat i is then propagated again
            eng.undo_root(mark)
            eng.drop_props(n_props)
            eng.switch(*self.ranges[i], on=sat)
            self._propagate_root()
        if sat:
            self.kept.add(i)
        return res


def _answer(res: EngineResult, constraints: Iterable[Expr]) -> OracleResult:
    """The oracle's answer for an engine result over constraints; a Sat
    assignment is re-checked by eval first."""
    if res.status == "budget":
        return BudgetExceeded(res.conflicts)
    if res.status == "unsat":
        return Unsat()
    for c in constraints:
        if not eval_expr(c, res.assignment):
            raise AssertionError(f"engine returned a non-model (violates {c})")
    return Sat(res.assignment)
