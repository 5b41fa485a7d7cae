"""Satisfiability oracle over finite integer domains.

Decides satisfiability of a set of plain expressions (propagation +
backtracking search with nogood learning) and returns a verified model, or
Unsat. BudgetExceeded is a result, not an error. Callers pass `Expr`s: a
model-level `Constraint` goes in as its `.expr`.

`Oracle.solve` is the single entry point: every engine run for a
satisfiability question goes through it, bounded by the oracle's budget (or
by a smaller per-call one), and it counts each one. `model_of` is the one
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .engine import DEFAULT_BUDGET, Engine, RootSlots
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
        res = eng.solve()
        if res.status == "budget":
            return BudgetExceeded(res.conflicts)
        if res.status == "unsat":
            return Unsat()
        for c in hard:
            if not eval_expr(c, res.assignment):
                raise AssertionError(f"engine returned a non-model (violates {c})")
        return Sat(res.assignment)

    def model_of(self, constraints: Sequence[Expr]) -> Optional[dict[VarId, int]]:
        res = self.solve(hard=tuple(constraints))
        if isinstance(res, BudgetExceeded):
            raise BudgetExceededError(f"oracle budget exhausted after {res.conflicts} conflicts")
        return res.assignment if isinstance(res, Sat) else None
