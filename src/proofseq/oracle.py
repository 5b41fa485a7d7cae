"""Satisfiability oracle over finite integer domains.

Decides satisfiability of a set of plain expressions (propagation +
backtracking search with nogood learning) and returns a verified model, or
Unsat. BudgetExceeded is a result, not an error. Callers pass `Expr`s: a
model-level `Constraint` goes in as its `.expr`.

`Oracle.solve` answers every satisfiability question but the grow probes of
global minimization, which a `GrowSession` answers exactly as `Oracle.solve`
would (below). Both end in `Oracle._run`, the one place that counts a call,
bounds it by the oracle's budget (or a grow probe's own, when smaller) and
re-checks a Sat model by eval. `model_of` is the one
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
off (see `engine`, on a kept root). An off member's selector slots stay,
watched only by its off propagators, so the search skips them: like a fresh
engine, which lacks them, it never decides them. `keep(members)` switches
members on and propagates them at the root, which is then kept. `probe(i,
budget)` switches an off member i on and solves from the kept root. A Sat
probe that learned no nogood keeps i and the root it propagated. Any other
probe pops back to the kept root, dropping the nogoods it learned and the
root entries they produced, and then switches i off, or, when Sat,
propagates it again. `clear()` goes back to `hard` alone. Each probe counts
as one call and returns what `Oracle.solve(hard + [soft[j] for j in
sorted(kept | {i})])` returns under the probe's budget: the same result,
model and conflict count. `hard` and every kept set must be satisfiable
together, as the sets that global minimization keeps are, so the kept root
never fails; a root conflict is an AssertionError.
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

    def solve(self, hard: Sequence[Expr] = ()) -> OracleResult:
        """Complete within the oracle's budget; a Sat model is re-checked."""
        hard = tuple(hard)
        return self._run(self._engine(hard), self.budget, hard)

    def model_of(self, constraints: Sequence[Expr]) -> Optional[dict[VarId, int]]:
        res = self.solve(hard=tuple(constraints))
        if isinstance(res, BudgetExceeded):
            raise BudgetExceededError(f"oracle budget exhausted after {res.conflicts} conflicts")
        return res.assignment if isinstance(res, Sat) else None

    def _engine(self, hard: Sequence[Expr]) -> Engine:
        """A new proof-free engine over hard, compiled through the cache."""
        eng = Engine(self._root, proof=False)
        for i, c in enumerate(hard):
            eng.add_cached(self._compiled, f"h{i}", c)
        return eng

    def _run(self, eng: Engine, budget: int, constraints: Iterable[Expr]) -> OracleResult:
        """One call: eng solved within budget, capped by the oracle's own."""
        self.calls += 1
        eng.budget, eng.conflicts = min(budget, self.budget), 0
        return _answer(eng.solve(), constraints)


class GrowSession:
    """One proof-free engine over `hard` and every member of `soft`, for probes
    that each add one member to a satisfiable kept set; see the module docstring."""

    def __init__(self, oracle: Oracle, hard: Sequence[Expr], soft: Sequence[Expr]):
        self.oracle = oracle
        self.hard, self.soft = tuple(hard), tuple(soft)
        eng = self.engine = oracle._engine(self.hard)
        # per member: its propagators, all off for now
        self.ranges: list[range] = []
        for j, c in enumerate(self.soft):
            n_props = len(eng.props)
            eng.add_cached(oracle._compiled, f"s{j}", c)
            self.ranges.append(range(n_props, len(eng.props)))
            eng.switch(self.ranges[j], on=False)
        self.kept: set[int] = set()
        self._propagate_root()
        self._base = len(eng.t_atom)

    def _propagate_root(self):
        if self.engine._propagate() is not None:
            raise AssertionError("kept root fails: hard and the kept members must be satisfiable")

    def keep(self, members):
        """Switch the members on for every later probe, at the root."""
        for j in sorted(set(members) - self.kept):
            self.kept.add(j)
            self.engine.switch(self.ranges[j], on=True)
        self._propagate_root()

    def clear(self):
        """Switch every member off again: back to `hard` alone."""
        self.engine.undo_root(self._base)
        for j in self.kept:
            self.engine.switch(self.ranges[j], on=False)
        self.kept.clear()

    def probe(self, i: int, budget: int) -> OracleResult:
        """Solve with the off member i switched on as well; keep it when Sat."""
        eng = self.engine
        mark, n_props = len(eng.t_atom), len(eng.props)
        eng.switch(self.ranges[i], on=True)
        members = (self.soft[j] for j in sorted(self.kept | {i}))
        res = self.oracle._run(eng, budget, chain(self.hard, members))
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
            eng.switch(self.ranges[i], on=sat)
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
