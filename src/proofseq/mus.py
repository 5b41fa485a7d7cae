"""Minimal unsatisfiable subsets over soft constraints with fixed hard constraints.

Two extractors:

* subset-minimal: one deletion pass, one oracle call per soft member,
  deletion order = reverse declaration order (documented, deterministic);
* smallest-weighted: exact minimum-weight MUS via the implicit hitting set
  scheme - keep a family of correction sets, find a minimum-weight hitting
  set by branch and bound, test it against the oracle, add the correction
  set of the model when satisfiable, and shrink the hitting set to subset
  minimality when unsatisfiable (its weight already matches the lower
  bound, so the result is weight-optimal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceededError, SatInputError
from .model import as_expr, eval_expr
from .oracle import ConstraintLike, Oracle

SUBSET_MINIMAL = "subset-minimal"
SMALLEST_WEIGHTED = "smallest-weighted"

# smallest-weighted extraction gives up (BudgetExceededError) past this many
MAX_CORRECTION_SETS = 10_000


@dataclass(frozen=True)
class MusQuery:
    soft: tuple[ConstraintLike, ...]
    hard: tuple[ConstraintLike, ...] = ()
    weights: Optional[tuple[int, ...]] = None
    mode: str = SUBSET_MINIMAL

    def __post_init__(self):
        if self.mode not in (SUBSET_MINIMAL, SMALLEST_WEIGHTED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.weights is not None:
            if len(self.weights) != len(self.soft):
                raise ValueError("one weight per soft constraint required")
            if any(w < 0 for w in self.weights):
                raise ValueError("weights must be non-negative")


def extract_mus_indices(q: MusQuery, oracle: Oracle) -> tuple[int, ...]:
    """Indices (in soft order) of one MUS; deterministic for a fixed query."""
    hard = [as_expr(c) for c in q.hard]
    soft = [as_expr(c) for c in q.soft]
    if oracle.model_of(hard + soft) is not None:
        raise SatInputError("soft + hard constraints are satisfiable; no MUS exists")
    if q.mode == SUBSET_MINIMAL:
        return _deletion_mus(soft, hard, oracle, range(len(soft)))
    return _smallest_mus(q, soft, hard, oracle)


def _deletion_mus(soft, hard, oracle, start: Sequence[int],
                  correction_sets: Optional[list] = None) -> tuple[int, ...]:
    """Drop the members of start in reverse order while the rest stays unsat.

    When correction_sets is given, every satisfiable probe appends the set of
    soft members its model violates.
    """
    keep = list(start)
    for i in reversed(list(start)):
        trial = [j for j in keep if j != i]
        model = oracle.model_of(hard + [soft[j] for j in trial])
        if model is None:
            keep = trial
        elif correction_sets is not None:
            correction_sets.append(
                frozenset(k for k in range(len(soft)) if not eval_expr(soft[k], model)))
    return tuple(keep)


def _smallest_mus(q: MusQuery, soft, hard, oracle) -> tuple[int, ...]:
    n = len(soft)
    weights = list(q.weights) if q.weights is not None else [1] * n
    correction_sets: list[frozenset[int]] = []

    # seed with a deletion pass: its result is an upper bound and every
    # satisfiable probe along the way donates a correction set
    best_known = _deletion_mus(soft, hard, oracle, range(n), correction_sets)
    ub = sum(weights[i] for i in best_known)

    while True:
        h = _min_hitting_set(correction_sets, weights, cap=ub)
        if h is None:
            return best_known  # the lower bound met the incumbent's weight
        model = oracle.model_of(hard + [soft[i] for i in sorted(h)])
        if model is None:
            # weight(h) is a lower bound on any MUS weight and h is unsat,
            # so any minimal subset of h is a minimum-weight MUS
            return _deletion_mus(soft, hard, oracle, sorted(h))
        # grow the satisfied set to a maximal one: the complement is then a
        # minimal correction set, which tightens the bound much faster
        sat = {i for i in range(n) if eval_expr(soft[i], model)}
        for i in range(n):
            if i in sat:
                continue
            m2 = oracle.model_of(hard + [soft[j] for j in sorted(sat | {i})])
            if m2 is not None:
                sat = {j for j in range(n) if eval_expr(soft[j], m2)}
        cs = frozenset(range(n)) - sat
        if not cs:
            raise AssertionError("model satisfies all soft constraints of an unsat query")
        correction_sets.append(cs)
        if len(correction_sets) > MAX_CORRECTION_SETS:
            raise BudgetExceededError(
                f"more than {MAX_CORRECTION_SETS} correction sets accumulated")


def _min_hitting_set(sets: list[frozenset[int]], weights: list[int],
                     cap: float = float("inf")) -> Optional[frozenset[int]]:
    """Minimum-weight hitting set by branch and bound, or None when every
    hitting set weighs at least cap. Ties keep the first solution found with
    elements tried in ascending index order."""
    best: Optional[frozenset[int]] = None
    best_w = cap

    def lower_bound(uncovered) -> int:
        total = 0
        used: set[int] = set()
        for s in uncovered:
            if s & used:
                continue
            total += min(weights[i] for i in s)
            used |= s
        return total

    def rec(chosen: list[int], w: int, uncovered: list[frozenset[int]]):
        nonlocal best, best_w
        if not uncovered:
            if w < best_w:
                best, best_w = frozenset(chosen), w
            return
        if w + lower_bound(uncovered) >= best_w:
            return
        target = min(uncovered, key=len)
        for e in sorted(target):
            rec(chosen + [e], w + weights[e], [s for s in uncovered if e not in s])

    rec([], 0, list(sets))
    return best
