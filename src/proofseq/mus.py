"""Minimal unsatisfiable subsets over soft constraints with fixed hard constraints.

One entry point, `extract_mus_indices(soft, hard, oracle, weights=None)`,
over plain expressions:

* without weights, a subset-minimal MUS: one deletion pass, one oracle call
  per soft member, deletion order = reverse declaration order (documented,
  deterministic);
* with one non-negative weight per soft member, an exact minimum-weight MUS
  via the implicit hitting set scheme (Ignatiev et al., CP 2015): keep a
  family of correction sets, find a minimum-weight hitting set h by branch
  and bound, test h against the oracle, and add the correction set of the
  model when satisfiable. An unsatisfiable h has the least weight of any
  MUS. Every correction set is the complement of a satisfiable subset, so
  an unsatisfiable subset of h hits them all too, and a proper one would be
  a lighter hitting set unless every member it drops weighs 0. So h is
  returned as it is, and a final deletion pass over h runs only when a
  member of h weighs 0.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import BudgetExceededError, SatInputError
from .model import Expr, eval_expr
from .oracle import Oracle

# smallest-weighted extraction gives up (BudgetExceededError) past this many
MAX_CORRECTION_SETS = 10_000


def extract_mus_indices(soft: Sequence[Expr], hard: Sequence[Expr], oracle: Oracle,
                        weights: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """Indices (in soft order) of one MUS; deterministic for a fixed query.

    Without weights the MUS is subset-minimal; with weights it is one of
    least total weight."""
    soft, hard = list(soft), list(hard)
    if weights is not None:
        if len(weights) != len(soft):
            raise ValueError("one weight per soft constraint required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
    if oracle.model_of(hard + soft) is not None:
        raise SatInputError("soft + hard constraints are satisfiable; no MUS exists")
    if weights is None:
        return _deletion_mus(soft, hard, oracle, range(len(soft)))
    return _smallest_mus(soft, hard, list(weights), oracle)


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


def _smallest_mus(soft, hard, weights: list[int], oracle) -> tuple[int, ...]:
    n = len(soft)
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
            # no hitting set is lighter than h, so only members of weight 0
            # can leave h and keep it unsat (see the module docstring)
            if all(weights[i] for i in h):
                return tuple(sorted(h))
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
