"""Minimal unsatisfiable subsets over soft constraints with fixed hard constraints.

One entry point, `extract_mus_indices(soft, hard, oracle, weights=None,
start=None, models=None)`, over plain expressions. `start` names the soft members already
known to be unsat with the hard constraints (all of them by default); the one
up-front satisfiability probe runs over `start`, and SatInputError is raised
when it is satisfiable.

* without weights, a subset-minimal MUS: one deletion pass over `start`, one
  oracle call per member, deletion order = reverse declaration order
  (documented, deterministic);
* with one positive weight per soft member, an exact minimum-weight MUS
  via the implicit hitting set scheme (Ignatiev et al., CP 2015): keep a
  family of correction sets, find a minimum-weight hitting set h by branch
  and bound, test h against the oracle, and add the correction set of the
  model when satisfiable. An unsatisfiable h has the least weight of any
  MUS, and it is a MUS itself: every correction set is the complement of a
  satisfiable subset, so an unsatisfiable subset of h hits them all too,
  and a proper one would be a lighter hitting set. So h is returned as it
  is.

Six things keep the weighted search cheap. The first five never change its
answer; the last keeps its weight:

* seed: a deletion pass over `start` gives the first incumbent, and each of
  its satisfiable probes a correction set. A small `start` (a proof step's
  own reasons) makes that pass a handful of small probes;
* floor: the family only grows, so the last hitting set's weight is a lower
  bound on the next one, and the branch and bound stops at the first
  solution that reaches it; that is the solution the full search keeps;
* grow budget: growing a model's satisfied set to a maximal one probes each
  left-out member with at most GROW_BUDGET conflicts. A probe that runs out
  leaves its member out: the complement of any satisfiable subset is a
  correction set, just not always a minimal one;
* grow order: a round probes the left-out members lightest first (facts
  before user constraints under global minimization's weights), so the
  correction set collects heavy members and the bound climbs sooner;
* early exit: a round keeps a witness, a hitting set lighter than the
  incumbent of the family plus the round's correction set so far, found
  with `_min_hitting_set` in its feasibility form. A Sat probe that moves
  every witness member into the satisfied set looks for a new one; when
  none is left, the incumbent is returned at once. This is exact: the
  correction set only shrinks as the round goes on, so any hitting set of
  the family with the round's final correction set hits the current one
  too, and the full round would have ended the search with the same
  incumbent. An exit returns before appending, so MAX_CORRECTION_SETS
  counts only the correction sets actually added to the family;
* kept models: the queries of one pass (a global minimization) share a
  list of the Sat models they got back, from deletion trials, hitting-set
  checks and grow probes, in the order they came (the incremental OCUS of
  Gamba et al., JAIR 2023). A query's first family holds the correction
  set of each model that satisfies hard, its own deletion models first:
  the members the model violates, as those it satisfies are satisfiable
  with hard, so the set is valid by evaluation. A repeated set is kept
  once, which changes no hitting set: `_min_hitting_set` never branches on
  or packs a repeat. The incumbent is still returned exactly when no
  hitting set is lighter, so only which of several lighter MUSes of the
  least weight comes back can change.

The grow probes of a query share one `GrowSession` (see `oracle`), built at
its first grow round: each round keeps the satisfied set at the root, and
each probe adds one member to it, returning exactly what `Oracle.solve` over
`hard` and the satisfied set with that member returns under GROW_BUDGET.
A model satisfies every kept set, so its root never fails. Probes that drop
members (the deletion seed, the up-front probe and the hitting-set checks)
stay fresh `Oracle.solve` calls, as a kept root gains them nothing.

The hitting-set branch and bound keeps each correction set as a bitmask,
with its lightest member's weight, its members and its size computed once
per call.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

from .errors import BudgetExceededError, SatInputError
from .model import Expr, eval_expr
from .oracle import GrowSession, Oracle, Sat

# smallest-weighted extraction gives up (BudgetExceededError) past this many
MAX_CORRECTION_SETS = 10_000
# conflicts allowed to each probe that grows a satisfied set (capped by the
# oracle's own budget)
GROW_BUDGET = 50


def extract_mus_indices(soft: Sequence[Expr], hard: Sequence[Expr], oracle: Oracle,
                        weights: Optional[Sequence[int]] = None,
                        start: Optional[Sequence[int]] = None,
                        models: Optional[list[dict]] = None) -> tuple[int, ...]:
    """Indices (in soft order) of one MUS; deterministic for a fixed query
    and models.

    Without weights the MUS is a subset-minimal subset of start; with weights,
    each at least 1, it is one of least total weight over all of soft. start
    (default: every index) must be unsat with hard. With weights, models
    (Sat assignments of `oracle` that earlier queries returned) seed
    correction sets, and the query appends its own Sat assignments to it."""
    soft, hard = list(soft), list(hard)
    if weights is not None:
        if len(weights) != len(soft):
            raise ValueError("one weight per soft constraint required")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
    start = range(len(soft)) if start is None else sorted(set(start))
    if any(not 0 <= i < len(soft) for i in start):
        raise ValueError("start indices must index soft")
    if oracle.model_of(hard + [soft[i] for i in start]) is not None:
        raise SatInputError("soft + hard constraints are satisfiable; no MUS exists")
    if weights is None:
        return _deletion_mus(soft, hard, oracle, start)
    return _smallest_mus(soft, hard, list(weights), oracle, start,
                         [] if models is None else models)


def _deletion_mus(soft, hard, oracle, start: Sequence[int],
                  models: Optional[list] = None) -> tuple[int, ...]:
    """Drop the members of start in reverse order while the rest stays unsat.
    When models is given, the model of every satisfiable trial is appended
    to it."""
    keep = list(start)
    for i in reversed(list(start)):
        trial = [j for j in keep if j != i]
        model = oracle.model_of(hard + [soft[j] for j in trial])
        if model is None:
            keep = trial
        elif models is not None:
            models.append(model)
    return tuple(keep)


def _smallest_mus(soft, hard, weights: list[int], oracle, start: Sequence[int],
                  models: list[dict]) -> tuple[int, ...]:
    n = len(soft)
    everything = frozenset(range(n))
    grow_order = sorted(range(n), key=weights.__getitem__)
    grow: Optional[GrowSession] = None  # built at the first grow round
    earlier = len(models)

    # seed with a deletion pass: its result is an upper bound and every
    # satisfiable trial along the way donates a correction set; then so
    # does every model of an earlier query that satisfies hard
    best_known = _deletion_mus(soft, hard, oracle, start, models)
    correction_sets = _model_correction_sets(soft, hard, models[earlier:] + models[:earlier])
    ub = sum(weights[i] for i in best_known)
    lb = 0

    def lighter(sat) -> Optional[frozenset[int]]:
        """A hitting set lighter than ub of the family and the complement
        of sat, or None."""
        cs = everything - sat
        if not cs:
            raise AssertionError("model satisfies all soft constraints of an unsat query")
        return _min_hitting_set(correction_sets + [cs], weights, cap=ub, floor=ub - 1)

    while True:
        h = _min_hitting_set(correction_sets, weights, cap=ub, floor=lb)
        if h is None:
            return best_known  # the lower bound met the incumbent's weight
        lb = sum(weights[i] for i in h)
        model = oracle.model_of(hard + [soft[i] for i in sorted(h)])
        if model is None:
            # no hitting set is lighter than h, so h is a MUS (see the
            # module docstring)
            return tuple(sorted(h))
        models.append(model)
        # grow the satisfied set, lightest candidates first: the smaller the
        # complement, the faster the bound tightens; a probe that is unsat or
        # runs out of its budget leaves its member out. The witness hits the
        # complement so far; once none is left, the incumbent is optimal
        sat = _satisfied(soft, model, h)
        witness = lighter(sat)
        if witness is None:
            return best_known
        if grow is None:
            grow = GrowSession(oracle, hard, soft)
        grow.keep(sat)
        for i in grow_order:
            if i in sat:
                continue
            # the answer of oracle.solve(hard + [soft[j] for j in sorted(sat | {i})])
            # within GROW_BUDGET conflicts, from the kept root
            res = grow.probe(i, GROW_BUDGET)
            if isinstance(res, Sat):
                models.append(res.assignment)
                sat = _satisfied(soft, res.assignment, sat | {i})
                grow.keep(sat)
                if witness <= sat:
                    witness = lighter(sat)
                    if witness is None:
                        return best_known
        grow.clear()
        correction_sets.append(everything - sat)
        if len(correction_sets) > MAX_CORRECTION_SETS:
            raise BudgetExceededError(
                f"more than {MAX_CORRECTION_SETS} correction sets accumulated")


def _model_correction_sets(soft, hard, models) -> list[frozenset[int]]:
    """The correction set of each model that satisfies hard, in order, but
    for those listed before: the soft members the model violates, since the
    ones it satisfies are satisfiable with hard."""
    everything = frozenset(range(len(soft)))
    seen, out = set(), []
    for model in models:
        if all(eval_expr(c, model) for c in hard):
            cs = everything - _satisfied(soft, model, ())
            if cs not in seen:
                seen.add(cs)
                out.append(cs)
    return out


def _satisfied(soft, model, known) -> set[int]:
    """Indices of the soft members that model satisfies. The call that
    returned model had the members in known as constraints, and Oracle.solve
    checked them, so only the others are evaluated."""
    return {j for j in range(len(soft)) if j in known or eval_expr(soft[j], model)}


def _min_hitting_set(sets: list[frozenset[int]], weights: list[int],
                     cap: float = float("inf"), floor: float = 0) -> Optional[frozenset[int]]:
    """Minimum-weight hitting set by branch and bound, or None when every
    hitting set weighs at least cap. Each node branches on the members, in
    ascending order, of its smallest uncovered set (the first in `sets` order
    among equals). Ties keep the first solution found.

    floor must be a lower bound on the optimum (the optimum of a subfamily
    of sets will do): the search stops at the first solution that weighs no
    more, which is the one the full search would keep. With integer
    weights, floor >= cap - 1 gives the feasibility form: the first hitting
    set found that is lighter than cap, or None when there is none. The
    lower bound at a node packs disjoint uncovered sets, heaviest lightest
    member first and then fewest members, and adds up their lightest
    members. Any valid bound keeps the answer: pruning only cuts subtrees
    with no solution lighter than the incumbent, so the solutions that
    improve on it come in the same order."""
    best: Optional[frozenset[int]] = None
    best_w = cap
    # per set, once: (-its lightest member's weight, size, index in sets,
    # bitmask, members in ascending order), in the lower bound's order
    order = sorted((-min(weights[i] for i in s), len(s), k, sum(1 << i for i in s), sorted(s))
                   for k, s in enumerate(sets))
    branch_key = itemgetter(1, 2)

    def rec(chosen: list[int], w: int, uncovered: list[tuple]) -> bool:
        """True once the floor is reached: the whole search stops."""
        nonlocal best, best_w
        if not uncovered:
            if w < best_w:
                best, best_w = frozenset(chosen), w
                return w <= floor
            return False
        bound, used = w, 0
        for neg_min, _, _, mask, _ in uncovered:
            if not mask & used:
                bound -= neg_min
                used |= mask
        if bound >= best_w:
            return False
        for e in min(uncovered, key=branch_key)[4]:
            bit = 1 << e
            if rec(chosen + [e], w + weights[e], [t for t in uncovered if not t[3] & bit]):
                return True
        return False

    rec([], 0, order)
    # rec refers to itself through its closure cell; without this the cycle
    # would keep it, order and the cells alive until a cyclic collection
    del rec
    return best
