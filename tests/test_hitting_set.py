"""The hitting-set branch and bound of global minimization against a plain
reference.

`_min_hitting_set` packs its lower bound from the heaviest lightest member
first and keeps the sets as bitmasks. The reference below is the same
search over frozensets with the lower bound packed in family order. Any
valid lower bound prunes only subtrees with no solution lighter than the
incumbent, so both must return the very same set (or None) on every family,
cap and floor: weights drawn from {1, n+1}, as global minimization weighs
its candidates, and from 0-3, with the floor at the previous optimum of a
growing family, as `_smallest_mus` sets it.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq.mus import _min_hitting_set


def _plain_hitting_set(sets, weights, cap=float("inf"), floor=0) -> Optional[frozenset]:
    best: Optional[frozenset] = None
    best_w = cap

    def lower_bound(uncovered) -> int:
        total = 0
        used: set = set()
        for s in uncovered:
            if s & used:
                continue
            total += min(weights[i] for i in s)
            used |= s
        return total

    def rec(chosen, w, uncovered) -> bool:
        nonlocal best, best_w
        if not uncovered:
            if w < best_w:
                best, best_w = frozenset(chosen), w
            return best_w <= floor
        if w + lower_bound(uncovered) >= best_w:
            return False
        target = min(uncovered, key=len)
        return any(rec(chosen + [e], w + weights[e], [s for s in uncovered if e not in s])
                   for e in sorted(target))

    rec([], 0, list(sets))
    return best


@st.composite
def families(draw):
    n = draw(st.integers(1, 12))
    weights = draw(st.one_of(st.lists(st.sampled_from((1, n + 1)), min_size=n, max_size=n),
                             st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n),
                         min_size=1, max_size=14))
    cap = draw(st.one_of(st.none(), st.integers(0, 3 * n)))
    return weights, sets, float("inf") if cap is None else cap


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(families())
def test_min_hitting_set_matches_the_family_order_bound(case):
    weights, sets, cap = case
    floor = 0
    for k in range(1, len(sets) + 1):
        family = sets[:k]
        expected = _plain_hitting_set(family, weights, cap, floor)
        assert _min_hitting_set(family, weights, cap, floor) == expected, (family, floor)
        if expected is None:
            break
        floor = sum(weights[i] for i in expected)
