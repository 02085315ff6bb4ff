"""Independent reference enumeration of Skolem sequences.

Nothing here touches the generating tree: sequences are built by placing
each value k at a pair of positions (i, i + k) in a fixed array, largest
value first.  Slow and simple on purpose -- this is the yardstick the tree
traversal is measured against, so it must not share its machinery.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .core import SkolemSequence

# Placement enumeration is exponential and unpruned; past this order it is
# no longer "obviously correct by inspection plus patience".
ORACLE_ORDER_LIMIT = 6


def oracle_enumerate(order: int) -> set[SkolemSequence]:
    """All Skolem sequences of the given order, by exhaustive pair placement.

    Values are placed from ``order`` down to 1; value k occupies positions
    i and i + k of a 2*order array.  Raises ValueError above
    ORACLE_ORDER_LIMIT.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > ORACLE_ORDER_LIMIT:
        raise ValueError(
            f"oracle is limited to order <= {ORACLE_ORDER_LIMIT}, got {order}"
        )
    size = 2 * order
    slots = [0] * size
    found: set[SkolemSequence] = set()

    def place(k: int) -> None:
        if k == 0:
            found.add(SkolemSequence(tuple(slots)))
            return
        for i in range(size - k):
            if slots[i] == 0 and slots[i + k] == 0:
                slots[i] = slots[i + k] = k
                place(k - 1)
                slots[i] = slots[i + k] = 0

    place(order)
    return found


def oracle_validate(values: Sequence[int] | Iterable[int]) -> bool:
    """Check the Skolem property by pairing up positions, sharing no code
    with the main validator.

    Walks left to right; the first time a value is seen its partner slot is
    computed, and the partner must hold the same value.  Accepts iff every
    position lands in exactly one pair, the values are 1..n each twice, and
    all gaps are exact.
    """
    vals = list(values)
    n2 = len(vals)
    if n2 == 0 or n2 % 2:
        return False
    n = n2 // 2
    paired = [False] * n2
    seen: set[int] = set()
    for i, k in enumerate(vals):
        if paired[i]:
            continue
        if not isinstance(k, int) or k < 1 or k > n or k in seen:
            return False
        j = i + k
        if j >= n2 or vals[j] != k:
            return False
        paired[i] = paired[j] = True
        seen.add(k)
    return len(seen) == n
