"""Seeded inputs for the ``certify`` workload.

Valid sequences come from an explicit construction of Skolem sequences of
order 4s, so inputs of any size are available without searching.  A quarter
of the ``verify`` lines are then corrupted, and each line's expected verdict
is worked out with the independent ``oracle_validate``.

Line orders are stratified (every order appears equally often) and the
corruption kinds are dealt out evenly, so the work in a ``verify`` run is
almost the same for every seed: the seed decides which line gets which order,
reversal and corruption, not how much work there is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from skolemgen.oracle import oracle_validate

ORDERS = tuple(range(8, 237, 4))  # 8..236, the orders 4s with s = 2..59
VERIFY_LINES = 2000
CORRUPT_SHARE = 4  # one line in CORRUPT_SHARE is corrupted
CORRUPTIONS = ("swap", "bump", "drop", "star", "nondigit")
NON_DIGIT_TOKENS = ("x", "3a", "#", "1.5")
STS_ORDERS = (100, 200)


def skolem_4s(order: int) -> list[int]:
    """A Skolem sequence of order ``order`` = 4s (s >= 2), built from 1-based
    position pairs (a, b) that each carry the value b - a."""
    if order % 4 or order < 8:
        raise ValueError(f"construction needs order 4s with s >= 2, got {order}")
    s = order // 4
    pairs = [(4 * s + r - 1, 8 * s - r + 1) for r in range(1, 2 * s + 1)]
    pairs += [(r, 4 * s - r - 1) for r in range(1, s - 1)]
    pairs += [(s + r + 1, 3 * s - r) for r in range(1, s - 1)]
    pairs += [(s - 1, 3 * s), (s, s + 1), (2 * s, 4 * s - 1), (2 * s + 1, 6 * s)]
    values = [0] * (2 * order)
    for a, b in pairs:
        values[a - 1] = values[b - 1] = b - a
    if not oracle_validate(values):
        raise AssertionError(f"construction is not a Skolem sequence at order {order}")
    return values


@dataclass(frozen=True)
class VerifyLine:
    text: str
    expected_order: int | None  # order of an OK verdict; None when FAIL is expected


def corrupt(values: list[int], kind: str, rng: random.Random) -> VerifyLine:
    """Apply one corruption and record the verdict ``verify`` must give."""
    vals = list(values)
    if kind == "swap":
        i, j = rng.sample(range(len(vals)), 2)
        while vals[i] == vals[j]:
            i, j = rng.sample(range(len(vals)), 2)
        vals[i], vals[j] = vals[j], vals[i]
    elif kind == "bump":
        vals[rng.randrange(len(vals))] += 1
    elif kind == "drop":
        del vals[rng.randrange(len(vals))]
    tokens = [str(v) for v in vals]
    if kind == "star":
        tokens.insert(rng.randrange(len(tokens) + 1), f"*{rng.randint(1, len(vals) // 2)}")
        return VerifyLine(",".join(tokens), None)
    if kind == "nondigit":
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(NON_DIGIT_TOKENS))
        return VerifyLine(",".join(tokens), None)
    return VerifyLine(",".join(tokens), len(vals) // 2 if oracle_validate(vals) else None)


def verify_lines(seed: int, count: int = VERIFY_LINES) -> list[VerifyLine]:
    """``count`` lines of orders 8..236, about one in four corrupted."""
    rng = random.Random(seed)
    valid = {n: skolem_4s(n) for n in ORDERS}
    orders = [ORDERS[i % len(ORDERS)] for i in range(count)]
    rng.shuffle(orders)
    corrupted = rng.sample(range(count), count // CORRUPT_SHARE)
    kinds = {i: CORRUPTIONS[k % len(CORRUPTIONS)] for k, i in enumerate(corrupted)}
    lines = []
    for i, n in enumerate(orders):
        values = valid[n][::-1] if rng.random() < 0.5 else valid[n]
        if i in kinds:
            lines.append(corrupt(values, kinds[i], rng))
        else:
            lines.append(VerifyLine(",".join(map(str, values)), n))
    return lines


def sts_inputs(seed: int) -> list[tuple[list[int], int]]:
    """(sequence, x) for each ``sts --sequence`` run: fixed orders, with the
    seed choosing reversal and the base offset x in 0..6n."""
    rng = random.Random(seed ^ 0x5EED)
    runs = []
    for n in STS_ORDERS:
        values = skolem_4s(n)
        if rng.random() < 0.5:
            values = values[::-1]
        runs.append((values, rng.randrange(6 * n + 1)))
    return runs
