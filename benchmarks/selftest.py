"""Self-test of the benchmark's gates.

Each gate gets one correct output, which must leave ``fail_ratio`` at 0, and
one corrupted output -- a wrong count, an invalid or repeated sequence, a
flipped verdict, a wrong block -- which must raise it.  A gate that passes
anything fails here.  ``run.py`` runs this before measuring; it also runs
alone::

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def _text(rows) -> str:
    return "".join(",".join(map(str, r)) + "\n" for r in rows)


def _sts_text(values: list[int], x: int, blocks=None) -> str:
    n = len(values) // 2
    v = 6 * n + 1
    base = sorted(checks.expected_base(values, x))
    if blocks is None:
        blocks = [tuple((p + t) % v for p in b) for t in range(v) for b in base]
    lines = [f"base ({a},{b},{c})" for a, b, c in base] + [f"v={v}"]
    lines += [" ".join(map(str, b)) for b in blocks] + ["VERIFIED"]
    return "\n".join(lines) + "\n"


def cases():
    """(gate, problems for a correct output, problems for a corrupted one)."""
    counts = "".join(f"n={n} count={c}\n" for n, c in enumerate(checks.OPEN_COUNTS_15, 1))
    yield "count", checks.check_counts(counts, 0), checks.check_counts(
        counts.replace("count=2342256", "count=2342255"), 0
    )

    yield "output where none is due", checks.check_silent("", 0), checks.check_silent("1,1\n", 0)

    seq = inputs.skolem_4s(8)
    swapped = list(seq)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    good = checks.check_enumeration(_text([seq, seq[::-1]]), 0, 8, 2)[1]
    yield "invalid sequence", good, checks.check_enumeration(_text([swapped, seq[::-1]]), 0, 8, 2)[1]
    yield "duplicate sequence", good, checks.check_enumeration(_text([seq, seq]), 0, 8, 2)[1]

    ndjson = [json.dumps({"order": 8, "values": s}).encode() for s in (seq, seq[::-1])]
    yield "duplicate ndjson record", checks.sequences(checks.parse_ndjson_records(ndjson, 8), 8)[1], \
        checks.sequences(checks.parse_ndjson_records(ndjson[:1] * 2, 8), 8)[1]

    lines = inputs.verify_lines(seed=7, count=40)
    expected = [line.expected_order for line in lines]
    verdicts = ["FAIL x" if order is None else f"OK order={order}" for order in expected]
    flipped = list(verdicts)
    i = expected.index(None)
    flipped[i] = "OK order=8"
    yield "flipped verify verdict", checks.check_verify("\n".join(verdicts), 5, expected), \
        checks.check_verify("\n".join(flipped), 5, expected)
    yield "verify exit code", checks.check_verify("\n".join(verdicts), 5, expected), \
        checks.check_verify("\n".join(verdicts), 0, expected)

    v = 6 * 8 + 1
    good = _sts_text(seq, 3)
    bad_blocks = [tuple((p + t) % v for p in b) for t in range(v) for b in sorted(checks.expected_base(seq, 3))]
    bad_blocks[5] = bad_blocks[4]
    yield "sts blocks", checks.check_sts(good, 0, 8, seq, 3), checks.check_sts(_sts_text(seq, 3, bad_blocks), 0, 8, seq, 3)
    yield "sts base blocks", checks.check_sts(good, 0, 8, seq, 3), checks.check_sts(good, 0, 8, seq[::-1], 3)


def run_selftest() -> list[str]:
    """Names of gates that accepted a corrupted output or rejected a correct one."""
    failures = []
    for name, good, bad in cases():
        tally = checks.Tally()
        tally.record(name, good)
        if tally.fail_ratio != 0:
            failures.append(f"{name}: correct output rejected: {good[:2]}")
        tally.record(name, bad)
        if tally.fail_ratio == 0:
            failures.append(f"{name}: corrupted output accepted")
    return failures


if __name__ == "__main__":
    failed = run_selftest()
    for line in failed:
        print(line, file=sys.stderr)
    print("self-test:", "FAILED" if failed else "ok")
    sys.exit(1 if failed else 0)
