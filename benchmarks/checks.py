"""Correctness gates for every output the benchmark measures.

Each gate returns a list of problems, empty when the output is right.
Sequences are judged by the independent ``oracle_validate``, never by the
validator being measured, and Steiner triple systems by their base-block
differences, never by ``verify_sts``.  A ``Tally`` turns gate results into
the ``attempted`` / ``failed`` figures of the benchmark's result.
"""

from __future__ import annotations

import json

from skolemgen.oracle import oracle_validate

# Open Skolem sequences per order 1..15: orders 1..14 are the acceptance
# constants of the test suite, order 15 was counted by the DFS and the
# level-sweep methods.
OPEN_COUNTS_15 = (
    1, 2, 4, 8, 20, 52, 146, 430, 1306, 4176, 13832, 47452, 169044, 619672, 2342256,
)
ORDER9_SEQUENCES = 2656
MAX_PROBLEMS = 3  # problems kept per failed operation, for the report


class Tally:
    """Attempted and failed operations, with a sample of what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one operation; True when it passed its gate."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:MAX_PROBLEMS])
        return not problems

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_exit(code: int, want: int = 0) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def check_silent(text: str, code: int) -> list[str]:
    """A command that must print nothing and exit 0."""
    return check_exit(code) + ([f"printed {text[:40]!r}"] if text else [])


def check_counts(text: str, code: int) -> list[str]:
    """``count-open --max-n 15`` output: one ``n=.. count=..`` line per order."""
    want = [f"n={n} count={c}" for n, c in enumerate(OPEN_COUNTS_15, start=1)]
    got = text.splitlines()
    problems = check_exit(code)
    if got != want:
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        problems.append(f"{len(got)} count lines, first mismatch at line {bad + 1}")
    return problems


def sequences(values_list, order: int) -> tuple[set[tuple[int, ...]], list[str]]:
    """The distinct sequences among ``values_list``, plus a problem for each
    entry that is not a Skolem sequence of ``order`` or repeats an earlier one."""
    seen: set[tuple[int, ...]] = set()
    problems = []
    for i, values in enumerate(values_list, start=1):
        values = tuple(values)
        if len(values) != 2 * order or not oracle_validate(values):
            problems.append(f"record {i} is not a Skolem sequence of order {order}")
        elif values in seen:
            problems.append(f"record {i} repeats an earlier sequence")
        seen.add(values)
    return seen, problems


def parse_text_records(text: str) -> list[list[int]]:
    """Text-format sequence records; a malformed line becomes an empty record."""
    records = []
    for line in text.splitlines():
        try:
            records.append([int(t) for t in line.split(",")])
        except ValueError:
            records.append([])
    return records


def parse_ndjson_records(lines: list[bytes], order: int) -> list[list[int]]:
    """ndjson sequence records; a malformed one becomes an empty record."""
    records = []
    for line in lines:
        try:
            obj = json.loads(line)
            ok = obj["order"] == order and isinstance(obj["values"], list)
        except (ValueError, KeyError, TypeError):
            ok = False
        records.append(obj["values"] if ok else [])
    return records


def check_enumeration(text: str, code: int, order: int, count: int) -> tuple[set, list[str]]:
    """A fully consumed ``enumerate --order N``: ``count`` distinct valid lines."""
    found, problems = sequences(parse_text_records(text), order)
    problems = check_exit(code) + problems
    if len(text.splitlines()) != count:
        problems.append(f"{len(text.splitlines())} lines, expected {count}")
    return found, problems


def check_verify(text: str, code: int, expected: list[int | None]) -> list[str]:
    """``verify`` output: ``OK order=N`` or ``FAIL ...`` per input line, in
    input order, and exit code 5 exactly when some line fails."""
    got = text.splitlines()
    problems = check_exit(code, 5 if None in expected else 0)
    if len(got) != len(expected):
        problems.append(f"{len(got)} verdicts for {len(expected)} lines")
    for i, (line, order) in enumerate(zip(got, expected), start=1):
        ok = line.startswith("FAIL ") if order is None else line == f"OK order={order}"
        if not ok:
            problems.append(f"line {i}: got {line[:40]!r}, expected {'FAIL' if order is None else 'OK'}")
    return problems


def expected_base(values: list[int], x: int) -> set[tuple[int, int, int]]:
    """Base blocks (x, x+k, x+j+n) for each value k, j its second position."""
    n = len(values) // 2
    second = {k: pos for pos, k in enumerate(values, start=1)}  # last write wins
    return {(x, x + k, x + second[k] + n) for k in range(1, n + 1)}


def check_sts(text: str, code: int, n: int, values: list[int] | None = None, x: int = 0) -> list[str]:
    """``sts`` output: n base blocks, ``v=6n+1``, the n*v developed blocks and
    ``VERIFIED``, with the blocks checked by ``check_sts_blocks``."""
    v = 6 * n + 1
    lines = text.splitlines()
    problems = check_exit(code)
    if len(lines) != n + n * v + 2 or lines[n] != f"v={v}" or lines[-1] != "VERIFIED":
        return problems + [f"{len(lines)} lines, expected base, v={v}, {n * v} blocks, VERIFIED"]
    try:
        base = [tuple(map(int, ln.removeprefix("base (").removesuffix(")").split(","))) for ln in lines[:n]]
        blocks = [tuple(map(int, ln.split())) for ln in lines[n + 1 : -1]]
    except ValueError:
        return problems + ["unparseable block line"]
    return problems + check_sts_blocks(base, blocks, n, values, x)


def check_sts_blocks(base, blocks, n: int, values: list[int] | None = None, x: int = 0) -> list[str]:
    """The base blocks' differences must cover 1..v-1 exactly once (which makes
    their development a Steiner triple system of order v = 6n+1), ``blocks``
    must be exactly that development, and with ``values`` given the base
    blocks must be the ones that sequence and offset define."""
    v = 6 * n + 1
    if len(base) != n or len(blocks) != n * v or any(len(b) != 3 for b in [*base, *blocks]):
        return [f"expected {n} base blocks and {n * v} blocks of three points"]
    problems = []
    if values is not None and set(base) != expected_base(values, x):
        problems.append("base blocks differ from the sequence's")
    diffs = sorted((d * sign) % v for a, b, c in base for d in (b - a, c - b, c - a) for sign in (1, -1))
    if diffs != list(range(1, v)):
        problems.append("base-block differences do not cover 1..v-1 exactly once")
    # Fast path: the documented order (translate-major over the base blocks);
    # any other order is compared as a set.
    in_order = [((a + t) % v, (b + t) % v, (c + t) % v) for t in range(v) for a, b, c in base]
    if list(blocks) != in_order:
        developed = {tuple(sorted(b)) for b in in_order}
        if len(developed) != n * v or {tuple(sorted(b)) for b in blocks} != developed:
            problems.append("blocks are not the development of the base blocks")
    return problems
