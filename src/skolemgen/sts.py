"""Steiner triple systems of order 6n+1 from Skolem sequences.

A Skolem sequence of order n pins down, for each length k, two positions
i < j with j - i = k.  Each such pair gives a base block (x, x+k, x+j+n);
developing the n base blocks additively mod v = 6n+1 covers every point
pair exactly once.

Two checks certify that claim rather than trusting the construction.
verify_sts takes a whole system: it marks each block's three pairs in one
v*v bytearray, rejects a pair marked twice, and counts the marks.  With
v(v-1)/6 blocks and no pair repeated, the v(v-1)/2 marked pairs are exactly
all the pairs.  write_sts judges the base alone.  The pair {p, p+d} lies in
one translate of a base block for each time d is the difference of two of
that block's points, so the development covers every pair exactly once
when the 6n differences +-(q-p) of the n base blocks are non-zero and
distinct mod v, and only then: the base is then a cyclic (v,3,1)
difference family (Colbourn and Rosa, *Triple Systems*, 1999).  For a
Skolem base they are +-k, +-(i+n) and +-(j+n), which is +-1..+-3n.  That
check takes one v-byte array and 6n steps.

The development comes one translate at a time (develop_rows), which is
also the one place a base is checked: n blocks of 3 points each.  So
write_sts builds, checks and prints a system holding only that array and
one translate's points: ``skolemgen sts`` runs it.  develop_sts,
verify_sts and format_triple_system are the same steps in their plain
forms, over a whole TripleSystem held in memory: they are the library's
whole-system API and the tests' reference for write_sts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

from .core import FrozenRecord, SkolemSequence

Triple = tuple[int, int, int]


class TripleSystem(FrozenRecord):
    """Points 0..v-1 and a list of 3-element blocks.

    Holding a TripleSystem does not certify the Steiner property; that is
    what verify_sts is for.
    """

    __slots__ = ("v", "blocks")

    def __init__(self, v: int, blocks: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "blocks", tuple(tuple(map(int, b)) for b in blocks))


def base_blocks(w: SkolemSequence | Sequence[int], x: int = 0) -> list[Triple]:
    """The n base blocks (x, x+k, x+j+n) of a Skolem sequence, one per
    length k sitting at positions i < j (1-based).

    Blocks come out in first-occurrence order of k, matching a left-to-right
    read of the sequence: position i holding k is the first of its pair
    exactly when position i+k holds k too.  Plain integer arithmetic;
    reduction mod 6n+1 happens in develop_rows.
    """
    if not isinstance(w, SkolemSequence):
        w = SkolemSequence(tuple(w))
    n = w.order
    if not 0 <= x < 6 * n + 1:
        raise ValueError(f"x must lie in 0..{6 * n}, got {x}")
    vals = w.values
    return [(x, x + k, x + i + k + n) for i, k in enumerate(vals, start=1)
            if i + k <= 2 * n and vals[i + k - 1] == k]


def develop_rows(base: Iterable[Triple], n: int) -> Iterator[tuple[int, ...]]:
    """The development one translate at a time: for t = 0..v-1, v = 6n+1,
    the points of every base block + t mod v, block after block, as one flat
    tuple.

    Each point p of the base becomes one iterator of range(v) rotated to
    start at int(p % v), so a real point develops as int((p + t) % v) would;
    zipping the iterators gives the rows.  The base is checked to be n
    triples, and its points reduced, here, when the call is made.  Beside
    the rows handed out, this holds only the 3n iterators.
    """
    base = [tuple(b) for b in base]
    if len(base) != n:
        raise ValueError(f"expected {n} base blocks, got {len(base)}")
    for block in base:
        if len(block) != 3:
            raise ValueError(f"expected base blocks of 3 points, got {block}")
    v = 6 * n + 1
    starts = [int(p % v) for b in base for p in b]
    return zip(*[chain(range(s, v), range(s)) for s in starts])


def develop_sts(base: Iterable[Triple], n: int) -> TripleSystem:
    """Translate each of the n base triples by t = 0..v-1 mod v = 6n+1: the
    rows of develop_rows, cut back into triples.

    Emits v*n blocks, translate-major, duplicates kept: a bad base fails in
    verify_sts instead of being silently papered over.
    """
    rows = develop_rows(base, n)
    blocks = tuple(row[i:i + 3] for row in rows for i in range(0, 3 * n, 3))
    # The rows hold ints already, so the blocks are set past __init__'s
    # normalisation, which would double the time spent here.
    system = TripleSystem(6 * n + 1, ())
    object.__setattr__(system, "blocks", blocks)
    return system


def verify_sts(system: TripleSystem) -> bool:
    """True iff every unordered point pair lies in exactly one block and the
    block count is v(v-1)/6.

    The pair p < q is marked at p*v + q in one v*v bytearray; a block that
    is not 3 distinct points of 0..v-1, or that holds a pair marked already,
    fails.  The closing count of marks is exact: v(v-1)/6 blocks without a
    repeated pair mark v(v-1)/2 pairs, which are then all of them.
    """
    v = system.v
    if v < 1 or len(system.blocks) * 6 != v * (v - 1):
        return False
    cover = bytearray(v * v)
    for block in system.blocks:
        if len(block) != 3:
            return False
        a, b, c = sorted(block)
        if a < 0 or c >= v or a == b or b == c:
            return False
        ab, ac, bc = a * v + b, a * v + c, b * v + c
        if cover[ab] or cover[ac] or cover[bc]:
            return False
        cover[ab] = cover[ac] = cover[bc] = 1
    return cover.count(1) == v * (v - 1) // 2


def _is_difference_family(base: Iterable[Triple], v: int) -> bool:
    """True iff the differences +-(q-p) of the points of each base block,
    reduced as develop_rows reduces them, are 6n distinct non-zero elements
    of Z_v: then, and only then, the base develops into an STS(v)."""
    seen = bytearray(v)
    for block in base:
        a, b, c = [int(p % v) for p in block]
        for d in (b - a) % v, (c - b) % v, (a - c) % v:
            if not d or seen[d]:
                return False
            seen[d] = seen[v - d] = 1
    return True


def write_sts(base: Sequence[Triple], n: int, write: Callable[[str], object]) -> bool:
    """Pass the text of the system that the n base triples develop into to
    ``write``, and return verify_sts's verdict on it.

    The text is a line "base (a,b,c)" per base block, then
    format_triple_system's text of develop_sts(base, n), then a newline.
    It is written one translate at a time.  The verdict is verify_sts's,
    taken from the base's differences (see the module docstring) with one
    v-byte array in O(n) steps, where verify_sts needs a v*v cover and
    O(v*n) steps.  develop_rows checks the base, and the rows and the array
    are made, before the first write: a bad base, or running out of memory
    there, writes nothing.
    """
    v = 6 * n + 1
    rows = develop_rows(base, n)
    ok = _is_difference_family(base, v)
    for a, b, c in base:
        write(f"base ({a},{b},{c})\n")
    write(f"v={v}")
    line = "\n%d %d %d" * n
    for row in rows:
        write(line % row)
    write("\n")
    return ok


def format_triple_system(system: TripleSystem) -> str:
    """Text form: header "v=<v>", then one block per line as its points,
    space-separated; a block of three points reads "a b c"."""
    return "\n".join([f"v={system.v}", *(" ".join(map(str, b)) for b in system.blocks)])
