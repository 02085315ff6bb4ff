"""Steiner triple systems of order 6n+1 from Skolem sequences.

A Skolem sequence of order n pins down, for each length k, two positions
i < j with j - i = k.  Each such pair gives a base block (x, x+k, x+j+n);
developing the n base blocks additively mod v = 6n+1 covers every point
pair exactly once.  The verifier checks that claim rather than trusting the
construction: it marks each block's three pairs in one v*v bytearray,
rejects a pair marked twice, and counts the marks.  With v(v-1)/6 blocks and
no pair repeated, the v(v-1)/2 marked pairs are exactly all the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

from .core import SkolemSequence

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class TripleSystem:
    """Points 0..v-1 and a list of 3-element blocks.

    Holding a TripleSystem does not certify the Steiner property; that is
    what verify_sts is for.
    """

    v: int
    blocks: tuple[Triple, ...]

    def __post_init__(self):
        # Each block becomes tuple(map(int, b)).  Blocks that already are
        # tuples of exact ints (develop_sts builds them so) are kept as they
        # are: the two C-level type passes cost about a quarter of converting
        # (45 against 185 ms for the 240,200 blocks of order 200, 2-vCPU Xeon).
        blocks = tuple(self.blocks)
        if not (
            set(map(type, blocks)) <= {tuple}
            and set(map(type, chain.from_iterable(blocks))) <= {int}
        ):
            blocks = tuple(map(tuple, map(map, repeat(int), blocks)))
        object.__setattr__(self, "blocks", blocks)


def base_blocks(w: SkolemSequence | Sequence[int], x: int = 0) -> list[Triple]:
    """The n base blocks (x, x+k, x+j+n) of a Skolem sequence, one per
    length k sitting at positions i < j (1-based).

    Blocks come out in first-occurrence order of k, matching a left-to-right
    read of the sequence.  Plain integer arithmetic; reduction mod 6n+1
    happens in develop_sts.
    """
    if not isinstance(w, SkolemSequence):
        w = SkolemSequence(tuple(w))
    n = w.order
    if not 0 <= x < 6 * n + 1:
        raise ValueError(f"x must lie in 0..{6 * n}, got {x}")
    second: dict[int, int] = {}
    order_seen: list[int] = []
    for pos, k in enumerate(w.values, start=1):
        if k in second:
            second[k] = pos
        else:
            second[k] = 0
            order_seen.append(k)
    return [(x, x + k, x + second[k] + n) for k in order_seen]


def develop_sts(base: Iterable[Triple], n: int) -> TripleSystem:
    """Translate each base block by t = 0..v-1 mod v = 6n+1.

    Emits v*n blocks, translate-major, duplicates kept: a bad base fails in
    verify_sts instead of being silently papered over.  A base block with no
    points has no translates to zip, so it leaves the whole system empty.
    """
    base = [tuple(b) for b in base]
    if len(base) != n:
        raise ValueError(f"expected {n} base blocks, got {len(base)}")
    v = 6 * n + 1
    points = list(range(v))

    def translates(p: int) -> list[int]:
        """int((p + t) % v) for t = 0..v-1: range(v) rotated to start there."""
        s = int(p % v)
        return points[s:] + points[:s]

    # one iterator of the v translates per base block; zipping them walks t
    # in the outer loop and the base blocks in the inner one
    columns = [zip(*map(translates, b)) for b in base]
    return TripleSystem(v=v, blocks=tuple(chain.from_iterable(zip(*columns))))


def verify_sts(system: TripleSystem) -> bool:
    """True iff every unordered point pair lies in exactly one block and the
    block count is v(v-1)/6.

    Each block must hold 3 distinct points of 0..v-1; its pairs p < q are
    marked at p*v + q in one bytearray, and a pair marked twice fails.  The
    closing count of marks is exact: v(v-1)/6 blocks without a repeated pair
    mark v(v-1)/2 pairs, which are then all of them.
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


def format_triple_system(system: TripleSystem) -> str:
    """Text form: header "v=<v>", then one block per line as three
    space-separated integers."""
    # "%d %d %d" % block for a triple, and likewise for any other length;
    # one C-level format call per block
    lengths = list(map(len, system.blocks))
    formats = {k: " ".join(["%d"] * k) for k in set(lengths)}
    blocks = map(str.__mod__, map(formats.__getitem__, lengths), system.blocks)
    return "\n".join(chain((f"v={system.v}",), blocks))


def parse_triple_system(text: str) -> TripleSystem:
    """Inverse of format_triple_system.  The header value and every point
    are written in ASCII digits: no sign, underscore or other digits."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("v="):
        raise ValueError("triple system text must start with a v=<v> header")
    head = lines[0][2:].strip()
    if not (head.isascii() and head.isdigit()):
        raise ValueError(f"bad point count in header: {lines[0]!r}")
    blocks = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"block line must have 3 integers: {ln!r}")
        digits = "".join(parts)
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"block points must be ASCII digits: {ln!r}")
        blocks.append(tuple(map(int, parts)))
    return TripleSystem(v=int(head), blocks=tuple(blocks))
