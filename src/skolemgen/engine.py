"""Generating-tree traversal: counting open Skolem sequences, exhaustive
enumeration of Skolem sequences, and feasibility pruning.

The tree rooted at the empty state (see ``core``) has the open Skolem
sequences of order n as its level-n nodes.  Level counts grow by roughly
x3.7 per level, so a level-storing search runs out of memory long before it
runs out of time; the walk here goes depth first, with memory proportional
to the depth.

It carries a node as three integers (n, O, U): the length n, the bitmask O
of open values (bit k set when an open arc carries *k) and the bitmask U of
used lengths.  Starting an arc ticks every open value up and appends *1,
``O' = (O << 1) | 2``; closing ``*j`` while bit j of U is clear gives
``O' = (O ^ 1 << j) << 1`` and ``U' = U | 1 << j``.  A node of length 2N is
a Skolem sequence exactly when U holds the lengths 1..N.  Entries matter
only when enumerating: the walk writes both ends of each arc it closes into
one buffer.  The same walk lists a level, enumerates with or without
pruning, and runs the subtrees of worker processes; a count is a listing
plus a closed-form tail (below), in one pass, so every count arrives when
it ends.  ``iter_level_states`` lists the tree's full states level by
level; the tests recount the tree with it, and ``benchmarks/layers.py``
times ``prune_feasible`` on its states.

A leaf of the walk is a Skolem sequence by construction, so it needs no
check.  The walk yields a node of full length n = 2N only when U holds the
lengths 1..N; since n = 2 popcount(U) + p with p open arcs, U is exactly
{1..N} and no arc is open.  Every position is the start or the end of one
arc, and closing ``*j`` wrote ``ent[n-1] = ent[n-1-j] = j``, both ends of
that arc and no other position, once for each length j.  So the buffer
holds each of 1..N exactly twice, at gap j.  ``parallel_leaves`` yields
these values as plain tuples, and ``skolemgen enumerate`` prints them as
they are.  ``enumerate_skolem`` and ``parallel_enumerate`` build each leaf
as a ``SkolemSequence``, which validates it again, as it validates every
sequence that does not come from the walk.

A node's state fixes how many children it has: the opener plus one closer
per open value whose length is unused, ``1 + |C|`` with C = O & ~U and |X|
the popcount of X.  Its grandchildren and great-grandchildren have closed
forms too.  Let D = (O << 1) & ~U, E = (O << 2) & ~U, z = [bit 1 of U
clear] and z2 = [bit 2 of U clear].  The opener child has C0 = D | z << 1
and A0 = E | z2 << 2 for its C and D (the new *1 is closable unless length
1 is used), so it has 1 + |D| + z children.  Closing *j takes bits j+1 and
j out of D, so that child has one child fewer than 1 + |D| for each of j+1
in D and j in D.  Summed over the opener and the closers,

    grandchildren = (|C| + 1)(|D| + 1) + z - |D & C << 1| - |D & C|.

The great-grandchildren are the grandchildren of the children.  The
opener's are the form above with C0 and A0 for C and D.  The closer of *j
has C_j = D less bits j and j+1, D_j = E less bits j and j+2, and z_j = z
unless j = 1.  Then D_j & C_j << 1 is F = E & D << 1, and D_j & C_j is
G = E & D, each less bits j, j+1 and j+2.  So every popcount in the
closer's grandchildren loses one indicator term per removed bit, and summed
over j in C each term is an intersection with a shifted mask:

    closers = |C|(|D| + 1)(|E| + 1)
              - (|E| + 1)(|C & D| + |C & D >> 1|)
              - (|D| + 1)(|C & E| + |C & E >> 2|)
              + |C & D & E| + |C & D & E >> 2|
              + |C & D >> 1 & E| + |C & D >> 1 & E >> 2|
              + z |C| - |C & 2|
              - (|C| |F| - |C & F| - |C & F >> 1| - |C & F >> 2|)
              - (|C| |G| - |C & G| - |C & G >> 1| - |C & G >> 2|),

where the first four lines expand the sum of (|C_j| + 1)(|D_j| + 1), the
fifth sums z_j, and the last two sum |F| and |G| less the removed bits.

So a count does not walk the last four levels.  It lists the level four
short of the target (or the seed itself, when that is nearer); each listed
node adds its children from popcounts, and ``_three_below`` adds the three
levels below those children over whole batches of them at once.  Its walk
therefore has that level as its full length, and the progress heartbeat's
"level n of D" names it: D is K - 4 for ``count-open --max-n K``.  The
heartbeat goes to stderr once per ``PROGRESS_INTERVAL`` (10 M) entered
nodes, so stdout does not depend on it.  Enumeration and the split enter
every node, because they need each node's entries or state.

Pruning against a target order N cuts subtrees that cannot reach a Skolem
leaf: length/parity bookkeeping, used lengths within 1..N, a greedy matching
of open values into the unused lengths, and position sums (below).  Each
test is individually sound, so pruned and unpruned enumeration emit the same
sequences.

The pruned walk decides the room, range and greedy tests of every child at
its parent, and counts a child that fails them as visited and cut without
building it.  Take a node that passed, with free = ~U over 1..N and p open
values.  With U within 1..N, n = 2|U| + p and N = |U| + popcount(free), so

    2N - n = 2 popcount(free) - p,

and the room test reads popcount(free) >= p; its parity never changes from
parent to child.  Rank the open values from the largest down, rank(v) = 1
for the top one; one step turns every open v into v+1, which the greedy
test gives rank(v) unused lengths >= v+1.  Closing *j leaves the rank and
that count unchanged for every open v > j; every v < j loses one rank and
loses j from the count, so the two changes cancel, and the room is
unchanged.  So the child closing *j passes iff every other open v has
popcount(free >> (v+1)) >= rank(v).  The opener passes iff every open v
does and popcount(free) >= p + 1 (the new *1 needs a length), which is the
room test with one arc more: the open arcs must not fill the remaining
positions.  An open v = N has no free length above N, so the same
comparison flags it for the range test.  One pass over the open values
thus yields B, the values that fail it: with two or more, every child is
cut; with B = {v}, only "close *v" lives, and it exists, because the parent
passed: popcount(free >> v) >= rank(v) > popcount(free >> (v+1)), so length
v is unused; with B empty, every closer lives, and the opener lives unless
the room test fails.

Position sums.  Take a node (n, O, U) with target order N and L = 2N: p =
popcount(O) arcs are open and m = (L - n - p)/2 remain to open.  Let P =
(n+1) + ... + L, S the sum of the open arcs' start positions (*v starts at
n+1-v), F the sum of the unused lengths, and lo the sum of the m smallest
of them.  In a completion each open arc closes at a distinct position q,
with length q - s; each new arc takes a start a and an end b, with length
b - a; and the positions n+1..L and the unused lengths are each used
exactly once.  So sum(q) + sum(a) + sum(b) = P and
sum(q) - S + sum(b) - sum(a) = F, which gives

    T := P - S - F = 2 sum(a),

twice the start sum of the arcs still to open.  A closer keeps T; an opener
lowers it by 2(n+1).  The node is cut unless all three bounds hold:

  (a) the starts are distinct and after n:  T >= m(2n+m+1);
  (b) the ends are distinct and <= L, and sum(b) - sum(a) >= lo:
      2 lo <= 2mL - m(m-1) - T;
  (c) the closings are distinct and after n, with
      sum(q) = P - T/2 - sum(b):
      2 lo <= 2(P-T) - p(2n+p+1).

A fourth bound, that the ends are distinct and after n+1, reads
m(2n+m+3) - T <= 2(P-T) - p(2n+p+1).  It cuts nothing: (a) makes its left
side at most 2m, and (c) makes the right side at least 2 lo >= m(m+1).
Each of (a), (b) and (c) does cut: without it, order 10 visits 445,274,
213,821 and 140,664 nodes rather than 140,387.

They never read T mod 2.  For N = 2, 3 (mod 4), T is odd at the root and
so at every node, and a node with m = 0 needs T = 0 by (a) and (b).  With
every node that has m = 0 exempt from the checks, the walk would still drop
to 268,545 visits at order 10 and 67,514 at order 9 (from 1,154,800 and
177,981 without the checks; 140,387 and 53,439 with them).

The pruned walk decides these checks for every child at the parent, too.
Every closer child has length n+1, p-1 open arcs, the same m and the same T,
so (a) holds for all of them or for none.  Closing *j changes lo only
when j is one of the m smallest unused lengths (the mask ``low``): then lo
becomes lo - j + f(m+1), with f(k) the k-th smallest unused length.  So the
closers that fail (b) or (c) are those in ``low`` below one threshold.  The
opener child has m-1 arcs to open, T - 2(n+1), and lo - f(m).  The walk
carries T, ``low`` and lo on its stack: an opener drops low's top bit, and
a closer *j with j in ``low`` swaps bit j for bit f(m+1).  So no node needs
a test on entry.  A walk starts from the root, whose T, ``low`` and lo
``_position_sums`` gives, or from a node that a pruned walk listed with
them, as ``_split`` lists the seeds of worker processes: a seed is a node
as the walk holds it.  ``_feasible`` runs every test on one node from
scratch; only ``prune_feasible`` calls it, and the tests check the walk
against it.  At length 2N - 1 one arc is open and one
length is unused; the rank pass keeps the arc's closer only if its length
is the unused one, and cuts the opener, which would leave an arc open at
full length.

Merging equal nodes.  Many prefixes reach the same node, and the walk
would search its subtree again each time.  So within ``MERGE_DEPTH``
positions of full length the pruned walk records, when a node's children
have all settled, its replay: a flat tuple that lists the node's live
subtree, the nodes on its paths to Skolem leaves, in canonical depth-first
order.  It holds one step (m, j) per node of length m that closed *j, or
opened an arc when j = 0, and a leaf mark right after each leaf's step; a
step writes ``ent[m-1] = ent[m-1-j] = j``.  The replay is built bottom up:
over the node's live children in canonical order, each child's step
followed by its part, which is a leaf's mark, the replay an expanded child
has just built, or the one recorded for a merged child.  A node equal to a
recorded one is merged: the walk runs its replay in one loop, writing and
counting each step and yielding at each mark, and pushes nothing and
looks nothing up; an empty replay settles it at once.

This is sound.  (O, U) fixes n = 2 popcount(U) + popcount(O), and T,
``low`` and lo are functions of (n, O, U), so the children a node keeps
and every subtree below them depend on (O, U) alone.  Closing *j writes
only ent[n-1] and ent[n-1-j], which is the start of an arc open at the
node or a position after n, so a completion writes only positions that
(O, U) fixes, with the same values whatever the prefix.  A replay writes
them in the order the expanded subtree did, so the leaves, their order and
their entries do not change.  An opener's step writes 0 at position m-1,
the start of the arc it opens; a leaf has no open arc, so the closer of
that arc, a later step on the path to every leaf below, writes that
position again before the leaf.  The opener is a step all the same, so
that ``visits[m]`` counts it.  Each interior node of a replay, a step not
followed by a mark, counts as merged, as it did when a merged node
replayed its children one at a time and looked each of them up; each leaf
counts as entered, so the heartbeat fires at the same leaves.

The record holds at most ``MERGE_CAP`` nodes.  Once full it keeps them and
records no more, so a node within reach then pays one lookup and builds
no replay, and no replay grows once its node has settled.  The two
constants against time and peak RSS (2 vCPUs, Python 3.11.7, a shared
host): the first 20,000 leaves of order 12 from ``enumerate_skolem``, and
``dfs_enumerate`` of orders 11 and 12.  Times are medians of runs
alternating in one process, 7 a row for the first two walks and 3 for
order 12; peak RSS is from a run of its own.  Each second line is the
walk that kept a live-children mask per node and pushed a merged node's
live children one at a time, measured alongside.

    depth, cap      20,000 leaves     order 11 (empty)   order 12
    0 (no merging)  0.50 s  17.0 MiB  0.68 s  17.0 MiB  11.7 s  17.0 MiB
      masks         0.51 s  16.9 MiB  0.66 s  17.0 MiB  12.2 s  16.9 MiB
    6, 2^17         0.35 s  18.3 MiB  0.44 s  17.7 MiB   7.1 s  26.7 MiB
      masks         0.41 s  17.7 MiB  0.44 s  17.9 MiB   8.3 s  22.1 MiB
    8, 2^15         0.30 s  20.5 MiB  0.46 s  19.1 MiB  10.6 s  21.1 MiB
      masks         0.37 s  19.2 MiB  0.44 s  18.9 MiB  12.3 s  19.1 MiB
    8, 2^17 (used)  0.30 s  20.4 MiB  0.36 s  21.8 MiB   7.7 s  35.0 MiB
      masks         0.37 s  19.2 MiB  0.36 s  21.7 MiB   9.5 s  27.3 MiB
    8, 2^18         0.30 s  20.5 MiB  0.40 s  21.7 MiB   6.1 s  56.8 MiB
      masks         0.37 s  19.1 MiB  0.36 s  21.6 MiB   8.0 s  37.9 MiB
    10, 2^17        0.32 s  21.9 MiB  0.36 s  26.7 MiB   8.6 s  37.9 MiB
      masks         0.38 s  19.2 MiB  0.37 s  26.7 MiB   9.8 s  27.5 MiB

The first 20,000 leaves record about 22,000 nodes, under every cap in the
table, whose replays hold about 126,000 steps and marks; the whole
order-12 walk fills 2^17 records after about a fifth of its leaves.  A cap
of 2^15 fills too early to gain there.  2^18 takes a fifth off the
order-12 walk for 22 MiB more, and nothing off the first 20,000 leaves.
Depth 10 records
more nodes that recur less often; depth 6 merges fewer.  Order 11 is
empty, so its replays are empty too, and both records cost the same.
"""

from __future__ import annotations

import marshal
import math
import os
import struct
import sys
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from itertools import islice, repeat
from operator import mul

from .core import FrozenRecord, OpenState, SkolemSequence, children

PROGRESS_INTERVAL = 10_000_000  # visited-node liveness signal, stderr
# The pruned walk merges equal nodes within MERGE_DEPTH positions of full
# length and records at most MERGE_CAP of them (the module docstring's table).
MERGE_DEPTH = 8
MERGE_CAP = 1 << 17
# A count evaluates its closed-form tail over the children of this many
# listed nodes at a time (``_count_below``): about 900 children at K = 15
# and 1,800 at K = 16.  Batches of 512 and 1024 nodes were up to 4% faster
# and took up to 1.3 MiB more peak RSS at K = 18 (2 vCPUs, Python 3.11.7).
_BATCH = 256
# A worker sends a subtree's leaves to the reader this many at a time.
_FRAME = 256

# A node as the walk holds it, (n, O, U, j, T, low, lo): j > 0 when the node
# closed *j; the pruned walk carries the node's position sums, other walks
# zeros.
_Node = tuple[int, int, int, int, int, int, int]


def note(text: str) -> None:
    """Print ``text`` as one line on stderr, the one way the package writes
    there.  A stderr that cannot be written is passed over, so a notice
    never changes what a run does or the exit code it ends with."""
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


class EnumerationReport:
    """Outcome of one tree traversal towards a target order.

    ``per_level_counts[i]`` counts the nodes of length i+1 that the walk
    settled: each one was entered, cut at its parent without being built, or
    merged (found in the pruned walk's record of equal nodes expanded
    before).  ``pruned_nodes`` counts the cut ones and ``merged_nodes`` the
    merged ones, so the walk entered exactly
    1 + sum(per_level_counts) - pruned_nodes - merged_nodes nodes, the root
    included.  A mutable record that prints by its fields, as ``FrozenRecord``
    does; it compares by identity.
    """

    __slots__ = ("target_order", "per_level_counts", "skolem_count", "pruned_nodes", "merged_nodes",
                 "elapsed")  # elapsed in seconds
    __repr__ = FrozenRecord.__repr__

    def __init__(self, target_order: int, per_level_counts: list[int] | None = None,
                 skolem_count: int = 0, pruned_nodes: int = 0, merged_nodes: int = 0,
                 elapsed: float = 0.0) -> None:
        self.target_order, self.skolem_count, self.elapsed = target_order, skolem_count, elapsed
        self.pruned_nodes, self.merged_nodes = pruned_nodes, merged_nodes
        self.per_level_counts = [] if per_level_counts is None else per_level_counts

    def summary(self) -> str:
        """Human-readable run report, including the classical-search comparison."""
        n2 = 2 * self.target_order
        searched = self.per_level_counts[-1] if self.per_level_counts else 0
        lines = [
            f"target order {self.target_order}: {self.skolem_count} Skolem sequence(s)",
            "nodes visited per level: "
            + ",".join(str(c) for c in self.per_level_counts),
            f"open states searched at level {n2}: {searched}",
            f"classical permutation search space {n2}! = {math.factorial(n2)}",
            f"pruned nodes: {self.pruned_nodes}",
            f"merged nodes: {self.merged_nodes}",
            f"elapsed: {self.elapsed:.3f} s",
        ]
        return "\n".join(lines)


def _require_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")


def _lengths(order: int) -> int:
    """Bitmask of the lengths 1..order."""
    return (2 << order) - 2


# ---------------------------------------------------------------------------
# the walk

def _feasible(n: int, O: int, U: int, order: int) -> bool:
    """Sound filter: False only if no descendant of the node (n, O, U) at
    length 2*order can be a Skolem sequence of that order.

    Tests, each individually sound:
      * room and parity: closing the p open arcs and pairing up whatever
        positions remain needs 2N - n - p >= 0 and even;
      * every used length must lie in 1..N;
      * no open value may exceed N;
      * the open values, which must eventually close at distinct unused
        lengths no smaller than their current value, must match injectively
        into {1..N} minus the used set: the k-th largest open value needs
        k unused lengths at or above it (the greedy largest-to-largest check);
      * position sums: the node fixes T, twice the sum of the start
        positions of the arcs still to open, and checks (a)-(c) of the
        module docstring bound it (``_sum_bounds``).  They never read T's
        parity; for N = 2, 3 (mod 4) T is odd, so they cut every node with
        no arc left to open, which needs T = 0.

    ``prune_feasible`` runs this.  The pruned walk never does: it decides
    every test of a node at the node's parent, so this is the reference that
    the tests check the walk against.
    """
    rem = 2 * order - n - O.bit_count()
    if rem < 0 or rem & 1 or (O | U) >> (order + 1):
        return False
    free = ~U & ((2 << order) - 2)  # _lengths(order), without a call per node
    k = 0
    rest = O
    while rest:
        j = rest.bit_length() - 1
        rest ^= 1 << j
        k += 1
        if (free >> j).bit_count() < k:
            return False
    T, _, lo = _position_sums(n, O, U, order)
    tmin, bl, cl = _sum_bounds(n, k, 2 * order)
    return T >= tmin and 2 * lo <= min(bl - T, cl - 2 * T)


def _position_sums(n: int, O: int, U: int, order: int) -> tuple[int, int, int]:
    """T, ``low`` and ``lo`` of a node (n, O, U) that passes the room and
    range tests: T = P - S - F, the mask ``low`` of the m smallest unused
    lengths, and their sum ``lo`` (see the module docstring)."""
    L = 2 * order
    p = O.bit_count()
    # S = p(n+1) - (sum of the open values), F = N(N+1)/2 - (sum of U)
    T = (L * (L + 1) - n * (n + 1) - order * (order + 1)) // 2 - p * (n + 1)
    for mask in (O, U):
        while mask:
            b = mask & -mask
            mask ^= b
            T += b.bit_length() - 1
    free = ~U & _lengths(order)
    low = lo = 0
    for _ in range((L - n - p) >> 1):
        b = free & -free
        free ^= b
        low |= b
        lo += b.bit_length() - 1
    return T, low, lo


def _root(order: int) -> _Node:
    """The empty sequence as the walk holds it, with its position sums
    towards ``order``; ``_root(0)`` is all zeros, as an unpruned walk
    carries."""
    return (0, 0, 0, 0, *_position_sums(0, 0, 0, order))


def _sum_bounds(n: int, p: int, L: int) -> tuple[int, int, int]:
    """The constants of checks (a)-(c) at a node of length n with p open
    arcs, towards length L: (tmin, bl, cl) such that the node passes iff
    T >= tmin and 2 lo <= min(bl - T, cl - 2T)."""
    m = (L - n - p) >> 1
    cl = L * (L + 1) - n * (n + 1) - p * (2 * n + p + 1)  # 2P - p(2n+p+1)
    return m * (2 * n + m + 1), 2 * m * L - m * (m - 1), cl


def _three_below(Os: list[int], Us: list[int], words: int) -> tuple[int, int, int]:
    """Children, grandchildren and great-grandchildren of the nodes
    (Os[i], Us[i]), each summed over the nodes, from the popcounts of the
    module docstring.  Every mask has bit 0 clear and is below
    2 ** (64 * ``words`` - 3).

    The masks are packed into two ints, one lane of ``words`` 64-bit words
    per node, so ``&``, ``|`` and the shifts by one or two stay inside each
    lane.  A sum of popcounts is then one ``bit_count`` of a packed int.  A
    product takes each lane's own counts: a SWAR popcount leaves every
    byte's count in place, and one multiply sums each word's bytes into its
    top byte.  Counts of two masks, or a count plus one, are added before
    that multiply; every sum stays below 256.
    """
    k, lane = len(Os), 8 * words  # lane in bytes
    size = lane * k
    if words == 1:  # struct packs 64-bit lanes in C, five times faster
        packed = [struct.pack(f"<{k}Q", *m) for m in (Os, Us)]
    else:
        packed = [b"".join(map(int.to_bytes, m, repeat(lane), repeat("little"))) for m in (Os, Us)]
    O, U = (int.from_bytes(raw, "little") for raw in packed)
    m1, m2, m4 = (int.from_bytes(byte * size, "little") for byte in (b"\x55", b"\x33", b"\x0f"))
    one = int.from_bytes((b"\1" + bytes(lane - 1)) * k, "little")  # bit 0 of each lane

    def lanes(*masks: int, plus: int = 0) -> bytes | list[int]:
        # each lane's popcounts of the masks, summed, plus its bits of ``plus``
        for x in masks:
            x -= x >> 1 & m1
            x = (x & m2) + (x >> 2 & m2)
            plus += x + (x >> 4) & m4
        # the multiply sums each word's byte counts into its top byte
        tops = (plus * 0x0101010101010101).to_bytes(size + 8, "little")[7:size:8]
        return tops if words == 1 else list(map(sum, zip(*[iter(tops)] * words)))

    nU = (1 << 8 * size) - 1 ^ U  # ~U within the lanes
    C, D, E = O & nU, O << 1 & nU, O << 2 & nU
    z = nU & one << 1  # bit 1 where length 1 is unused
    X, Y, F, G = C & D, C & D >> 1, E & D << 1, E & D
    c, d1, e1 = lanes(C), lanes(D, plus=one), lanes(E, plus=one)
    cd1 = list(map(mul, c, d1))
    nc, nz = C.bit_count(), z.bit_count()
    grand = sum(cd1) + D.bit_count() + k + nz - (D & C << 1).bit_count() - X.bit_count()
    # The opener child is a node with C0 and A0 for its C and D.
    C0, A0 = D | z, E | nU & one << 2
    great = sum(map(mul, lanes(C0, plus=one), lanes(A0, plus=one)))
    great += nz - (A0 & C0 << 1).bit_count() - (A0 & C0).bit_count()
    # The closers.
    great += sum(map(mul, cd1, e1)) - sum(map(mul, e1, lanes(X, Y)))
    great -= sum(map(mul, d1, lanes(C & E, C & E >> 2))) + sum(map(mul, c, lanes(F, G)))
    zlanes = (z >> 1) * ((1 << 8 * lane) - 1)  # the lanes where z = 1
    great += sum(H.bit_count() for H in (X & E, X & E >> 2, Y & E, Y & E >> 2, C & zlanes))
    great += sum((C & H >> i).bit_count() for H in (F, G) for i in range(3))
    great -= (C & one << 1).bit_count()  # the closers of *1
    return k + nc, grand, great


def _walk(
    ent: list[int],
    seed: _Node,
    visits: list[int],
    order: int = 0,
    cut: list[int] | None = None,
    merged: list[int] | None = None,
) -> Iterator[_Node]:
    """Depth-first walk from the node ``seed`` to length ``len(ent)``.

    Children are popped in canonical order: the opener, then the closers by
    increasing j.  ``visits[m]`` counts the nodes at length m that the walk
    settled.  With ``cut`` given, pruning is against ``order``, and no node
    runs a test on entry, the seed included: its parent decided them all,
    the room, range and greedy tests by one rank pass, and the position-sum
    checks (a)-(c) from the T, ``low`` and lo it carries on the stack and
    pushes with each child (see the module docstring).  So a pruned walk
    starts from ``_root(order)`` or from a node that a pruned walk towards
    the same order yielded.  The checks never read T's parity.  A child its
    parent rejects is added to ``visits`` and ``cut[0]`` without being
    entered; at full length that is every node with an open arc.  A pruned
    walk that stops at full length, 2 * ``order``, also merges equal nodes
    within ``MERGE_DEPTH`` positions of it: a node equal to one it expanded
    before is added to ``visits`` and ``merged[0]`` (a count of its own when
    ``merged`` is None) and is not entered, and the walk replays the live
    subtree recorded for it without a test: each leaf of the replay counts
    as entered and every other node of it as merged (see the module
    docstring).  So each node that a walk towards full length counts in
    ``visits`` was entered, cut or merged, exactly one of them, and
    ``sum(visits)`` less the cuts and merges is exactly the number of nodes
    entered.  A walk stopped at a leaf has settled the nodes it entered or
    merged up to the leaf, a replay's too, and every child their parents
    cut, those after the leaf in canonical order too, but not the pushed
    children or the replayed nodes it never reached.

    At ``len(ent)`` the walk yields the node it popped: at full length only
    a node whose used mask holds every length 1..``order``, a Skolem leaf,
    and short of it every node, which is how ``_split`` and ``_count_below``
    list a level.  The progress heartbeat counts the nodes the walk enters
    and names the level of the walk's own full length.

    ``ent[:n]`` holds the seed's entries.  Closing ``*j`` writes both ends of
    its arc, so at each yield ``ent`` holds the node's closed entries; those
    at open positions are stale, and a Skolem leaf has none.
    """
    depth = len(ent)
    L = 2 * order
    full = _lengths(order)
    goal = full if depth == L else 0
    beat = PROGRESS_INTERVAL
    t = 0
    # An exit record (n, key, 0, ~j, 0, 0, 0) sits below an expanded node's
    # children.
    stack = [seed]
    pop, push = stack.pop, stack.append
    # rep[n]: the replay built so far by the recording node of length n on
    # the current path, a tuple that each live child extends; None when that
    # node does not record
    rep: list[tuple | None] = [None] * (depth + 1)
    memo: dict[int, tuple] = {}  # (O, U) packed as O << width | U -> replay
    recorded = memo.get
    memo_cap = MERGE_CAP
    width = order + 1
    merge_from = depth + 1  # no merging
    if cut is not None:
        # checks (a)-(c) of a child of length i with m arcs to open
        bounds = [
            [_sum_bounds(i, L - i - 2 * m, L) for m in range((L - i) // 2 + 1)]
            for i in range(depth + 1)
        ]
        if goal:
            merge_from = depth - MERGE_DEPTH
            # steps[m][j]: the step (m, j) of a node of length m that closed *j,
            # in a 1-tuple to extend replays with; built for the lengths below
            # a recording node
            steps = [[((m, j),) for j in range(width) if m > merge_from] for m in range(depth + 1)]
        if merged is None:
            merged = [0]
    while stack:
        n, O, U, j, T, low, lo = pop()
        if j:
            if j < 0:
                # The node's children have all settled: record its replay.
                r = rep[n]
                rep[n] = None
                if len(memo) < memo_cap:
                    memo[O] = r
                if r and (parts := rep[n - 1]) is not None:
                    rep[n - 1] = parts + steps[n][~j] + r
                continue
            ent[n - 1] = ent[n - 1 - j] = j
        visits[n] += 1
        if merge_from <= n < depth:
            key = O << width | U
            r = recorded(key)
            if r is not None:
                # Merged: an equal node was expanded before.  Replay its live
                # subtree: each step writes a node's entries, and each leaf
                # mark (None) follows a leaf's step.
                merged[0] += 1
                if r and (parts := rep[n - 1]) is not None:
                    rep[n - 1] = parts + steps[n][j] + r
                k = 0  # steps since the last leaf
                for s in r:
                    if s is None:
                        merged[0] += k - 1  # the nodes above the leaf
                        k = 0
                        t += 1
                        if t == beat:
                            note(f"skolemgen: visited {t} nodes (currently at level {depth} of {depth})")
                            beat += PROGRESS_INTERVAL
                        yield depth, 0, goal, j, 0, 0, 0
                    else:
                        m, j = s
                        ent[m - 1] = ent[m - 1 - j] = j
                        visits[m] += 1
                        k += 1
                continue
            if len(memo) < memo_cap:
                rep[n] = ()
                push((n, key, 0, ~j, 0, 0, 0))
        t += 1
        if t == beat:
            note(f"skolemgen: visited {t} nodes (currently at level {n} of {depth})")
            beat += PROGRESS_INTERVAL
        if n == depth:
            if U & goal == goal:
                if (parts := rep[n - 1]) is not None:
                    rep[n - 1] = parts + steps[n][j] + (None,)
                yield n, O, U, j, T, low, lo
            continue
        if cut is not None:
            # The parent decided every test of this node; see the module
            # docstring.
            free = ~U & full
            # One rank pass over the open values decides every child's
            # room, range and greedy tests: B collects (up to two of) the
            # values v of rank k with fewer than k unused lengths >= v+1.
            B = 0
            k = 0
            rest = O
            while rest:
                v = rest.bit_length() - 1
                rest ^= 1 << v
                k += 1
                if (free >> (v + 1)).bit_count() < k:
                    B |= 1 << v
                    if B & (B - 1):
                        break
            closable = O & ~U
            skipped = 1 + closable.bit_count()
            n += 1
            if B & (B - 1):  # every child fails
                visits[n] += skipped
                cut[0] += skipped
                continue
            if B:  # only "close *v" can live
                closable = B
            m = (L - n + 1 - k) >> 1  # k = p, as no value broke the pass
            if closable:
                # Every closer keeps m and T, and its lo exceeds lo by
                # f(m+1) - j when j is in low: the closers that fail
                # checks (b) and (c) are those in low below a threshold.
                tmin, bl, cl = bounds[n][m]
                cap = min(bl - T, cl - 2 * T) >> 1 if T >= tmin else -1
                if lo > cap:
                    closable = 0
                elif closable & low:
                    g = free & ~low
                    g &= -g  # the bit of f(m+1)
                    f = g.bit_length() - 1
                    if lo + f > cap:
                        closable &= ~low | -(1 << (lo + f - cap))
            skipped -= closable.bit_count()
            # The stack pops last-pushed first: closers by decreasing j,
            # then the opener.
            while closable:
                j = closable.bit_length() - 1
                b = 1 << j
                closable ^= b
                if low & b:
                    push((n, (O ^ b) << 1, U | b, j, T, low ^ b | g, lo - j + f))
                else:
                    push((n, (O ^ b) << 1, U | b, j, T, low, lo))
            if not B and m:
                # The opener starts an arc at n: m - 1 arcs left to open,
                # and the largest of the m smallest lengths leaves low.
                f = low.bit_length() - 1
                T -= 2 * n
                tmin, bl, cl = bounds[n][m - 1]
                if T >= tmin and 2 * (lo - f) <= min(bl - T, cl - 2 * T):
                    skipped -= 1
                    push((n, O << 1 | 2, U, 0, T, low ^ 1 << f, lo - f))
            if skipped:
                visits[n] += skipped
                cut[0] += skipped
            continue
        n += 1
        # The stack pops last-pushed first: closers by decreasing j, then the opener.
        closable = O & ~U
        while closable:
            j = closable.bit_length() - 1
            b = 1 << j
            closable ^= b
            push((n, (O ^ b) << 1, U | b, j, 0, 0, 0))
        push((n, (O << 1) | 2, U, 0, 0, 0, 0))


def _split(
    limit: int, workers: int, order: int = 0, cut: list[int] | None = None
) -> tuple[list[int], list[tuple[_Node, tuple[int, ...]]]]:
    """Walk from ``_root(order)`` to the first level holding at least 4x
    ``workers`` nodes, or to level ``limit`` if none before it does; with
    ``cut`` given, the walk is pruned against ``order``, so every node it
    lists passed its parent's tests and carries its position sums.

    Returns the counts of the nodes settled at levels 1..that level and its
    nodes as (node, entries) pairs in canonical order.  The subtrees below
    them share nothing, so results merged in seed order do not depend on
    the worker count or on scheduling.
    """
    root = _root(order)
    counts: list[int] = []
    seeds = [(root, ())]
    while len(counts) < limit and len(seeds) < 4 * workers:
        depth = len(counts) + 1
        ent = [0] * depth
        visits = [0] * (depth + 1)
        seeds = [(node, tuple(ent)) for node in _walk(ent, root, visits, order, cut)]
        counts = visits[1:]
    return counts, seeds


# ---------------------------------------------------------------------------
# counting

def _count_below(job: tuple[_Node, int]) -> list[int]:
    """Node counts of levels n+1..max_order below one node of length n.

    A count is a listing plus a closed-form tail: the walk lists the nodes
    of level ``stop`` = max(max_order - 4, n), four levels short of the
    target or the seed itself, and enters no node below it.  The listed
    nodes' children, buffered as masks, are level stop+1, and
    ``_three_below`` adds levels stop+2..stop+4 below them, ``_BATCH``
    listed nodes' children at a time.  Levels past
    ``max_order``, which a seed nearer than four levels fills, are dropped.
    """
    seed, max_order = job
    stop = max(max_order - 4, seed[0])
    visits = [0] * (stop + 5)
    words = (stop + 68) >> 6  # a child's masks are below 2 ** (stop + 2)
    nodes = _walk([0] * stop, seed, visits)
    while chunk := list(islice(nodes, _BATCH)):
        Os, Us = [], []
        for _, O, U, _, _, _, _ in chunk:
            closable = O & ~U
            Os.append(O << 1 | 2)
            Us.append(U)
            while closable:
                b = closable & -closable
                closable ^= b
                Os.append((O ^ b) << 1)
                Us.append(U | b)
        for i, s in enumerate((len(Os), *_three_below(Os, Us, words)), stop + 1):
            visits[i] += s
    return visits[seed[0] + 1 : max_order + 1]


def count_open_levels(max_order: int) -> list[int]:
    """Exact count of open Skolem sequences per order, 1..max_order, from one
    depth-first pass that lists level max_order - 4 and adds the four
    levels below each listed node from popcounts (``_count_below``).  No
    level is complete before the pass ends, so a ``MemoryError`` leaves no
    partial count.
    """
    _require_order(max_order)
    return _count_below((_root(0), max_order))


def iter_level_states(max_order: int) -> Iterator[list[OpenState]]:
    """Full states level by level, in canonical order. Test-scale only:
    memory grows with the level size."""
    _require_order(max_order)
    level = [OpenState()]
    for _ in range(max_order):
        level = [child for state in level for child in children(state)]
        yield level


# ---------------------------------------------------------------------------
# pruning

def prune_feasible(state: OpenState, target_order: int) -> bool:
    """Sound filter (the tests are ``_feasible``'s): False only if no descendant
    of ``state`` at length 2*target_order can be a Skolem sequence."""
    _require_order(target_order)
    open_mask = sum(1 << k for k in state.open_values())
    used_mask = sum(1 << k for k in state.used)
    return _feasible(state.order, open_mask, used_mask, target_order)


# ---------------------------------------------------------------------------
# enumeration

def _leaves(
    seed: _Node,
    prefix: tuple[int, ...],
    order: int,
    visits: list[int],
    cut: list[int] | None,
    merged: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Values of every Skolem leaf below ``seed``, whose entries are
    ``prefix``, in canonical order; ``cut`` and ``merged`` as for ``_walk``."""
    ent = list(prefix) + [0] * (2 * order - len(prefix))
    for _ in _walk(ent, seed, visits, order, cut, merged):
        yield tuple(ent)


def enumerate_skolem(order: int, prune: bool = True) -> Iterator[SkolemSequence]:
    """Stream every Skolem sequence of the given order exactly once, in
    canonical child order: ``parallel_enumerate`` at one worker, which walks
    in process.  Pruning never changes the emitted set."""
    return parallel_enumerate(order, prune)


def dfs_enumerate(target_order: int, prune: bool = True) -> EnumerationReport:
    """Walk the tree to depth 2*target_order, validate each Skolem leaf, and
    report visited/pruned node counts per level."""
    _require_order(target_order)
    visits = [0] * (2 * target_order + 1)
    cut = [0] if prune else None
    merged = [0]
    count = 0
    t0 = time.perf_counter()
    for vals in _leaves(_root(target_order), (), target_order, visits, cut, merged):
        SkolemSequence(vals)
        count += 1
    return EnumerationReport(
        target_order=target_order,
        per_level_counts=visits[1:],
        skolem_count=count,
        pruned_nodes=cut[0] if cut else 0,
        merged_nodes=merged[0],
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# parallel traversal

def _worker_count(workers: int) -> int:
    """``workers`` capped at the CPUs this process may run on, with a notice
    on stderr when capped; below 1 is an error."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not hasattr(os, "fork"):  # ``_pool`` forks its workers
        cpus = 1
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # not every platform has it
        cpus = os.cpu_count() or 1
    if workers > cpus:
        note(f"skolemgen: {workers} workers requested but {cpus} CPU(s) available; using {cpus}")
        return cpus
    return workers


def _send(fd: int, job: int, payload: object) -> None:
    """Write one frame to ``fd``: the job index and the payload's length,
    then the payload in ``marshal`` form."""
    data = marshal.dumps(payload)
    data = struct.pack("<II", job, len(data)) + data
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer if it closes first."""
    data = b""
    while len(data) < size and (more := os.read(fd, size - len(data))):
        data += more
    return data


def _serve(run: Callable[..., Iterable], jobs: list, tasks: int, hand: int, out: int) -> None:
    """A forked worker's whole life; it never returns.  It closes ``hand``,
    its copy of the parent's end of the task pipe, so that the pipe closes
    with the parent's, and takes job indices from ``tasks`` until it does.
    For each job i it sends to ``out`` the items of ``run(jobs[i])`` in
    frames of ``_FRAME``, then None, or the pickled exception the job
    raised.  It leaves only through ``os._exit``, so nothing it inherited
    (buffered output, the caller's frames) runs twice; its status is 0 only
    once the task pipe has closed."""
    status = 1
    try:
        os.close(hand)
        while raw := os.read(tasks, 4):
            i = int.from_bytes(raw, "little")
            try:
                items = iter(run(jobs[i]))
                while frame := list(islice(items, _FRAME)):
                    _send(out, i, frame)
                _send(out, i, None)
            except Exception as exc:
                import pickle

                _send(out, i, pickle.dumps(exc))
        status = 0
    finally:
        os._exit(status)


def _receive(procs: dict[int, int], frames: list) -> None:
    """Wait for the workers whose frame pipes are the keys of ``procs``, and
    file one frame from each that is ready under its job in ``frames``.  A
    worker whose pipe has closed is reaped and dropped from ``procs``; one
    that did not end cleanly raises ``MemoryError``."""
    import select

    for r in select.select(list(procs), [], [])[0]:
        head = _read(r, 8)
        if len(head) == 8:
            job, size = struct.unpack("<II", head)
            frame = _read(r, size)
            if len(frame) == size:
                frames[job].append(frame)
                continue
        # The pipe closed, so the worker has ended.
        os.close(r)
        code = os.waitstatus_to_exitcode(os.waitpid(procs.pop(r), 0)[1])
        if code < 0:
            raise MemoryError(f"worker process ended by signal {-code}")
        if code:
            raise MemoryError(f"worker process exited with status {code}")


def _pool(run: Callable[..., Iterable], jobs: list, workers: int) -> Iterator:
    """The items of ``run(job)`` for each job, in job order, each job run in
    one of ``workers`` processes forked from this one, so neither the jobs
    nor ``run`` are pickled; the items must suit ``marshal``.  The package
    starts no thread, so a fork copies no lock that another thread holds.

    The parent hands out job indices at most 4x ``workers`` jobs past the
    job it is reading, and drains every worker with ``select``: it yields
    the frames of the job being read as they arrive and buffers those of
    later jobs.  An exception a job raised is raised again here when its
    job is read; a worker that ends any other way raises ``MemoryError`` at
    once.  Every way out of the generator kills and reaps the workers still
    running.
    """
    import signal

    tasks, hand = os.pipe()
    procs: dict[int, int] = {}  # a worker's frame pipe -> its pid
    sent = 0
    try:
        for _ in range(workers):
            r, w = os.pipe()
            procs[r] = 0  # until it is forked
            try:
                if not (pid := os.fork()):
                    _serve(run, jobs, tasks, hand, w)
                procs[r] = pid
            finally:
                os.close(w)
        frames = [deque() for _ in jobs]  # each job's unread frames
        for cur, queue in enumerate(frames):
            while sent < min(cur + 4 * workers + 1, len(jobs)):
                os.write(hand, sent.to_bytes(4, "little"))
                sent += 1
                if sent == len(jobs):
                    os.close(hand)
            while True:
                while not queue:
                    _receive(procs, frames)
                items = marshal.loads(queue.popleft())
                if items is None:
                    break
                if type(items) is bytes:
                    import pickle

                    raise pickle.loads(items)
                yield from items
    finally:
        if sent < len(jobs):
            os.close(hand)
        os.close(tasks)
        for r, pid in procs.items():
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(r)


def parallel_count(max_order: int, workers: int = 1) -> list[int]:
    """count_open_levels with the tree split across worker processes.

    ``workers`` is capped at the CPUs this process may run on, with a notice
    on stderr.  The split sits at the first level holding at least 4x
    workers nodes, and ``_pool`` counts below each seed in a forked worker;
    output is identical to the sequential count for any worker count.  One
    worker runs ``count_open_levels`` in process.
    """
    workers = _worker_count(workers)
    _require_order(max_order)
    if workers == 1:
        return count_open_levels(max_order)

    prefix, seeds = _split(max_order, workers)
    if len(prefix) == max_order:
        return prefix
    tail = [0] * (max_order - len(prefix))
    jobs = [(seed, max_order) for seed, _ in seeds]
    for res in _pool(lambda job: (_count_below(job),), jobs, workers):
        tail = [a + b for a, b in zip(tail, res)]
    return prefix + tail


def _enumerate_subtree(
    job: tuple[_Node, tuple[int, ...], int, bool],
) -> Iterator[tuple[int, ...]]:
    seed, prefix, order, prune = job
    return _leaves(seed, prefix, order, [0] * (2 * order + 1), [0] if prune else None)


def parallel_leaves(
    order: int, prune: bool = True, workers: int = 1
) -> Iterator[tuple[int, ...]]:
    """The values of every Skolem sequence of the given order, as plain
    tuples in canonical child order, with subtrees distributed across worker
    processes.  The walk builds only Skolem leaves (see the module
    docstring), so nothing here validates them.

    ``workers`` is capped as in ``parallel_count``, when the walk starts.
    The stream is identical for any worker count.  Each subtree runs in a
    forked worker (``_pool``), whose leaves reach the reader in batches of
    ``_FRAME`` as the subtree produces them, subtree by subtree in canonical
    seed order.  Closing the generator, or an error in it, kills the worker
    processes; subtrees not yet handed to them never start.  One worker
    walks in process.
    """
    workers = _worker_count(workers)
    _require_order(order)
    # An order too large to walk fails here, before the root's sums take a
    # step per length.
    visits = [0] * (2 * order + 1)
    cut = [0] if prune else None
    if workers > 1:
        prefix, seeds = _split(2 * order, workers, order, cut)
    if workers == 1 or len(prefix) == 2 * order:
        yield from _leaves(_root(order), (), order, visits, cut)
        return
    yield from _pool(_enumerate_subtree, [(seed, ent, order, prune) for seed, ent in seeds], workers)


def parallel_enumerate(
    order: int, prune: bool = True, workers: int = 1
) -> Iterator[SkolemSequence]:
    """enumerate_skolem with subtrees distributed across worker processes:
    ``parallel_leaves``, each leaf built as a validated ``SkolemSequence``.
    Closing this generator closes that stream, with its worker processes.
    """
    leaves = parallel_leaves(order, prune, workers)
    try:
        for vals in leaves:
            yield SkolemSequence(vals)
    finally:
        leaves.close()
