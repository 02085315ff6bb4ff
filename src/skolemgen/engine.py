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
one buffer.  The same walk counts levels, enumerates with or without
pruning, and runs the subtrees of worker processes; ``_iter_counts_levels``
and ``iter_level_states`` recount the tree by other means, as cross-checks.

Pruning against a target order N cuts subtrees that cannot reach a Skolem
leaf: length/parity bookkeeping, used lengths within 1..N, and a greedy
matching of open values into the unused lengths.  Each test is individually
sound, so pruned and unpruned enumeration emit the same sequences.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import OpenState, SkolemSequence, children

PROGRESS_INTERVAL = 10_000_000  # visited-node liveness signal, stderr

_Seed = tuple[int, int, int]  # a node (n, O, U) that a walk starts from
_ROOT: _Seed = (0, 0, 0)  # the empty sequence


class ResourceExhaustedError(RuntimeError):
    """Counting ran out of memory; carries the completed per-level counts."""

    def __init__(self, partial_counts: list[int]):
        super().__init__(
            f"out of memory after {len(partial_counts)} completed level(s)"
        )
        self.partial_counts = partial_counts


@dataclass
class EnumerationReport:
    """Outcome of one tree traversal towards a target order."""

    target_order: int
    per_level_counts: list[int] = field(default_factory=list)
    skolem_count: int = 0
    pruned_nodes: int = 0
    elapsed: float = 0.0  # seconds

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
        k unused lengths at or above it (the greedy largest-to-largest check).
    """
    rem = 2 * order - n - O.bit_count()
    if rem < 0 or rem & 1 or (O | U) >> (order + 1):
        return False
    free = ~U & _lengths(order)
    k = 0
    while O:
        j = O.bit_length() - 1
        O ^= 1 << j
        k += 1
        if (free >> j).bit_count() < k:
            return False
    return True


def _walk(
    ent: list[int],
    seed: _Seed,
    visits: list[int],
    goal: int | None = None,
    cut: list[int] | None = None,
) -> Iterator[tuple[int, int]]:
    """Depth-first walk from ``seed`` = (n, O, U) to length ``len(ent)``.

    Children are popped in canonical order: the opener, then the closers by
    increasing j.  ``visits[m]`` counts the nodes entered at length m.  With
    ``cut`` given, a node short of full length that fails ``_feasible``
    against order ``len(ent) // 2`` is counted in ``cut[0]`` and not
    expanded.  At full length the walk yields (O, U) for every node whose
    used mask contains ``goal``: 0 takes every node, None none.

    ``ent[:n]`` holds the seed's entries.  Closing ``*j`` writes both ends of
    its arc, so at each yield ``ent`` holds the node's closed entries; those
    at open positions are stale, and a Skolem leaf has none.
    """
    depth = len(ent)
    order = depth // 2
    beat = PROGRESS_INTERVAL
    t = 0
    stack = [(*seed, 0)]  # (n, O, U, j): j > 0 when the node closed *j
    pop, push = stack.pop, stack.append
    while stack:
        n, O, U, j = pop()
        if j:
            ent[n - 1] = ent[n - 1 - j] = j
        visits[n] += 1
        t += 1
        if t == beat:
            print(
                f"skolemgen: visited {t} nodes (currently at level {n} of {depth})",
                file=sys.stderr,
            )
            beat += PROGRESS_INTERVAL
        if n == depth:
            if goal is not None and U & goal == goal:
                yield O, U
            continue
        if cut is not None and not _feasible(n, O, U, order):
            cut[0] += 1
            continue
        n += 1
        # The stack pops last-pushed first: closers by decreasing j, then the opener.
        closable = O & ~U
        while closable:
            j = closable.bit_length() - 1
            b = 1 << j
            closable ^= b
            push((n, (O ^ b) << 1, U | b, j))
        push((n, (O << 1) | 2, U, 0))


def _split(
    limit: int, workers: int
) -> tuple[list[int], list[tuple[_Seed, tuple[int, ...]]]]:
    """Expand the tree to the first level holding at least 4x ``workers``
    nodes, or to level ``limit`` if none before it does.

    Returns the node counts of levels 1..that level and its nodes as (seed,
    entries) pairs in canonical order.  The subtrees below them share
    nothing, so results merged in seed order do not depend on the worker
    count or on scheduling.
    """
    counts: list[int] = []
    seeds = [(_ROOT, ())]
    while len(counts) < limit and len(seeds) < 4 * workers:
        depth = len(counts) + 1
        ent = [0] * depth
        visits = [0] * (depth + 1)
        seeds = [((depth, O, U), tuple(ent)) for O, U in _walk(ent, _ROOT, visits, goal=0)]
        counts = visits[1:]
    return counts, seeds


# ---------------------------------------------------------------------------
# counting

def _count_below(job: tuple[_Seed, int]) -> list[int]:
    """Node counts of levels n+1..max_order below one seed (n, O, U)."""
    seed, max_order = job
    visits = [0] * (max_order + 1)
    for _ in _walk([0] * max_order, seed, visits):
        pass
    return visits[seed[0] + 1 :]


def _iter_counts_dfs(max_order: int) -> Iterator[int]:
    """Level counts from one depth-first pass; all arrive when it ends."""
    yield from _count_below((_ROOT, max_order))


def _iter_counts_levels(max_order: int) -> Iterator[int]:
    """Level counts by a level-synchronised sweep over compressed states.

    Keeps one level of (open values, used lengths) keys with multiplicities.
    Cheap for small orders, but key counts still explode past level ~14;
    this mode exists to cross-check the depth-first counts.
    """
    level: dict[tuple[tuple[int, ...], frozenset[int]], int] = {
        ((), frozenset()): 1
    }
    for _ in range(max_order):
        nxt: dict[tuple[tuple[int, ...], frozenset[int]], int] = {}
        get = nxt.get
        for (stars, used), mult in level.items():
            key = ((1,) + tuple(k + 1 for k in stars), used)
            nxt[key] = get(key, 0) + mult
            for j in stars:
                if j not in used:
                    key = (tuple(k + 1 for k in stars if k != j), used | {j})
                    nxt[key] = get(key, 0) + mult
        level = nxt
        yield sum(level.values())


def iter_open_counts(max_order: int, *, method: str = "dfs") -> Iterator[int]:
    """Yield the number of open Skolem sequences of order 1..max_order."""
    _require_order(max_order)
    if method == "dfs":
        yield from _iter_counts_dfs(max_order)
    elif method == "levels":
        yield from _iter_counts_levels(max_order)
    else:
        raise ValueError(f"unknown counting method {method!r}")


def count_open_levels(max_order: int, *, method: str = "dfs") -> list[int]:
    """Exact count of open Skolem sequences per order, 1..max_order.

    On memory exhaustion raises ResourceExhaustedError carrying the counts of
    every level that did complete.
    """
    counts: list[int] = []
    try:
        for c in iter_open_counts(max_order, method=method):
            counts.append(c)
    except MemoryError as exc:
        raise ResourceExhaustedError(counts) from exc
    return counts


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
    seed: _Seed,
    prefix: tuple[int, ...],
    order: int,
    visits: list[int],
    cut: list[int] | None,
) -> Iterator[tuple[int, ...]]:
    """Values of every Skolem leaf below ``seed``, whose entries are
    ``prefix``, in canonical order; ``cut`` as for ``_walk``."""
    ent = list(prefix) + [0] * (2 * order - len(prefix))
    for _ in _walk(ent, seed, visits, _lengths(order), cut):
        yield tuple(ent)


def enumerate_skolem(order: int, prune: bool = True) -> Iterator[SkolemSequence]:
    """Stream every Skolem sequence of the given order exactly once, in
    canonical child order.  Pruning never changes the emitted set."""
    _require_order(order)
    cut = [0] if prune else None
    for vals in _leaves(_ROOT, (), order, [0] * (2 * order + 1), cut):
        yield SkolemSequence(vals)


def dfs_enumerate(
    target_order: int,
    prune: bool = True,
    sink: Callable[[SkolemSequence], None] | None = None,
) -> EnumerationReport:
    """Walk the tree to depth 2*target_order, deliver each Skolem leaf to
    ``sink``, and report visited/pruned node counts per level.

    Sink failures abort the traversal and propagate to the caller.
    """
    _require_order(target_order)
    visits = [0] * (2 * target_order + 1)
    cut = [0] if prune else None
    count = 0
    t0 = time.perf_counter()
    for vals in _leaves(_ROOT, (), target_order, visits, cut):
        seq = SkolemSequence(vals)
        count += 1
        if sink is not None:
            sink(seq)
    return EnumerationReport(
        target_order=target_order,
        per_level_counts=visits[1:],
        skolem_count=count,
        pruned_nodes=cut[0] if cut else 0,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# parallel traversal

def parallel_count(max_order: int, workers: int = 1) -> list[int]:
    """count_open_levels with the tree split across worker processes.

    The split sits at the first level holding at least 4x workers nodes;
    output is identical to the sequential count for any worker count.
    """
    _require_order(max_order)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return count_open_levels(max_order)

    prefix, seeds = _split(max_order, workers)
    if len(prefix) == max_order:
        return prefix
    tail = [0] * (max_order - len(prefix))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for res in pool.map(_count_below, [(seed, max_order) for seed, _ in seeds]):
            tail = [a + b for a, b in zip(tail, res)]
    return prefix + tail


def _enumerate_subtree(
    job: tuple[_Seed, tuple[int, ...], int, bool],
) -> list[tuple[int, ...]]:
    seed, prefix, order, prune = job
    cut = [0] if prune else None
    return list(_leaves(seed, prefix, order, [0] * (2 * order + 1), cut))


def parallel_enumerate(
    order: int, prune: bool = True, workers: int = 1
) -> Iterator[SkolemSequence]:
    """enumerate_skolem with subtrees distributed across worker processes.

    The emitted multiset is identical to the sequential walk; results are
    yielded subtree by subtree in canonical seed order.
    """
    _require_order(order)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        yield from enumerate_skolem(order, prune)
        return

    prefix, seeds = _split(2 * order, workers)
    if len(prefix) == 2 * order:
        yield from enumerate_skolem(order, prune)
        return

    jobs = [(seed, ent, order, prune) for seed, ent in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for leaves in pool.map(_enumerate_subtree, jobs):
            for vals in leaves:
                yield SkolemSequence(vals)
