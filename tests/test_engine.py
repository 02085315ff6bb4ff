"""Tree traversal: counting cross-checks, enumeration order, pruning
soundness, parallel determinism, and resource-failure plumbing."""

import multiprocessing
import sys
from collections import Counter

import pytest

from skolemgen import engine, oracle
from skolemgen.core import (
    EMPTY_STATE,
    OpenState,
    SkolemSequence,
    children,
    is_skolem_label,
    parent,
    parse_state,
    skolem_violation,
    state_from_sequence,
)
from skolemgen.engine import (
    EnumerationReport,
    count_open_levels,
    dfs_enumerate,
    enumerate_skolem,
    iter_level_states,
    parallel_count,
    parallel_enumerate,
    prune_feasible,
)
from skolemgen.oracle import oracle_enumerate

# open-sequence counts per order, frozen from this engine and cross-checked
# below against three independent traversals
OPEN_COUNTS_12 = [1, 2, 4, 8, 20, 52, 146, 430, 1306, 4176, 13832, 47452]


# ---------------------------------------------------------------------------
# counting

def test_dfs_counts_to_12():
    assert count_open_levels(12) == OPEN_COUNTS_12


def test_level_sweep_counts_agree_with_dfs():
    assert list(engine._iter_counts_levels(12)) == OPEN_COUNTS_12


def test_full_state_levels_agree_with_compressed_counts():
    sizes = [len(level) for level in iter_level_states(10)]
    assert sizes == OPEN_COUNTS_12[:10]


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_counts_with_closed_form_tail_match_full_states(workers, eight_cpus):
    # the split puts seeds one, two or three levels short of some of these
    # targets
    for m in range(1, 9):
        sizes = [len(level) for level in iter_level_states(m)]
        assert count_open_levels(m) == sizes
        assert parallel_count(m, workers) == sizes


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_counts_match_an_enumeration_walk_that_enters_every_level(k):
    assert count_open_levels(2 * k) == dfs_enumerate(k, prune=False).per_level_counts


def test_counting_walk_enters_no_node_of_the_last_three_levels(monkeypatch, capsys):
    # one heartbeat per node entered: the root and levels 1..5 of 8
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL", 1)
    count_open_levels(8)
    beats = capsys.readouterr().err.splitlines()
    assert len(beats) == 1 + sum(OPEN_COUNTS_12[:5]) == 36
    assert all("visited" in line for line in beats)


def _mask_children(O, U):
    """Children of a node as (O, U) masks, straight from the growth rules."""
    yield O << 1 | 2, U
    closable = O & ~U
    while closable:
        b = closable & -closable
        closable ^= b
        yield (O ^ b) << 1, U | b


def test_closed_form_tail_matches_a_mask_expansion():
    # every node of levels 0..8 against a brute-force expansion 1..4 levels
    # below it: a count seed one, two or three levels short, or walked
    level = [(0, 0)]
    for n in range(9):
        for node in level:
            below = [[node]]
            for _ in range(4):
                below.append([c for x in below[-1] for c in _mask_children(*x)])
            sizes = [len(nodes) for nodes in below[1:]]
            assert engine._two_below(*node) == (sizes[0], sizes[1])
            for d in range(1, 5):
                assert engine._count_below(((n, *node), n + d)) == sizes[:d]
        level = [c for x in level for c in _mask_children(*x)]
    assert len(level) == OPEN_COUNTS_12[8]


def test_counting_argument_errors():
    with pytest.raises(ValueError):
        count_open_levels(0)


def _out_of_memory(*args, **kwargs):
    raise MemoryError("synthetic")


def test_memory_failure_propagates(monkeypatch):
    # the walk's first heartbeat runs out of memory, mid-pass; no level is
    # complete before the one pass ends, so the error reaches the caller as is
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL", 100)
    monkeypatch.setattr(engine, "print", _out_of_memory, raising=False)
    with pytest.raises(MemoryError, match="^synthetic$"):
        count_open_levels(10)


# ---------------------------------------------------------------------------
# enumeration

def _reference_enumeration(order):
    """Leaf values via the plain object-level child expansion, no shortcuts."""
    acc = []

    def go(s):
        if s.order == 2 * order:
            if is_skolem_label(s):
                acc.append(s.values())
            return
        for c in children(s):
            go(c)

    go(EMPTY_STATE)
    return acc


@pytest.mark.parametrize("order", [1, 4, 5])
@pytest.mark.parametrize("prune", [False, True])
def test_enumeration_order_matches_object_level_walk(order, prune):
    got = [s.values for s in enumerate_skolem(order, prune=prune)]
    assert got == _reference_enumeration(order)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_enumeration_agrees_with_oracle(order):
    expected = {s.values for s in oracle_enumerate(order)}
    assert {s.values for s in enumerate_skolem(order, prune=True)} == expected
    assert {s.values for s in enumerate_skolem(order, prune=False)} == expected


def test_no_sequence_emitted_twice():
    for order in (4, 5):
        seen = set()
        for s in enumerate_skolem(order):
            assert s.values not in seen
            seen.add(s.values)


def test_order8_count_pruned():
    assert sum(1 for _ in enumerate_skolem(8)) == 504


@pytest.mark.parametrize("order", [2, 3, 6, 7, 10, 11])
def test_orders_2_3_mod_4_are_empty(order):
    # emptiness must come out of the search itself; the engine encodes no
    # existence theorem, so these are independent confirmations
    assert list(enumerate_skolem(order)) == []


def test_enumerate_rejects_bad_order():
    with pytest.raises(ValueError):
        list(enumerate_skolem(0))


def test_dfs_report_unpruned_order4():
    r = dfs_enumerate(4, prune=False)
    assert r.per_level_counts == [1, 2, 4, 8, 20, 52, 146, 430]
    assert r.skolem_count == 6
    assert r.pruned_nodes == 0
    assert r.skolem_count <= r.per_level_counts[-1]


def test_dfs_report_level10_visits():
    r = dfs_enumerate(5, prune=False)
    assert r.per_level_counts[9] == 4176
    text = r.summary()
    assert "4176" in text
    assert "3628800" in text  # 10!


def test_pruned_run_same_count_fewer_visits():
    full = dfs_enumerate(4, prune=False)
    cut = dfs_enumerate(4, prune=True)
    assert cut.skolem_count == full.skolem_count == 6
    assert cut.pruned_nodes > 0
    assert all(a <= b for a, b in zip(cut.per_level_counts, full.per_level_counts))


def test_progress_lines_reach_stderr(monkeypatch, capsys):
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL", 100)
    dfs_enumerate(4, prune=False)
    assert "visited" in capsys.readouterr().err


def test_pruned_walk_never_enters_a_node_it_cuts(monkeypatch, capsys):
    # one heartbeat per node entered, the root included: every node in the
    # figures was entered, cut at its parent or merged, and only one of them
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL", 1)
    for order in range(1, 10):
        r = dfs_enumerate(order)
        beats = capsys.readouterr().err.splitlines()
        entered = 1 + sum(r.per_level_counts) - r.pruned_nodes - r.merged_nodes
        assert len(beats) == entered, order
        assert r.merged_nodes or order < 4


# ---------------------------------------------------------------------------
# pruning

def test_prune_room_and_parity():
    s = parse_state("*7,4,1,1,*3,4,*1")  # order 7, three open arcs
    assert not prune_feasible(s, 4)  # 8 - 7 - 3 < 0
    assert prune_feasible(s, 8)


def test_prune_star_too_large():
    s = parse_state("*5,2,*3,2,*1")  # a prefix of 5,2,4,2,3,5,4,3,1,1
    assert not prune_feasible(s, 4)  # *5 cannot close at length <= 4
    assert prune_feasible(s, 5)
    assert _has_skolem_descendant(s, 5)


def test_prune_root_always_feasible():
    for n in (1, 2, 3, 4, 8):
        assert prune_feasible(EMPTY_STATE, n)


def test_prune_used_length_above_target():
    s = parse_state("5,*5,1,1,*2,5")  # used = {1, 5}
    assert s.used == frozenset({1, 5})
    assert not prune_feasible(s, 4)


def test_prune_greedy_matching_catches_collision():
    # two open arcs whose closures both need length 2: *2 and *1 with 1 used
    s = parse_state("*2,*1")
    assert prune_feasible(s, 4)
    assert _has_skolem_descendant(s, 4)
    t = parse_state("1,1,*2,*1")  # a prefix of 1,1,4,2,3,2,4,3
    # *2 and *1 can close at lengths 2,3,4 but not both at distinct unused
    # lengths <= 2 once length 1 is gone
    assert not prune_feasible(t, 2)
    assert prune_feasible(t, 4)
    assert _has_skolem_descendant(t, 4)


def _ancestors(values):
    s = state_from_sequence(values)
    chain = [s]
    while s.order:
        s = parent(s)
        chain.append(s)
    return chain


def test_prune_keeps_every_ancestor_of_a_real_sequence(monkeypatch):
    # the placement oracle takes order 8 in milliseconds
    monkeypatch.setattr(oracle, "ORACLE_ORDER_LIMIT", 8)
    targets = {order: oracle_enumerate(order) for order in (4, 5, 8)}
    assert len(targets[8]) == 504
    for order, seqs in targets.items():
        for w in seqs:
            for s in _ancestors(w.values):
                assert prune_feasible(s, order)


def _has_skolem_descendant(s, order):
    if s.order == 2 * order:
        return is_skolem_label(s)
    return any(_has_skolem_descendant(c, order) for c in children(s))


def test_prune_rejections_are_sound_for_order4():
    level = [EMPTY_STATE]
    rejected = 0
    for _ in range(8):
        level = [c for s in level for c in children(s)]
        for s in level:
            if not prune_feasible(s, 4):
                rejected += 1
                assert not _has_skolem_descendant(s, 4)
    assert rejected > 0


def test_prune_position_sums_cut_an_unused_length_too_long_for_a_new_arc():
    # "3,1,1,3" at order 4: four positions remain, so a new arc spans at most
    # 3 and the unused length 4 has no arc to take it.  No arc is open and
    # m = 2 arcs start after position 4 with lengths {2, 4}: P = 26, F = 6,
    # so T = 20 < 2 * (2*4 + 2 + 1) = 22, check (a); and 2 lo = 12 exceeds
    # 2mL - m(m-1) - T = 30 - 20 = 10, check (b)
    s = parse_state("3,1,1,3")  # a prefix of 3,1,1,3,8,5,7,2,6,2,5,4,8,7,6,4
    assert engine._position_sums(4, 0, 0b1010, 4) == (20, 0b10100, 6)
    assert engine._sum_bounds(4, 0, 8) == (22, 30, 52)
    assert 20 < 22 and 2 * 6 > 30 - 20
    assert not prune_feasible(s, 4)
    assert prune_feasible(s, 8)
    assert _has_skolem_descendant(s, 8)
    # "1,1,2,*2,2" at order 4: three positions remain, and the unused lengths
    # 3 and 4 would need two open arcs.  *2 starts at position 4 and m = 1
    # arc is still to open: P = 21, S = 4, F = 7, so T = 10 < 1 * (2*5 + 1 + 1)
    # = 12 fails check (a) alone; (b) reads 2 * 3 <= 16 - 10 and (c)
    # 2 * 3 <= 30 - 20
    t = parse_state("1,1,2,*2,2")
    assert engine._position_sums(5, 0b100, 0b110, 4) == (10, 0b1000, 3)
    assert engine._sum_bounds(5, 1, 8) == (12, 16, 30)
    assert 10 < 12 and 2 * 3 <= min(16 - 10, 30 - 2 * 10)
    assert not prune_feasible(t, 4)


def _unpruned_nodes_short_of_full_length(order):
    """Every distinct node (n, O, U) the unpruned walk enters below 2*order."""
    nodes = set()
    for n in range(2 * order):
        walk = engine._walk([0] * n, engine._ROOT, [0] * (n + 1), goal=0)
        nodes.update((n, O, U) for O, U in walk)
    return nodes


@pytest.mark.parametrize("order", range(1, 8))
def test_every_node_the_prune_rejects_has_no_skolem_leaf_below(order):
    depth = 2 * order
    rejected = [
        node for node in _unpruned_nodes_short_of_full_length(order)
        if not engine._feasible(*node, order)
    ]
    for node in rejected:
        below = engine._walk([0] * depth, node, [0] * (depth + 1), engine._lengths(order))
        assert next(below, None) is None, node
    assert rejected or order == 1


def test_prune_position_sums_cut_what_the_other_tests_keep():
    # "3,1,1,3" at order 5: no open arc, unused lengths {2, 4, 5}, so m = 3
    # arcs start after position 4; P = 5 + ... + 10 = 45 and F = 11 give
    # T = 34 = twice their start sum, below 3 * (2*4 + 3 + 1) = 36: check (a)
    s = parse_state("3,1,1,3")
    assert engine._position_sums(4, 0, 0b1010, 5) == (34, 0b110100, 11)
    assert 34 < 3 * (2 * 4 + 3 + 1)
    assert not prune_feasible(s, 5)
    assert not _has_skolem_descendant(s, 5)
    # "*5,*4,*3,*2,*1" at order 5: the arcs open at positions 1..5 must close
    # at 6..10, so m = 0; P = 40, S = 15, F = 15 and T = 10, and check (c)
    # needs 2 * 0 <= 2(P - T) - p(2n + p + 1) = 60 - 80
    t = parse_state("*5,*4,*3,*2,*1")
    assert engine._position_sums(5, 0b111110, 0, 5) == (10, 0, 0)
    assert 2 * (40 - 10) - 5 * (2 * 5 + 5 + 1) < 0
    assert not prune_feasible(t, 5)
    assert not _has_skolem_descendant(t, 5)


def test_prune_rejects_bad_target():
    with pytest.raises(ValueError):
        prune_feasible(EMPTY_STATE, 0)


# ---------------------------------------------------------------------------
# parallel traversal

@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_count_matches_sequential(workers, eight_cpus):
    assert parallel_count(12, workers) == OPEN_COUNTS_12


def test_parallel_count_small_order_short_circuits(eight_cpus):
    # tree never reaches the split threshold; prefix path must still be exact
    assert parallel_count(3, 8) == [1, 2, 4]


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_enumeration_preserves_canonical_order(workers, eight_cpus):
    sequential = [s.values for s in enumerate_skolem(5)]
    parallel = [s.values for s in parallel_enumerate(5, True, workers)]
    assert parallel == sequential


def test_parallel_enumeration_unpruned():
    assert {s.values for s in parallel_enumerate(4, False, 2)} == {
        s.values for s in oracle_enumerate(4)
    }


_JOB_LOG = None  # a file each subtree job appends a line to


def _logged_subtree(job, _run=engine._enumerate_subtree):
    with open(_JOB_LOG, "a") as fh:
        fh.write("job\n")
    return _run(job)


def test_closing_parallel_enumeration_drops_unstarted_subtrees(
    monkeypatch, tmp_path, eight_cpus
):
    # forked workers inherit both patches
    monkeypatch.setattr(sys.modules[__name__], "_JOB_LOG", tmp_path / "jobs")
    monkeypatch.setattr(engine, "_enumerate_subtree", _logged_subtree)
    workers = 3
    seeds = len(engine._split(16, workers)[1])
    stream = parallel_enumerate(8, True, workers)
    assert next(stream).values == next(enumerate_skolem(8)).values
    stream.close()
    ran = len((tmp_path / "jobs").read_text().splitlines())
    # 4x workers subtrees submitted up front, and one more once the first is read
    assert 1 <= ran <= 4 * workers + 1 < seeds


def test_parallel_runs_leave_no_worker_process():
    assert parallel_count(12, 2) == OPEN_COUNTS_12
    assert multiprocessing.active_children() == []
    stream = parallel_enumerate(8, True, 2)
    next(stream)
    stream.close()
    assert multiprocessing.active_children() == []


def test_parallel_argument_errors():
    with pytest.raises(ValueError):
        parallel_count(5, 0)
    with pytest.raises(ValueError):
        list(parallel_enumerate(5, True, 0))


# ---------------------------------------------------------------------------
# report type

def test_report_summary_shape():
    r = EnumerationReport(target_order=2, per_level_counts=[1, 2, 4, 8], skolem_count=0)
    text = r.summary()
    assert "target order 2" in text
    assert "4! = 24" in text
    assert "merged nodes: 0" in text


# ---------------------------------------------------------------------------
# frozen search figures: the pruned walk visits and cuts exactly these nodes.
# The *_BEFORE lists are the figures from before the position-sum test in
# ``_feasible``, and the *_WITH_FORCED_LENGTH lists those with both it and
# the forced-length test, which the position sums made redundant; a sound
# extra cut may only lower a level's visits, and dropping one only raise it.
# The tree's own figures are those with merging off (``MERGE_DEPTH`` 0); the
# *_MERGED lists are those of the default walk, which settles a node equal to
# one it expanded before by replaying its live children.


@pytest.fixture
def merging_off(monkeypatch):
    monkeypatch.setattr(engine, "MERGE_DEPTH", 0)


ORDER8_VISITS_BEFORE = [
    1, 2, 4, 8, 20, 52, 146, 430, 1277, 1856, 2734, 3301, 3344, 1972, 956, 1008,
]
ORDER8_VISITS_WITH_FORCED_LENGTH = [
    1, 2, 4, 8, 20, 52, 134, 314, 682, 1008, 1318, 1506, 1272, 1004, 956, 1008,
]
ORDER8_VISITS = [
    1, 2, 4, 8, 20, 52, 134, 314, 682, 1018, 1362, 1576, 1417, 1247, 956, 1008,
]
ORDER9_VISITS_BEFORE = [
    1, 2, 4, 8, 20, 52, 146, 430, 1306, 4176,
    7045, 10787, 14783, 17901, 16628, 9770, 5012, 5312,
]
ORDER9_VISITS_WITH_FORCED_LENGTH = [
    1, 2, 4, 8, 20, 52, 144, 410, 1039, 2260,
    3810, 5496, 7122, 7702, 6557, 5358, 5012, 5312,
]
ORDER9_VISITS = [
    1, 2, 4, 8, 20, 52, 144, 410, 1039, 2260,
    3810, 5540, 7480, 8353, 7539, 6453, 5012, 5312,
]
ORDER8_VISITS_MERGED = [
    1, 2, 4, 8, 20, 52, 134, 314, 669, 965, 1213, 1309, 976, 748, 546, 512,
]
ORDER9_VISITS_MERGED = [
    1, 2, 4, 8, 20, 52, 144, 410, 1039, 2260,
    3541, 4892, 5836, 5348, 4010, 3112, 2712, 2665,
]


def test_pruned_walk_figures_order8(merging_off):
    r = dfs_enumerate(8)
    assert r.per_level_counts == ORDER8_VISITS
    assert all(a <= b for a, b in zip(ORDER8_VISITS, ORDER8_VISITS_BEFORE, strict=True))
    assert all(
        a >= b for a, b in zip(ORDER8_VISITS, ORDER8_VISITS_WITH_FORCED_LENGTH, strict=True)
    )
    # 9289 with forced lengths; 17111 before the position sums
    assert sum(r.per_level_counts) == 9801
    # 504 of the cuts are openers at full length, each the sibling of a leaf
    assert r.pruned_nodes == 4962  # 4161 + 504 with forced lengths; 9398 + 504 before
    assert r.merged_nodes == 0
    assert r.skolem_count == 504


def test_pruned_walk_figures_order9(merging_off):
    r = dfs_enumerate(9)
    assert r.per_level_counts == ORDER9_VISITS
    assert all(a <= b for a, b in zip(ORDER9_VISITS, ORDER9_VISITS_BEFORE, strict=True))
    assert all(
        a >= b for a, b in zip(ORDER9_VISITS, ORDER9_VISITS_WITH_FORCED_LENGTH, strict=True)
    )
    # 50309 with forced lengths; 93383 before the position sums
    assert sum(r.per_level_counts) == 53439
    # 2656 of the cuts are openers at full length, each the sibling of a leaf
    assert r.pruned_nodes == 27437  # 22920 + 2656 with forced lengths; 51659 + 2656 before
    assert r.merged_nodes == 0
    assert r.skolem_count == 2656


def _pruned_sweep(order, start):
    """Per-level visits below ``start``, cut count and Skolem leaf values of
    the pruned walk from ``start`` with merging off, by a level sweep over
    ``core.children`` that tests every node short of full length with
    ``prune_feasible`` and counts a full-length node with an open arc as cut;
    it shares no code with ``engine._walk``."""
    level, visits, cut = [start], [], 0
    for _ in range(2 * order - start.order):
        kept = [s for s in level if prune_feasible(s, order)]
        cut += len(level) - len(kept)
        level = [c for s in kept for c in children(s)]
        visits.append(len(level))
    cut += sum(1 for s in level if s.open_values())
    return visits, cut, [s.values() for s in level if is_skolem_label(s)]


def _swept_pruned_figures(order):
    visits, cut, leaves = _pruned_sweep(order, EMPTY_STATE)
    return visits, cut, len(leaves)


@pytest.mark.parametrize("order", range(1, 9))
def test_pruned_walk_figures_match_a_level_sweep(order, merging_off):
    # the walk decides some children at their parent and only counts them;
    # the sweep builds and tests every one
    r = dfs_enumerate(order)
    assert _swept_pruned_figures(order) == (r.per_level_counts, r.pruned_nodes, r.skolem_count)


@pytest.mark.parametrize("order", [5, 6, 7])
def test_pruned_walk_from_any_seed_matches_a_level_sweep(order, merging_off):
    # a seed may come from an unpruned walk, as a ``_split`` node does, so
    # the walk must cut it by every test, not only by those its parent decides
    depth = 2 * order
    for level in iter_level_states(6):
        for s in level:
            n = s.order
            seed = (n, sum(1 << v for v in s.open_values()), sum(1 << v for v in s.used))
            visits, cut = [0] * (depth + 1), [0]
            leaves = list(engine._leaves(seed, s.values(), order, visits, cut))
            assert visits[:n + 1] == [0] * n + [1]
            assert (visits[n + 1:], cut[0], leaves) == _pruned_sweep(order, s), str(s)


def _node(s):
    """The compressed node of a state: what the walk keeps of it."""
    return s.order, tuple(s.open_values()), s.used


def _lives(s, order, seen):
    """Whether a Skolem sequence of ``order`` extends ``s``; ``seen`` caches the
    answer per compressed node, on which it depends alone."""
    key = _node(s)
    if key not in seen:
        if s.order == 2 * order:
            seen[key] = is_skolem_label(s)
        else:
            seen[key] = prune_feasible(s, order) and any(
                [_lives(c, order, seen) for c in children(s)]
            )
    return seen[key]


def _merged_sweep(order, start):
    """Per-level visits below ``start``, cuts, merges and the number of Skolem
    leaves of the pruned walk from ``start`` with merging on, by a level
    sweep that keeps one copy of each compressed node with its multiplicity;
    it shares no code with ``engine._walk``.

    Within ``MERGE_DEPTH`` positions of the end, the first copy of a feasible
    node is expanded and every later copy is merged: it replays only the
    children that a Skolem leaf extends.  A node cut at its parent came from
    an expanded copy, because a merged one replays no such child.
    """
    depth = 2 * order
    level, some = Counter({_node(start): 1}), {_node(start): start}
    visits, cut, merged, seen = [], 0, 0, {}
    for n in range(start.order, depth):
        below = Counter()
        for key, copies in level.items():
            s = some[key]
            if not prune_feasible(s, order):
                cut += copies
                continue
            expanded = copies if depth - n > engine.MERGE_DEPTH else 1
            merged += copies - expanded
            for c in children(s):
                some.setdefault(_node(c), c)
                below[_node(c)] += expanded + (copies - expanded) * _lives(c, order, seen)
        level = below
        visits.append(sum(level.values()))
    cut += sum(copies for key, copies in level.items() if key[1])
    leaves = sum(copies for key, copies in level.items() if is_skolem_label(some[key]))
    return visits, cut, merged, leaves


@pytest.mark.parametrize("order", range(1, 9))
def test_merged_walk_figures_match_a_counter_sweep(order):
    r = dfs_enumerate(order)
    got = (r.per_level_counts, r.pruned_nodes, r.merged_nodes, r.skolem_count)
    assert got == _merged_sweep(order, EMPTY_STATE)


@pytest.mark.parametrize("order", [5, 6, 7])
def test_merged_walk_from_any_seed_matches_a_counter_sweep(order):
    depth = 2 * order
    for level in iter_level_states(6):
        for s in level:
            n = s.order
            seed = (n, sum(1 << v for v in s.open_values()), sum(1 << v for v in s.used))
            visits, cut, merged = [0] * (depth + 1), [0], [0]
            leaves = list(engine._leaves(seed, s.values(), order, visits, cut, merged))
            assert visits[:n + 1] == [0] * n + [1]
            got = (visits[n + 1:], cut[0], merged[0], len(leaves))
            assert got == _merged_sweep(order, s), str(s)
            assert leaves == _pruned_sweep(order, s)[2], str(s)


@pytest.mark.parametrize("cap", [0, 1, 64])
def test_merged_walk_leaves_match_at_tiny_caps(monkeypatch, cap):
    # a full record keeps its entries and records nothing more, so a node it
    # replays has every live child recorded or at full length
    orders = range(1, 11)
    monkeypatch.setattr(engine, "MERGE_DEPTH", 0)
    tree = [[s.values for s in enumerate_skolem(order)] for order in orders]
    monkeypatch.setattr(engine, "MERGE_DEPTH", 8)
    monkeypatch.setattr(engine, "MERGE_CAP", cap)
    assert [[s.values for s in enumerate_skolem(order)] for order in orders] == tree
    assert sum(map(len, tree)) == 1 + 6 + 10 + 504 + 2656


ORDER10_VISITS_BEFORE = [
    1, 2, 4, 8, 20, 52, 146, 430, 1306, 4176,
    13687, 24410, 42085, 64779, 89419, 104370, 90515, 58394, 27578, 0,
]
ORDER10_VISITS_WITH_FORCED_LENGTH = [
    1, 2, 4, 8, 20, 52, 146, 430, 1231, 3172,
    7344, 12735, 19461, 26367, 29936, 23004, 8838, 1528, 0, 0,
]
ORDER10_VISITS = [
    1, 2, 4, 8, 20, 52, 146, 430, 1231, 3172,
    7344, 12798, 19783, 26929, 31360, 25753, 9826, 1528, 0, 0,
]
ORDER10_VISITS_MERGED = [
    1, 2, 4, 8, 20, 52, 146, 430, 1231, 3172,
    7344, 12798, 15114, 16672, 14015, 4947, 434, 10, 0, 0,
]


def test_pruned_walk_figures_order10(merging_off):
    r = dfs_enumerate(10)
    assert r.per_level_counts == ORDER10_VISITS
    assert all(a <= b for a, b in zip(ORDER10_VISITS, ORDER10_VISITS_BEFORE, strict=True))
    assert all(
        a >= b for a, b in zip(ORDER10_VISITS, ORDER10_VISITS_WITH_FORCED_LENGTH, strict=True)
    )
    # 134279 with forced lengths; 521382 before the position sums
    assert sum(r.per_level_counts) == 140387
    assert r.pruned_nodes == 83728  # 80188 with forced lengths; 326423 before
    assert r.merged_nodes == 0
    assert r.skolem_count == 0



@pytest.mark.parametrize(
    "order, merged_visits, tree_visits, cut, merged, leaves",
    [
        (8, ORDER8_VISITS_MERGED, ORDER8_VISITS, 2803, 1927, 504),
        (9, ORDER9_VISITS_MERGED, ORDER9_VISITS, 11592, 12980, 2656),
        (10, ORDER10_VISITS_MERGED, ORDER10_VISITS, 39597, 10082, 0),
    ],
)
def test_merged_walk_figures(order, merged_visits, tree_visits, cut, merged, leaves):
    # visits 7473, 36056 and 76400, against 9801, 53439 and 140387 unmerged
    r = dfs_enumerate(order)
    assert r.per_level_counts == merged_visits
    assert all(a <= b for a, b in zip(merged_visits, tree_visits, strict=True))
    assert (r.pruned_nodes, r.merged_nodes, r.skolem_count) == (cut, merged, leaves)


# Up to a leaf, ``visits`` also holds the children a parent cut after the
# leaf in canonical order, so only the entered nodes shrink level by level;
# levels 25 and 26 each count one node more than before.
ORDER17_FIRST_LEAF_VISITS_BEFORE = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 15, 164, 1619, 14240, 112824,
    821836, 596651, 131672, 6034, 2, 1, 1, 1, 1, 1, 2, 8, 22, 39, 8, 2, 2,
]
ORDER17_FIRST_LEAF_VISITS = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 6, 5, 4, 4,
    5, 3, 2, 6, 2, 1, 1, 2, 2, 1, 2, 3, 2, 4, 2, 2, 2,
]


def _walk_too_long(*args, **kwargs):
    raise AssertionError("the walk entered too many nodes")


def test_pruned_walk_figures_up_to_the_first_order17_leaf(monkeypatch, merging_off):
    # The walk enters fewer than 100 nodes before this leaf; a walk that
    # cuts a path to it would run on for hours, so its heartbeat stops it.
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL", 1_000)
    monkeypatch.setattr(engine, "print", _walk_too_long, raising=False)
    visits, cut = [0] * 35, [0]
    first = next(engine._leaves(engine._ROOT, (), 17, visits, cut))
    assert first == (
        17, 15, 16, 11, 9, 10, 14, 12, 13, 3, 1, 1, 3, 9, 11, 10, 15,
        17, 16, 12, 14, 13, 8, 5, 7, 2, 6, 2, 5, 4, 8, 7, 6, 4,
    )
    assert visits[1:] == ORDER17_FIRST_LEAF_VISITS
    assert sum(visits[1:]) == 76 < sum(ORDER17_FIRST_LEAF_VISITS_BEFORE) == 1685158
    assert cut[0] == 40  # 1426444 + 1 before; one is the leaf's sibling opener


ORDER20_FIRST_LEAF = (
    20, 18, 19, 15, 12, 10, 11, 16, 17, 13, 14, 3, 1, 1, 3, 10, 12, 11, 15, 18,
    20, 19, 13, 16, 14, 17, 9, 6, 4, 5, 7, 8, 4, 6, 5, 9, 2, 7, 2, 8,
)
ORDER21_FIRST_LEAF = (
    21, 19, 20, 16, 14, 11, 9, 10, 18, 15, 17, 12, 13, 1, 1, 9, 11, 10, 14, 16, 19,
    21, 20, 12, 15, 13, 18, 17, 6, 8, 5, 2, 7, 2, 6, 5, 4, 8, 3, 7, 4, 3,
)


def test_first_leaf_of_every_admissible_order_16_to_49(monkeypatch):
    # the orders 20 and 21 leaves are frozen from the walk before the
    # position-sum test; none of these walks enters 100,000 nodes
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL", 100_000)
    monkeypatch.setattr(engine, "print", _walk_too_long, raising=False)
    first = {}
    for order in range(16, 50):
        if order % 4 in (0, 1):
            first[order] = next(enumerate_skolem(order)).values
            assert skolem_violation(first[order]) is None
            assert len(first[order]) == 2 * order
    assert first[20] == ORDER20_FIRST_LEAF
    assert first[21] == ORDER21_FIRST_LEAF


def test_parallel_enumeration_order8_in_canonical_order():
    sequential = [s.values for s in enumerate_skolem(8)]
    assert [s.values for s in parallel_enumerate(8, True, 2)] == sequential
