"""Tree traversal: counting cross-checks, enumeration order, pruning
soundness, parallel determinism, and resource-failure plumbing."""

import pytest

from skolemgen import engine
from skolemgen.core import (
    EMPTY_STATE,
    OpenState,
    SkolemSequence,
    children,
    is_skolem_label,
    parent,
    parse_state,
    state_from_sequence,
)
from skolemgen.engine import (
    EnumerationReport,
    ResourceExhaustedError,
    count_open_levels,
    dfs_enumerate,
    enumerate_skolem,
    iter_level_states,
    iter_open_counts,
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
    assert count_open_levels(12, method="levels") == OPEN_COUNTS_12


def test_full_state_levels_agree_with_compressed_counts():
    sizes = [len(level) for level in iter_level_states(10)]
    assert sizes == OPEN_COUNTS_12[:10]


def test_streaming_counts_prefix():
    stream = iter_open_counts(6)
    assert [next(stream) for _ in range(3)] == [1, 2, 4]


def test_counting_argument_errors():
    with pytest.raises(ValueError):
        count_open_levels(0)
    with pytest.raises(ValueError):
        count_open_levels(4, method="bogus")


def test_memory_failure_reports_partial_counts(monkeypatch):
    def exploding(max_order):
        yield 1
        yield 2
        raise MemoryError("synthetic")

    monkeypatch.setattr(engine, "_iter_counts_dfs", exploding)
    with pytest.raises(ResourceExhaustedError) as info:
        count_open_levels(9)
    assert info.value.partial_counts == [1, 2]


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


def test_sink_sees_every_sequence_and_failures_propagate():
    got = []
    r = dfs_enumerate(4, prune=True, sink=got.append)
    assert [s.values for s in got] == _reference_enumeration(4)
    assert r.skolem_count == len(got)

    class Boom(RuntimeError):
        pass

    def bad_sink(seq):
        raise Boom

    with pytest.raises(Boom):
        dfs_enumerate(4, sink=bad_sink)


def test_progress_lines_reach_stderr(monkeypatch, capsys):
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL", 100)
    dfs_enumerate(4, prune=False)
    assert "visited" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pruning

def test_prune_room_and_parity():
    s = parse_state("*7,4,1,1,*3,4,*1")  # order 7, three open arcs
    assert not prune_feasible(s, 4)  # 8 - 7 - 3 < 0
    assert prune_feasible(s, 8)


def test_prune_star_too_large():
    s = parse_state("*5,*4,*3,*2,*1")
    assert not prune_feasible(s, 4)  # *5 cannot close at length <= 4
    assert prune_feasible(s, 5)


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
    assert prune_feasible(s, 2)
    t = parse_state("1,1,*2,*1")
    # *2 and *1 can close at lengths 2,3,4 but not both at distinct unused
    # lengths <= 2 once length 1 is gone
    assert not prune_feasible(t, 2)
    assert prune_feasible(t, 3)


def _ancestors(values):
    s = state_from_sequence(values)
    chain = [s]
    while s.order:
        s = parent(s)
        chain.append(s)
    return chain


def test_prune_keeps_every_ancestor_of_a_real_sequence():
    targets = {4: oracle_enumerate(4), 5: oracle_enumerate(5)}
    targets[8] = list(enumerate_skolem(8))[:3]
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


def test_prune_rejects_bad_target():
    with pytest.raises(ValueError):
        prune_feasible(EMPTY_STATE, 0)


# ---------------------------------------------------------------------------
# parallel traversal

@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_count_matches_sequential(workers):
    assert parallel_count(12, workers) == OPEN_COUNTS_12


def test_parallel_count_small_order_short_circuits():
    # tree never reaches the split threshold; prefix path must still be exact
    assert parallel_count(3, 8) == [1, 2, 4]


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_enumeration_preserves_canonical_order(workers):
    sequential = [s.values for s in enumerate_skolem(5)]
    parallel = [s.values for s in parallel_enumerate(5, True, workers)]
    assert parallel == sequential


def test_parallel_enumeration_unpruned():
    assert {s.values for s in parallel_enumerate(4, False, 2)} == {
        s.values for s in oracle_enumerate(4)
    }


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


# ---------------------------------------------------------------------------
# frozen search figures: the pruned walk visits and cuts exactly these nodes

ORDER9_VISITS = [
    1, 2, 4, 8, 20, 52, 146, 430, 1306, 4176,
    7190, 12139, 19087, 27284, 34986, 35136, 24274, 11740,
]


def test_pruned_walk_figures_order8():
    r = dfs_enumerate(8)
    assert sum(r.per_level_counts) == 29752
    assert r.pruned_nodes == 12182
    assert r.skolem_count == 504


def test_pruned_walk_figures_order9():
    r = dfs_enumerate(9)
    assert r.per_level_counts == ORDER9_VISITS
    assert sum(r.per_level_counts) == 177981
    assert r.pruned_nodes == 73360
    assert r.skolem_count == 2656


def test_parallel_enumeration_order8_in_canonical_order():
    sequential = [s.values for s in enumerate_skolem(8)]
    assert [s.values for s in parallel_enumerate(8, True, 2)] == sequential
