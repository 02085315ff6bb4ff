"""Steiner triple systems built from Skolem sequences."""

import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skolemgen import sts
from skolemgen.core import SkolemSequence
from skolemgen.engine import enumerate_skolem
from skolemgen.sts import (
    TripleSystem,
    base_blocks,
    develop_rows,
    develop_sts,
    format_triple_system,
    verify_sts,
    write_sts,
)

W4 = SkolemSequence((3, 4, 2, 3, 2, 4, 1, 1))


def test_base_blocks_of_known_order4_sequence():
    assert set(base_blocks(W4, 0)) == {(0, 3, 8), (0, 4, 10), (0, 2, 9), (0, 1, 12)}
    # emitted in first-occurrence order of the length
    assert base_blocks(W4, 0) == [(0, 3, 8), (0, 4, 10), (0, 2, 9), (0, 1, 12)]


def test_base_blocks_translate_with_x():
    assert base_blocks(W4, 1) == [(1, 4, 9), (1, 5, 11), (1, 3, 10), (1, 2, 13)]


def test_base_blocks_of_order1():
    assert base_blocks((1, 1), 0) == [(0, 1, 3)]


def _position_dict_base_blocks(w, x):
    """The reference for base_blocks: each length's second position kept in
    a dict, the lengths in a list in first-occurrence order."""
    n = w.order
    second, order_seen = {}, []
    for pos, k in enumerate(w.values, start=1):
        if k in second:
            second[k] = pos
        else:
            second[k] = 0
            order_seen.append(k)
    return [(x, x + k, x + second[k] + n) for k in order_seen]


@pytest.mark.parametrize("order", [1, 4, 5, 8, 9])
def test_base_blocks_are_the_position_dict_form_on_every_small_sequence(order):
    for w in enumerate_skolem(order):
        for x in (0, 1, 6 * order):
            assert base_blocks(w, x) == _position_dict_base_blocks(w, x)


def test_base_blocks_reject_bad_input():
    with pytest.raises(ValueError):
        base_blocks((1, 1, 2, 2), 0)
    with pytest.raises(ValueError):
        base_blocks(W4, 25)
    with pytest.raises(ValueError):
        base_blocks(W4, -1)


def test_develop_order4_gives_verified_sts25():
    ts = develop_sts(base_blocks(W4, 0), 4)
    assert ts.v == 25
    assert len(ts.blocks) == 100
    assert verify_sts(ts)


def test_fano_plane_from_order1():
    ts = develop_sts(base_blocks((1, 1), 0), 1)
    assert ts.v == 7
    assert len(ts.blocks) == 7
    assert verify_sts(ts)


def test_develop_degenerate_empty_base():
    ts = develop_sts([], 0)
    assert ts.v == 1
    assert ts.blocks == ()
    assert verify_sts(ts)  # 0 blocks required for 1 point


def test_develop_rejects_wrong_base_count():
    with pytest.raises(ValueError):
        develop_sts(base_blocks(W4, 0), 5)


def test_nonzero_x_still_develops_to_valid_system():
    ts = develop_sts(base_blocks(W4, 7), 4)
    assert verify_sts(ts)


@pytest.mark.parametrize("order", [1, 4, 5])
def test_every_small_skolem_sequence_yields_valid_sts(order):
    for w in enumerate_skolem(order):
        ts = develop_sts(base_blocks(w, 0), order)
        assert verify_sts(ts), f"construction failed for {w}"


def test_pair_count_ledger():
    ts = develop_sts(base_blocks(W4, 0), 4)
    assert 3 * len(ts.blocks) == ts.v * (ts.v - 1) // 2


def test_verify_rejects_damaged_systems():
    ts = develop_sts(base_blocks(W4, 0), 4)
    assert not verify_sts(TripleSystem(ts.v, ts.blocks[:-1]))  # block missing
    assert not verify_sts(TripleSystem(ts.v, ts.blocks[:-1] + (ts.blocks[0],)))  # dup
    assert not verify_sts(TripleSystem(ts.v, ts.blocks[:-1] + ((0, 0, 1),)))  # repeat point
    assert not verify_sts(TripleSystem(ts.v, ts.blocks[:-1] + ((0, 1, 99),)))  # out of range


def test_format_writes_the_header_and_one_line_per_block():
    ts = develop_sts(base_blocks(W4, 0), 4)
    text = format_triple_system(ts)
    assert text.splitlines()[0] == "v=25"
    assert text.count("\n") == len(ts.blocks) == 100


# ---------------------------------------------------------------------------
# develop / verify / format against the straightforward forms

def _reference_verify_sts(system):
    """Every pair counted in a Counter, then every pair of 0..v-1 looked up."""
    v = system.v
    if v < 1 or len(system.blocks) * 6 != v * (v - 1):
        return False
    cover = Counter()
    for b in system.blocks:
        if len(set(b)) != 3 or not all(0 <= p < v for p in b):
            return False
        for p, q in combinations(sorted(b), 2):
            cover[(p, q)] += 1
    return all(
        cover[(p, q)] == 1 for p, q in combinations(range(v), 2)
    ) and sum(cover.values()) == v * (v - 1) // 2


def _damage(blocks, v, kind, rng):
    blocks = list(blocks)
    i = rng.randrange(len(blocks))
    b = list(blocks[i])
    if kind == "move":
        b[rng.randrange(3)] = rng.randrange(v)
    elif kind == "duplicate":
        b = blocks[rng.randrange(len(blocks))]
    elif kind == "two points":
        b = b[:2]
    elif kind == "four points":
        b = b + [rng.randrange(v)]
    elif kind == "negative":
        b[rng.randrange(3)] = -rng.randrange(1, v + 1)
    elif kind == "too large":
        b[rng.randrange(3)] = v + rng.randrange(3)
    elif kind == "pair twice":
        # keep two points of another block, so that pair is covered twice
        other = blocks[(i + 1) % len(blocks)]
        third = rng.choice([p for p in range(v) if p not in other[:2]])
        b = [other[0], other[1], third]
    blocks[i] = tuple(b)
    return blocks


DAMAGE = ["move", "duplicate", "two points", "four points", "negative", "too large", "pair twice"]
ALWAYS_BROKEN = {"two points", "four points", "negative", "too large", "pair twice"}  # the others may undo themselves


@pytest.mark.parametrize("kind", DAMAGE)
def test_verify_matches_counter_reference_on_damaged_systems(kind):
    rng = random.Random(kind)
    systems = [develop_sts(base_blocks(w, x), w.order)
               for w in (SkolemSequence((1, 1)), W4, *list(enumerate_skolem(5))[:3]) for x in (0, 2)]
    for ts in systems:
        for _ in range(40):
            damaged = TripleSystem(ts.v, _damage(ts.blocks, ts.v, kind, rng))
            assert verify_sts(damaged) == _reference_verify_sts(damaged)
            if kind in ALWAYS_BROKEN:
                assert not verify_sts(damaged)


def test_verify_matches_counter_reference_on_valid_systems():
    for order in (1, 4, 5):
        for w in enumerate_skolem(order):
            ts = develop_sts(base_blocks(w, 0), order)
            assert verify_sts(ts) is _reference_verify_sts(ts) is True


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(*[st.integers(-60, 60)] * 3), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_develop_matches_the_translate_major_comprehension(case):
    n, base = case
    v = 6 * n + 1
    ts = develop_sts(base, n)
    assert ts.v == v
    assert ts.blocks == tuple(tuple((p + t) % v for p in b) for t in range(v) for b in base)


@st.composite
def _base_with_a_block_not_a_triple(draw):
    """(n, base, i): n blocks, triples before block i, block i of 0, 1, 2 or
    4 points, and blocks of any of those sizes after it."""
    point = st.integers(-60, 60)
    n = draw(st.integers(1, 4))
    i = draw(st.integers(0, n - 1))
    base = draw(st.lists(st.lists(point, min_size=3, max_size=3), min_size=i, max_size=i))
    base.append(draw(st.lists(point, max_size=4).filter(lambda b: len(b) != 3)))
    base += draw(st.lists(st.lists(point, max_size=4), min_size=n - i - 1, max_size=n - i - 1))
    return n, base, i


@given(_base_with_a_block_not_a_triple())
@example((2, [(0, 1, 3), ()], 1))
@example((1, [(5,)], 0))
@example((2, [(0, 1), (0, 1, 3)], 0))
@example((2, [(0, 1, 3), (0, 1, 3, 4)], 1))
@example((3, [(0, 1, 3), [2, 4], []], 1))
@settings(max_examples=300, deadline=None)
def test_a_base_block_not_a_triple_is_refused_alike_before_any_row(case):
    n, base, i = case
    message = f"expected base blocks of 3 points, got {tuple(base[i])}"
    chunks = []
    for develop in (develop_rows, develop_sts, lambda base, n: write_sts(base, n, chunks.append)):
        with pytest.raises(ValueError) as refused:
            develop(base, n)
        assert str(refused.value) == message
    assert chunks == []


def test_develop_rows_checks_the_base_when_called():
    with pytest.raises(ValueError):
        develop_rows([(0, 1, 3)], 2)
    with pytest.raises(TypeError):
        develop_rows([(0, 1, 3), (0, "x", 5)], 2)


def test_develop_takes_real_points_as_the_comprehension_did():
    base = [(0.0, 1.5, -0.5), (2, 7.25, -13.75)]
    v = 13
    expected = tuple(tuple(int((p + t) % v) for p in b) for t in range(v) for b in base)
    assert develop_sts(base, 2).blocks == expected


@given(st.lists(st.lists(st.integers(-20, 10**12), max_size=4), max_size=6))
@example([])  # empty system
@example([[]])  # one empty block
@example([[], []])  # two empty blocks
@example([[5]])  # one point
@example([[5, 0]])  # two points
@example([[1, 2, 3, 4]])  # four points
@example([[0, 1, 3], [], [6], [2, 4], [1, 2, 3, 4], []])  # mixed shapes
@example([[10**30, 7, 8], [-3, 0, 2]])  # wide and negative points
@settings(max_examples=300, deadline=None)
def test_format_matches_the_join_form_for_any_block_shape(blocks):
    ts = TripleSystem(7, blocks)
    expected = "\n".join([f"v={ts.v}"] + [" ".join(str(p) for p in b) for b in ts.blocks])
    assert format_triple_system(ts) == expected


def test_format_at_order_12_writes_the_header_and_one_line_per_block():
    w = next(iter(enumerate_skolem(12)))
    ts = develop_sts(base_blocks(w, 5), 12)
    text = format_triple_system(ts)
    assert text.splitlines()[0] == "v=73"
    assert text.count("\n") == len(ts.blocks) == 73 * 12


def test_triple_system_normalises_blocks_to_tuples_of_ints():
    ts = TripleSystem(7, [[0, 1, 3], (True, 2.0, 4), iter((5, 6, 1))])
    assert ts.blocks == ((0, 1, 3), (1, 2, 4), (5, 6, 1))
    assert all(type(b) is tuple and all(type(p) is int for p in b) for b in ts.blocks)
    assert type(TripleSystem(7, [(True, 2, 4)]).blocks[0][0]) is int


def test_write_sts_allocates_the_difference_array_before_its_first_write(monkeypatch):
    # its text and verdict are checked through `skolemgen sts` in test_cli.py;
    # what it allocates is the v-byte difference array, not a v*v cover
    sizes = []

    def out_of_memory(size):
        sizes.append(size)
        raise MemoryError()

    monkeypatch.setattr(sts, "bytearray", out_of_memory, raising=False)
    chunks = []
    with pytest.raises(MemoryError):
        write_sts(base_blocks(W4), 4, chunks.append)
    assert chunks == []
    assert sizes == [25]


@pytest.mark.parametrize("bad", [(0, 1), (), (0, 1, 3, 4)])
def test_write_sts_rejects_a_block_that_is_not_a_triple_before_writing(bad):
    chunks = []
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        write_sts([(0, 1, 3), bad], 2, chunks.append)
    assert chunks == []


@pytest.mark.parametrize("order", [1, 4, 5, 8, 9])
def test_the_difference_verdict_is_verify_sts_on_every_small_sequence(order):
    for w in enumerate_skolem(order):
        for x in (0, 1, 6 * order):
            base = base_blocks(w, x)
            # len as the writer takes each chunk and keeps none
            assert write_sts(base, order, len) is verify_sts(develop_sts(base, order)) is True


SMALL_SEQUENCES = [w for n in (1, 4, 5, 8) for w in enumerate_skolem(n)]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_the_difference_verdict_is_verify_sts_on_damaged_bases(data):
    w = data.draw(st.sampled_from(SMALL_SEQUENCES))
    n, v = w.order, 6 * w.order + 1
    base = [list(b) for b in base_blocks(w, data.draw(st.integers(0, 6 * n)))]
    i, p = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))
    kind = data.draw(st.sampled_from(["move", "repeat a point", "add v", "repeat a block"]))
    if kind == "move":
        base[i][p] += data.draw(st.integers(-3, 3))
    elif kind == "repeat a point":
        base[i][p] = base[i][p - 1]
    elif kind == "add v":
        base[i][p] += v
    else:
        base[i] = list(base[data.draw(st.integers(0, n - 1))])
    chunks = []
    system = develop_sts(base, n)
    assert write_sts(base, n, chunks.append) is verify_sts(system)
    head = "".join(f"base ({a},{b},{c})\n" for a, b, c in base)
    assert "".join(chunks) == head + format_triple_system(system) + "\n"
