"""Steiner triple systems built from Skolem sequences."""

import gc
import random
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolemgen.core import SkolemSequence
from skolemgen.engine import enumerate_skolem
from skolemgen.sts import (
    TripleSystem,
    base_blocks,
    develop_sts,
    format_triple_system,
    parse_triple_system,
    verify_sts,
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


def test_text_round_trip():
    ts = develop_sts(base_blocks(W4, 0), 4)
    text = format_triple_system(ts)
    assert text.splitlines()[0] == "v=25"
    assert parse_triple_system(text) == ts


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_triple_system("0 1 3")
    with pytest.raises(ValueError):
        parse_triple_system("v=7\n0 1")


@pytest.mark.parametrize("text", [
    "v=+7\n0 1 3",
    "v=\u0663\n0 1 3",
    "v=7\n\u0663 1 2",
    "v=7\n0 1 +2",
    "v=7\n1_0 1 2",
    "v=7\n0 -1 2",
    "v=+7\n\u0663 1 +2",
    "v=7\n1_0 -1 2",
])
def test_parse_accepts_ascii_digits_only(text):
    with pytest.raises(ValueError):
        parse_triple_system(text)


# ---------------------------------------------------------------------------
# the fast develop / verify / format against the straightforward forms

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


def test_develop_takes_real_points_as_the_comprehension_did():
    base = [(0.0, 1.5, -0.5), (2, 7.25, -13.75)]
    v = 13
    expected = tuple(tuple(int((p + t) % v) for p in b) for t in range(v) for b in base)
    assert develop_sts(base, 2).blocks == expected


def test_develop_with_an_empty_base_block_is_empty():
    assert develop_sts([(0, 1, 3), ()], 2).blocks == ()
    assert not verify_sts(develop_sts([(0, 1, 3), ()], 2))


@given(st.lists(st.lists(st.integers(-20, 10**12), max_size=4), max_size=6))
@settings(max_examples=300, deadline=None)
def test_format_matches_the_join_form_for_any_block_shape(blocks):
    ts = TripleSystem(7, blocks)
    expected = "\n".join([f"v={ts.v}"] + [" ".join(str(p) for p in b) for b in ts.blocks])
    assert format_triple_system(ts) == expected


def _per_block_format(system):
    """format_triple_system as it was: one "%d ... %d" % block call, and one
    string, per block."""
    lengths = list(map(len, system.blocks))
    formats = {k: " ".join(["%d"] * k) for k in set(lengths)}
    blocks = map(str.__mod__, map(formats.__getitem__, lengths), system.blocks)
    return "\n".join(chain((f"v={system.v}",), blocks))


@pytest.mark.parametrize("blocks", [
    (),
    ((),),
    ((), ()),
    ((5,),),
    ((5, 0),),
    ((1, 2, 3, 4),),
    ((0, 1, 3), (), (6,), (2, 4), (1, 2, 3, 4), ()),
    ((10**30, 7, 8), (-3, 0, 2)),
], ids=["empty system", "one empty block", "two empty blocks", "one point", "two points",
        "four points", "mixed shapes", "wide and negative points"])
def test_format_matches_the_per_block_reference(blocks):
    ts = TripleSystem(13, blocks)
    assert format_triple_system(ts) == _per_block_format(ts)


def test_text_round_trip_at_order_12():
    w = next(iter(enumerate_skolem(12)))
    ts = develop_sts(base_blocks(w, 5), 12)
    text = format_triple_system(ts)
    assert text.count("\n") == len(ts.blocks) == 73 * 12
    assert parse_triple_system(text) == ts


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
def test_develop_restores_the_callers_gc_setting(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(develop_sts(base_blocks(W4, 3), 4).blocks) == 100
        assert gc.isenabled() is enabled
        # a point that takes no "% v" fails inside the build
        with pytest.raises(TypeError):
            develop_sts([(0, 1, 3), (0, "x", 5)], 2)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_triple_system_normalises_blocks_to_tuples_of_ints():
    ts = TripleSystem(7, [[0, 1, 3], (True, 2.0, 4), iter((5, 6, 1))])
    assert ts.blocks == ((0, 1, 3), (1, 2, 4), (5, 6, 1))
    assert all(type(b) is tuple and all(type(p) is int for p in b) for b in ts.blocks)
    assert type(TripleSystem(7, [(True, 2, 4)]).blocks[0][0]) is int
