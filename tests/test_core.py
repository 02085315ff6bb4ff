"""Domain types, growth rules, recognizers, and the text grammar."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolemgen import core
from skolemgen.core import (
    EMPTY_STATE,
    Entry,
    InvalidSequenceError,
    OpenState,
    SkolemSequence,
    add_closers,
    add_opener,
    children,
    is_skolem_label,
    parent,
    parse_entries,
    parse_state,
    reverse,
    skolem_violation,
    state_from_sequence,
    validate_skolem,
)
from skolemgen.engine import enumerate_skolem
from skolemgen.oracle import oracle_validate


def states(*texts):
    return [parse_state(t) for t in texts]


# ---------------------------------------------------------------------------
# growth rules against the known start of the tree

def test_root_has_single_opener_child():
    assert children(EMPTY_STATE) == states("*1")


def test_children_of_star1():
    assert children(parse_state("*1")) == states("*2,*1", "1,1")


def test_children_of_star2_star1():
    # opener first, then closing *1, then closing *2
    kids = children(parse_state("*2,*1"))
    assert kids == states("*3,*2,*1", "*3,1,1", "2,*2,2")
    assert kids[1].used == frozenset({1})
    assert kids[2].used == frozenset({2})


def test_children_of_closed_pair():
    # the only move is an opener: value 1 is used up
    assert children(parse_state("1,1")) == states("1,1,*1")


def test_all_three_arcs_closable_from_three_stars():
    assert len(children(parse_state("*3,*2,*1"))) == 4


def test_children_of_order5_state_with_blocked_star():
    rho = parse_state("*5,*4,1,1,*1")
    assert rho.used == frozenset({1})
    assert add_opener(rho) == parse_state("*6,*5,1,1,*2,*1")
    # *1 cannot close (length 1 already used), *4 and *5 can
    assert add_closers(rho) == states("*6,4,1,1,*2,4", "5,*5,1,1,*2,5")
    assert [c.used for c in add_closers(rho)] == [
        frozenset({1, 4}),
        frozenset({1, 5}),
    ]


def test_closers_of_order7_state():
    rho = parse_state("*7,4,1,1,*3,4,*1")
    assert rho.used == frozenset({1, 4})
    kids = add_closers(rho)
    assert parse_state("*8,4,1,1,3,4,*2,3") in kids
    assert parse_state("7,4,1,1,*4,4,*2,7") in kids
    assert len(kids) == 2  # *1 blocked


def test_fanout_matches_closable_star_count():
    for text in ("*2,*1", "1,1", "*5,*4,1,1,*1", "*7,4,1,1,*3,4,*1"):
        s = parse_state(text)
        closable = sum(1 for v in s.open_values() if v not in s.used)
        assert len(children(s)) == 1 + closable


# ---------------------------------------------------------------------------
# recognizers

def test_label_recognizer_on_complete_sequence():
    s = state_from_sequence((3, 4, 2, 3, 2, 4, 1, 1))
    assert is_skolem_label(s)


def test_label_recognizer_rejects_open_state():
    assert not is_skolem_label(parse_state("*7,4,1,1,*3,4,*1"))


def test_label_recognizer_rejects_empty():
    assert not is_skolem_label(EMPTY_STATE)


def test_validate_skolem_basics():
    assert validate_skolem((3, 4, 2, 3, 2, 4, 1, 1))
    assert validate_skolem((4, 2, 3, 2, 4, 3, 1, 1))
    assert validate_skolem((1, 1))
    assert not validate_skolem((1, 1, 2, 2))  # the 2s are 1 apart
    assert not validate_skolem(())
    assert not validate_skolem((1, 1, 2))
    assert not validate_skolem((0, 0))
    assert not validate_skolem((2, 2, 1, 1))


def test_sequence_type_rejects_invalid():
    with pytest.raises(InvalidSequenceError, match="gap"):
        SkolemSequence((1, 1, 2, 2))
    with pytest.raises(InvalidSequenceError, match="empty"):
        SkolemSequence(())


def test_reverse_is_valid_and_involutive():
    w = SkolemSequence((3, 4, 2, 3, 2, 4, 1, 1))
    assert reverse(w).values == (1, 1, 4, 2, 3, 2, 4, 3)
    assert reverse(reverse(w)) == w
    assert reverse(SkolemSequence((1, 1))).values == (1, 1)


# ---------------------------------------------------------------------------
# text grammar

def test_parse_format_round_trip():
    for text in ("*7,4,1,1,*3,4,*1", "1,1", "*1", "3,4,2,3,2,4,1,1"):
        assert str(parse_state(text)) == text


def test_parse_rejects_garbage():
    for text in ("x", "1,,2", "*0,1", "-3", "1,*x"):
        with pytest.raises(InvalidSequenceError):
            parse_entries(text)


@pytest.mark.parametrize(
    "text",
    ["1" * 5000, "*" + "1" * 5000, "0" * 4300 + "1", "1,1," + "9" * 4301],
    ids=["closed", "open", "leading-zeros", "third-token"],
)
def test_parse_state_rejects_an_over_long_token(text):
    # a body past int()'s digit limit, leading zeros included, is refused
    # before int() sees it
    with pytest.raises(InvalidSequenceError, match="parse: over-long token"):
        parse_state(text)


def test_parse_keeps_leading_zeros_below_the_digit_limit():
    assert parse_state("0" * 4299 + "1,1") == parse_state("1,1")


def test_parse_follows_the_interpreter_digit_limit():
    # the limit is read when a text is parsed, not fixed at import
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        with pytest.raises(InvalidSequenceError, match="over-long token of 2000 digits"):
            parse_entries("1" * 2000 + ",1")
        with pytest.raises(InvalidSequenceError, match="over-long token of 1001 digits"):
            parse_entries("0" * 1000 + "1")
        assert parse_entries("0" * 999 + "1,*1") == ([1, 1], [False, True])
        sys.set_int_max_str_digits(0)  # no limit
        assert parse_entries("1" * 5000 + ",1") == ([int("1" * 5000), 1], [False, False])
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize("state", ["cold", "warm"])
def test_the_numeral_table_grows_only_from_an_accepted_closed_text(numerals, state):
    # an accepted text of L tokens with no open token grows the table to its
    # largest value but not past ceil(L/2); a rejected text, or one with an
    # open token, leaves it as it is; it maps exactly str(k) -> k
    numerals(state)
    size = len(core._NUMERALS)
    for text, top in [
        ("," * 100_000, 0),  # many empty tokens: rejected
        ("1," * 9, 0),
        ("x,y,z", 0),
        ("1,1,1", 1),
        ("", 0),
        ("*3,1,1", 0),
        ("1,1,3,3", 2),  # 3 is past ceil(4/2)
        ("4,2,3,2,4,3,1,1", 4),
        ("1,1,1,1,1,1,1", 1),
        ("1000,1000", 1),
        (",".join(["9"] * 40), 9),
        ("01,1", 1),
        ("7,7,7,0", 0),
    ]:
        try:
            parse_entries(text)
        except InvalidSequenceError:
            pass
        size = max(size, top)
        assert core._NUMERALS == {str(k): k for k in range(1, size + 1)}, text
        assert all(type(v) is int for v in core._NUMERALS.values())


@pytest.mark.parametrize("state, text, values", [
    ("cold", "2,2", [2, 2]),  # a 2-token text grows the table to "1" only
    ("cold", "1,1,3,3", [1, 1, 3, 3]),
    ("warm", "1000,1001", [1000, 1001]),
    ("warm", "1001,1001", [1001, 1001]),
])
def test_a_value_past_the_tables_reach_goes_to_the_general_scanner(numerals, state, text, values):
    numerals(state)
    before = len(core._NUMERALS)
    assert parse_entries(text) == (values, [False] * len(values))
    assert len(core._NUMERALS) == max(before, min(max(values), (len(values) + 1) // 2))


def test_state_parse_rejects_bad_invariants():
    with pytest.raises(InvalidSequenceError, match="gap"):
        parse_state("3,3")
    with pytest.raises(InvalidSequenceError, match="count"):
        parse_state("1,1,1,1")
    with pytest.raises(InvalidSequenceError, match="star"):
        parse_state("*3,*1")  # position 1 of a length-2 word must carry *2
    with pytest.raises(InvalidSequenceError, match="count"):
        parse_state("2,1,1")  # lone 2 not marked open


def test_star_value_is_pinned_to_position():
    # open value at position i of a length-n word is exactly n+1-i
    s = parse_state("*7,4,1,1,*3,4,*1")
    n = s.order
    for i, e in enumerate(s.entries, start=1):
        if e.is_open:
            assert e.value == n + 1 - i


def test_entry_str_forms():
    assert str(Entry.closed(4)) == "4"
    assert str(Entry.open(4)) == "*4"
    with pytest.raises(InvalidSequenceError):
        Entry(0)


# ---------------------------------------------------------------------------
# parent: every growth step inverts uniquely

def _tree_level(depth):
    level = [EMPTY_STATE]
    for _ in range(depth):
        level = [c for s in level for c in children(s)]
    return level


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_parent_inverts_every_growth_step(depth):
    for s in _tree_level(depth - 1):
        for c in children(s):
            assert parent(c) == s


def test_levels_contain_no_duplicates():
    for depth in range(1, 9):
        level = _tree_level(depth)
        assert len({s.entries for s in level}) == len(level)


def test_empty_state_has_no_parent():
    with pytest.raises(ValueError):
        parent(EMPTY_STATE)


# ---------------------------------------------------------------------------
# randomized structural checks

@st.composite
def reachable_states(draw):
    """Random descent through the tree: child picked by index at each step."""
    s = EMPTY_STATE
    for choice in draw(st.lists(st.integers(0, 7), max_size=10)):
        kids = children(s)
        s = kids[choice % len(kids)]
    return s


@given(reachable_states())
@settings(max_examples=200, deadline=None)
def test_reachable_states_satisfy_invariants(s):
    n = s.order
    opens = [(i, e.value) for i, e in enumerate(s.entries, start=1) if e.is_open]
    # star values pinned to positions, pairwise distinct
    assert all(v == n + 1 - i for i, v in opens)
    assert len({v for _, v in opens}) == len(opens)
    # order splits into closed pairs plus open arcs
    assert n == 2 * len(s.used) + len(opens)
    # round trip through the text grammar
    assert parse_state(str(s)) == s
    # re-validation from raw entries agrees
    assert state_from_sequence(s.entries) == s


@given(reachable_states())
@settings(max_examples=200, deadline=None)
def test_parent_of_reachable_state(s):
    if s.order == 0:
        return
    p = parent(s)
    assert s in children(p)


# ---------------------------------------------------------------------------
# the validator's reasons

# (input, first reason), frozen from the quadratic validator this one replaced
VIOLATION_REASONS = [
    ((), "empty: a Skolem sequence has order at least 1"),
    ((1,), "length: odd length 1"),
    ((1, 1, 2, 3, 2), "length: odd length 5"),
    ((1, 1), None),
    ((True, 1), None),
    ((3, 4, 2, 3, 2, 4, 1, 1), None),
    ((0, 0), "value: entry 0 at position 1 is not a positive integer"),
    ((1, -1), "value: entry -1 at position 2 is not a positive integer"),
    ((1, 1, 2, 2.0), "value: entry 2.0 at position 4 is not a positive integer"),
    ((2, 2, "x", 1), "value: entry 'x' at position 3 is not a positive integer"),
    ((1, 2, 1, 2, 0, 5), "value: entry 0 at position 5 is not a positive integer"),
    ((1, 1, 1, 1), "count: value 1 appears 4 times, expected exactly 2"),
    ((2, 1, 2, 1, 2, 1), "count: value 1 appears 3 times, expected exactly 2"),
    ((4, 4, 1, 1), "count: value 2 appears 0 times, expected exactly 2"),
    ((9, 1, 1, 9), "count: value 2 appears 0 times, expected exactly 2"),
    ((1, 1, 2, 2), "gap: value 2 sits at positions 3 and 4 (gap 1, expected 2)"),
    ((2, 1, 1, 2), "gap: value 2 sits at positions 1 and 4 (gap 3, expected 2)"),
    ((1, 2, 1, 2, 3, 3), "gap: value 1 sits at positions 1 and 3 (gap 2, expected 1)"),
    ((3, 1, 1, 3, 2, 2), "gap: value 2 sits at positions 5 and 6 (gap 1, expected 2)"),
    ((2, 3, 2, 4, 3, 4, 1, 1), "gap: value 4 sits at positions 4 and 6 (gap 2, expected 4)"),
]


@pytest.mark.parametrize("values, reason", VIOLATION_REASONS)
def test_violation_reason_strings(values, reason):
    assert skolem_violation(values) == reason


ORDER8 = [s.values for s in enumerate_skolem(8)]
REASON_TAGS = ("empty:", "length:", "value:", "count:", "gap:")


def _agrees_with_oracle(vals):
    reason = skolem_violation(vals)
    assert (reason is None) == oracle_validate(vals)
    assert reason is None or reason.startswith(REASON_TAGS)


@given(st.lists(st.integers(-1, 25), max_size=40))
@settings(max_examples=500, deadline=None)
def test_violation_agrees_with_oracle_on_arbitrary_input(vals):
    _agrees_with_oracle(vals)


@given(
    st.sampled_from(ORDER8),
    st.integers(0, 15),
    st.integers(0, 15),
    st.one_of(st.none(), st.tuples(st.integers(0, 15), st.integers(-1, 17))),
)
@settings(max_examples=500, deadline=None)
def test_violation_agrees_with_oracle_on_edited_sequences(seq, i, j, overwrite):
    vals = list(seq)
    vals[i], vals[j] = vals[j], vals[i]
    if overwrite is not None:
        pos, value = overwrite
        vals[pos] = value
    _agrees_with_oracle(vals)
