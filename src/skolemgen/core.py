"""Skolem sequences, open Skolem sequences, and the growth rules connecting them.

A Skolem sequence of order n arranges the multiset {1,1,2,2,...,n,n} so that
the two copies of k sit exactly k positions apart.  Positions act as the
vertices of an arc diagram: equal entries are the endpoints of an arc whose
length equals the entry value.

An open Skolem sequence is a partially built diagram in which some arcs have
started but not yet closed.  An open arc is written *k, where k is the
smallest length the arc can still reach once it closes: an open arc sitting
at position i of a length-n sequence carries k = (n + 1) - i, so every open
value ticks up by one each time the sequence grows.  Closed values appear
exactly twice, their two copies exactly their value apart, and no closed
value repeats.

Sequences grow one entry at a time, in exactly two ways:

* ``add_opener``  -- start a new arc: all open values tick up, *1 is appended;
* ``add_closers`` -- close an open arc *j, allowed only while length j is
  still unused: the other open values tick up, the chosen entry becomes j, a
  second j is appended, and j joins the set of used lengths.

Rooted at the empty sequence, these rules span a generating tree whose
level-n nodes are exactly the open Skolem sequences of order n.  A node is a
completed Skolem sequence precisely when twice the number of used lengths
equals the sequence length and the largest used length equals their count
(``is_skolem_label``); ``validate_skolem`` re-checks the definition directly
without any of the label bookkeeping.

Text form: comma-separated tokens, ``k`` for a closed entry and ``*k`` for an
open one, e.g. ``"*7,4,1,1,*3,4,*1"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class InvalidSequenceError(ValueError):
    """Raised when input fails a Skolem / open-Skolem invariant."""


@dataclass(frozen=True)
class Entry:
    """One element of a decorated sequence: a closed length or an open *value."""

    value: int
    is_open: bool = False

    def __post_init__(self) -> None:
        if self.value < 1:
            raise InvalidSequenceError(f"value: entry value must be >= 1, got {self.value}")

    @classmethod
    def closed(cls, value: int) -> "Entry":
        return cls(value, False)

    @classmethod
    def open(cls, value: int) -> "Entry":
        return cls(value, True)

    def __str__(self) -> str:
        return f"*{self.value}" if self.is_open else str(self.value)


@dataclass(frozen=True)
class OpenState:
    """An open Skolem sequence together with its set of used lengths.

    ``entries`` is the decorated sequence, ``used`` the closed values without
    multiplicity.  Instances are immutable; the growth operations return new
    states and never share mutable data, so states can be copied or shipped
    between workers freely.
    """

    entries: tuple[Entry, ...] = ()
    used: frozenset[int] = frozenset()

    @property
    def order(self) -> int:
        return len(self.entries)

    @property
    def open_count(self) -> int:
        return sum(1 for e in self.entries if e.is_open)

    def open_values(self) -> tuple[int, ...]:
        """Open values in position order (largest first, by the position rule)."""
        return tuple(e.value for e in self.entries if e.is_open)

    def values(self) -> tuple[int, ...]:
        """Entry values with the open/closed decoration dropped."""
        return tuple(e.value for e in self.entries)

    def __str__(self) -> str:
        return format_entries(self.entries)


EMPTY_STATE = OpenState()


@dataclass(frozen=True)
class SkolemSequence:
    """A validated Skolem sequence; construction rejects invalid input."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        reason = skolem_violation(self.values)
        if reason is not None:
            raise InvalidSequenceError(reason)

    @property
    def order(self) -> int:
        return len(self.values) // 2

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


# ---------------------------------------------------------------------------
# growth rules

def add_opener(state: OpenState) -> OpenState:
    """Start a new arc: every open value ticks up and *1 lands at the end."""
    grown = tuple(Entry(e.value + 1, True) if e.is_open else e for e in state.entries)
    return OpenState(grown + (Entry(1, True),), state.used)


def add_closers(state: OpenState) -> list[OpenState]:
    """Close each open arc whose value is still unused, smallest value first.

    Closing *j turns the chosen entry into a closed j, appends its partner j,
    ticks the remaining open values up, and marks j used.  Open values already
    in ``used`` produce no child.  The appended partner sits exactly j
    positions after the entry it closes, so the arc-length invariant holds by
    construction.
    """
    entries = state.entries
    children: list[OpenState] = []
    # Position i holds open value n+1-i, so scanning positions right to left
    # visits open values in increasing order.
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        if not e.is_open or e.value in state.used:
            continue
        j = e.value
        grown = [Entry(x.value + 1, True) if x.is_open else x for x in entries]
        grown[i] = Entry(j, False)
        grown.append(Entry(j, False))
        children.append(OpenState(tuple(grown), state.used | {j}))
    return children


def children(state: OpenState) -> list[OpenState]:
    """All order-(n+1) descendants: the opener child, then the closer children."""
    return [add_opener(state)] + add_closers(state)


def parent(state: OpenState) -> OpenState:
    """The unique state this one was grown from.

    Dropping the last entry inverts exactly one growth step: a trailing open
    entry (necessarily *1) undoes an opener; a trailing closed j undoes the
    closure of the arc whose start sits j positions earlier.  Remaining open
    values tick down.
    """
    n = state.order
    if n == 0:
        raise ValueError("the empty state has no parent")
    *rest, last = state.entries
    if last.is_open:
        if last.value != 1:
            raise InvalidSequenceError(
                f"star: trailing open value *{last.value}, expected *1"
            )
        grown = tuple(Entry(e.value - 1, True) if e.is_open else e for e in rest)
        return OpenState(grown, state.used)
    j = last.value
    i = n - j  # 1-based start of the arc being re-opened
    if i < 1 or rest[i - 1] != Entry.closed(j):
        raise InvalidSequenceError(
            f"gap: trailing value {j} has no partner {j} positions earlier"
        )
    grown = [Entry(e.value - 1, True) if e.is_open else e for e in rest]
    grown[i - 1] = Entry(j, True)  # re-opened arc carries value n-i = j
    return OpenState(tuple(grown), state.used - {j})


# ---------------------------------------------------------------------------
# recognition

def is_skolem_label(state: OpenState) -> bool:
    """Label test for completed Skolem sequences.

    True iff twice the number of used lengths equals the sequence length and
    the largest used length equals their count (empty sequences are rejected;
    order 0 is excluded).  For reachable states this is equivalent to "no open
    entries remain and the closed values form {1..n} with all gaps right".
    """
    n = state.order
    s = state.used
    return n > 0 and 2 * len(s) == n and max(s, default=0) == len(s)


def skolem_violation(values: Sequence[int]) -> str | None:
    """First violated Skolem condition for a plain integer sequence, or None.

    The reason string starts with a stable tag: ``empty``, ``length``,
    ``value``, ``count`` or ``gap``.  Entry values are checked first, then
    each k = 1..n in turn for its count and its gap; values above n count
    toward nothing.  One pass over the input, so the cost is linear.
    """
    vals = list(values)
    if not vals:
        return "empty: a Skolem sequence has order at least 1"
    if len(vals) % 2:
        return f"length: odd length {len(vals)}"
    n = len(vals) // 2
    seen = [0] * (n + 1)  # occurrences of each value 1..n
    first = [0] * (n + 1)  # 1-based positions of its first two occurrences
    second = [0] * (n + 1)
    for pos, v in enumerate(vals, start=1):
        if not isinstance(v, int) or v < 1:
            return f"value: entry {v!r} at position {pos} is not a positive integer"
        if v <= n:
            c = seen[v]
            if c == 0:
                first[v] = pos
            elif c == 1:
                second[v] = pos
            seen[v] = c + 1
    for k in range(1, n + 1):
        if seen[k] != 2:
            return f"count: value {k} appears {seen[k]} times, expected exactly 2"
        i, j = first[k], second[k]
        if j - i != k:
            return f"gap: value {k} sits at positions {i} and {j} (gap {j - i}, expected {k})"
    return None


def validate_skolem(values: Sequence[int]) -> bool:
    """Direct check of the Skolem conditions; malformed input is simply False."""
    return skolem_violation(values) is None


def reverse(seq: SkolemSequence) -> SkolemSequence:
    """Reversal preserves every gap, so the result is again valid (re-checked)."""
    return SkolemSequence(seq.values[::-1])


# ---------------------------------------------------------------------------
# text grammar and conversion

def format_entries(entries: Iterable[Entry]) -> str:
    return ",".join(str(e) for e in entries)


def format_state(state: OpenState) -> str:
    return format_entries(state.entries)


def parse_entries(text: str) -> tuple[Entry, ...]:
    """Parse the comma grammar: ``k`` closed, ``*k`` open, k a positive
    integer written in ASCII digits; whitespace around a token is ignored."""
    text = text.strip()
    if not text:
        return ()
    entries = []
    for raw in text.split(","):
        tok = raw.strip()
        is_open = tok.startswith("*")
        body = tok[1:] if is_open else tok
        # int() alone would also take signs, underscores and non-ASCII digits
        if not (body.isascii() and body.isdigit()):
            raise InvalidSequenceError(f"parse: bad token {tok!r}")
        value = int(body)
        if value < 1:
            raise InvalidSequenceError(f"parse: non-positive value in token {tok!r}")
        entries.append(Entry(value, is_open))
    return tuple(entries)


def open_violation(entries: Sequence[Entry]) -> str | None:
    """First violated open-sequence invariant for a decorated sequence, or None."""
    n = len(entries)
    open_seen: set[int] = set()
    first_pos: dict[int, int] = {}
    done: set[int] = set()
    for i, e in enumerate(entries, start=1):
        if e.is_open:
            if e.value in open_seen:
                return f"star: duplicate open value *{e.value}"
            if e.value != n + 1 - i:
                return (
                    f"star: open value *{e.value} at position {i}, expected "
                    f"*{n + 1 - i} in a length-{n} sequence"
                )
            open_seen.add(e.value)
        else:
            k = e.value
            if k in done:
                return f"count: value {k} appears more than twice"
            if k in first_pos:
                i0 = first_pos.pop(k)
                if i - i0 != k:
                    return f"gap: value {k} sits at positions {i0} and {i} (gap {i - i0}, expected {k})"
                done.add(k)
            else:
                first_pos[k] = i
    if first_pos:
        k, i = min(first_pos.items(), key=lambda kv: kv[1])
        return f"count: value {k} at position {i} appears once and is not marked open"
    return None


def state_from_entries(entries: Sequence[Entry]) -> OpenState:
    reason = open_violation(entries)
    if reason is not None:
        raise InvalidSequenceError(reason)
    used = frozenset(e.value for e in entries if not e.is_open)
    return OpenState(tuple(entries), used)


def state_from_sequence(values: str | SkolemSequence | Iterable[Entry | int]) -> OpenState:
    """Build a validated OpenState from text, a SkolemSequence, or raw entries.

    Plain integers become closed entries; the text form may carry ``*k``
    tokens.  Rejects input with a diagnostic naming the first violated
    invariant (duplicate star, star/position mismatch, wrong gap, value seen
    more than twice, unpaired value).
    """
    if isinstance(values, str):
        entries: tuple[Entry, ...] = parse_entries(values)
    elif isinstance(values, SkolemSequence):
        entries = tuple(Entry.closed(v) for v in values.values)
    else:
        entries = tuple(
            e if isinstance(e, Entry) else Entry.closed(int(e)) for e in values
        )
    return state_from_entries(entries)


def parse_state(text: str) -> OpenState:
    """Parse the text grammar straight to a validated OpenState."""
    return state_from_entries(parse_entries(text))
