"""The package's records.  The five frozen ones refuse assignment and
deletion, and compare, hash, print, pickle and copy by their fields;
EnumerationReport stays a mutable record with its dataclass-style
constructor and repr."""

import copy
import pickle

import pytest

from skolemgen import sts
from skolemgen.cli import OutputRecord
from skolemgen.core import Entry, FrozenRecord, InvalidSequenceError, OpenState, SkolemSequence
from skolemgen.engine import EnumerationReport, dfs_enumerate
from skolemgen.sts import TripleSystem, base_blocks, develop_sts

# per frozen class: a builder of one instance, an instance of the same class
# with other fields, and the instance's repr (the text dataclasses printed)
RECORDS = {
    "Entry": (lambda: Entry(3, True), Entry(3), "Entry(value=3, is_open=True)"),
    "OpenState": (
        lambda: OpenState((Entry(1, True),), frozenset()),
        OpenState(),
        "OpenState(entries=(Entry(value=1, is_open=True),), used=frozenset())",
    ),
    "SkolemSequence": (
        lambda: SkolemSequence([1, 1]),
        SkolemSequence((3, 4, 2, 3, 2, 4, 1, 1)),
        "SkolemSequence(values=(1, 1))",
    ),
    "TripleSystem": (
        lambda: TripleSystem(7, [[0, 1, 3]]),
        TripleSystem(7, [[0, 1, 4]]),
        "TripleSystem(v=7, blocks=((0, 1, 3),))",
    ),
    "OutputRecord": (lambda: OutputRecord("1,1", 1), OutputRecord("1,1", 2), "OutputRecord(payload='1,1', order=1)"),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def _fields(rec):
    return tuple(getattr(rec, name) for name in type(rec).__slots__)


def test_a_frozen_record_refuses_assignment_and_deletion(record):
    make, _, _ = record
    rec = make()
    assert isinstance(rec, FrozenRecord)
    before = _fields(rec)
    for name in (*type(rec).__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    assert _fields(rec) == before
    assert not hasattr(rec, "__dict__")


def test_a_frozen_record_compares_and_hashes_by_its_fields(record):
    make, other, _ = record
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other and type(a) is type(other)
    assert a != _fields(a)  # a plain tuple of the same fields
    assert all(a != make_other() for make_other, _, _ in RECORDS.values() if make_other is not make)


def test_a_frozen_record_prints_its_fields(record):
    make, _, text = record
    assert repr(make()) == text


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_frozen_record_pickles_and_copies_to_an_equal_record(record, protocol):
    make, _, _ = record
    rec = make()
    for back in pickle.loads(pickle.dumps(rec, protocol)), copy.deepcopy(rec), copy.copy(rec):
        assert type(back) is type(rec) and back == rec and hash(back) == hash(rec)


def test_construction_still_validates():
    with pytest.raises(InvalidSequenceError, match="gap"):
        SkolemSequence((1, 2, 1, 2))
    with pytest.raises(InvalidSequenceError, match="value"):
        Entry(0)
    assert SkolemSequence(iter([1, 1])).values == (1, 1)


def test_develop_sts_skips_the_block_normalisation(monkeypatch):
    # TripleSystem's __init__ maps int over every block; develop_sts's rows
    # hold ints already, so it sets its blocks past that pass
    def no_normalisation(*args):
        raise AssertionError("blocks normalised")

    monkeypatch.setattr(sts, "map", no_normalisation, raising=False)
    ts = develop_sts(base_blocks((1, 1)), 1)
    assert ts.v == 7 and ts.blocks == tuple(tuple((p + t) % 7 for p in (0, 1, 3)) for t in range(7))
    with pytest.raises(AssertionError, match="normalised"):
        TripleSystem(7, ts.blocks)


# ---------------------------------------------------------------------------
# EnumerationReport: mutable, with its dataclass-style constructor

def test_report_constructor_defaults_and_repr():
    assert repr(EnumerationReport(3)) == (
        "EnumerationReport(target_order=3, per_level_counts=[], skolem_count=0, "
        "pruned_nodes=0, merged_nodes=0, elapsed=0.0)"
    )
    positional = EnumerationReport(2, [1, 2], 5, 6, 7, 0.5)
    keywords = EnumerationReport(
        target_order=2, per_level_counts=[1, 2], skolem_count=5, pruned_nodes=6, merged_nodes=7, elapsed=0.5
    )
    assert repr(positional) == repr(keywords) == (
        "EnumerationReport(target_order=2, per_level_counts=[1, 2], skolem_count=5, "
        "pruned_nodes=6, merged_nodes=7, elapsed=0.5)"
    )
    with pytest.raises(TypeError):
        EnumerationReport()


def test_report_gets_a_fresh_list_and_stays_mutable():
    a, b = EnumerationReport(1), EnumerationReport(1)
    a.per_level_counts.append(4)
    assert b.per_level_counts == []
    a.skolem_count = 9
    assert a.skolem_count == 9
    assert not hasattr(a, "__dict__")


def test_report_pickles_with_its_fields():
    report = dfs_enumerate(4)
    back = pickle.loads(pickle.dumps(report))
    assert repr(back) == repr(report)
    assert back.summary() == report.summary()
