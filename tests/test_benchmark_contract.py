"""The names and call shapes that ``benchmarks/layers.py`` relies on.

The benchmark's traced run (``benchmarks/run.py --trace 1``) calls these
functions in process, reads these report fields, and wraps three module
attributes to time the calls one layer makes into another.  Renaming or
bypassing any of them would stop the traced run or leave one of its spans
empty, so these tests fail first.
"""

import json

from skolemgen import cli, core, engine, sts
from skolemgen.oracle import oracle_enumerate, oracle_validate


def test_engine_calls_and_report_fields():
    counts = engine.count_open_levels(9)
    assert engine.parallel_count(9, 2) == counts
    report = engine.dfs_enumerate(5)
    assert report.skolem_count == 10
    assert report.pruned_nodes > 0
    assert len(report.per_level_counts) == 10
    states = [s for level in engine.iter_level_states(5) for s in level]
    assert all(isinstance(engine.prune_feasible(s, 5), bool) for s in states)
    stream = engine.enumerate_skolem(5)
    first = next(stream)
    stream.close()
    leaves = {s.values for s in oracle_enumerate(5)}
    assert first.values in leaves
    assert {s.values for s in engine.parallel_enumerate(5, True, 2)} == leaves


def test_enumeration_builds_each_leaf_through_engine_skolem_sequence(monkeypatch):
    # benchmarks/layers.py times leaves by wrapping engine.SkolemSequence
    built = []
    original = engine.SkolemSequence

    def traced(values):
        built.append(values)
        return original(values)

    monkeypatch.setattr(engine, "SkolemSequence", traced)
    leaves = list(engine.enumerate_skolem(5))
    assert len(built) == len(leaves) == 10
    record = cli.OutputRecord.for_sequence(leaves[0]).ndjson()
    assert json.loads(record) == {"order": 5, "values": list(leaves[0].values)}


def test_verify_calls_the_cli_module_names_once_per_line(monkeypatch, tmp_path, capsys):
    # benchmarks/layers.py times verify lines by wrapping cli.parse_entries
    # and cli.skolem_violation
    calls = {"parse_entries": 0, "skolem_violation": 0}
    for name in calls:

        def traced(*args, _name=name, _original=getattr(cli, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cli, name, traced)
    path = tmp_path / "in.txt"
    path.write_text("3,4,2,3,2,4,1,1\n1,1,2,2\n")
    assert cli.main(["verify", "--in", str(path)]) == 5
    assert capsys.readouterr().out.splitlines()[0] == "OK order=4"
    assert calls == {"parse_entries": 2, "skolem_violation": 2}


def test_core_and_sts_calls():
    values = [3, 4, 2, 3, 2, 4, 1, 1]
    assert core.SkolemSequence(tuple(values)).order == 4
    assert oracle_validate(values)
    assert isinstance(core.OpenState(), core.OpenState)
    base = sts.base_blocks(values, 0)
    system = sts.develop_sts(base, 4)
    assert sts.verify_sts(system)
    assert system.v == 25 and len(system.blocks) == 100
