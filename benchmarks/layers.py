"""The traced run: per-layer costs of ``engine``, ``core``, ``cli`` and ``sts``.

The public functions of each layer are called in-process, and spans are
recorded around those calls from the benchmark's side: by ``with`` blocks
around direct calls, and by wrapping a module attribute (``engine.
SkolemSequence``, ``cli.parse_entries``, ``cli.skolem_violation``) for the
calls one layer makes into another.  Nothing in ``src/`` is edited.

The same suite runs twice, untraced and then traced; the difference of the
two wall times is the tracing overhead.  ``render`` is not measured (no
workload's time depends on it) and ``oracle`` is the correctness reference.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
from spans import Recorder
from workloads import ROOT, child_env

from skolemgen import cli, core, engine, sts

COUNT_ORDER = 15
WALK_ORDER = 10  # has no sequences: the walk is all expansion and cuts
FIRST_ORDER = 17
SPLIT_ORDER = 9
LEAF_ORDER = 12
LEAVES = 5000
PRUNE_SAMPLE = 2000
PRUNE_REPEAT = 5
VERIFY_LINES = 500
IMPORT_CALLS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import skolemgen.cli; "
    "print(time.perf_counter() - t)"
)

UNITS = {
    "engine.count.nodes_per_s": "1/s",
    "engine.parallel_count.overhead_s": "s",
    "engine.walk.nodes": "count",
    "engine.walk.cut": "count",
    "engine.walk.cut_ratio": "ratio",
    "engine.walk.nodes_per_s": "1/s",
    "engine.prune.us_per_call": "us",
    "engine.first.s": "s",
    "engine.parallel_enumerate.overhead_s": "s",
    "core.validate.us_leaf": "us",
    "core.validate.us_long": "us",
    "core.parse.us_per_line": "us",
    "cli.ndjson.us_per_record": "us",
    "cli.import_s": "s",
    "cli.verify.self_s": "s",
    "enumerate.leaf_share": "ratio",
    "sts.develop.s": "s",
    "sts.verify.s": "s",
    "sts.verify.pairs_per_s": "1/s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class LayerInputs:
    verify_path: Path
    expected: list[int | None]
    long_valid: list[list[int]]
    prune_states: list[core.OpenState]
    sts_values: list[int]
    sts_x: int


def prepare(seed: int, out_dir: Path) -> LayerInputs:
    lines = inputs.verify_lines(seed, VERIFY_LINES)
    path = out_dir / "layers-input.txt"
    path.write_text("".join(line.text + "\n" for line in lines))
    long_valid = [[int(t) for t in line.text.split(",")] for line in lines if line.expected_order]
    states = [s for level in engine.iter_level_states(WALK_ORDER) for s in level]
    rng = random.Random(seed)
    values, x = inputs.sts_inputs(seed)[-1]
    return LayerInputs(
        path, [line.expected_order for line in lines], long_valid,
        rng.sample(states, PRUNE_SAMPLE), values, x,
    )


def suite(rec: Recorder, inp: LayerInputs, tally: checks.Tally) -> list[float]:
    """Call each layer once; returns the ``cli.import_s`` samples."""
    with rec.span("engine.count_open_levels"):
        counts = engine.count_open_levels(COUNT_ORDER)
    rec.count("engine.count.nodes", sum(counts))
    tally.record("count_open_levels(15)", [] if tuple(counts) == checks.OPEN_COUNTS_15 else ["wrong counts"])
    with rec.span("engine.parallel_count"):
        split = engine.parallel_count(COUNT_ORDER, 2)
    tally.record("parallel_count(15, 2)", [] if split == counts else ["differs from count_open_levels"])

    with rec.span("engine.dfs_enumerate"):
        report = engine.dfs_enumerate(WALK_ORDER)
    rec.count("engine.walk.nodes", sum(report.per_level_counts))
    rec.count("engine.walk.cut", report.pruned_nodes)
    tally.record("dfs_enumerate(10)", [] if report.skolem_count == 0 else ["order 10 has sequences"])

    with rec.span("engine.prune_feasible"):
        for _ in range(PRUNE_REPEAT):
            for state in inp.prune_states:
                engine.prune_feasible(state, WALK_ORDER)
    rec.count("engine.prune.calls", PRUNE_REPEAT * len(inp.prune_states))

    stream = engine.enumerate_skolem(FIRST_ORDER)
    with rec.span("engine.first"):
        first = next(stream)
    stream.close()
    _, problems = checks.sequences([first.values], FIRST_ORDER)
    tally.record("enumerate_skolem(17), first item", problems)

    with rec.span("engine.enumerate_skolem"):
        seq = list(engine.enumerate_skolem(SPLIT_ORDER))
    with rec.span("engine.parallel_enumerate"):
        par = list(engine.parallel_enumerate(SPLIT_ORDER, True, 2))
    found, problems = checks.sequences([s.values for s in seq], SPLIT_ORDER)
    if len(found) != checks.ORDER9_SEQUENCES or {s.values for s in par} != found or len(par) != len(seq):
        problems.append("order-9 sets differ or have the wrong size")
    tally.record("enumerate_skolem(9) / parallel_enumerate(9, 2)", problems)

    # Per record, as `enumerate --format ndjson` does it: the walk to the next
    # leaf (which builds and validates the leaf), then serialisation.
    records = []
    stream = engine.enumerate_skolem(LEAF_ORDER)
    with rec.wrapped(engine, "SkolemSequence", "core.SkolemSequence"):
        for _ in range(LEAVES):
            with rec.span("enumerate.record"):
                leaf = next(stream)
                with rec.span("cli.ndjson"):
                    records.append(cli.OutputRecord.for_sequence(leaf).ndjson())
    stream.close()
    rec.count("enumerate.records", LEAVES)
    _, problems = checks.sequences(checks.parse_ndjson_records(records, LEAF_ORDER), LEAF_ORDER)
    tally.record("enumerate_skolem(12) + ndjson", problems)

    out = io.StringIO()
    with rec.wrapped(cli, "parse_entries", "core.parse_entries"), \
            rec.wrapped(cli, "skolem_violation", "core.skolem_violation"), \
            contextlib.redirect_stdout(out):
        with rec.span("cli.main.verify"):
            code = cli.main(["verify", "--in", str(inp.verify_path)])
    rec.count("verify.lines", len(inp.expected))
    tally.record("cli.main verify", checks.check_verify(out.getvalue(), code, inp.expected))

    with rec.span("core.validate.long"):
        for values in inp.long_valid:
            core.SkolemSequence(tuple(values))
    rec.count("core.validate.long.calls", len(inp.long_valid))

    n = len(inp.sts_values) // 2
    with rec.span("sts.base_blocks"):
        base = sts.base_blocks(inp.sts_values, inp.sts_x)
    with rec.span("sts.develop_sts"):
        system = sts.develop_sts(base, n)
    with rec.span("sts.verify_sts"):
        verified = sts.verify_sts(system)
    rec.count("sts.pairs", system.v * (system.v - 1) // 2)
    problems = checks.check_sts_blocks(base, system.blocks, n, inp.sts_values, inp.sts_x)
    if not verified:
        problems.append("verify_sts rejected a valid system")
    tally.record(f"develop_sts / verify_sts (n={n})", problems)

    env = child_env()
    imports = []
    for _ in range(IMPORT_CALLS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        ok = probe.returncode == 0
        tally.record("import skolemgen.cli", [] if ok else [probe.stderr[-200:]])
        if ok:
            imports.append(float(probe.stdout))
    return imports


def run_layers(seed: int, out_dir: Path, tally: checks.Tally) -> tuple[dict, Recorder]:
    """Untraced pass, then traced pass; per-layer metrics from the traced one."""
    inp = prepare(seed, out_dir)
    start = time.perf_counter()
    suite(Recorder(enabled=False), inp, tally)
    untraced_s = time.perf_counter() - start

    rec = Recorder()
    start = time.perf_counter()
    imports = suite(rec, inp, tally)
    traced_s = time.perf_counter() - start

    c = rec.counts
    walk_s = rec.total("engine.dfs_enumerate")
    verify_s = rec.total("sts.verify_sts")
    leaf_side = rec.total("core.SkolemSequence") + rec.total("cli.ndjson")
    values = {
        "engine.count.nodes_per_s": c["engine.count.nodes"] / rec.total("engine.count_open_levels"),
        "engine.parallel_count.overhead_s":
            rec.total("engine.parallel_count") - rec.total("engine.count_open_levels") / 2,
        "engine.walk.nodes": c["engine.walk.nodes"],
        "engine.walk.cut": c["engine.walk.cut"],
        "engine.walk.cut_ratio": c["engine.walk.cut"] / c["engine.walk.nodes"],
        "engine.walk.nodes_per_s": c["engine.walk.nodes"] / walk_s,
        "engine.prune.us_per_call": 1e6 * rec.total("engine.prune_feasible") / c["engine.prune.calls"],
        "engine.first.s": rec.total("engine.first"),
        "engine.parallel_enumerate.overhead_s":
            rec.total("engine.parallel_enumerate") - rec.total("engine.enumerate_skolem") / 2,
        "core.validate.us_leaf": 1e6 * rec.mean("core.SkolemSequence"),
        "core.validate.us_long": 1e6 * rec.total("core.validate.long") / c["core.validate.long.calls"],
        "core.parse.us_per_line": 1e6 * rec.mean("core.parse_entries"),
        "cli.ndjson.us_per_record": 1e6 * rec.mean("cli.ndjson"),
        "cli.import_s": statistics.median(imports),
        "cli.verify.self_s": rec.self_times()["cli.main.verify"]["self_s"],
        "enumerate.leaf_share": leaf_side / rec.total("enumerate.record"),
        "sts.develop.s": rec.total("sts.develop_sts"),
        "sts.verify.s": verify_s,
        "sts.verify.pairs_per_s": c["sts.pairs"] / verify_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    return {"named": metrics, "traced_s": traced_s, "untraced_s": untraced_s}, rec
