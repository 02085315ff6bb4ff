"""Run the benchmark on two copies of the repository in alternating pairs
and write the comparison in the schema of the ``BENCH_<pr>.json`` files.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        --seconds 30 --seeds 3001 3002 ...

For each workload of the change's ``BENCHMARK.json`` that the parent's also
lists, in the change's order, and for each seed, it runs
``python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0`` in
the parent's copy and in the change's: the parent first for the first seed,
then each side first in turn.  A run's end-to-end metrics are the ones in the
JSON line its stdout ends with, and its per-command wall times are the
``command_wall_s`` of the record it writes to ``.bench_out/``.  The metrics'
units, directions and bounds come from the change's ``BENCHMARK.json``.
Only what both sides have is compared: a workload one copy lists, or a
metric or command that some run lacks, is named under ``unpaired``.

The output holds, per workload and metric, each side's median and inclusive
quartiles over the pairs, every run's value, the change's median relative to
the parent's, and the number of pairs in which the change did better (a tie
counts for neither side).  Under ``command_wall_s`` it holds the same for
each command's median wall time within a run, so a saving shows in the
command that made it.  stdout gets one line per run and then a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from skolemgen.cli import run_to_stdout

SIDES = ("parent", "change")


def summary(runs: list[float]) -> dict:
    """Median and inclusive quartiles of ``runs``."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent_runs: list[float], change_runs: list[float], better: str) -> dict:
    """The two sides' summaries, the change's relative median and the
    pairs it won; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "higher" else -1
    parent, change = summary(parent_runs), summary(change_runs)
    return {
        "parent": parent,
        "change": change,
        "change_vs_parent_median": change["median"] / parent["median"] - 1,
        "pairs_change_better": sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs)),
        "pairs": len(parent_runs),
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``root``: its result line and its record."""
    record = root / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    record.unlink(missing_ok=True)
    argv = ["benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {root} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1]), json.loads(record.read_text())


def paired(names: list) -> tuple[set, list]:
    """The names in every one of ``names``' collections, and the sorted rest."""
    both = set.intersection(*map(set, names))
    return both, sorted(set().union(*names) - both)


def aggregate(workload: str, seeds: list[int], seconds: float, metrics: list[dict], runs: dict) -> dict:
    """One workload's entry; ``runs[side]`` lists (result, record) per seed."""
    results = {side: [result for result, _ in runs[side]] for side in SIDES}
    walls = {
        side: [{cmd: statistics.median(w) for cmd, w in record["result"]["command_wall_s"].items()} for _, record in runs[side]]
        for side in SIDES
    }
    both, unpaired_metrics = paired([[m["name"] for m in metrics], *(r["metrics"] for side in SIDES for r in results[side])])
    commands, unpaired_commands = paired([w for side in SIDES for w in walls[side]])
    return {
        "seeds": seeds,
        "first_in_pair": [SIDES[i % 2] for i in range(len(seeds))],
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "command": f"python3 benchmarks/run.py --workload {workload} --seed SEED --seconds {seconds:g} --trace 0",
        "metrics": {
            m["name"]: {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **compare(*([r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES), m["better"]),
            }
            for m in metrics if m["name"] in both
        },
        "command_wall_s": {
            cmd: {"unit": "s", "better": "lower", **compare(*([w[cmd] for w in walls[side]] for side in SIDES), "lower")}
            for cmd in walls["change"][0] if cmd in commands
        },
        "unpaired": unpaired_metrics + unpaired_commands,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="copy of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="copy of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write, e.g. BENCH_30.json")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed, at least two")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = {side: json.loads((roots[side] / "BENCHMARK.json").read_text()) for side in SIDES}
    listed = {side: [w["name"] for w in bench[side]["workloads"]] for side in SIDES}
    workloads = [w for w in listed["change"] if w in listed["parent"]]
    unpaired_workloads = paired(listed.values())[1]

    host, src_sha256, entries = {}, {}, {}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in SIDES[::-1] if i % 2 else SIDES:
                result, record = run_once(roots[side], workload, seed, args.seconds)
                runs[side].append((result, record))
                host = {k: record["env"][k] for k in ("python", "nproc", "cpu_model")}
                src_sha256[side] = record["env"]["src_sha256"]
                values = " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items())
                print(f"{workload} seed {seed} {side}: correct={result['correct']} {values}", flush=True)
        entries[workload] = aggregate(workload, args.seeds, args.seconds, bench["change"]["end_to_end"], runs)
    description = (
        f"End-to-end metrics of benchmarks/run.py (--trace 0, --seconds {args.seconds:g}), the parent's copy "
        f"against the change's, in alternating pairs (first_in_pair says which side ran first), one pair "
        f"per seed, workloads in the order {', '.join(workloads)}. Medians and quartiles "
        f"(inclusive method) are over the pairs; each run's value is the one in its result line. "
        f"command_wall_s holds each command's median wall time within a run. src_sha256 is the benchmark's "
        f"hash of each copy's src/. unpaired names what only some copies or runs have. Written by scripts/bench_pairs.py."
    )
    report = {
        "description": description, "host": host, "src_sha256": src_sha256,
        "unpaired_workloads": unpaired_workloads, "workloads": entries,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    for workload, entry in entries.items():
        rows = [*entry["metrics"].items(), *((f"{cmd} wall_s", c) for cmd, c in entry["command_wall_s"].items())]
        for name, c in rows:
            p, q = c["parent"], c["change"]
            print(
                f"{workload:<10} {name:<16} parent {p['median']:<11.6g} IQR {p['q3'] - p['q1']:<10.3g} "
                f"change {q['median']:<11.6g} {c['change_vs_parent_median']:+7.1%}  "
                f"better in {c['pairs_change_better']}/{c['pairs']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
