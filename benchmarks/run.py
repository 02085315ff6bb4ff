"""Benchmark of the skolemgen CLI (end to end) and of its layers (traced).

    python3 benchmarks/run.py --workload count|enumerate|certify \\
        --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's commands through the CLI as child
processes for S seconds (see ``workloads.py``) and reports the end-to-end
metrics.  ``--trace 1`` runs the in-process layer suite once untraced and
once traced (see ``layers.py``) and reports the per-layer metrics and the
tracing overhead; its work is fixed, so ``--seconds`` does not apply, and
it covers every layer whatever the workload.

The last line of stdout is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines above it give the environment and
every named metric with its unit.  A full record, with the spans of a traced
run, is written to ``.bench_out/``.  The package is run from ``src/`` of
the directory holding ``benchmarks/``; without it the script exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("count", "enumerate", "certify")
SHOWN_PROBLEMS = 20


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What a result was measured on; ``src_sha256`` names the code even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skolemgen" / "cli.py").is_file():
        print(f"benchmark: no skolemgen package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import selftest

    broken = selftest.run_selftest()
    if broken:
        print("benchmark: gate self-test failed:", *broken, sep="\n  ", file=sys.stderr)
        return 3

    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    tally = checks.Tally()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        import layers

        result, rec = layers.run_layers(args.seed, OUT_DIR, tally)
        record["spans"] = rec.dump()
        reported = result["named"]
        note = f"traced suite {result['traced_s']:.3f} s, untraced {result['untraced_s']:.3f} s"
    else:
        import workloads

        result = workloads.run_workload(args.workload, args.seed, args.seconds, OUT_DIR, tally)
        reported = result["end_to_end"]
        note = f"medians over {result['repetitions']} repetition(s), setup over {result['setup_calls']} call(s)"
    record.update(result=result, attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record))

    print("env", json.dumps(env))
    print(f"workload {args.workload}: {note}; record in {OUT_DIR.name}/{name}")
    for metric, (value, unit) in result["named"].items():
        print(f"metric {metric} {value:.6g} {unit}")
    for problem in tally.problems[:SHOWN_PROBLEMS]:
        print("problem", problem)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
