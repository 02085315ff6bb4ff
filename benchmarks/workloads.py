"""End-to-end workloads: ``skolemgen`` commands run as child processes.

One closed-loop client issues one command at a time and waits for it before
the next; a command uses at most 2 worker processes.  Each command is reaped
with ``os.wait4`` by a small launcher, so its peak RSS is its own (with its
reaped worker processes), not the maximum over every child so far that
``RUSAGE_CHILDREN`` gives, and not inflated by the client's memory.

A workload is a list of commands (run once per repetition, in an order the
seed shuffles), a gate over their outputs and the samples one repetition
gives.  Repetitions continue until the run's time is up; every reported time
is a median over repetitions.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().with_name("launch.py")
CHILD_TIMEOUT_S = 60
SETUP_CALLS = 5  # before the timed loop; one more comes before each command
PREFIX_RECORDS = 20_000  # order-12 ndjson records read before the child is stopped


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SKOLEMGEN_WORKERS", None)  # every command names its worker count
    # Bytecode is cached, as for an installed package; the warm-up call writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


@dataclass
class Child:
    out: bytes
    err: bytes
    code: int
    wall_s: float
    rss_mib: float

    @property
    def text(self) -> str:
        return self.out.decode(errors="replace")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(args: list[str], env: dict[str, str], stop_after: int | None = None) -> Child:
    """Run ``skolemgen <args>`` to completion, or with ``stop_after`` read that
    many stdout lines, terminate the command and end the wall time at the
    last line read.  The command is started by ``launch.py``, which reaps it
    with ``os.wait4`` and reports its peak RSS; the wall time starts when the
    launcher is about to fork it.  Nothing started here outlives the call."""
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER), str(report_w), sys.executable, "-m", "skolemgen.cli", *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(report_w,), start_new_session=True,
        )
    finally:
        os.close(report_w)
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
    watchdog.start()
    end = None
    with os.fdopen(report_r, "rb") as report:
        try:
            report.readline()
            start = time.perf_counter()
            if stop_after is None:
                out = proc.stdout.read()
            else:
                out = b"".join(itertools.islice(proc.stdout, stop_after))
                end = time.perf_counter()
                proc.terminate()
            status = report.readline().split()
            end = end or time.perf_counter()
        except BaseException:
            _kill_group(proc.pid)
            raise
        finally:
            watchdog.cancel()
            proc.wait()
            drain.join()
            proc.stdout.close()
            proc.stderr.close()
    # No report: the watchdog killed the command and its launcher.
    code, rss_kib = (int(f) for f in status) if len(status) == 2 else (-signal.SIGKILL, 0)
    return Child(out, b"".join(err), code, end - start, rss_kib / 1024)


@dataclass(frozen=True)
class Command:
    key: str
    args: tuple[str, ...]
    stop_after: int | None = None


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, Path], object]  # seed, output dir -> the workload's inputs
    commands: Callable[[object], list[Command]]
    gate: Callable[[dict[str, Child], object, checks.Tally], None]
    samples: Callable[[dict[str, Child], object], dict[str, float]]
    rate: str  # the named metric reported as rate_per_s
    units: dict[str, str]  # units of the named metrics


def _record(tally: checks.Tally, what: str, child: Child, problems: list[str]) -> None:
    """Count one command's gate result; a failure carries the end of its stderr."""
    if problems and child.err:
        problems = [f"stderr {child.err[-200:]!r}"] + problems
    tally.record(what, problems)


# ---------------------------------------------------------------------------
# count: the counting walk and its process split, nothing else

def _count_commands(_) -> list[Command]:
    args = ("count-open", "--max-n", "15", "--workers")
    return [Command("w1", args + ("1",)), Command("w2", args + ("2",))]


def _count_gate(res: dict[str, Child], _, tally: checks.Tally) -> None:
    w1, w2 = res["w1"], res["w2"]
    _record(tally, "count-open --workers 1", w1, checks.check_counts(w1.text, w1.code))
    same = [] if w2.out == w1.out else ["2-worker output differs from 1-worker output"]
    _record(tally, "count-open --workers 2", w2, checks.check_counts(w2.text, w2.code) + same)


def _count_samples(res: dict[str, Child], _) -> dict[str, float]:
    return {
        "count_nodes_per_s": sum(checks.OPEN_COUNTS_15) / res["w1"].wall_s,
        "count_w2_s": res["w2"].wall_s,
    }


# ---------------------------------------------------------------------------
# enumerate: the pruned walk, leaf building and record serialisation

def _enumerate_commands(_) -> list[Command]:
    return [
        Command("empty", ("enumerate", "--order", "10")),
        Command("prefix", ("enumerate", "--order", "12", "--format", "ndjson"), PREFIX_RECORDS),
        Command("o9w1", ("enumerate", "--order", "9", "--workers", "1")),
        Command("o9w2", ("enumerate", "--order", "9", "--workers", "2")),
        Command("first", ("sts", "--order", "17")),
    ]


def _enumerate_gate(res: dict[str, Child], _, tally: checks.Tally) -> None:
    empty = res["empty"]
    _record(tally, "enumerate --order 10", empty, checks.check_silent(empty.text, empty.code))

    prefix = res["prefix"]
    lines = prefix.out.splitlines()
    _, problems = checks.sequences(checks.parse_ndjson_records(lines, 12), 12)
    if len(lines) != PREFIX_RECORDS:
        problems.append(f"{len(lines)} records before the stop, expected {PREFIX_RECORDS}")
    # The child is stopped on purpose: SIGTERM is its expected end.
    if prefix.code not in (0, -signal.SIGTERM):
        problems.append(f"exit code {prefix.code}")
    _record(tally, "enumerate --order 12 --format ndjson (prefix)", prefix, problems)

    found = {}
    for key in ("o9w1", "o9w2"):
        child = res[key]
        found[key], problems = checks.check_enumeration(child.text, child.code, 9, checks.ORDER9_SEQUENCES)
        if key == "o9w2" and found["o9w2"] != found["o9w1"]:
            problems.append("2-worker set differs from 1-worker set")
        _record(tally, f"enumerate --order 9 ({key})", child, problems)

    first = res["first"]
    _record(tally, "sts --order 17", first, checks.check_sts(first.text, first.code, 17))


def _enumerate_samples(res: dict[str, Child], _) -> dict[str, float]:
    return {
        "enum_empty_s": res["empty"].wall_s,
        "enum_seq_per_s": PREFIX_RECORDS / res["prefix"].wall_s,
        "enum_w2_s": res["o9w2"].wall_s,
        "first_s": res["first"].wall_s,
    }


# ---------------------------------------------------------------------------
# certify: long outside input through the validator, and STS construction

@dataclass(frozen=True)
class CertifyInputs:
    path: Path
    expected: list[int | None]
    sts: list[tuple[list[int], int]]


def _certify_prepare(seed: int, out_dir: Path) -> CertifyInputs:
    lines = inputs.verify_lines(seed)
    path = out_dir / "certify-input.txt"
    path.write_text("".join(line.text + "\n" for line in lines))
    return CertifyInputs(path, [line.expected_order for line in lines], inputs.sts_inputs(seed))


def _certify_commands(inp: CertifyInputs) -> list[Command]:
    cmds = [Command("verify", ("verify", "--in", str(inp.path)))]
    for i, (values, x) in enumerate(inp.sts):
        cmds.append(Command(f"sts{i}", ("sts", "--sequence", ",".join(map(str, values)), "--x", str(x))))
    return cmds


def _certify_gate(res: dict[str, Child], inp: CertifyInputs, tally: checks.Tally) -> None:
    verify = res["verify"]
    _record(tally, "verify --in", verify, checks.check_verify(verify.text, verify.code, inp.expected))
    for i, (values, x) in enumerate(inp.sts):
        child = res[f"sts{i}"]
        n = len(values) // 2
        _record(tally, f"sts --sequence (n={n})", child, checks.check_sts(child.text, child.code, n, values, x))


def _certify_samples(res: dict[str, Child], inp: CertifyInputs) -> dict[str, float]:
    return {
        "verify_lines_per_s": len(inp.expected) / res["verify"].wall_s,
        "sts_s": sum(c.wall_s for k, c in res.items() if k.startswith("sts")),
    }


WORKLOADS = {
    "count": Workload(
        lambda seed, out_dir: None, _count_commands, _count_gate, _count_samples,
        "count_nodes_per_s", {"count_nodes_per_s": "1/s", "count_w2_s": "s"},
    ),
    "enumerate": Workload(
        lambda seed, out_dir: None, _enumerate_commands, _enumerate_gate, _enumerate_samples,
        "enum_seq_per_s",
        {"enum_empty_s": "s", "enum_seq_per_s": "1/s", "enum_w2_s": "s", "first_s": "s"},
    ),
    "certify": Workload(
        _certify_prepare, _certify_commands, _certify_gate, _certify_samples,
        "verify_lines_per_s", {"verify_lines_per_s": "1/s", "sts_s": "s"},
    ),
}


def setup_call(env: dict[str, str], tally: checks.Tally) -> Child:
    """``verify`` on empty stdin: a CLI call that does no work and exits 0."""
    child = run_cli(["verify"], env)
    _record(tally, "verify (empty stdin)", child, checks.check_silent(child.text, child.code))
    return child


def run_workload(name: str, seed: int, seconds: float, out_dir: Path, tally: checks.Tally) -> dict:
    """Measure one workload for ``seconds``; returns named metrics with units,
    the sample counts and the end-to-end figures."""
    wl = WORKLOADS[name]
    env = child_env()
    setup_call(env, tally)  # warm-up: byte-compiles the package, fills the file cache
    setup = [setup_call(env, tally) for _ in range(SETUP_CALLS)]
    prepared = wl.prepare(seed, out_dir)
    rng = random.Random(seed)
    samples: dict[str, list[float]] = {}
    command_walls: dict[str, list[float]] = {}
    walls: list[float] = []
    peak_rss = max(c.rss_mib for c in setup)
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        cmds = wl.commands(prepared)
        rng.shuffle(cmds)
        res = {}
        for c in cmds:
            # Setup samples spread over the whole run, one before each command.
            setup.append(setup_call(env, tally))
            res[c.key] = run_cli(list(c.args), env, c.stop_after)
            command_walls.setdefault(c.key, []).append(res[c.key].wall_s)
            peak_rss = max(peak_rss, res[c.key].rss_mib)
        wl.gate(res, prepared, tally)
        for metric, value in wl.samples(res, prepared).items():
            samples.setdefault(metric, []).append(value)
        walls.append(sum(c.wall_s for c in res.values()))

    named = {m: (statistics.median(v), wl.units[m]) for m, v in samples.items()}
    named["wall_s"] = (statistics.median(walls), "s")
    named["setup_s"] = (statistics.median(c.wall_s for c in setup), "s")
    named["peak_rss_mib"] = (peak_rss, "MiB")
    named["fail_ratio"] = (tally.fail_ratio, "ratio")
    return {
        "named": named,
        "repetitions": len(walls),
        "setup_calls": len(setup),
        "command_wall_s": command_walls,
        "end_to_end": {
            "wall_s": named["wall_s"],
            "setup_s": named["setup_s"],
            "peak_rss_mib": named["peak_rss_mib"],
            "rate_per_s": (named[wl.rate][0], "1/s"),
        },
    }
