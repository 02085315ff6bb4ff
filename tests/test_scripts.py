"""Smoke tests of the scripts in ``scripts/``: each runs at a tiny size and
exits 0, also when the reader of its stdout has gone away."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skolemgen

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(skolemgen.__file__).resolve().parents[1]


# A stand-in for benchmarks/run.py: its figures follow from the seed and a
# per-copy scale, so the aggregation over them is known exactly.
STUB_RUN = """import argparse, json, pathlib
root = pathlib.Path(__file__).resolve().parent.parent
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
seed = int(a.seed)
k = json.loads((root / "scale.json").read_text())[a.seed]
out = root / ".bench_out"
out.mkdir(exist_ok=True)
env = {"src_sha256": root.name, "python": "3", "nproc": 2, "cpu_model": "stub", "git_sha": None}
walls = {"verify": [k * seed, 3 * k * seed, 2 * k * seed], "sts0": [0.5]}
(out / f"result-{a.workload}-seed{seed}-trace{a.trace}.json").write_text(
    json.dumps({"env": env, "result": {"command_wall_s": walls}}))
print("env", json.dumps(env))
print(json.dumps({"correct": True, "attempted": seed, "failed": 0, "metrics": {
    "wall_s": {"value": k * seed, "unit": "s"}, "rate_per_s": {"value": seed / k, "unit": "1/s"}}}))
"""
STUB_BENCHMARK = {
    "workloads": [{"name": "certify"}, {"name": "count"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "rate_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    ],
}
STUB_SCALES = {"parent": {"1": 1.0, "2": 1.0, "3": 1.0}, "change": {"1": 0.5, "2": 2.0, "3": 0.5}}


def _bench_copies(tmp_path):
    """Two copies holding the stub benchmark; the arguments that compare them."""
    for side, scales in STUB_SCALES.items():
        (tmp_path / side / "benchmarks").mkdir(parents=True, exist_ok=True)
        (tmp_path / side / "benchmarks" / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "scale.json").write_text(json.dumps(scales))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(STUB_BENCHMARK))
    return [
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--out", str(tmp_path / "BENCH.json"), "--seconds", "0", "--seeds", "1", "2", "3",
    ]


def _argv(name, tmp_path):
    args = {
        "open_level_growth.py": lambda: ["--max-n", "6"],
        "search_space_report.py": lambda: ["--order", "4"],
        "render_gallery.py": lambda: ["--order", "4", "--out-dir", str(tmp_path / "gallery")],
        "code_lines.py": lambda: [],
        "bench_pairs.py": lambda: _bench_copies(tmp_path),
    }[name]()
    return [sys.executable, str(ROOT / "scripts" / name), *args]


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


SCRIPTS = ["open_level_growth.py", "search_space_report.py", "render_gallery.py", "code_lines.py", "bench_pairs.py"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_runs_at_a_tiny_size(tmp_path, name):
    proc = subprocess.run(_argv(name, tmp_path), capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_reader_closing_after_one_line_is_a_normal_exit(tmp_path, name):
    # unbuffered, so each line is its own write and later ones can meet the
    # closed pipe; whether they do depends on timing, the next test does not
    proc = subprocess.Popen(
        _argv(name, tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_env(PYTHONUNBUFFERED="1"),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert first.strip()
    assert code == 0
    assert b"Traceback" not in err


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_into_closed_pipe_is_a_normal_exit(tmp_path, name):
    # the read end is closed before the script starts, so its first write
    # to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            _argv(name, tmp_path), stdout=write_end, stderr=subprocess.PIPE, env=_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", SCRIPTS)
def test_script_on_a_full_stdout_exits_4_without_a_traceback(tmp_path, name):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            _argv(name, tmp_path), stdout=full, stderr=subprocess.PIPE, env=_env(), timeout=120
        )
    assert proc.returncode == 4
    assert proc.stderr == b"skolemgen: [Errno 28] No space left on device\n"


CODE_LINES_FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts


# a comment line does not
def f(x):
    """One-line docstring."""
    return (x +
            1)


class C:
    """Class
    docstring."""

    text = """a string
    that is not a docstring"""

    async def g(self):
        """Async docstring."""
        pass
'''


def test_code_lines_counts_a_fixture_exactly(tmp_path):
    # import, def, the two lines of the return, class, the two lines of the
    # string that is no docstring, async def and pass
    path = tmp_path / "fixture.py"
    path.write_text(CODE_LINES_FIXTURE)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(path)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"     9 {path}\n     9 total\n"


def test_bench_pairs_aggregates_alternating_pairs(tmp_path):
    # the stub's figures: parent wall_s 1, 2, 3 and change 0.5, 4, 1.5 over
    # seeds 1..3, rate_per_s the seed over the scale, verify's median wall
    # time twice wall_s
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), *_bench_copies(tmp_path)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads((tmp_path / "BENCH.json").read_text())
    assert list(report) == ["description", "host", "src_sha256", "unpaired_workloads", "workloads"]
    assert report["src_sha256"] == {"parent": "parent", "change": "change"}
    assert report["unpaired_workloads"] == []
    assert list(report["workloads"]) == ["certify", "count"]
    entry = report["workloads"]["certify"]
    assert entry["unpaired"] == []
    assert entry["first_in_pair"] == ["parent", "change", "parent"]
    assert entry["correct"] == {"parent": True, "change": True}
    assert entry["attempted"] == {"parent": 6, "change": 6}
    assert entry["metrics"]["wall_s"] == {
        "unit": "s", "better": "lower", "bound": 0.24,
        "parent": {"median": 2.0, "q1": 1.5, "q3": 2.5},
        "change": {"median": 1.5, "q1": 1.0, "q3": 2.75},
        "change_vs_parent_median": -0.25, "pairs_change_better": 2, "pairs": 3,
        "parent_runs": [1.0, 2.0, 3.0], "change_runs": [0.5, 4.0, 1.5],
    }
    rate = entry["metrics"]["rate_per_s"]
    assert (rate["parent_runs"], rate["change_runs"], rate["pairs_change_better"]) == ([1, 2, 3], [2, 1, 6], 2)
    verify = entry["command_wall_s"]["verify"]
    assert (verify["parent"]["median"], verify["change"]["median"], verify["pairs_change_better"]) == (4.0, 3.0, 2)
    assert entry["command_wall_s"]["sts0"]["pairs_change_better"] == 0  # ties count for neither
    # one line per run, in alternating order, then one row per metric and command
    runs = [line.split(":")[0] for line in proc.stdout.splitlines()[:12]]
    assert runs[:6] == [
        "certify seed 1 parent", "certify seed 1 change", "certify seed 2 change",
        "certify seed 2 parent", "certify seed 3 parent", "certify seed 3 change",
    ]
    assert len(proc.stdout.splitlines()) == 12 + 2 * 4


def test_bench_pairs_compares_only_what_both_copies_have(tmp_path):
    # the change lists one more workload and metric, and times one more
    # command: each is named unpaired and the rest compared as usual
    argv = _bench_copies(tmp_path)
    change = tmp_path / "change"
    (change / "benchmarks" / "run.py").write_text(
        STUB_RUN.replace('"sts0": [0.5]', '"sts0": [0.5], "sts1": [0.25]')
        .replace('"metrics": {', '"metrics": {"setup_s": {"value": 0.1, "unit": "s"}, ')
    )
    bench = json.loads((change / "BENCHMARK.json").read_text())
    bench["workloads"].append({"name": "sts"})
    bench["end_to_end"].append({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25})
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), *argv],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads((tmp_path / "BENCH.json").read_text())
    assert report["unpaired_workloads"] == ["sts"]
    assert list(report["workloads"]) == ["certify", "count"]
    for entry in report["workloads"].values():
        assert entry["unpaired"] == ["setup_s", "sts1"]
        assert list(entry["metrics"]) == ["wall_s", "rate_per_s"]
        assert list(entry["command_wall_s"]) == ["verify", "sts0"]
        assert entry["metrics"]["wall_s"]["change_runs"] == [0.5, 4.0, 1.5]


def test_bench_pairs_stops_on_a_failed_run(tmp_path):
    argv = _bench_copies(tmp_path)
    (tmp_path / "change" / "benchmarks" / "run.py").write_text("import sys\nsys.exit('no package')\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), *argv],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("bench_pairs: benchmarks/run.py --workload certify --seed 1 ")
    assert proc.stderr.endswith("exited 1: no package\n")
    assert not (tmp_path / "BENCH.json").exists()
