"""Command-line front end: output formats, exit codes, determinism, and the
arc-diagram renderer."""

import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_process
from skolemgen import cli
from skolemgen.core import Entry, InvalidSequenceError, SkolemSequence, parse_entries, parse_state
from skolemgen.engine import enumerate_skolem
from skolemgen.oracle import oracle_validate
from skolemgen.render import render_arc_diagram
from skolemgen.sts import base_blocks, develop_sts, format_triple_system
from test_golden_output import _skolem_4s


def run(argv):
    """Invoke main() in process, folding argparse's SystemExit into a code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# count-open

def test_count_open_lines(capsys):
    assert run(["count-open", "--max-n", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["n=1 count=1", "n=2 count=2", "n=3 count=4", "n=4 count=8", "n=5 count=20"]


def test_count_open_parallel_same_output(capsys):
    run(["count-open", "--max-n", "9"])
    seq = capsys.readouterr().out
    run(["count-open", "--max-n", "9", "--workers", "2"])
    par = capsys.readouterr().out
    assert par == seq


def test_count_open_usage_errors():
    assert run(["count-open"]) == 2
    assert run(["count-open", "--max-n", "0"]) == 2
    assert run(["count-open", "--max-n", "x"]) == 2


def _out_of_memory(*args, **kwargs):
    raise MemoryError("synthetic")


def test_count_open_resource_failure(monkeypatch, capsys):
    # the walk's first heartbeat runs out of memory, before any count exists;
    # cli holds its own name for note, so its error line still prints
    monkeypatch.setattr(cli.engine, "PROGRESS_INTERVAL", 100)
    monkeypatch.setattr(cli.engine, "note", _out_of_memory)
    assert run(["count-open", "--max-n", "11"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: resource exhaustion: synthetic\n"


def test_no_command_imports_a_process_pool_or_pickle():
    # The worker pool forks its workers and sends marshal frames, so no
    # command loads concurrent.futures, multiprocessing or pickle, nor
    # dataclasses (with inspect, ast, dis and tokenize) or typing.  Each would
    # add start-up time to every command.  -S keeps site hooks from loading
    # any of them before the package does.  Two CPUs let the 2-worker
    # commands start the pool on any host, which alone loads select.
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "heavy = {'dataclasses', 'inspect', 'typing', 'concurrent.futures', 'multiprocessing', 'pickle'}\n"
        "import skolemgen.cli\n"
        "print(sorted(heavy & set(sys.modules)))\n"
        "for argv in (['count-open', '--max-n', '5', '--workers', '1'], ['count-open', '--max-n', '5', '--workers', '2'],\n"
        "             ['enumerate', '--order', '4'], ['enumerate', '--order', '5', '--workers', '2'],\n"
        "             ['verify'], ['sts', '--sequence', '1,1']):\n"
        "    print(skolemgen.cli.main(argv), sorted(heavy & set(sys.modules)), file=sys.stderr)\n"
        "print('select' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], input="1,1\n", capture_output=True, text=True,
        env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:6] == ["[]", "n=1 count=1", "n=2 count=2", "n=3 count=4", "n=4 count=8", "n=5 count=20"]
    assert lines[6:11] == lines[1:6]
    assert "OK order=1" in lines and lines[-1] == "VERIFIED"
    assert [line for line in proc.stderr.splitlines() if not line.startswith("skolemgen:")] == ["0 []"] * 6 + ["True"]


def test_count_open_resource_failure_in_a_worker(monkeypatch, capsys):
    # forked workers inherit the patch; the pool re-raises their MemoryError
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.engine, "_count_below", _out_of_memory)
    assert run(["count-open", "--max-n", "12", "--workers", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: resource exhaustion: synthetic\n"
    assert_no_child_process()


_TEST_PID = os.getpid()


def _killed(*args):
    assert os.getpid() != _TEST_PID, "a worker's job ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "target, argv",
    [
        ("_count_below", ["count-open", "--max-n", "12", "--workers", "2"]),
        ("_enumerate_subtree", ["enumerate", "--order", "9", "--workers", "2"]),
    ],
    ids=["count-open", "enumerate"],
)
def test_a_killed_worker_exits_3(monkeypatch, capsys, target, argv):
    # forked workers inherit the patch, and each kills itself at its first job
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.engine, target, _killed)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"skolemgen: resource exhaustion: worker process ended by signal {int(signal.SIGKILL)}\n"
    assert_no_child_process()


def test_a_killed_enumerate_leaves_no_worker_behind():
    # the command is killed while its workers are still walking: each
    # worker's next frame fails, as no process holds its pipe's read end any
    # more, so it ends and lets go of the command's stdout and stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "skolemgen.cli", "enumerate", "--order", "12", "--workers", "2"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
        start_new_session=True,
    )
    try:
        assert proc.stdout.readline()
        proc.kill()
        # workers left blocked on a full frame pipe would hold both open
        proc.communicate(timeout=30)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == -signal.SIGKILL


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_order1_text(capsys):
    assert run(["enumerate", "--order", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1,1\n"
    assert "1 sequence(s) of order 1" in captured.err


def test_enumerate_order4_has_known_member_and_count(capsys):
    assert run(["enumerate", "--order", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert "3,4,2,3,2,4,1,1" in lines


def test_enumerate_empty_order_still_exits_zero(capsys):
    assert run(["enumerate", "--order", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 sequence(s)" in captured.err


def test_enumerate_ndjson_matches_text(capsys):
    run(["enumerate", "--order", "4"])
    text_lines = capsys.readouterr().out.splitlines()
    run(["enumerate", "--order", "4", "--format", "ndjson"])
    nd_lines = capsys.readouterr().out.splitlines()
    decoded = [json.loads(line) for line in nd_lines]
    assert all(d["order"] == 4 for d in decoded)
    assert [",".join(map(str, d["values"])) for d in decoded] == text_lines


def test_enumerate_no_prune_same_multiset(capsys):
    run(["enumerate", "--order", "4"])
    pruned = sorted(capsys.readouterr().out.splitlines())
    run(["enumerate", "--order", "4", "--no-prune"])
    full = sorted(capsys.readouterr().out.splitlines())
    assert pruned == full


def test_enumerate_to_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert run(["enumerate", "--order", "4", "--out", str(target)]) == 0
    assert len(target.read_text().splitlines()) == 6
    assert capsys.readouterr().out == ""


def test_enumerate_unwritable_path():
    assert run(["enumerate", "--order", "1", "--out", "/nonexistent/dir/x"]) == 4


def _per_leaf(order, fmt):
    """enumerate's output for ``order``, one leaf at a time from the library."""
    lines = []
    for s in enumerate_skolem(order):
        values = list(s.values)
        lines.append(json.dumps({"order": order, "values": values}) if fmt == "ndjson" else ",".join(map(str, values)))
    return "".join(line + "\n" for line in lines)


FRAME_ORDERS = range(1, 10)  # empty orders among them; order 9's last frame is partial


@pytest.mark.parametrize("workers", ["1", "2", "3", "8"])
@pytest.mark.parametrize("fmt", ["text", "ndjson"])
def test_enumerate_frames_match_a_per_leaf_reference(capsys, tmp_path, eight_cpus, fmt, workers):
    # a frame's text fills stdout's buffer; whatever the frames, stdout and an
    # --out file hold exactly the leaves printed one by one
    for order in FRAME_ORDERS:
        expected = _per_leaf(order, fmt)
        count = expected.count("\n")
        argv = ["enumerate", "--order", str(order), "--format", fmt, "--workers", workers]
        assert run(argv) == 0
        assert capsys.readouterr() == (expected, f"skolemgen: {count} sequence(s) of order {order}\n")
        target = tmp_path / f"{order}.{fmt}"
        assert run([*argv, "--out", str(target)]) == 0
        assert target.read_bytes() == expected.encode()
        assert capsys.readouterr() == ("", f"skolemgen: {count} sequence(s) of order {order}\n")
    assert_no_child_process()


@pytest.mark.parametrize("fmt", ["text", "ndjson"])
@pytest.mark.parametrize("order", [2, 3, 6, 7, 10])
def test_enumerate_an_empty_order_prints_no_frame(capsys, fmt, order):
    assert run(["enumerate", "--order", str(order), "--format", fmt]) == 0
    assert capsys.readouterr() == ("", f"skolemgen: 0 sequence(s) of order {order}\n")


def test_enumerate_writes_whole_frames_the_last_one_partial(monkeypatch, capsys):
    # order 9's text lines are 36 characters, so a frame fills 8192 with 228
    # leaves: the first leaf alone, 11 whole frames and a last one of 147,
    # each one write
    writes = []
    stdout = io.StringIO()
    monkeypatch.setattr(stdout, "write", lambda text: writes.append(text) or len(text), raising=False)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["enumerate", "--order", "9"]) == 0
    assert [text.count("\n") for text in writes] == [1] + [228] * 11 + [147]
    assert len(writes[1]) == 228 * 36 >= io.DEFAULT_BUFFER_SIZE > 227 * 36
    assert "".join(writes) == _per_leaf(9, "text")
    assert capsys.readouterr().err == "skolemgen: 2656 sequence(s) of order 9\n"


def test_two_runs_byte_identical(capsys):
    run(["enumerate", "--order", "5", "--format", "ndjson"])
    first = capsys.readouterr().out
    run(["enumerate", "--order", "5", "--format", "ndjson"])
    assert capsys.readouterr().out == first


SKOLEM_COUNTS = [1, 0, 0, 6, 10, 0, 0, 504, 2656, 0]  # orders 1..10


def _printed_values(line, fmt, order):
    """The values of one printed record; an ndjson line must be json.dumps's text."""
    if fmt == "text":
        return [int(tok) for tok in line.split(",")]
    record = json.loads(line)
    assert line == json.dumps({"order": order, "values": record["values"]})
    return record["values"]


@pytest.mark.parametrize("prune, orders", [("--prune", 10), ("--no-prune", 6)])
@pytest.mark.parametrize("fmt", ["text", "ndjson"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_every_printed_leaf_is_a_skolem_sequence(capsys, eight_cpus, prune, orders, fmt, workers):
    # enumerate prints the walk's leaves without validating them, so check
    # every line with the independent validator
    for order in range(1, orders + 1):
        argv = ["enumerate", "--order", str(order), prune, "--format", fmt, "--workers", workers]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == SKOLEM_COUNTS[order - 1]
        for line in lines:
            values = _printed_values(line, fmt, order)
            assert len(values) == 2 * order and oracle_validate(values)


# ---------------------------------------------------------------------------
# verify

def _feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_verify_ok_and_fail_lines(monkeypatch, capsys):
    _feed(monkeypatch, "3,4,2,3,2,4,1,1\n1,1,2,2\n")
    assert run(["verify"]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "OK order=4"
    assert lines[1].startswith("FAIL gap")


def test_verify_all_ok_exit_zero(monkeypatch, capsys):
    _feed(monkeypatch, "1,1\n\n4,2,3,2,4,3,1,1\n")
    assert run(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == ["OK order=1", "OK order=4"]


def test_verify_empty_input(monkeypatch, capsys):
    _feed(monkeypatch, "")
    assert run(["verify"]) == 0
    assert capsys.readouterr().out == ""


def test_verify_rejects_open_and_unparsable(monkeypatch, capsys):
    _feed(monkeypatch, "*2,*1\nnot-a-sequence\n")
    assert run(["verify"]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL open")
    assert lines[1].startswith("FAIL parse")


def test_verify_from_file(tmp_path, capsys):
    src = tmp_path / "seqs.txt"
    src.write_text("1,1\n")
    assert run(["verify", "--in", str(src)]) == 0
    assert capsys.readouterr().out == "OK order=1\n"
    assert run(["verify", "--in", str(tmp_path / "missing.txt")]) == 4


def test_verify_from_file_with_undecodable_bytes(tmp_path, capsys):
    # read as stdin is: the bad bytes reach the grammar as lone surrogates
    src = tmp_path / "seqs.txt"
    src.write_bytes(b"1,1\n\xff\xfe,2\n")
    assert run(["verify", "--in", str(src)]) == 5
    assert capsys.readouterr().out == "OK order=1\nFAIL parse: bad token '\\udcff\\udcfe'\n"


def test_verify_undecodable_stdin_reads_as_the_same_bytes_from_a_file():
    # a strict stdin encoding must not turn the bad bytes into a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "skolemgen.cli", "verify"], input=b"1,1\n\xff\xfe,2\n",
        capture_output=True, env=dict(_cli_env(), PYTHONIOENCODING="utf-8"), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (5, b"")
    assert proc.stdout == b"OK order=1\nFAIL parse: bad token '\\udcff\\udcfe'\n"


def test_verify_over_long_token_is_a_parse_failure(monkeypatch, capsys):
    _feed(monkeypatch, "1" * 5000 + ",1\n1,1\n")
    assert run(["verify"]) == 5
    assert capsys.readouterr().out == "FAIL parse: over-long token of 5000 digits\nOK order=1\n"


@pytest.mark.parametrize("command", ["sts", "render"])
def test_sequence_with_an_over_long_token_is_invalid(capsys, command):
    assert run([command, "--sequence", "1" * 5000 + ",1"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: invalid sequence: parse: over-long token of 5000 digits\n"


def _corrupted(values, kind, rng):
    """The text of ``values`` after one corruption of ``kind``."""
    vals = list(values)
    if kind == "swap":
        i, j = rng.sample(range(len(vals)), 2)
        vals[i], vals[j] = vals[j], vals[i]
    elif kind == "bump":
        vals[rng.randrange(len(vals))] += 1
    elif kind == "drop":
        del vals[rng.randrange(len(vals))]
    tokens = list(map(str, vals))
    extra = {"star": f"*{rng.randint(1, len(vals) // 2)}", "nondigit": rng.choice(["x", "3a", "#", "1.5"])}
    if kind in extra:
        tokens.insert(rng.randrange(len(tokens) + 1), extra[kind])
    return ",".join(tokens)


def _reference_verdict(line):
    """``OK order=n``, ``FAIL`` plus the parse or open message, or ``FAIL``
    alone for a parsed line the oracle rejects."""
    try:
        values = _reference_closed_values(line)
    except InvalidSequenceError as exc:
        return f"FAIL {exc}"
    return f"OK order={len(values) // 2}" if oracle_validate(values) else "FAIL"


def test_verify_matches_the_per_line_reference_at_benchmark_scale(tmp_path, capsys, numerals):
    # the certify benchmark's input shape: orders 8..236 both ways round,
    # a quarter of the lines corrupted, each kind as often
    rng = random.Random(30)
    valid = [_skolem_4s(order) for order in range(8, 237, 4)]
    valid += [",".join(reversed(text.split(","))) for text in valid]
    kinds = ["swap", "bump", "drop", "star", "nondigit"]
    lines = list(valid)
    for k, i in enumerate(range(0, len(lines), 4)):
        lines[i] = _corrupted(map(int, lines[i].split(",")), kinds[k % len(kinds)], rng)
    for name, texts, code in [("corrupted", lines, 5), ("valid", valid, 0)]:
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(text + "\n" for text in texts))
        expected = [_reference_verdict(text) for text in texts]
        for state in ("cold", "warm"):
            numerals(state)
            assert run(["verify", "--in", str(path)]) == code
            # a bare FAIL is the oracle's: the line parsed, so verify names
            # a Skolem condition, never the grammar
            got = [
                "FAIL" if verdict.startswith(("FAIL count", "FAIL gap", "FAIL length")) else verdict
                for verdict in capsys.readouterr().out.splitlines()
            ]
            assert got == expected
    # every order passes on some line, and every kind of verdict occurs
    assert {verdict.split(":")[0] for verdict in map(_reference_verdict, lines)} == {
        *(f"OK order={order}" for order in range(8, 237, 4)), "FAIL", "FAIL parse", "FAIL open",
    }


def test_enumerate_piped_into_verify(tmp_path, capsys):
    seqs = tmp_path / "all5.txt"
    assert run(["enumerate", "--order", "5", "--out", str(seqs)]) == 0
    assert run(["verify", "--in", str(seqs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(line == "OK order=5" for line in lines)


# ---------------------------------------------------------------------------
# sts

def test_sts_known_order4_output(capsys):
    assert run(["sts", "--sequence", "3,4,2,3,2,4,1,1", "--x", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["base (0,3,8)", "base (0,4,10)", "base (0,2,9)", "base (0,1,12)"]
    assert lines[4] == "v=25"
    assert lines[-1] == "VERIFIED"
    assert len(lines) == 4 + 1 + 100 + 1


def test_sts_fano(capsys):
    assert run(["sts", "--sequence", "1,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "base (0,1,3)"
    assert lines[1] == "v=7"
    assert lines[-1] == "VERIFIED"


def test_sts_block_lines_match_library(capsys):
    run(["sts", "--sequence", "1,1"])
    lines = capsys.readouterr().out.splitlines()
    ts = develop_sts(base_blocks((1, 1), 0), 1)
    assert lines[2:-1] == [" ".join(map(str, b)) for b in ts.blocks]


def _library_text(base, n, verdict):
    """What ``sts`` prints for a base: its lines, then the library's text of
    the developed system and the verdict."""
    head = "".join(f"base ({a},{b},{c})\n" for a, b, c in base)
    return head + format_triple_system(develop_sts(base, n)) + f"\n{verdict}\n"


@pytest.mark.parametrize("order", [1, 4, 5, 8])
def test_sts_stream_equals_the_library_text(capsys, order):
    for w in enumerate_skolem(order):
        for x in (0, 1, 6 * order):
            assert run(["sts", "--sequence", str(w), "--x", str(x)]) == 0
            assert capsys.readouterr().out == _library_text(base_blocks(w, x), order, "VERIFIED")


@pytest.mark.parametrize(
    "base",
    [
        [(0, 3, 8), (0, 3, 8), (0, 2, 9), (0, 1, 12)],
        [(0, 3, 8), (0, 4, 29), (0, 2, 9), (0, 1, 12)],
    ],
    ids=["block repeated", "two points equal mod v"],
)
def test_sts_stream_prints_a_damaged_system_and_fails(monkeypatch, capsys, base):
    # the first translate already fails; every later one is still printed
    monkeypatch.setattr(cli, "base_blocks", lambda w, x: base)
    assert run(["sts", "--sequence", "3,4,2,3,2,4,1,1"]) == 5
    assert capsys.readouterr().out == _library_text(base, 4, "FAILED")


def test_sts_holds_only_the_difference_array_and_one_translate(monkeypatch):
    # STS(1201): the difference array is 1201 B and one translate 200 blocks,
    # where the v*v pair cover took 1.4 MiB, and the 240,200 blocks and their
    # text over 27 MiB when the system was built whole
    argv = ["sts", "--sequence", _skolem_4s(200), "--x", "11"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20


def test_sts_invalid_sequence(capsys):
    assert run(["sts", "--sequence", "1,1,2,2"]) == 5
    assert run(["sts", "--sequence", "one,one"]) == 5


def test_sts_by_order_and_index(capsys):
    assert run(["sts", "--order", "4", "--index", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "VERIFIED"
    # the base blocks must come from the index-1 sequence in canonical order
    second = list(enumerate_skolem(4))[1]
    expected = base_blocks(second, 0)
    assert lines[: len(expected)] == [f"base ({a},{b},{c})" for a, b, c in expected]


def test_sts_index_out_of_range():
    assert run(["sts", "--order", "4", "--index", "99"]) == 5


@pytest.mark.parametrize("index", [2**63 - 1, 10**20])
def test_sts_index_past_sys_maxsize_is_out_of_range(capsys, index):
    assert run(["sts", "--order", "4", "--index", str(index)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"skolemgen: no sequence of order 4 at index {index}\n"


def test_sts_answers_an_inadmissible_order_without_a_walk(monkeypatch, capsys):
    # Skolem (1957): no sequence of order N = 2, 3 (mod 4); walking the whole
    # tree of order 14 to find none took minutes
    start = time.perf_counter()
    assert run(["sts", "--order", "14"]) == 5
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "skolemgen: no sequence of order 14 at index 0\n")
    walks = []
    monkeypatch.setattr(cli.engine, "leaf_frames", lambda *args: walks.append(args) or (_ for _ in ()))
    for order in (2, 3, 6, 7, 10, 11):
        assert run(["sts", "--order", str(order), "--index", "2"]) == 5
        assert capsys.readouterr() == ("", f"skolemgen: no sequence of order {order} at index 2\n")
    assert walks == []
    assert run(["sts", "--order", "6", "--index", "-1"]) == 2  # the usage check comes first


@pytest.mark.parametrize("x", [9999, -1])
def test_sts_refuses_an_x_past_6n_before_a_walk(monkeypatch, capsys, x):
    # a usage error needs no walk, and comes before the answer for an inadmissible order
    walks = []
    monkeypatch.setattr(cli.engine, "leaf_frames", lambda *args: walks.append(args) or (_ for _ in ()))
    for order in (9, 14):
        assert run(["sts", "--order", str(order), "--x", str(x)]) == 2
        assert capsys.readouterr() == ("", f"skolemgen: x must lie in 0..{6 * order}, got {x}\n")
    assert walks == []


def test_sts_argument_validation():
    assert run(["sts"]) == 2
    assert run(["sts", "--sequence", "1,1", "--order", "4"]) == 2
    assert run(["sts", "--order", "4", "--index", "-1"]) == 2
    assert run(["sts", "--sequence", "1,1", "--x", "9"]) == 2  # x beyond 6n


@pytest.mark.parametrize("index", ["5", "0", "-4"])
def test_sts_index_is_refused_with_sequence(capsys, index):
    assert run(["sts", "--sequence", "1,1", "--index", index]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: argument --index: not allowed with argument --sequence\n"


# ---------------------------------------------------------------------------
# render

ASCII_W4 = """\
3 4 2 3 2 4 1 1
[-----]          3
  [-------]      4
    [---]        2
            [-]  1
"""


def test_render_ascii_golden(capsys):
    assert run(["render", "--sequence", "3,4,2,3,2,4,1,1"]) == 0
    assert capsys.readouterr().out == ASCII_W4


def test_render_ascii_open_state(capsys):
    assert run(["render", "--sequence", "*7,4,1,1,*3,4,*1"]) == 0
    out = capsys.readouterr().out
    assert out.count("~") > 0
    assert "*7" in out and "*3" in out and "*1" in out
    # two closed arcs, three stubs
    assert out.count("[") == 5
    assert out.count("]") == 2


def test_render_svg_structure(tmp_path):
    target = tmp_path / "d.svg"
    assert run(["render", "--sequence", "3,4,2,3,2,4,1,1", "--format", "svg", "--out", str(target)]) == 0
    svg = target.read_text()
    assert svg.startswith("<svg ")
    assert "arc-diagram format 1" in svg
    assert svg.count("<path") == 4  # one semicircle per closed arc
    assert svg.rstrip().endswith("</svg>")


def test_render_svg_deterministic():
    a = render_arc_diagram("*7,4,1,1,*3,4,*1", "svg")
    b = render_arc_diagram("*7,4,1,1,*3,4,*1", "svg")
    assert a == b
    assert a.count("stroke-dasharray") == 3  # stubs are dashed


def test_render_accepts_objects():
    via_text = render_arc_diagram("1,1", "ascii")
    via_seq = render_arc_diagram(SkolemSequence((1, 1)), "ascii")
    via_state = render_arc_diagram(parse_state("1,1"), "ascii")
    assert via_text == via_seq == via_state


def test_render_parse_failure(capsys):
    assert run(["render", "--sequence", "3,3"]) == 5
    assert run(["render", "--sequence", "zzz"]) == 5


def test_render_bad_format_flag():
    assert run(["render", "--sequence", "1,1", "--format", "png"]) == 2


# ---------------------------------------------------------------------------
# records

def test_record_round_trips():
    seq = SkolemSequence((3, 4, 2, 3, 2, 4, 1, 1))
    rec = cli.OutputRecord.for_sequence(seq)
    assert rec.order == 4
    assert SkolemSequence(tuple(map(int, rec.payload.split(",")))) == seq
    record = json.loads(rec.ndjson())
    assert SkolemSequence(tuple(record["values"])) == seq and record["order"] == 4


def test_record_ndjson_shape():
    rec = cli.OutputRecord.for_sequence(SkolemSequence((1, 1)))
    assert json.loads(rec.ndjson()) == {"order": 1, "values": [1, 1]}


def test_record_ndjson_is_json_dumps_text():
    for order in range(1, 10):
        for seq in enumerate_skolem(order):
            expected = json.dumps({"order": order, "values": list(seq.values)})
            assert cli.OutputRecord.for_sequence(seq).ndjson() == expected


# ---------------------------------------------------------------------------
# entry-point bounds

# int() takes each of these; the grammar allows ASCII digits only
LENIENT_TOKENS = ["\u0663", "1_0", "+2", "*+3"]


@pytest.mark.parametrize("token", LENIENT_TOKENS)
def test_verify_rejects_non_ascii_digit_tokens(monkeypatch, capsys, token):
    _feed(monkeypatch, f"{token},4,2,3,2,4,1,1\n")
    assert run(["verify"]) == 5
    assert capsys.readouterr().out == f"FAIL parse: bad token {token!r}\n"


@pytest.mark.parametrize("token", LENIENT_TOKENS)
def test_sts_rejects_non_ascii_digit_tokens(capsys, token):
    assert run(["sts", "--sequence", f"{token},4,2,3,2,4,1,1"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parse: bad token {token!r}" in captured.err


def test_sts_sequence_strips_whitespace_and_rejects_open_arcs(capsys):
    assert run(["sts", "--sequence", " 3, 4 ,2,3,2,4,1,1 "]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "VERIFIED"
    assert run(["sts", "--sequence", "*2,*1"]) == 5
    assert "open" in capsys.readouterr().err


def _cli_env():
    """The environment with this package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli_process(argv, stdin):
    return subprocess.Popen(
        [sys.executable, "-m", "skolemgen.cli", *argv],
        stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )


@pytest.mark.parametrize(
    "argv", [["enumerate", "--order", "9"], ["verify"], ["sts", "--sequence", _skolem_4s(200)]]
)
def test_closed_pipe_is_a_normal_exit(tmp_path, argv):
    # each command prints well over a pipe buffer, so closing the read end
    # after one line makes a later write fail with EPIPE; sts meets it part
    # way through its stream of translates
    lines = [str(s) for s in enumerate_skolem(8)] * 40
    source = tmp_path / "in.txt"
    source.write_text("\n".join(lines) + "\n")
    with open(source) as stdin:
        proc = _cli_process(argv, stdin)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=120)
    assert first.strip()
    assert code == 0
    assert err == b""


# SHA-256 of the first 20,000 lines of `enumerate --order 12 --format ndjson`,
# recorded before enumerate printed leaves without building SkolemSequences
ORDER_12_PREFIX = 20_000
ORDER_12_PREFIX_SHA256 = "c85ced9288b48a0d3092f0b517c0636c802fb00b7fcc1ffa228c58944443fae8"


def test_order_12_ndjson_prefix_is_valid_and_fixed():
    proc = _cli_process(["enumerate", "--order", "12", "--format", "ndjson"], subprocess.DEVNULL)
    lines = [proc.stdout.readline() for _ in range(ORDER_12_PREFIX)]
    proc.stdout.close()  # the child's next write fails: a normal exit
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert code == 0
    assert err == b""
    assert hashlib.sha256(b"".join(lines)).hexdigest() == ORDER_12_PREFIX_SHA256
    for line in lines:
        values = _printed_values(line.decode().rstrip("\n"), "ndjson", 12)
        assert len(values) == 24 and oracle_validate(values)


def test_order_12_into_a_reader_of_one_line_is_a_normal_exit():
    # `enumerate --order 12 | head -1`: the reader takes the first frame's
    # first line and goes away; a later frame's write ends the run
    head = subprocess.Popen(["head", "-1"], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc = subprocess.Popen(
        [sys.executable, "-m", "skolemgen.cli", "enumerate", "--order", "12"],
        stdin=subprocess.DEVNULL, stdout=head.stdin, stderr=subprocess.PIPE, env=_cli_env(),
    )
    head.stdin.close()
    out = head.stdout.read()
    head.stdout.close()
    err = proc.communicate(timeout=120)[1]
    assert (head.wait(timeout=120), proc.returncode, err) == (0, 0, b"")
    assert out == b",".join(b"%d" % v for v in next(enumerate_skolem(12)).values) + b"\n"


def test_count_open_into_closed_pipe_is_a_normal_exit(monkeypatch, capsys):
    # count-open prints too little to outrun a reader, so close the read end
    # before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["count-open", "--max-n", "5"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["count-open", "--max-n", "5"],
        ["enumerate", "--order", "5"],
        ["verify"],
        ["sts", "--sequence", "1,1"],
        ["render", "--sequence", "1,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_full_stdout_exits_4_without_a_traceback(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "skolemgen.cli", *argv],
            input=b"1,1\n", stdout=full, stderr=subprocess.PIPE, env=_cli_env(), timeout=120,
        )
    assert proc.returncode == 4
    assert proc.stderr == b"skolemgen: [Errno 28] No space left on device\n"


def _one_cpu():
    """Pin the calling process to one CPU, so the engine caps any worker
    count above 1 and starts no worker process."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


_PINNABLE = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, code, pin",
    [
        (["enumerate", "--order", "4", "--out", "{missing}"], 4, None),
        (["enumerate", "--order", "5"], 0, None),
        pytest.param(["count-open", "--max-n", "4", "--workers", "2"], 0, _one_cpu, marks=_PINNABLE),
        (["sts", "--order", "11"], 5, None),
        (["verify", "--in", "{missing}"], 4, None),
    ],
    ids=["enumerate-out-missing", "enumerate", "count-open-capped", "sts-empty-order", "verify-in-missing"],
)
def test_a_full_stderr_keeps_the_exit_code(tmp_path, argv, code, pin):
    missing = str(tmp_path / "no" / "such")
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "skolemgen.cli", *(a.format(missing=missing) for a in argv)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=full, env=_cli_env(),
            preexec_fn=pin, timeout=120,
        )
    assert proc.returncode == code


@_PINNABLE
def test_a_capped_worker_count_is_noticed_on_stderr():
    # the run that count-open-capped above makes, with stderr readable
    proc = subprocess.run(
        [sys.executable, "-m", "skolemgen.cli", "count-open", "--max-n", "4", "--workers", "2"],
        stdin=subprocess.DEVNULL, capture_output=True, env=_cli_env(), preexec_fn=_one_cpu, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == b"n=4 count=8"
    assert proc.stderr == b"skolemgen: 2 workers requested but 1 CPU(s) available; using 1\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_enumerate_out_on_a_full_device_exits_4(capsys):
    assert run(["enumerate", "--order", "4", "--out", "/dev/full"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: [Errno 28] No space left on device\n"


def test_open_failures_name_the_path(tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    for argv in (["enumerate", "--order", "1", "--out"], ["render", "--sequence", "1,1", "--out"], ["verify", "--in"]):
        assert run([*argv, str(missing)]) == 4
        assert capsys.readouterr().err == f"skolemgen: [Errno 2] No such file or directory: '{missing}'\n"


class _FailingInput:
    """Two good lines of input, then a read that fails."""

    def __iter__(self):
        yield "1,1\n"
        yield "3,4,2,3,2,4,1,1\n"
        raise OSError(5, "Input/output error")


def test_verify_read_failure_keeps_the_lines_before_it(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", _FailingInput())
    assert run(["verify"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "OK order=1\nOK order=4\n"
    assert captured.err == "skolemgen: [Errno 5] Input/output error\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_enumerate_out_fifo_whose_reader_closes_is_a_normal_exit(tmp_path):
    # as test_closed_pipe_is_a_normal_exit, with the pipe named by --out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = _cli_process(["enumerate", "--order", "9", "--out", str(fifo)], subprocess.DEVNULL)
    with open(fifo) as reader:
        first = reader.readline()
    out, err = proc.communicate(timeout=120)
    assert first.strip()
    assert (proc.returncode, out, err) == (0, b"", b"")


@pytest.mark.parametrize("order", [2**62, 10**20])
@pytest.mark.parametrize(
    "command", [["count-open", "--max-n"], ["enumerate", "--order"], ["sts", "--order"]], ids=lambda c: c[0]
)
def test_an_order_too_large_to_walk_is_resource_exhaustion(capsys, command, order):
    # one worker, in process: no worker process starts
    assert run([*command, str(order)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("skolemgen: resource exhaustion: ")
    assert captured.err.count("\n") == 1
    assert_no_child_process()


@pytest.mark.parametrize(
    "target, argv",
    [
        ("cli.engine.leaf_frames", ["enumerate", "--order", "9", "--workers", "1"]),
        # forked workers inherit the patch; the pool re-raises their MemoryError
        ("cli.engine._enumerate_subtree", ["enumerate", "--order", "9", "--workers", "2"]),
        # write_sts develops before its first write
        ("sts.develop_rows", ["sts", "--sequence", "1,1"]),
        ("cli.engine.parallel_leaves", ["sts", "--order", "4"]),
        ("cli.skolem_violation", ["verify"]),
        ("cli.render_arc_diagram", ["render", "--sequence", "1,1"]),
    ],
    ids=["enumerate-1", "enumerate-2", "sts-sequence", "sts-order", "verify", "render"],
)
def test_resource_exhaustion_exits_3_for_every_command(monkeypatch, capsys, target, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(f"skolemgen.{target}", _out_of_memory)
    _feed(monkeypatch, "1,1\n")
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: resource exhaustion: synthetic\n"
    assert_no_child_process()


def test_bare_memory_error_reads_out_of_memory(monkeypatch, capsys):
    # the MemoryError CPython raises carries no message
    def bare(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "render_arc_diagram", bare)
    assert run(["render", "--sequence", "1,1"]) == 3
    assert capsys.readouterr().err == "skolemgen: resource exhaustion: out of memory\n"


def test_worker_count_is_capped_at_available_cpus(monkeypatch, capsys):
    # the engine's one check and cap, which every caller goes through
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli.engine._worker_count(64) == 2
    assert capsys.readouterr().err == (
        "skolemgen: 64 workers requested but 2 CPU(s) available; using 2\n"
    )
    assert cli.engine._worker_count(2) == 2
    assert cli.engine._worker_count(1) == 1
    assert capsys.readouterr().err == ""
    # the pool forks its workers, so without os.fork one worker walks in process
    monkeypatch.delattr(os, "fork")
    assert cli.engine._worker_count(2) == 1
    assert capsys.readouterr().err == "skolemgen: 2 workers requested but 1 CPU(s) available; using 1\n"


_CAPPED = "skolemgen: 3 workers requested but 1 CPU(s) available; using 1\n"


def test_capped_count_open_runs_one_worker_in_process(monkeypatch, capsys):
    run(["count-open", "--max-n", "9"])
    one_worker = capsys.readouterr().out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run(["count-open", "--max-n", "9", "--workers", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == one_worker
    assert captured.err == _CAPPED
    assert_no_child_process()


def test_capped_library_enumeration_runs_one_worker_in_process(monkeypatch, capsys):
    # a library call is capped as the command line is
    one_worker = [s.values for s in enumerate_skolem(5)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert [s.values for s in cli.engine.parallel_enumerate(5, True, 3)] == one_worker
    assert capsys.readouterr().err == _CAPPED
    assert_no_child_process()


# ---------------------------------------------------------------------------
# one grammar: the token scanner against a per-token reference

def _reference_entries(text):
    """The comma grammar token by token, one Entry per token."""
    text = text.strip()
    if not text:
        return ()
    entries = []
    for raw in text.split(","):
        tok = raw.strip()
        is_open = tok.startswith("*")
        body = tok[1:] if is_open else tok
        if not (body.isascii() and body.isdigit()):
            raise InvalidSequenceError(f"parse: bad token {tok!r}")
        if len(body) > 4300:  # int()'s default digit limit
            raise InvalidSequenceError(f"parse: over-long token of {len(body)} digits")
        value = int(body)
        if value < 1:
            raise InvalidSequenceError(f"parse: non-positive value in token {tok!r}")
        entries.append(Entry(value, is_open))
    return tuple(entries)


def _reference_closed_values(text):
    entries = _reference_entries(text)
    if any(e.is_open for e in entries):
        raise InvalidSequenceError("open: sequence still contains open arcs")
    return tuple(e.value for e in entries)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:  # InvalidSequenceError, or an escape from int()
        return type(exc).__name__, str(exc)


GRAMMAR_TOKENS = [
    "1", "3", "12", "0", "00", "01", " 3 ", "\t7", "", " ", "*3", "*1", "*0", "*01",
    "* 3", "**3", "*", "*x", "x", "3a", "1.5", "-1", "+2", "*+3", "1_0", "\u0663", "\u00b2",
    "1 2", "#", "10", "99", "236", "1000",
]


# the fixture only saves and restores the table; each example sets its own
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS) | st.text(max_size=4), max_size=12))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_closed_values_matches_the_per_token_reference(numerals, tokens):
    # an empty table sees only numerals up to 6 here; the warm one holds
    # every numeral of GRAMMAR_TOKENS
    text = ",".join(tokens)
    expected = _outcome(_reference_closed_values, text)
    for state in ("cold", "warm"):
        numerals(state)
        assert _outcome(cli._closed_values, text) == expected
        assert _outcome(lambda t: tuple(map(Entry, *parse_entries(t))), text) == _outcome(_reference_entries, text)


@pytest.mark.parametrize("text", [
    "\u0663", "+2", "1_0", "0", "01", " 3 ", "", "3,,4", ",,", "*3", "3,*x", "*3,x", "*3,0", "*3,+2,*1",
    "01,1", "1,", "1 ,1", "1,01", "0,1", " 1,1", "1,1 ", "*1,1", "1,,1", "2,2", "1000,1001",
])
def test_closed_values_named_cases(numerals, text):
    # "2,2" holds a value one past what it grows an empty table to, and
    # "1000,1001" one past the warm table
    for state in ("cold", "warm"):
        numerals(state)
        assert _outcome(cli._closed_values, text) == _outcome(_reference_closed_values, text)


@pytest.mark.parametrize("head", ["0", "+2", "*1", "1"])
def test_a_body_past_the_int_digit_limit_keeps_the_first_error(head):
    # int() refuses more than 4,300 digits; a bad token before such a body
    # is still the one named, and with none the body is named over-long
    text = head + "," + "1" * 5000
    assert _outcome(cli._closed_values, text) == _outcome(_reference_closed_values, text)


@pytest.mark.parametrize("limit", [None, 0], ids=["default limit", "no limit"])
def test_a_5000_digit_body_follows_the_int_digit_limit(numerals, limit):
    # no table holds a 5,000-digit numeral, so the general scanner takes the
    # line: past int()'s limit its token walk names the body, and with the
    # limit lifted its one-pass path takes it
    text = "1" * 5000 + ",1"
    saved = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        got = []
        for state in ("cold", "warm"):
            numerals(state)
            got.append(_outcome(cli._closed_values, text))
        expected = (
            ("InvalidSequenceError", "parse: over-long token of 5000 digits")
            if limit is None
            else ("ok", (int("1" * 5000), 1))
        )
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == [expected, expected]
