"""Command-line front end: output formats, exit codes, determinism, and the
arc-diagram renderer."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skolemgen import cli
from skolemgen.core import SkolemSequence, parse_state
from skolemgen.engine import enumerate_skolem
from skolemgen.render import render_arc_diagram
from skolemgen.sts import develop_sts, base_blocks


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


def test_count_open_resource_failure(monkeypatch, capsys):
    def exploding(max_order, method="dfs"):
        yield 1
        raise MemoryError("synthetic")

    monkeypatch.setattr(cli.engine, "iter_open_counts", exploding)
    assert run(["count-open", "--max-n", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "n=1 count=1\n"  # partial line survives
    assert "resource" in captured.err


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


def test_enumerate_workers_env_fallback(monkeypatch, capsys):
    run(["enumerate", "--order", "4"])
    sequential = capsys.readouterr().out
    monkeypatch.setenv("SKOLEMGEN_WORKERS", "2")
    assert run(["enumerate", "--order", "4"]) == 0
    assert capsys.readouterr().out == sequential


def test_enumerate_bad_workers_env_falls_back(monkeypatch, capsys):
    monkeypatch.setenv("SKOLEMGEN_WORKERS", "many")
    assert run(["enumerate", "--order", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1,1\n"
    assert "SKOLEMGEN_WORKERS" in captured.err


def test_two_runs_byte_identical(capsys):
    run(["enumerate", "--order", "5", "--format", "ndjson"])
    first = capsys.readouterr().out
    run(["enumerate", "--order", "5", "--format", "ndjson"])
    assert capsys.readouterr().out == first


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


def test_sts_argument_validation():
    assert run(["sts"]) == 2
    assert run(["sts", "--sequence", "1,1", "--order", "4"]) == 2
    assert run(["sts", "--order", "4", "--index", "-1"]) == 2
    assert run(["sts", "--sequence", "1,1", "--x", "9"]) == 2  # x beyond 6n


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
    assert rec.kind == "skolem" and rec.order == 4
    assert rec.parse() == seq

    state = parse_state("*7,4,1,1,*3,4,*1")
    rec = cli.OutputRecord.for_state(state)
    assert rec.parse() == state

    rec = cli.OutputRecord.for_count(5, 20)
    assert rec.payload == "n=5 count=20"
    assert rec.parse() == (5, 20)

    ts = develop_sts(base_blocks((1, 1), 0), 1)
    rec = cli.OutputRecord.for_system(ts)
    assert rec.order == 7
    assert rec.parse() == ts


def test_record_ndjson_shape():
    rec = cli.OutputRecord.for_sequence(SkolemSequence((1, 1)))
    assert json.loads(rec.ndjson()) == {"order": 1, "values": [1, 1]}


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


def _cli_process(argv, stdin):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "skolemgen.cli", *argv],
        stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize("argv", [["enumerate", "--order", "9"], ["verify"]])
def test_closed_pipe_is_a_normal_exit(tmp_path, argv):
    # both commands print well over a pipe buffer, so closing the read end
    # after one line makes a later write fail with EPIPE
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


def test_count_open_into_closed_pipe_is_a_normal_exit(monkeypatch, capsys):
    # count-open prints too little to outrun a reader, so close the read end
    # before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["count-open", "--max-n", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_worker_count_is_capped_at_available_cpus(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("SKOLEMGEN_WORKERS", raising=False)
    assert cli._resolve_workers(argparse.Namespace(workers=64)) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    monkeypatch.setenv("SKOLEMGEN_WORKERS", "64")
    assert cli._resolve_workers(argparse.Namespace(workers=None)) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert cli._resolve_workers(argparse.Namespace(workers=2)) == 2
    assert cli._resolve_workers(argparse.Namespace(workers=1)) == 1
    assert capsys.readouterr().err == ""
