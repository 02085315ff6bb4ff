"""Command-line front end: output formats, exit codes, determinism, and the
arc-diagram renderer."""

import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolemgen import cli
from skolemgen.core import Entry, InvalidSequenceError, SkolemSequence, parse_entries, parse_state
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


def _out_of_memory(*args, **kwargs):
    raise MemoryError("synthetic")


def test_count_open_resource_failure(monkeypatch, capsys):
    # the walk's first heartbeat runs out of memory, before any count exists
    monkeypatch.setattr(cli.engine, "PROGRESS_INTERVAL", 100)
    monkeypatch.setattr(cli.engine, "print", _out_of_memory, raising=False)
    assert run(["count-open", "--max-n", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: resource exhaustion: synthetic\n"


def test_one_worker_never_imports_the_process_pool():
    # the pool, and multiprocessing with it, load only when there are workers
    code = (
        "import sys\n"
        "import skolemgen.cli\n"
        "pool = {'multiprocessing', 'concurrent.futures'}\n"
        "print(sorted(pool & set(sys.modules)))\n"
        "code = skolemgen.cli.main(['count-open', '--max-n', '5', '--workers', '1'])\n"
        "print(code, sorted(pool & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "n=1 count=1", "n=2 count=2", "n=3 count=4", "n=4 count=8", "n=5 count=20", "0 []",
    ]


def test_count_open_resource_failure_in_a_worker(monkeypatch, capsys):
    # forked workers inherit the patch; the pool re-raises their MemoryError
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.engine, "_count_below", _out_of_memory)
    assert run(["count-open", "--max-n", "12", "--workers", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: resource exhaustion: synthetic\n"


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


@pytest.mark.parametrize(
    "target, argv",
    [
        ("engine.enumerate_skolem", ["enumerate", "--order", "9", "--workers", "1"]),
        # forked workers inherit the patch; the pool re-raises their MemoryError
        ("engine._enumerate_subtree", ["enumerate", "--order", "9", "--workers", "2"]),
        ("develop_sts", ["sts", "--sequence", "1,1"]),
        ("engine.enumerate_skolem", ["sts", "--order", "4"]),
        ("skolem_violation", ["verify"]),
        ("render_arc_diagram", ["render", "--sequence", "1,1"]),
    ],
    ids=["enumerate-1", "enumerate-2", "sts-sequence", "sts-order", "verify", "render"],
)
def test_resource_exhaustion_exits_3_for_every_command(monkeypatch, capsys, target, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(f"skolemgen.cli.{target}", _out_of_memory)
    _feed(monkeypatch, "1,1\n")
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skolemgen: resource exhaustion: synthetic\n"


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


_CAPPED = "skolemgen: 3 workers requested but 1 CPU(s) available; using 1\n"


def test_capped_count_open_runs_one_worker_in_process(monkeypatch, capsys):
    run(["count-open", "--max-n", "9"])
    one_worker = capsys.readouterr().out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run(["count-open", "--max-n", "9", "--workers", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == one_worker
    assert captured.err == _CAPPED
    assert multiprocessing.active_children() == []


def test_capped_library_enumeration_runs_one_worker_in_process(monkeypatch, capsys):
    # a library call is capped as the command line is
    one_worker = [s.values for s in enumerate_skolem(5)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert [s.values for s in cli.engine.parallel_enumerate(5, True, 3)] == one_worker
    assert capsys.readouterr().err == _CAPPED
    assert multiprocessing.active_children() == []


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
    "1 2", "#",
]


@given(st.lists(st.sampled_from(GRAMMAR_TOKENS) | st.text(max_size=4), max_size=12))
@settings(max_examples=500, deadline=None)
def test_closed_values_matches_the_per_token_reference(tokens):
    text = ",".join(tokens)
    expected = _outcome(_reference_closed_values, text)
    assert _outcome(cli._closed_values, text) == expected
    assert _outcome(lambda t: tuple(map(Entry, *parse_entries(t))), text) == _outcome(_reference_entries, text)


@pytest.mark.parametrize("text", [
    "\u0663", "+2", "1_0", "0", "01", " 3 ", "", "3,,4", ",,", "*3", "3,*x", "*3,x", "*3,0", "*3,+2,*1",
    "01,1", "1,", "1 ,1",
])
def test_closed_values_named_cases(text):
    assert _outcome(cli._closed_values, text) == _outcome(_reference_closed_values, text)


@pytest.mark.parametrize("head", ["0", "+2", "*1", "1"])
def test_a_body_past_the_int_digit_limit_keeps_the_first_error(head):
    # int() refuses more than 4,300 digits; a bad token before such a body
    # is still the one named, and with none the body is named over-long
    text = head + "," + "1" * 5000
    assert _outcome(cli._closed_values, text) == _outcome(_reference_closed_values, text)


@pytest.mark.parametrize("limit", [None, 0], ids=["default limit", "no limit"])
def test_a_5000_digit_body_follows_the_int_digit_limit(limit):
    # a plain digit line past int()'s limit leaves the one-pass path, and the
    # token walk names it; with the limit lifted the one-pass path takes it
    text = "1" * 5000 + ",1"
    saved = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        got = _outcome(cli._closed_values, text)
        expected = (
            ("InvalidSequenceError", "parse: over-long token of 5000 digits")
            if limit is None
            else ("ok", (int("1" * 5000), 1))
        )
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == expected
