"""Default output stays fixed: the SHA-256 of stdout, and the exit code, of
each listed command, recorded before ``run_to_stdout`` took over the
commands' MemoryError handling.  The commands that read input (``verify``
on stdin, ``sts --sequence``) were recorded before the parser's one-pass
path for plain digit lines and the one-call STS text.  A digest that
changes is a change of the output format.  Only stdout is hashed: on a
one-CPU host the two-worker commands also warn on stderr that the worker
count was capped."""

import hashlib
import io
import sys

import pytest

from skolemgen import cli

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    ("enumerate --order 1 --workers 1", 0, "660d27866c015bac26537ee8c3f4d4bd0822c690b976244961d61951e88520fb"),
    ("enumerate --order 2 --workers 1", 0, EMPTY),
    ("enumerate --order 3 --workers 1", 0, EMPTY),
    ("enumerate --order 4 --workers 1", 0, "ce4a9d4187cef04df4840167632cfc6ae1e6eab62b362afa97d89370ffdd2ac8"),
    ("enumerate --order 5 --workers 1", 0, "9a5fa3e725ddf6468e81374c931dd3eca28b4067f43cc3b0512dd87ec8f428d3"),
    ("enumerate --order 6 --workers 1", 0, EMPTY),
    ("enumerate --order 7 --workers 1", 0, EMPTY),
    ("enumerate --order 8 --workers 1", 0, "062b7f97cf56467ac53a3a355002957a0a6c064a5d5f589dc2d94c8db089cff9"),
    ("enumerate --order 9 --workers 1", 0, "d732847e451d12c0f9d65ffc09a3794e0bb4c3d5922411461a7f588a06e3def8"),
    ("enumerate --order 10 --workers 1", 0, EMPTY),
    ("enumerate --order 1 --workers 2", 0, "660d27866c015bac26537ee8c3f4d4bd0822c690b976244961d61951e88520fb"),
    ("enumerate --order 2 --workers 2", 0, EMPTY),
    ("enumerate --order 3 --workers 2", 0, EMPTY),
    ("enumerate --order 4 --workers 2", 0, "ce4a9d4187cef04df4840167632cfc6ae1e6eab62b362afa97d89370ffdd2ac8"),
    ("enumerate --order 5 --workers 2", 0, "9a5fa3e725ddf6468e81374c931dd3eca28b4067f43cc3b0512dd87ec8f428d3"),
    ("enumerate --order 6 --workers 2", 0, EMPTY),
    ("enumerate --order 7 --workers 2", 0, EMPTY),
    ("enumerate --order 8 --workers 2", 0, "062b7f97cf56467ac53a3a355002957a0a6c064a5d5f589dc2d94c8db089cff9"),
    ("enumerate --order 9 --workers 2", 0, "d732847e451d12c0f9d65ffc09a3794e0bb4c3d5922411461a7f588a06e3def8"),
    ("enumerate --order 10 --workers 2", 0, EMPTY),
    ("enumerate --format ndjson --order 1", 0, "e917c147e7f5c92326540da57b5391ebed91baf31b9677835bbccf3d215f24c8"),
    ("enumerate --format ndjson --order 2", 0, EMPTY),
    ("enumerate --format ndjson --order 3", 0, EMPTY),
    ("enumerate --format ndjson --order 4", 0, "a787bbf0c3ca2e4aab3f2de4a0436e28bca16f1a25c213d6f09909679e2e6e7d"),
    ("enumerate --format ndjson --order 5", 0, "3a805131fc2e86762279d44de480074ebaa4ae8c6c0566ebf89ca74dd995bfcd"),
    ("enumerate --format ndjson --order 6", 0, EMPTY),
    ("enumerate --format ndjson --order 7", 0, EMPTY),
    ("enumerate --format ndjson --order 8", 0, "022b98cc9ba5f6d643fd14ae8a2e8026104b0db0d015f50e345e41c34cd1b933"),
    ("enumerate --format ndjson --order 9", 0, "d20aa92edf473508350e9223a5b55f5f261f48054b20e2aa017a47a2ea0137c9"),
    ("enumerate --no-prune --order 1", 0, "660d27866c015bac26537ee8c3f4d4bd0822c690b976244961d61951e88520fb"),
    ("enumerate --no-prune --order 2", 0, EMPTY),
    ("enumerate --no-prune --order 3", 0, EMPTY),
    ("enumerate --no-prune --order 4", 0, "ce4a9d4187cef04df4840167632cfc6ae1e6eab62b362afa97d89370ffdd2ac8"),
    ("enumerate --no-prune --order 5", 0, "9a5fa3e725ddf6468e81374c931dd3eca28b4067f43cc3b0512dd87ec8f428d3"),
    ("enumerate --no-prune --order 6", 0, EMPTY),
    ("count-open --max-n 3 --workers 1", 0, "5fefb864d57d0834cd6aa52468964a3f4da4ae37a0bf594357da5f9e7e72331b"),
    ("count-open --max-n 3 --workers 2", 0, "5fefb864d57d0834cd6aa52468964a3f4da4ae37a0bf594357da5f9e7e72331b"),
    ("count-open --max-n 14 --workers 1", 0, "6ae4bda1c241c2b421aff4977e234a60db17f797ccff2205579c7f7a0c822610"),
    ("count-open --max-n 14 --workers 2", 0, "6ae4bda1c241c2b421aff4977e234a60db17f797ccff2205579c7f7a0c822610"),
    ("sts --order 17", 0, "83214224237c85053fce1625f224e51960e7009b6d908956b7f0a3a00d4c88bc"),
    ("sts --order 21", 0, "f65d611e44918af42a9f56d42e6f05387882bbe16438658038ebe6277a8e13f9"),
    ("sts --order 8 --index 503", 0, "e566ec3dde74ac25e6e8fd4e6a9cd61ad20d4b6c27332badd1cea2a35104ad85"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_stdout_is_byte_identical(capsys, command, code, digest):
    try:
        got = cli.main(command.split())
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _skolem_4s(order):
    """A Skolem sequence of order 4s (s >= 2), from its 1-based position pairs."""
    s = order // 4
    pairs = [(4 * s + r - 1, 8 * s - r + 1) for r in range(1, 2 * s + 1)]
    pairs += [(r, 4 * s - r - 1) for r in range(1, s - 1)]
    pairs += [(s + r + 1, 3 * s - r) for r in range(1, s - 1)]
    pairs += [(s - 1, 3 * s), (s, s + 1), (2 * s, 4 * s - 1), (2 * s + 1, 6 * s)]
    values = [0] * (2 * order)
    for a, b in pairs:
        values[a - 1] = values[b - 1] = b - a
    return ",".join(map(str, values))


ORDER_12 = "12,10,8,6,11,9,7,1,1,6,8,10,12,7,9,11,5,2,4,2,3,5,4,3"

# Every FAIL tag verify can print (``empty`` and ``value`` cannot come from a
# line: a non-blank line has a token, and the grammar takes only positive
# values), OK lines, and the edges of the grammar: a "*" token, whitespace
# around tokens, a non-ASCII digit, leading zeros, empty tokens, and bodies
# at and over int()'s default limit of 4,300 digits.
VERIFY_INPUT = "\n".join([
    "4,2,3,2,4,3,1,1",
    "1,1",
    ORDER_12,
    _skolem_4s(100),
    "1,1,1",
    "2,2",
    "1,2,1,2",
    "*2,1,1,*1",
    "3,*x",
    " 1 , 1 ",
    "1\t,\t1",
    "",
    "   ",
    "\u0663,1",
    "1,\uff11",
    "01,01",
    "001,1,1",
    "0,0",
    "00,1",
    "1,,1",
    "1,1,",
    ",1,1",
    "1" * 4300 + ",1",
    "1" * 4301 + ",1",
    "1" * 5000 + ",1",
    "x," + "1" * 5000,
]) + "\n"

GOLDEN_WITH_INPUT = [
    ("verify", ["verify"], VERIFY_INPUT, 5, "9477866cf1d33c905c7f5ade6405c4d324802d8cee7ebd43e858f0e4c2236a82"),
    ("sts --sequence <order 12> --x 5", ["sts", "--sequence", ORDER_12, "--x", "5"], "", 0,
     "474d5093c45f09948167f8dd50991a76e65d4335a9e84402457d3e1a1afd1720"),
    ("sts --sequence <order 100> --x 7", ["sts", "--sequence", _skolem_4s(100), "--x", "7"], "", 0,
     "19818745cb8b5801085de62ef96b368ab2000d00855f942bc854c353e60d3924"),
]


@pytest.mark.parametrize("argv, stdin, code, digest", [row[1:] for row in GOLDEN_WITH_INPUT],
                         ids=[row[0] for row in GOLDEN_WITH_INPUT])
def test_stdout_is_byte_identical_with_input(capsys, monkeypatch, argv, stdin, code, digest):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    got = cli.main(argv)
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
