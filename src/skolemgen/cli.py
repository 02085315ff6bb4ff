"""Batch command line: counting, enumeration, verification, STS construction,
and arc-diagram rendering.

Subcommands::

    skolemgen count-open --max-n 14
    skolemgen enumerate --order 8 --format ndjson --out seqs.ndjson
    skolemgen verify --in seqs.txt
    skolemgen sts --sequence 3,4,2,3,2,4,1,1 --x 0
    skolemgen render --sequence "*7,4,1,1,*3,4,*1" --format svg --out d.svg

Exit codes: 0 ok, 2 usage, 3 resource exhaustion, 4 I/O failure, 5 invalid
input (including verification failures).  ``run_to_stdout`` runs every
command, and every script in ``scripts/``, and is the one place that turns
a failure into an exit code: a closed pipe, on stdout or on an --out path,
ends the run with 0; any other I/O failure (an OSError) ends it with 4 and
one line naming the error and, when it has one, the path; running out of
memory ends it with 3.  The commands report only usage and invalid-input
failures, and open their files with ``with``.  Every line for stderr goes
through ``engine.note``, which passes over a stderr that cannot be written,
so stderr never changes the exit code.
``sts`` takes exactly one of --sequence and --order, and --index only with
--order; with --order it checks --index and --x before any walk, and for an
order N = 2, 3 (mod 4), where no Skolem sequence exists, it answers at once
without a walk.  ``sts.write_sts`` prints its system one
translate at a time and certifies it from the base blocks' differences, so
neither a list of the v*n blocks nor a v*v pair cover is built.
``count-open`` and ``enumerate`` pass --workers (default 1) straight to
``engine.parallel_count`` and ``engine.leaf_frames``, which check it
and cap it at the CPUs this process may run on; at one worker these run in
process, and the output is byte-identical for any count.  ``enumerate``
takes the leaves in frames, flat lists of the values of k leaves, and
prints each frame with one ``%`` format of k lines and one write; it builds
no object per leaf, as a leaf of the walk is a Skolem sequence by
construction (see ``engine``).  k is the fewest leaves whose text fills
stdout's buffer (``io.DEFAULT_BUFFER_SIZE``), so each frame goes on to the
file at once.  The first frame holds one leaf, so output reaches a reader
no later than line by line, also on an unbuffered stdout (``python -u``).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import nullcontext

from . import engine
from .core import FrozenRecord, InvalidSequenceError, SkolemSequence, parse_entries, skolem_violation
from .engine import note
from .render import render_arc_diagram
from .sts import base_blocks, write_sts

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
EXIT_INVALID = 5


class OutputRecord(FrozenRecord):
    """One emitted Skolem sequence: its canonical text payload and its order."""

    __slots__ = ("payload", "order")

    def __init__(self, payload: str, order: int) -> None:
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "order", order)

    @classmethod
    def for_sequence(cls, seq: SkolemSequence) -> "OutputRecord":
        return cls(str(seq), seq.order)

    def ndjson(self) -> str:
        """One-line JSON form, the {"order","values"} shape."""
        # the payload is the values joined by "," (``for_sequence``); this is
        # json.dumps's text for the same dict, without re-parsing it
        return f'{{"order": {self.order}, "values": [{self.payload.replace(",", ", ")}]}}'


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _output(path: str | None):
    """The file at ``path``, opened for writing, or stdout when there is no
    path, as a context manager that closes only the file."""
    return nullcontext(sys.stdout) if path is None else open(path, "w")


def _closed_values(text: str) -> tuple[int, ...]:
    """Values of a sequence in the text grammar that has no open arcs."""
    values, opens = parse_entries(text)
    if any(opens):
        raise InvalidSequenceError("open: sequence still contains open arcs")
    return tuple(values)


# ---------------------------------------------------------------------------
# subcommands

def cmd_count_open(args) -> int:
    counts = engine.parallel_count(args.max_n, args.workers)
    for n, c in enumerate(counts, start=1):
        print(f"n={n} count={c}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    # The line shape is OutputRecord's, with a %d field in place of each value.
    width = 2 * args.order
    record = OutputRecord(",".join(["%d"] * width), args.order)
    line = (record.ndjson() if args.format == "ndjson" else record.payload) + "\n"
    # Every leaf holds each of 1..N twice, so every line has the same length.
    # A frame of k leaves is the fewest whose text fills stdout's buffer.
    size = -(-io.DEFAULT_BUFFER_SIZE // len(line % (tuple(range(1, args.order + 1)) * 2)))
    frame_line = line * size
    count = 0
    with _output(args.out) as out:
        write = out.write
        for frame in engine.leaf_frames(args.order, args.prune, args.workers, size):
            k = len(frame) // width
            write((frame_line if k == size else line * k) % tuple(frame))
            count += k
        out.flush()
    note(f"skolemgen: {count} sequence(s) of order {args.order}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # undecodable bytes reach the grammar as lone surrogates, from a file or stdin
    if args.infile is not None:
        source = open(args.infile, errors="surrogateescape")
    else:
        if hasattr(sys.stdin, "reconfigure"):  # an io.StringIO holds decoded text already
            sys.stdin.reconfigure(errors="surrogateescape")
        source = nullcontext(sys.stdin)
    all_ok = True
    with source as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                values = _closed_values(line)
                reason = skolem_violation(values)
            except InvalidSequenceError as exc:
                reason = exc
            if reason is None:
                print(f"OK order={len(values) // 2}")
            else:
                print(f"FAIL {reason}")
                all_ok = False
    return EXIT_OK if all_ok else EXIT_INVALID


def cmd_sts(args) -> int:
    if args.sequence is not None:
        if args.index is not None:
            note("skolemgen: argument --index: not allowed with argument --sequence")
            return EXIT_USAGE
        try:
            w = SkolemSequence(_closed_values(args.sequence))
        except InvalidSequenceError as exc:
            note(f"skolemgen: invalid sequence: {exc}")
            return EXIT_INVALID
    else:
        index = args.index or 0
        if index < 0:
            note(f"skolemgen: --index must be >= 0, got {index}")
            return EXIT_USAGE
        if not 0 <= args.x <= 6 * args.order:  # base_blocks's check, made before any walk
            note(f"skolemgen: x must lie in 0..{6 * args.order}, got {args.x}")
            return EXIT_USAGE
        # Skolem (1957): a sequence of order N exists iff N = 0, 1 (mod 4), so
        # no walk is needed to find none.  Counted here, as islice refuses an
        # index past sys.maxsize.
        leaves = enumerate(engine.parallel_leaves(args.order)) if args.order % 4 < 2 else ()
        vals = next((leaf for i, leaf in leaves if i == index), None)
        if vals is None:
            note(f"skolemgen: no sequence of order {args.order} at index {index}")
            return EXIT_INVALID
        w = SkolemSequence(vals)
    try:
        base = base_blocks(w, args.x)
    except ValueError as exc:
        note(f"skolemgen: {exc}")
        return EXIT_USAGE
    ok = write_sts(base, w.order, sys.stdout.write)
    print("VERIFIED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_render(args) -> int:
    try:
        text = render_arc_diagram(args.sequence, args.format)
    except InvalidSequenceError as exc:
        note(f"skolemgen: invalid sequence: {exc}")
        return EXIT_INVALID
    with _output(args.out) as out:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skolemgen",
        description="Exhaustive generation, counting and verification of Skolem sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-open", help="count open Skolem sequences per order")
    p.add_argument("--max-n", type=_positive, required=True, metavar="K")
    p.add_argument("--workers", type=_positive, default=1)
    p.set_defaults(func=cmd_count_open)

    p = sub.add_parser("enumerate", help="list every Skolem sequence of an order")
    p.add_argument("--order", type=_positive, required=True, metavar="N")
    p.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--format", choices=("text", "ndjson"), default="text")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--workers", type=_positive, default=1)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check sequences, one per line")
    p.add_argument("--in", dest="infile", default=None, metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sts", help="build and verify a Steiner triple system")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--sequence", metavar="S")
    source.add_argument("--order", type=_positive, metavar="N")
    p.add_argument("--index", type=int, metavar="I")  # with --order only; default 0
    p.add_argument("--x", type=int, default=0, metavar="X")
    p.set_defaults(func=cmd_sts)

    p = sub.add_parser("render", help="draw a sequence as an arc diagram")
    p.add_argument("--sequence", required=True, metavar="S")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_render)
    return parser


def run_to_stdout(func, *args) -> int:
    """Return ``func(*args)``, an exit code, with stdout flushed, or the exit
    code of its failure, with one line on stderr.

    The reader of stdout or of an output file going away (``| head``, a
    FIFO) ends the run with EXIT_OK.  Any other OSError ends it with
    EXIT_IO.  Running out of memory, or asking for a list or string too long
    to index (an OverflowError, as an order past sys.maxsize does), ends it
    with EXIT_RESOURCE.  What was printed before the failure still reaches
    stdout if stdout takes it.
    """
    try:
        code = func(*args)
        sys.stdout.flush()  # a full or closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        code = EXIT_OK
    except OSError as exc:
        note(f"skolemgen: {exc}")
        code = EXIT_IO
    except (MemoryError, OverflowError) as exc:
        note(f"skolemgen: resource exhaustion: {str(exc) or 'out of memory'}")
        code = EXIT_RESOURCE
    try:
        sys.stdout.flush()
    except OSError:
        # Point stdout at /dev/null so the interpreter's final flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_to_stdout(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
