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
command, and every script in ``scripts/``: it ends a run whose stdout reader
went away with 0 and one that ran out of memory with 3; I/O and invalid-input
failures are reported by the commands, which name the step that failed.
``sts`` takes exactly one of --sequence and --order, and --index only with
--order.
``count-open`` and ``enumerate`` pass --workers (default 1) straight to
``engine.parallel_count`` and ``engine.parallel_enumerate``, which check it
and cap it at the CPUs this process may run on; at one worker these run in
process, and the output is byte-identical for any count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from itertools import islice

from . import engine
from .core import InvalidSequenceError, SkolemSequence, parse_entries, skolem_violation
from .render import render_arc_diagram
from .sts import base_blocks, develop_sts, format_triple_system, verify_sts

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
EXIT_INVALID = 5


@dataclass(frozen=True)
class OutputRecord:
    """One emitted Skolem sequence: its canonical text payload and its order."""

    payload: str
    order: int

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
    out = sys.stdout
    if args.out is not None:
        try:
            out = open(args.out, "w")
        except OSError as exc:
            print(f"skolemgen: cannot open {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    count = 0
    try:
        for seq in engine.parallel_enumerate(args.order, args.prune, args.workers):
            record = OutputRecord.for_sequence(seq)
            line = record.ndjson() if args.format == "ndjson" else record.payload
            out.write(line + "\n")
            count += 1
        out.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            raise  # the reader went away; main() ends the run normally
        print(f"skolemgen: write failed: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"skolemgen: {count} sequence(s) of order {args.order}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    # undecodable bytes reach the grammar as lone surrogates, from a file or stdin
    fh = sys.stdin
    if args.infile is not None:
        try:
            fh = open(args.infile, errors="surrogateescape")
        except OSError as exc:
            print(f"skolemgen: cannot read {args.infile}: {exc}", file=sys.stderr)
            return EXIT_IO
    elif hasattr(fh, "reconfigure"):  # an io.StringIO holds decoded text already
        fh.reconfigure(errors="surrogateescape")
    all_ok = True
    try:
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
    finally:
        if fh is not sys.stdin:
            fh.close()
    return EXIT_OK if all_ok else EXIT_INVALID


def cmd_sts(args) -> int:
    if args.sequence is not None:
        if args.index is not None:
            print("skolemgen: argument --index: not allowed with argument --sequence", file=sys.stderr)
            return EXIT_USAGE
        try:
            w = SkolemSequence(_closed_values(args.sequence))
        except InvalidSequenceError as exc:
            print(f"skolemgen: invalid sequence: {exc}", file=sys.stderr)
            return EXIT_INVALID
    else:
        index = args.index or 0
        if index < 0:
            print(f"skolemgen: --index must be >= 0, got {index}", file=sys.stderr)
            return EXIT_USAGE
        w = next(islice(engine.enumerate_skolem(args.order), index, None), None)
        if w is None:
            print(
                f"skolemgen: no sequence of order {args.order} at index {index}",
                file=sys.stderr,
            )
            return EXIT_INVALID
    try:
        base = base_blocks(w, args.x)
    except ValueError as exc:
        print(f"skolemgen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    system = develop_sts(base, w.order)
    ok = verify_sts(system)
    for a, b, c in base:
        print(f"base ({a},{b},{c})")
    print(format_triple_system(system))
    print("VERIFIED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_render(args) -> int:
    try:
        text = render_arc_diagram(args.sequence, args.format)
    except InvalidSequenceError as exc:
        print(f"skolemgen: invalid sequence: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"skolemgen: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
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
    """Return ``func(*args)``, an exit code, with stdout flushed; a reader of
    stdout that went away (``| head``) ends the run with EXIT_OK, and running
    out of memory ends it with EXIT_RESOURCE."""
    try:
        code = func(*args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except MemoryError as exc:
        print(f"skolemgen: resource exhaustion: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's final flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_to_stdout(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
