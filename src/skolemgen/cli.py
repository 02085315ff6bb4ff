"""Batch command line: counting, enumeration, verification, STS construction,
and arc-diagram rendering.

Subcommands::

    skolemgen count-open --max-n 14
    skolemgen enumerate --order 8 --format ndjson --out seqs.ndjson
    skolemgen verify --in seqs.txt
    skolemgen sts --sequence 3,4,2,3,2,4,1,1 --x 0
    skolemgen render --sequence "*7,4,1,1,*3,4,*1" --format svg --out d.svg

Exit codes: 0 ok, 2 usage, 3 resource exhaustion, 4 I/O failure, 5 invalid
input (including verification failures).  Worker count comes from --workers,
falling back to the SKOLEMGEN_WORKERS environment variable, defaulting to 1
for byte-reproducible output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import engine
from .core import (
    InvalidSequenceError,
    OpenState,
    SkolemSequence,
    format_state,
    parse_entries,
    skolem_violation,
)
from .render import render_arc_diagram
from .sts import base_blocks, develop_sts, format_triple_system, parse_triple_system, verify_sts

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
EXIT_INVALID = 5


@dataclass(frozen=True)
class OutputRecord:
    """One emitted record: its kind, canonical text payload, and order.

    ``order`` is the sequence order for skolem/open-state/count records and
    the point count for triple systems.  The payload always re-parses to an
    equal object (see ``parse``).
    """

    kind: str  # skolem | open-state | count | sts
    payload: str
    order: int

    @classmethod
    def for_sequence(cls, seq: SkolemSequence) -> "OutputRecord":
        return cls("skolem", str(seq), seq.order)

    @classmethod
    def for_state(cls, state: OpenState) -> "OutputRecord":
        return cls("open-state", format_state(state), state.order)

    @classmethod
    def for_count(cls, n: int, count: int) -> "OutputRecord":
        return cls("count", f"n={n} count={count}", n)

    @classmethod
    def for_system(cls, system) -> "OutputRecord":
        return cls("sts", format_triple_system(system), system.v)

    def parse(self):
        """Rebuild the object the payload denotes."""
        if self.kind == "skolem":
            return SkolemSequence(tuple(int(t) for t in self.payload.split(",")))
        if self.kind == "open-state":
            from .core import parse_state

            return parse_state(self.payload)
        if self.kind == "count":
            n_part, c_part = self.payload.split()
            return (int(n_part.removeprefix("n=")), int(c_part.removeprefix("count=")))
        if self.kind == "sts":
            return parse_triple_system(self.payload)
        raise ValueError(f"unknown record kind {self.kind!r}")

    def ndjson(self) -> str:
        """One-line JSON form; sequences use the {"order","values"} shape."""
        if self.kind == "skolem":
            return json.dumps(
                {"order": self.order, "values": [int(t) for t in self.payload.split(",")]}
            )
        return json.dumps({"kind": self.kind, "order": self.order, "payload": self.payload})


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _resolve_workers(args) -> int:
    """--workers, else SKOLEMGEN_WORKERS, else 1; capped at the CPUs this
    process may run on."""
    workers = args.workers
    env = os.environ.get("SKOLEMGEN_WORKERS")
    if workers is None and env:
        try:
            workers = max(1, int(env))
        except ValueError:
            print(
                f"skolemgen: ignoring non-integer SKOLEMGEN_WORKERS={env!r}",
                file=sys.stderr,
            )
    if workers is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # not every platform has it
        cpus = os.cpu_count() or 1
    if workers > cpus:
        print(
            f"skolemgen: {workers} workers requested but {cpus} CPU(s) available; using {cpus}",
            file=sys.stderr,
        )
        return cpus
    return workers


def _closed_values(text: str) -> tuple[int, ...]:
    """Values of a sequence in the text grammar that has no open arcs."""
    entries = parse_entries(text)
    if any(e.is_open for e in entries):
        raise InvalidSequenceError("open: sequence still contains open arcs")
    return tuple(e.value for e in entries)


# ---------------------------------------------------------------------------
# subcommands

def cmd_count_open(args) -> int:
    workers = _resolve_workers(args)
    try:
        if workers > 1:
            for n, c in enumerate(engine.parallel_count(args.max_n, workers), start=1):
                print(OutputRecord.for_count(n, c).payload)
        else:
            # the depth-first counts all arrive after one pass; each line is
            # flushed so that what was printed survives a later failure
            for n, c in enumerate(engine.iter_open_counts(args.max_n), start=1):
                print(OutputRecord.for_count(n, c).payload, flush=True)
    except (MemoryError, engine.ResourceExhaustedError) as exc:
        print(f"skolemgen: resource exhaustion: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_enumerate(args) -> int:
    workers = _resolve_workers(args)
    out = sys.stdout
    if args.out is not None:
        try:
            out = open(args.out, "w")
        except OSError as exc:
            print(f"skolemgen: cannot open {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    count = 0
    try:
        if workers > 1:
            stream = engine.parallel_enumerate(args.order, args.prune, workers)
        else:
            stream = engine.enumerate_skolem(args.order, args.prune)
        for seq in stream:
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
    if args.infile is not None:
        try:
            fh = open(args.infile)
        except OSError as exc:
            print(f"skolemgen: cannot read {args.infile}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        fh = sys.stdin
    all_ok = True
    try:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                values = _closed_values(line)
            except InvalidSequenceError as exc:
                print(f"FAIL {exc}")
                all_ok = False
                continue
            reason = skolem_violation(values)
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
    if (args.sequence is None) == (args.order is None):
        print(
            "skolemgen: give exactly one of --sequence or --order (with --index)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.sequence is not None:
        try:
            w = SkolemSequence(_closed_values(args.sequence))
        except InvalidSequenceError as exc:
            print(f"skolemgen: invalid sequence: {exc}", file=sys.stderr)
            return EXIT_INVALID
    else:
        if args.index < 0:
            print(f"skolemgen: --index must be >= 0, got {args.index}", file=sys.stderr)
            return EXIT_USAGE
        w = None
        for i, seq in enumerate(engine.enumerate_skolem(args.order)):
            if i == args.index:
                w = seq
                break
        if w is None:
            print(
                f"skolemgen: no sequence of order {args.order} at index {args.index}",
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
    print(OutputRecord.for_system(system).payload)
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
    p.add_argument("--workers", type=_positive, default=None)
    p.set_defaults(func=cmd_count_open)

    p = sub.add_parser("enumerate", help="list every Skolem sequence of an order")
    p.add_argument("--order", type=_positive, required=True, metavar="N")
    p.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--format", choices=("text", "ndjson"), default="text")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--workers", type=_positive, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check sequences, one per line")
    p.add_argument("--in", dest="infile", default=None, metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sts", help="build and verify a Steiner triple system")
    p.add_argument("--sequence", default=None, metavar="S")
    p.add_argument("--order", type=_positive, default=None, metavar="N")
    p.add_argument("--index", type=int, default=0, metavar="I")
    p.add_argument("--x", type=int, default=0, metavar="X")
    p.set_defaults(func=cmd_sts)

    p = sub.add_parser("render", help="draw a sequence as an arc diagram")
    p.add_argument("--sequence", required=True, metavar="S")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader of stdout went away (``| head``): a normal end.  Point
        # stdout at /dev/null so the interpreter's final flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
