#!/usr/bin/env python3
"""Render every Skolem sequence of an order to SVG arc diagrams.

Writes one file per sequence into the output directory, named by the
sequence itself, plus an index.txt listing the canonical enumeration order.

    python3 scripts/render_gallery.py --order 4 --out-dir diagrams/
"""

import argparse
import pathlib
import sys

from skolemgen.cli import run_to_stdout
from skolemgen.engine import enumerate_skolem
from skolemgen.render import render_arc_diagram


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=4)
    ap.add_argument("--out-dir", default="diagrams")
    args = ap.parse_args(argv)
    if args.order < 1:
        ap.error("--order must be >= 1")
    if args.order > 9:
        ap.error("gallery rendering is meant for desk-scale orders (<= 9)")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for seq in enumerate_skolem(args.order):
        name = f"skolem-{args.order}-" + "-".join(map(str, seq.values)) + ".svg"
        (out / name).write_text(render_arc_diagram(seq, "svg"))
        names.append(name)
    (out / "index.txt").write_text("".join(f"{n}\n" for n in names))
    print(f"wrote {len(names)} diagram(s) to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
