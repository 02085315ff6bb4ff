#!/usr/bin/env python3
"""Tabulate open-sequence counts per order and their growth ratios.

The per-order counts of open Skolem sequences grow by a factor settling
around 3.7-3.8; this script prints the exact counts from one depth-first
pass (``count_open_levels``), the ratios, and the time the pass took, so a
regression in either the walker or its asymptotics is visible at a glance.

    python3 scripts/open_level_growth.py --max-n 15
"""

import argparse
import sys
import time

from skolemgen.cli import run_to_stdout
from skolemgen.engine import count_open_levels


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=14)
    args = ap.parse_args(argv)
    if args.max_n < 1:
        ap.error("--max-n must be >= 1")

    print(f"{'n':>3} {'count':>12} {'ratio':>7}")
    prev = None
    t_start = time.perf_counter()
    for n, count in enumerate(count_open_levels(args.max_n), start=1):
        ratio = f"{count / prev:.3f}" if prev else "-"
        print(f"{n:>3} {count:>12} {ratio:>7}")
        prev = count
    print(f"total {time.perf_counter() - t_start:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
