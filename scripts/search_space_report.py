#!/usr/bin/env python3
"""Compare the generating-tree search space against brute alternatives.

For a target order N the script runs the exhaustive walk twice -- with and
without feasibility pruning -- and prints per-level visit counts, the number
of Skolem sequences found, the cut ratio (subtrees cut / nodes visited), the
nodes the pruned walk merged with equal ones it expanded before, and how both
compare to the (2N)! permutation space a naive scan would face.

    python3 scripts/search_space_report.py --order 8
"""

import argparse
import math
import sys

from skolemgen.cli import run_to_stdout
from skolemgen.engine import dfs_enumerate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=8)
    ap.add_argument(
        "--skip-unpruned",
        action="store_true",
        help="only run the pruned walk (the unpruned one is slow past order 8)",
    )
    args = ap.parse_args(argv)
    if args.order < 1:
        ap.error("--order must be >= 1")

    n2 = 2 * args.order
    runs = {}
    runs["pruned"] = dfs_enumerate(args.order, prune=True)
    if not args.skip_unpruned:
        runs["unpruned"] = dfs_enumerate(args.order, prune=False)

    print(f"target order {args.order}; permutation space (2n)! = {math.factorial(n2)}")
    for name, report in runs.items():
        total = sum(report.per_level_counts)
        print(
            f"{name}: {report.skolem_count} sequences, "
            f"{total} nodes visited, {report.pruned_nodes} subtrees cut "
            f"(cut ratio {report.pruned_nodes / total:.4f}), "
            f"{report.merged_nodes} merged, {report.elapsed:.2f}s"
        )
    if "unpruned" in runs:
        full = runs["unpruned"]
        cut = runs["pruned"]
        saved = sum(full.per_level_counts) - sum(cut.per_level_counts)
        print(f"pruning and merging saved {saved} node visits")
        print(f"\n{'level':>5} {'unpruned':>12} {'pruned':>12}")
        for i, (a, b) in enumerate(
            zip(full.per_level_counts, cut.per_level_counts), start=1
        ):
            print(f"{i:>5} {a:>12} {b:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
