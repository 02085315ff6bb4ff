"""End-to-end acceptance run.

Each test covers one acceptance criterion and prints exactly one PASS/FAIL
line (visible under ``pytest -s`` or in the captured output of a failing
run), with the key figures inline.
"""

import math
import resource
import time

import pytest

from skolemgen.core import (
    EMPTY_STATE,
    add_closers,
    add_opener,
    children,
    parse_state,
    validate_skolem,
    is_skolem_label,
    parent,
)
from skolemgen.engine import (
    count_open_levels,
    dfs_enumerate,
    enumerate_skolem,
    iter_level_states,
    parallel_count,
)
from skolemgen.oracle import oracle_enumerate
from skolemgen.sts import base_blocks, develop_sts, verify_sts

EXPECTED_OPEN_COUNTS_14 = [
    1, 2, 4, 8, 20, 52, 146, 430, 1306, 4176, 13832, 47452, 169044, 619672,
]

EXPECTED_SKOLEM_COUNTS = {1: 1, 2: 0, 3: 0, 4: 6, 5: 10, 6: 0, 7: 0, 8: 504}


def _verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def counts14():
    t0 = time.perf_counter()
    counts = count_open_levels(14)
    return counts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def order8_unpruned():
    t0 = time.perf_counter()
    report = dfs_enumerate(8, prune=False)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def levels12():
    return list(iter_level_states(12))


def test_criterion_1_open_count_regression(counts14):
    counts, elapsed = counts14
    ok = counts == EXPECTED_OPEN_COUNTS_14 and elapsed < 60.0
    _verdict(
        1,
        "open-count regression",
        ok,
        f"counts(1..14) tail={counts[-3:]} elapsed={elapsed:.2f}s (budget 60s)",
    )


def test_criterion_2_search_space_reduction():
    report = dfs_enumerate(5, prune=False)
    level10 = report.per_level_counts[9]
    summary = report.summary()
    ok = (
        level10 == 4176
        and math.factorial(10) == 3_628_800
        and "4176" in summary
        and "3628800" in summary
    )
    _verdict(
        2,
        "search-space reduction",
        ok,
        f"level-10 states={level10} vs 10!={math.factorial(10)}; both in summary()",
    )


def test_criterion_3_skolem_counts(order8_unpruned):
    got = {n: sum(1 for _ in enumerate_skolem(n)) for n in range(1, 8)}
    report, elapsed = order8_unpruned
    got[8] = report.skolem_count
    t0 = time.perf_counter()
    pruned8 = sum(1 for _ in enumerate_skolem(8, prune=True))
    pruned_elapsed = time.perf_counter() - t0
    ok = (
        got == EXPECTED_SKOLEM_COUNTS
        and elapsed < 120.0
        and pruned8 == 504
        and pruned_elapsed < elapsed
    )
    _verdict(
        3,
        "skolem counts",
        ok,
        f"counts={got} unpruned8={elapsed:.1f}s (budget 120s) pruned8={pruned_elapsed:.2f}s",
    )


def test_criterion_4_oracle_equivalence():
    ok = True
    for n in range(1, 6):
        expected = {s.values for s in oracle_enumerate(n)}
        ok = ok and {s.values for s in enumerate_skolem(n, prune=True)} == expected
        ok = ok and {s.values for s in enumerate_skolem(n, prune=False)} == expected
    member = (3, 4, 2, 3, 2, 4, 1, 1)
    ok = ok and member in {s.values for s in enumerate_skolem(4)}
    _verdict(
        4,
        "oracle equivalence",
        ok,
        f"orders 1..5 pruned+unpruned match oracle; {','.join(map(str, member))} present",
    )


def test_criterion_5_succession_goldens():
    ok = children(parse_state("*1")) == [parse_state("*2,*1"), parse_state("1,1")]
    ok = ok and children(parse_state("*2,*1")) == [
        parse_state("*3,*2,*1"),
        parse_state("*3,1,1"),
        parse_state("2,*2,2"),
    ]
    ok = ok and children(parse_state("1,1")) == [parse_state("1,1,*1")]
    rho5 = parse_state("*5,*4,1,1,*1")
    kids5 = children(rho5)
    ok = ok and kids5 == [
        parse_state("*6,*5,1,1,*2,*1"),
        parse_state("*6,4,1,1,*2,4"),
        parse_state("5,*5,1,1,*2,5"),
    ]
    ok = ok and add_opener(rho5) == parse_state("*6,*5,1,1,*2,*1")
    rho7 = parse_state("*7,4,1,1,*3,4,*1")
    closers7 = add_closers(rho7)
    ok = ok and len(closers7) == 2
    ok = ok and parse_state("7,4,1,1,*4,4,*2,7") in closers7
    ok = ok and parse_state("*8,4,1,1,3,4,*2,3") in closers7
    _verdict(
        5,
        "succession goldens",
        ok,
        "tree start, order-5 three-child node (one blocked), order-7 descendants",
    )


def test_criterion_6_label_recognizer_consistency(levels12):
    checked = 0
    ok = True
    for level in levels12:
        for s in level:
            direct = s.open_count == 0 and validate_skolem(s.values())
            ok = ok and is_skolem_label(s) == direct
            checked += 1
    _verdict(
        6,
        "label recognizer consistency",
        ok,
        f"label test == direct validation on all {checked} states of order <= 12",
    )


def test_criterion_7_sts_reproduction():
    base = base_blocks((3, 4, 2, 3, 2, 4, 1, 1), 0)
    ok = set(base) == {(0, 3, 8), (0, 4, 10), (0, 2, 9), (0, 1, 12)}
    system = develop_sts(base, 4)
    ok = ok and system.v == 25 and len(system.blocks) == 100 and verify_sts(system)
    built = 0
    for order in (4, 5):
        for w in enumerate_skolem(order):
            ok = ok and verify_sts(develop_sts(base_blocks(w, 0), order))
            built += 1
    _verdict(
        7,
        "sts reproduction",
        ok,
        f"known base blocks + verified 25-point system; {built} small systems verified",
    )


def test_criterion_8_property_suite(levels12):
    # unique parent / duplicate-free levels through order 12
    ok = True
    prev = {EMPTY_STATE.entries}
    for level in levels12:
        entries = [s.entries for s in level]
        ok = ok and len(set(entries)) == len(entries)
        ok = ok and all(parent(s).entries in prev for s in level)
        prev = set(entries)
    # reversal closure on every order-4, 5 and 8 sequence
    for order in (4, 5, 8):
        found = {s.values for s in enumerate_skolem(order)}
        ok = ok and {v[::-1] for v in found} == found
    # parallel determinism
    sequential = count_open_levels(12)
    ok = ok and all(parallel_count(12, w) == sequential for w in (1, 2, 4))
    # crude exponential lower bound on the order-8 count
    ok = ok and 504 >= 2 ** (8 // 3) == 4
    _verdict(
        8,
        "property suite",
        ok,
        "unique parents to order 12, reversal closure (4,5,8), worker-count "
        "independence, 504 >= 4",
    )


def test_criterion_9_memory_budget(counts14):
    counts, _ = counts14
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    budget_kb = 1024 * 1024  # 1 GB
    ok = counts[-1] == 619672 and peak_kb < budget_kb
    _verdict(
        9,
        "memory budget",
        ok,
        f"order-14 counting done at {peak_kb / 1024:.0f} MB peak RSS (budget 1024 MB); "
        "depth-first traversal in place of level storage",
    )
