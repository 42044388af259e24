"""Correctness checks on workload outputs, and a self-test that they bite.

Every check looks only at structural properties of an output (bounds,
sums, equalities between two computations), never at golden hashes or
histograms, so a change to how the samplers consume randomness cannot
make a correct output fail.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from invperm import counting


class Tally:
    """Running count of checks attempted and failed, by check name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] += 1


def histogram_ok(histogram: dict, trials: int) -> bool:
    """A census histogram accounts for every trial exactly once."""
    return sum(histogram.values()) == trials


def inversion_sequence_ok(x, m: int) -> bool:
    """0 <= x_i <= i-1 (1-based i) and sum(x) == m."""
    x = np.asarray(x, dtype=np.int64)
    bounds = np.arange(len(x), dtype=np.int64)
    return bool(np.all(x >= 0) and np.all(x <= bounds)) and int(x.sum()) == m


def step_ok(prev: tuple, nxt: tuple) -> bool:
    """One chain step: exactly one box gains exactly one ball, and the
    new occupancy is still a valid inversion sequence."""
    if len(prev) != len(nxt):
        return False
    moved = [b - a for a, b in zip(prev, nxt) if b != a]
    return moved == [1] and inversion_sequence_ok(nxt, sum(nxt))


def row_width(table: counting.InversionTable, n: int) -> int:
    """Number of stored entries in row n of a (possibly capped) table."""
    top = counting.max_inversions(n)
    return top + 1 if table.m_cap is None else min(top, table.m_cap) + 1


def table_cells(table: counting.InversionTable) -> int:
    return sum(row_width(table, n) for n in range(table.max_n + 1))


def table_rows_equal(built: counting.InversionTable, loaded: counting.InversionTable):
    """Yield one bool per row 1..max_n: the loaded row equals the built one."""
    shape_ok = built.max_n == loaded.max_n and built.m_cap == loaded.m_cap
    for n in range(1, built.max_n + 1):
        yield shape_ok and all(
            built.count(n, m) == loaded.count(n, m)
            for m in range(row_width(built, n))
        )


def self_test() -> list[str]:
    """Feed each check a valid and a deliberately broken output.

    Returns the names of the cases the checks got wrong (empty when every
    check passes the good output and counts a failure on the bad one).
    """
    problems = []

    def expect(name: str, good: bool, bad: bool) -> None:
        tally = Tally()
        tally.check(name, good)
        tally.check(name, bad)
        if (tally.attempted, tally.failed) != (2, 1) or good is not True:
            problems.append(name)

    x = [0, 1, 0, 2, 4]
    expect("census histogram off by one",
           histogram_ok({0: 6, 1: 4}, 10), histogram_ok({0: 6, 1: 3}, 10))
    expect("inversion sequence sum off by one",
           inversion_sequence_ok(x, 7), inversion_sequence_ok(x, 8))
    expect("inversion sequence bound violation",
           inversion_sequence_ok(x, 7), inversion_sequence_ok([0, 2, 0, 1, 4], 7))
    expect("chain step moved two balls",
           step_ok((0, 1, 0), (0, 1, 1)), step_ok((0, 0, 1), (0, 1, 2)))
    expect("chain step out of bounds",
           step_ok((0, 0, 1), (0, 1, 1)), step_ok((0, 1, 0), (0, 2, 0)))

    built = counting.build_table(6, m_cap=9)
    rows = [[built.count(n, m) for m in range(row_width(built, n))]
            for n in range(1, 7)]
    rows[4][3] += 1  # corrupt s(5, 3)
    corrupt = counting.InversionTable([[1]] + rows, m_cap=9)
    expect("mismatched cache row",
           all(table_rows_equal(built, counting.build_table(6, m_cap=9))),
           all(table_rows_equal(built, corrupt)))
    return problems
