"""Exact counting of permutations of [n] by number of inversions.

The central object is the table of counts s(n, m) = #{permutations of [n]
with exactly m inversions}, kept as exact Python integers.  Everything
downstream (uniform sampling, transition-probability solving) consumes
ratios of these counts, so no floating point decides a count here.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import mul, sub
from typing import Iterator

_HEADER = struct.Struct("<4sIIQ")  # a cache: magic, version, max_n, m_cap
_MAGIC = b"IVTB"
_FORMAT_VERSION = 2
_UNCAPPED = (1 << 64) - 1  # the header's m_cap of a table with whole rows

# bytes ``table_bytes`` may estimate for a table ``build_table`` agrees to
# fill; it estimates 1.4e9 for build_table(300) (about 0.5 GB in fact) and
# 3.6e9 for the whole head at (400, 39 900)
MAX_TABLE_BYTES = 2 * 10**9


def max_inversions(n: int) -> int:
    """Largest possible inversion count of a permutation of [n]."""
    return n * (n - 1) // 2


def _row_width(n: int, m_cap: int | None) -> int:
    """Entries stored for row n: min(C(n,2), m_cap) + 1."""
    top = max_inversions(n)
    return top + 1 if m_cap is None else min(top, m_cap) + 1


class InversionTable:
    """Dense rows of exact counts s(n', m) for 1 <= n' <= max_n.

    Row n' has entries for m = 0..C(n',2), or up to ``m_cap`` when the
    table was built column-capped (large n' only needs small budgets).
    The rows are a pure function of (max_n, m_cap), and a cache stores
    those two alone.  Row n' does not depend on max_n, so :meth:`grow`
    appends rows to a table in place and leaves the stored ones, and their
    readers, untouched (``sampling`` grows the head tables its samplers
    share).  Reads may run alongside a grow; two grows of one table may not.
    """

    def __init__(self, rows: list[list[int]], m_cap: int | None = None):
        self._rows = rows
        self.max_n = len(rows) - 1
        self.m_cap = m_cap

    def row(self, n: int) -> list[int]:
        """All counts s(n, 0..C(n,2)) as a list (copy); a capped row raises."""
        return list(self.counts(n, 0, max_inversions(n)))

    def count(self, n: int, m: int) -> int:
        """s(n, m), with s(n, m) = 0 outside 0 <= m <= C(n,2)."""
        if not 1 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 1..{self.max_n}")
        if m < 0 or m > max_inversions(n):
            return 0
        row = self._rows[n]
        if m >= len(row):
            raise ValueError(
                f"s({n},{m}) not stored: table column-capped at {self.m_cap}"
            )
        return row[m]

    def counts(self, n: int, first: int, last: int) -> Iterator[int]:
        """Lazy s(n, first), ..., s(n, last), descending when first > last.

        The range is checked once, here; the iterator reads the stored row
        without copying it.  Both ends must be stored entries, so a column
        past the cap or past C(n,2) raises.
        """
        if not 1 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 1..{self.max_n}")
        row = self._rows[n]
        low, high = (first, last) if first <= last else (last, first)
        if low < 0 or high >= len(row):
            raise ValueError(f"s({n},{first}..{last}) not stored (column cap {self.m_cap})")
        if first <= last:
            return map(row.__getitem__, range(first, last + 1))
        return map(row.__getitem__, range(first, last - 1, -1))

    def unrank(self, n: int, m: int, u: int) -> list[int]:
        """The inversion sequence of [n] with sum m whose rank is u.

        The last coordinate is j for the s(n-1, m-j) values of u from
        sum_{j'<j} s(n-1, m-j') on, j running up from 0; u minus that
        offset ranks the other coordinates with budget m - j, level by
        level, so u in [0, s(n, m)) maps one to one onto the sequences.
        The j with m - j > C(n-1, 2) have empty blocks, so each level
        reads row n-1 downward from min(m, C(n-1, 2)) in one pass.  A u
        outside [0, s(n, m)) and an (n, m) not stored raise ``ValueError``.
        """
        total = self.count(n, m)
        if not 0 <= u < total:
            raise ValueError(f"rank {u} outside [0, s({n},{m})) = [0, {total})")
        rows = self._rows
        x = [0] * n
        budget = m
        level = n
        while budget:
            # k = budget - j indexes row level-1; it starts at
            # min(budget, C(level-1, 2)), spelt without a min() call
            k = (level - 1) * (level - 2) // 2
            if k > budget:
                k = budget
            row = rows[level - 1]
            w = row[k]
            while u >= w:
                u -= w
                k -= 1
                w = row[k]
            level -= 1
            x[level] = budget - k
            budget = k
        return x

    def covers(self, n: int, m: int) -> bool:
        """True when s(n', m') is stored for all n' <= n, m' <= m."""
        return n <= self.max_n and (self.m_cap is None or m <= self.m_cap)

    def grow(self, max_n: int) -> None:
        """Append rows by the one-row recurrence until the table holds max_n.

        s(n, m) = sum of s(n-1, m-i) over i = 0..n-1, evaluated with a
        sliding window, s(n, m) = s(n, m-1) + s(n-1, m) - s(n-1, m-n): a row
        is the running sum of s(n-1, m) - s(n-1, m-n), so each cell costs
        O(1) big-integer additions, done in ``itertools`` rather than a
        Python loop.  A column-capped table truncates every row at its cap
        (the recurrence never looks right of the cap).

        Rows are symmetric, s(n, m) = s(n, C(n,2) - m), by the reflection
        x_i -> (i-1) - x_i.  So a row whose width passes C(n,2)/2 is summed
        only up to floor(C(n,2)/2), and each entry m above that is the very
        int object stored at C(n,2) - m: such a row costs half the additions
        and about half the memory, and readers see the same values, length
        and interface.  A grown table whose :func:`table_bytes` estimate is
        above ``MAX_TABLE_BYTES`` is refused before anything is allocated,
        leaving the table as it was; a max_n the table already holds changes
        nothing.
        """
        if max_n <= self.max_n:
            return
        size = table_bytes(max_n, self.m_cap)
        if size > MAX_TABLE_BYTES:
            raise ValueError(
                f"table max_n={max_n}, m_cap={self.m_cap} may take {size:.3g} bytes, "
                f"above {MAX_TABLE_BYTES:.3g}"
            )
        rows = self._rows
        for n in range(self.max_n + 1, max_n + 1):
            prev = rows[n - 1]
            width = _row_width(n, self.m_cap)
            diffs = map(sub, chain(prev, repeat(0)), chain(repeat(0, n), prev))
            row = list(accumulate(islice(diffs, min(width, max_inversions(n) // 2 + 1))))
            row += _mirror(row, n, width)
            rows.append(row)
            self.max_n = n


def table_cells(max_n: int, m_cap: int | None = None) -> int:
    """Cells of ``build_table(max_n, m_cap)``: sum of min(C(n,2), m_cap) + 1.

    Rows up to full = the largest n with C(n,2) <= m_cap are whole and
    hold C(full+1, 3) + full + 1 cells in all; each later row holds
    m_cap + 1.
    """
    full = max_n
    if m_cap is not None:
        full = min(max_n, (1 + math.isqrt(1 + 8 * m_cap)) // 2)
    return math.comb(full + 1, 3) + max_n + 1 + (max_n - full) * (m_cap or 0)


def table_bytes(max_n: int, m_cap: int | None = None) -> int:
    """Upper estimate of the memory of ``build_table(max_n, m_cap)``.

    Every cell is counted as a list slot and an int as wide as the largest
    count of row max_n, which bounds every count of the table: s(n, m) is
    at most n!, and at most the C(m+n-1, n-1) compositions of m into n
    parts, both non-decreasing in n.  The width comes from ``lgamma``; a
    float only sizes this bound and never decides a count.  Shared mirror
    halves are counted twice: a whole table holds about 35 % of the
    estimate, ``build_table(500, m_cap=2120)`` about half.
    """
    log_top = math.lgamma(max_n + 1)
    if m_cap is not None:
        log_comb = math.lgamma(m_cap + max_n) - math.lgamma(m_cap + 1) - math.lgamma(max_n)
        log_top = min(log_top, log_comb)
    digits = int(log_top / math.log(2)) // 30 + 1  # an int holds 30 bits a 4-byte digit
    return table_cells(max_n, m_cap) * (40 + 4 * digits)  # 8-byte slot, 32-byte int head


def build_table(max_n: int, m_cap: int | None = None) -> InversionTable:
    """The count table for all n <= max_n, column-capped at ``m_cap`` if
    given: :meth:`InversionTable.grow` applied to the table of row 0 alone."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if m_cap is not None and m_cap < 0:
        raise ValueError("m_cap must be >= 0")
    table = InversionTable([[1]], m_cap=m_cap)
    table.grow(max_n)
    return table


def _mirror(row: list[int], n: int, width: int) -> list[int]:
    """Entries floor(C(n,2)/2) + 1 .. width - 1 of row n: for each m, the
    int object ``row`` holds at C(n,2) - m, which lies in its first half."""
    top = max_inversions(n)
    return row[top + 1 - width : (top + 1) // 2][::-1]


def expected_cuts(table: InversionTable, n: int, m: int) -> Fraction:
    """Exact E[C - 1] over permutations of [n] with m inversions.

    C is the number of blocks.  A cut after position j splits the
    permutation into a permutation of [j] with a inversions and one of
    [n-j] with m - a, every value of the first below every value of the
    second, so E[C - 1] = sum_{0<j<n} sum_a s(j, a) s(n-j, m-a) / s(n, m).
    The terms of j and n-j are equal (a -> m - a), so each pair is summed
    once, over the a with both counts nonzero.  The table must cover (n, m).
    """
    total = 0
    for j in range(1, n // 2 + 1):
        lo = max(0, m - max_inversions(n - j))
        hi = min(max_inversions(j), m)
        if lo > hi:
            continue
        term = sum(map(mul, table.counts(j, lo, hi), table.counts(n - j, m - lo, m - hi)))
        total += term if 2 * j == n else 2 * term
    return Fraction(total, table.count(n, m))


def mahonian_polynomial(n: int) -> list[int]:
    """Coefficients of prod_{i=0}^{n-1} (1 + x + ... + x^i).

    Expands the product directly by repeated polynomial multiplication;
    serves as an independent oracle for :func:`build_table`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [1]
    for i in range(1, n):
        # multiply by (1 + x + ... + x^i) via prefix sums of width i+1
        out = [0] * (len(coeffs) + i)
        run = 0
        for k in range(len(out)):
            if k < len(coeffs):
                run += coeffs[k]
            if k - i - 1 >= 0:
                run -= coeffs[k - i - 1]
            out[k] = run
        coeffs = out
    return coeffs


def save_table(table: InversionTable, path: str) -> None:
    """Write a cache of a built table: the 20-byte ``_HEADER`` alone.

    A count table is a pure function of (max_n, m_cap), so the cache names
    those two.  A table whose rows are not ``build_table(max_n, m_cap)``'s,
    such as a hand-made one, is refused before anything is written.
    """
    if table._rows != build_table(table.max_n, table.m_cap)._rows:
        raise ValueError(f"rows differ from build_table({table.max_n}, m_cap={table.m_cap})")
    if table.m_cap is not None and table.m_cap >= _UNCAPPED:
        raise ValueError(f"m_cap={table.m_cap} does not fit a cache header")
    cap = _UNCAPPED if table.m_cap is None else table.m_cap
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, table.max_n, cap))


def load_table(path: str) -> InversionTable:
    """``build_table`` of the (max_n, m_cap) a :func:`save_table` cache names.

    A bad magic, a version other than 2 (version 1 stored every count), or
    a file shorter or longer than the header raises ``ValueError``, and
    ``build_table`` refuses a bad or oversized header before it allocates.
    """
    with open(path, "rb") as fh:
        data = fh.read(_HEADER.size + 1)
    if data[:4] != _MAGIC:
        raise ValueError(f"not an inversion-table cache (magic {data[:4]!r})")
    if len(data) < _HEADER.size:
        raise ValueError(f"truncated inversion-table cache: {len(data)} of 20 header bytes")
    _, version, max_n, cap = _HEADER.unpack_from(data)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported cache format version {version}")
    if len(data) > _HEADER.size:
        raise ValueError("inversion-table cache has bytes past its 20-byte header")
    return build_table(max_n, None if cap == _UNCAPPED else cap)
