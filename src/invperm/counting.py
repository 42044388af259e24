"""Exact counting of permutations of [n] by number of inversions.

The central object is the table of counts s(n, m) = #{permutations of [n]
with exactly m inversions}, kept as exact Python integers.  Everything
downstream (uniform sampling, transition-probability solving) consumes
ratios of these counts, so no floating point is allowed here.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import mul, sub
from typing import Iterator

_MAGIC = b"IVTB"
_FORMAT_VERSION = 1

# cells ``build_table`` agrees to fill; the largest table the tests build
# (n = 600 capped at its threshold budget) has about 1.4e6
MAX_TABLE_CELLS = 10**7


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
    Row n' does not depend on max_n, so ``_grow_table`` appends rows to a
    table in place and leaves the stored ones, and their readers, untouched
    (``sampling`` grows the head tables its samplers share).  Reads may run
    alongside a grow; two grows of one table may not.
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


def build_table(max_n: int, m_cap: int | None = None) -> InversionTable:
    """The count table for all n <= max_n, column-capped at ``m_cap`` if
    given: ``_grow_table`` applied to the table of row 0 alone."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if m_cap is not None and m_cap < 0:
        raise ValueError("m_cap must be >= 0")
    table = InversionTable([[1]], m_cap=m_cap)
    _grow_table(table, max_n)
    return table


def _grow_table(table: InversionTable, max_n: int) -> None:
    """Append rows by the one-row recurrence until ``table`` holds max_n.

    s(n, m) = sum of s(n-1, m-i) over i = 0..n-1, evaluated with a sliding
    window, s(n, m) = s(n, m-1) + s(n-1, m) - s(n-1, m-n): a row is the
    running sum of s(n-1, m) - s(n-1, m-n), so each cell costs O(1)
    big-integer additions, done in ``itertools`` rather than a Python
    loop.  A column-capped table truncates every row at its cap (the
    recurrence never looks right of the cap).

    Rows are symmetric, s(n, m) = s(n, C(n,2) - m), by the reflection
    x_i -> (i-1) - x_i.  So a row whose width passes C(n,2)/2 is summed
    only up to floor(C(n,2)/2), and each entry m above that is the very
    int object stored at C(n,2) - m: such a row costs half the additions
    and about half the memory, and readers see the same values, length
    and interface.  A grown size of more than ``MAX_TABLE_CELLS`` cells is
    refused before anything is allocated, leaving the table as it was; a
    max_n the table already holds changes nothing.
    """
    if max_n <= table.max_n:
        return
    cells = table_cells(max_n, table.m_cap)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"table max_n={max_n}, m_cap={table.m_cap} has {cells} cells, "
            f"above {MAX_TABLE_CELLS}"
        )
    rows = table._rows
    for n in range(table.max_n + 1, max_n + 1):
        prev = rows[n - 1]
        width = _row_width(n, table.m_cap)
        diffs = map(sub, chain(prev, repeat(0)), chain(repeat(0, n), prev))
        row = list(accumulate(islice(diffs, min(width, max_inversions(n) // 2 + 1))))
        row += _mirror(row, n, width)
        rows.append(row)
        table.max_n = n


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
    """Write a versioned binary cache of the table.

    Layout (all little-endian): magic ``IVTB``, u32 format version,
    u32 max_n, u64 m_cap (2**64-1 meaning uncapped); then per row a u64
    entry count followed by length-prefixed (u64) big-integer bytes.
    """
    cap = (1 << 64) - 1 if table.m_cap is None else table.m_cap
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIQ", _FORMAT_VERSION, table.max_n, cap))
        for n in range(table.max_n + 1):
            row = table._rows[n]
            fh.write(struct.pack("<Q", len(row)))
            for value in row:
                blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)


def load_table(path: str) -> InversionTable:
    """Read a cache produced by :func:`save_table`, validating the header.

    A malformed or truncated cache (a value length past the size of a
    regular file is refused unread), a row whose entry count is not the
    min(C(n,2), m_cap) + 1 that ``build_table`` stores, or a row whose
    entries m above C(n,2)/2 differ from those at C(n,2) - m raises
    ``ValueError``.  Those entries then share the int objects at
    C(n,2) - m, as in a built table.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        # no value is longer than a regular file; a pipe's length is unknown
        size = info.st_size if stat.S_ISREG(info.st_mode) else math.inf
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not an inversion-table cache (magic {magic!r})")
        try:
            version, max_n, cap = struct.unpack("<IIQ", fh.read(16))
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported cache format version {version}")
            m_cap = None if cap == (1 << 64) - 1 else cap
            rows = []
            for n in range(max_n + 1):
                (nentries,) = struct.unpack("<Q", fh.read(8))
                width = _row_width(n, m_cap)
                if nentries != width:
                    raise ValueError(f"cache row {n} has {nentries} entries, expected {width}")
                row = []
                for _ in range(nentries):
                    (nbytes,) = struct.unpack("<Q", fh.read(8))
                    blob = fh.read(nbytes) if nbytes <= size else b""
                    if len(blob) != nbytes:
                        raise ValueError(f"truncated inversion-table cache: {nbytes}-byte value")
                    row.append(int.from_bytes(blob, "little"))
                mirror = _mirror(row, n, width)
                half = width - len(mirror)
                if row[half:] != mirror:
                    raise ValueError(
                        f"cache row {n} is not symmetric: s({n}, m) differs from "
                        f"s({n}, {max_inversions(n)} - m)"
                    )
                row[half:] = mirror
                rows.append(row)
        except struct.error as exc:
            raise ValueError(f"truncated inversion-table cache ({exc})") from None
    return InversionTable(rows, m_cap=m_cap)
