"""Exact counting of permutations of [n] by number of inversions.

The central object is the table of counts s(n, m) = #{permutations of [n]
with exactly m inversions}, kept as exact Python integers.  Everything
downstream (uniform sampling, transition-probability solving) consumes
ratios of these counts, so no floating point is allowed here.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import sub

_MAGIC = b"IVTB"
_FORMAT_VERSION = 1


def max_inversions(n: int) -> int:
    """Largest possible inversion count of a permutation of [n]."""
    return n * (n - 1) // 2


class InversionTable:
    """Dense rows of exact counts s(n', m) for 1 <= n' <= max_n.

    Row n' has entries for m = 0..C(n',2), or up to ``m_cap`` when the
    table was built column-capped (large n' only needs small budgets).
    """

    def __init__(self, rows: list[list[int]], m_cap: int | None = None):
        self._rows = rows
        self.max_n = len(rows) - 1
        self.m_cap = m_cap

    def row(self, n: int) -> list[int]:
        """All counts s(n, 0..C(n,2)) as a list (copy)."""
        if not 0 <= n <= self.max_n:
            raise ValueError(f"row {n} outside table range 0..{self.max_n}")
        if self.m_cap is not None and self.m_cap < max_inversions(n):
            raise ValueError(f"row {n} is column-capped at {self.m_cap}")
        return list(self._rows[n])

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

    def covers(self, n: int, m: int) -> bool:
        """True when s(n', m') is stored for all n' <= n, m' <= m."""
        return n <= self.max_n and (self.m_cap is None or m <= self.m_cap)


def build_table(max_n: int, m_cap: int | None = None) -> InversionTable:
    """Fill the count table for all n <= max_n by the one-row recurrence.

    s(n, m) = sum of s(n-1, m-i) over i = 0..n-1, evaluated with a sliding
    window, s(n, m) = s(n, m-1) + s(n-1, m) - s(n-1, m-n): a row is the
    running sum of s(n-1, m) - s(n-1, m-n), so each cell costs O(1)
    big-integer additions, done in ``itertools`` rather than a Python
    loop.  ``m_cap`` truncates every row at that column (the recurrence
    never looks right of the cap).
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if m_cap is not None and m_cap < 0:
        raise ValueError("m_cap must be >= 0")
    rows: list[list[int]] = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[n - 1]
        width = max_inversions(n)
        if m_cap is not None:
            width = min(width, m_cap)
        diffs = map(sub, chain(prev, repeat(0)), chain(repeat(0, n), prev))
        rows.append(list(accumulate(islice(diffs, width + 1))))
    return InversionTable(rows, m_cap=m_cap)


def count(table: InversionTable, n: int, m: int) -> int:
    """Lookup s(n, m) with the zero-outside-range convention."""
    return table.count(n, m)


def expected_cuts(table: InversionTable, n: int, m: int) -> Fraction:
    """Exact E[C - 1] over permutations of [n] with m inversions.

    C is the number of blocks.  A cut after position j splits the
    permutation into a permutation of [j] with a inversions and one of
    [n-j] with m - a, every value of the first below every value of the
    second, so E[C - 1] = sum_{0<j<n} sum_a s(j, a) s(n-j, m-a) / s(n, m).
    The table must cover (n, m).
    """
    total = 0
    for j in range(1, n):
        for a in range(min(max_inversions(j), m) + 1):
            other = table.count(n - j, m - a)
            if other:
                total += table.count(j, a) * other
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

    A malformed or truncated cache raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not an inversion-table cache (magic {magic!r})")
        try:
            version, max_n, cap = struct.unpack("<IIQ", fh.read(16))
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported cache format version {version}")
            rows = []
            for _ in range(max_n + 1):
                (nentries,) = struct.unpack("<Q", fh.read(8))
                row = []
                for _ in range(nentries):
                    (nbytes,) = struct.unpack("<Q", fh.read(8))
                    blob = fh.read(nbytes)
                    if len(blob) != nbytes:
                        raise ValueError("truncated inversion-table cache")
                    row.append(int.from_bytes(blob, "little"))
                rows.append(row)
        except struct.error as exc:
            raise ValueError(f"truncated inversion-table cache ({exc})") from None
    m_cap = None if cap == (1 << 64) - 1 else cap
    return InversionTable(rows, m_cap=m_cap)
