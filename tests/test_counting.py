import itertools
import math
import os
import struct
import threading

import pytest

from invperm import counting
from invperm.counting import (
    InversionTable,
    build_table,
    load_table,
    mahonian_polynomial,
    max_inversions,
    save_table,
    table_cells,
)

TABLE40 = build_table(40)


def brute_force_counts(n: int) -> list[int]:
    """Bin all n! permutations by inversion number (independent oracle)."""
    out = [0] * (max_inversions(n) + 1)
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        out[inv] += 1
    return out


def test_known_small_values():
    assert TABLE40.row(3) == [1, 2, 2, 1]
    assert TABLE40.count(4, 2) == 5
    assert TABLE40.count(4, 3) == 6
    assert TABLE40.count(5, 10) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_rows_match_exhaustive_enumeration(n):
    assert TABLE40.row(n) == brute_force_counts(n)


def test_count_boundary_convention():
    assert TABLE40.count(4, -1) == 0
    assert TABLE40.count(4, 7) == 0
    assert TABLE40.count(3, 1) == 2
    with pytest.raises(ValueError):
        TABLE40.count(41, 0)
    with pytest.raises(ValueError):
        TABLE40.count(0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 15, 40])
def test_polynomial_oracle_matches_table(n):
    """Every row of ``build_table(n, m_cap)`` is the polynomial's prefix,
    for caps on both sides of C(n,2)/2, where rows start to be mirrored,
    and at C(n,2)."""
    assert mahonian_polynomial(n) == TABLE40.row(n)
    top = max_inversions(n)
    caps = {top // 2 - 1, top // 2, top // 2 + 1, top - 1, top, None} - {-1}
    polynomials = [[1]] + [mahonian_polynomial(k) for k in range(1, n + 1)]
    for m_cap in caps:
        stop = None if m_cap is None else m_cap + 1
        assert build_table(n, m_cap)._rows == [p[:stop] for p in polynomials]


def test_polynomial_base_case():
    assert mahonian_polynomial(1) == [1]
    assert mahonian_polynomial(3) == [1, 2, 2, 1]


@pytest.mark.parametrize("n", range(1, 41))
def test_row_invariants(n):
    row = TABLE40.row(n)
    top = max_inversions(n)
    assert row[0] == 1 and row[top] == 1
    assert sum(row) == math.factorial(n)
    for m in range(top + 1):
        assert row[m] == row[top - m]
    # the upper half is the lower half's int objects, not equal copies
    assert all(row[m] is row[top - m] for m in range(top // 2 + 1, top + 1))
    for m in range(1, top):
        assert row[m - 1] * row[m + 1] <= row[m] ** 2


def test_column_capped_build_matches_prefix():
    capped = build_table(25, m_cap=17)
    for n in range(1, 26):
        width = min(max_inversions(n), 17)
        assert capped._rows[n] == TABLE40.row(n)[: width + 1]
    assert capped.count(10, 17) == TABLE40.count(10, 17)
    with pytest.raises(ValueError):
        capped.count(10, 18)
    # outside the mathematical range still returns 0, cap or not
    assert capped.count(3, 50) == 0


def test_covers():
    capped = build_table(12, m_cap=5)
    assert capped.covers(12, 5)
    assert not capped.covers(12, 6)
    assert not capped.covers(13, 3)
    # an uncapped table covers every budget of every stored row
    assert TABLE40.covers(40, 10**9)


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "table.bin")
    table = build_table(18, m_cap=30)
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.max_n == 18
    assert loaded.m_cap == 30
    assert loaded._rows == table._rows

    full = build_table(9)
    path2 = str(tmp_path / "full.bin")
    save_table(full, path2)
    loaded = load_table(path2)
    assert loaded.row(9) == full.row(9)
    # a loaded row shares its mirrored half as a built one does, also a
    # capped row that passes C(n,2)/2
    for table in (load_table(path), loaded):
        for n in range(1, table.max_n + 1):
            row, top = table._rows[n], max_inversions(n)
            assert all(row[m] is row[top - m] for m in range(top // 2 + 1, len(row)))


def _entry_offset(data: bytes, n: int, m: int) -> int:
    """Where the bytes of s(n, m) start in a cache written by ``save_table``."""
    pos = 4 + 16
    for k in range(n + 1):
        (entries,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        for j in range(entries):
            if (k, j) == (n, m):
                return pos + 8
            (nbytes,) = struct.unpack_from("<Q", data, pos)
            pos += 8 + nbytes
    raise AssertionError(f"s({n},{m}) not in the cache")


def test_cache_rejects_row_whose_halves_differ(tmp_path):
    path = tmp_path / "table.bin"
    save_table(build_table(9), str(path))
    data = bytearray(path.read_bytes())
    # s(7, 12) = s(7, 9) = 531 = 0x0213; make the upper one 0x0214
    at = _entry_offset(data, 7, 12)
    assert data[at : at + 2] == b"\x13\x02"
    data[at] += 1
    path.write_bytes(data)
    with pytest.raises(ValueError, match=r"cache row 7 is not symmetric"):
        load_table(str(path))


def test_counts_agrees_with_count_both_ways():
    capped = build_table(30, m_cap=50)
    for table in (TABLE40, capped):
        for n in (1, 2, 5, 11, 30):
            top = len(table._rows[n]) - 1
            for first, last in [(0, top), (top, 0), (0, 0), (top // 3, top // 2), (top // 2, top // 3)]:
                step = 1 if first <= last else -1
                expected = [table.count(n, m) for m in range(first, last + step, step)]
                assert list(table.counts(n, first, last)) == expected


def test_counts_rejects_unstored_columns():
    capped = build_table(30, m_cap=50)
    with pytest.raises(ValueError, match="not stored"):
        capped.counts(30, 0, 51)
    with pytest.raises(ValueError, match="not stored"):
        capped.counts(30, 51, 0)
    with pytest.raises(ValueError, match="not stored"):
        TABLE40.counts(4, 0, 7)
    for n in (0, 31, -1):
        with pytest.raises(ValueError, match="outside table range"):
            capped.counts(n, 0, 0)
    with pytest.raises(ValueError, match="not stored"):
        capped.counts(5, -1, 3)


@pytest.mark.parametrize("delta", [-3, -1, 1, 2])
def test_cache_rejects_wrong_row_width(tmp_path, delta):
    path = str(tmp_path / "bad.bin")
    rows = [[1]] + [TABLE40.row(k) for k in range(1, 9)]
    rows[6] = rows[6][:delta] if delta < 0 else rows[6] + [0] * delta
    save_table(InversionTable(rows), path)
    with pytest.raises(ValueError, match=f"cache row 6 has {16 + delta} entries, expected 16"):
        load_table(path)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_table(str(path))


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "table.bin"
    save_table(build_table(9), str(path))
    data = path.read_bytes()
    # inside the header, inside an entry length, inside the last integer
    for cut in (10, 30, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            load_table(str(path))


@pytest.mark.parametrize("nbytes", [1 << 62, (1 << 63) + 5, 2**32, None])
def test_cache_rejects_value_length_past_the_end(tmp_path, nbytes):
    """A value's length field is never trusted past the file's end: a huge
    length raises ``ValueError`` before anything of that size is read, as
    does one byte more than is left (``None``)."""
    path = tmp_path / "table.bin"
    save_table(build_table(4), str(path))
    data = bytearray(path.read_bytes())
    at = _entry_offset(data, 0, 0) - 8
    left = len(data) - at - 8
    data[at : at + 8] = struct.pack("<Q", left + 1 if nbytes is None else nbytes)
    path.write_bytes(data)
    with pytest.raises(ValueError, match="truncated inversion-table cache"):
        load_table(str(path))


def test_cache_loads_through_a_pipe(tmp_path):
    """A cache read through a FIFO, whose size is unknown, loads as from
    its file."""
    path = tmp_path / "table.bin"
    save_table(build_table(6, m_cap=9), str(path))
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        piped = load_table(str(fifo))
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert piped._rows == load_table(str(path))._rows


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_table(0)
    with pytest.raises(ValueError):
        build_table(3, m_cap=-1)


def test_table_cells_counts_the_stored_entries():
    for max_n in range(1, 30):
        for m_cap in [None, *range(0, 120, 7)]:
            table = build_table(max_n, m_cap=m_cap)
            stored = sum(len(table._rows[n]) for n in range(max_n + 1))
            assert table_cells(max_n, m_cap) == stored
    assert table_cells(100_000, 10**9) > 10**13


def test_build_refuses_oversize_table_before_allocating(monkeypatch):
    with pytest.raises(ValueError, match=f"has {table_cells(100_000)} cells"):
        build_table(100_000)
    with pytest.raises(ValueError, match="above 10000000"):
        build_table(100_000, m_cap=10**9)
    # the limit is checked before the first row is filled
    monkeypatch.setattr(counting, "MAX_TABLE_CELLS", table_cells(12, 20) - 1)
    monkeypatch.setattr(counting, "accumulate", None)
    with pytest.raises(ValueError, match="max_n=12, m_cap=20"):
        build_table(12, m_cap=20)


@pytest.mark.parametrize("m_cap", [None, 0, 20, 45])
def test_grown_table_equals_a_fresh_build(m_cap):
    """Growing one table over a sequence of sizes (repeats and shrinking
    requests included) gives, after each step, the rows of a fresh
    ``build_table``; the mirrored entries are shared as in a built table."""
    table = build_table(3, m_cap=m_cap)
    for max_n in [5, 5, 9, 4, 14, 15, 22]:
        counting._grow_table(table, max_n)
        expected = max(max_n, table.max_n)
        assert table.max_n == expected
        assert table._rows == build_table(expected, m_cap=m_cap)._rows
    for n in range(1, table.max_n + 1):
        row, top = table._rows[n], max_inversions(n)
        for m in range(top // 2 + 1, len(row)):
            assert row[m] is row[top - m]


def test_grow_refuses_oversize_before_allocating(monkeypatch):
    """A grow past ``MAX_TABLE_CELLS`` raises before the first new row is
    filled and leaves the table as it was."""
    table = build_table(8, m_cap=20)
    rows = list(table._rows)
    monkeypatch.setattr(counting, "MAX_TABLE_CELLS", table_cells(12, 20) - 1)
    monkeypatch.setattr(counting, "accumulate", None)
    with pytest.raises(ValueError, match="max_n=12, m_cap=20"):
        counting._grow_table(table, 12)
    assert table.max_n == 8 and table._rows == rows
    counting._grow_table(table, 8)  # already held: nothing to fill
