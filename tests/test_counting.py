import itertools
import math
import os
import re
import struct
import threading
import tracemalloc

import pytest

from invperm import counting
from invperm.counting import (
    InversionTable,
    build_table,
    load_table,
    mahonian_polynomial,
    max_inversions,
    save_table,
    table_bytes,
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


def _version_1_bytes(table: InversionTable) -> bytes:
    """A cache of ``table`` in format version 1, which stored every count:
    the 20-byte header, then per row a u64 entry count and per entry a u64
    byte length and the little-endian bytes."""
    cap = (1 << 64) - 1 if table.m_cap is None else table.m_cap
    out = [struct.pack("<4sIIQ", b"IVTB", 1, table.max_n, cap)]
    for row in table._rows:
        out.append(struct.pack("<Q", len(row)))
        for value in row:
            blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")
            out += [struct.pack("<Q", len(blob)), blob]
    return b"".join(out)


def test_cache_rejects_row_whose_halves_differ(tmp_path):
    """A table whose s(7, 12) is one above s(7, 9) is refused at save, and
    no cache is written."""
    path = tmp_path / "table.bin"
    rows = [list(row) for row in build_table(9)._rows]
    rows[7][12] += 1
    with pytest.raises(ValueError, match=r"rows differ from build_table\(9, m_cap=None\)"):
        save_table(InversionTable(rows), str(path))
    assert not path.exists()


def test_cache_file_is_its_header(tmp_path):
    """A cache is magic, version 2, max_n and m_cap, and nothing else."""
    path = tmp_path / "table.bin"
    for table, cap in [(build_table(18, m_cap=30), 30), (build_table(9), (1 << 64) - 1)]:
        save_table(table, str(path))
        assert path.read_bytes() == struct.pack("<4sIIQ", b"IVTB", 2, table.max_n, cap)


def test_cache_rejects_version_1_file(tmp_path):
    """A cache written in format version 1, or any version but 2, is
    refused by its header."""
    path = tmp_path / "table.bin"
    path.write_bytes(_version_1_bytes(build_table(9)))
    with pytest.raises(ValueError, match="^unsupported cache format version 1$"):
        load_table(str(path))
    path.write_bytes(struct.pack("<4sIIQ", b"IVTB", 3, 9, 5))
    with pytest.raises(ValueError, match="unsupported cache format version 3"):
        load_table(str(path))


def test_cache_rejects_bytes_past_the_header(tmp_path):
    path = tmp_path / "table.bin"
    save_table(build_table(9), str(path))
    for tail in (b"\x00", b"\x01" * 100):
        path.write_bytes(path.read_bytes()[:20] + tail)
        with pytest.raises(ValueError, match="bytes past its 20-byte header"):
            load_table(str(path))


@pytest.mark.parametrize(
    "max_n, cap, message",
    [
        (100_000, (1 << 64) - 1, "may take .* bytes, above"),
        (500, 62_375, "max_n=500, m_cap=62375 may take"),
        (2**32 - 1, 0, "max_n=4294967295, m_cap=0 may take"),
        (0, 5, "max_n must be >= 1"),
    ],
)
def test_cache_refuses_bad_header_before_building(
    tmp_path, monkeypatch, max_n, cap, message
):
    """A header that names an empty or oversized table is refused before
    any row is filled."""
    path = tmp_path / "table.bin"
    path.write_bytes(struct.pack("<4sIIQ", b"IVTB", 2, max_n, cap))
    filled = []
    monkeypatch.setattr(counting, "accumulate", lambda *args: filled.append(args))
    with pytest.raises(ValueError, match=message):
        load_table(str(path))
    assert filled == []


def test_save_refuses_a_cap_the_header_cannot_hold(tmp_path):
    path = tmp_path / "table.bin"
    for cap in ((1 << 64) - 1, 1 << 64):
        with pytest.raises(ValueError, match=f"m_cap={cap} does not fit a cache header"):
            save_table(build_table(3, m_cap=cap), str(path))
    assert not path.exists()


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
    """A hand-made table with a short or long row is refused at save."""
    path = tmp_path / "bad.bin"
    rows = [[1]] + [TABLE40.row(k) for k in range(1, 9)]
    rows[6] = rows[6][:delta] if delta < 0 else rows[6] + [0] * delta
    with pytest.raises(ValueError, match="rows differ from build_table"):
        save_table(InversionTable(rows), str(path))
    assert not path.exists()


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match=r"not an inversion-table cache \(magic b'NOPE'\)"):
        load_table(str(path))


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "table.bin"
    save_table(build_table(9), str(path))
    data = path.read_bytes()
    # inside the magic, after it, and one byte short of the header
    for cut in (0, 3, 4, 10, len(data) - 1):
        path.write_bytes(data[:cut])
        message = f"truncated inversion-table cache: {cut} of 20" if cut >= 4 else "magic"
        with pytest.raises(ValueError, match=message):
            load_table(str(path))


@pytest.mark.parametrize("nbytes", [1 << 62, (1 << 63) + 5, 2**32, None])
def test_cache_rejects_value_length_past_the_end(tmp_path, nbytes):
    """A version-1 cache whose first value's length field runs past the
    file's end (by one byte for ``None``) is refused by its header: no
    stored length is read any more."""
    path = tmp_path / "table.bin"
    data = bytearray(_version_1_bytes(build_table(4)))
    at = 20 + 8  # the first value's length, after row 0's entry count
    left = len(data) - at - 8
    data[at : at + 8] = struct.pack("<Q", left + 1 if nbytes is None else nbytes)
    path.write_bytes(data)
    with pytest.raises(ValueError, match="^unsupported cache format version 1$"):
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


def test_table_bytes_bounds_a_built_tables_memory():
    """The estimate is above the memory a built table holds, and the bound
    lets through the tables in use while it refuses whole heads near the
    middle budget past n = 400 at once."""
    for max_n, m_cap in [(30, None), (60, None), (60, 400), (120, 50)]:
        tracemalloc.start()
        table = build_table(max_n, m_cap)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert held < table_bytes(max_n, m_cap) < 4 * held, (max_n, m_cap)
        del table
    for max_n, m_cap in [(300, None), (2000, 1000), (500, 2120), (200, 9950), (150, 5589)]:
        assert table_bytes(max_n, m_cap) <= counting.MAX_TABLE_BYTES
    for max_n, m_cap in [(400, 39_900), (500, 62_375), (1000, 249_750), (600, None)]:
        assert table_bytes(max_n, m_cap) > counting.MAX_TABLE_BYTES
        with pytest.raises(ValueError, match="may take"):
            build_table(max_n, m_cap)


def test_build_refuses_oversize_table_before_allocating(monkeypatch):
    with pytest.raises(ValueError, match=re.escape(f"may take {table_bytes(100_000):.3g} bytes")):
        build_table(100_000)
    with pytest.raises(ValueError, match="above 2e\\+09"):
        build_table(100_000, m_cap=10**9)
    # the limit is checked before the first row is filled
    monkeypatch.setattr(counting, "MAX_TABLE_BYTES", table_bytes(12, 20) - 1)
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
        table.grow(max_n)
        expected = max(max_n, table.max_n)
        assert table.max_n == expected
        assert table._rows == build_table(expected, m_cap=m_cap)._rows
    for n in range(1, table.max_n + 1):
        row, top = table._rows[n], max_inversions(n)
        for m in range(top // 2 + 1, len(row)):
            assert row[m] is row[top - m]


def test_grow_refuses_oversize_before_allocating(monkeypatch):
    """A grow past ``MAX_TABLE_BYTES`` raises before the first new row is
    filled and leaves the table as it was."""
    table = build_table(8, m_cap=20)
    rows = list(table._rows)
    monkeypatch.setattr(counting, "MAX_TABLE_BYTES", table_bytes(12, 20) - 1)
    monkeypatch.setattr(counting, "accumulate", None)
    with pytest.raises(ValueError, match="max_n=12, m_cap=20"):
        table.grow(12)
    assert table.max_n == 8 and table._rows == rows
    table.grow(8)  # already held: nothing to fill
