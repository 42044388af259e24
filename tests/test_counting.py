import itertools
import math

import pytest

from invperm.counting import (
    InversionTable,
    build_table,
    count,
    load_table,
    mahonian_polynomial,
    max_inversions,
    save_table,
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
    assert count(TABLE40, 4, -1) == 0
    assert count(TABLE40, 4, 7) == 0
    assert count(TABLE40, 3, 1) == 2
    with pytest.raises(ValueError):
        count(TABLE40, 41, 0)
    with pytest.raises(ValueError):
        count(TABLE40, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 15, 40])
def test_polynomial_oracle_matches_table(n):
    assert mahonian_polynomial(n) == TABLE40.row(n)


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
    assert load_table(path2).row(9) == full.row(9)


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


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_table(0)
    with pytest.raises(ValueError):
        build_table(3, m_cap=-1)
