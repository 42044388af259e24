from collections import Counter
from fractions import Fraction

import pytest
from scipy import stats

from invperm.counting import build_table, max_inversions
from invperm.coupling import (
    BetaTable,
    chain_step,
    enumerate_inversion_sequences,
    initial_state,
    materialize_rho,
    rho_entry,
    run_chain,
    solve_betas,
    step_stops,
    symbolic_chain_distributions,
)
from invperm.permutations import decomposition_points
from invperm.rng import SamplerContext

TABLE = build_table(12)
BT = BetaTable(TABLE)
F = Fraction


def test_solve_betas_worked_example():
    entry = solve_betas(4, 2, TABLE)
    assert not entry.reflected
    assert entry.values == (F(7, 12), F(9, 12), F(10, 12))


def test_solve_betas_reflection_marker():
    entry = solve_betas(4, 3, TABLE)  # C(4,2)/2 = 3 -> reflected
    assert entry.reflected
    assert entry.reflected_budget == 2
    assert entry.values is None
    entry = solve_betas(5, 9, TABLE)
    assert entry.reflected and entry.reflected_budget == 0


def test_solve_betas_bad_args():
    with pytest.raises(ValueError):
        solve_betas(4, 6, TABLE)  # m = C(4,2) has no outgoing matrix
    with pytest.raises(ValueError):
        solve_betas(1, 0, TABLE)


@pytest.mark.parametrize("n", range(2, 7))
def test_beta_system_holds_exactly(n):
    """Independent re-check of the defining equations for every direct
    budget: beta_{k-1} + (1 - beta_k) gamma_{k-1} = gamma wherever the
    column block is nonempty, beta_0 = 0, all values in [0, 1]."""
    for m in range((max_inversions(n) + 1) // 2):
        entry = solve_betas(n, m, TABLE)
        betas = (F(0),) + entry.values + (F(0),) * (n - len(entry.values))
        gamma = F(TABLE.count(n, m), TABLE.count(n, m + 1))
        for k in range(1, n + 1):
            cols = TABLE.count(n - 1, m + 2 - k)
            if cols == 0:
                continue  # no columns with y_n = k-1: equation is vacuous
            gk = F(TABLE.count(n - 1, m - k + 1), cols)
            assert betas[k - 1] + (1 - betas[k]) * gk == gamma
        for b in entry.values:
            assert 0 <= b <= 1
        if m <= n - 2:
            assert entry.values[m] == gamma


def _recurrence_betas(n, m, table):
    """beta_1..beta_n(n, m) by the forward recurrence in Fractions:
    beta = 1 while the prefix below is forced to be maximal, then
    beta_k = 1 + (beta_{k-1} - gamma) / gamma_{k-1}, and 0 past
    min(n-1, m+1)."""
    gamma = F(table.count(n, m), table.count(n, m + 1))
    forced = m + 1 - max_inversions(n - 1)
    values = []
    for k in range(1, min(n - 1, m + 1) + 1):
        if k <= forced:
            values.append(F(1))
            continue
        prev = values[-1] if values else F(0)
        gk = F(table.count(n - 1, m - k + 1), table.count(n - 1, m - k + 2))
        values.append(1 + (prev - gamma) / gk)
    return values + [F(0)] * (n - len(values))


def test_closed_form_matches_recurrence():
    """Every beta of every direct budget with n <= 25, against the
    Fraction recurrence."""
    table = build_table(25)
    bt = BetaTable(table)
    checked = 0
    for n in range(2, 26):
        for m in range((max_inversions(n) + 1) // 2):
            expected = _recurrence_betas(n, m, table)
            got = [F(*bt.beta(n, m, k)) for k in range(1, n + 1)]
            assert got == expected, (n, m)
            checked += len(got)
    assert checked == 25_100


def test_beta_rejects_reflected_budget():
    with pytest.raises(ValueError):
        BT.beta(4, 3, 1)
    assert BT.beta(4, 2, 0) == (0, 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_step_walk_multiplies_out_to_rho(n):
    """The stop probabilities of the walk that chain_step runs, multiplied
    out level by level, equal rho_entry on every (state, budget) row."""
    for m in range(max_inversions(n)):
        for x in enumerate_inversion_sequences(n, m):
            passed, lands = F(1), {}
            for k, num, den in step_stops(x, m, BT):
                p = F(num, den)
                assert 0 <= p <= 1
                lands[k] = passed * p
                passed *= 1 - p
                if passed == 0:
                    break
            assert passed == 0
            for k in range(n):
                y = x[:k] + (x[k] + 1,) + x[k + 1 :]
                exact = rho_entry(n, m, x, y, BT) if x[k] < k else 0
                assert lands.get(k, 0) == exact, (x, k)


def test_rho_3_matches_displayed_matrices():
    rho30 = materialize_rho(3, 0, BT)
    assert rho30.rows == ((0, 0, 0),)
    assert rho30.cols == ((0, 1, 0), (0, 0, 1))
    assert rho30.dense() == [[F(1, 2), F(1, 2)]]

    rho31 = materialize_rho(3, 1, BT)
    assert rho31.dense() == [[F(1), F(0)], [F(0), F(1)]]

    rho32 = materialize_rho(3, 2, BT)
    assert rho32.rows == ((0, 1, 1), (0, 0, 2))
    assert rho32.dense() == [[F(1)], [F(1)]]


def test_rho_42_matches_displayed_matrix():
    rho = materialize_rho(4, 2, BT)
    assert rho.rows == (
        (0, 1, 1, 0),
        (0, 0, 2, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 2),
    )
    assert rho.cols == (
        (0, 1, 2, 0),
        (0, 1, 1, 1),
        (0, 0, 2, 1),
        (0, 1, 0, 2),
        (0, 0, 1, 2),
        (0, 0, 0, 3),
    )
    twelfth = [
        [5, 7, 0, 0, 0, 0],
        [5, 0, 7, 0, 0, 0],
        [0, 3, 0, 9, 0, 0],
        [0, 0, 3, 0, 9, 0],
        [0, 0, 0, 1, 1, 10],
    ]
    assert rho.dense() == [[F(v, 12) for v in row] for row in twelfth]


@pytest.mark.parametrize("n", range(2, 7))
def test_row_and_column_sums_all_budgets(n):
    for m in range(max_inversions(n)):
        rho = materialize_rho(n, m, BT)
        row_totals = {x: F(0) for x in rho.rows}
        col_totals = {y: F(0) for y in rho.cols}
        for (x, y), v in rho.entries.items():
            assert 0 <= v <= 1
            row_totals[x] += v
            col_totals[y] += v
            # support only on covering pairs
            diffs = [b - a for a, b in zip(x, y)]
            assert sorted(diffs) == [0] * (n - 1) + [1]
        assert all(v == 1 for v in row_totals.values())
        expected = F(TABLE.count(n, m), TABLE.count(n, m + 1))
        assert all(v == expected for v in col_totals.values())


def test_rho_entry_zero_when_not_covering():
    assert rho_entry(4, 2, (0, 1, 1, 0), (0, 1, 1, 0), BT) == 0
    assert rho_entry(4, 2, (0, 1, 1, 0), (0, 0, 1, 2), BT) == 0


def test_materialize_guard():
    with pytest.raises(ValueError):
        materialize_rho(10, 3, BT)
    with pytest.raises(ValueError):
        materialize_rho(4, 6, BT)


def _step_distribution(x, t, draws, seed):
    n = len(x)
    counts = Counter()
    for trial in range(draws):
        ctx = SamplerContext(TABLE, seed, (trial,))
        state, _ = chain_step(
            type(initial_state(n))(tuple(x), t), BT, ctx
        )
        counts[state.x] += 1
    return counts


def test_chain_step_rows_match_exact_probabilities():
    # from 000: half/half
    c = _step_distribution((0, 0, 0), 0, 3000, 21)
    assert set(c) == {(0, 1, 0), (0, 0, 1)}
    assert stats.binomtest(c[(0, 1, 0)], 3000, 0.5).pvalue > 1e-4
    # from 010: deterministic
    c = _step_distribution((0, 1, 0), 1, 300, 22)
    assert set(c) == {(0, 1, 1)}
    # from 0002 (reflected budget at the top level): 1/12, 1/12, 10/12
    draws = 12_000
    c = _step_distribution((0, 0, 0, 2), 2, draws, 23)
    expected = {
        (0, 1, 0, 2): F(1, 12),
        (0, 0, 1, 2): F(1, 12),
        (0, 0, 0, 3): F(10, 12),
    }
    assert set(c) == set(expected)
    chisq = sum(
        (c[s] - draws * float(p)) ** 2 / (draws * float(p))
        for s, p in expected.items()
    )
    assert stats.chi2.sf(chisq, df=2) > 1e-4


def test_chain_step_changes_one_coordinate_by_one():
    ctx = SamplerContext(TABLE, 31, (0,))
    state = initial_state(6)
    for _ in range(max_inversions(6)):
        new, box = chain_step(state, BT, ctx)
        diffs = [b - a for a, b in zip(state.x, new.x)]
        assert sorted(diffs) == [0] * 5 + [1]
        assert diffs[box - 1] == 1
        state = new
    with pytest.raises(ValueError):
        chain_step(state, BT, ctx)


def test_run_chain_endpoints():
    ctx = SamplerContext(TABLE, 32)
    assert run_chain(5, 0, ctx).x == (0, 0, 0, 0, 0)
    assert run_chain(5, 10, ctx).x == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        run_chain(5, 11, ctx)


def test_run_chain_symbolic_uniformity_n4():
    history = symbolic_chain_distributions(4, BT)
    dist3 = history[3]
    assert len(dist3) == TABLE.count(4, 3) == 6
    assert all(p == F(1, 6) for p in dist3.values())


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_symbolic_uniformity_every_budget(n):
    for m, dist in enumerate(symbolic_chain_distributions(n, BT)):
        size = TABLE.count(n, m)
        assert len(dist) == size
        assert all(p == F(1, size) for p in dist.values())


def test_run_chain_empirical_uniformity():
    draws = 9000
    counts = Counter()
    for t in range(draws):
        ctx = SamplerContext(TABLE, 33, (t,))
        counts[run_chain(4, 3, ctx).x] += 1
    space = enumerate_inversion_sequences(4, 3)
    assert set(counts) == set(space)
    expect = draws / 6
    chisq = sum((counts[s] - expect) ** 2 / expect for s in space)
    assert stats.chi2.sf(chisq, df=5) > 1e-4


def test_trace_records_boxes():
    ctx = SamplerContext(TABLE, 34)
    trace: list[int] = []
    state = run_chain(6, 9, ctx, trace=trace)
    assert len(trace) == 9
    rebuilt = [0] * 6
    for box in trace:
        rebuilt[box - 1] += 1
    assert tuple(rebuilt) == state.x


def test_trajectory_decomposition_points_shrink():
    """Covering couples consecutive budgets: each added ball can only
    destroy decomposition points, never create them.  Runs several
    thousand steps across sizes up to n = 100, fewer than the
    spec-suggested 1e5; the property is per-step and size-independent."""
    cap = build_table(100, m_cap=900)
    bt = BetaTable(cap)
    steps = 0
    plans = [(40, 300), (60, 400), (12, 66), (100, 900), (100, 900), (80, 600)]
    for seed, (n, m_target) in enumerate(plans):
        ctx = SamplerContext(cap, 35 + seed)
        state = initial_state(n)
        prev = set(decomposition_points(state.x))
        for _ in range(m_target):
            state, _ = chain_step(state, bt, ctx)
            cur = set(decomposition_points(state.x))
            assert cur <= prev
            prev = cur
            steps += 1
    assert steps == sum(m for _, m in plans)
