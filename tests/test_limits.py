import itertools
import math
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.optimize import brentq

from invperm.counting import build_table, expected_cuts, max_inversions
from invperm.limits import (
    REGIME_ALWAYS_DECOMPOSABLE,
    REGIME_ALWAYS_INDECOMPOSABLE,
    REGIME_THRESHOLD,
    _boltzmann_moments,
    _fast_length,
    alpha_for_mu,
    boltzmann_saddle,
    euler_h,
    finite_n_block_cdfs,
    finite_n_cut_law,
    finite_n_mean_cuts,
    marked_points,
    threshold_params,
)
from invperm.permutations import decomposition_points
from invperm.rng import SamplerContext
from invperm.sampling import sample_composition


def euler_h_long_product(q, terms=200):
    prod = 1.0
    for j in range(1, terms + 1):
        prod *= 1.0 - q**j
    return prod


def euler_h_pentagonal(q):
    """prod_{j>=1} (1 - q^j) by Euler's pentagonal-number series, exactly.

    The product is 1 + sum_{k>=1} (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2}).
    The groups alternate in sign and decrease, so stopping before the
    first group below 1e-30 leaves an error below 1e-30.
    """
    q = Fraction(q)
    total = Fraction(1)
    k = 1
    while True:
        group = q ** (k * (3 * k - 1) // 2) + q ** (k * (3 * k + 1) // 2)
        if group < 1e-30:
            return total
        total += (-1) ** k * group
        k += 1


def marked_points_brute(y, nu):
    length = len(y)
    out = []
    for i in range(1, length - 2 * nu + 1):
        if all(y[i + t - 1] <= t - 1 for t in range(1, nu + 1)):
            out.append(i)
    return out


def test_euler_h_limits_and_oracle():
    assert euler_h(0.0) == 1.0
    for q in (1e-9, 1e-6, 1e-3):
        assert abs(euler_h(q) - 1.0) < 2 * q
    assert abs(euler_h(0.5, 1e-12) - euler_h_long_product(0.5)) < 1e-12
    for q in (0.1, 0.7, 0.9, 0.99):
        assert abs(euler_h(q, 1e-12) / euler_h_long_product(q, 5000) - 1) < 1e-11


def test_euler_h_strictly_decreasing_grid():
    grid = np.linspace(1e-4, 0.999, 1000)
    values = [euler_h(float(q), 1e-13) for q in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_euler_h_near_one_underflows_quickly():
    """K ~ log(tol (1-q)) / log q is about 4.8e8 at q = 1 - 1e-7, but the
    product reaches 0.0 within a few dozen factors and stops there."""
    t0 = time.perf_counter()
    assert euler_h(1 - 1e-7) == 0.0
    assert euler_h(1 - 1e-7, 1e-14) == 0.0
    assert time.perf_counter() - t0 < 1.0


def test_euler_h_errors():
    with pytest.raises(ValueError):
        euler_h(1.0)
    with pytest.raises(ValueError):
        euler_h(-0.1)
    with pytest.raises(ValueError):
        euler_h(0.5, 0.0)


def test_euler_h_against_saddlepoint_form():
    """For q = alpha/(alpha+1), log h should track
    -(pi^2/6) alpha - pi^2/12 + 0.5 log alpha + 0.5 log(2 pi) within a
    modest factor at alpha = 10."""
    alpha = 10.0
    q = alpha / (alpha + 1.0)
    h = euler_h(q, 1e-14)
    approx = math.exp(
        -(math.pi**2 / 6.0) * alpha
        - math.pi**2 / 12.0
        + 0.5 * math.log(alpha)
        + 0.5 * math.log(2 * math.pi)
    )
    assert 1.0 / 1.2 < h / approx < 1.2


def test_euler_h_agrees_with_pentagonal_series():
    for q in (0.3, 0.884381167542094):
        assert abs(float(euler_h_pentagonal(q)) - euler_h(q, 1e-15)) < 1e-13


def test_threshold_params_fields():
    p = threshold_params(100, 300)
    assert p.alpha == 3.0
    assert p.q == 0.75
    assert p.nu == math.ceil(2 * 4.0 * math.log(100))
    assert p.lam == pytest.approx(100 * euler_h(0.75, 1e-14))
    assert p.regime == REGIME_THRESHOLD


def test_threshold_params_trivial_classifications():
    n = 50
    assert threshold_params(n, n - 2).regime == REGIME_ALWAYS_DECOMPOSABLE
    top_band = max_inversions(n - 1)
    assert threshold_params(n, top_band + 1).regime == REGIME_ALWAYS_INDECOMPOSABLE
    assert threshold_params(n, top_band).regime == REGIME_THRESHOLD
    with pytest.raises(ValueError):
        threshold_params(n, max_inversions(n) + 1)


def test_lambda_near_one_at_mu_zero():
    # the Poisson mean at mu = 0 is 1 up to a slowly-vanishing correction
    _, m = alpha_for_mu(100_000, 0.0)
    p = threshold_params(100_000, m)
    assert abs(p.lam - 1.0) <= 0.25


def test_alpha_for_mu_formula_and_monotonicity():
    n = 10**6
    alpha, m = alpha_for_mu(n, 0.0)
    expected = (6 / math.pi**2) * (
        math.log(n)
        + 0.5 * math.log(math.log(n))
        + 0.5 * math.log(12 / math.pi)
        - math.pi**2 / 12
    )
    assert alpha == pytest.approx(expected, rel=1e-12)
    # regression anchor from the first validated run
    assert alpha == pytest.approx(9.104333216493147, abs=1e-9)
    assert m == round(alpha * n)
    assert alpha_for_mu(n, -1.0)[0] < alpha < alpha_for_mu(n, 1.0)[0]


def test_alpha_for_mu_clamps_to_band():
    assert alpha_for_mu(5, -50.0)[1] == 4  # n - 1
    assert alpha_for_mu(5, 50.0)[1] == max_inversions(4)
    # alpha * n overflows a float here; it is clamped before rounding
    assert alpha_for_mu(5, -1e308)[1] == 4
    assert alpha_for_mu(5, 1e308)[1] == max_inversions(4)


def test_threshold_ratio_approaches_six_over_pi_squared():
    target = 6 / math.pi**2
    gaps = []
    for n in (10**6, 10**12, 10**24, 10**48):
        alpha, _ = alpha_for_mu(n, 0.0)
        gaps.append(abs(alpha / math.log(n) - target))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05 * target


def test_marked_points_all_zero_and_saturated():
    y = [0] * 30
    assert marked_points(y, 5) == list(range(1, 21))
    y = [5] * 30
    assert marked_points(y, 5) == []


def test_marked_points_errors_and_degenerate():
    with pytest.raises(ValueError):
        marked_points([0, 0, 0], 4)
    with pytest.raises(ValueError):
        marked_points([0, 0, 0], 0)
    # length too short for any candidate
    assert marked_points([0] * 7, 3) == [1]
    assert marked_points([0] * 6, 3) == []


def test_marked_points_match_brute_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        length = int(rng.integers(10, 120))
        # up to length // 2, so that 1 <= limit < nu and the last block
        # of the window minima is partial
        nu = int(rng.integers(1, length // 2 + 1))
        y = rng.integers(0, 6, size=length)
        expected = marked_points_brute(y.tolist(), nu)
        assert marked_points(y, nu) == expected
        assert marked_points(y.tolist(), nu) == expected


def test_marked_points_composition_scale_oracle():
    ctx = SamplerContext(None, 77)
    y = sample_composition(10_000, 100_000, ctx)
    nu = threshold_params(10_000, 100_000).nu
    assert marked_points(y, nu) == marked_points_brute(y.tolist(), nu)


def test_marked_equals_decomposition_on_all_zero_composition():
    from invperm.permutations import decomposition_points

    y = [0] * 40
    nu = 6
    limit = len(y) - 2 * nu
    dec = decomposition_points(y)
    assert set(marked_points(y, nu)) == {d for d in dec if d <= limit}


def test_marked_contains_early_decomposition_points():
    from invperm.permutations import decomposition_points

    rng = np.random.default_rng(11)
    for trial in range(30):
        parts = int(rng.integers(200, 600))
        total = 4 * parts
        y = sample_composition(parts, total, SamplerContext(None, 78, (trial,)))
        nu = 12
        limit = parts - 2 * nu
        dec = {d for d in decomposition_points(y) if d <= limit}
        assert dec <= set(marked_points(y, nu))


def test_composition_cdf_matches_geometric_prediction():
    """P(Y_1 <= d) for a uniform composition coordinate approaches
    1 - q^(d+1) with q = alpha/(alpha+1)."""
    parts, total = 10_000, 100_000
    q = (total / parts) / (total / parts + 1)
    draws = 100  # first coordinate only: independent across draws
    firsts = np.array(
        [
            int(sample_composition(parts, total, SamplerContext(None, 79, (t,)))[0])
            for t in range(draws)
        ]
    )
    for d in (0, 1, 2, 5, 10):
        p = 1 - q ** (d + 1)
        observed = (firsts <= d).mean()
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(observed - p) <= 4 * sigma + 1e-9


def test_boltzmann_saddle_solves_mean_equation():
    for n, m in ((8, 5), (100, 317), (10**5, 764_911)):
        x = boltzmann_saddle(n, m)
        i = np.arange(1, n + 1)
        mean = np.sum(x / (1 - x) - i * x**i / (1 - x**i))
        assert mean == pytest.approx(m, rel=1e-9)
    assert boltzmann_saddle(8, 0) == 0.0
    assert boltzmann_saddle(8, 14) == 1.0
    for m in (-1, 15):
        with pytest.raises(ValueError):
            boltzmann_saddle(8, m)
    with pytest.raises(ValueError):
        finite_n_cut_law(8, 15)


def _brentq_saddle(n: int, m: int) -> float:
    """The saddle point by scipy's brentq on the same bracket in log t."""
    log_t = brentq(
        lambda u: _boltzmann_moments(n, math.exp(u))[0] - m, -20.0, 4.0, xtol=1e-13
    )
    return math.exp(-math.exp(log_t))


def test_boltzmann_saddle_equals_brentq():
    """Within 1e-12 of brentq on an (n, m) grid, and a ValueError wherever
    brentq finds no root in the bracket (just below C(n,2)/2 at large n)."""
    raised = 0
    for n in (3, 4, 10, 57, 600, 3000, 10**4, 10**5, 10**6):
        top = max_inversions(n)
        grid = {1, n - 1, round(0.6 * n * math.log(n)), top // 8, top // 4, top // 2 - 1}
        if n <= 10**5:
            grid |= {2, top // 2 - 60, top // 2 - 58, top // 2 - 57}
        for m in sorted(v for v in grid if 0 < 2 * v < top):
            try:
                expected = _brentq_saddle(n, m)
            except ValueError:
                raised += 1
                with pytest.raises(ValueError, match="outside"):
                    boltzmann_saddle(n, m)
            else:
                assert abs(boltzmann_saddle(n, m) - expected) <= 1e-12
    assert raised >= 5
    with pytest.raises(ValueError):
        boltzmann_saddle(10**4, 24_997_499)


def test_fast_length_equals_next_fast_len():
    assert all(_fast_length(k) == next_fast_len(k, True) for k in range(1, 20_000))


def test_finite_n_laws_match_exhaustive_enumeration():
    """Every n <= 8 and m with 2m <= C(n,2): laws of C, L_min and L_max."""
    for n in range(1, 9):
        top = max_inversions(n)
        outcomes = defaultdict(list)
        for x in itertools.product(*(range(i) for i in range(1, n + 1))):
            m = sum(x)
            if 2 * m <= top:
                sizes = np.diff([0, *decomposition_points(x), n])
                outcomes[m].append((len(sizes) - 1, sizes.min(), sizes.max()))
        for m, rows in outcomes.items():
            cuts, lmin, lmax = np.array(rows).T
            lengths = np.arange(n + 1)
            cdf_min, cdf_max = finite_n_block_cdfs(n, m, lengths, lengths)
            assert np.abs(
                finite_n_cut_law(n, m) - np.bincount(cuts, minlength=n) / len(rows)
            ).max() < 1e-9
            assert np.abs(cdf_min - (lmin[:, None] <= lengths).mean(axis=0)).max() < 1e-9
            assert np.abs(cdf_max - (lmax[:, None] <= lengths).mean(axis=0)).max() < 1e-9


def test_finite_n_laws_few_inversions_beyond_enumeration():
    """m <= 2 at n = 30, on a partial contour.  Every such permutation has
    C - 1 = n - 1 - m; at m = 2 it holds two disjoint adjacent swaps or
    one block of size 3."""
    n = 30
    for m in (0, 1, 2):
        expected = np.zeros(n)
        expected[n - 1 - m] = 1.0
        assert np.abs(finite_n_cut_law(n, m) - expected).max() < 1e-9
    disjoint, triples = math.comb(n - 1, 2) - (n - 2), 2 * (n - 2)
    _, cdf_max = finite_n_block_cdfs(n, 2, [], [1, 2, 3])
    assert np.abs(cdf_max - [0.0, disjoint / (disjoint + triples), 1.0]).max() < 1e-9


@pytest.mark.parametrize("n", [100, 300, 600])
def test_finite_n_mean_cuts_match_exact_expectation(n):
    _, m = alpha_for_mu(n, 0.0)
    exact = float(expected_cuts(build_table(n, m_cap=m), n, m))
    law = finite_n_cut_law(n, m)
    assert abs(finite_n_mean_cuts(n, m) - exact) < 1e-9
    assert abs(np.dot(np.arange(n), law) - exact) < 1e-9
    assert abs(law.sum() - 1.0) < 1e-9


@pytest.mark.parametrize(
    "n, mu, bound", [(10**4, -3.0, 0.005), (4000, -2.5, 0.01)], ids=["n1e4", "n4000"]
)
def test_saddle_block_cdfs_close_to_contour(n, mu, bound):
    """Dropping the conditioning on m (the saddle point alone) moves the
    block-extreme CDFs by less than 0.005 at n = 1e4, mu = -3, on a grid
    spanning the Exp(1) and Gumbel limit coordinates.  n = 4000, mu = -2.5
    is where the CLI and experiments tests judge block censuses with the
    saddle-only CDFs (measured 0.0058 there)."""
    _, m = alpha_for_mu(n, mu)
    p = threshold_params(n, m)
    min_grid = np.unique(
        np.concatenate((np.arange(6), np.geomspace(0.01, 5, 12) / (n * p.h**2))).astype(int)
    )
    max_grid = ((math.log(p.lam) + np.linspace(-1.5, 4.5, 16)) / p.h).astype(int)
    at_saddle = finite_n_block_cdfs(n, m, min_grid, max_grid, contour=False)
    exact = finite_n_block_cdfs(n, m, min_grid, max_grid)
    for approx, ref in zip(at_saddle, exact):
        assert np.abs(approx - ref).max() < bound
