"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 6 and 7 judge desk-scale Monte Carlo censuses at n = 10^5 with
``invperm.experiments.judge``: against the exact finite-n law of a uniform
permutation with m inversions (``invperm.limits.finite_n_*``), with the
tolerances pinned in ``TOLERANCES``.  The n -> infinity limit laws are off
at that size by a term that decays only like 1/log n, so each census's
distance to them is printed as a regression anchor, not asserted;
criterion 6 also checks that the finite-n excess over the limit shrinks
as n grows.  See the README on finite-size deviations.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from invperm.counting import build_table, expected_cuts, max_inversions
from invperm.coupling import (
    BetaTable,
    enumerate_inversion_sequences,
    materialize_rho,
    symbolic_chain_distributions,
)
from invperm.experiments import (
    ExperimentConfig,
    judge,
    run_block_census,
    run_component_census,
    run_monotonicity_check,
)
from invperm.limits import (
    alpha_for_mu,
    finite_n_block_cdfs,
    finite_n_mean_cuts,
    threshold_params,
)
from invperm.permutations import (
    blocks,
    decomposition_points,
    inversion_count,
    inversion_sequence,
    permutation_from_inversion_sequence,
    permutation_graph_edges,
    psi,
)
from invperm.rng import SamplerContext
from invperm.sampling import SplitSampler, sample_inversion_sequence

F = Fraction


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_exact_counting():
    t0 = time.time()
    table12 = build_table(12)
    assert table12.row(3) == [1, 2, 2, 1]
    assert table12.count(4, 2) == 5 and table12.count(4, 3) == 6
    table40 = build_table(40)
    from invperm.counting import mahonian_polynomial

    for n in range(1, 41):
        row = table40.row(n)
        assert mahonian_polynomial(n) == row
        top = max_inversions(n)
        assert sum(row) == math.factorial(n)
        assert all(row[m] == row[top - m] for m in range(top + 1))
        assert all(
            row[m - 1] * row[m + 1] <= row[m] ** 2 for m in range(1, top)
        )
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    _report(
        "criterion 1 (exact counting, n <= 40, < 10 s)",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_beta_construction():
    t0 = time.time()
    table = build_table(8)
    bt = BetaTable(table)
    assert [F(*bt.beta(4, 2, i)) for i in (1, 2, 3)] == [F(7, 12), F(9, 12), F(10, 12)]
    rho42 = materialize_rho(4, 2, bt)
    twelfth = [
        [5, 7, 0, 0, 0, 0],
        [5, 0, 7, 0, 0, 0],
        [0, 3, 0, 9, 0, 0],
        [0, 0, 3, 0, 9, 0],
        [0, 0, 0, 1, 1, 10],
    ]
    assert rho42.dense() == [[F(v, 12) for v in row] for row in twelfth]

    for n in range(2, 8):
        for m in range(max_inversions(n)):
            rho = materialize_rho(n, m, bt)
            row_totals = {x: F(0) for x in rho.rows}
            col_totals = {y: F(0) for y in rho.cols}
            for (x, y), v in rho.entries.items():
                assert 0 <= v <= 1
                row_totals[x] += v
                col_totals[y] += v
            assert all(v == 1 for v in row_totals.values())
            gamma = F(table.count(n, m), table.count(n, m + 1))
            assert all(v == gamma for v in col_totals.values())
            if 2 * m < max_inversions(n):
                for i in range(1, min(n - 1, m + 1) + 1):
                    assert 0 <= F(*bt.beta(n, m, i)) <= 1
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    _report(
        "criterion 2 (beta construction, n <= 7 all budgets, < 30 s)",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_chain_uniformity():
    t0 = time.time()
    table = build_table(7)
    bt = BetaTable(table)
    for n in range(2, 7):
        for m, dist in enumerate(symbolic_chain_distributions(n, bt)):
            size = table.count(n, m)
            assert len(dist) == size
            assert all(p == F(1, size) for p in dist.values())
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _report(
        "criterion 3 (exact chain uniformity, n <= 6 every budget, < 60 s)",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_monotonicity():
    t0 = time.time()
    report = run_monotonicity_check(8)
    elapsed = time.time() - t0
    ok = report.passed and elapsed < 300.0
    _report(
        "criterion 4 (monotonicity + domination + indecomposable totals, n <= 8, < 5 min)",
        ok,
        f"nondecreasing={report.nondecreasing_ok} domination={report.domination_ok} "
        f"totals={report.totals_ok} {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_bijection_and_structure():
    t0 = time.time()
    for n in range(1, 9):
        for word in itertools.permutations(range(1, n + 1)):
            x = inversion_sequence(word)
            assert permutation_from_inversion_sequence(x) == word
            cuts = decomposition_points(x)
            comps = _components(word)
            assert (len(cuts) == 0) == (len(comps) == 1)
            assert [set(range(a + 1, b + 1)) for a, b in
                    zip((0,) + tuple(cuts), tuple(cuts) + (n,))] == comps
            image = psi(word)
            assert psi(image) == word
            assert inversion_count(image) == sum(x)
            assert blocks(image).sizes == tuple(reversed(blocks(word).sizes))
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    _report(
        "criterion 5 (bijection/connectivity/psi, exhaustive n <= 8, < 2 min)",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


def _components(word):
    n = len(word)
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in permutation_graph_edges(word):
        parent[find(a)] = find(b)
    comps = {}
    for v in range(1, n + 1):
        comps.setdefault(find(v), set()).add(v)
    return sorted(comps.values(), key=min)


# ---------------------------------------------------------------- criterion 6
N_DESK = 100_000
TRIALS_DESK = 2000


@pytest.fixture(scope="module")
def component_census():
    cfg = ExperimentConfig(
        n=N_DESK, mode="components", trials=TRIALS_DESK, seed=20_260_810, mu_list=[-1.0, 0.0, 1.0]
    )
    return judge(run_component_census(cfg))


def test_criterion_6_poisson_limit(component_census):
    report = component_census
    lines = []
    ok = report.passed
    for p, v in zip(report.points, report.judgement.points):
        # the finite-n excess over the limit mean must shrink with n
        excess = []
        for n in (10**4, 10**5, 10**6):
            _, m = alpha_for_mu(n, p.mu)
            excess.append((n, finite_n_mean_cuts(n, m) - threshold_params(n, m).lam))
        ok &= excess[0][1] > excess[1][1] > excess[2][1]
        lines.append(
            f"mu={p.mu:+.0f}: E_ref={v.measured['ref_mean']:.4f} mean={p.mean:.4f} "
            f"se={p.stderr:.4f} gap={v.measured['mean_gap_sigma']:.2f}sigma "
            f"TV={v.measured['tv']:.4f}; limit anchors lambda={v.anchors['lam']:.4f} "
            f"gap={v.anchors['gap_sigma']:.1f}sigma TV={v.anchors['tv']:.4f}; excess*log n = "
            + "/".join(f"{e * math.log(n):.3f}" for n, e in excess)
            + " at n=1e4/1e5/1e6"
        )
    _report(
        "criterion 6 (C-1 vs exact finite-n law, n=1e5, mu in {-1,0,1}, 2000 trials)",
        ok,
        "; ".join(lines),
    )
    print(
        "  note: the Poisson(n*h) limit is printed as an anchor only: E[C-1] "
        "exceeds n*h by a short-edge-block term that decays like 1/log n "
        "(~0.3 at n=1e5), far more than 3 standard errors of 2000 trials."
    )
    assert ok, "census departs from the finite-n law beyond pinned tolerances"


def test_criterion_6b_exact_expectation_cross_check():
    """Supporting evidence for criterion 6: at n=300 the empirical mean of
    C-1 from the production sampler matches the exactly computed
    E[C-1] = sum_j sum_a s(j,a) s(n-j, m-a) / s(n,m) well within Monte
    Carlo error, while E[C-1] itself sits far above n*h.  The criterion-6
    gap is a property of the finite-n distribution, not of this code."""
    n = 300
    _, m = alpha_for_mu(n, 0.0)
    exact_mean = float(expected_cuts(build_table(n, m_cap=m), n, m))

    sampler = SplitSampler(n, m)
    trials = 20_000
    values = np.fromiter(
        (
            len(decomposition_points(sampler.sample(SamplerContext(None, 7, (0, t)))))
            for t in range(trials)
        ),
        dtype=np.int64,
        count=trials,
    )
    se = values.std(ddof=1) / math.sqrt(trials)
    gap = abs(values.mean() - exact_mean) / se
    lam = threshold_params(n, m).lam
    ok = gap <= 4.0
    _report(
        "criterion 6b (sampler mean vs exact E[C-1], n=300)",
        ok,
        f"exact={exact_mean:.4f} empirical={values.mean():.4f} gap={gap:.2f}sigma "
        f"(n*h={lam:.4f}: the finite-n excess {exact_mean - lam:+.4f} is real)",
    )
    assert ok


# ---------------------------------------------------------------- criterion 7
@pytest.fixture(scope="module")
def block_census():
    cfg = ExperimentConfig(
        n=N_DESK, mode="blocks", trials=TRIALS_DESK, seed=20_260_811, mu_list=[-3.0]
    )
    return judge(run_block_census(cfg))


def test_criterion_7_block_size_limits(block_census):
    p, v = block_census.points[0], block_census.judgement.points[0]
    lmin = np.array(p.rows)[:, 0]
    # the saddle point only, as judge uses: tests/test_limits.py bounds what that drops
    (ref_min_1,), _ = finite_n_block_cdfs(N_DESK, p.m, [1], [], contour=False)
    detail = (
        f"KS(L_min, finite-n) <= {v.measured['ks_min']:.4f} (<= 0.08: {v.ok['ks_min']}); "
        f"KS(L_max, finite-n) <= {v.measured['ks_max']:.4f} (<= 0.08: {v.ok['ks_max']}); "
        f"P_ref(L_min=1)={ref_min_1:.4f} census {np.mean(lmin == 1):.4f}; "
        f"first/last two-sample p={p.first_last_pvalue:.4f} (> 1e-3: {v.ok['first_last']}); "
        f"limit anchors KS(U, Exp(1))={v.anchors['ks_min_exp']:.4f} "
        f"KS(V, Gumbel)={v.anchors['ks_max_gumbel']:.4f}"
    )
    ok = block_census.passed
    _report(
        "criterion 7 (block extremes vs exact finite-n law, n=1e5, mu=-3, 2000 trials)",
        ok,
        detail,
    )
    print(
        "  note: the Exp(1)/Gumbel limits are printed as anchors only: they "
        "need n*h small next to log n, but at n=1e5, mu=-3, n*h ~ 20 and a "
        "block of size 1 next to a cut is near-certain."
    )
    assert ok, "census departs from the finite-n block-extreme laws beyond pinned tolerances"


def test_criterion_7b_first_last_symmetry(block_census):
    p = block_census.points[0]
    ok = block_census.judgement.points[0].ok["first_last"]
    _report(
        "criterion 7b (L_first vs L_last equidistribution)",
        ok,
        f"two-sample KS p={p.first_last_pvalue:.4f}",
    )
    assert ok


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_sampler_correctness():
    t0 = time.time()
    table = build_table(6)
    # symbolic: the sampler's per-coordinate preimage counts make every
    # outcome probability telescope to exactly 1/s(n,m)
    for n in range(2, 7):
        for m in range(max_inversions(n) + 1):
            for x in enumerate_inversion_sequences(n, m):
                work = x if 2 * m <= max_inversions(n) else tuple(
                    i - v for i, v in enumerate(x)
                )
                budget = sum(work)
                prob = F(1)
                for level in range(n, 0, -1):
                    if budget == 0:
                        break
                    u_count = 0
                    total = table.count(level, budget)
                    for u in range(total):
                        if table.unrank(level, budget, u)[level - 1] == work[level - 1]:
                            u_count += 1
                    prob *= F(u_count, total)
                    budget -= work[level - 1]
                assert prob == F(1, table.count(n, m))

    # empirical chi-square over X(4,2): 5 cells, 1e5 draws
    draws = 100_000
    counts = Counter(
        tuple(sample_inversion_sequence(4, 2, SamplerContext(table, 12, (t,))))
        for t in range(draws)
    )
    space = enumerate_inversion_sequences(4, 2)
    assert set(counts) == set(space)
    expect = draws / 5
    chisq = sum((counts[s] - expect) ** 2 / expect for s in space)
    pvalue = stats.chi2.sf(chisq, df=4)
    elapsed = time.time() - t0
    ok = pvalue > 1e-4
    _report(
        "criterion 8 (sampler exact-uniform symbolically n <= 6; chi-square X(4,2))",
        ok,
        f"p={pvalue:.4f} {elapsed:.1f}s",
    )
    assert ok
