import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import invperm
from invperm import experiments
from invperm.counting import build_table, max_inversions
from invperm.coupling import BetaTable, run_chain
from invperm.experiments import (
    RUNNERS,
    BlockCensusPoint,
    CensusPoint,
    CensusReport,
    ExperimentConfig,
    indecomposable_counts,
    judge,
    run_block_census,
    run_census,
    run_component_census,
    run_marked_vs_decomposition,
    run_monotonicity_check,
    _ks_2samp_pvalue,
    _ks_distance,
    _ks_upper_bound,
    tv_distance,
)
from invperm.limits import alpha_for_mu, threshold_params
from invperm.permutations import decomposition_points, enumerate_inversion_sequences
from invperm.rng import SamplerContext
from invperm.sampling import SplitSampler

F = Fraction


def test_tv_distance_exact_pmf_is_zero():
    lam = 1.0
    pmf = stats.poisson.pmf(np.arange(0, 61), lam)
    assert tv_distance(pmf * 10**9, lam) < 1e-12


def test_tv_distance_point_mass():
    assert tv_distance({0: 1000}, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_tv_distance_empirical_poisson():
    rng = np.random.default_rng(3)
    draws = rng.poisson(2.0, size=1_000_000)
    hist = np.bincount(draws)
    assert tv_distance(hist, 2.0) <= 0.005


@pytest.mark.parametrize("lam", [0.05, 0.3, 1.0, 2.5, 7.0, 20.0, 80.0])
def test_tv_distance_equals_scipy_poisson(lam):
    """pmf and tail mass from lgamma agree with scipy's Poisson, also for
    histograms that stop before the Poisson tail."""
    rng = np.random.default_rng(int(lam * 100))
    for length in sorted({1, 2, int(lam / 2) + 1, int(lam) + 1, int(3 * lam) + 10, 200}):
        counts = rng.integers(0, 40, size=length)
        counts[0] += 1
        k = np.arange(length)
        expected = 0.5 * float(
            np.abs(counts / counts.sum() - stats.poisson.pmf(k, lam)).sum()
        ) + 0.5 * float(stats.poisson.sf(length - 1, lam))
        assert tv_distance(counts, lam) == pytest.approx(expected, abs=1e-12)
        as_dict = {int(j): int(c) for j, c in enumerate(counts) if c}
        assert tv_distance(as_dict, lam) == pytest.approx(expected, abs=1e-12)


def test_ks_distances_equal_scipy_kstest():
    rng = np.random.default_rng(11)
    for size in (1, 7, 60, 2000):
        u = rng.exponential(size=size) * rng.uniform(0.5, 1.5)
        v = rng.gumbel(size=size) + rng.normal(0.0, 0.3)
        ours = _ks_distance(u, lambda x: -np.expm1(-x))
        assert ours == pytest.approx(stats.kstest(u, "expon").statistic, abs=1e-12)
        ours = _ks_distance(v, lambda x: np.exp(-np.exp(-x)))
        assert ours == pytest.approx(stats.kstest(v, "gumbel_r").statistic, abs=1e-12)


def _exact_ks_2samp_pvalue(n: int, h: int) -> float:
    """2 sum_{j>=1} (-1)^(j-1) C(2n, n-jh) / C(2n, n) in exact rationals."""
    total = sum(
        (-1) ** (j - 1) * math.comb(2 * n, n - j * h) for j in range(1, n // h + 1)
    )
    return float(F(2 * total, math.comb(2 * n, n)))


@pytest.mark.parametrize("n", [1, 5, 50, 2000, 10_000])
def test_two_sample_pvalue_equals_scipy_exact_method(n):
    """Bit-identical to ks_2samp wherever scipy's exact method succeeds.
    Where its Horner sum rounds above 1 (h <= 2, true p = 1 up to 1e-16)
    scipy falls back to an asymptotic p; there the exact sum is the
    reference."""
    rng = np.random.default_rng(n)
    same = rng.geometric(0.3, size=n)
    cases = [(same, same.copy())]  # h = 0
    for p in (0.05, 0.3, 0.8):  # geometric samples: heavy ties
        cases.append((rng.geometric(p, size=n), rng.geometric(p, size=n)))
        cases.append((rng.geometric(p, size=n), rng.geometric(0.9 * p, size=n)))
    cases.append((rng.normal(size=n), rng.normal(0.1, 1.0, size=n)))
    exact = 0
    for a, b in cases:
        ours = _ks_2samp_pvalue(a, b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            theirs = stats.ks_2samp(a, b)
        if not caught:
            exact += 1
            assert ours == float(theirs.pvalue)
        else:
            h = round(float(theirs.statistic) * n)
            assert ours == pytest.approx(min(1.0, _exact_ks_2samp_pvalue(n, h)), abs=1e-12)
    assert _ks_2samp_pvalue(same, same) == 1.0
    assert exact >= len(cases) // 2


def test_two_sample_pvalue_matches_exact_sum_for_every_h():
    for n in range(1, 40):
        base = np.arange(n)
        for h in range(1, n + 1):
            expected = min(1.0, _exact_ks_2samp_pvalue(n, h))
            assert _ks_2samp_pvalue(base, base + h - 0.5) == pytest.approx(expected, abs=1e-12)


def test_block_census_statistics_equal_scipy():
    cfg = ExperimentConfig(n=10_000, mode="blocks", trials=60, seed=5, mu_list=[-3.0, -2.5])
    report = judge(run_block_census(cfg))
    for point, verdict in zip(report.points, report.judgement.points):
        h = threshold_params(cfg.n, point.m).h
        lmin, lmax, lfirst, llast = np.array(point.rows, dtype=float).T
        u = lmin * cfg.n * h**2
        v = h * lmax - math.log(cfg.n * h)
        exp, gumbel = stats.kstest(u, "expon"), stats.kstest(v, "gumbel_r")
        assert verdict.anchors["ks_min_exp"] == pytest.approx(exp.statistic, abs=1e-12)
        assert verdict.anchors["ks_max_gumbel"] == pytest.approx(gumbel.statistic, abs=1e-12)
        assert point.first_last_pvalue == float(stats.ks_2samp(lfirst, llast).pvalue)


def test_tv_distance_errors():
    with pytest.raises(ValueError):
        tv_distance({0: 10}, 0.0)
    with pytest.raises(ValueError):
        tv_distance([], 1.0)


def test_judge_against_a_hand_counted_law():
    """At n = 6, m = 6 the law of C - 1 is counted over all 90 permutations
    with 6 inversions; judge's reference mean, mean gap and TV for a
    histogram made up by hand equal the values computed from that count."""
    n, m = 6, 6
    law = Counter(len(decomposition_points(x)) for x in enumerate_inversion_sequences(n, m))
    assert law == {0: 44, 1: 43, 2: 3}
    hist = {0: 45, 1: 40, 2: 10, 3: 5}
    values = np.repeat(list(hist), list(hist.values()))
    stderr = float(values.std(ddof=1)) / math.sqrt(len(values))
    point = CensusPoint(None, m, "threshold", hist, float(values.mean()), stderr, None)
    report = judge(CensusReport(n=n, trials=100, seed=0, points=[point]))
    (verdict,) = report.judgement.points
    exact_mean = F(43 + 2 * 3, 90)
    exact_tv = sum(abs(F(hist.get(k, 0), 100) - F(law[k], 90)) for k in range(4)) / 2
    assert exact_tv == F(7, 60)  # 0.1167, above the 0.10 tolerance
    gap = abs(0.75 - float(exact_mean)) / stderr
    assert verdict.measured["ref_mean"] == pytest.approx(float(exact_mean), abs=1e-9)
    assert verdict.measured["mean_gap_sigma"] == pytest.approx(gap, rel=1e-9)
    assert verdict.measured["tv"] == pytest.approx(float(exact_tv), abs=1e-9)
    assert verdict.ok == {"mean": gap <= 3.0, "tv": False} and report.passed is False


def test_judge_ks_bound_covers_the_brute_force_sup(monkeypatch):
    """With the reference swapped for known step CDFs, judge's KS bounds
    for L_min and L_max are at least sup_t |E(t) - R(t)| over every integer
    t, for samples with fewer distinct values than the quantile grid has
    points and with more; on the grid of every integer the bound is that
    sup."""
    n, m = 400, 1000
    ts = np.arange(n + 1)
    r_min = 1.0 - 0.97**ts  # geometric, then all the mass left at n
    r_max = np.clip((ts - 120) / 280, 0.0, 1.0)  # E - R then peaks between grid points
    r_min[-1] = 1.0

    def reference(n_, m_, min_grid, max_grid, contour):
        assert (n_, m_, contour) == (n, m, False)
        return r_min[np.asarray(min_grid)], r_max[np.asarray(max_grid)]

    monkeypatch.setattr(experiments, "finite_n_block_cdfs", reference)
    rng = np.random.default_rng(8)
    for size in (1, 3, 10, 57, 500, 2000):
        lmin = rng.geometric(0.04, size).clip(1, n)
        lmax = rng.integers(lmin, n + 1)
        rows = [(a, b, a, b) for a, b in zip(lmin.tolist(), lmax.tolist())]
        point = BlockCensusPoint(None, m, 0.5, float(lmin.mean()), float(lmax.mean()), None, rows)
        report = CensusReport(n=n, trials=size, seed=0, points=[point])
        (verdict,) = judge(report).judgement.points
        for name, sample, cdf in (("ks_min", lmin, r_min), ("ks_max", lmax, r_max)):
            brute = max(abs(np.mean(sample <= t) - cdf[t]) for t in ts)
            assert verdict.measured[name] >= brute - 1e-12
            assert _ks_upper_bound(sample, ts, cdf) == pytest.approx(brute, abs=1e-12)


def test_judge_leaves_points_without_a_finite_n_law_out_of_passed():
    """A trivial-regime point and a threshold point with 2m > C(n, 2) have
    no finite-n law: judge names why, gives them no verdicts and leaves them
    out of ``passed``, though the limit law would fail the trivial one.  (At
    the high point E[C - 1] is 0.0054 exactly and the limit's mean about 0,
    so its gap exceeds 3 sigma only in a sample with no cut at all.)"""
    n = 30
    report = judge(run_component_census(_component_cfg(m_list=[n - 2, 300, 120])))
    trivial, high, judged = report.judgement.points
    assert [p.regime for p in report.points] == ["always_decomposable", "threshold", "threshold"]
    assert "trivial regime" in trivial.unjudged and "2m > C(n,2)" in high.unjudged
    assert trivial.measured == trivial.ok == high.measured == high.ok == {}
    assert trivial.anchors["gap_sigma"] > 3 and "gap_sigma" in high.anchors
    assert judged.unjudged is None and report.passed == all(judged.ok.values())
    report.points = report.points[:2]
    assert judge(report).passed is True


def test_indecomposable_count_recurrence_values():
    # 1, 1, 3, 13, 71, 461, 3447: indecomposable permutation counts
    assert indecomposable_counts(7) == [1, 1, 3, 13, 71, 461, 3447]


def test_monotonicity_small_exact_values():
    report = run_monotonicity_check(4)
    assert report.passed
    assert report.p_indecomposable[2] == [F(0), F(1)]
    # m=1: 132 and 213 are both decomposable; m=2: 231 and 312 are both
    # indecomposable (hand enumeration of S_3)
    assert report.p_indecomposable[3] == [F(0), F(0), F(1), F(1)]
    assert sum(
        p * s for p, s in zip(report.p_indecomposable[3], [1, 2, 2, 1])
    ) == 3  # f(3)


def test_monotonicity_check_guard():
    for n_max in (10, 1, 0, -3):
        with pytest.raises(ValueError, match="2 <= n_max <= 9"):
            run_monotonicity_check(n_max)


def test_monotonicity_through_n6():
    assert run_monotonicity_check(6).passed


def _component_cfg(**kw):
    base = dict(n=30, mode="components", trials=150, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_component_census_trivial_regimes():
    n = 30
    cfg = _component_cfg(m_list=[n - 2, max_inversions(n - 1) + 1])
    report = judge(run_component_census(cfg))
    decomposable, indecomposable = report.points
    assert decomposable.regime == "always_decomposable"
    assert min(decomposable.histogram) >= 1  # C >= 2 in every trial
    assert indecomposable.regime == "always_indecomposable"
    assert indecomposable.histogram == {0: cfg.trials}
    # no spread: the gap to the limit mean is inf, which the report writes
    # as null, so a strict parser (no Infinity or NaN tokens) accepts it
    gaps = [v.anchors["gap_sigma"] for v in report.judgement.points]
    assert gaps[1] == math.inf

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for deterministic in (True, False):
        payload = json.loads(report.to_json(deterministic), parse_constant=refuse)
        points = payload["judgement"]["points"]
        assert points[0]["anchors"]["gap_sigma"] == gaps[0]
        assert points[1]["anchors"]["gap_sigma"] is None


def test_component_census_conservation_and_report():
    cfg = _component_cfg(n=200, trials=100, mu_list=[0.0])
    report = judge(run_component_census(cfg))
    point, verdict = report.points[0], report.judgement.points[0]
    assert sum(point.histogram.values()) == cfg.trials
    assert 0.0 <= verdict.measured["tv"] <= 1.0 and 0.0 <= verdict.anchors["tv"] <= 1.0
    payload = json.loads(report.to_json())
    assert payload["n"] == 200
    assert "wall_seconds" not in payload


def test_component_census_determinism_and_parallel_merge():
    cfg1 = _component_cfg(n=120, trials=60, mu_list=[0.0], seed=9)
    cfg2 = _component_cfg(n=120, trials=60, mu_list=[0.0], seed=9, parallelism=2)
    r1 = run_component_census(cfg1)
    r2 = run_component_census(cfg2)
    assert r1.to_json() == r2.to_json()
    r3 = run_component_census(_component_cfg(n=120, trials=60, mu_list=[0.0], seed=9))
    assert r1.to_json() == r3.to_json()


def test_threaded_censuses_keep_their_own_worker_state(monkeypatch):
    """Two in-process censuses run from two threads at once each give the
    JSON of their serial run: the trials' sampler and stream keys are per
    thread.  Both threads build their samplers before either draws."""
    cfgs = [_component_cfg(n=3000, trials=60, m_list=[m], seed=3) for m in (9000, 14000)]
    serial = [run_component_census(cfg).to_json() for cfg in cfgs]
    both_built = threading.Barrier(2, timeout=60)
    init = experiments._worker_init

    def init_then_wait(*args):
        init(*args)
        both_built.wait()

    monkeypatch.setattr(experiments, "_worker_init", init_then_wait)
    threaded = [None, None]

    def run(i):
        threaded[i] = run_component_census(cfgs[i]).to_json()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert threaded == serial


def test_census_outputs_pinned():
    """The deterministic JSON of a component, a block and a marked census,
    unjudged, joined with no separator: any change to the sampler, the
    measured statistics or the report format changes the digest."""
    runs = [
        ("components", 10**4, 60, [-1.0, 0.0]),
        ("blocks", 10**4, 60, [-3.0]),
        ("marked", 10**5, 20, [0.0]),
    ]
    payload = "".join(
        RUNNERS[mode](
            ExperimentConfig(n=n, mode=mode, trials=trials, seed=5, mu_list=mus)
        ).to_json()
        for mode, n, trials, mus in runs
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "ad53da8ad2e3fc0e7966ba9f4bfea85d39e6ffa5dedced2f96fa82f38c524c3c"
    )


def test_census_points_report_sampler_diagnostics():
    """Each point states its sampler's head size, restarts, build time and
    acceptance rate; parallelism 1 and 2 give the same head size, restarts
    (summed over chunks and workers) and acceptance, and none of it reaches
    the deterministic bytes."""
    # the n = 100 heads (51 and 74 long) leave tails of 49 and 26 parts that
    # break a bound in a few percent of proposals, so proposals restart
    cfg = _component_cfg(n=100, trials=40, m_list=[700, 1000], seed=2)
    serial = run_component_census(cfg)
    cfg.parallelism = 2
    parallel = run_component_census(cfg)
    for point in serial.points:
        sampler = SplitSampler(100, point.m)
        assert sampler.head_size < 100
        assert point.sampler.head_size == sampler.head_size
        assert point.sampler.build_s > 0
        assert point.sampler.acceptance == 40 / (40 + point.sampler.restarts)

    def diagnostics(report):
        return [(p.sampler.head_size, p.sampler.restarts, p.sampler.acceptance) for p in report.points]

    assert diagnostics(serial) == diagnostics(parallel)
    assert sum(restarts for _, restarts, _ in diagnostics(serial)) > 0
    assert min(acceptance for *_, acceptance in diagnostics(serial)) < 1
    assert serial.to_json() == parallel.to_json()
    assert '"sampler"' not in serial.to_json()
    assert json.loads(serial.to_json(deterministic=False))["points"][1]["sampler"][
        "restarts"
    ] == serial.points[1].sampler.restarts


@pytest.mark.parametrize("mode, mu", [("components", 0.0), ("blocks", -3.0)])
def test_no_sampler_outlives_its_census(monkeypatch, mode, mu):
    """At parallelism 1 a census drops each point's SplitSampler when it
    returns, and also when a trial raises."""
    refs = []
    init = SplitSampler.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    def failing_sample(self, ctx):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(SplitSampler, "__init__", recording_init)
    cfg = ExperimentConfig(n=300, mode=mode, trials=6, seed=4, mu_list=[mu])
    RUNNERS[mode](cfg)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    monkeypatch.setattr(SplitSampler, "sample", failing_sample)
    with pytest.raises(RuntimeError, match="trial failed"):
        RUNNERS[mode](cfg)
    gc.collect()
    assert len(refs) == 2 and refs[1]() is None


def test_in_process_census_never_loads_the_process_pool():
    """Importing invperm and running a census at parallelism 1 leave
    ``concurrent.futures.process`` (and with it multiprocessing) unloaded;
    the parallel path is covered by the byte-identical merge tests."""
    src = str(Path(invperm.__file__).resolve().parents[1])
    code = (
        "import sys, invperm, invperm.cli; "
        "from invperm.experiments import ExperimentConfig, run_component_census; "
        "loaded = 'concurrent.futures.process' in sys.modules; "
        "run_component_census(ExperimentConfig(n=60, mode='components', trials=5, seed=1, mu_list=[0.0])); "
        "print(loaded, 'concurrent.futures.process' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False", "False"]


def test_component_census_calls_the_hooks_the_benchmark_wraps(monkeypatch):
    """The benchmark's tracer and timer replace these module globals; the
    census must call them through the module, once per point and once per
    trial."""
    from invperm import experiments

    calls = {"_worker_init": 0, "decomposition_points": 0}
    for name in calls:
        original = getattr(experiments, name)

        def spy(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(experiments, name, spy)
    run_component_census(_component_cfg(n=80, trials=7, mu_list=[-1.0, 0.0]))
    assert calls == {"_worker_init": 2, "decomposition_points": 14}


@pytest.mark.parametrize(
    "mode,n,mus", [("components", 120, [-1, 0]), ("marked", 20_000, [-2])]
)
def test_mu_spelling_does_not_change_report_bytes(mode, n, mus):
    def payload(mu_list):
        cfg = ExperimentConfig(n=n, mode=mode, trials=8, seed=4, mu_list=mu_list)
        return RUNNERS[mode](cfg).to_json()

    as_int = payload(mus)
    assert as_int == payload([float(mu) for mu in mus])
    assert f'"mu": {float(mus[-1])}' in as_int


def test_block_census_guard_rejects_near_threshold():
    cfg = ExperimentConfig(n=5000, mode="blocks", trials=10, mu_list=[0.0])
    with pytest.raises(ValueError, match="mu <= -2"):
        cfg.validate()


def test_block_census_guard_bounds_m_at_mu_minus_2():
    """An m point is refused exactly above n * alpha(-2), the m of mu = -2
    before rounding; the message states m and the bound."""
    n = 5000
    bound = n * alpha_for_mu(n, -2.0)[0]
    ExperimentConfig(n=n, mode="blocks", m_list=[math.floor(bound)]).validate()
    cfg = ExperimentConfig(n=n, mode="blocks", m_list=[math.floor(bound) + 1])
    with pytest.raises(ValueError, match="mu <= -2") as err:
        cfg.validate()
    assert f"m <= {bound:.1f}" in str(err.value)
    assert f"got m={math.floor(bound) + 1}" in str(err.value)


def test_block_census_small_run():
    cfg = ExperimentConfig(
        n=4000, mode="blocks", trials=120, seed=13, mu_list=[-2.5]
    )
    report = judge(run_block_census(cfg))
    point = report.points[0]
    rows = point.rows
    assert len(rows) == 120
    for lmin, lmax, lfirst, llast in rows:
        assert 1 <= lmin <= lmax <= 4000
        assert lmin <= lfirst <= lmax and lmin <= llast <= lmax
    assert all(0 <= ks <= 1 for ks in report.judgement.points[0].anchors.values())
    # block sizes always sum to n: recompute two trials directly
    sampler = SplitSampler(4000, point.m)
    for trial in (0, 7):
        ctx = SamplerContext(None, 13, (0, trial))
        x = sampler.sample(ctx)
        cuts = decomposition_points(x)
        sizes = np.diff([0] + cuts + [4000])
        assert sizes.sum() == 4000
        assert (int(sizes.min()), int(sizes.max())) == rows[trial][:2]


def test_block_census_parallel_merge_is_byte_identical():
    def cfg(parallelism):
        return ExperimentConfig(
            n=4000,
            mode="blocks",
            trials=30,
            seed=13,
            mu_list=[-2.5, -3.0],
            parallelism=parallelism,
        )

    serial, parallel = run_block_census(cfg(1)), run_block_census(cfg(2))
    assert serial.to_json() == parallel.to_json()
    assert [p.rows for p in serial.points] == [p.rows for p in parallel.points]


def test_block_census_repeated_point_keeps_its_own_rows_and_verdict(tmp_path):
    """Two points with one m are two censuses on different streams: each
    keeps its own rows, is judged on them as it would be alone, and writes
    them to the CSV in point order, each row under its point's index."""
    trials = 20
    cfg = ExperimentConfig(
        n=2000, mode="blocks", trials=trials, seed=3, mu_list=[-3.0, -3.0], out_dir=str(tmp_path)
    )
    report = run_census(cfg)
    first, second = report.points
    assert first.m == second.m and first.rows != second.rows
    for point, verdict in zip(report.points, report.judgement.points):
        assert len(point.rows) == trials
        assert point.max_mean == pytest.approx(np.mean([row[1] for row in point.rows]))
        alone = judge(CensusReport(n=cfg.n, trials=trials, seed=cfg.seed, points=[point]))
        assert alone.judgement.points == [verdict]
    lines = (tmp_path / "blocks_n2000_seed3.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * trials
    assert lines[0] == "point,m,trial,l_min,l_max,l_first,l_last"
    cells = [list(map(int, line.split(","))) for line in lines[1:]]
    assert [row[:3] for row in cells] == [
        [key, first.m, trial] for key in (0, 1) for trial in range(trials)
    ]
    assert [tuple(row[3:]) for row in cells] == first.rows + second.rows


def test_marked_census_runs_and_inclusion_holds():
    cfg = ExperimentConfig(n=20_000, mode="marked", trials=60, seed=3, mu_list=[-2.0])
    report = run_marked_vs_decomposition(cfg)
    assert report.inclusion_always
    assert 0.0 <= report.agreement_frequency <= 1.0
    assert 0.0 <= report.close_pair_frequency <= 1.0
    payload = json.loads(report.to_json())
    assert payload["nu"] == report.nu


def test_marked_agreement_anchor_at_scale():
    """Marked and decomposition sets agree on most draws; the miss rate
    is the Theta(1/log n) chance of a cut inside the final window, so at
    n = 1e5 the measured agreement is ~0.81 (anchored; the limit is 1)."""
    cfg = ExperimentConfig(
        n=100_000, mode="marked", trials=300, seed=1, mu_list=[-2.0]
    )
    report = run_marked_vs_decomposition(cfg)
    assert report.inclusion_always
    assert report.agreement_frequency >= 0.70


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(n=100, mode="bogus").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(n=100, mode="components", trials=0, mu_list=[0.0]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(n=100, mode="components").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(n=2, mode="components", mu_list=[0.0]).validate()


def test_config_validation_marked_needs_n_minus_nu_at_least_nu():
    """nu = ceil(2 (m/n + 1) log n) is the marked-point window; the
    composition it slides over has n - nu parts."""
    with pytest.raises(ValueError, match="n=10, m=5 give nu=7"):
        ExperimentConfig(n=10, mode="marked", m_list=[5]).validate()
    with pytest.raises(ValueError, match="n=100, m=500 give nu=56"):
        ExperimentConfig(n=100, mode="marked", m_list=[10, 500]).validate()
    ExperimentConfig(n=100, mode="marked", m_list=[10]).validate()  # nu = 11


def test_config_validation_marked_takes_one_point():
    """The marked runner reports one (mu, m) point; more are refused, not
    dropped."""
    for points in ({"m_list": [3000, 9000]}, {"mu_list": [-2.0], "m_list": [3000]}):
        cfg = ExperimentConfig(n=2000, mode="marked", **points)
        with pytest.raises(ValueError, match="one point .*got 2"):
            cfg.validate()
        with pytest.raises(ValueError, match="one point"):
            run_marked_vs_decomposition(cfg)
    ExperimentConfig(n=2000, mode="marked", m_list=[3000]).validate()


def test_config_validation_bounds_parallelism():
    """Checked by validate() alone; no worker process is started."""
    cpus = os.cpu_count() or 1
    for bad in (0, -1, cpus + 1, 10**6):
        cfg = ExperimentConfig(
            n=100, mode="components", mu_list=[0.0], parallelism=bad
        )
        with pytest.raises(ValueError, match="parallelism"):
            cfg.validate()
    for good in (1, cpus):
        ExperimentConfig(
            n=100, mode="components", mu_list=[0.0], parallelism=good
        ).validate()


def test_report_files_written(tmp_path):
    cfg = _component_cfg(n=80, trials=40, mu_list=[0.0], out_dir=str(tmp_path))
    run_census(cfg)
    files = list(tmp_path.iterdir())
    assert any(f.suffix == ".json" for f in files)
    blocks_cfg = ExperimentConfig(
        n=4000,
        mode="blocks",
        trials=25,
        seed=1,
        mu_list=[-2.5],
        out_dir=str(tmp_path),
    )
    run_census(blocks_cfg)
    assert any(f.suffix == ".csv" for f in tmp_path.iterdir())


def test_chain_and_sampler_censuses_agree():
    """Cross-module coherence: the ball-throwing chain, the table
    sampler, and the split sampler must induce the same block-count law.
    Scaled down from the n=1000/10^4-trial setting, which is tens of
    millions of chain steps; the statistical content is unchanged."""
    from invperm.sampling import sample_inversion_sequence

    n = 120
    _, m = alpha_for_mu(n, 0.0)
    trials = 350
    table = build_table(n, m_cap=m + 1)
    bt = BetaTable(table)
    chain_counts = []
    for t in range(trials):
        ctx = SamplerContext(table, 41, (0, t))
        state = run_chain(n, m, ctx, betas=bt)
        chain_counts.append(len(decomposition_points(list(state.x))))
    table_counts = []
    for t in range(trials):
        ctx = SamplerContext(table, 41, (2, t))
        x = sample_inversion_sequence(n, m, ctx)
        table_counts.append(len(decomposition_points(x)))
    sampler = SplitSampler(n, m)
    split_counts = []
    for t in range(trials):
        ctx = SamplerContext(None, 41, (1, t))
        split_counts.append(len(decomposition_points(sampler.sample(ctx))))
    for other in (table_counts, split_counts):
        kmax = max(max(chain_counts), max(other))
        ha = np.bincount(chain_counts, minlength=kmax + 1)
        hb = np.bincount(other, minlength=kmax + 1)
        keep = (ha + hb) >= 8
        pooled = (ha[keep] + hb[keep]) / (ha.sum() + hb.sum())
        ea, eb = pooled * ha.sum(), pooled * hb.sum()
        chisq = (((ha[keep] - ea) ** 2) / ea).sum() + (
            ((hb[keep] - eb) ** 2) / eb
        ).sum()
        assert stats.chi2.sf(chisq, df=max(1, keep.sum() - 1)) > 1e-4
