import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from invperm.counting import build_table, max_inversions
from invperm.coupling import BetaTable, run_chain
from invperm.experiments import (
    RUNNERS,
    ExperimentConfig,
    indecomposable_counts,
    run_block_census,
    run_component_census,
    run_marked_vs_decomposition,
    run_monotonicity_check,
    tv_distance,
)
from invperm.limits import alpha_for_mu
from invperm.permutations import decomposition_points
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


def test_tv_distance_errors():
    with pytest.raises(ValueError):
        tv_distance({0: 10}, 0.0)
    with pytest.raises(ValueError):
        tv_distance([], 1.0)


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
    report = run_component_census(cfg)
    decomposable, indecomposable = report.points
    assert decomposable.regime == "always_decomposable"
    assert min(decomposable.histogram) >= 1  # C >= 2 in every trial
    assert indecomposable.regime == "always_indecomposable"
    assert indecomposable.histogram == {0: cfg.trials}


def test_component_census_conservation_and_report():
    cfg = _component_cfg(n=200, trials=100, mu_list=[0.0])
    report = run_component_census(cfg)
    point = report.points[0]
    assert sum(point.histogram.values()) == cfg.trials
    assert 0.0 <= point.tv <= 1.0
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


def test_block_census_small_run():
    cfg = ExperimentConfig(
        n=4000, mode="blocks", trials=120, seed=13, mu_list=[-2.5]
    )
    report = run_block_census(cfg)
    point = report.points[0]
    rows = report.raw[point.m]
    assert len(rows) == 120
    for lmin, lmax, lfirst, llast in rows:
        assert 1 <= lmin <= lmax <= 4000
        assert lmin <= lfirst <= lmax and lmin <= llast <= lmax
    assert 0 <= point.ks_min_exp <= 1
    assert 0 <= point.ks_max_gumbel <= 1
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
    assert serial.raw == parallel.raw


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
    run_component_census(cfg)
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
    run_block_census(blocks_cfg)
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
