"""Monte Carlo harness for the desk-scale limit-law experiments.

Four modes: ``components`` (block-count distribution against its Poisson
limit), ``blocks`` (smallest/largest block against the Exp/Gumbel
limits), ``monotonicity`` (exact exhaustive small-n checks), and
``marked`` (marked points of the composition model against true
decomposition points).

Statistical pass tolerances live in :data:`TOLERANCES`.  They are
empirical desk-scale anchors: the limit theorems carry error terms of
order 1/log n, which at reachable n is a visible constant, so finite-n
deviations from the pure limit laws are expected and the reports include
the measured values for regression tracking.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import permutations as iter_permutations
from math import factorial

import numpy as np
from scipy import stats

from .counting import max_inversions
from .limits import (
    REGIME_THRESHOLD,
    classify_regime,
    threshold_params,
)
from .limits import alpha_for_mu as _alpha_for_mu
from .limits import marked_points as _marked_points
from .permutations import decomposition_points, inversion_sequence
from .rng import SamplerContext
from .sampling import SplitSampler, sample_composition

SCHEMA_VERSION = 1

#: Desk-scale statistical tolerances (empirical anchors, see README).
TOLERANCES = {
    "component_mean_sigma": 3.0,
    "component_tv": 0.10,
    "block_ks_exp": 0.08,
    "block_ks_gumbel": 0.08,
    "first_last_pvalue": 1e-3,
    "tolerance_basis": "empirical desk-scale anchors; the limit laws "
    "converge at rate O(1/log n), not checkable as hard oracles",
}


@dataclass
class ExperimentConfig:
    """One census run: which law, at what size, how many trials."""

    n: int
    mode: str  # components | blocks | monotonicity | marked
    trials: int = 1000
    seed: int = 0
    mu_list: list[float] | None = None
    m_list: list[int] | None = None
    parallelism: int = 1
    head_size: int | None = None
    out_dir: str | None = None
    n_max: int = 8  # monotonicity mode only

    def resolved_points(self) -> list[tuple[float | None, int]]:
        """(mu, m) pairs this config covers."""
        points: list[tuple[float | None, int]] = []
        if self.mu_list is not None:
            for mu in self.mu_list:
                points.append((mu, _alpha_for_mu(self.n, mu)[1]))
        if self.m_list is not None:
            points.extend((None, m) for m in self.m_list)
        return points

    def validate(self) -> None:
        if self.mode not in ("components", "blocks", "monotonicity", "marked"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        cpus = os.cpu_count() or 1
        if not 1 <= self.parallelism <= cpus:
            raise ValueError(f"parallelism must lie in 1..{cpus} (the CPU count)")
        if self.mode == "monotonicity":
            if self.n_max > 9:
                raise ValueError("monotonicity mode is exhaustive; n_max <= 9")
            return
        if self.n < 4:
            raise ValueError("censuses need n >= 4")
        if not self.resolved_points():
            raise ValueError("config needs mu_list or m_list")
        if self.mode == "blocks":
            for mu, m in self.resolved_points():
                implied = mu if mu is not None else self._implied_mu(m)
                if implied > -2.0:
                    raise ValueError(
                        "blocks mode needs mu <= -2 (the Exp/Gumbel laws hold "
                        f"when n*h -> infinity); got mu={implied:.3f}"
                    )

    def _implied_mu(self, m: int) -> float:
        base = _alpha_for_mu(self.n, 0.0)[0]
        return (m / self.n - base) * (math.pi**2 / 6.0)


def tv_distance(hist, lam: float) -> float:
    """Total variation between a histogram of counts and Poisson(lam).

    Half the l1 gap over the histogram support, plus half the Poisson
    mass beyond it (where the empirical mass is zero).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if isinstance(hist, dict):
        kmax = max(hist)
        counts = np.zeros(kmax + 1)
        for k, v in hist.items():
            counts[k] = v
    else:
        counts = np.asarray(hist, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram is empty")
    support = np.arange(len(counts))
    pmf = stats.poisson.pmf(support, lam)
    return 0.5 * float(np.abs(counts / total - pmf).sum()) + 0.5 * float(
        stats.poisson.sf(len(counts) - 1, lam)
    )


# Worker-side state for parallel trials; rebuilt per process.
_WORKER: dict = {}


def _worker_init(n: int, m: int, head_size: int | None, seed: int, key: int) -> None:
    _WORKER["sampler"] = SplitSampler(n, m, head_size=head_size)
    _WORKER["seed"] = seed
    _WORKER["key"] = key


def _component_chunk(trial_range: tuple[int, int]) -> list[int]:
    sampler: SplitSampler = _WORKER["sampler"]
    out = []
    for trial in range(*trial_range):
        ctx = SamplerContext(None, _WORKER["seed"], (_WORKER["key"], trial))
        out.append(len(decomposition_points(sampler.sample(ctx))))
    return out


def _block_chunk(trial_range: tuple[int, int]) -> list[tuple[int, int, int, int]]:
    sampler: SplitSampler = _WORKER["sampler"]
    n = sampler.n
    out = []
    for trial in range(*trial_range):
        ctx = SamplerContext(None, _WORKER["seed"], (_WORKER["key"], trial))
        cuts = decomposition_points(sampler.sample(ctx))
        bounds = np.array([0] + cuts + [n])
        sizes = np.diff(bounds)
        out.append(
            (int(sizes.min()), int(sizes.max()), int(sizes[0]), int(sizes[-1]))
        )
    return out


def _run_trials(cfg: ExperimentConfig, m: int, key: int, chunk_fn):
    """Run cfg.trials trials, optionally across processes; order-stable."""
    ranges = []
    step = max(1, math.ceil(cfg.trials / max(1, cfg.parallelism * 4)))
    for lo in range(0, cfg.trials, step):
        ranges.append((lo, min(cfg.trials, lo + step)))
    if cfg.parallelism <= 1:
        _worker_init(cfg.n, m, cfg.head_size, cfg.seed, key)
        chunks = [chunk_fn(r) for r in ranges]
    else:
        with ProcessPoolExecutor(
            max_workers=cfg.parallelism,
            initializer=_worker_init,
            initargs=(cfg.n, m, cfg.head_size, cfg.seed, key),
        ) as pool:
            chunks = list(pool.map(chunk_fn, ranges))
    out = []
    for chunk in chunks:
        out.extend(chunk)
    return out


@dataclass
class CensusPoint:
    """Aggregate statistics for one (n, m) in a component census."""

    mu: float | None
    m: int
    regime: str
    lam: float
    histogram: dict[int, int]
    mean: float
    stderr: float
    mean_gap_sigma: float
    tv: float
    mean_ok: bool
    tv_ok: bool


@dataclass
class ComponentCensusReport:
    schema_version: int
    n: int
    trials: int
    seed: int
    tolerances: dict
    points: list[CensusPoint]
    passed: bool
    wall_seconds: float = field(default=0.0, compare=False)

    def to_json(self, deterministic: bool = True) -> str:
        payload = asdict(self)
        if deterministic:
            payload.pop("wall_seconds")
        payload["points"] = [
            {**p, "histogram": {str(k): v for k, v in p["histogram"].items()}}
            for p in payload["points"]
        ]
        return json.dumps(payload, sort_keys=True, indent=2)


def run_component_census(cfg: ExperimentConfig) -> ComponentCensusReport:
    """Distribution of (block count - 1) against Poisson(n*h)."""
    cfg.validate()
    if cfg.mode != "components":
        raise ValueError("config mode must be 'components'")
    t0 = time.time()
    points = []
    for key, (mu, m) in enumerate(cfg.resolved_points()):
        regime = classify_regime(cfg.n, m)
        params = threshold_params(cfg.n, m)
        values = np.array(_run_trials(cfg, m, key, _component_chunk))
        hist: dict[int, int] = {}
        for v in values:
            hist[int(v)] = hist.get(int(v), 0) + 1
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        tv = tv_distance(hist, params.lam)
        gap = abs(mean - params.lam) / stderr if stderr > 0 else math.inf
        mean_ok = gap <= TOLERANCES["component_mean_sigma"]
        tv_ok = tv <= TOLERANCES["component_tv"]
        points.append(
            CensusPoint(
                mu=mu,
                m=m,
                regime=regime,
                lam=params.lam,
                histogram=dict(sorted(hist.items())),
                mean=mean,
                stderr=stderr,
                mean_gap_sigma=gap,
                tv=tv,
                mean_ok=mean_ok,
                tv_ok=tv_ok,
            )
        )
    report = ComponentCensusReport(
        schema_version=SCHEMA_VERSION,
        n=cfg.n,
        trials=cfg.trials,
        seed=cfg.seed,
        tolerances=dict(TOLERANCES),
        points=points,
        passed=all(p.mean_ok and p.tv_ok for p in points if p.regime == REGIME_THRESHOLD),
        wall_seconds=time.time() - t0,
    )
    _maybe_write(cfg, report, "components")
    return report


@dataclass
class BlockCensusPoint:
    mu: float | None
    m: int
    lam: float
    ks_min_exp: float
    ks_max_gumbel: float
    first_last_pvalue: float
    min_mean: float
    max_mean: float
    ks_exp_ok: bool
    ks_gumbel_ok: bool
    first_last_ok: bool


@dataclass
class BlockCensusReport:
    schema_version: int
    n: int
    trials: int
    seed: int
    tolerances: dict
    points: list[BlockCensusPoint]
    raw: dict[int, list[tuple[int, int, int, int]]]
    passed: bool
    wall_seconds: float = field(default=0.0, compare=False)

    def to_json(self, deterministic: bool = True) -> str:
        payload = asdict(self)
        if deterministic:
            payload.pop("wall_seconds")
        payload.pop("raw")
        return json.dumps(payload, sort_keys=True, indent=2)


def run_block_census(cfg: ExperimentConfig) -> BlockCensusReport:
    """Rescaled smallest/largest block sizes against Exp(1) and Gumbel.

    Per trial records (L_min, L_max, L_first, L_last); tests
    U = L_min * n * h^2 against Exp(1) and V = h * L_max - log(n h)
    against the standard Gumbel, plus equidistribution of first and last
    block sizes (an exact symmetry).
    """
    cfg.validate()
    if cfg.mode != "blocks":
        raise ValueError("config mode must be 'blocks'")
    t0 = time.time()
    points = []
    raw = {}
    for key, (mu, m) in enumerate(cfg.resolved_points()):
        params = threshold_params(cfg.n, m)
        rows = _run_trials(cfg, m, key, _block_chunk)
        raw[m] = rows
        arr = np.array(rows, dtype=float)
        lmin, lmax, lfirst, llast = arr.T
        u = lmin * cfg.n * params.h**2
        v = params.h * lmax - math.log(cfg.n * params.h)
        ks_exp = float(stats.kstest(u, "expon").statistic)
        ks_gum = float(stats.kstest(v, "gumbel_r").statistic)
        pval = float(stats.ks_2samp(lfirst, llast).pvalue)
        points.append(
            BlockCensusPoint(
                mu=mu,
                m=m,
                lam=params.lam,
                ks_min_exp=ks_exp,
                ks_max_gumbel=ks_gum,
                first_last_pvalue=pval,
                min_mean=float(lmin.mean()),
                max_mean=float(lmax.mean()),
                ks_exp_ok=ks_exp <= TOLERANCES["block_ks_exp"],
                ks_gumbel_ok=ks_gum <= TOLERANCES["block_ks_gumbel"],
                first_last_ok=pval > TOLERANCES["first_last_pvalue"],
            )
        )
    report = BlockCensusReport(
        schema_version=SCHEMA_VERSION,
        n=cfg.n,
        trials=cfg.trials,
        seed=cfg.seed,
        tolerances=dict(TOLERANCES),
        points=points,
        raw=raw,
        passed=all(
            p.ks_exp_ok and p.ks_gumbel_ok and p.first_last_ok for p in points
        ),
        wall_seconds=time.time() - t0,
    )
    _maybe_write(cfg, report, "blocks")
    return report


def indecomposable_counts(n_max: int) -> list[int]:
    """Counts f(1..n_max) of indecomposable permutations, from the
    classical recurrence n! - f(n) = sum_{i<n} (n-i)! f(i), f(1) = 1."""
    f = [0] * (n_max + 1)
    f[1] = 1
    for n in range(2, n_max + 1):
        f[n] = factorial(n) - sum(factorial(n - i) * f[i] for i in range(1, n))
    return f[1:]


@dataclass
class MonotonicityReport:
    n_max: int
    p_indecomposable: dict[int, list[Fraction]]
    nondecreasing_ok: bool
    domination_ok: bool
    totals_ok: bool

    @property
    def passed(self) -> bool:
        return self.nondecreasing_ok and self.domination_ok and self.totals_ok


def run_monotonicity_check(n_max: int) -> MonotonicityReport:
    """Exhaustive check that more inversions never hurt connectivity.

    For every n <= n_max bins all n! permutations by inversion count,
    computes p(n, m) = P(indecomposable) exactly, and verifies that it is
    nondecreasing in m, that the block-count distributions are
    stochastically ordered, and that indecomposable totals match the
    classical recurrence for f(n).
    """
    if n_max > 9:
        raise ValueError("exhaustive check limited to n_max <= 9")
    expected_totals = indecomposable_counts(max(n_max, 1))
    p_table: dict[int, list[Fraction]] = {}
    nondec = True
    dominated = True
    totals_ok = True
    for n in range(2, n_max + 1):
        top = max_inversions(n)
        s_nm = [0] * (top + 1)
        block_hist = [dict() for _ in range(top + 1)]
        for word in iter_permutations(range(1, n + 1)):
            x = inversion_sequence(word)
            m = sum(x)
            c = len(decomposition_points(x)) + 1
            s_nm[m] += 1
            block_hist[m][c] = block_hist[m].get(c, 0) + 1
        p = [
            Fraction(block_hist[m].get(1, 0), s_nm[m]) for m in range(top + 1)
        ]
        p_table[n] = p
        nondec &= all(p[m] <= p[m + 1] for m in range(top))
        for m in range(top):
            for j in range(1, n + 1):
                lhs = Fraction(
                    sum(v for c, v in block_hist[m + 1].items() if c >= j),
                    s_nm[m + 1],
                )
                rhs = Fraction(
                    sum(v for c, v in block_hist[m].items() if c >= j), s_nm[m]
                )
                if lhs > rhs:
                    dominated = False
        total_indecomposable = sum(h.get(1, 0) for h in block_hist)
        totals_ok &= total_indecomposable == expected_totals[n - 1]
    return MonotonicityReport(
        n_max=n_max,
        p_indecomposable=p_table,
        nondecreasing_ok=nondec,
        domination_ok=dominated,
        totals_ok=totals_ok,
    )


@dataclass
class MarkedReport:
    schema_version: int
    n: int
    m: int
    mu: float | None
    nu: int
    trials: int
    seed: int
    agreement_frequency: float
    inclusion_always: bool
    close_pair_frequency: float
    wall_seconds: float = field(default=0.0, compare=False)

    def to_json(self, deterministic: bool = True) -> str:
        payload = asdict(self)
        if deterministic:
            payload.pop("wall_seconds")
        return json.dumps(payload, sort_keys=True, indent=2)


def run_marked_vs_decomposition(cfg: ExperimentConfig) -> MarkedReport:
    """Marked points of the composition proxy vs true decomposition points.

    Draws uniform compositions of m into n - nu parts (the leading-window
    sum is taken as zero; the composition law only sees the total) and
    reports how often the marked set equals the decomposition set, plus
    the frequency of marked pairs closer than nu.  The one-sided
    inclusion (every early-enough decomposition point is marked) is a
    theorem and is checked on every trial.
    """
    cfg.validate()
    if cfg.mode != "marked":
        raise ValueError("config mode must be 'marked'")
    mu, m = cfg.resolved_points()[0]
    params = threshold_params(cfg.n, m)
    nu = params.nu
    parts = cfg.n - nu
    t0 = time.time()
    agree = 0
    close = 0
    inclusion = True
    for trial in range(cfg.trials):
        ctx = SamplerContext(None, cfg.seed, (0, trial))
        y = sample_composition(parts, m, ctx)
        dec = decomposition_points(y)
        marked = _marked_points(y, nu)
        agree += set(dec) == set(marked)
        limit = parts - 2 * nu
        inclusion &= {d for d in dec if d <= limit} <= set(marked)
        gaps = np.diff(marked)
        close += bool(len(gaps) and gaps.min() <= nu)
    report = MarkedReport(
        schema_version=SCHEMA_VERSION,
        n=cfg.n,
        m=m,
        mu=mu,
        nu=nu,
        trials=cfg.trials,
        seed=cfg.seed,
        agreement_frequency=agree / cfg.trials,
        inclusion_always=inclusion,
        close_pair_frequency=close / cfg.trials,
        wall_seconds=time.time() - t0,
    )
    _maybe_write(cfg, report, "marked")
    return report


def _maybe_write(cfg: ExperimentConfig, report, name: str) -> None:
    if cfg.out_dir is None:
        return
    import os

    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{name}_n{cfg.n}_seed{cfg.seed}.json")
    with open(path, "w") as fh:
        fh.write(report.to_json(deterministic=False))
    if name == "blocks" and isinstance(report, BlockCensusReport):
        csv_path = os.path.join(cfg.out_dir, f"{name}_n{cfg.n}_seed{cfg.seed}.csv")
        with open(csv_path, "w") as fh:
            fh.write("m,trial,l_min,l_max,l_first,l_last\n")
            for m, rows in report.raw.items():
                for trial, row in enumerate(rows):
                    fh.write(f"{m},{trial}," + ",".join(map(str, row)) + "\n")
