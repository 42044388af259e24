"""Monte Carlo harness for the desk-scale census experiments.

Four modes, each a runner in :data:`RUNNERS`: ``components`` (the law of
the block count), ``blocks`` (smallest, largest, first and last block),
``monotonicity`` (exact exhaustive small-n checks) and ``marked`` (marked
points of the composition model against true decomposition points).

The component and block runners, which share one trial loop, only
measure; :func:`judge` then holds a census to the exact finite-n law with
:data:`TOLERANCES`, keeping its distance to the limit laws as anchors.
The marked and monotonicity checks are exact and carry their own verdict.
The statistics use numpy and ``math`` alone.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import partial
from math import factorial

import numpy as np

from .counting import max_inversions
from .limits import (
    REGIME_THRESHOLD,
    classify_regime,
    finite_n_block_cdfs,
    finite_n_cut_law,
    finite_n_mean_cuts,
    threshold_params,
)
from .limits import alpha_for_mu as _alpha_for_mu
from .limits import marked_points as _marked_points
from .permutations import decomposition_points, enumerate_inversion_sequences, validate_sequence
from .rng import SamplerContext
from .sampling import SplitSampler, sample_composition

SCHEMA_VERSION = 1

#: The tolerances :func:`judge` holds a census to (see README).
TOLERANCES = {
    "component_mean_sigma": 3.0,
    "component_tv": 0.10,
    "block_ks_exp": 0.08,
    "block_ks_gumbel": 0.08,
    "first_last_pvalue": 1e-3,
    "tolerance_basis": "fixed bounds on a census's distance to the exact "
    "finite-n law (invperm.limits.finite_n_*; the block CDFs at the saddle "
    "point only), sized for the Monte Carlo noise of about 10^3 trials; "
    "block_ks_exp and block_ks_gumbel bound KS(L_min) and KS(L_max)",
}


@dataclass(kw_only=True)
class ExperimentConfig:
    """One census run: which law, at what size, how many trials."""

    n: int  # in monotonicity mode, the largest size checked
    mode: str  # a key of RUNNERS
    trials: int = 1000
    seed: int = 0
    mu_list: list[float] | None = None
    m_list: list[int] | None = None
    parallelism: int = 1
    out_dir: str | None = None

    def resolved_points(self) -> list[tuple[float | None, int]]:
        """(mu, m) pairs this config covers; mu as a float however spelt,
        so that ``0`` and ``0.0`` give the same report bytes."""
        points: list[tuple[float | None, int]] = []
        if self.mu_list is not None:
            for mu in map(float, self.mu_list):
                points.append((mu, _alpha_for_mu(self.n, mu)[1]))
        if self.m_list is not None:
            points.extend((None, m) for m in self.m_list)
        return points

    def validate(self) -> None:
        for name in ("n", "trials", "seed", "parallelism"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer; got {value!r}")
        for name, ok, kind in (
            ("mu_list", _is_real, "numbers"),
            ("m_list", _is_int, "integers"),
        ):
            values = getattr(self, name)
            if values is not None and not (
                isinstance(values, list) and all(map(ok, values))
            ):
                raise ValueError(f"{name} must be a list of {kind}; got {values!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string; got {self.out_dir!r}")
        if not isinstance(self.mode, str) or self.mode not in RUNNERS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mode == "monotonicity":
            if not 2 <= self.n <= 9:
                raise ValueError(f"monotonicity mode needs 2 <= n <= 9; got n={self.n}")
            # the exhaustive check draws nothing: a field it would ignore
            # is refused, so the config states only what ran
            ignored = [
                f"{f.name}={getattr(self, f.name)!r}"
                for f in fields(self)
                if f.name in ("trials", "seed", "mu_list", "m_list", "parallelism")
                and getattr(self, f.name) != f.default
            ]
            if ignored:
                raise ValueError(
                    "monotonicity mode checks every permutation and draws "
                    f"nothing; drop {', '.join(ignored)}"
                )
            return
        if self.mode == "marked" and self.parallelism != 1:
            raise ValueError(f"marked mode runs serially; drop parallelism={self.parallelism}")
        cpus = _usable_cpus()
        if not 1 <= self.parallelism <= cpus:
            raise ValueError(f"parallelism must lie in 1..{cpus}, the CPUs this process may use")
        if self.n < 4:
            raise ValueError("censuses need n >= 4")
        if not self.resolved_points():
            raise ValueError("config needs mu_list or m_list")
        top = max_inversions(self.n)
        for _, m in self.resolved_points():
            if not 0 <= m <= top:
                raise ValueError(f"m={m} outside 0..{top} at n={self.n}")
        if self.mode == "blocks":
            bound = self.n * _alpha_for_mu(self.n, -2.0)[0]
            for mu, m in self.resolved_points():
                if (m > bound) if mu is None else (mu > -2.0):
                    raise ValueError(
                        f"blocks mode needs mu <= -2, that is m <= {bound:.1f} at "
                        f"n={self.n} (the Exp/Gumbel laws hold when n*h -> infinity); "
                        f"got m={m}" + ("" if mu is None else f" from mu={mu}")
                    )
        if self.mode == "marked":
            points = self.resolved_points()
            for _, m in points:
                nu = threshold_params(self.n, m).nu
                if self.n - nu < nu:
                    raise ValueError(
                        "marked mode needs n - nu >= nu, nu = "
                        f"ceil(2 (m/n + 1) log n); n={self.n}, m={m} give nu={nu}"
                    )
            if len(points) > 1:
                raise ValueError(
                    f"marked mode takes one point (one --mu or --m); got {len(points)}"
                )


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set, where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _counts(hist) -> np.ndarray:
    """A histogram of counts on 0, 1, ... (an array, or a dict keyed by integers) as floats."""
    if isinstance(hist, dict):
        hist = np.bincount(validate_sequence(list(hist)), weights=list(hist.values()))
    return np.asarray(hist, dtype=float)


def tv_to_law(hist, law) -> float:
    """Total variation between a histogram of counts on 0, 1, ... (a dict
    or an array) and a law on 0..len(law)-1: half the l1 gap, plus half the
    law's mass beyond len(law), counted as unmatched (an upper bound)."""
    counts = _counts(hist)
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram is empty")
    emp, ref = np.zeros((2, max(len(counts), len(law))))
    emp[: len(counts)], ref[: len(law)] = counts / total, law
    return 0.5 * (float(np.abs(emp - ref).sum()) + max(0.0, 1.0 - float(np.sum(law))))


def tv_distance(hist, lam: float) -> float:
    """Total variation between a histogram of counts and Poisson(lam):
    :func:`tv_to_law` fed the Poisson pmf on the histogram's support."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    counts = _counts(hist)
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(len(counts))])
    return tv_to_law(counts, np.exp(np.arange(len(counts)) * math.log(lam) - log_factorials - lam))


def _ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance sup |F_sample - cdf| to a continuous CDF."""
    values = cdf(np.sort(sample))
    size = len(values)
    above = np.arange(1.0, size + 1) / size - values
    below = values - np.arange(0.0, size) / size
    return float(max(above.max(), below.max()))


def _quantile_grid(sample: np.ndarray, n: int) -> np.ndarray:
    """0, the sample's percentiles and n: integer points at which the
    empirical CDF of block sizes in 1..n rises by about 1% at a time."""
    levels = np.linspace(0.0, 1.0, 101)
    return np.unique(np.concatenate(([0, n], np.quantile(sample, levels, method="lower"))))


def _ks_upper_bound(sample: np.ndarray, grid: np.ndarray, cdf: np.ndarray) -> float:
    """Upper bound on sup_t |E(t) - R(t)| for the empirical CDF E of
    ``sample`` and a reference CDF R known at the increasing ``grid``,
    where E = R = 0 below grid[0] and E = R = 1 from grid[-1] on.  On the
    integers of [g_i, g_{i+1}) both are nondecreasing, so
    E - R <= E(g_{i+1} - 1) - R(g_i) and R - E <= R(g_{i+1} - 1) - E(g_i),
    with R(g_{i+1} - 1) bounded by R(g_{i+1}) unless it is R(g_i)."""
    sample = np.sort(sample)
    at = np.searchsorted(sample, grid, side="right") / len(sample)
    below = np.searchsorted(sample, grid, side="left") / len(sample)
    cdf_top = np.where(np.diff(grid) == 1, cdf[:-1], cdf[1:])
    return float(max(np.max(below[1:] - cdf[:-1]), np.max(cdf_top - at[:-1])))


def _ks_2samp_pvalue(a, b) -> float:
    """Exact two-sided KS p-value of two samples of one size n: P(D >= h/n),
    h = max_t |#{a <= t} - #{b <= t}|, is the Gnedenko-Korolyuk sum
    2 sum_{j>=1} (-1)^(j-1) C(2n, n-jh) / C(2n, n) in Horner form,
    2 A_1 (1 - A_2 (1 - ...)) with A_j = C(2n, n-jh) / C(2n, n-(j-1)h):
    O(n) for any h, exact above 10 000 samples too."""
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    both = np.concatenate([a, b])
    gaps = np.searchsorted(a, both, "right") - np.searchsorted(b, both, "right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return min(1.0, max(0.0, 2 * p))


@dataclass(kw_only=True)
class Report:
    """Fields every census report carries, and its one JSON writer.

    Each subclass has a ``passed`` verdict, which sets the CLI's exit code:
    its own exact check, or the judgement :func:`judge` gives a census.
    """

    schema_version: int = SCHEMA_VERSION
    n: int
    trials: int
    seed: int
    wall_seconds: float = field(default=0.0, compare=False)

    def to_json(self, deterministic: bool = True) -> str:
        """Sorted, indented JSON without a block point's ``rows``;
        ``wall_seconds`` (measuring and judging) and each point's ``sampler``
        diagnostics are left out of the deterministic payload."""
        payload = asdict(self)
        if deterministic:
            payload.pop("wall_seconds")
        for point in payload.get("points", ()):
            point.pop("rows", None)
            if deterministic:
                point.pop("sampler")
        return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False)


def _jsonable(value):
    """Dict keys as text before ``sort_keys`` (so ``"10"`` sorts before
    ``"2"``), fractions as ``"p/q"``, and inf or nan (not JSON) as ``null``."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return str(value) if isinstance(value, Fraction) else value


def _start(cfg: ExperimentConfig, mode: str) -> float:
    """Check that cfg is valid and is for this mode; the start time."""
    cfg.validate()
    if cfg.mode != mode:
        raise ValueError(f"config mode must be {mode!r}")
    return time.perf_counter()


@dataclass
class SamplerStats:
    """How a census point's samplers ran, one per chunk: the head size, the
    proposals rejected (summed over chunks), the build time in seconds (the
    slowest chunk's) and the acceptance rate, trials / (trials + restarts)."""

    head_size: int
    restarts: int
    build_s: float
    acceptance: float


def _worker_init(n: int, m: int):
    """One chunk's ``SplitSampler(n, m)`` and its build time in seconds; a
    refused (n, m) raises ``ValueError``.  Named for the benchmark's tracer,
    which wraps this module global, so a chunk calls it through the module."""
    t0 = time.perf_counter()
    sampler = SplitSampler(n, m)
    return sampler, time.perf_counter() - t0


def _trial_chunk(n: int, m: int, seed: int, key: int, trial_range: tuple[int, int]):
    """Build a sampler and run the trials in ``trial_range``: per trial the
    block count and the smallest, largest, first and last block size (not
    the sizes, up to n per trial); and the sampler's head size, restarts and
    build time.  The sampler is dropped on return, also when a trial raises."""
    sampler, build_s = _worker_init(n, m)
    out = []
    for trial in range(*trial_range):
        ctx = SamplerContext(None, seed, (key, trial))
        sizes = np.diff([0, *decomposition_points(sampler.sample(ctx)), n])
        out.append(
            (len(sizes), int(sizes.min()), int(sizes.max()), int(sizes[0]), int(sizes[-1]))
        )
    return out, (sampler.head_size, sampler.restarts, build_s)


def _run_trials(cfg: ExperimentConfig, m: int, key: int, mapper):
    """Run cfg.trials trials as cfg.parallelism ranges through ``mapper``
    (``map`` or a process pool's ``map``), in order: the per-trial rows and
    the merged sampler diagnostics."""
    step = math.ceil(cfg.trials / cfg.parallelism)
    ranges = [(lo, min(cfg.trials, lo + step)) for lo in range(0, cfg.trials, step)]
    chunks = list(mapper(partial(_trial_chunk, cfg.n, m, cfg.seed, key), ranges))
    heads, restarts, builds = zip(*(stats for _, stats in chunks))
    restarts = sum(restarts)
    merged = SamplerStats(heads[0], restarts, max(builds), cfg.trials / (cfg.trials + restarts))
    return [row for rows, _ in chunks for row in rows], merged


@dataclass
class CensusPoint:
    """What a component census measured at one (n, m)."""

    mu: float | None
    m: int
    regime: str
    histogram: dict[int, int]
    mean: float
    stderr: float
    sampler: SamplerStats = field(compare=False)


@dataclass
class BlockCensusPoint:
    """What a block census measured at one (n, m); ``rows``, each trial's
    (L_min, L_max, L_first, L_last), is left out of JSON."""

    mu: float | None
    m: int
    first_last_pvalue: float
    min_mean: float
    max_mean: float
    sampler: SamplerStats = field(compare=False)
    rows: list[tuple[int, int, int, int]] = field(repr=False)


@dataclass
class Judgement:
    """:func:`judge`'s verdicts on a census, one per point in order."""

    reference: str
    tolerances: dict
    points: list[Verdict]
    passed: bool


@dataclass(kw_only=True)
class CensusReport(Report):
    """A sampling census: its measured points, then its judgement."""

    points: list[CensusPoint | BlockCensusPoint]
    judgement: Judgement | None = None

    @property
    def passed(self) -> bool:
        if self.judgement is None:
            raise ValueError("an unjudged census has no verdict; call judge(report)")
        return self.judgement.passed


def _sampling_census(cfg: ExperimentConfig, mode: str, make_point) -> CensusReport:
    """Run each point's trials in turn, through one process pool per run at
    parallelism > 1; ``make_point(n, mu, m, rows, sampler)`` builds the point."""
    t0 = _start(cfg, mode)
    points = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if cfg.parallelism > 1:
            # imported here so an in-process run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(cfg.parallelism)).map
        for key, (mu, m) in enumerate(cfg.resolved_points()):
            points.append(make_point(cfg.n, mu, m, *_run_trials(cfg, m, key, mapper)))
    wall = time.perf_counter() - t0
    return CensusReport(n=cfg.n, trials=cfg.trials, seed=cfg.seed, points=points, wall_seconds=wall)


def _component_point(n: int, mu, m: int, rows, sampler) -> CensusPoint:
    cuts = np.array([row[0] - 1 for row in rows])
    hist = dict(sorted(Counter(cuts.tolist()).items()))
    stderr = float(cuts.std(ddof=1) / math.sqrt(len(cuts))) if len(cuts) > 1 else 0.0
    regime = threshold_params(n, m).regime
    return CensusPoint(mu, m, regime, hist, float(cuts.mean()), stderr, sampler)


def _block_point(n: int, mu, m: int, rows, sampler) -> BlockCensusPoint:
    rows = [row[1:] for row in rows]
    lmin, lmax, lfirst, llast = np.array(rows, dtype=float).T
    pvalue = _ks_2samp_pvalue(lfirst, llast)
    return BlockCensusPoint(mu, m, pvalue, float(lmin.mean()), float(lmax.mean()), sampler, rows)


def run_component_census(cfg: ExperimentConfig) -> CensusReport:
    """The law of (block count - 1) at each point: histogram, mean and
    standard error."""
    return _sampling_census(cfg, "components", _component_point)


def run_block_census(cfg: ExperimentConfig) -> CensusReport:
    """Per point, its trials' sizes (L_min, L_max, L_first, L_last) in
    ``rows``, the means of L_min and L_max and the exact two-sample p-value
    of L_first against L_last, which are equidistributed (a symmetry)."""
    return _sampling_census(cfg, "blocks", _block_point)


@dataclass
class Verdict:
    """One census point judged: ``measured`` holds its distances to the
    finite-n law, ``ok`` whether each is within its tolerance, and
    ``anchors`` its distances to the n -> infinity limit laws.  A point
    with no finite-n law says why in ``unjudged``; its ``ok`` is empty."""

    m: int
    anchors: dict[str, float]
    unjudged: str | None
    measured: dict[str, float] = field(default_factory=dict)
    ok: dict[str, bool] = field(default_factory=dict)


def _unjudged(n: int, m: int, saddle: bool = False) -> str | None:
    """Why (n, m) has no finite-n law (at the saddle point alone if ``saddle``), or None."""
    if classify_regime(n, m) != REGIME_THRESHOLD:
        return "m outside n-1..C(n-1,2): a trivial regime"
    if 2 * m > max_inversions(n):
        return "2m > C(n,2): outside the finite-n law's range"
    if saddle and 2 * m == max_inversions(n):
        return "2m = C(n,2): the saddle point is x = 1, where P_1, ..., P_n are 0"
    return None


def _gap_sigma(point: CensusPoint, mean: float) -> float:
    return abs(point.mean - mean) / point.stderr if point.stderr > 0 else math.inf


def _judge_component(n: int, p: CensusPoint) -> Verdict:
    lam = threshold_params(n, p.m).lam
    anchors = {"lam": lam, "gap_sigma": _gap_sigma(p, lam), "tv": tv_distance(p.histogram, lam)}
    verdict = Verdict(p.m, anchors, _unjudged(n, p.m))
    if verdict.unjudged is None:
        ref_mean = finite_n_mean_cuts(n, p.m)
        law = finite_n_cut_law(n, p.m, kmax=max(30, max(p.histogram) + 1))
        gap, tv = _gap_sigma(p, ref_mean), tv_to_law(p.histogram, law)
        verdict.measured = {"ref_mean": ref_mean, "mean_gap_sigma": gap, "tv": tv}
        verdict.ok = {
            "mean": gap <= TOLERANCES["component_mean_sigma"],
            "tv": tv <= TOLERANCES["component_tv"],
        }
    return verdict


def _judge_block(n: int, p: BlockCensusPoint) -> Verdict:
    h = threshold_params(n, p.m).h
    lmin, lmax = np.array(p.rows).T[:2]
    anchors = {
        "ks_min_exp": _ks_distance(lmin * n * h**2, lambda x: -np.expm1(-x)),
        "ks_max_gumbel": _ks_distance(h * lmax - math.log(n * h), lambda x: np.exp(-np.exp(-x))),
    }
    verdict = Verdict(p.m, anchors, _unjudged(n, p.m, saddle=True))
    if verdict.unjudged is None:
        grid_min, grid_max = _quantile_grid(lmin, n), _quantile_grid(lmax, n)
        cdf_min, cdf_max = finite_n_block_cdfs(n, p.m, grid_min, grid_max, contour=False)
        ks_min = _ks_upper_bound(lmin, grid_min, cdf_min)
        ks_max = _ks_upper_bound(lmax, grid_max, cdf_max)
        verdict.measured = {"ks_min": ks_min, "ks_max": ks_max}
        verdict.ok = {
            "ks_min": ks_min <= TOLERANCES["block_ks_exp"],
            "ks_max": ks_max <= TOLERANCES["block_ks_gumbel"],
            "first_last": p.first_last_pvalue > TOLERANCES["first_last_pvalue"],
        }
    return verdict


# per point type: its judge, and the law that judges it
_JUDGES = {
    CensusPoint: (_judge_component, "finite-n law of C-1: limits.finite_n_mean_cuts, "
                  "limits.finite_n_cut_law"),
    BlockCensusPoint: (_judge_block, "finite-n block CDFs at the saddle point: "
                       "limits.finite_n_block_cdfs"),
}


def judge(report: Report) -> Report:
    """Judge a component or block census against the exact finite-n law
    with the pinned :data:`TOLERANCES`, and return it; a marked or
    monotonicity report is exact and is returned as it is.  Components:
    the mean's gap to ``finite_n_mean_cuts`` and the TV to
    ``finite_n_cut_law`` on at least 30 values.  Blocks: KS bounds to
    ``finite_n_block_cdfs`` at the saddle point on the point's own rows,
    and the first/last p-value.  Points without a finite-n law are left
    out of ``passed``."""
    if not isinstance(report, CensusReport):
        return report
    t0 = time.perf_counter()
    judges = [_JUDGES[type(p)] for p in report.points]
    verdicts = [judge_point(report.n, p) for (judge_point, _), p in zip(judges, report.points)]
    reference = "; ".join(dict.fromkeys(ref for _, ref in judges))
    passed = all(all(v.ok.values()) for v in verdicts)
    report.judgement = Judgement(reference, dict(TOLERANCES), verdicts, passed)
    report.wall_seconds += time.perf_counter() - t0
    return report


def indecomposable_counts(n_max: int) -> list[int]:
    """Counts f(1..n_max) of indecomposable permutations, from the
    classical recurrence n! - f(n) = sum_{i<n} (n-i)! f(i), f(1) = 1."""
    f = [0] * (n_max + 1)
    f[1] = 1
    for n in range(2, n_max + 1):
        f[n] = factorial(n) - sum(factorial(n - i) * f[i] for i in range(1, n))
    return f[1:]


@dataclass(kw_only=True)
class MonotonicityReport(Report):
    """Exhaustive, so ``n`` is the largest size checked, ``trials`` counts
    the permutations enumerated and ``seed`` is 0: nothing is drawn."""

    p_indecomposable: dict[int, list[Fraction]]
    nondecreasing_ok: bool
    domination_ok: bool
    totals_ok: bool

    @property
    def passed(self) -> bool:
        return self.nondecreasing_ok and self.domination_ok and self.totals_ok


def run_monotonicity_check(n_max: int) -> MonotonicityReport:
    """Exhaustive check that more inversions never hurt connectivity.

    For every n <= n_max enumerates the inversion sequences of each sum m
    (all n! permutations), computes p(n, m) = P(indecomposable) exactly,
    and verifies that it is nondecreasing in m, that the block-count
    distributions are stochastically ordered, and that indecomposable
    totals match the classical recurrence for f(n).
    """
    if not 2 <= n_max <= 9:
        raise ValueError(f"the exhaustive check needs 2 <= n_max <= 9; got {n_max}")
    t0 = time.perf_counter()
    expected_totals = indecomposable_counts(n_max)
    p_table: dict[int, list[Fraction]] = {}
    nondec = True
    dominated = True
    totals_ok = True
    for n in range(2, n_max + 1):
        # per m, the permutations with m inversions counted by block count
        hists = [
            Counter(len(decomposition_points(x)) + 1 for x in enumerate_inversion_sequences(n, m))
            for m in range(max_inversions(n) + 1)
        ]
        sizes = [h.total() for h in hists]
        p = [Fraction(h[1], s) for h, s in zip(hists, sizes)]
        p_table[n] = p
        nondec &= all(a <= b for a, b in zip(p, p[1:]))
        # P(c >= j) at m + 1 is at most P(c >= j) at m, for every j: with
        # tail counts b at m and a at m + 1, a * s(n, m) <= b * s(n, m + 1)
        tails = [[sum(v for c, v in h.items() if c >= j) for j in range(1, n + 1)] for h in hists]
        dominated &= all(
            a * s <= b * t
            for s, t, low, high in zip(sizes, sizes[1:], tails, tails[1:])
            for b, a in zip(low, high)
        )
        totals_ok &= sum(h[1] for h in hists) == expected_totals[n - 1]
    return MonotonicityReport(
        n=n_max,
        trials=sum(factorial(n) for n in range(2, n_max + 1)),
        seed=0,
        p_indecomposable=p_table,
        nondecreasing_ok=nondec,
        domination_ok=dominated,
        totals_ok=totals_ok,
        wall_seconds=time.perf_counter() - t0,
    )


def _monotonicity_census(cfg: ExperimentConfig) -> MonotonicityReport:
    _start(cfg, "monotonicity")
    return run_monotonicity_check(cfg.n)


@dataclass(kw_only=True)
class MarkedReport(Report):
    m: int
    mu: float | None
    nu: int
    agreement_frequency: float
    inclusion_always: bool
    close_pair_frequency: float

    @property
    def passed(self) -> bool:
        return self.inclusion_always


def run_marked_vs_decomposition(cfg: ExperimentConfig) -> MarkedReport:
    """Marked points of the composition proxy vs true decomposition points.

    Draws uniform compositions of m into n - nu parts (the leading-window
    sum is taken as zero; the composition law only sees the total) and
    reports how often the marked set equals the decomposition set, plus
    the frequency of marked pairs closer than nu.  The one-sided
    inclusion (every early-enough decomposition point is marked) is a
    theorem and is checked on every trial.
    """
    t0 = _start(cfg, "marked")
    [(mu, m)] = cfg.resolved_points()
    nu = threshold_params(cfg.n, m).nu
    parts = cfg.n - nu
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
    return MarkedReport(
        n=cfg.n,
        m=m,
        mu=mu,
        nu=nu,
        trials=cfg.trials,
        seed=cfg.seed,
        agreement_frequency=agree / cfg.trials,
        inclusion_always=inclusion,
        close_pair_frequency=close / cfg.trials,
        wall_seconds=time.perf_counter() - t0,
    )


def run_census(cfg: ExperimentConfig) -> Report:
    """Measure, :func:`judge`, and write the report as JSON (and a block
    census's rows as CSV, each under its point's index) to
    ``<out_dir>/<mode>_n<n>_seed<seed>``, n and seed as reported, when cfg
    names an ``out_dir``: what ``invperm census`` does.  The directory is
    made first, so one that cannot be made is refused before any trial."""
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
    report = judge(RUNNERS[cfg.mode](cfg))
    if cfg.out_dir is not None:
        stem = os.path.join(cfg.out_dir, f"{cfg.mode}_n{report.n}_seed{report.seed}")
        with open(stem + ".json", "w") as fh:
            fh.write(report.to_json(deterministic=False))
        if cfg.mode == "blocks":
            with open(stem + ".csv", "w") as fh:
                fh.write("point,m,trial,l_min,l_max,l_first,l_last\n")
                for key, p in enumerate(report.points):
                    for trial, row in enumerate(p.rows):
                        fh.write(f"{key},{p.m},{trial}," + ",".join(map(str, row)) + "\n")
    return report


#: The census modes, each with its runner: the one list of modes.
RUNNERS = {
    "components": run_component_census,
    "blocks": run_block_census,
    "marked": run_marked_vs_decomposition,
    "monotonicity": _monotonicity_census,
}
