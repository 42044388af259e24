"""Monte Carlo harness for the desk-scale limit-law experiments.

Four modes, each a runner in :data:`RUNNERS`: ``components`` (block-count
distribution against its Poisson limit), ``blocks`` (smallest/largest
block against the Exp/Gumbel limits), ``monotonicity`` (exact exhaustive
small-n checks), and ``marked`` (marked points of the composition model
against true decomposition points).

Every runner returns a :class:`Report`, whose ``to_json`` serves all four,
and saves it to ``out_dir`` when the config names one.  The two sampling
censuses share one trial loop.

Statistical pass tolerances live in :data:`TOLERANCES`.  They are
empirical desk-scale anchors: the limit theorems carry error terms of
order 1/log n, which at reachable n is a visible constant, so finite-n
deviations from the pure limit laws are expected and the reports include
the measured values for regression tracking.

The statistics use numpy and ``math`` alone.  The first/last-block
p-value is the exact two-sample law at any trial count, above 10 000 too.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from math import factorial

import numpy as np

from .counting import max_inversions
from .limits import REGIME_THRESHOLD, threshold_params
from .limits import alpha_for_mu as _alpha_for_mu
from .limits import marked_points as _marked_points
from .permutations import decomposition_points, enumerate_inversion_sequences
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
        cpus = os.cpu_count() or 1
        if not 1 <= self.parallelism <= cpus:
            raise ValueError(f"parallelism must lie in 1..{cpus} (the CPU count)")
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
        if self.n < 4:
            raise ValueError("censuses need n >= 4")
        if not self.resolved_points():
            raise ValueError("config needs mu_list or m_list")
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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(len(counts))])
    pmf = np.exp(np.arange(len(counts)) * math.log(lam) - log_factorials - lam)
    tail = max(0.0, 1.0 - float(pmf.sum()))
    return 0.5 * float(np.abs(counts / total - pmf).sum()) + 0.5 * tail


def _ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance sup |F_sample - cdf| to a continuous CDF."""
    values = cdf(np.sort(sample))
    size = len(values)
    above = np.arange(1.0, size + 1) / size - values
    below = values - np.arange(0.0, size) / size
    return float(max(above.max(), below.max()))


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

    Each subclass also has a ``passed`` verdict, which sets the CLI's exit
    code.
    """

    schema_version: int = SCHEMA_VERSION
    n: int
    trials: int
    seed: int
    wall_seconds: float = field(default=0.0, compare=False)

    def to_json(self, deterministic: bool = True) -> str:
        """Sorted, indented JSON without ``raw``; ``wall_seconds`` and each
        point's ``sampler`` diagnostics are left out of the deterministic
        payload."""
        payload = asdict(self)
        payload.pop("raw", None)
        if deterministic:
            payload.pop("wall_seconds")
            for point in payload.get("points", ()):
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
    return time.time()


@dataclass
class SamplerStats:
    """How a census point's ``SplitSampler`` ran: its head size, the
    proposals it rejected (summed over chunks and worker processes), its
    build time in seconds (the slowest worker's) and its acceptance rate,
    trials / (trials + restarts)."""

    head_size: int
    restarts: int
    build_s: float
    acceptance: float


def _sampler_stats(head_size: int, trials: int, restarts: int, build_s: float) -> SamplerStats:
    return SamplerStats(head_size, restarts, build_s, trials / (trials + restarts))


# The trials' sampler and stream keys: set once per worker process, or
# in-process for the length of one ``_run_trials`` call.
_WORKER: dict = {}


def _worker_init(n: int, m: int, seed: int, key: int) -> None:
    t0 = time.perf_counter()
    _WORKER["sampler"] = SplitSampler(n, m)
    _WORKER["build_s"] = time.perf_counter() - t0
    _WORKER["seed"] = seed
    _WORKER["key"] = key


def _trial_chunk(trial_range: tuple[int, int]):
    """Per trial: the block count and the smallest, largest, first and last
    block size (a summary, not the sizes, which number up to n per trial);
    and the chunk's sampler diagnostics."""
    sampler: SplitSampler = _WORKER["sampler"]
    restarts = sampler.restarts
    out = []
    for trial in range(*trial_range):
        ctx = SamplerContext(None, _WORKER["seed"], (_WORKER["key"], trial))
        sizes = np.diff([0, *decomposition_points(sampler.sample(ctx)), sampler.n])
        out.append(
            (len(sizes), int(sizes.min()), int(sizes.max()), int(sizes[0]), int(sizes[-1]))
        )
    stats = _sampler_stats(
        sampler.head_size, len(out), sampler.restarts - restarts, _WORKER["build_s"]
    )
    return out, stats


def _run_trials(cfg: ExperimentConfig, m: int, key: int):
    """Run cfg.trials trials, optionally across processes; order-stable.
    Returns the per-trial rows and the merged sampler diagnostics.  The
    in-process sampler is dropped on return, also when a trial raises, so
    no sampler outlives its census call."""
    step = max(1, math.ceil(cfg.trials / max(1, cfg.parallelism * 4)))
    ranges = [(lo, min(cfg.trials, lo + step)) for lo in range(0, cfg.trials, step)]
    if cfg.parallelism <= 1:
        try:
            _worker_init(cfg.n, m, cfg.seed, key)
            chunks = [_trial_chunk(r) for r in ranges]
        finally:
            _WORKER.clear()
    else:
        # imported here so an in-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=cfg.parallelism,
            initializer=_worker_init,
            initargs=(cfg.n, m, cfg.seed, key),
        ) as pool:
            chunks = list(pool.map(_trial_chunk, ranges))
    stats = [s for _, s in chunks]
    merged = _sampler_stats(
        stats[0].head_size,
        cfg.trials,
        sum(s.restarts for s in stats),
        max(s.build_s for s in stats),
    )
    return [row for rows, _ in chunks for row in rows], merged


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
    sampler: SamplerStats = field(compare=False)


@dataclass(kw_only=True)
class ComponentCensusReport(Report):
    tolerances: dict
    points: list[CensusPoint]
    passed: bool


def run_component_census(cfg: ExperimentConfig) -> ComponentCensusReport:
    """Distribution of (block count - 1) against Poisson(n*h)."""
    t0 = _start(cfg, "components")
    points = []
    for key, (mu, m) in enumerate(cfg.resolved_points()):
        params = threshold_params(cfg.n, m)
        rows, sampler = _run_trials(cfg, m, key)
        cuts = [row[0] - 1 for row in rows]
        values = np.array(cuts)
        hist = dict(sorted(Counter(cuts).items()))
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        tv = tv_distance(hist, params.lam)
        gap = abs(mean - params.lam) / stderr if stderr > 0 else math.inf
        points.append(
            CensusPoint(
                mu=mu,
                m=m,
                regime=params.regime,
                lam=params.lam,
                histogram=hist,
                mean=mean,
                stderr=stderr,
                mean_gap_sigma=gap,
                tv=tv,
                mean_ok=gap <= TOLERANCES["component_mean_sigma"],
                tv_ok=tv <= TOLERANCES["component_tv"],
                sampler=sampler,
            )
        )
    report = ComponentCensusReport(
        n=cfg.n,
        trials=cfg.trials,
        seed=cfg.seed,
        tolerances=dict(TOLERANCES),
        points=points,
        passed=all(p.mean_ok and p.tv_ok for p in points if p.regime == REGIME_THRESHOLD),
        wall_seconds=time.time() - t0,
    )
    _maybe_write(cfg, report)
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
    sampler: SamplerStats = field(compare=False)


@dataclass(kw_only=True)
class BlockCensusReport(Report):
    tolerances: dict
    points: list[BlockCensusPoint]
    raw: dict[int, list[tuple[int, int, int, int]]]
    passed: bool


def run_block_census(cfg: ExperimentConfig) -> BlockCensusReport:
    """Rescaled smallest/largest block sizes against Exp(1) and Gumbel.

    Per trial records (L_min, L_max, L_first, L_last); tests
    U = L_min * n * h^2 against Exp(1) and V = h * L_max - log(n h)
    against the standard Gumbel, plus equidistribution of first and last
    block sizes (an exact symmetry).
    """
    t0 = _start(cfg, "blocks")
    points = []
    raw = {}
    for key, (mu, m) in enumerate(cfg.resolved_points()):
        params = threshold_params(cfg.n, m)
        trials, sampler = _run_trials(cfg, m, key)
        rows = [row[1:] for row in trials]
        raw[m] = rows
        arr = np.array(rows, dtype=float)
        lmin, lmax, lfirst, llast = arr.T
        u = lmin * cfg.n * params.h**2
        v = params.h * lmax - math.log(cfg.n * params.h)
        ks_exp = _ks_distance(u, lambda x: -np.expm1(-x))
        ks_gum = _ks_distance(v, lambda x: np.exp(-np.exp(-x)))
        pval = _ks_2samp_pvalue(lfirst, llast)
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
                sampler=sampler,
            )
        )
    report = BlockCensusReport(
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
    stem = _maybe_write(cfg, report)
    if stem is not None:
        with open(stem + ".csv", "w") as fh:
            fh.write("m,trial,l_min,l_max,l_first,l_last\n")
            for m, rows in raw.items():
                for trial, row in enumerate(rows):
                    fh.write(f"{m},{trial}," + ",".join(map(str, row)) + "\n")
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
    t0 = time.time()
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
        wall_seconds=time.time() - t0,
    )


def _monotonicity_census(cfg: ExperimentConfig) -> MonotonicityReport:
    _start(cfg, "monotonicity")
    report = run_monotonicity_check(cfg.n)
    _maybe_write(cfg, report)
    return report


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
    report = MarkedReport(
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
    _maybe_write(cfg, report)
    return report


def _maybe_write(cfg: ExperimentConfig, report: Report) -> str | None:
    """Write the report to ``<out_dir>/<mode>_n<n>_seed<seed>.json``, n and
    seed as the report states them; return that path without its suffix,
    or None without an ``out_dir``."""
    if cfg.out_dir is None:
        return None
    os.makedirs(cfg.out_dir, exist_ok=True)
    stem = os.path.join(cfg.out_dir, f"{cfg.mode}_n{report.n}_seed{report.seed}")
    with open(stem + ".json", "w") as fh:
        fh.write(report.to_json(deterministic=False))
    return stem


#: The census modes, each with its runner: the one list of modes.
RUNNERS = {
    "components": run_component_census,
    "blocks": run_block_census,
    "marked": run_marked_vs_decomposition,
    "monotonicity": _monotonicity_census,
}
