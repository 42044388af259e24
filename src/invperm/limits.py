"""Numeric ingredients of the connectivity-threshold limit laws.

With m inversions spread over n positions, alpha = m/n and
q = alpha/(alpha+1), the per-position chance that a fresh block starts
approaches the Euler product h(q) = prod_{j>=1} (1 - q^j); n*h(q) is the
Poisson mean governing the number of blocks minus one.  The window
length nu = ceil(2*(alpha+1)*log n) is what a cut must "see" for the
truncated product to have converged.

Those are n -> infinity laws.  The ``finite_n_*`` functions give the exact
law at finite n, up to double-precision rounding, as a reference for
Monte Carlo censuses: see :func:`finite_n_cut_law`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.fft import next_fast_len
from scipy.optimize import brentq

from .counting import max_inversions

# below n-1 edges the permutation graph cannot be connected; above
# C(n-1,2) it cannot be disconnected
REGIME_THRESHOLD = "threshold"
REGIME_ALWAYS_DECOMPOSABLE = "always_decomposable"
REGIME_ALWAYS_INDECOMPOSABLE = "always_indecomposable"


def euler_h(q: float, tol: float = 1e-12) -> float:
    """Truncated Euler product prod_{j<=K} (1 - q^j) with relative error < tol.

    K is the smallest truncation whose tail satisfies
    q^(K+1) / ((1-q)(1-q^(K+1))) < tol.
    """
    if q == 0.0:
        return 1.0
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    # first K from logs, then nudge until the bound really holds
    k = max(1, int(math.log(tol * (1.0 - q)) / math.log(q)))
    while q ** (k + 1) / ((1.0 - q) * (1.0 - q ** (k + 1))) >= tol:
        k += 1
    prod = 1.0
    power = 1.0
    for _ in range(k):
        power *= q
        prod *= 1.0 - power
    return prod


@dataclass(frozen=True)
class ThresholdParams:
    """All scalar quantities attached to one (n, m) pair."""

    n: int
    m: int
    alpha: float
    q: float
    nu: int
    h: float
    lam: float
    regime: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha,
            "q": self.q,
            "nu": self.nu,
            "h": self.h,
            "lambda": self.lam,
            "regime": self.regime,
        }


def classify_regime(n: int, m: int) -> str:
    """Trivial classification outside the nontrivial band of m."""
    if m < n - 1:
        return REGIME_ALWAYS_DECOMPOSABLE
    if m > max_inversions(n - 1):
        return REGIME_ALWAYS_INDECOMPOSABLE
    return REGIME_THRESHOLD


def threshold_params(n: int, m: int, tol: float = 1e-14) -> ThresholdParams:
    """alpha, q, nu, h, and the Poisson mean lambda = n*h for (n, m)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= m <= max_inversions(n):
        raise ValueError(f"m={m} outside 0..{max_inversions(n)}")
    alpha = m / n
    q = alpha / (alpha + 1.0)
    nu = max(1, math.ceil(2.0 * (alpha + 1.0) * math.log(n)))
    h = euler_h(q, tol)
    return ThresholdParams(
        n=n,
        m=m,
        alpha=alpha,
        q=q,
        nu=nu,
        h=h,
        lam=n * h,
        regime=classify_regime(n, m),
    )


def alpha_for_mu(n: int, mu: float) -> tuple[float, int]:
    """Edge density alpha and edge count m hitting Poisson mean ~ e^-mu.

    alpha = (6/pi^2) (log n + (1/2) log log n + (1/2) log(12/pi)
            - pi^2/12 + mu); m = round(alpha*n) clamped to the band where
    the outcome is not forced.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite; got {mu}")
    log_n = math.log(n)
    alpha = (6.0 / math.pi**2) * (
        log_n
        + 0.5 * math.log(log_n)
        + 0.5 * math.log(12.0 / math.pi)
        - math.pi**2 / 12.0
        + mu
    )
    m = round(alpha * n)
    m = max(n - 1, min(m, max_inversions(n - 1)))
    return alpha, m


# ------------------------------------------------------------ finite-n law
#
# Under the weight y^inv a permutation is a sequence of indecomposable
# blocks with no inversion between blocks.  With P_k(y) = prod_{i<=k}
# (1 - y^i) and S(z) = sum_{k>=0} P_k z^k, the block weights
# F = 1 - 1/S form a renewal sequence: [z^n] F^k is (1-y)^n times the
# inversion generating function of permutations of [n] with k blocks, and
# S = 1/(1 - F).  Exactly m inversions is then the coefficient of y^m, a
# contour integral over y = x e^{i theta} with x the saddle point of the
# Boltzmann model (Duchon, Flajolet, Louchard and Schaeffer, "Boltzmann
# samplers", CPC 2004).  Probabilities are ratios of two such integrals.

#: Node spacing in standard deviations of the Boltzmann inversion count.
#: The trapezoid rule then aliases [y^m] with [y^(m +- 2 pi sd / _STEP)];
#: against exact E[C-1] this left errors <= 3e-12 at 24 <= n <= 600
#: (0.75 left 4e-9 at n = 30).
_STEP = 0.6
#: Nodes where the Boltzmann characteristic function is provably below
#: this are dropped.
_NODE_TAIL = 1e-17
#: Fewest nodes on the circle, for small m, where the inversion count is
#: far from Gaussian.  With more than C(n,2) nodes the trapezoid rule is
#: exact for the polynomials integrated, so up to n = 23 it always is.
_MIN_NODES = 256


def _boltzmann_moments(n: int, t: float) -> tuple[float, float]:
    """Mean and variance of sum_i X_i, independent X_i on {0..i-1} with
    P(X_i = j) proportional to x^j, x = e^-t."""
    i = np.arange(1.0, n + 1.0)
    if t == 0.0:  # x = 1: X_i is uniform
        return float(np.sum(i - 1.0) / 2.0), float(np.sum(i * i - 1.0) / 12.0)
    with np.errstate(over="ignore"):
        mean = np.sum(1.0 / math.expm1(t) - i / np.expm1(i * t))
        var = np.sum(0.25 / math.sinh(t / 2) ** 2 - (0.5 * i / np.sinh(i * t / 2)) ** 2)
    return float(mean), float(var)


def boltzmann_saddle(n: int, m: int) -> float:
    """Ratio x at which the Boltzmann inversion count has mean m.

    Solves sum_{i<=n} (x/(1-x) - i x^i/(1-x^i)) = m.  Only
    0 <= 2m <= C(n,2) is accepted; x runs from 0 (m = 0) to 1
    (2m = C(n,2)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    top = max_inversions(n)
    if not 0 <= 2 * m <= top:
        raise ValueError(f"need 0 <= 2m <= C(n,2) = {top}; got m={m}")
    if m == 0:
        return 0.0
    if 2 * m == top:
        return 1.0
    # solve for log t, t = -log x
    log_t = brentq(
        lambda u: _boltzmann_moments(n, math.exp(u))[0] - m, -20.0, 4.0, xtol=1e-13
    )
    return math.exp(-math.exp(log_t))


def _contour_nodes(n: int, m: int, contour: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y_j and weights w_j with [y^m] (1-y)^-n V(y) proportional to
    Re sum_j w_j V(y_j), the same factor for every real-coefficient V.

    The nodes are the upper half of a trapezoid rule on |y| = x (the
    lower half is the conjugate).  With ``contour=False`` the single node
    y = x with weight 1 drops the conditioning on m: ratios are then the
    Boltzmann model's, given only the size n.
    """
    x = boltzmann_saddle(n, m)
    if not contour:
        return np.array([x]), np.ones(1)
    sd = math.sqrt(_boltzmann_moments(n, -math.log(x) if x > 0 else math.inf)[1])
    exact = max_inversions(n) + 1
    count = min(exact, max(_MIN_NODES, math.ceil(2 * math.pi * sd / _STEP)))
    count += count % 2
    theta = (np.arange(count // 2) + 0.5) * (2 * math.pi / count)
    if count < exact and x < 1:
        # |E e^{i theta X_i}| <= (1+x^i)/(1-x^i) * (1-x)/|1 - x e^{i theta}|,
        # whose product over i decreases in theta
        powers = x ** np.arange(1, n + 1)
        lead = np.sum(np.log1p(powers) - np.log1p(-powers))
        decay = 0.5 * n * np.log((1 - x) ** 2 / (1 - 2 * x * np.cos(theta) + x * x))
        theta = theta[lead + decay > math.log(_NODE_TAIL)]
    y = x * np.exp(1j * theta)
    log_w = -n * np.log(1 - y) - 1j * m * theta
    return y, np.exp(log_w - log_w.real.max())


def _transforms(real: bool, length: int):
    """Forward and inverse FFT of ``length`` points."""
    if real:
        return np.fft.rfft, lambda v: np.fft.irfft(v, length)
    return np.fft.fft, np.fft.ifft


def _series_mul(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """First ``size`` coefficients of the product of power series a, b."""
    a, b = a[:size], b[:size]
    real = np.isrealobj(a) and np.isrealobj(b)
    length = next_fast_len(len(a) + len(b) - 1, real)
    fwd, inv = _transforms(real, length)
    return inv(fwd(a, length) * fwd(b, length))[:size]


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """1/a modulo z^len(a) for a[0] = 1, by Newton's step b <- b (2 - a b)."""
    b = np.ones(1, dtype=a.dtype)
    while len(b) < len(a):
        size = min(2 * len(b), len(a))
        e = -_series_mul(a, b, size)
        e[0] += 2.0
        b = _series_mul(b, e, size)
    return b


def _reciprocal_top(a: np.ndarray):
    """[z^n] 1/a for n = len(a) - 1 >= 1, a[0] = 1.

    With b = 1/a modulo z^k, 2k > n, Newton's last step gives
    [z^n] b (2 - a b) = -sum_j b_j [z^(n-j)] (a b), one product fewer
    than the whole series.
    """
    n = len(a) - 1
    b = _series_inverse(a[: n // 2 + 1])
    e = _series_mul(a, b, n + 1)
    return -np.dot(b, e[n : n - len(b) : -1])


def _block_weights(s: np.ndarray) -> np.ndarray:
    """F = 1 - 1/S."""
    f = -_series_inverse(s)
    f[0] = 0.0
    return f


def _top_of_powers(f: np.ndarray, kmax: int) -> np.ndarray:
    """[z^n] f^k for k = 1..kmax, n = len(f) - 1.

    Baby steps f^1..f^r and giant steps f^r, f^2r, ... (r = isqrt(kmax))
    take about 2 sqrt(kmax) series products, each by a fixed multiplier
    whose transform is kept; each coefficient is a dot product of a baby
    and a giant step.
    """
    n = len(f) - 1
    length = next_fast_len(2 * n + 1, np.isrealobj(f))
    fwd, inv = _transforms(np.isrealobj(f), length)

    def times(a, b_hat):
        return inv(fwd(a, length) * b_hat)[: n + 1]

    baby = [f]
    f_hat = fwd(f, length)
    while len(baby) < max(1, math.isqrt(kmax)):
        baby.append(times(baby[-1], f_hat))
    step_hat = fwd(baby[-1], length)
    giant = np.zeros_like(f)
    giant[0] = 1.0
    out: list = []
    while True:
        out.extend(np.dot(giant, b[::-1]) for b in baby[: kmax - len(out)])
        if len(out) == kmax:
            return np.array(out)
        giant = times(giant, step_hat)


def _conditioned(n: int, m: int, numerator, contour: bool = True) -> np.ndarray:
    """numerator(S) / P_n conditioned on m inversions.

    ``numerator`` maps the coefficients S = (P_0..P_n) at one node to an
    array of [z^n] coefficients; each is divided by [z^n] S = P_n after
    both are integrated over the contour.
    """
    nodes, weights = _contour_nodes(n, m, contour)
    exponents = np.arange(1, n + 1)
    num = den = 0.0
    for y, w in zip(nodes, weights):
        # y = 0 when m = 0: log y = -inf and every power is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            powers = np.exp(exponents * np.log(y))
        s = np.concatenate(([1.0], np.cumprod(1.0 - powers)))
        num = num + w * np.asarray(numerator(s))
        den = den + w * s[n]
    den = float(np.real(den))
    if not (math.isfinite(den) and den > 0.0):
        raise ValueError(f"(n, m) = ({n}, {m}) is out of double-precision range")
    return np.real(num) / den


def finite_n_mean_cuts(n: int, m: int) -> float:
    """E[C - 1] for a uniform permutation of [n] with m inversions.

    C is the number of blocks.  A cut after position j leaves an arbitrary
    permutation on either side, so the cut-marked weight is
    [z^n] (S - 1)^2 = sum_{0<j<n} P_j P_{n-j}.
    """
    return float(_conditioned(n, m, lambda s: np.dot(s[1:n], s[n - 1 : 0 : -1])))


def finite_n_cut_law(n: int, m: int, kmax: int | None = None) -> np.ndarray:
    """P(C - 1 = k), k = 0..kmax-1, for a uniform permutation of [n] with
    m inversions (2m <= C(n,2)); by default the whole law, kmax = n.

    P(C = k) = [y^m] (1-y)^-n [z^n] F^k / s(n, m), evaluated as a contour
    integral in double precision.  The mass beyond kmax is one minus the
    sum of the result.
    """
    kmax = n if kmax is None else min(kmax, n)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return _conditioned(n, m, lambda s: _top_of_powers(_block_weights(s), kmax))


def finite_n_block_cdfs(
    n: int,
    m: int,
    min_lengths: Sequence[int],
    max_lengths: Sequence[int],
    contour: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """P(L_min <= l) at each l in ``min_lengths`` and P(L_max <= l) at each
    l in ``max_lengths``.

    L_min and L_max are the smallest and largest block sizes of a uniform
    permutation of [n] with m inversions (2m <= C(n,2)).
    P(L_min >= l) = [z^n] 1/(1 - F_{>=l}) / P_n and
    P(L_max <= l) = [z^n] 1/(1 - F_{<=l}) / P_n, with F restricted to
    block sizes >= l or <= l.  ``contour=False`` evaluates both at the
    saddle point only, without conditioning on m (one real evaluation per
    l instead of a contour of complex ones).
    """
    sizes = np.arange(n + 1)

    def renewal_top(g: np.ndarray):
        h = -g
        h[0] = 1.0
        return _reciprocal_top(h)

    def numerator(s):
        f = _block_weights(s)
        return [renewal_top(np.where(sizes > v, f, 0.0)) for v in min_lengths] + [
            renewal_top(np.where(sizes <= v, f, 0.0)) for v in max_lengths
        ]

    ratios = _conditioned(n, m, numerator, contour)
    return 1.0 - ratios[: len(min_lengths)], ratios[len(min_lengths) :]


def marked_points(y: Sequence[int], nu: int) -> list[int]:
    """Positions i in [len-2*nu] with y_{i+t} <= t-1 for all t in [nu].

    These are the cuts detectable from a length-nu window alone; every
    decomposition point at most len-2*nu is also marked.  i is marked iff
    the minimum of slack[k] = k - y[k] (0-based k) over the window
    [i, i+nu-1] is at least i.  Window minima come from prefix and suffix
    minima within aligned blocks of nu (van Herk 1992; Gil and Werman
    1993): a window is the suffix of one block plus the prefix of the
    next, so the pass is O(len).
    """
    length = len(y)
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if nu > length:
        raise ValueError(f"nu={nu} exceeds sequence length {length}")
    limit = length - 2 * nu
    if limit < 1:
        return []
    # windows start at 1..limit and read slack[1 .. limit+nu-1]; that span
    # is padded to whole blocks, and no window reaches the padding
    span = limit + nu - 1
    slack = np.full(-(-span // nu) * nu, np.iinfo(np.int64).max, dtype=np.int64)
    slack[:span] = np.arange(1, span + 1) - np.asarray(y[1 : span + 1], dtype=np.int64)
    rows = slack.reshape(-1, nu)
    prefix = np.minimum.accumulate(rows, axis=1).ravel()
    suffix = np.minimum.accumulate(rows[:, ::-1], axis=1)[:, ::-1].ravel()
    window_min = np.minimum(suffix[:limit], prefix[nu - 1 : nu - 1 + limit])
    idx = np.arange(1, limit + 1)
    return idx[window_min >= idx].tolist()
