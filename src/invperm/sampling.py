"""Exact uniform sampling of inversion sequences with a fixed sum.

Two engines, both exactly uniform on the target set:

* ``sample_inversion_sequence`` draws one uniform big integer u below
  s(n, m) and maps it to a sequence with ``InversionTable.unrank``: the
  last coordinate is the j whose block of s(n-1, m-j) values holds u,
  and the offset of u in that block ranks the rest, so each j has
  probability s(n-1, m-j)/s(n, m) and the map from u to sequences is a
  bijection.  One exact draw per walk, no rounding bias.  Budgets above
  half the maximum are reflected through x_i -> (i-1) - x_i first,
  halving the table columns needed.

* ``SplitSampler`` handles sizes where the table is out of reach.  It
  splits the sequence into a short truncated head (where the bounds
  x_i <= i-1 actually bite) and a long tail, proposes the head sum from
  its exact marginal, the head from the table, and the tail as a uniform
  composition (stars and bars), then rejects the rare tail that violates
  a bound.  Every (head, composition) pair is proposed with the same
  probability, so conditioned on validity the output is exactly uniform.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .counting import build_table, max_inversions
from .rng import SamplerContext

# slots of the boolean mask ``sample_composition`` allocates (one byte each)
MAX_COMPOSITION_SLOTS = 1 << 28
# consecutive rejected proposals after which ``SplitSampler.sample`` gives
# up; the default head size rejects about one proposal in a hundred
MAX_RESTARTS = 10_000


def reflect_sequence(x: Sequence[int]) -> list[int]:
    """The involution x_i -> (i-1) - x_i; maps sum m to C(n,2) - m."""
    return [i - v for i, v in enumerate(x)]


def sample_inversion_sequence(n: int, m: int, ctx: SamplerContext) -> list[int]:
    """Uniform inversion sequence of length n with sum exactly m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = max_inversions(n)
    if not 0 <= m <= total:
        raise ValueError(f"m={m} outside 0..{total}")
    table = ctx.table
    work = min(m, total - m)
    if table is None or not table.covers(n, work):
        raise ValueError("context table does not cover the requested size")
    x = table.unrank(n, work, ctx.uniform_below(table.count(n, work)))
    return x if work == m else reflect_sequence(x)


def sample_composition(parts: int, total: int, ctx: SamplerContext) -> np.ndarray:
    """Uniform composition of ``total`` into ``parts`` nonnegative parts.

    Stars and bars: a uniform (parts-1)-subset of the slots of a
    (total+parts-1)-row marks the bars; gap lengths are the parts.  The
    subset is a boolean mask over the slots: iid uniform slots are
    scattered into it, then as many more as are still missing, until it
    holds the wanted count.  The procedure commutes with every relabelling
    of the slots and always ends at the wanted size, so its subset is
    uniform.  The fewer of bars and stars are drawn and the other set is
    the complement, so a near-full subset never becomes a coupon
    collector (total = 0 draws nothing).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    slots = total + parts - 1
    if slots > MAX_COMPOSITION_SLOTS:
        raise ValueError(
            f"composition of total={total} into parts={parts} needs {slots} "
            f"slots, above {MAX_COMPOSITION_SLOTS}"
        )
    drawn = min(parts - 1, total)
    gen = ctx.generator
    mask = np.zeros(slots, dtype=bool)
    missing = drawn
    while missing:
        mask[gen.integers(0, slots, missing)] = True
        missing = drawn - np.count_nonzero(mask)
    if drawn < parts - 1:
        np.logical_not(mask, out=mask)
    return np.diff(np.flatnonzero(mask), prepend=-1, append=slots) - 1


def default_head_size(n: int, m: int) -> int:
    """Head length for the split sampler.

    Chosen so a tail coordinate exceeds its bound with probability about
    1e-2 per draw or less: coordinates look geometric with ratio
    q = alpha/(alpha+1), so q^c/(1-q) <= 1e-2 needs
    c >= (alpha+1) * (log(alpha+1) + log 100), padded a little.
    """
    alpha = m / n
    c = int((alpha + 1.0) * (np.log(alpha + 1.0) + np.log(100.0))) + 8
    return min(max(16, c), n - 1)


class SplitSampler:
    """Exact uniform sampler for one fixed (n, m), built once, drawn many.

    For budgets above half the maximum the whole problem is reflected.
    The head-sum marginal is proportional to

        w(a) = s(c, a) * C(m - a + K - 1, K - 1),   K = n - c,

    i.e. (#heads with sum a) * (#tail compositions of the remainder).
    The binomials are carried as a common-factor-scaled integer chain so
    no giant factorials are ever formed.
    """

    def __init__(self, n: int, m: int, head_size: int | None = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        total = max_inversions(n)
        if not 0 <= m <= total:
            raise ValueError(f"m={m} outside 0..{total}")
        self.n = n
        self.m = m
        self.reflected = 2 * m > total
        self._m_work = total - m if self.reflected else m
        mw = self._m_work
        c = default_head_size(n, mw) if head_size is None else head_size
        if c >= n:
            c = n - 1
        self.head_size = c
        if not 1 <= c < n:
            raise ValueError("split sampler needs 1 <= head_size < n")
        self.table = build_table(c, m_cap=min(mw, max_inversions(c)))
        self._tail_parts = n - c
        a_max = min(max_inversions(c), mw)
        self._cum_weights = self._weight_cumsums(a_max, mw, self._tail_parts)
        # tail bound check: tail coordinate i (1-based) is x_{c+i} <= c+i-1
        self._tail_bounds = np.arange(c, n, dtype=np.int64)
        self.restarts = 0

    def _weight_cumsums(self, a_max: int, m: int, parts: int) -> list[int]:
        # scaled weights W(a) = s(c,a) * P(a), where
        #   P(a) = prod_{j=a}^{a_max-1}(m-j+parts-1) * prod_{j=0}^{a-1}(m-j)
        # so W(a+1)/W(a) = [s-ratio] * (m-a)/(m-a+parts-1), matching the
        # ratio of tail-composition counts.  P(a) holds the factor
        # m-a+parts-1 for a < a_max, so P(a+1) = P(a) // (m-a+parts-1) * (m-a)
        # is exact and each step is linear in the size of P.
        factor = math.prod(m - j + parts - 1 for j in range(a_max))
        cums = []
        acc = 0
        for a in range(a_max + 1):
            acc += self.table.count(self.head_size, a) * factor
            cums.append(acc)
            if a < a_max:
                factor = factor // (m - a + parts - 1) * (m - a)
        return cums

    def sample(self, ctx: SamplerContext) -> np.ndarray:
        """One exactly uniform inversion sequence, as an int64 array."""
        c = self.head_size
        mw = self._m_work
        head_ctx = ctx.with_table(self.table)
        for _ in range(MAX_RESTARTS + 1):
            u = ctx.uniform_below(self._cum_weights[-1])
            a = bisect.bisect_right(self._cum_weights, u)
            head = sample_inversion_sequence(c, a, head_ctx)
            tail = sample_composition(self._tail_parts, mw - a, ctx)
            if np.all(tail <= self._tail_bounds):
                x = np.concatenate([np.asarray(head, dtype=np.int64), tail])
                if self.reflected:
                    x = np.arange(self.n, dtype=np.int64) - x
                return x
            self.restarts += 1
        raise ValueError(
            f"SplitSampler(n={self.n}, m={self.m}) rejected {MAX_RESTARTS + 1} "
            f"proposals in a row with head_size={c}; use a larger head"
        )
