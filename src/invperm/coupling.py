"""The uniformity-preserving one-ball-at-a-time Markov process.

States are inversion sequences; one step adds 1 to a single coordinate.
The transition matrix rho(n, m) from sum-m states to sum-(m+1) states is
block-bidiagonal: with probability beta_{j+1} (j = current last
coordinate) the last coordinate is incremented, otherwise the step
recurses into the length-(n-1) prefix with budget m - j.  The beta's are
the unique solution of

    beta_{k-1} + (1 - beta_k) * gamma_{k-1} = gamma,    beta_0 = 0,

with gamma = s(n,m)/s(n,m+1) and gamma_i = s(n-1,m-i)/s(n-1,m-i+1); this
forces every row sum to 1 and every column sum to s(n,m)/s(n,m+1), which
is exactly the condition for a uniform state at m to stay uniform at m+1.
Budgets at or above half the maximum are realized through the transpose
of the mirrored matrix (the reflection x_i -> (i-1) - x_i swaps the two).

Telescoping the recursion gives beta in closed form.  With S = s(n,m+1),
s = s(n,m), d_i = s(n-1,m+1-i) and D_k = d_0 + ... + d_{k-1},

    beta_k = [S (D_{k+1} - d_0) - s D_k] / (S d_k),

with beta_k = 0 for k > min(n-1, m+1).  For a direct budget (2m < C(n,2))
every d_k in between is positive: C(n,2) - 1 <= 2 C(n-1,2), as
(n-2)(n-3) >= 0, puts m+1-k within 0..C(n-1,2).  Both
D's are window sums of row n-1; every count here is read in O(1) from the
count rows n and n-1 or their prefix sums, each built whole on first use,
so a beta is an integer pair (numerator, denominator) from a few
big-integer products.  ``BetaTable.beta`` is the one beta; the step walk
below inlines its formula.

A step is one top-down walk over the levels L = n, n-1, ..., 2 with a
budget b and an orientation.  Forward, the walk adds a ball to x[:L];
flipped, it removes one from the mirror of x[:L] (a predecessor of the
mirrored prefix, weighted by its column of rho), which un-mirrors to the
same added ball.  Where 2b >= C(L,2) the budget is replaced by
C(L,2)-1-b and the orientation flips.  Then the walk stops at coordinate
L-1 with probability

    forward:  beta_{x_L + 1}(L, b),
    flipped:  beta_i(L, b) * s(L,b+1)/s(L,b),    i = (L-1) - x_L,

and otherwise subtracts x_L (or i) from b and moves down one level.  The
flipped stop probability is exact because every column of rho(L, b) sums
to s(L,b)/s(L,b+1).  Divided by that sum, a column is the law of the
predecessor: the last coordinate loses its ball with probability
beta_i s(L,b+1)/s(L,b), and otherwise the levels below follow a column of
rho(L-1, b-i), scaled by 1 - beta_{i+1}; that the two parts add to 1 is
the beta equation itself.  Each level that can take the ball costs one
exact integer Bernoulli draw; no Fraction is built on this path.
``step_walk`` is that walk, one loop that hands each stop to a ``decide``
callback: ``chain_step`` passes the Bernoulli draw, tests a recorder.
``rho_entry``, ``materialize_rho`` and ``symbolic_chain_distributions``
are the exact rational oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Sequence

from .counting import InversionTable, max_inversions
from .permutations import enumerate_inversion_sequences, reflect_sequence
from .rng import SamplerContext

_MATERIALIZE_LIMIT = 9


class BetaSolveError(AssertionError):
    """Internal-consistency failure of the beta system (never expected)."""


class BetaTable:
    """Closed-form betas over a shared count table.

    Holds, per level, one row of counts and its prefix sums, built whole on
    first use and as wide as a beta of that level or the next reads.  It
    does not modify the table, which may gain rows while it lives (as the
    head table that live ``SplitSampler``s share does); their levels are
    then read like the others.  Safe for concurrent readers with per-thread
    instances.
    """

    def __init__(self, table: InversionTable):
        self.table = table
        # index = level; extended when a level past its end is first built
        self._levels: list[tuple[list[int], list[int]] | None] = []

    def rows(self, level: int) -> tuple[list[int], list[int]]:
        """The prefix row P and the count row c of ``level``: c[k] =
        s(level, k) for k below C(level+1, 2)//2 + 2, or as far as the column
        cap stores, and P[k] = c[0] + ... + c[k-1], one entry longer.  Zero
        counts pad the rows past C(level, 2) only."""
        rows = self._levels[level] if 0 < level < len(self._levels) else None
        if rows is None:
            width = max_inversions(level + 1) // 2 + 2
            if self.table.m_cap is not None:
                width = min(width, self.table.m_cap + 1)
            last = min(max_inversions(level), width - 1)
            counts = list(islice(chain(self.table.counts(level, 0, last), repeat(0)), width))
            rows = list(accumulate(counts, initial=0)), counts
            # the table has checked the level, so the list grows at most to it
            self._levels += [None] * (level + 1 - len(self._levels))
            self._levels[level] = rows
        return rows

    def beta(self, n: int, m: int, i: int) -> tuple[int, int]:
        """beta_i(n, m) as (numerator, denominator) for a direct budget
        (0 <= 2m < C(n,2)); 0 outside 1..min(n-1, m+1)."""
        if n < 2 or m < 0:
            raise ValueError(f"no transition matrix for (n={n}, m={m})")
        if 2 * m >= max_inversions(n):
            raise ValueError(f"budget {m} of level {n} must be reflected")
        if i <= 0 or i > min(n - 1, m + 1):
            return 0, 1
        here, below = self.rows(n)[0], self.rows(n - 1)[0]
        if m + 2 >= len(below):
            raise ValueError(f"s({n},{m + 1}) not stored (column cap {self.table.m_cap})")
        d_i = below[m + 2 - i] - below[m + 1 - i]
        big, small = here[m + 2] - here[m + 1], here[m + 1] - here[m]
        num = big * (below[m + 1] - below[m + 1 - i]) - small * (below[m + 2] - below[m + 2 - i])
        den = big * d_i
        if not 0 <= num <= den:
            raise BetaSolveError(f"beta_{i}({n},{m}) = {num}/{den} outside [0,1]")
        return num, den


def rho_entry(
    n: int,
    m: int,
    x: Sequence[int],
    y: Sequence[int],
    betas: BetaTable,
) -> Fraction:
    """Exact transition probability rho_{n,m}(x, y).

    Zero unless y covers x (equal except one coordinate larger by 1).
    """
    total = max_inversions(n)
    if 2 * m >= total:
        mt = total - 1 - m
        scale = Fraction(betas.table.count(n, mt + 1), betas.table.count(n, mt))
        return rho_entry(n, mt, reflect_sequence(y), reflect_sequence(x), betas) * scale
    j, i = x[n - 1], y[n - 1]
    if i == j + 1 and tuple(x[: n - 1]) == tuple(y[: n - 1]):
        return Fraction(*betas.beta(n, m, i))
    if i == j:
        # a maximal prefix has no outgoing sub-transitions
        if n - 1 < 2 or m - j >= max_inversions(n - 1):
            return Fraction(0)
        sub = rho_entry(n - 1, m - j, x[: n - 1], y[: n - 1], betas)
        if sub:
            return (1 - Fraction(*betas.beta(n, m, j + 1))) * sub
        return Fraction(0)
    return Fraction(0)


@dataclass(frozen=True)
class RhoMatrix:
    """Materialized sparse transition matrix for small-n validation."""

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    entries: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]

    def entry(self, x: tuple[int, ...], y: tuple[int, ...]) -> Fraction:
        return self.entries.get((x, y), Fraction(0))

    def dense(self) -> list[list[Fraction]]:
        return [[self.entry(x, y) for y in self.cols] for x in self.rows]


def materialize_rho(n: int, m: int, betas: BetaTable) -> RhoMatrix:
    """Explicit rho_{n,m} over the covering pairs; guarded to small n."""
    if n > _MATERIALIZE_LIMIT:
        raise ValueError(f"materialize_rho limited to n <= {_MATERIALIZE_LIMIT}")
    if not 0 <= m < max_inversions(n):
        raise ValueError(f"no transition matrix for (n={n}, m={m})")
    rows = tuple(enumerate_inversion_sequences(n, m))
    cols = tuple(enumerate_inversion_sequences(n, m + 1))
    entries = {}
    for x in rows:
        for k in range(n):
            if x[k] < k:  # room to add a ball in box k+1
                y = x[:k] + (x[k] + 1,) + x[k + 1 :]
                value = rho_entry(n, m, x, y, betas)
                if value:
                    entries[(x, y)] = value
    return RhoMatrix(n, m, rows, cols, entries)


@dataclass(frozen=True)
class ChainState:
    """Occupancy numbers after t balls: an inversion sequence with sum t."""

    x: tuple[int, ...]
    t: int

    @property
    def n(self) -> int:
        return len(self.x)


def initial_state(n: int) -> ChainState:
    return ChainState((0,) * n, 0)


def step_walk(
    x: Sequence[int], t: int, betas: BetaTable, decide: Callable[[int, int], bool]
) -> int:
    """The top-down walk of one step from x (sum t < C(n,2)).

    Calls decide(num, den) at each level that can take the ball, which
    lands in that level's last coordinate with probability num/den given
    that it passed every level above, and returns the 0-based coordinate of
    the first level whose decide is true.  The last level reached has
    probability 1.
    """
    levels = betas._levels
    n = len(x)
    here = betas.rows(n)[1]
    b, flipped, total = t, False, max_inversions(n)
    # level k + 1, its last coordinate x[k]; total is C(k+1, 2)
    for k in range(n - 1, 0, -1):
        prefix, counts = levels[k] or betas.rows(k)
        if 2 * b >= total:
            b = total - 1 - b
            flipped = not flipped
        total -= k
        # j is the last coordinate as this orientation sees it; the stop is
        # beta_{j+1} forward and beta_j * s(k+1, b+1)/s(k+1, b) flipped
        if flipped:
            j = i = k - x[k]
        else:
            j = x[k]
            i = j + 1
        if 0 < i <= k and i <= b + 1:
            # row k is never wider than row k + 1, so one check covers both
            if b + 2 >= len(prefix):
                raise ValueError(f"s({k + 1},{b + 1}) not stored (column cap {betas.table.m_cap})")
            # BetaTable.beta inlined, with D_{b+2} - D_{b+2-i} read as the
            # window D_{b+1} - D_{b+1-i} shifted by one count at each end;
            # flipped, num/(S d_i) * S/s is num/(d_i s)
            big, small, d_i = here[b + 1], here[b], counts[b + 1 - i]
            window = prefix[b + 1] - prefix[b + 1 - i]
            num = big * window - small * (window + counts[b + 1] - d_i)
            if decide(num, d_i * (small if flipped else big)):
                return k
        b -= j
        here = counts
    raise BetaSolveError(f"no level took the ball from {tuple(x)}")


def chain_step(
    state: ChainState, betas: BetaTable, ctx: SamplerContext
) -> tuple[ChainState, int]:
    """One ball throw; returns the new state and the box index (1-based)."""
    x, t = state.x, state.t
    if t >= max_inversions(len(x)):
        raise ValueError("chain is already at the maximal state")
    k = step_walk(x, t, betas, ctx.bernoulli_fraction)
    return ChainState(x[:k] + (x[k] + 1,) + x[k + 1 :], t + 1), k + 1


def run_chain(
    n: int,
    m_target: int,
    ctx: SamplerContext,
    betas: BetaTable | None = None,
    trace: list[int] | None = None,
) -> ChainState:
    """Throw m_target balls starting from the empty state.

    The resulting state is uniform on the inversion sequences of sum
    m_target; successive states couple all budgets along one trajectory.
    """
    if n < 1:
        raise ValueError(f"run_chain needs n >= 1, got {n}")
    if not 0 <= m_target <= max_inversions(n):
        raise ValueError(f"m_target outside 0..{max_inversions(n)}")
    if betas is None:
        if ctx.table is None:
            raise ValueError("run_chain needs a count table")
        betas = BetaTable(ctx.table)
    state = initial_state(n)
    for _ in range(m_target):
        state, box = chain_step(state, betas, ctx)
        if trace is not None:
            trace.append(box)
    return state


def symbolic_chain_distributions(
    n: int, betas: BetaTable
) -> list[dict[tuple[int, ...], Fraction]]:
    """Exact forward propagation of the point mass at zero through every
    materialized matrix; element m of the result is the distribution on
    sum-m sequences."""
    dist: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
    history = [dist]
    for m in range(max_inversions(n)):
        rho = materialize_rho(n, m, betas)
        nxt: dict[tuple[int, ...], Fraction] = {}
        for (x, y), p in rho.entries.items():
            mass = dist.get(x)
            if mass:
                nxt[y] = nxt.get(y, Fraction(0)) + mass * p
        history.append(nxt)
        dist = nxt
    return history
