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

    beta_k = [S (d_k - d_0 + D_k) - s D_k] / (S d_k),

with beta_k = 1 where d_k = 0 and beta_k = 0 for k > min(n-1, m+1).  D_k
is a window sum of row n-1; every count here is read in O(1) from
prefix-summed rows n and n-1, so a beta is an integer pair (numerator,
denominator) from a few big-integer products.

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
the beta equation itself.  Each level costs one exact integer Bernoulli
draw; no Fraction is built on this path.  ``rho_entry``,
``materialize_rho`` and ``symbolic_chain_distributions`` are the exact
rational oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .counting import InversionTable, max_inversions
from .rng import SamplerContext
from .sampling import reflect_sequence

_MATERIALIZE_LIMIT = 9


class BetaSolveError(AssertionError):
    """Internal-consistency failure of the beta system (never expected)."""


@dataclass(frozen=True)
class BetaEntry:
    """Solved parameters for one (level, budget), or a reflection marker."""

    n: int
    m: int
    reflected: bool
    reflected_budget: int | None
    values: tuple[Fraction, ...] | None


class BetaTable:
    """Closed-form betas over a shared count table.

    Holds one prefix-summed count row per level, extended on demand; the
    table itself is not modified.  Safe for concurrent readers with
    per-thread instances.
    """

    def __init__(self, table: InversionTable):
        self.table = table
        self._prefix_rows: dict[int, list[int]] = {}

    def _prefix(self, n: int, j: int) -> list[int]:
        """Running sums P of row n, P[k] = s(n, 0) + ... + s(n, k-1), for
        at least k <= j."""
        prefix = self._prefix_rows.setdefault(n, [0])
        while len(prefix) <= j:
            prefix.append(prefix[-1] + self.table.count(n, len(prefix) - 1))
        return prefix

    def entry(self, n: int, m: int) -> BetaEntry:
        if n < 2 or not 0 <= m <= max_inversions(n) - 1:
            raise ValueError(f"no transition matrix for (n={n}, m={m})")
        if 2 * m >= max_inversions(n):
            return BetaEntry(n, m, True, max_inversions(n) - 1 - m, None)
        values = tuple(
            Fraction(*self.beta(n, m, i)) for i in range(1, min(n - 1, m + 1) + 1)
        )
        return BetaEntry(n, m, False, None, values)

    def beta(self, n: int, m: int, i: int) -> tuple[int, int]:
        """beta_i(n, m) as (numerator, denominator) for a direct budget;
        0 outside 1..min(n-1, m+1)."""
        if 2 * m >= max_inversions(n):
            raise ValueError(f"budget {m} of level {n} must be reflected")
        if i <= 0 or i > min(n - 1, m + 1):
            return 0, 1
        below = self._prefix(n - 1, m + 2)
        d_i = below[m + 2 - i] - below[m + 1 - i]
        if d_i == 0:
            return 1, 1
        here = self._prefix(n, m + 2)
        big, small = here[m + 2] - here[m + 1], here[m + 1] - here[m]
        d_0 = below[m + 2] - below[m + 1]
        window = below[m + 2] - below[m + 2 - i]  # D_i
        num = big * (d_i - d_0 + window) - small * window
        den = big * d_i
        if not 0 <= num <= den:
            raise BetaSolveError(f"beta_{i}({n},{m}) = {num}/{den} outside [0,1]")
        return num, den


def solve_betas(n: int, m: int, table: InversionTable) -> BetaEntry:
    """Solve the beta system for (n, m), or mark the budget as reflected."""
    return BetaTable(table).entry(n, m)


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


def enumerate_inversion_sequences(n: int, m: int) -> list[tuple[int, ...]]:
    """All length-n inversion sequences with sum m, in reverse-lex order.

    Reverse-lex: x before y iff x_i < y_i at the last differing index.
    """
    out: list[tuple[int, ...]] = []

    def rec(level: int, budget: int, suffix: tuple[int, ...]) -> None:
        if level == 0:
            if budget == 0:
                out.append(suffix)
            return
        if budget > max_inversions(level) or budget < 0:
            return
        for v in range(min(level - 1, budget) + 1):
            rec(level - 1, budget - v, (v,) + suffix)

    rec(n, m, ())
    out.sort(key=lambda t: t[::-1])
    return out


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


def step_stops(
    x: Sequence[int], t: int, betas: BetaTable
) -> Iterator[tuple[int, int, int]]:
    """The top-down walk of one step from x (sum t < C(n,2)).

    Yields (coordinate, num, den) per level: the ball lands in that
    0-based coordinate with probability num/den, given that it passed
    every level above.  The last level reached has probability 1.
    """
    count = betas.table.count
    budget = t
    flipped = False
    for level in range(len(x), 1, -1):
        total = max_inversions(level)
        if 2 * budget >= total:
            budget = total - 1 - budget
            flipped = not flipped
        if flipped:
            i = level - 1 - x[level - 1]
            num, den = betas.beta(level, budget, i)
            yield level - 1, num * count(level, budget + 1), den * count(level, budget)
        else:
            i = x[level - 1]
            yield (level - 1, *betas.beta(level, budget, i + 1))
        budget -= i


def chain_step(
    state: ChainState, betas: BetaTable, ctx: SamplerContext
) -> tuple[ChainState, int]:
    """One ball throw; returns the new state and the box index (1-based)."""
    if state.t >= max_inversions(state.n):
        raise ValueError("chain is already at the maximal state")
    for k, num, den in step_stops(state.x, state.t, betas):
        if ctx.bernoulli_fraction(num, den):
            x = list(state.x)
            x[k] += 1
            return ChainState(tuple(x), state.t + 1), k + 1
    raise BetaSolveError(f"no level took the ball from {state.x}")


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
