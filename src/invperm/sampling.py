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

* ``SplitSampler`` is the sampler for every (n, m).  It splits the
  sequence into a truncated head (where the bounds x_i <= i-1 bite) and
  a tail, proposes the head sum from its exact marginal, the head from
  the table, and the tail as a uniform composition (stars and bars), then
  rejects the rare tail that violates a bound; a head that would reach n
  is the whole sequence, drawn by the walker.  Every (head, composition)
  pair is proposed with the same probability, so conditioned on validity
  the output is exactly uniform.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import threading
import weakref

import numpy as np

from .counting import InversionTable, build_table, max_inversions
from .permutations import reflect_sequence
from .rng import SamplerContext

# slots of the boolean mask ``sample_composition`` marks (one byte each)
MAX_COMPOSITION_SLOTS = 1 << 28
# consecutive rejected proposals after which ``SplitSampler.sample`` gives
# up; the default head size rejects about one proposal in a hundred
MAX_RESTARTS = 10_000
# mantissa bits of the bounds a SplitSampler places its block draws by; a
# draw falls between the bounds of a base with probability about 2**-120
BOUND_BITS = 128
# each thread's draw scratch: a bar mask (all False between draws) and a
# parts array, as long as the largest draw or SplitSampler made in it
_scratch = threading.local()
# the head tables of the live SplitSamplers, one per column cap (None for
# whole rows), each as tall as the tallest head that holds it
_head_tables: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_head_lock = threading.Lock()


def _scratch_array(name: str, size: int, dtype) -> np.ndarray:
    """This thread's scratch ``name``; one shorter than ``size`` is replaced."""
    held = vars(_scratch)
    if name not in held or len(held[name]) < size:
        held.pop(name, None)  # dropped before its successor is allocated
        held[name] = np.zeros(size, dtype=dtype)
    return held[name]


def _head_table(rows: int, m_cap: int | None) -> InversionTable:
    """The live head table capped at ``m_cap``, grown to ``rows`` rows, or a
    new one; a grow or build past ``MAX_TABLE_BYTES`` raises and changes
    nothing."""
    with _head_lock:
        table = _head_tables.get(m_cap)
        if table is None:
            table = _head_tables[m_cap] = build_table(rows, m_cap)
        else:
            table.grow(rows)
        return table


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _scaled(x: int, shift: int, up: bool) -> int:
    """x * 2**shift rounded down to an integer, or up when ``up``."""
    if shift >= 0:
        return x << shift
    return -(-x >> -shift) if up else x >> -shift


def _running_products(factors: list[int], bits: int | None, up: bool) -> list[tuple[int, int]]:
    """1, f_0, f_0 f_1, ... as (mantissa, exponent) pairs, each mantissa
    rounded down (up when ``up``) to ``bits`` bits after its product; with
    ``bits`` None nothing is rounded."""
    out = [(1, 0)]
    for f in factors:
        p, e = out[-1]
        p *= f
        drop = 0 if bits is None else p.bit_length() - bits
        if drop > 0:
            p, e = _scaled(p, -drop, up), e + drop
        out.append((p, e))
    return out


def _locate(bounds, u: int) -> int | None:
    """The last b with base b <= u, the base after the last block being
    sum W, so b is the block whose range of W holds u, or the block count
    when u >= sum W; None when ``bounds`` (from
    ``SplitSampler._block_bounds``) cannot tell.  Every base lies between
    its bounds, so b lies between the two bisections."""
    shift, lows, highs = bounds
    top = u >> shift
    b = bisect.bisect_right(lows, top) - 1
    return b if b == bisect.bisect_right(highs, top) - 1 else None


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


def sample_composition(
    parts: int,
    total: int,
    ctx: SamplerContext,
    out: np.ndarray | None = None,
) -> np.ndarray:
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

    The draw marks this thread's scratch mask, grown to the slots first if
    shorter and held until the thread ends; it is all False again on
    return, also when the draw raises.  ``out``, when given, is an int64
    array of ``parts`` entries that receives the parts and is returned.
    Either way the draw is the same.
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
    marks = _scratch_array("mask", slots, bool)[:slots]
    try:
        if drawn:
            marks[gen.integers(0, slots, drawn)] = True
            missing = drawn - np.count_nonzero(marks)
            while missing:
                # a top-up counts only the distinct slots it newly marks
                picks = gen.integers(0, slots, missing)
                fresh = picks[~marks[picks]]
                marks[fresh] = True
                if len(fresh):
                    fresh.sort()
                    missing -= 1 + np.count_nonzero(fresh[1:] != fresh[:-1])
        if drawn < parts - 1:
            np.logical_not(marks, out=marks)
        bars = np.flatnonzero(marks)
    finally:
        marks.fill(False)
    # part i is the gap between bars i-1 and i, with bars at -1 and slots
    # closing the row
    if out is None:
        out = np.empty(parts, dtype=np.int64)
    if parts == 1:
        out[0] = total
        return out
    out[0] = bars[0]
    np.subtract(bars[1:], bars[:-1], out=out[1:-1])
    out[1:-1] -= 1
    out[-1] = slots - 1 - bars[-1]
    return out


def default_head_size(n: int, m: int) -> int:
    """Head length for the split sampler.

    The smallest c with q^c/(1-q) <= 1e-2, where q = alpha/(alpha+1) and
    alpha = m/n: tail coordinates look geometric with ratio q, so a tail
    breaks a bound in about one draw in a hundred or fewer.  That is
    c >= log(100 (alpha+1)) / log(1 + 1/alpha), with no padding; the head
    is at least 16 long and at most n.  A head of length n is the whole
    sequence: ``SplitSampler`` then makes the table walker's one draw.
    """
    c = 0 if m == 0 else math.ceil(math.log(100.0 * (1.0 + m / n)) / math.log1p(n / m))
    return min(max(16, c), n)


class SplitSampler:
    """Exact uniform sampler for one fixed (n, m), built once, drawn many.

    For budgets above half the maximum the whole problem is reflected.
    The head-sum marginal is proportional to

        w(a) = s(c, a) * C(m - a + K - 1, K - 1),   K = n - c,

    i.e. (#heads with sum a) * (#tail compositions of the remainder).
    Scaled by a common factor, w(a) is the integer

        W(a) = s(c, a) * prod_{j<a}(m-j) * prod_{a<=j<a_max}(m-j+K-1),

    so no giant factorial is ever formed.  The head sums are cut into
    blocks a0 <= a < a1 of about sqrt(a_max); inside one, every W(a) is the
    block's big factor

        P = prod_{j<a0}(m-j) * prod_{a1-1<=j<a_max}(m-j+K-1)

    times a short local weight.  A draw picks block b with probability
    P * acc_b / sum W, acc_b the block's local total, then a by an exact
    uniform v below acc_b; P cancels from (P * acc_b / sum W) *
    (local(a) / acc_b), so a build keeps per block only a0, a1 and acc_b,
    from one Horner pass with no division.  A block's local prefix sums
    are built on the first draw that lands in it, checked against acc_b
    and kept.  The block draw is a uniform u below sum W by rejection from
    2**bits, bits = (sum W - 1).bit_length(), placed among the block bases
    (the sums of W before each block).  The build keeps only bounds on
    those bases and on sum W, from the recurrence for P run on 128-bit
    mantissas rounded down and up, so it forms no full-width product; a u
    between the bounds of a base or of sum W (probability about 2**-120)
    is placed by the exact bases, built once on first need and kept.

    A tail is kept iff each x_{c+i} <= c+i-1; the bounds rise from c, so
    only the parts before index max(tail) - c are checked, against no
    stored array of bounds.

    A head of length n is the case K = 0: W(a) = s(n, a) * C(m-a-1, -1) is
    a point mass at a = m, the one block (m, m + 1) of total 1, so a draw
    reads no bits for the head sum, rejects nothing, and is the walker's.
    Draws use the drawing thread's scratch, which a build grows and which is
    held until the thread ends: threads may draw at once, though
    ``restarts`` is exact only when one thread draws.  Two threads may
    build one block's prefix sums at once; both store equal lists.

    The head table holds rows 1..c of s(k, a), whole when the budget
    reaches C(c,2) and otherwise capped at the budget.  Those rows do not
    depend on c, so live samplers share one table per cap, which a build
    grows to its c rows or, with none live, builds; ``table`` may hold more
    rows than the head reads.  The trade-off: a shared table keeps the rows
    of its tallest head until every sampler that shares it is gone.
    """

    def __init__(self, n: int, m: int, head_size: int | None = None):
        if not (_is_int(n) and _is_int(m) and (head_size is None or _is_int(head_size))):
            raise ValueError(
                f"n, m and head_size must be integers; got {n!r}, {m!r}, {head_size!r}"
            )
        n, m = int(n), int(m)
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
        c = default_head_size(n, mw) if head_size is None else min(int(head_size), n)
        if c < 1:
            raise ValueError("split sampler needs head_size >= 1")
        self.head_size = c
        self._tail_parts = n - c
        slots = mw + self._tail_parts - 1
        if slots > MAX_COMPOSITION_SLOTS:
            raise ValueError(
                f"SplitSampler(n={n}, m={m}) needs tail compositions of up to "
                f"{slots} slots, above {MAX_COMPOSITION_SLOTS}"
            )
        self.table = _head_table(c, None if mw >= max_inversions(c) else mw)
        a_max = min(max_inversions(c), mw)
        self._blocks, self._ups = self._weight_blocks(a_max, mw, self._tail_parts)
        self._sums = [None] * len(self._blocks)
        self._bounds = self._block_bounds(BOUND_BITS)
        self._exact = None
        shift, lows, highs = self._bounds
        bits = shift + (lows[-1] - 1).bit_length()
        if bits != shift + (highs[-1] - 1).bit_length():
            bits = (self._exact_bounds()[1][-1] - 1).bit_length()
        self._span = 1 << bits
        self.restarts = 0
        _scratch_array("mask", max(slots, 0), bool)  # grown here, not mid-draw: fewer page faults

    def _weight_blocks(
        self, a_max: int, m: int, parts: int
    ) -> tuple[list[tuple[int, int, int]], list[int]]:
        """Per block, (a0, a1, its exact local total), and per block but the
        last, prod_{a0<=j<a1}(m-j), the step of P's first product; both from
        one pass over the head sums, with no division and no prefix sums."""
        # Block [a0, a1) has big factor P (see the class docstring) and
        # local weights W(a) / P = s(c, a) * L(a), where
        #   L(a) = prod_{a0<=j<a}(m-j) * prod_{a<=j<a1-1}(m-j+K-1),
        # so its total is a Horner sum with no division: with
        # f = prod_{a0<=j<a}(m-j), q <- q*(m-a+K) + s(c, a)*f after
        # f <- f*(m-a+1).
        if parts == 0:  # a whole head: the point mass at a = m
            return [(m, m + 1, 1)], []
        heads = self.table.counts(self.head_size, 0, a_max)
        width = math.isqrt(a_max) + 1
        blocks, ups = [], []
        for a0 in range(0, a_max + 1, width):
            a1 = min(a0 + width, a_max + 1)
            q, f = next(heads), 1
            for k, s in zip(range(m - a0, m - a1 + 1, -1), heads):  # k = m - a + 1
                f *= k
                q = q * (k + parts - 1) + s * f
            blocks.append((a0, a1, q))
            ups.append(f * (m - a1 + 1))
        return blocks, ups[:-1]

    def _local_sums(self, b: int) -> list[int]:
        """Block b's exact local prefix sums, by the division recurrence
        L(a+1) = L(a) // (m-a+K-1) * (m-a); raises unless they end at the
        block's Horner total."""
        a0, a1, total = self._blocks[b]
        m, parts = self._m_work, self._tail_parts
        if parts == 0:  # a whole head: the one block (m, m + 1, 1)
            return [1]
        heads = self.table.counts(self.head_size, a0, a1 - 1)
        local = math.prod(range(m - a1 + parts + 1, m - a0 + parts))
        sums, acc = [], 0
        for a in range(a0, a1):
            acc += next(heads) * local
            sums.append(acc)
            if a < a1 - 1:
                local = local // (m - a + parts - 1) * (m - a)
        if sums[-1] != total:
            raise RuntimeError(f"SplitSampler(n={self.n}, m={self.m}): block {b} sums miss its total")
        return sums

    def _block_sums(self, b: int) -> list[int]:
        """Block b's local prefix sums, built on the first draw that lands
        in it and kept."""
        if self._sums[b] is None:
            self._sums[b] = self._local_sums(b)
        return self._sums[b]

    def _block_bounds(self, bits: int | None):
        """(shift, lows, highs): base b, the sum of W before block b, lies
        in [lows[b], highs[b]] * 2**shift, for b = 0 up to the block count,
        whose base is sum W.  Block b weighs P_b * acc_b with
        P_b = prod_{j<a0}(m-j) * prod_{a1-1<=j<a_max}(m-j+K-1); both
        products are run block by block on mantissas of ``bits`` bits,
        rounded down for the lows and up for the highs, so no full-width
        product is formed.  With ``bits`` None nothing is rounded: shift is
        0 and lows = highs are the exact bases."""
        m, k1 = self._m_work, self._tail_parts - 1
        cuts = [a1 - 1 for _, a1, _ in self._blocks]
        downs = [math.prod(range(m + k1 - d + 1, m + k1 - d0 + 1)) for d0, d in zip(cuts, cuts[1:])]
        sides = []
        for up in (False, True):
            pre = _running_products(self._ups, bits, up)
            suf = _running_products(downs[::-1], bits, up)[::-1]
            sides.append([
                (p * q * total, e + f)
                for (p, e), (q, f), (_, _, total) in zip(pre, suf, self._blocks)
            ])
        # the largest upper block weight keeps ``bits`` bits above the shift
        shift = 0 if bits is None else max(0, max(w.bit_length() + e for w, e in sides[1]) - bits)
        lows, highs = (
            list(itertools.accumulate((_scaled(w, e - shift, up) for w, e in side), initial=0))
            for up, side in zip((False, True), sides)
        )
        return shift, lows, highs

    def _exact_bounds(self):
        """``_block_bounds(None)``, built on first use and kept."""
        if self._exact is None:
            self._exact = self._block_bounds(None)
        return self._exact

    def _head_sum(self, ctx: SamplerContext) -> int:
        """A head sum a drawn with probability W(a) / sum W: a block by its
        total, then a by its local weight in the block, placed among the
        block's local prefix sums (built on its first draw).

        The block is drawn by rejection: u uniform below 2**bits, where
        bits = (sum W - 1).bit_length(), is kept iff u < sum W, which reads
        the bytes ``uniform_below(sum W)`` would.  The bounds place u; only
        a u between the bounds of a base or of sum W is placed by the exact
        bases."""
        while True:
            u = ctx.uniform_below(self._span)
            b = _locate(self._bounds, u)
            if b is None:
                b = _locate(self._exact_bounds(), u)
            if b < len(self._blocks):
                break
        sums = self._block_sums(b)
        return self._blocks[b][0] + bisect.bisect_right(sums, ctx.uniform_below(sums[-1]))

    def sample(self, ctx: SamplerContext) -> np.ndarray:
        """One exactly uniform inversion sequence, as an int64 array."""
        c = self.head_size
        mw = self._m_work
        head_ctx = ctx.with_table(self.table)
        # a reused tail keeps a draw's other arrays in allocator-held memory
        out = _scratch_array("parts", self._tail_parts, np.int64)[: self._tail_parts]
        for _ in range(MAX_RESTARTS + 1):
            a = self._head_sum(ctx)
            head = sample_inversion_sequence(c, a, head_ctx)
            tail = sample_composition(self._tail_parts, mw - a, ctx, out) if c < self.n else out
            # part i (0-based) is bounded by c + i, so only the parts before
            # index max(tail) - c can exceed their bounds; a whole head has none
            k = min(int(tail.max(initial=c)) - c, len(tail))
            if k <= 0 or np.all(tail[:k] <= np.arange(c, c + k)):
                x = np.concatenate([np.asarray(head, dtype=np.int64), tail])
                if self.reflected:
                    x = np.arange(self.n, dtype=np.int64) - x
                return x
            self.restarts += 1
        raise ValueError(
            f"SplitSampler(n={self.n}, m={self.m}) rejected {MAX_RESTARTS + 1} "
            f"proposals in a row with head_size={c}; use a larger head"
        )
