import bisect
import gc
import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from invperm import counting
from invperm.counting import build_table, max_inversions, table_bytes
from invperm.coupling import enumerate_inversion_sequences
from invperm.experiments import ExperimentConfig, run_component_census
from invperm.limits import alpha_for_mu
from invperm.permutations import decomposition_points
from invperm import sampling
from invperm.rng import SamplerContext
from invperm.sampling import (
    SplitSampler,
    default_head_size,
    reflect_sequence,
    sample_composition,
    sample_inversion_sequence,
)

TABLE = build_table(12)
PVAL_FLOOR = 1e-4


def ctx(seed, *stream):
    return SamplerContext(TABLE, seed, stream)


def test_draw_preimage_counts_are_exact():
    """Every u below s(level, budget) maps to coordinate j for exactly
    s(level-1, budget-j) values of u; chaining these over the recursion
    puts probability exactly 1/s(n,m) on every outcome."""
    for level in range(2, 7):
        for budget in range(max_inversions(level) + 1):
            total = TABLE.count(level, budget)
            hits = Counter(
                TABLE.unrank(level, budget, u)[level - 1] for u in range(total)
            )
            for j in range(min(level - 1, budget) + 1):
                assert hits[j] == TABLE.count(level - 1, budget - j)


def _reference_last_coordinate(table, level, budget, u):
    """The bucket scan through ``count``, from j = 0."""
    for j in range(min(level - 1, budget) + 1):
        w = table.count(level - 1, budget - j)
        if u < w:
            return j, u
        u -= w
    raise AssertionError("draw exceeded row total")


def _reference_unrank(table, n, m, u):
    """The whole walk, each level through ``_reference_last_coordinate``."""
    x = [0] * n
    budget = m
    for level in range(n, 0, -1):
        if budget == 0:
            break
        j, u = _reference_last_coordinate(table, level, budget, u)
        x[level - 1] = j
        budget -= j
    return x


def test_draw_matches_count_based_scan_on_capped_table():
    """On a capped table each level's scan starts at j_min =
    budget - C(level-1, 2) when that is positive, and the whole walk must
    still agree with the plain scan chained level by level."""
    table = build_table(60, m_cap=400)
    rng = np.random.default_rng(8)
    skipped = 0
    for level in (2, 3, 5, 9, 17, 28, 29, 40, 60):
        top = min(max_inversions(level), 400)
        below = max_inversions(level - 1)
        for budget in sorted({0, 1, level, below, below + 1, top, 200, 400}):
            if budget > top:
                continue
            total = table.count(level, budget)
            us = {0, total - 1, total // 2}
            us.update(int(v) for v in rng.integers(0, min(total, 2**62), 5))
            skipped += budget > below
            for u in us:
                assert table.unrank(level, budget, u) == _reference_unrank(
                    table, level, budget, u
                )
    assert skipped >= 5


def test_unrank_rejects_ranks_and_sizes_outside_the_table():
    """A rank outside [0, s(n, m)) and a budget past a capped table's cap
    raise instead of wrapping to a negative row index."""
    for n, m in [(1, 0), (6, 7), (12, 0), (12, 66)]:
        total = TABLE.count(n, m)
        for u in (-1, total):
            with pytest.raises(ValueError):
                TABLE.unrank(n, m, u)
    with pytest.raises(ValueError):
        TABLE.unrank(6, 16, 0)  # past C(6, 2): s(6, 16) = 0
    with pytest.raises(ValueError):
        TABLE.unrank(13, 0, 0)  # past max_n
    capped = build_table(60, m_cap=400)
    assert sum(capped.unrank(60, 400, capped.count(60, 400) - 1)) == 400
    with pytest.raises(ValueError):
        capped.unrank(60, 401, 0)


class _FixedDraw:
    """Context stand-in whose every uniform draw returns ``u``."""

    def __init__(self, table, u):
        self.table = table
        self.u = u
        self.bounds = []

    def uniform_below(self, bound):
        self.bounds.append(bound)
        return self.u


@pytest.mark.parametrize("n", range(1, 8))
def test_walk_is_a_bijection_from_one_draw(n):
    """For every m, direct and reflected, the walk asks for one draw below
    s(n, m) and maps the u < s(n, m) onto the sequences with sum m, each
    hit exactly once."""
    for m in range(max_inversions(n) + 1):
        total = TABLE.count(n, m)
        seen = []
        for u in range(total):
            draw = _FixedDraw(TABLE, u)
            seen.append(tuple(sample_inversion_sequence(n, m, draw)))
            assert draw.bounds == [total]
        assert len(set(seen)) == total
        assert set(seen) == set(enumerate_inversion_sequences(n, m))


def test_one_uniform_draw_per_walk(monkeypatch):
    """A walker draw makes one ``uniform_below`` call; a split-sampler
    draw makes three per proposal (block, head sum in it, head walk), and
    one more per block draw u >= sum W, which the exact bases reject."""
    calls = []
    uniform_below = SamplerContext.uniform_below

    def spy(self, bound):
        value = uniform_below(self, bound)
        calls.append((bound, value))
        return value

    monkeypatch.setattr(SamplerContext, "uniform_below", spy)
    for n, m in [(12, 0), (12, 20), (12, 50), (12, 66)]:
        calls.clear()
        sample_inversion_sequence(n, m, ctx(5, n, m))
        assert len(calls) == 1
    exact = SPLIT60._block_bounds(None)
    accepted = 0
    for t in range(20):
        calls.clear()
        before = SPLIT60.restarts
        SPLIT60.sample(SamplerContext(None, 6, (t,)))
        proposals = 1 + SPLIT60.restarts - before
        accepted += proposals == 1
        rejected = sum(
            bound == SPLIT60._span and sampling._locate(exact, u) == len(SPLIT60._blocks)
            for bound, u in calls
        )
        assert len(calls) == 3 * proposals + rejected
    assert accepted


def test_exhaustive_support_small():
    c = Counter(
        tuple(sample_inversion_sequence(3, 2, ctx(1, t))) for t in range(4000)
    )
    assert set(c) == {(0, 1, 1), (0, 0, 2)}
    assert stats.binomtest(c[(0, 1, 1)], 4000, 0.5).pvalue > PVAL_FLOOR


def test_zero_budget_and_full_budget():
    assert sample_inversion_sequence(6, 0, ctx(2)) == [0] * 6
    assert sample_inversion_sequence(6, 15, ctx(2)) == [0, 1, 2, 3, 4, 5]


def test_uniformity_x42_within_4_sigma():
    draws = 100_000
    c = Counter(
        tuple(sample_inversion_sequence(4, 2, ctx(3, t))) for t in range(draws)
    )
    space = enumerate_inversion_sequences(4, 2)
    assert set(c) == set(space)
    expect = draws / 5
    sigma = math.sqrt(draws * (1 / 5) * (4 / 5))
    for cell in space:
        assert abs(c[cell] - expect) <= 4 * sigma


def test_reflected_budget_uniform():
    # m = 4 > C(4,2)/2; sampled through the mirror map
    draws = 30_000
    c = Counter(
        tuple(sample_inversion_sequence(4, 4, ctx(4, t))) for t in range(draws)
    )
    space = enumerate_inversion_sequences(4, 4)
    assert set(c) == set(space)
    chisq = sum((c[s] - draws / 5) ** 2 / (draws / 5) for s in space)
    assert stats.chi2.sf(chisq, df=4) > PVAL_FLOOR


def test_errors():
    with pytest.raises(ValueError):
        sample_inversion_sequence(4, 7, ctx(0))
    with pytest.raises(ValueError):
        sample_inversion_sequence(0, 0, ctx(0))
    with pytest.raises(ValueError):
        sample_inversion_sequence(13, 2, ctx(0))  # table too small
    with pytest.raises(ValueError):
        SamplerContext(None, 0).uniform_below(0)


def test_reflect_sequence_involution():
    x = [0, 1, 0, 3, 2]
    assert reflect_sequence(reflect_sequence(x)) == x
    assert sum(reflect_sequence(x)) == max_inversions(5) - sum(x)


def test_determinism_same_stream():
    a = [sample_inversion_sequence(8, 9, ctx(7, 5)) for _ in range(5)]
    b = [sample_inversion_sequence(8, 9, ctx(7, 5)) for _ in range(5)]
    assert a == b
    assert a != [sample_inversion_sequence(8, 9, ctx(7, 6)) for _ in range(5)]


def test_composition_two_parts():
    c = Counter(tuple(sample_composition(2, 1, ctx(8, t))) for t in range(3000))
    assert set(c) == {(0, 1), (1, 0)}
    assert stats.binomtest(c[(0, 1)], 3000, 0.5).pvalue > PVAL_FLOOR


def test_composition_single_part():
    assert sample_composition(1, 7, ctx(9)).tolist() == [7]


def test_composition_three_parts_equiprobable():
    draws = 30_000
    c = Counter(tuple(sample_composition(3, 2, ctx(10, t))) for t in range(draws))
    assert len(c) == 6
    expect = draws / 6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for v in c.values():
        assert abs(v - expect) <= 4 * sigma


def test_composition_invariants_and_errors():
    y = sample_composition(50, 200, ctx(11))
    assert y.sum() == 200 and (y >= 0).all() and len(y) == 50
    with pytest.raises(ValueError):
        sample_composition(0, 3, ctx(11))
    with pytest.raises(ValueError):
        sample_composition(3, -1, ctx(11))


class _Unscripted(Exception):
    """A round of draws the script does not hold: args are (high, size)."""


class _ScriptedGenerator:
    """Stands in for the numpy generator: replays scripted rounds of
    ``integers`` draws and stops at the first round not in the script."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.calls = 0

    def integers(self, low, high, size):
        assert low == 0
        if self.calls == len(self.rounds):
            raise _Unscripted(int(high), int(size))
        draw = self.rounds[self.calls]
        self.calls += 1
        assert len(draw) == size
        return np.array(draw, dtype=np.int64)


def _exact_composition_law(parts, total):
    """The exact law of ``sample_composition(parts, total)``, by running it
    on every script of draws.  A round that marks no new slot leaves the
    mask as it was and is drawn again, so each round is enumerated over the
    draws that mark something, with probability conditioned on that."""
    law = Counter()
    pending = [((), Fraction(1))]
    while pending:
        rounds, prob = pending.pop()
        ctx = SamplerContext(None, 0, _gen=_ScriptedGenerator(rounds))
        try:
            out = sample_composition(parts, total, ctx)
        except _Unscripted as need:
            high, size = need.args
            marked = set(itertools.chain.from_iterable(rounds))
            moves = Fraction(1) - Fraction(len(marked), high) ** size
            each = prob / high**size / moves
            for draw in itertools.product(range(high), repeat=size):
                if not set(draw) <= marked:
                    pending.append((rounds + (draw,), each))
            continue
        law[tuple(out.tolist())] += prob
    return law


@pytest.mark.parametrize(
    "parts,total",
    # slots = total+parts-1 and bars = parts-1: bars < slots/2, bars = slots/2,
    # bars > slots/2 (the stars are drawn), a single part, and total = 0
    [(3, 3), (2, 4), (4, 3), (5, 1), (4, 2), (1, 5), (4, 0)],
)
def test_composition_bitmap_law_is_exactly_uniform(parts, total):
    law = _exact_composition_law(parts, total)
    assert set(law) == set(_compositions(total, parts))
    assert set(law.values()) == {Fraction(1, comb(total + parts - 1, parts - 1))}


def test_composition_draws_the_fewer_of_bars_and_stars():
    """Near-full bar sets are drawn as their few stars: one star is one
    draw, and total = 0 draws nothing."""
    one_star = SamplerContext(None, 0, _gen=_ScriptedGenerator([(2,)]))
    assert sample_composition(5, 1, one_star).tolist() == [0, 0, 1, 0, 0]
    no_star = SamplerContext(None, 0, _gen=_ScriptedGenerator([]))
    assert sample_composition(4, 0, no_star).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "parts,total",
    # bars drawn (parts - 1 < total), stars drawn and complemented,
    # total = 0 (nothing drawn, all complemented) and a single part
    [(40, 200), (200, 40), (5, 0), (1, 9), (1, 0)],
)
def test_composition_reused_mask_gives_the_fresh_masks_draw(parts, total):
    """Through the thread's scratch mask, grown longer than the slots by an
    earlier draw, and into a given output array, the composition and the
    stream after it are those of a fresh scratch, and the scratch is all
    False again."""
    out = np.full(parts, -1, dtype=np.int64)
    for t in range(10):
        fresh, reused = ctx(30, t), ctx(30, t)
        vars(sampling._scratch).clear()
        y = sample_composition(parts, total, fresh)
        sample_composition(parts + 3, total + 4, ctx(29))  # the scratch outgrows the slots
        assert len(sampling._scratch.mask) > total + parts - 1
        assert sample_composition(parts, total, reused, out) is out
        assert out.tolist() == y.tolist()
        assert not sampling._scratch.mask.any()
        after = fresh.generator.bit_generator.random_raw()
        assert reused.generator.bit_generator.random_raw() == after


def test_composition_reused_mask_draws_nothing_when_nothing_is_missing():
    """total = 0 and a single part make no ``integers`` call, through a
    thread scratch longer than the slots, which stays all False."""
    sample_composition(5, 4, ctx(31))  # 8 slots
    for parts, total in [(4, 0), (1, 5)]:
        nothing = SamplerContext(None, 0, _gen=_ScriptedGenerator([]))
        assert sample_composition(parts, total, nothing).sum() == total
        assert len(sampling._scratch.mask) >= 8
        assert not sampling._scratch.mask.any()


def test_composition_checks_size_before_allocating(monkeypatch):
    monkeypatch.setattr(sampling, "MAX_COMPOSITION_SLOTS", 10)
    assert sample_composition(5, 6, ctx(11)).sum() == 6  # 10 slots
    with pytest.raises(ValueError, match="total=7 into parts=5"):
        sample_composition(5, 7, ctx(11))


def test_composition_coordinate_marginal_geometric():
    """A fixed coordinate of a uniform composition is near Geometric(1-q),
    q = alpha/(alpha+1), when total/parts = alpha is large."""
    parts, total = 10_000, 100_000
    alpha = total / parts
    q = alpha / (alpha + 1)
    draws = 10  # 10 compositions x 10k coordinates; coordinates are weakly dependent
    values = np.concatenate(
        [sample_composition(parts, total, ctx(12, t)) for t in range(draws)]
    )
    # bin the support: 0..14, 15+
    edges = list(range(16))
    observed = np.bincount(np.minimum(values, 15), minlength=16)
    pmf = [(1 - q) * q**d for d in range(15)] + [q**15]
    expected = np.array(pmf) * len(values)
    chisq = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chisq, df=15) > PVAL_FLOOR


def test_split_sampler_pair_counting_identity():
    """The split proposal's pair space contains exactly s(n, m) valid
    pairs: (head with sum a) x (composition of m-a) with tail bounds."""
    n, m, c = 6, 5, 3
    parts = n - c
    total_pairs = 0
    valid_pairs = 0
    for a in range(min(max_inversions(c), m) + 1):
        heads = len(enumerate_inversion_sequences(c, a))
        assert heads == TABLE.count(c, a)
        rest = m - a
        total_pairs += heads * comb(rest + parts - 1, parts - 1)
        for comp in _compositions(rest, parts):
            if all(comp[i] <= c + i for i in range(parts)):
                valid_pairs += heads
    assert valid_pairs == TABLE.count(n, m)
    assert total_pairs >= TABLE.count(n, m)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("n,m,head", [(5, 4, 2), (6, 5, 3), (6, 13, 3)])
def test_split_sampler_uniform_on_small_spaces(n, m, head):
    sampler = SplitSampler(n, m, head_size=head)
    space = enumerate_inversion_sequences(n, m)
    draws = 20_000
    c = Counter(
        tuple(sampler.sample(SamplerContext(None, 13, (n, m, t))).tolist())
        for t in range(draws)
    )
    assert set(c) == set(space)
    expect = draws / len(space)
    chisq = sum((c[s] - expect) ** 2 / expect for s in space)
    assert stats.chi2.sf(chisq, df=len(space) - 1) > PVAL_FLOOR


def _product_form_cumsums(sampler):
    """The head-sum weights as a product of two full factor chains,
    W(a) = s(c, a) * prod_{a <= j < a_max}(m-j+K-1) * prod_{j < a}(m-j)."""
    c, m, parts = sampler.head_size, sampler._m_work, sampler._tail_parts
    a_max = min(max_inversions(c), m)
    suffix = [1] * (a_max + 1)
    for a in range(a_max - 1, -1, -1):
        suffix[a] = suffix[a + 1] * (m - a + parts - 1)
    cums, acc, prefix = [], 0, 1
    for a in range(a_max + 1):
        acc += sampler.table.count(c, a) * suffix[a] * prefix
        cums.append(acc)
        prefix *= m - a
    return cums


class _Scripted:
    """A context whose ``uniform_below`` returns the given values in turn,
    each checked to lie below its bound, and records those bounds."""

    def __init__(self, *values):
        self.values = list(values)
        self.bounds = []

    def uniform_below(self, bound):
        value = self.values.pop(0)
        assert 0 <= value < bound
        self.bounds.append(bound)
        return value


def _block(sampler, b):
    """Block b's first head sum and its local prefix sums, read through the
    lazy accessor (which builds them on first use)."""
    return sampler._blocks[b][0], sampler._block_sums(b)


def _check_two_stage_head_sum(sampler, every_u=False):
    """The two-stage draw has the law W(a) / sum W, W from the product form.

    Data: the exact bases (``_block_bounds(None)``, no rounding) tile
    0..a_max in order and, with T_b the block's share of sum W and acc_b
    its local total, T_b * local(a) = W(a) * acc_b for every a in block b,
    so (T_b / sum W) * (local(a) / acc_b) = W(a) / sum W.  Lookup: each
    block draw is u below 2**bits, bits = (sum W - 1).bit_length(); u - 1,
    u and u + 1 at every block base (every u when ``every_u``) reach the
    block whose range of W holds u, a u in [sum W, 2**bits) is rejected
    and the next u drawn, and v at 0, at acc_b - 1 and at each local
    prefix sum and one below it reach the a whose local prefix sums hold
    v, all drawn below the bounds the law needs."""
    cums = _product_form_cumsums(sampler)
    weights = [hi - lo for lo, hi in zip([0, *cums], cums)]
    shift, bases, highs = sampler._block_bounds(None)
    assert shift == 0 and highs == bases
    *bases, total = bases
    assert total == cums[-1] and bases[0] == 0
    span = 1 << (total - 1).bit_length()
    assert sampler._span == span
    ends = [*bases[1:], total]
    a = 0
    for b, (base, end) in enumerate(zip(bases, ends)):
        a0, sums = _block(sampler, b)
        assert a0 == a and len(sums) >= 1
        for local in (hi - lo for lo, hi in zip([0, *sums], sums)):
            assert (end - base) * local == weights[a] * sums[-1]
            a += 1
    assert a == len(cums)

    def block_of(u):
        return sum(base <= u for base in bases) - 1

    us = range(total) if every_u else {
        u for base in [*bases, total] for u in (base - 1, base, base + 1)
        if 0 <= u < total
    }
    for u in us:
        a0, sums = _block(sampler, block_of(u))
        draw = _Scripted(u, 0)
        assert sampler._head_sum(draw) == a0 and draw.bounds == [span, sums[-1]]
    for rejected in {u for u in (total, total + 1, span - 1) if total <= u < span}:
        for u in {0, total - 1}:
            a0, sums = _block(sampler, block_of(u))
            draw = _Scripted(rejected, u, 0)
            assert sampler._head_sum(draw) == a0 and draw.bounds == [span, span, sums[-1]]
    for b, base in enumerate(bases):
        a0, sums = _block(sampler, b)
        vs = {0, sums[-1] - 1} | {s + d for s in sums[:-1] for d in (-1, 0)}
        for v in vs:
            assert sampler._head_sum(_Scripted(base, v)) == a0 + bisect.bisect_right(sums, v)


HEAD_SUM_CASES = [
    (5, 4, 2),
    (6, 13, 3),  # reflected
    (6, 15, 3),  # reflected to budget 0
    (12, 0, None),  # a_max = 0
    (60, 150, None),
    (50, 1100, None),  # reflected
    (300, 44_000, None),  # reflected
    (20_000, 123_456, None),
    (30, 100, 20),  # head sums up to the whole budget
]
# n = 10^5, mu = -1, 0, 1 with the default heads (51, 56, 60), and mu = 0
# with a longer head (66), with their block counts
CENSUS_HEAD_SUM_CASES = [
    (704_118, None, 36),
    (764_911, None, 39),
    (764_911, 66, 46),
    (825_704, None, 42),
]


@pytest.mark.parametrize("n,m,head", HEAD_SUM_CASES)
def test_weight_cumsums_match_product_form(n, m, head):
    """The exact blocks give each head sum its product-form weight's share
    of sum W, and the lookup reaches it: every u when sum W is small,
    otherwise u - 1, u and u + 1 at every block base."""
    sampler = SplitSampler(n, m, head_size=head)
    _check_two_stage_head_sum(sampler, every_u=sampler._block_bounds(None)[1][-1] <= 20_000)


def test_head_sum_exact_around_every_prefix_sum_at_census_size():
    """At the census points, block factors of about 30 to 41 kbit cancel
    exactly from the two-stage law, and u - 1, u and u + 1 at every block
    base reach the right block."""
    for m, head, blocks in CENSUS_HEAD_SUM_CASES:
        sampler = SplitSampler(100_000, m, head_size=head)
        assert len(sampler._blocks) == blocks
        _check_two_stage_head_sum(sampler)


@pytest.mark.parametrize(
    "n,m,head",
    [
        *HEAD_SUM_CASES,
        *((100_000, m, head) for m, head, _ in CENSUS_HEAD_SUM_CASES),
        (10, 20, None),  # a whole head
        (1, 0, None),  # a whole head with a_max = 0
    ],
)
def test_block_totals_and_lazy_prefix_sums_match_the_local_weights(n, m, head):
    """Each block's Horner total is sum s(c, a) * L(a) over its head sums,
    L(a) = prod_{a0<=j<a}(m-j) * prod_{a<=j<a1-1}(m-j+K-1) formed here by
    ``math.prod``; its step of P's first product is prod_{a0<=j<a1}(m-j);
    no block's prefix sums exist after the build, and each, built on first
    use and then kept, is the running sum of those local weights.  A whole
    head is the one block (m, m + 1, 1) with prefix sums [1]."""
    sampler = SplitSampler(n, m, head_size=head)
    c, mw, parts = sampler.head_size, sampler._m_work, sampler._tail_parts
    blocks = sampler._blocks
    assert sampler._sums == [None] * len(blocks)
    if parts == 0:
        assert blocks == [(mw, mw + 1, 1)] and sampler._ups == []
        assert sampler._block_sums(0) == [1]
        return
    assert [a0 for a0, _, _ in blocks] == [0, *(a1 for _, a1, _ in blocks[:-1])]
    assert blocks[-1][1] == min(max_inversions(c), mw) + 1
    assert sampler._ups == [math.prod(range(mw - a1 + 1, mw - a0 + 1)) for a0, a1, _ in blocks[:-1]]
    for b, (a0, a1, total) in enumerate(blocks):
        weights = [
            sampler.table.count(c, a)
            * math.prod(mw - j for j in range(a0, a))
            * math.prod(mw - j + parts - 1 for j in range(a, a1 - 1))
            for a in range(a0, a1)
        ]
        assert total == sum(weights)
        sums = sampler._block_sums(b)
        assert sums == list(itertools.accumulate(weights))
        assert sampler._sums[b] is sums and sampler._block_sums(b) is sums


def test_a_block_whose_sums_miss_its_total_raises_rather_than_draws():
    """A block total off by one (injected after the build) makes the first
    draw that lands in that block raise once its prefix sums are built,
    before it draws the head sum inside the block, and keeps no sums."""
    sampler = SplitSampler(60, 150)
    bases = sampler._block_bounds(None)[1]
    b = 1
    a0, a1, total = sampler._blocks[b]
    sampler._blocks[b] = (a0, a1, total + 1)
    draw = _Scripted(bases[b], 0)
    with pytest.raises(RuntimeError, match="block 1"):
        sampler._head_sum(draw)
    assert draw.bounds == [sampler._span] and draw.values == [0]
    assert sampler._sums[b] is None
    sampler._blocks[b] = (a0, a1, total)
    assert sampler._head_sum(_Scripted(bases[b], 0)) == a0


def test_census_builds_only_the_prefix_sums_its_draws_land_in(monkeypatch):
    """300 census trials, 100 at each of the three census points: each
    sampler starts with no block's prefix sums built, and a block's sums
    are built exactly when a draw first lands in it, and only then."""
    fresh, built, landed = [], [], []
    init, local_sums, head_sum = (
        SplitSampler.__init__, SplitSampler._local_sums, SplitSampler._head_sum
    )

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fresh.append(self._sums == [None] * len(self._blocks))

    def spy_local_sums(self, b):
        built.append((self, b))
        return local_sums(self, b)

    def spy_head_sum(self, ctx):
        a = head_sum(self, ctx)
        landed.append((self, next(b for b, (a0, a1, _) in enumerate(self._blocks) if a0 <= a < a1)))
        return a

    monkeypatch.setattr(SplitSampler, "__init__", spy_init)
    monkeypatch.setattr(SplitSampler, "_local_sums", spy_local_sums)
    monkeypatch.setattr(SplitSampler, "_head_sum", spy_head_sum)
    cfg = ExperimentConfig(
        n=100_000, mode="components", trials=100, seed=41, mu_list=[-1.0, 0.0, 1.0]
    )
    report = run_component_census(cfg)
    assert [sum(point.histogram.values()) for point in report.points] == [100] * 3
    assert fresh == [True] * 3
    keys = [(id(sampler), b) for sampler, b in built]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {(id(sampler), b) for sampler, b in landed}
    assert len(landed) >= 300 and len(built) < len(landed)


@pytest.mark.parametrize(
    "n,m,head",
    [
        *HEAD_SUM_CASES,
        *((100_000, m, head) for m, head, _ in CENSUS_HEAD_SUM_CASES),
        (10, 20, None),  # a whole head
    ],
)
def test_block_bounds_bracket_the_exact_bases(n, m, head):
    """The rounded bounds a sampler keeps hold every exact block base and
    sum W between them, give the bit length of sum W - 1, are short, and
    are the exact values when those are short; a whole head is one block
    of total 1."""
    sampler = SplitSampler(n, m, head_size=head)
    shift, lows, highs = sampler._bounds
    _, bases, _ = sampler._block_bounds(None)
    assert len(lows) == len(highs) == len(bases) == len(sampler._blocks) + 1
    for lo, base, hi in zip(lows, bases, highs):
        assert lo << shift <= base <= hi << shift
    total = bases[-1]
    assert sampler._span == 1 << (total - 1).bit_length()
    if total.bit_length() <= sampling.BOUND_BITS:
        assert (shift, lows, highs) == (0, bases, bases)
    else:
        # the largest block weight has BOUND_BITS bits above the shift
        assert highs[-1].bit_length() <= sampling.BOUND_BITS + len(lows).bit_length()
    if head is None and n == 10:
        assert sampler._blocks == [(m, m + 1, 1)] and sampler._block_sums(0) == [1]
        assert total == 1 and sampler._span == 1


@pytest.mark.parametrize(
    "n,m,head", [(60, 150, None), (20_000, 123_456, None), (100_000, 764_911, None)]
)
def test_u_between_the_bounds_is_placed_by_the_exact_bases(monkeypatch, n, m, head):
    """A block draw u that the rounded bounds cannot place (it lies between
    the bounds of a base or of sum W) is placed by the exact bases, which
    are built once and kept: the exact block, or a rejection when
    u >= sum W, then the next u."""
    sampler = SplitSampler(n, m, head_size=head)
    shift, lows, highs = sampler._bounds
    assert shift > 0 and sampler._exact is None
    exact = sampler._block_bounds(None)
    bases = exact[1]
    total = bases[-1]
    span = sampler._span
    runs = []
    block_bounds = sampler._block_bounds

    def spy(bits):
        runs.append(bits)
        return block_bounds(bits)

    monkeypatch.setattr(sampler, "_block_bounds", spy)
    placed = 0
    for lo, base, hi in zip(lows[1:], bases[1:], highs[1:]):
        assert lo < hi
        start, stop = lo << shift, min(hi << shift, span)
        for u in {u for u in (start, base - 1, base, stop - 1) if start <= u < stop}:
            assert sampling._locate(sampler._bounds, u) is None
            b = sampling._locate(exact, u)
            assert b == sum(x <= u for x in bases) - 1
            if u < total:
                draw = _Scripted(u, 0)
            else:
                draw = _Scripted(u, 0, 0)
                assert b == len(sampler._blocks)
                b = 0
            assert sampler._head_sum(draw) == sampler._blocks[b][0]
            assert draw.bounds == [span] * (1 + (u >= total)) + [sampler._block_sums(b)[-1]]
            placed += 1
    assert placed > 2 * len(lows) and runs == [None]
    assert sampler._exact == exact


def test_locate_decides_only_what_its_bounds_prove():
    """For block weights 5, 3 and 7 (bases 0, 5, 8 and sum 15), every
    nondecreasing bound tuple whose rounded bases and sum lie 0 or 1 unit of
    2**shift outside the floor and ceiling of the exact ones, shift 0..2,
    places each u below 16 as the exact bases do (3, the block count, for
    u >= 15), or returns None; the exact bases, shift 0, place every u."""
    bases = [0, 5, 8, 15]

    def exact(u):
        return sum(base <= u for base in bases) - 1

    undecided = 0
    for shift in range(3):
        unit = 1 << shift
        for d in itertools.product(range(2), repeat=6):
            lows = [0, *(base // unit - e for base, e in zip(bases[1:], d))]
            highs = [0, *(-(-base // unit) + e for base, e in zip(bases[1:], d[3:]))]
            if lows != sorted(lows) or highs != sorted(highs) or lows[1] < 0:
                continue
            for u in range(16):
                b = sampling._locate((shift, lows, highs), u)
                assert b in (None, exact(u))
                undecided += b is None
                if shift == 0 and not any(d):
                    assert b == exact(u)
    assert undecided


@pytest.mark.parametrize("bits", [1, 8])
def test_loose_bounds_give_the_same_draws(monkeypatch, bits):
    """With bounds of 1 or 8 bits, so loose that the exact bases place many
    block draws and may give the bit length of sum W - 1, every draw and
    the generator's next raw output are those of 128-bit bounds."""
    cases = [(60, 150, None), (300, 44_000, None), (30, 100, 20), (20_000, 123_456, None)]
    tight = [SplitSampler(n, m, head_size=head) for n, m, head in cases]
    monkeypatch.setattr(sampling, "BOUND_BITS", bits)
    loose = [SplitSampler(n, m, head_size=head) for n, m, head in cases]
    for pair in zip(tight, loose):
        for t in range(15):
            draws = []
            for sampler in pair:
                caller = SamplerContext(None, 47, (sampler.n, t))
                draws.append((sampler.sample(caller).tolist(), caller.generator.bit_generator.random_raw()))
            assert draws[0] == draws[1]
    assert all(sampler._exact is not None for sampler in loose)


def test_census_draws_never_need_the_exact_bases(monkeypatch):
    """300 census trials, 100 at each of the three census points, place
    every block draw by the rounded bounds: the exact bases are never
    built."""
    runs = []
    block_bounds = SplitSampler._block_bounds

    def spy(self, bits):
        runs.append(bits)
        return block_bounds(self, bits)

    monkeypatch.setattr(SplitSampler, "_block_bounds", spy)
    cfg = ExperimentConfig(
        n=100_000, mode="components", trials=100, seed=41, mu_list=[-1.0, 0.0, 1.0]
    )
    report = run_component_census(cfg)
    assert [sum(point.histogram.values()) for point in report.points] == [100] * 3
    assert runs == [sampling.BOUND_BITS] * 3


def test_head_sums_follow_the_exact_law_through_the_generator():
    """20 000 head sums at (10^5, 764 911), drawn through the real
    generator, against the exact law W(a) / sum W: a chi-squared test over
    runs of consecutive head sums pooled to an expected count of at least
    5 each, kept when its p-value is above PVAL_FLOOR (1e-4)."""
    sampler = SplitSampler(100_000, 764_911)
    cums = _product_form_cumsums(sampler)
    draws = 20_000
    caller = SamplerContext(None, 43, (764_911,))
    seen = Counter(sampler._head_sum(caller) for _ in range(draws))
    observed, expected = [], []
    held, count = 0, 0
    for a, (lo, hi) in enumerate(zip([0, *cums], cums)):
        held += (hi - lo) * draws / cums[-1]
        count += seen.pop(a, 0)
        if held >= 5:
            observed.append(count)
            expected.append(held)
            held, count = 0, 0
    observed[-1] += count
    expected[-1] += held
    assert not seen  # every head sum drawn is one of 0..a_max
    assert len(observed) >= 100
    chisq = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert stats.chi2.sf(chisq, df=len(observed) - 1) > PVAL_FLOOR


class _InterruptedGenerator:
    """A numpy generator whose first ``integers`` round marks one slot and
    whose second raises, as an interrupt in the middle of a tail draw."""

    def __init__(self, gen):
        self._gen = gen
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def integers(self, low, high, size):
        self.calls += 1
        if self.calls > 1:
            raise _Unscripted(high, size)
        return np.zeros(size, dtype=np.int64)


def test_split_sampler_draw_after_an_interrupted_one_is_a_fresh_samplers():
    """A draw that raises after marking the thread's scratch mask leaves it
    all False, so the sampler's next draws are a fresh sampler's."""
    sampler = SplitSampler(60, 150, head_size=20)
    interrupted = _InterruptedGenerator(ctx(34).generator)
    with pytest.raises(_Unscripted):
        sampler.sample(SamplerContext(None, 0, _gen=interrupted))
    assert interrupted.calls == 2
    assert not sampling._scratch.mask.any()
    fresh = SplitSampler(60, 150, head_size=20)
    for t in range(5):
        assert sampler.sample(ctx(35, t)).tolist() == fresh.sample(ctx(35, t)).tolist()


def test_split_sampler_draws_from_threads_at_once():
    """Three threads drawing from one fresh sampler at once, so racing on
    its first block prefix sums, each get, for every (seed, stream), the
    draw of a sequential call to another sampler, leave their own scratch
    mask all False, and leave built the prefix sums that sampler built."""
    reference = SplitSampler(20_000, 120_000)
    streams = {k: [(37 + k, (k, t)) for t in range(12)] for k in range(3)}
    expected = {
        k: [reference.sample(SamplerContext(None, seed, s)).tolist() for seed, s in keys]
        for k, keys in streams.items()
    }
    sampler = SplitSampler(20_000, 120_000)
    assert sampler._sums == [None] * len(sampler._blocks)  # threads race on the first builds
    got, clean = {}, {}
    start = threading.Barrier(len(streams))

    def draw(k):
        start.wait()
        got[k] = [sampler.sample(SamplerContext(None, seed, s)).tolist() for seed, s in streams[k]]
        clean[k] = not sampling._scratch.mask.any()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside draws, not between them
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    assert clean == dict.fromkeys(streams, True)
    assert sampler._sums == reference._sums


def _traced_growth(build):
    """Traced bytes still held after ``build()`` made a sampler and drew
    from it once, with the draw dropped; and the sampler."""
    before = tracemalloc.get_traced_memory()[0]
    sampler = build()
    sampler.sample(SamplerContext(None, 38))
    return tracemalloc.get_traced_memory()[0] - before, sampler


def test_a_second_live_split_sampler_holds_no_draw_scratch(monkeypatch):
    """Drawn after a first sampler, a second live SplitSampler(10^5, m)
    grows traced memory by its tables alone: the bar mask and parts array
    (about 1.7 MB) are the thread's, grown once by the first sampler.  A
    fresh thread starts with no scratch.  The second builds its own head
    table, as the first did, so the two differ by the scratch alone."""
    n, m = 100_000, 764_911
    # a head table that a sampler alive elsewhere shares would shrink "first"
    monkeypatch.setattr(sampling, "_head_tables", weakref.WeakValueDictionary())
    SplitSampler(2_000, 9_000).sample(SamplerContext(None, 38))  # warm numpy up
    growth = {}

    def fresh_thread():
        tracemalloc.start()
        try:
            growth["first"], growth["sampler"] = _traced_growth(lambda: SplitSampler(n, m))
            monkeypatch.setattr(sampling, "_head_table", build_table)
            growth["second"], _ = _traced_growth(lambda: SplitSampler(n, m))
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=fresh_thread)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    parts = n - growth["sampler"].head_size
    scratch = (m + parts - 1) + 8 * parts
    assert growth["first"] - growth["second"] > 0.95 * scratch
    assert growth["second"] < growth["first"] - scratch + 64 * 1024


def test_zero_slot_draws_in_a_fresh_thread():
    """A composition of no slots, and a SplitSampler whose tail has none,
    build and draw in a thread that holds no scratch yet."""
    got = {}

    def fresh_thread():
        got["composition"] = sample_composition(1, 0, ctx(12)).tolist()
        got["sequences"] = [SplitSampler(2, m).sample(ctx(12)).tolist() for m in (0, 1)]

    thread = threading.Thread(target=fresh_thread)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert got == {"composition": [0], "sequences": [[0, 0], [0, 1]]}


def test_oversized_composition_raises_before_the_scratch_grows(monkeypatch):
    """A composition above MAX_COMPOSITION_SLOTS is refused before the
    thread's scratch mask is allocated or grown."""
    monkeypatch.setattr(sampling, "MAX_COMPOSITION_SLOTS", 10)
    held = {}

    def fresh_thread():
        with pytest.raises(ValueError, match="above 10"):
            sample_composition(5, 7, ctx(11))
        held["before"] = dict(vars(sampling._scratch))
        sample_composition(5, 6, ctx(11))
        held["after"] = len(sampling._scratch.mask)

    thread = threading.Thread(target=fresh_thread)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert held == {"before": {}, "after": 10}


def test_split_draws_pinned():
    """Draws, and the generator's next raw output after each, at the three
    n = 10^5 benchmark points (mu = -1, 0, 1), a reflected point and a head
    that reaches the whole budget: any change to the head-sum law, the
    draw order or the RNG use changes the digest."""
    digest = hashlib.sha256()
    for n, m, head, draws in [
        (100_000, 704_118, None, 4),
        (100_000, 764_911, None, 4),
        (100_000, 825_704, None, 4),
        (300, 44_000, None, 20),  # reflected
        (30, 100, 20, 50),
    ]:
        sampler = SplitSampler(n, m, head_size=head)
        for t in range(draws):
            caller = SamplerContext(None, 23, (n, t))
            digest.update(sampler.sample(caller).tobytes())
            raw = int(caller.generator.bit_generator.random_raw())
            digest.update(raw.to_bytes(8, "little"))
    assert digest.hexdigest() == (
        "3dfc2e091e67b80ad6724d84a69f15fd484a0c9b14e626f2b8d536ccf0809999"
    )


def test_split_sampler_checks_bounds_only_above_the_head_size(monkeypatch):
    """A proposal is kept exactly when every tail part i (0-based) is at
    most c + i, the decision of a full comparison with arange(c, n); and
    both kept and rejected proposals had parts above c, so the check of
    those parts alone decided both ways."""
    sampler = SplitSampler(40, 300, head_size=20)
    c, n = sampler.head_size, sampler.n
    tails = []
    compose = sampling.sample_composition

    def spy(*args):
        tail = compose(*args)
        tails.append(tail.copy())  # the sampler reuses its tail array
        return tail

    monkeypatch.setattr(sampling, "sample_composition", spy)
    kept = []
    for t in range(2000):
        start = len(tails)
        x = sampler.sample(SamplerContext(None, 36, (t,)))
        # a draw rejects every proposal but its last, which it returns
        kept += [False] * (len(tails) - start - 1) + [True]
        assert x[c:].tolist() == tails[-1].tolist()
    assert sampler.restarts == len(tails) - 2000 > 1000
    bounds = np.arange(c, n)
    assert kept == [bool(np.all(tail <= bounds)) for tail in tails]
    above = [ok for ok, tail in zip(kept, tails) if (tail > c).any()]
    assert True in above and False in above


@pytest.mark.parametrize(
    "args",
    [(100.0, 50), (100, 50.5), (True, 0), (100, False), (100, 50, True), (100, 50, 20.0), ("9", 3)],
)
def test_split_sampler_rejects_non_integer_arguments(args):
    with pytest.raises(ValueError, match="must be integers"):
        SplitSampler(*args)


def test_split_sampler_takes_numpy_integers_as_ints():
    sampler = SplitSampler(np.int64(60), np.int64(150), head_size=np.int32(20))
    assert (type(sampler.n), type(sampler.m), sampler.head_size) == (int, int, 20)
    x = sampler.sample(SamplerContext(None, 33))
    assert x.tolist() == SplitSampler(60, 150, 20).sample(SamplerContext(None, 33)).tolist()


def test_split_sampler_checks_tail_slots_before_building(monkeypatch):
    """The reused tail mask is allocated at build, so a budget whose tail
    needs more than ``MAX_COMPOSITION_SLOTS`` slots is refused before the
    head table is taken, grown or built."""
    monkeypatch.setattr(sampling, "MAX_COMPOSITION_SLOTS", 200)
    SplitSampler(60, 150, head_size=20)  # 150 + 40 - 1 slots
    monkeypatch.setattr(sampling, "_head_table", None)
    with pytest.raises(ValueError, match="210 slots"):
        SplitSampler(60, 171, head_size=20)


def test_split_sampler_restart_cap(monkeypatch):
    """A draw that needs r restarts succeeds, on the same stream, under any
    cap of at least r, and raises under a cap below r."""
    sampler = SplitSampler(12, 30, head_size=1)
    caller = SamplerContext(None, 18, (0,))
    x = sampler.sample(caller)
    restarts = sampler.restarts
    assert restarts >= 2
    monkeypatch.setattr(sampling, "MAX_RESTARTS", restarts)
    again = SamplerContext(None, 18, (0,))
    assert sampler.sample(again).tolist() == x.tolist()
    after = caller.generator.bit_generator.random_raw(4)
    assert (again.generator.bit_generator.random_raw(4) == after).all()
    monkeypatch.setattr(sampling, "MAX_RESTARTS", restarts - 1)
    with pytest.raises(ValueError, match=r"n=12, m=30\).*head_size=1"):
        sampler.sample(SamplerContext(None, 18, (0,)))


def test_split_sampler_reflection_flag():
    sampler = SplitSampler(6, 13)
    assert sampler.reflected
    x = sampler.sample(SamplerContext(None, 14))
    assert x.sum() == 13


def test_split_sampler_matches_table_sampler_distribution():
    """Two independent exact mechanisms must agree: compare block-count
    distributions of the split sampler and the table walker."""
    n, m = 60, 150
    cap_table = build_table(n, m_cap=m)
    draws = 4000
    a = []
    b = []
    for t in range(draws):
        xs = sample_inversion_sequence(
            n, m, SamplerContext(cap_table, 15, (0, t))
        )
        a.append(len(decomposition_points(xs)))
        sampler_ctx = SamplerContext(None, 15, (1, t))
        b.append(len(decomposition_points(SPLIT60.sample(sampler_ctx))))
    kmax = max(max(a), max(b))
    ha = np.bincount(a, minlength=kmax + 1)
    hb = np.bincount(b, minlength=kmax + 1)
    keep = (ha + hb) >= 10
    chisq, pvalue = _two_sample_chisq(ha[keep], hb[keep])
    assert pvalue > PVAL_FLOOR


SPLIT60 = SplitSampler(60, 150)


def _two_sample_chisq(ha, hb):
    na, nb = ha.sum(), hb.sum()
    pooled = (ha + hb) / (na + nb)
    ea, eb = pooled * na, pooled * nb
    chisq = (((ha - ea) ** 2) / ea).sum() + (((hb - eb) ** 2) / eb).sum()
    return chisq, stats.chi2.sf(chisq, df=len(ha) - 1)


def test_split_sampler_head_walk_shares_the_callers_generator(monkeypatch):
    """The head walk draws from the caller's generator object, not from a
    replay of the caller's (seed, stream)."""
    from invperm import sampling

    seen = []
    walk = sampling.sample_inversion_sequence

    def spy(n, m, head_ctx):
        seen.append(head_ctx)
        return walk(n, m, head_ctx)

    monkeypatch.setattr(sampling, "sample_inversion_sequence", spy)
    caller = SamplerContext(None, 17, (3,))
    SPLIT60.sample(caller)
    assert seen
    for head_ctx in seen:
        assert head_ctx.generator is caller.generator
        assert head_ctx.table is SPLIT60.table


def test_split_sampler_large_n_invariants():
    n, m = 50_000, 300_000
    sampler = SplitSampler(n, m)
    x = sampler.sample(SamplerContext(None, 16))
    assert int(x.sum()) == m
    assert (x <= np.arange(n)).all() and (x >= 0).all()


def test_default_head_size_bounds():
    """The default head is the smallest c with q^c/(1-q) <= 1e-2, where
    q = alpha/(alpha+1) = m/(m+n), checked in integers as
    100 m^c (m+n) <= n (m+n)^c: it holds at c unless c sits on the n-1 cap,
    and fails at c-1 unless c sits on the floor, 16 or n if less."""
    def meets(n, m, c):
        return 100 * m**c * (m + n) <= n * (m + n) ** c

    grid = [(n, alpha_for_mu(n, mu)[1]) for n in (100, 10**3, 10**5, 10**6, 10**7)
            for mu in range(-3, 4)]
    for n, m in [*grid, (30, 200), (10, 3)]:  # the last two clamped to n
        c = default_head_size(n, m)
        assert min(16, n) <= c <= n
        assert c == n or meets(n, m, c), (n, m, c)
        assert c == min(16, n) or not meets(n, m, c - 1), (n, m, c)
    assert [default_head_size(10**5, m) for m in (704_118, 764_911, 825_704)] == [51, 56, 60]
    assert default_head_size(10, 3) == 10  # clamped to n: a whole head
    assert default_head_size(1000, 0) == 16


@pytest.mark.parametrize(
    "n,m,head",
    [
        (1, 0, None),
        (2, 1, None),
        (8, 9, None),
        (6, 13, None),  # reflected
        (50, 600, None),
        (100, 2475, None),
        (30, 300, None),  # reflected
        (12, 30, 50),  # an explicit head past n
    ],
)
def test_whole_head_draws_are_the_table_walkers(n, m, head):
    """Where the head reaches n, by default or by ``head_size >= n``, it is
    the whole sequence: the head-sum draw reads no bits, no tail is drawn or
    rejected, and each draw is the table walker's for the same seed and
    stream."""
    sampler = SplitSampler(n, m, head_size=head)
    assert sampler.head_size == n
    table = build_table(n, m_cap=min(m, max_inversions(n) - m))
    for t in range(5):
        x = sampler.sample(SamplerContext(None, 21, (t,)))
        assert x.dtype == np.int64
        assert x.tolist() == sample_inversion_sequence(n, m, SamplerContext(table, 21, (t,)))
    assert sampler.restarts == 0


def test_live_split_samplers_share_one_head_table(monkeypatch):
    """Two live samplers at different budgets, so different head sizes,
    hold one whole-row head table, at least as tall as the taller head;
    their draws are those of samplers that each build their own."""
    n = 100_000
    low, high = SplitSampler(n, 704_118), SplitSampler(n, 825_704)
    assert low.head_size < high.head_size
    assert low.table is high.table
    assert low.table.m_cap is None and low.table.max_n >= high.head_size
    monkeypatch.setattr(sampling, "_head_table", build_table)
    for shared in (low, high):
        own = SplitSampler(n, shared.m)
        assert own.table is not shared.table
        for t in range(2):
            assert shared.sample(ctx(40, t)).tolist() == own.sample(ctx(40, t)).tolist()


@pytest.mark.parametrize("m", [10**6, 5])
def test_shared_head_table_rows_equal_a_fresh_build(m):
    """Samplers built in turn at head sizes that rise, repeat and fall share
    one head table, whole-row (m reaches every C(c,2)) or capped at m (m is
    below every C(c,2)); after each build its rows are a fresh build's."""
    live = []
    for c in [6, 11, 11, 4, 17, 9, 24]:
        live.append(SplitSampler(3_000, m, head_size=c))
        table = live[0].table
        assert live[-1].table is table
        assert table.m_cap == (None if m == 10**6 else m)
        assert table.max_n >= max(s.head_size for s in live)
        assert table._rows == build_table(table.max_n, m_cap=table.m_cap)._rows


def test_head_table_is_gone_with_its_last_sampler():
    """The registry holds head tables weakly: a table lives while any
    sampler holds it, and the next sampler on its key builds afresh."""
    first = SplitSampler(2_000, 1_234, head_size=60)  # capped at 1234
    second = SplitSampler(2_000, 1_234, head_size=80)
    table = weakref.ref(first.table)
    assert second.table is table() and sampling._head_tables[1_234] is table()
    del first
    gc.collect()
    assert table() is second.table and table().max_n == 80
    del second
    gc.collect()
    assert table() is None and 1_234 not in sampling._head_tables
    assert SplitSampler(2_000, 1_234, head_size=60).table.max_n == 60


def test_refused_head_grow_leaves_the_shared_table(monkeypatch):
    """A sampler whose head would grow the shared table past
    ``MAX_TABLE_BYTES`` is refused before any row is filled, and the
    table keeps its rows for the samplers that hold it."""
    held = SplitSampler(2_000, 777, head_size=50)  # capped at 777
    rows = list(held.table._rows)
    monkeypatch.setattr(counting, "MAX_TABLE_BYTES", table_bytes(70, 777) - 1)
    monkeypatch.setattr(counting, "accumulate", None)
    with pytest.raises(ValueError, match="max_n=70, m_cap=777"):
        SplitSampler(2_000, 777, head_size=70)
    assert held.table.max_n == 50 and held.table._rows == rows
    assert sampling._head_tables[777] is held.table


def test_samplers_built_in_threads_at_once_share_equal_rows_and_draws(monkeypatch):
    """Threads that build samplers on one head-table key at once, at
    different head sizes, and draw from them while others still grow the
    table, get one table with a fresh build's rows, and the draws of
    samplers that each build their own."""
    n, m, heads = 3_000, 2_345, [70, 80, 90, 100]  # capped: 2345 < C(70,2)
    with monkeypatch.context() as own:
        own.setattr(sampling, "_head_table", build_table)
        expected = {
            c: [SplitSampler(n, m, head_size=c).sample(ctx(41, t)).tolist() for t in range(6)]
            for c in heads
        }
    samplers, got = {}, {}
    start = threading.Barrier(len(heads))

    def build(c):
        start.wait()
        samplers[c] = SplitSampler(n, m, head_size=c)
        got[c] = [samplers[c].sample(ctx(41, t)).tolist() for t in range(6)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside builds and grows
    try:
        threads = [threading.Thread(target=build, args=(c,)) for c in heads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    table = samplers[heads[0]].table
    assert all(s.table is table for s in samplers.values())
    assert table.max_n == max(heads)
    assert table._rows == build_table(max(heads), m_cap=m)._rows
    assert got == expected
