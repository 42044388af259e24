import pytest
from scipy import stats

from invperm.rng import SamplerContext


@pytest.mark.parametrize("num, den", [(0, 0), (1, 0), (0, -3), (-1, 2), (3, 2)])
def test_bernoulli_fraction_rejects_bad_arguments(num, den):
    with pytest.raises(ValueError):
        SamplerContext(None, 0).bernoulli_fraction(num, den)


def test_bernoulli_fraction_certain_outcomes_draw_nothing():
    ctx, fresh = SamplerContext(None, 1), SamplerContext(None, 1)
    assert ctx.bernoulli_fraction(0, 5) is False
    assert ctx.bernoulli_fraction(7, 7) is True
    assert ctx.uniform_below(1 << 40) == fresh.uniform_below(1 << 40)


def test_bernoulli_fraction_is_scale_invariant():
    """(k*num, k*den) makes the same decisions as (num, den) from the same
    stream: the refinement compares u*den against num*2^64."""
    k = 3**90 + 7
    for stream, (num, den) in enumerate(
        [(1, 3), (2, 7), (10**30, 10**30 + 1), (1, 1 << 70), (5, 11)]
    ):
        a, b = SamplerContext(None, 5, (stream,)), SamplerContext(None, 5, (stream,))
        plain = [a.bernoulli_fraction(num, den) for _ in range(300)]
        scaled = [b.bernoulli_fraction(k * num, k * den) for _ in range(300)]
        assert plain == scaled
        assert a.uniform_below(1 << 40) == b.uniform_below(1 << 40)


def test_bernoulli_fraction_frequency():
    ctx = SamplerContext(None, 6)
    hits = sum(ctx.bernoulli_fraction(2, 7) for _ in range(7000))
    assert stats.binomtest(hits, 7000, 2 / 7).pvalue > 1e-4
