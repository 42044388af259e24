import numpy as np
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


def test_with_table_continues_the_same_stream():
    table = object()
    ctx, fresh = SamplerContext(None, 2, (1,)), SamplerContext(None, 2, (1,))
    other = ctx.with_table(table)
    assert other.table is table and other.generator is ctx.generator
    assert (other.seed, other.stream) == (ctx.seed, ctx.stream)
    draws = [other.uniform_below(1 << 40), ctx.uniform_below(1 << 40)]
    assert draws == [fresh.uniform_below(1 << 40) for _ in range(2)]
    # bernoulli_fraction binds its raw draw once per context: interleaved on
    # ctx and on copies made before and after ctx bound it, the decisions
    # are one context's, and no raw draw is made twice
    decisions = [ctx.bernoulli_fraction(1, 43)]
    late = ctx.with_table(table)
    for step in range(1, 40):
        decisions.append((ctx, other, late)[step % 3].bernoulli_fraction(1 + step, 43))
    assert decisions == [fresh.bernoulli_fraction(1 + step, 43) for step in range(40)]
    assert ctx.uniform_below(1 << 40) == fresh.uniform_below(1 << 40)


def test_bernoulli_fraction_frequency():
    ctx = SamplerContext(None, 6)
    hits = sum(ctx.bernoulli_fraction(2, 7) for _ in range(7000))
    assert stats.binomtest(hits, 7000, 2 / 7).pvalue > 1e-4


class _ScriptedRaw:
    """Stands in for the numpy generator: its ``bit_generator.random_raw``
    returns the scripted 64-bit values in order."""

    def __init__(self, values):
        self.values = list(values)
        self.bit_generator = self

    def random_raw(self):
        return self.values.pop(0)


@pytest.mark.parametrize("second, outcome", [(0, True), (2**64 - 1, False)])
def test_bernoulli_fraction_refines_within_one_den_of_the_threshold(second, outcome):
    """For 1/3, r = (2^64 - 1) // 3 gives lhs = 3r = 2^64 - 1 below
    rhs = 2^64 but less than one den below it, so the first draw decides
    nothing and the comparison refines with num = 1; the second decides."""
    raw = _ScriptedRaw([(2**64 - 1) // 3, second])
    ctx = SamplerContext(None, 0, _gen=raw)
    assert ctx.bernoulli_fraction(1, 3) is outcome
    assert raw.values == []


class _Words:
    """numpy's ``Generator`` over Philox, modelled on raw outputs: a 32-bit
    draw takes the low half of the next raw output and keeps its high half
    for the following 32-bit draw, while ``random_raw`` takes the next whole
    output and leaves a kept half in place."""

    def __init__(self, seed, stream):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=stream)
        self.raw = np.random.Philox(ss).random_raw
        self.kept = None

    def word(self) -> int:
        if self.kept is not None:
            word, self.kept = self.kept, None
            return word
        raw = int(self.raw())
        self.kept = raw >> 32
        return raw & 0xFFFFFFFF

    def bytes(self, k: int) -> bytes:
        words = [self.word() for _ in range(-(-k // 4))]
        return b"".join(w.to_bytes(4, "little") for w in words)[:k]

    def integers(self, slots: int, k: int) -> list[int]:
        """32-bit Lemire: the high word of word * slots, redrawn while the
        low word is below (2^32 - slots) % slots."""
        threshold = (2**32 - slots) % slots
        out = []
        for _ in range(k):
            product = self.word() * slots
            while product & 0xFFFFFFFF < threshold:
                product = self.word() * slots
            out.append(product >> 32)
        return out


def _pair(stream):
    return SamplerContext(None, 11, stream).generator, _Words(11, stream)


@pytest.mark.parametrize("k", [1, 5, 8, 13, 5300])
def test_generator_bytes_are_raw_outputs_low_half_first(k):
    """``uniform_below`` reads ``Generator.bytes``: on a fresh generator,
    bytes(k) is the little-endian bytes of ceil(k/8) raw outputs cut to k,
    and the next raw output is the one after them."""
    gen, model = _pair((k,))
    raws = [model.raw() for _ in range(-(-k // 8))]
    assert gen.bytes(k) == b"".join(int(r).to_bytes(8, "little") for r in raws)[:k]
    assert gen.bit_generator.random_raw() == model.raw()


@pytest.mark.parametrize(
    "slots, k", [(862_845, 99_933), (3, 7), (5, 1), (2**31 + 11, 1000), (2**32 - 1, 50)]
)
def test_generator_integers_is_32_bit_lemire_on_raw_halves(slots, k):
    """The composition tail calls ``Generator.integers(0, slots, k)`` with
    slots < 2^32: it is 32-bit Lemire rejection on the raw outputs' halves,
    low half first, and it reads exactly the outputs the model reads."""
    gen, model = _pair((slots, k))
    assert gen.integers(0, slots, k).tolist() == model.integers(slots, k)
    assert gen.bit_generator.random_raw() == model.raw()


def test_a_kept_half_word_carries_over_to_the_next_32_bit_draw():
    """After a draw that used an odd number of 32-bit words, the next
    ``bytes`` or ``integers`` call starts from the kept high half, and a
    ``random_raw`` call in between skips it, so successive ``uniform_below``
    calls share raw outputs."""
    gen, model = _pair((0,))
    for call, k in [("bytes", 1), ("raw", 0), ("bytes", 1), ("integers", 3), ("bytes", 5),
                    ("raw", 0), ("integers", 1), ("bytes", 13), ("raw", 0), ("bytes", 4)]:
        if call == "raw":
            assert gen.bit_generator.random_raw() == model.raw()
        elif call == "bytes":
            assert gen.bytes(k) == model.bytes(k)
        else:
            assert gen.integers(0, 1000, k).tolist() == model.integers(1000, k)
    ctx = SamplerContext(None, 11, (1,))
    model = _Words(11, (1,))
    assert [ctx.uniform_below(200) for _ in range(4)] == [
        w for w in (model.word() & 0xFF for _ in range(8)) if w < 200
    ][:4]
