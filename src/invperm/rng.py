"""Reproducible randomness with exact integer and rational draws.

Streams are keyed by (seed, stream): a counter-based Philox generator is
derived from ``SeedSequence(seed, spawn_key=stream)``, so any number of
trials can run in parallel with independent, replayable streams.  All
discrete decisions that must be exactly unbiased go through
``uniform_below`` (rejection on masked bits) or ``bernoulli_fraction``
(64-bit refinement against an exact integer ratio), never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .counting import InversionTable


@dataclass
class SamplerContext:
    """Single-owner randomness handle for one trial.

    ``table`` is the shared read-only count table (may be None for
    operations that do not need exact counts).
    """

    table: "InversionTable | None"
    seed: int
    stream: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(default=None, repr=False)
    # the generator's bit_generator.random_raw, bound by bernoulli_fraction
    _raw: Callable[[], int] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def with_table(self, table: "InversionTable | None") -> "SamplerContext":
        """This context over another table, drawing from the same generator.

        Draws through either context advance one shared stream, so no
        random bits are used twice; a context rebuilt from (seed, stream)
        would replay the stream and correlate the two.
        """
        return SamplerContext(table, self.seed, self.stream, _gen=self.generator)

    def uniform_below(self, n: int) -> int:
        """Uniform integer in [0, n) for arbitrarily large n, exactly."""
        if n <= 0:
            raise ValueError("uniform_below needs n >= 1")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        nbytes = (bits + 7) // 8
        mask = (1 << bits) - 1
        gen = self.generator
        while True:
            v = int.from_bytes(gen.bytes(nbytes), "little") & mask
            if v < n:
                return v

    def bernoulli_fraction(self, num: int, den: int) -> bool:
        """Exact Bernoulli(num/den) for integers 0 <= num <= den, den >= 1.

        Compares a progressively refined uniform 64-bit fixed-point value
        against num/den; each refinement resolves except with probability
        2^-64.  The decisions depend only on the ratio: (k*num, k*den)
        decides as (num, den) does on the same stream.
        """
        if not 0 < num < den:
            if den <= 0:
                raise ValueError(f"bernoulli_fraction needs den >= 1, got {den}")
            if not 0 <= num <= den:
                raise ValueError(f"probability {num}/{den} outside [0, 1]")
            return num == den
        # one raw 64-bit output: the same value, from the same stream
        # position, as integers(0, 2**64, dtype=uint64), at a fraction of
        # its cost; the method is looked up once per context
        draw = self._raw
        if draw is None:
            draw = self.generator.bit_generator.random_raw
            self._raw = draw
        while True:
            lhs = draw() * den
            rhs = num << 64
            if lhs + den <= rhs:
                return True
            if lhs >= rhs:
                return False
            num = rhs - lhs  # remaining fractional comparison, still < den

    def categorical_weights(self, weights: Sequence[int]) -> int:
        """Index drawn proportionally to exact integer weights.

        No package code calls it; it stays a public draw, and the
        ``perfbench`` tracer counts its calls by this name.
        """
        total = sum(weights)
        u = self.uniform_below(total)
        for i, w in enumerate(weights):
            if u < w:
                return i
            u -= w
        raise AssertionError("weights exhausted")  # pragma: no cover
