"""Permutations, inversion sequences, and block structure.

A permutation is a tuple of the integers 1..n in one-line notation.  Its
inversion sequence x has x_i = #{j < i : sigma(j) > sigma(i)}, so
0 <= x_i <= i-1, and the map is a bijection.  The sequences of sum m are
enumerated here, and reflected to sum C(n,2) - m.  Decomposition points of
the inversion sequence cut the permutation into indecomposable blocks,
which are exactly the connected components of the graph whose edges are
the inversion pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .counting import max_inversions


def _int64_array(seq: Sequence[int], kind: str) -> np.ndarray:
    """seq as an int64 array; ``ValueError`` if it is empty, not 1-D, or not of
    integers that fit int64 (a float or a bool array is refused, never cast)."""
    a = np.asarray(seq)
    if a.ndim != 1:
        raise ValueError(f"{kind} must be a flat sequence, not a {a.ndim}-D array")
    if len(a) == 0:
        raise ValueError(f"empty {kind}")
    if a.dtype.kind not in "iu" or a.dtype == np.uint64 and a.max() >= np.uint64(1 << 63):
        raise ValueError(f"{kind} entries must be integers that fit int64, not {a.dtype}")
    return a.astype(np.int64, copy=False)


def validate_permutation(word: Sequence[int]) -> np.ndarray:
    """word as an int64 array if it holds 1..n once each, else ``ValueError``."""
    a = _int64_array(word, "permutation")
    if not np.array_equal(np.sort(a), np.arange(1, len(a) + 1)):
        raise ValueError(f"{tuple(a.tolist())} is not a permutation of 1..{len(a)}")
    return a


def validate_inversion_sequence(x: Sequence[int]) -> np.ndarray:
    """x as an int64 array (x itself if it is one) if 0 <= x_i <= i-1 for
    every i, checked in one vectorized pass, else ``ValueError``."""
    a = _int64_array(x, "inversion sequence")
    # as unsigned, a negative x_i is above every bound i-1 as well
    bad = a.view(np.uint64) > np.arange(len(a), dtype=np.uint64)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"x[{i + 1}]={a[i]} violates 0 <= x_i <= i-1")
    return a


def inversion_sequence(perm: Sequence[int]) -> list[int]:
    """Inversion sequence of a permutation, O(n log n + m) for m inversions.

    Scans from the right over an ascending list of the values at
    positions 0..i: perm[i] sits at index k of it, so the i - k values
    above it stand earlier and x_i = i - k, and deleting it moves only
    those x_i slots.  A dense permutation (m near n^2/4) therefore pays
    O(n^2) slot moves, done by memmove.

    >>> inversion_sequence((2, 3, 1, 7, 6, 4, 9, 8, 5))
    [0, 0, 2, 0, 1, 2, 0, 1, 4]
    """
    perm = validate_permutation(perm).tolist()
    n = len(perm)
    free = list(range(1, n + 1))
    x = [0] * n
    for i in range(n - 1, -1, -1):
        k = bisect_left(free, perm[i])
        x[i] = i - k
        del free[k]
    return x


def permutation_from_inversion_sequence(x: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`inversion_sequence`, O(n log n + m) for sum m.

    Fills positions n down to 1 from an ascending list of the unused
    values: position t receives the (1+x_t)-th largest, at index t - x_t
    (0-based t), and popping it moves only the x_t slots to its right.

    >>> permutation_from_inversion_sequence([0, 0, 2, 0, 1, 2, 0, 1, 4])
    (2, 3, 1, 7, 6, 4, 9, 8, 5)
    """
    x = validate_inversion_sequence(x).tolist()
    n = len(x)
    free = list(range(1, n + 1))
    word = [free.pop(t - v) for t, v in zip(range(n - 1, -1, -1), reversed(x))]
    return tuple(reversed(word))


def reflect_sequence(x: Sequence[int]) -> list[int]:
    """The involution x_i -> (i-1) - x_i; maps sum m to C(n,2) - m."""
    return [i - v for i, v in enumerate(x)]


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
    return out


def inversion_count(perm: Sequence[int]) -> int:
    return sum(inversion_sequence(perm))


def permutation_graph_edges(perm: Sequence[int]) -> list[tuple[int, int]]:
    """All inversion pairs {a, b}, a < b, as edges on the vertex set 1..n.

    a < b are adjacent iff b appears before a in one-line notation.  The
    edge count equals the inversion number; intended for small-n
    validation, block statistics never need the explicit edge list.
    """
    perm = validate_permutation(perm).tolist()
    n = len(perm)
    pos = [0] * (n + 1)
    for i, v in enumerate(perm):
        pos[v] = i
    return [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if pos[a] > pos[b]
    ]


# the length above which ``decomposition_points`` filters zeros first, and
# the entries ``_cuts_among_zeros`` gathers at once: a census trial at
# n = 10^5 does not grow the heap by arrays of n entries beside its sequence
_CHUNK = 1 << 13
# offsets at which ``_cuts_among_zeros`` filters its candidates before it
# hands them to the suffix-minimum pass: zeros that survive many offsets,
# as in (0, ..., 0, n - 1), cost at most this many passes over them
_ROUNDS = 16


def decomposition_points(seq: Sequence[int]) -> list[int]:
    """Positions j in [len-1] at which the sequence decomposes.

    A nonnegative sequence a is decomposable at j when a_{j+i} <= i-1 for
    every i in [len-j]; for an inversion sequence these are exactly the
    block boundaries.  Above ``_CHUNK`` entries the few zeros that can be
    points are filtered (``_cuts_among_zeros``); below it, or when the
    filter gives up, one suffix-minimum pass decides: j qualifies iff
    j <= min_{s > j} (s - 1 - a_s).

    >>> decomposition_points([0, 0, 2, 0, 1, 2, 0, 1, 4])
    [3]
    """
    a = np.asarray(seq, dtype=np.int64)
    n = len(a)
    if n > _CHUNK:
        cuts = _cuts_among_zeros(a)
        if cuts is not None:
            return cuts
    # 0-based slack[k] = k - a[k] is s - 1 - a_s for s = k + 1
    index = np.arange(1, n, dtype=np.int64)
    slack = index - a[1:]
    np.minimum.accumulate(slack[::-1], out=slack[::-1])
    return index[index <= slack].tolist()


def _cuts_among_zeros(a: np.ndarray) -> list[int] | None:
    """The decomposition points of a (0-based), or None after ``_ROUNDS``
    offsets.

    j >= 1 is a point iff a[j] <= 0 and a[j + d] <= d for 0 < d < max(a):
    entries further on are at most max(a).  The candidates start as the
    zeros, and offset d = 1, 2, ... drops those with a[j + d] > d, until the
    rest of the survivors' windows fits one gather of ``_CHUNK`` entries.
    """
    n = len(a)
    top = int(a.max())
    cand = np.flatnonzero(a[1:] <= 0)
    cand += 1
    # an offset past the end reads the last entry, which then passes:
    # a[n - 1] <= n - 1 - j < d, or j was dropped at offset n - 1 - j
    for d in range(1, top):
        if len(cand) * (top - d) <= _CHUNK:
            offsets = np.arange(d, top)
            at = cand[:, None] + offsets
            np.minimum(at, n - 1, out=at)
            cand = cand[(a[at] <= offsets).all(axis=1)]
            break
        if d > _ROUNDS:
            return None
        at = cand + d
        np.minimum(at, n - 1, out=at)
        cand = cand[a[at] <= d]
    return cand.tolist()


@dataclass(frozen=True)
class BlockDecomposition:
    """Cut points 0 = k_0 < k_1 < ... < k_l = n of the indecomposable blocks."""

    boundaries: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(
            b - a for a, b in zip(self.boundaries, self.boundaries[1:])
        )

    @property
    def block_count(self) -> int:
        return len(self.boundaries) - 1

    def intervals(self) -> list[tuple[int, int]]:
        """Half-open 1-based value/position intervals (a+1 .. b) per block."""
        return [
            (a + 1, b) for a, b in zip(self.boundaries, self.boundaries[1:])
        ]


def blocks_from_inversion_sequence(x: Sequence[int]) -> BlockDecomposition:
    """Blocks of the permutation whose inversion sequence is x; an empty x,
    or one with an x_i outside 0..i-1, raises ``ValueError``.

    >>> blocks_from_inversion_sequence([0, 0, 2, 0, 1, 2, 0, 1, 4]).sizes
    (3, 6)
    """
    a = validate_inversion_sequence(x)
    return BlockDecomposition((0, *decomposition_points(a), len(a)))


def blocks(perm: Sequence[int]) -> BlockDecomposition:
    """Decomposition of a permutation into its indecomposable blocks.

    >>> blocks((2, 4, 1, 3, 5, 8, 6, 7)).sizes
    (4, 1, 3)
    """
    return blocks_from_inversion_sequence(inversion_sequence(perm))


def is_indecomposable(perm: Sequence[int]) -> bool:
    """True iff no proper prefix of the one-line word is {1..k}.

    Equivalent to connectivity of the permutation graph.
    """
    return not decomposition_points(inversion_sequence(perm))


def psi(perm: Sequence[int]) -> tuple[int, ...]:
    """Reverse the order of the indecomposable blocks; an involution.

    The inversion sequence of a permutation is the concatenation of the
    inversion sequences of its blocks, so reversing the segment order and
    rebuilding gives a permutation with the same inversion count and the
    block sizes in reverse order.
    """
    x = inversion_sequence(perm)
    cuts = (0, *decomposition_points(x), len(x))
    segments = [x[a:b] for a, b in zip(cuts, cuts[1:])]
    rebuilt: list[int] = []
    for seg in reversed(segments):
        rebuilt.extend(seg)
    return permutation_from_inversion_sequence(rebuilt)


def parse_one_line(text: str) -> tuple[int, ...]:
    """Parse comma- or whitespace-separated one-line notation."""
    items = text.replace(",", " ").split()
    word = tuple(int(t) for t in items)
    validate_permutation(word)
    return word


def format_one_line(perm: Iterable[int]) -> str:
    return ",".join(str(v) for v in perm)
