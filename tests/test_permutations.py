import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invperm import permutations
from invperm.counting import build_table
from invperm.permutations import (
    blocks,
    blocks_from_inversion_sequence,
    decomposition_points,
    inversion_count,
    inversion_sequence,
    is_indecomposable,
    permutation_from_inversion_sequence,
    permutation_graph_edges,
    psi,
    validate_inversion_sequence,
)
from invperm.rng import SamplerContext
from invperm.sampling import SplitSampler, sample_inversion_sequence

PAPER_PERM = (2, 3, 1, 7, 6, 4, 9, 8, 5)
PAPER_SEQ = [0, 0, 2, 0, 1, 2, 0, 1, 4]
BLOCK_PERM = (2, 4, 1, 3, 5, 8, 6, 7)


def inversion_sequence_quadratic(perm):
    """O(n^2) definitional oracle."""
    return [
        sum(1 for j in range(i) if perm[j] > perm[i]) for i in range(len(perm))
    ]


def decomposition_points_brute(perm):
    """All k with sigma({1..k}) = {1..k}, straight from the definition."""
    n = len(perm)
    return [
        k for k in range(1, n) if set(perm[:k]) == set(range(1, k + 1))
    ]


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n + 1))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def graph_components(perm):
    """Vertex sets of the permutation graph components via union-find."""
    n = len(perm)
    uf = UnionFind(n)
    for a, b in permutation_graph_edges(perm):
        uf.union(a, b)
    comps = {}
    for v in range(1, n + 1):
        comps.setdefault(uf.find(v), set()).add(v)
    return sorted(comps.values(), key=min)


def decomposition_points_of_sequence_brute(seq):
    """All j in [n-1] with a_{j+i} <= i-1 for every i in [n-j] (1-based a),
    straight from the definition, for any nonnegative sequence."""
    n = len(seq)
    return [
        j for j in range(1, n) if all(seq[j + i - 1] <= i - 1 for i in range(1, n - j + 1))
    ]


def random_inversion_sequence(rng, n):
    return [int(rng.integers(0, i + 1)) for i in range(n)]


def test_paper_example_both_directions():
    assert inversion_sequence(PAPER_PERM) == PAPER_SEQ
    assert permutation_from_inversion_sequence(PAPER_SEQ) == PAPER_PERM


def test_identity_and_reversal():
    n = 9
    identity = tuple(range(1, n + 1))
    reversal = tuple(range(n, 0, -1))
    assert inversion_sequence(identity) == [0] * n
    assert inversion_sequence(reversal) == list(range(n))
    assert permutation_from_inversion_sequence([0] * 5) == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("n", range(1, 8))
def test_round_trip_exhaustive(n):
    for word in itertools.permutations(range(1, n + 1)):
        x = inversion_sequence(word)
        assert x == inversion_sequence_quadratic(word)
        assert permutation_from_inversion_sequence(x) == word


def test_round_trip_large_random():
    rng = np.random.default_rng(42)
    for n in (10, 137, 1000):
        x = random_inversion_sequence(rng, n)
        perm = permutation_from_inversion_sequence(x)
        assert inversion_sequence(perm) == x
        word = list(range(1, n + 1))
        rng.shuffle(word)
        assert permutation_from_inversion_sequence(
            inversion_sequence(tuple(word))
        ) == tuple(word)


@pytest.mark.parametrize("n,m", [(2000, 400), (3000, 16221), (5000, 28682)])
def test_round_trip_sparse_sampled_sequences(n, m):
    """Sampled sequences near the threshold are sparse (mean m/n = O(log n)),
    unlike the dense random ones above: a walker draw at n = 2000 and
    split-sampler draws at the mu = 0 budgets of n = 3000 and 5000 go
    through the bijection and back, checked against the definition."""
    if n == 2000:
        ctx = SamplerContext(build_table(n, m_cap=m), 17, (n,))
        x = sample_inversion_sequence(n, m, ctx)
    else:
        x = SplitSampler(n, m).sample(SamplerContext(None, 17, (n,))).tolist()
    assert sum(x) == m
    perm = permutation_from_inversion_sequence(x)
    assert inversion_sequence_quadratic(perm) == x
    assert inversion_sequence(perm) == x


@given(st.integers(0, 10**6), st.integers(1, 300))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed, n):
    rng = np.random.default_rng(seed)
    x = random_inversion_sequence(rng, n)
    assert inversion_sequence(permutation_from_inversion_sequence(x)) == x


def test_validation_errors():
    with pytest.raises(ValueError):
        inversion_sequence((1, 1, 2))
    with pytest.raises(ValueError):
        permutation_from_inversion_sequence([0, 2])
    with pytest.raises(ValueError):
        validate_inversion_sequence([1])


def test_graph_edges_block_example():
    edges = set(permutation_graph_edges(BLOCK_PERM))
    assert {e for e in edges if max(e) <= 4} == {(1, 2), (1, 4), (3, 4)}
    assert len(edges) == inversion_count(BLOCK_PERM)


def test_graph_edges_extremes():
    assert permutation_graph_edges((1, 2, 3, 4)) == []
    n = 6
    assert len(permutation_graph_edges(tuple(range(n, 0, -1)))) == n * (n - 1) // 2


def test_decomposition_points_examples():
    assert decomposition_points(PAPER_SEQ) == [3]
    assert decomposition_points([0, 0, 0, 0]) == [1, 2, 3]
    x = inversion_sequence(BLOCK_PERM)
    assert decomposition_points(x) == [4, 5]
    assert decomposition_points_brute(BLOCK_PERM) == [4, 5]
    assert decomposition_points([0]) == []


@pytest.mark.parametrize("n", range(1, 8))
def test_decomposition_points_match_prefix_definition(n):
    for word in itertools.permutations(range(1, n + 1)):
        x = inversion_sequence(word)
        assert decomposition_points(x) == decomposition_points_brute(word)


@given(st.integers(0, 10**6), st.integers(1, 200))
@settings(max_examples=25, deadline=None)
def test_decomposition_points_match_definition_on_any_sequence(seed, n):
    rng = np.random.default_rng(seed)
    # arbitrary nonnegative sequences, not just inversion sequences
    seq = rng.integers(0, 8, size=n)
    expected = decomposition_points_of_sequence_brute(seq.tolist())
    assert decomposition_points(seq) == expected
    assert decomposition_points(seq.tolist()) == expected


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_decomposition_points_in_chunks_match_definition(monkeypatch, chunk):
    """A ``_CHUNK`` of every small width, so that short sequences go
    through the zero filter and its window gather at many sizes, gives the
    definition's points."""
    monkeypatch.setattr(permutations, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for n in range(0, 30):
        for high in (1, 2, 4):  # values below 2 make cut points dense
            seq = rng.integers(0, high, size=n)
            assert decomposition_points(seq) == decomposition_points_of_sequence_brute(
                seq.tolist()
            )
        # a last entry above the zero filter's round bound keeps its
        # candidates past it, so the suffix-minimum pass decides
        seq = rng.integers(0, 2, size=n + 30)
        seq[1], seq[-1] = 0, permutations._ROUNDS + 8
        expected = decomposition_points_of_sequence_brute(seq.tolist())
        assert decomposition_points(seq) == expected and expected[0] == 1


def test_decomposition_points_match_one_pass_at_census_size():
    """At n = 10^5 the points are those of one suffix-minimum pass over the
    whole sequence, written out here, for a split-sampler draw and for a
    sequence with a cut point at about every other position."""
    rng = np.random.default_rng(5)
    draw = SplitSampler(100_000, 764_911).sample(SamplerContext(None, 9))
    for seq in (draw, rng.integers(0, 2, size=100_000)):
        slack = np.arange(len(seq)) - seq
        suffix = np.minimum.accumulate(slack[::-1])[::-1]
        expected = (np.flatnonzero(np.arange(1, len(seq)) <= suffix[1:]) + 1).tolist()
        assert decomposition_points(seq) == expected
    assert len(expected) > 40_000


def decomposition_points_by_definition(seq):
    """The brute definition, one vectorised comparison per position."""
    a = np.asarray(seq)
    offsets = np.arange(len(a))
    return [j for j in range(1, len(a)) if (a[j:] <= offsets[: len(a) - j]).all()]


@pytest.mark.parametrize("extra", [2, 7])
def test_decomposition_paths_just_above_one_chunk_match_definition(monkeypatch, extra):
    """Just above ``_CHUNK`` entries: zeros with a 2 in front and a few more
    end in the filter, with too many candidates for a gather; geometric
    sequences with zeros at the end go through filter rounds to the window
    gather; and (0, ..., 0, n - 1), the permutation (2, 3, ..., n, 1),
    keeps its zeros past the round bound and falls to the suffix-minimum
    pass."""
    n = permutations._CHUNK + extra
    rng = np.random.default_rng(extra)
    sparse = np.zeros(n, dtype=np.int64)
    sparse[0] = 2
    sparse[rng.integers(1, n, size=extra // 3)] = 2
    sequences = [sparse]
    for p in (0.1, 0.3, 0.6):
        seq = rng.geometric(p, size=n) - 1
        seq[-5:] = 0
        sequences.append(seq)
    adversarial = np.zeros(n, dtype=np.int64)
    adversarial[-1] = n - 1
    sequences.append(adversarial)
    filtered = []
    cuts_among_zeros = permutations._cuts_among_zeros
    monkeypatch.setattr(
        permutations,
        "_cuts_among_zeros",
        lambda a: filtered.append(cuts_among_zeros(a)) or filtered[-1],
    )
    for seq in sequences:
        assert decomposition_points(seq) == decomposition_points_by_definition(seq)
    assert [cuts is None for cuts in filtered] == [False] * 4 + [True]
    assert len(filtered[0]) > permutations._CHUNK


def test_decomposition_points_of_census_draws_match_the_chunked_pass(monkeypatch):
    """Split-sampler draws at n = 10^5, mu = -1, 0, 1: the zero filter
    gives the suffix-minimum pass's points."""
    draws = []
    for m in (704_118, 764_911, 825_704):
        sampler = SplitSampler(100_000, m)
        draws += [sampler.sample(SamplerContext(None, 41, (m, t))) for t in range(4)]
    filtered = [decomposition_points(x) for x in draws]
    # a filter that gives up at once leaves every draw to the suffix-minimum pass
    monkeypatch.setattr(permutations, "_cuts_among_zeros", lambda a: None)
    assert filtered == [decomposition_points(x) for x in draws]
    assert sum(map(len, filtered)) > 0


def test_decomposition_points_of_a_cycle_stop_filtering_at_the_round_bound():
    """(0, ..., 0, n - 1), the inversion sequence of (2, 3, ..., n, 1), at
    n = 10^5 loses one candidate per offset, so the filter stops after
    ``_ROUNDS`` offsets and the suffix-minimum pass decides: no cut, far within a
    second (a filter without that bound would take n offsets)."""
    assert inversion_sequence((2, 3, 4, 5, 1)) == [0, 0, 0, 0, 4]
    n = 100_000
    x = np.zeros(n, dtype=np.int64)
    x[-1] = n - 1
    start = time.perf_counter()
    assert decomposition_points(x) == []
    assert time.perf_counter() - start < 1.0


def test_blocks_examples():
    decomposition = blocks(BLOCK_PERM)
    assert decomposition.boundaries == (0, 4, 5, 8)
    assert decomposition.sizes == (4, 1, 3)
    assert decomposition.block_count == 3
    assert blocks((1, 2, 3, 4, 5)).sizes == (1, 1, 1, 1, 1)
    assert blocks((5, 4, 3, 2, 1)).sizes == (5,)


def test_blocks_from_inversion_sequence_matches_blocks():
    """On a list or an int64 array, the blocks of an inversion sequence are
    those of its permutation."""
    assert blocks_from_inversion_sequence(PAPER_SEQ).boundaries == (0, 3, 9)
    x = inversion_sequence(BLOCK_PERM)
    assert blocks_from_inversion_sequence(np.asarray(x)) == blocks(BLOCK_PERM)
    assert blocks_from_inversion_sequence([0]).sizes == (1,)


def test_blocks_from_inversion_sequence_refuses_empty_input():
    """An empty sequence has no blocks, as ``blocks(())`` refuses too;
    it was one block of size 0."""
    for empty in ([], np.zeros(0, dtype=np.int64)):
        with pytest.raises(ValueError, match="empty inversion sequence"):
            blocks_from_inversion_sequence(empty)
    with pytest.raises(ValueError):
        blocks(())


@pytest.mark.parametrize(
    "x,bad",
    [([0, 5, 0], "x[2]=5"), ([1], "x[1]=1"), ([0, 1, -1], "x[3]=-1"), ([0, 0, 3, 0], "x[3]=3")],
    ids=["x2=5", "x1=1", "x3=-1", "x3=3"],
)
def test_blocks_from_inversion_sequence_refuses_entries_outside_the_bounds(x, bad):
    """An x_i outside 0..i-1 is refused with the message of
    ``permutation_from_inversion_sequence``, which refuses it too; [0, 5, 0]
    gave boundaries (0, 2, 3)."""
    with pytest.raises(ValueError, match=rf"^{re.escape(bad)} violates 0 <= x_i <= i-1$"):
        blocks_from_inversion_sequence(x)
    with pytest.raises(ValueError, match=re.escape(bad)):
        permutation_from_inversion_sequence(x)


def test_is_indecomposable_examples():
    assert is_indecomposable((2, 4, 1, 3))
    assert not is_indecomposable(BLOCK_PERM)
    assert is_indecomposable((1,))


@pytest.mark.parametrize("n", range(1, 8))
def test_connectivity_matches_indecomposability(n):
    for word in itertools.permutations(range(1, n + 1)):
        comps = graph_components(word)
        assert is_indecomposable(word) == (len(comps) == 1)
        # components are consecutive intervals equal to the blocks
        intervals = blocks(word).intervals()
        assert [set(range(a, b + 1)) for a, b in intervals] == comps
        assert len(decomposition_points(inversion_sequence(word))) + 1 == len(comps)


def test_psi_paper_block_example():
    image = psi(BLOCK_PERM)
    assert inversion_sequence(image) == [0, 1, 1, 0, 0, 0, 2, 1]
    assert blocks(image).sizes == (3, 1, 4)
    assert psi(image) == BLOCK_PERM


def test_psi_identity_fixed():
    identity = tuple(range(1, 8))
    assert psi(identity) == identity


@given(st.integers(0, 10**6), st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_psi_involution_and_invariants(seed, n):
    rng = np.random.default_rng(seed)
    perm = permutation_from_inversion_sequence(random_inversion_sequence(rng, n))
    image = psi(perm)
    assert psi(image) == perm
    assert inversion_count(image) == inversion_count(perm)
    assert blocks(image).sizes == tuple(reversed(blocks(perm).sizes))


SEQUENCE_FUNCTIONS = (
    validate_inversion_sequence,
    permutation_from_inversion_sequence,
    blocks_from_inversion_sequence,
    inversion_sequence,
    blocks,
    is_indecomposable,
    psi,
    permutation_graph_edges,
)
NUMPY_DTYPES = (
    "int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64",
    "float32", "float64", "bool", "object",
)
int_lists = st.one_of(
    st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(list),
    st.integers(1, 8).flatmap(lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))).map(list),
    st.lists(st.one_of(st.integers(-3, 9), st.integers(-(2**70), 2**70)), max_size=8),
)


@st.composite
def sequence_inputs(draw):
    """(an input, the int list it stands for, or None when it must be
    refused) drawn from one int list in one of several forms."""
    ints = draw(int_lists)
    form = draw(st.sampled_from(("ints", "float", "half", "bools", "0-D", "2-D") + NUMPY_DTYPES))
    if form == "ints":
        return ints, ints
    if form in ("float", "half"):  # x_{k+1} = k as a float, which fits its bound, or k + 0.5
        k = draw(st.integers(0, len(ints)))
        return ints[:k] + [k + (0.5 if form == "half" else 0.0)] + ints[k:], None
    if form == "bools":
        return [bool(v) if v in (0, 1) else v for v in ints], ints
    if form == "0-D":
        return np.array(ints[0] if ints else 0), None
    if form == "2-D":
        return np.array([ints, ints]), None
    dtype = np.dtype(form)
    if dtype.kind in "iu" and not all(np.iinfo(dtype).min <= v <= np.iinfo(dtype).max for v in ints):
        dtype = np.dtype(object)
    a = np.array(ints, dtype=dtype)
    return a, None if dtype.kind == "f" else [int(v) for v in a.tolist()]


def outcome(fn, arg):
    """repr of fn(arg), or ValueError if fn refuses arg; any other
    exception escapes."""
    try:
        return repr(fn(arg))
    except ValueError:
        return ValueError


@given(sequence_inputs())
@settings(max_examples=400, deadline=None)
def test_sequence_inputs_give_the_int_list_answer_or_value_error(drawn):
    """Python ints (negative ones, ones past int64), floats, bools and numpy
    arrays of any dtype or dimension give each function what the equal int
    list gives, or ``ValueError``; a float entry is always refused, never
    truncated, and no input raises another exception."""
    arg, ints = drawn
    for fn in SEQUENCE_FUNCTIONS:
        got = outcome(fn, arg)
        if ints is None:
            assert got is ValueError, fn.__name__
        else:
            assert got in (outcome(fn, ints), ValueError), fn.__name__


@pytest.mark.parametrize(
    "fn,arg,message",
    [
        (blocks_from_inversion_sequence, [0, 0.5], "integers"),
        (permutation_from_inversion_sequence, [0, 0.5], "integers"),
        (permutation_from_inversion_sequence, [0, 1.0], "integers"),
        (blocks_from_inversion_sequence, [0, 2**70], "fit int64"),
        (blocks_from_inversion_sequence, np.array([0, 2**63], dtype=np.uint64), "fit int64"),
        (permutation_from_inversion_sequence, [], "empty inversion sequence"),
        (blocks_from_inversion_sequence, np.zeros((2, 2), dtype=np.int64), "flat sequence"),
        *((fn, (1, 2.0), "integers") for fn in (inversion_sequence, blocks, psi, is_indecomposable, permutation_graph_edges)),
    ],
    ids=[
        "blocks-half", "bijection-half", "bijection-integral-float", "blocks-2**70",
        "blocks-uint64-2**63", "bijection-empty", "blocks-2d",
        "inversion_sequence-float", "blocks-float", "psi-float", "is_indecomposable-float",
        "graph_edges-float",
    ],
)
def test_malformed_sequences_are_refused_with_value_error(fn, arg, message):
    """Each was another outcome: [0, 0.5] gave boundaries (0, 1, 2) and a
    ``TypeError`` from the bijection, [0, 2**70] an ``OverflowError``, []
    the permutation (), a 2-D array an ``IndexError``, and a float entry in
    a permutation a ``TypeError``."""
    with pytest.raises(ValueError, match=message):
        fn(arg)
