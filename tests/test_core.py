"""Activation sampling, the trial decoder, stream derivation, and bitmasks."""

import copy
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocrs.core
from ocrs.core import (TRIAL_BLOCK, FractionalPoint, SeedSpec, group_rows,
                       iter_submasks, ordered_sum, pack_mask_rows,
                       scale_point, trial_columns, uniform_blocks)
from ocrs.schemes import Graph, KnapsackFactory, MatchingFactory


def _masks(seed, domain, trials, segments, block_range=None):
    """Every trial's decoded mask columns, flattened over blocks."""
    out = []
    for _start, columns in trial_columns(seed, domain, trials, segments,
                                         block_range):
        out.extend(zip(*(column.tolist() for column in columns)))
    return out


def test_iter_submasks_counts():
    subs = list(iter_submasks(0b1011))
    assert len(subs) == 8
    assert set(subs) == {m for m in range(16) if m & ~0b1011 == 0}


def test_fractional_point_validation():
    x = FractionalPoint([0.0, 0.5, 1.0])
    assert x.n == 3
    with pytest.raises(ValueError):
        FractionalPoint([1.2])
    with pytest.raises(ValueError):
        FractionalPoint([])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            FractionalPoint([0.5, bad])
    with pytest.raises(AttributeError):
        x.values = None


def test_fractional_point_copies_and_pickles():
    x = FractionalPoint([0.0, 0.25, 1.0])
    for clone in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
        assert isinstance(clone, FractionalPoint)
        assert np.array_equal(clone.values, x.values)
        assert not clone.values.flags.writeable


def test_scale_point():
    x = FractionalPoint([0.4, 0.8])
    assert np.allclose(scale_point(x, 1.0).values, [0.4, 0.8])
    assert np.allclose(scale_point(x, 0.0).values, [0.0, 0.0])
    assert np.allclose(scale_point(x, 0.5).values, [0.2, 0.4])
    with pytest.raises(ValueError):
        scale_point(x, 1.5)


def test_sample_active_zero_and_one():
    zero = FractionalPoint([0.0, 0.0, 0.0])
    one = FractionalPoint([1.0, 1.0, 1.0])
    for (a, b) in _masks(SeedSpec(1), 0, 50, [zero.values, one.values]):
        assert a == 0 and b == 0b111


def test_sample_active_marginals():
    # empirical inclusion frequency within 4 sqrt(x(1-x)/T) of x
    trials = 100_000
    x = FractionalPoint([0.5, 0.5, 0.5, 0.5])
    counts = np.zeros(4)
    for (mask,) in _masks(SeedSpec(2), 0, trials, [x.values]):
        for e in range(4):
            counts[e] += (mask >> e) & 1
    freq = counts / trials
    margin = 4 * math.sqrt(0.25 / trials)
    assert np.all(np.abs(freq - 0.5) <= margin)


def test_downsample_identity_and_empty():
    # thinning R(x) at rate 1 keeps it, at rate 0 empties it
    x = np.array([0.9, 0.0, 0.7, 0.5, 0.0])
    for active, keep_all, keep_none in _masks(
            SeedSpec(3), 0, 200, [x, np.full(5, 1.0), np.full(5, 0.0)]):
        assert active & keep_all == active
        assert active & keep_none == 0


def test_downsample_matches_scaled_sampling():
    # chi-square two-sample test: R(x) thinned at rate b vs R(b x), n = 3
    trials = 100_000
    x = FractionalPoint([0.8, 0.5, 0.3])
    b = 0.6
    seed = SeedSpec(4)
    counts_a = np.zeros(8)
    counts_b = np.zeros(8)
    for active, kept in _masks(seed, 0, trials, [x.values, np.full(3, b)]):
        counts_a[active & kept] += 1
    for (mask,) in _masks(seed, 1, trials, [b * x.values]):
        counts_b[mask] += 1
    stat = float(np.sum((counts_a - counts_b) ** 2
                        / np.maximum(counts_a + counts_b, 1)))
    # chi-square critical value, 7 degrees of freedom, alpha = 1e-3
    assert stat < 24.32


def test_trial_columns_matches_hand_slicing():
    # a vector, a raw segment and two samplers decode to exactly what slicing
    # the uniform rows by hand gives, over more than one block
    graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    matching = MatchingFactory(graph, 0.5).bind(
        FractionalPoint([0.1] * 5), SeedSpec(6).stream(0))
    knapsack = KnapsackFactory([0.6, 0.3, 0.2], 0.25).bind(
        FractionalPoint([0.1, 0.2, 0.1]))
    assert matching.draw_count == 5 and knapsack.draw_count == 1
    x = np.array([0.3, 0.9, 0.0, 0.5])
    seed = SeedSpec(5)
    trials = TRIAL_BLOCK + 300
    decoded = trial_columns(seed, 7, trials, [x, 2, matching, knapsack])
    by_hand = uniform_blocks(seed, 7, trials, 4 + 2 + 5 + 1)
    blocks = 0
    for (start, columns), (start_u, block) in zip(decoded, by_hand):
        assert start == start_u
        masks, raw, fams_m, fams_k = columns
        assert masks.dtype == np.int64
        assert np.array_equal(masks, pack_mask_rows(block[:, :4] < x))
        assert np.array_equal(raw, block[:, 4:6])
        assert (_family_keys(*fams_m)
                == _family_keys(*matching.sample_block(block[:, 6:11])))
        assert (_family_keys(*fams_k)
                == _family_keys(*knapsack.sample_block(block[:, 11:])))
        blocks += 1
    assert blocks == 2


def _family_keys(codes, families):
    """Each trial's family ``cache_key``, from its code."""
    return [families[c].cache_key() for c in codes.tolist()]


def test_trial_columns_block_ranges_add_up():
    x = np.array([0.4, 0.7, 0.2])
    seed = SeedSpec(8)
    trials = 2 * TRIAL_BLOCK + 100
    full = Counter(_masks(seed, 3, trials, [x, np.full(3, 0.5)]))
    merged = Counter()
    for block_range in [(0, 1), (1, 2), (2, None)]:
        merged.update(_masks(seed, 3, trials, [x, np.full(3, 0.5)],
                             block_range))
    assert merged == full
    assert sum(full.values()) == trials


def test_seed_spec_reproducible_and_distinct():
    a = SeedSpec(77).stream(1, 5).random(8)
    b = SeedSpec(77).stream(1, 5).random(8)
    c = SeedSpec(77).stream(1, 6).random(8)
    d = SeedSpec(78).stream(1, 5).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_uniform_blocks_partition_invariance():
    # any block partition reproduces the same per-trial rows
    seed = SeedSpec(9)
    trials = 20_000
    full = np.concatenate([blk for _s, blk in uniform_blocks(seed, 2, trials, 3)])
    lo = np.concatenate([blk for _s, blk in
                         uniform_blocks(seed, 2, trials, 3, block_range=(0, 1))])
    hi = np.concatenate([blk for _s, blk in
                         uniform_blocks(seed, 2, trials, 3, block_range=(1, None))])
    assert np.array_equal(full, np.concatenate([lo, hi]))


@pytest.mark.parametrize("n", [1, 63])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pack_mask_rows_round_trip(n, data):
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                              min_size=1, max_size=6))
    packed = pack_mask_rows(np.array(rows, dtype=bool)).tolist()
    assert packed == [sum(1 << e for e in range(n) if row[e]) for row in rows]


@pytest.mark.parametrize("n", [64, 65])
def test_pack_mask_rows_rejects_64_or_more_columns(n):
    with pytest.raises(ValueError, match="63"):
        pack_mask_rows(np.ones((2, n), dtype=bool))


def _group_oracle(columns):
    """The grouping as a dict over row tuples, in first-seen order."""
    index = {}
    inverse = [index.setdefault(row, len(index))
               for row in zip(*(column.tolist() for column in columns))]
    return [inverse.index(i) for i in range(len(index))], inverse


# a column draws each row from a small pool, so that rows repeat: masks of
# up to 63 elements, small family codes, or one constant value
_POOLS = st.one_of(
    st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=6),
    st.lists(st.integers(0, 9), min_size=1, max_size=4),
    st.integers(0, 2 ** 62).map(lambda v: [v]))


@settings(max_examples=200, deadline=None)
@given(pools=st.lists(_POOLS, min_size=1, max_size=5),
       rows=st.integers(1, 300), data=st.data())
def test_group_rows_matches_dict_oracle(pools, rows, data):
    columns = [np.array(data.draw(st.lists(st.sampled_from(pool),
                                           min_size=rows, max_size=rows)),
                        dtype=np.int64) for pool in pools]
    first, inverse = group_rows(columns)
    expected_first, expected_inverse = _group_oracle(columns)
    assert first.tolist() == expected_first
    assert inverse.tolist() == expected_inverse


def test_group_rows_redensifies_wide_keys(monkeypatch):
    """Three columns whose radices multiply past 2^63 are re-ranked
    densely before packing, and still group exactly."""
    dense = []
    original = ocrs.core._dense_rank

    def counting(column):
        dense.append(column.size)
        return original(column)

    monkeypatch.setattr(ocrs.core, "_dense_rank", counting)
    top = 2 ** 62
    columns = [np.array(c, dtype=np.int64) for c in (
        [top, 0, top, 0, top, top],
        [1, top, 1, top, 1, 0],
        [5, 5, 5, 5, 5, 5],
        [3, 3, 3, 3, top, 3])]
    first, inverse = group_rows(columns)
    assert (first.tolist(), inverse.tolist()) == _group_oracle(columns)
    assert (first.tolist(), inverse.tolist()) == ([0, 1, 4, 5],
                                                  [0, 1, 0, 1, 2, 3])
    # before the second and before the fourth column, both the key so far
    # and the column are too wide to pack together; then the final grouping
    assert len(dense) == 5


def test_ordered_sum_adds_left_to_right():
    """Left to right, 1e16 + 1.0 rounds back to 1e16; a compensated sum
    (the builtin from Python 3.12 on, or math.fsum) gives 1.0."""
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert ordered_sum(iter([1.0, 2.0 ** 53, 1.0])) == 2.0 ** 53
    assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
