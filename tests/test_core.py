"""Activation sampling, the trial decoder, stream derivation, and subsets."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs.core import (TRIAL_BLOCK, ElementSubset, FractionalPoint, SeedSpec,
                       iter_submasks, pack_mask_rows, scale_point,
                       trial_columns, uniform_blocks)
from ocrs.schemes import Graph, KnapsackFactory, MatchingFactory


def _masks(seed, domain, trials, segments, block_range=None):
    """Every trial's decoded columns, flattened over blocks."""
    out = []
    for _start, columns in trial_columns(seed, domain, trials, segments,
                                         block_range):
        out.extend(zip(*columns))
    return out


def test_element_subset_basics():
    s = ElementSubset.from_iterable([0, 2], 4)
    assert 0 in s and 2 in s and 1 not in s
    assert sorted(s) == [0, 2]
    assert len(s) == 2
    assert s.union(ElementSubset.from_iterable([1], 4)).mask == 0b0111
    assert s.minus(ElementSubset.from_iterable([0], 4)).mask == 0b0100
    assert s.issubset(ElementSubset.full(4))
    with pytest.raises(ValueError):
        ElementSubset(1 << 4, 4)
    with pytest.raises(AttributeError):
        s.mask = 0


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
        assert masks == pack_mask_rows(block[:, :4] < x).tolist()
        assert np.array_equal(raw, block[:, 4:6])
        assert ([f.cache_key() for f in fams_m]
                == [f.cache_key() for f in
                    matching.sample_block(block[:, 6:11])])
        assert ([f.cache_key() for f in fams_k]
                == [f.cache_key() for f in
                    knapsack.sample_block(block[:, 11:])])
        blocks += 1
    assert blocks == 2


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
