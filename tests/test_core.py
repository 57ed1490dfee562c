"""Activation sampling, stream derivation, and subset plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs.core import (ElementSubset, FractionalPoint, GroundSet, SeedSpec,
                       downsample_active, fragment_from_json, iter_submasks,
                       pack_mask_rows, sample_active_set, scale_point,
                       uniform_blocks)


def test_ground_set_labels():
    gs = GroundSet(3, labels=("a", "b", "c"))
    assert gs.label(1) == "b"
    assert GroundSet(2).label(1) == "1"
    with pytest.raises(ValueError):
        GroundSet(2, labels=("a",))
    with pytest.raises(ValueError):
        GroundSet(0)


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
    gen = SeedSpec(1).stream(0)
    zero = FractionalPoint([0.0, 0.0, 0.0])
    one = FractionalPoint([1.0, 1.0, 1.0])
    for _ in range(50):
        assert sample_active_set(zero, gen).mask == 0
        assert sample_active_set(one, gen).mask == 0b111


def test_sample_active_marginals():
    # empirical inclusion frequency within 4 sqrt(x(1-x)/T) of x
    trials = 100_000
    x = FractionalPoint([0.5, 0.5, 0.5, 0.5])
    counts = np.zeros(4)
    for _start, block in uniform_blocks(SeedSpec(2), 0, trials, 4):
        counts += (block < x.values).sum(axis=0)
    freq = counts / trials
    margin = 4 * math.sqrt(0.25 / trials)
    assert np.all(np.abs(freq - 0.5) <= margin)


def test_downsample_identity_and_empty():
    gen = SeedSpec(3).stream(0)
    s = ElementSubset.from_iterable([0, 2, 3], 5)
    assert downsample_active(s, 1.0, gen) == s
    assert downsample_active(s, 0.0, gen).mask == 0


def test_downsample_matches_scaled_sampling():
    # chi-square two-sample test: R(x) thinned at rate b vs R(b x), n = 3
    trials = 100_000
    x = FractionalPoint([0.8, 0.5, 0.3])
    b = 0.6
    seed = SeedSpec(4)
    counts_a = np.zeros(8)
    counts_b = np.zeros(8)
    for _start, block in uniform_blocks(seed, 0, trials, 6):
        active = block[:, :3] < x.values
        kept = active & (block[:, 3:] < b)
        for m in pack_mask_rows(kept).tolist():
            counts_a[m] += 1
    for _start, block in uniform_blocks(seed, 1, trials, 3):
        for m in pack_mask_rows(block < b * x.values).tolist():
            counts_b[m] += 1
    stat = float(np.sum((counts_a - counts_b) ** 2
                        / np.maximum(counts_a + counts_b, 1)))
    # chi-square critical value, 7 degrees of freedom, alpha = 1e-3
    assert stat < 24.32


def test_seed_spec_reproducible_and_distinct():
    a = SeedSpec(77).stream(1, 5).random(8)
    b = SeedSpec(77).stream(1, 5).random(8)
    c = SeedSpec(77).stream(1, 6).random(8)
    d = SeedSpec(78).stream(1, 5).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_fragment_from_json():
    ground, x, seed = fragment_from_json({"n": 3, "x": [0.1, 0.2, 0.3],
                                          "seed": 42})
    assert ground.n == 3 and x.n == 3 and seed.master_seed == 42
    with pytest.raises(ValueError):
        fragment_from_json({"n": 2, "x": [0.1, 0.2, 0.3], "seed": 1})
    with pytest.raises(ValueError):
        fragment_from_json({"n": 2, "x": [0.1, 0.2]})


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
