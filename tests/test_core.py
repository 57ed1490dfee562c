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
from ocrs.core import (TABLE_BYTES, TRIAL_BLOCK, FractionalPoint, SeedSpec,
                       group_rows, iter_submasks, num_blocks, ordered_sum,
                       pack_mask, pack_mask_rows, popcounts, scale_point,
                       trial_columns, uniform_blocks)
from ocrs.matroids import UniformMatroid
from ocrs.optimize import KnapsackConstraint
from ocrs.schemes import (Graph, KnapsackFactory, MatchingFactory,
                          MatroidChainFactory)


def _masks(seed, domain, trials, segments, block_range=None):
    """Every trial's decoded mask columns, flattened over blocks."""
    out = []
    for _start, columns in trial_columns(seed, domain, trials, segments,
                                         block_range):
        out.extend(zip(*(column.tolist() for column in columns)))
    return out


@pytest.mark.parametrize("k,within", [(0, -1), (5, -1), (6, 0b101001),
                                      (4, 0)])
def test_popcounts_count_the_bits_of_each_index(k, within):
    counts = popcounts(k, within)
    assert counts.dtype == np.uint8
    assert counts.tolist() == [(i & within).bit_count()
                               for i in range(1 << k)]


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


def _draw_masks(sampler, rows):
    """A sampler's packed threshold masks of a (count, draw_count) uniform
    table, sliced by hand: one column per threshold vector."""
    masks = np.zeros((len(rows), len(sampler.draws)), dtype=np.int64)
    at = 0
    for j, vector in enumerate(sampler.draws):
        masks[:, j] = pack_mask_rows(rows[:, at:at + vector.size] < vector)
        at += vector.size
    return masks


_GRAPH4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
_K6 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])


def test_trial_columns_matches_hand_slicing():
    # raw segments before and between the threshold columns, a vector, a
    # vector of thresholds 0 and 1, a draw-free sampler and two drawing
    # samplers decode to exactly what slicing a fresh draw of each block's
    # uniform rows by hand gives, over more than one block; 15 columns
    # draw each block at once, 62 in chunks
    _check_hand_slicing(_GRAPH4, np.array([0.3, 0.9, 0.0, 0.5]))
    _check_hand_slicing(_K6, np.linspace(0.0, 1.0, 40))


def _check_hand_slicing(graph, x):
    matching = MatchingFactory(graph, 0.5).bind(
        FractionalPoint([0.1] * graph.n_edges), SeedSpec(6).stream(0))
    chain = MatroidChainFactory(UniformMatroid(3, 1), 0.5).bind(
        FractionalPoint([0.1] * 3))
    knapsack = KnapsackFactory(KnapsackConstraint([0.6, 0.3, 0.2]), 0.25).bind(
        FractionalPoint([0.1, 0.2, 0.1]))
    assert (matching.draw_count == graph.n_edges and chain.draw_count == 0
            and knapsack.draw_count == 1)
    edges = np.array([0.0, 1.0])
    width = 3 + x.size + 2 + graph.n_edges + 1 + 2
    seed = SeedSpec(5)
    trials = TRIAL_BLOCK + 300
    blocks = 0
    for start, columns in trial_columns(
            seed, 7, trials, [3, x, 2, matching, chain, knapsack, edges]):
        assert start == blocks * TRIAL_BLOCK
        block = seed.stream(7, blocks).random(
            (min(TRIAL_BLOCK, trials - start), width))
        lead, masks, raw, fams_m, fams_c, fams_k, edge_masks = columns
        assert masks.dtype == np.int64
        assert np.array_equal(lead, block[:, :3])
        at = 3 + x.size
        assert np.array_equal(masks, pack_mask_rows(block[:, 3:at] < x))
        assert np.array_equal(raw, block[:, at:at + 2])
        m_rows = block[:, at + 2:at + 2 + graph.n_edges]
        m_masks = _draw_masks(matching, m_rows)
        # a matching's codes are its K masks
        assert np.array_equal(fams_m[0], m_masks[:, 0])
        assert (_family_keys(*fams_m)
                == _family_keys(*matching.sample_block(m_masks)))
        assert not fams_c[0].any() and fams_c[1][0] is chain.family
        assert (_family_keys(*fams_k) == _family_keys(
            *knapsack.sample_block(_draw_masks(knapsack, block[:, -3:-2]))))
        # a threshold of 0 never draws its element and one of 1 always does
        assert edge_masks.tolist() == [0b10] * len(block)
        blocks += 1
    assert blocks == 2


# thresholds at and next to both ends of [0, 1): 5e-324 draws an element
# only on a uniform of exactly 0, and 1 - 2^-53 on every uniform but the
# largest
_EDGES = [0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0]


def _thresholds(n, salt):
    """``n`` thresholds: the edge values, then values spread over (0, 1)."""
    spread = np.random.default_rng(salt).random(n)
    return np.concatenate([_EDGES, spread])[:n]


@pytest.mark.parametrize("segments", [
    [_thresholds(1, 1)],
    [2, _thresholds(8, 2)],
    [_thresholds(4, 3), _thresholds(5, 4)],
    [_thresholds(20, 5), 3, _thresholds(40, 6)],
    [3, 3, _thresholds(5, 7), 1, _thresholds(6, 8), 2],
    [_thresholds(45, 9), _thresholds(45, 10)]],
    ids=["span-1-whole-row", "span-8-after-raw", "span-9-whole-row",
         "span-63-raw-inside", "prophet-layout", "span-90-per-segment"])
def test_trial_columns_decodes_like_hand_slicing_at_every_span(
        monkeypatch, segments):
    """Every vector decodes to the masks of a fresh draw of its block's
    rows sliced by hand, and every raw segment to the rows' columns: one
    pack of the span per chunk, cut into bit fields (spans of 1 to 63
    columns, raw columns inside the span or outside it), one pack per
    segment and chunk (90 columns), and the tiled compare on blocks of
    TRIAL_BLOCK trials and of a 300-trial tail, which are not all whole
    numbers of tiles."""
    packs = []
    pack = ocrs.core.pack_mask_rows
    monkeypatch.setattr(ocrs.core, "pack_mask_rows",
                        lambda bits: packs.append(bits.shape) or pack(bits))
    ends = np.cumsum([s if isinstance(s, int) else s.size
                      for s in segments])
    width = int(ends[-1])
    vectors = [(end - s.size, end) for s, end in zip(segments, ends.tolist())
               if not isinstance(s, int)]
    span = vectors[-1][1] - vectors[0][0]
    seed = SeedSpec(14)
    trials = TRIAL_BLOCK + 300
    chunks = sum(1 for _ in uniform_blocks(seed, 9, trials, width))
    blocks = 0
    for start, columns in trial_columns(seed, 9, trials, segments):
        block = seed.stream(9, blocks).random(
            (min(TRIAL_BLOCK, trials - start), width))
        at = 0
        for segment, column in zip(segments, columns):
            if isinstance(segment, int):
                assert np.array_equal(column, block[:, at:at + segment])
                at += segment
                continue
            below = block[:, at:at + segment.size] < segment
            powers = 1 << np.arange(segment.size, dtype=np.int64)
            assert column.dtype == np.int64
            assert np.array_equal(column, below.astype(np.int64) @ powers)
            at += segment.size
        blocks += 1
    assert blocks == 2
    assert len(packs) == chunks * (1 if span < 64 else len(vectors))


@pytest.mark.parametrize("segments", [[3, 2], [10, 10]], ids=["one-chunk",
                                                              "chunked"])
def test_raw_only_layout_is_never_compared_or_packed(monkeypatch, segments):
    """A loop of raw columns only gives the table's rows as they are drawn,
    and packs nothing."""
    def refuse(bits):
        raise AssertionError("a raw-only layout packed a mask")

    monkeypatch.setattr(ocrs.core, "pack_mask_rows", refuse)
    seed = SeedSpec(2)
    trials = TRIAL_BLOCK + 7
    for j, (start, columns) in enumerate(trial_columns(seed, 4, trials,
                                                       segments)):
        block = seed.stream(4, j).random(
            (min(TRIAL_BLOCK, trials - start), sum(segments)))
        assert np.array_equal(np.hstack(columns), block)


def test_trial_columns_draws_every_block_into_one_table(monkeypatch):
    """Every block of a loop is drawn into one uniform table; decoded vector
    and sampler columns are arrays of their own, and a raw int segment is a
    view of the table."""
    matching = MatchingFactory(Graph(3, [(0, 1), (1, 2)]), 0.5).bind(
        FractionalPoint([0.2, 0.3]), SeedSpec(6).stream(0))
    drawn = []
    stream = SeedSpec.stream

    class Recording:
        def __init__(self, gen):
            self.gen = gen
            self.bit_generator = gen.bit_generator  # re-keyed per block

        def random(self, *args, out=None):
            table = self.gen.random(*args, out=out)
            drawn.append(table)
            return table

    monkeypatch.setattr(SeedSpec, "stream",
                        lambda self, *path: Recording(stream(self, *path)))
    x = np.array([0.4, 0.7])
    for _start, (masks, (codes, _families)) in trial_columns(
            SeedSpec(3), 1, 2 * TRIAL_BLOCK + 5, [x, matching]):
        assert drawn[-1].base is drawn[0].base is not None
        assert not np.shares_memory(masks, drawn[-1])
        assert not np.shares_memory(codes, drawn[-1])
    assert [len(block) for block in drawn] == [TRIAL_BLOCK, TRIAL_BLOCK, 5]
    for _start, columns in trial_columns(SeedSpec(3), 1, TRIAL_BLOCK,
                                         [x, 2]):
        assert columns[1].base is drawn[-1].base
    assert len(drawn) == 4


def test_wide_loops_draw_chunks_into_one_table_of_at_most_1_mib(monkeypatch):
    """A loop of more than 16 columns draws each block in chunks into one
    table of at most `TABLE_BYTES`; the raw columns of a block of more
    than one chunk are gathered into one buffer of the loop."""
    drawn = []
    stream = SeedSpec.stream

    class Recording:
        def __init__(self, gen):
            self.gen = gen
            self.bit_generator = gen.bit_generator  # re-keyed per block

        def random(self, *args, out=None):
            drawn.append(out)
            return self.gen.random(*args, out=out)

    monkeypatch.setattr(SeedSpec, "stream",
                        lambda self, *path: Recording(stream(self, *path)))
    trials = 2 * TRIAL_BLOCK + 5
    raws = []
    for _start, (_masks, _more, raw) in trial_columns(
            SeedSpec(3), 1, trials, [np.full(45, 0.5), np.full(40, 0.5), 5]):
        # the last block, of 5 trials, is one chunk and keeps its view
        assert np.shares_memory(raw, drawn[-1]) == (len(raw) == 5)
        raws.append(raw)
    chunk = TABLE_BYTES // (8 * 90)
    assert [len(out) for out in drawn] == (
        2 * ([chunk] * (TRIAL_BLOCK // chunk) + [TRIAL_BLOCK % chunk]) + [5])
    assert all(out.base is drawn[0].base for out in drawn)
    assert drawn[0].base.nbytes <= TABLE_BYTES
    assert raws[0].base is raws[1].base is not drawn[0].base


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
    # a seed outside 64 bits is rejected, not wrapped onto another seed
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="master seed"):
            SeedSpec(seed)


def test_uniform_blocks_partition_invariance():
    # any block partition reproduces the same per-trial rows
    seed = SeedSpec(9)
    trials = 20_000
    # each block is copied: the next one is drawn into the same table
    full = np.concatenate([blk.copy() for _s, blk in
                           uniform_blocks(seed, 2, trials, 3)])
    lo = np.concatenate([blk.copy() for _s, blk in
                         uniform_blocks(seed, 2, trials, 3, block_range=(0, 1))])
    hi = np.concatenate([blk.copy() for _s, blk in
                         uniform_blocks(seed, 2, trials, 3, block_range=(1, None))])
    assert np.array_equal(full, np.concatenate([lo, hi]))


@pytest.mark.parametrize("trials, block_range", [
    (TRIAL_BLOCK, None), (2 * TRIAL_BLOCK + 300, None),
    (3 * TRIAL_BLOCK + 1, (1, None)), (3 * TRIAL_BLOCK + 1, (1, 2)),
    (1, None)],
    ids=["full", "partial-last", "range-from-mid-loop", "range-of-one",
         "one-row"])
def test_uniform_blocks_match_a_fresh_draw_per_block(trials, block_range):
    """The chunks of each block, concatenated, are the rows a fresh
    ``random((count, width))`` on its Philox stream gives; a loop of at
    most 16 columns draws each block as one chunk."""
    for width in (5, 16, 17, 90, 200):
        _check_fresh_draws(trials, block_range, width)


def _check_fresh_draws(trials, block_range, width):
    seed = SeedSpec(12)
    lo, hi = block_range or (0, None)
    hi = num_blocks(trials) if hi is None else hi
    chunks: dict[int, list] = {}
    for start, chunk in uniform_blocks(seed, 4, trials, width, block_range):
        assert chunk.shape[1] == width and chunk.nbytes <= TABLE_BYTES
        chunks.setdefault(start // TRIAL_BLOCK, []).append(
            (start, chunk.copy()))
    assert list(chunks) == list(range(lo, hi))
    for j, parts in chunks.items():
        count = min(TRIAL_BLOCK, trials - j * TRIAL_BLOCK)
        assert [start for start, _ in parts] == list(
            range(j * TRIAL_BLOCK, j * TRIAL_BLOCK + count, len(parts[0][1])))
        assert len(parts) == (1 if width <= 16 else
                              -(-count // (TABLE_BYTES // (8 * width))))
        assert np.array_equal(np.concatenate([c for _, c in parts]),
                              seed.stream(4, j).random((count, width)))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 32, 33, 63])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pack_mask_rows_round_trip(n, data):
    """Every width that fills a byte, stops short of one or spills into
    the next, and so of each packed word size of 1, 2, 4 and 8 bytes, on
    zero rows too and on a strided column slice."""
    empty = pack_mask_rows(np.zeros((0, n), dtype=bool))
    assert empty.dtype == np.int64 and empty.shape == (0,)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                              min_size=0, max_size=6))
    bits = np.array(rows, dtype=bool).reshape(len(rows), n)
    expected = [sum(1 << e for e in range(n) if row[e]) for row in rows]
    assert pack_mask_rows(bits).tolist() == expected
    # the same bits as every other column of a wider array
    wide = np.zeros((len(rows), 2 * n), dtype=bool)
    wide[:, ::2] = bits
    assert pack_mask_rows(wide[:, ::2]).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), max_size=200))
def test_pack_mask_at_any_length(bits):
    assert pack_mask(np.array(bits, dtype=bool)) == sum(
        1 << e for e, bit in enumerate(bits) if bit)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 45, 63])
def test_pack_mask_rows_equals_the_powers_product(n):
    """Packing by bytes gives the masks of the (T, n) int64 product with
    the powers of two, also on a column slice of a wider array."""
    bits = np.random.default_rng(n).random((300, n + 3)) < 0.5
    for cols in (bits[:, :n], bits[:, 3:]):
        assert np.array_equal(
            pack_mask_rows(cols),
            cols.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64)))


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
    # and the column are too wide to pack together; the final key spans 6
    # values over 6 trials, so it groups by tables, without a sort
    assert len(dense) == 4


def _counting_dense_rank(monkeypatch):
    """Record the size of every `_dense_rank` call of `group_rows`."""
    calls = []
    original = ocrs.core._dense_rank

    def counting(column):
        calls.append(column.size)
        return original(column)

    monkeypatch.setattr(ocrs.core, "_dense_rank", counting)
    return calls


@settings(max_examples=200, deadline=None)
@given(radices=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       short=st.booleans(), wide=st.booleans(),
       constant=st.integers(0, 2 ** 62), data=st.data())
def test_group_rows_matches_oracle_on_both_sides_of_the_dense_switch(
        radices, short, wide, constant, data):
    """Keys that span exactly as many values as the block has trials, or
    one more, group by tables or by a sort, and both equal the oracle;
    so do blocks of one row, constant columns and columns that need the
    2^63 re-rank."""
    span = math.prod(radices)
    rows = max(1, span - short)
    columns = []
    for radix in radices:
        lo = data.draw(st.sampled_from([0, 5, 2 ** 62 - radix]))
        values = data.draw(st.lists(st.integers(0, radix - 1),
                                    min_size=rows, max_size=rows))
        # both ends of the radix, where the rows leave room for them
        ends = data.draw(st.permutations(range(rows)))[:2]
        for at, value in zip(ends, (0, radix - 1)):
            values[at] = value
        columns.append(np.array(values, dtype=np.int64) + lo)
    columns.append(np.full(rows, constant, dtype=np.int64))
    if wide:
        columns += [np.array(data.draw(st.lists(
            st.sampled_from([0, 2 ** 62]), min_size=rows, max_size=rows)),
            dtype=np.int64) for _ in range(2)]
    with pytest.MonkeyPatch.context() as patch:
        dense = _counting_dense_rank(patch)
        first, inverse = group_rows(columns)
    assert (first.tolist(), inverse.tolist()) == _group_oracle(columns)
    assert first.dtype == inverse.dtype == np.int64
    if not wide:
        spanned = math.prod(int(c.max() - c.min()) + 1 for c in columns)
        assert dense == ([rows] if spanned > rows else [])


def test_group_rows_sorts_keys_wider_than_the_block(monkeypatch):
    """A key that spans more values than the block has trials is ranked
    by one sort, so no table is longer than the block: a span of 2^40
    over 3 trials would not fit in memory as a table."""
    dense = _counting_dense_rank(monkeypatch)
    for column, expected in (([0, 4, 0, 3], ([0, 1, 3], [0, 1, 0, 2])),
                             ([0, 2 ** 40, 0], ([0, 1], [0, 1, 0]))):
        columns = [np.array(column, dtype=np.int64)]
        first, inverse = group_rows(columns)
        assert (first.tolist(), inverse.tolist()) == expected
    assert dense == [4, 3]
    # a span of exactly the block length takes the tables
    first, inverse = group_rows([np.array([7, 4, 7, 5], dtype=np.int64)])
    assert (first.tolist(), inverse.tolist()) == ([0, 1, 3], [0, 1, 0, 2])
    assert dense == [4, 3]


def test_ordered_sum_adds_left_to_right():
    """Left to right, 1e16 + 1.0 rounds back to 1e16; a compensated sum
    (the builtin from Python 3.12 on, or math.fsum) gives 1.0."""
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert ordered_sum(iter([1.0, 2.0 ** 53, 1.0])) == 2.0 ** 53
    assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
