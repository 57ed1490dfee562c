"""Bitmask subsets, fractional points, seeded streams and the trial decoder.

Element subsets are machine-word int bitmasks; all randomness flows from a
single 64-bit master seed through a published counter-based derivation
(Philox keyed by mixed path indices), so trial i is bit-identical across
runs and worker counts.  Every trial loop takes its randomness from
:func:`trial_columns`, which decodes the per-trial uniform rows into
activation masks, raw columns and sampled family codes, and order-free
loops group a block's trials by integer key columns with
:func:`group_rows`, by tables over the key's values when it spans no more
of them than the block has trials, so without a sort.  A loop draws all
its blocks, in row chunks, with one Philox generator re-keyed per block,
into one uniform table of at most ``TABLE_BYTES`` (see
:func:`uniform_blocks`); each chunk is compared once, against the loop's
concatenated threshold row, and its threshold columns, the probability
vectors' and the samplers', are packed into int64 masks of the block's
own (one pack of their whole span when it has at most 63 columns), and a
raw column is valid until the next block is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1

#: Trials are grouped into fixed-size blocks; block j of a loop draws from the
#: derived stream (domain, j) and trial i consumes row (i mod BLOCK) of the
#: block's uniform table.  The mapping trial -> randomness is therefore a pure
#: function of the master seed, independent of worker scheduling.
TRIAL_BLOCK = 8192

#: The most bytes of the one uniform table of a trial loop: a block of more
#: than 16 columns is drawn in row chunks that fit it.
TABLE_BYTES = 1 << 20


def _splitmix64(z: int) -> int:
    """One splitmix64 output step; the finalizer used by stream derivation."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(key: int, index: int) -> int:
    return _splitmix64(key ^ _splitmix64(index & _MASK64))


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation rule for independent substreams.

    Stream ``path = (i_0, i_1, ...)`` uses a Philox generator keyed by
    ``(master_seed, fold(master_seed, i_0, i_1, ...))`` where ``fold`` chains
    splitmix64 over the path indices.  Distinct Philox keys give independent
    streams, so the layout of trials over workers never changes results.
    """

    master_seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("the master seed must lie in [0, 2^64)")

    def stream_key(self, *path: int) -> int:
        key = self.master_seed
        for index in path:
            key = _fold(key, index)
        return key

    def stream(self, *path: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key(path)))

    def rekey(self, generator: np.random.Generator, *path: int) -> None:
        """Restart ``generator``, one that `stream` made, as a fresh
        ``stream(*path)``: its Philox takes the key of ``path``, counter 0
        and an empty buffer, so it draws what a new generator of that path
        draws, at a fraction of the cost of building one."""
        generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": self._key(path)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}

    def _key(self, path: tuple[int, ...]) -> np.ndarray:
        return np.array([self.master_seed, self.stream_key(*path)],
                        dtype=np.uint64)

    def child(self, index: int) -> "SeedSpec":
        """Derived SeedSpec for a sub-experiment (same mixing rule)."""
        return SeedSpec(self.stream_key(index))


def uniform_blocks(seed: SeedSpec, domain: int, trials: int, width: int,
                   block_range: Optional[tuple[int, int]] = None
                   ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start_trial, U)`` chunks of per-trial uniform rows.

    ``U`` has shape ``(count, width)``; trial ``start_trial + i`` owns row
    ``U[i]``.  Block j (trials ``j * TRIAL_BLOCK`` on) draws from stream
    ``(domain, j)``, so any partition of blocks over workers reproduces the
    same per-trial rows.  ``block_range`` restricts iteration to blocks
    ``lo <= j < hi``.

    Each block is drawn in row chunks of ``min(TRIAL_BLOCK, TABLE_BYTES //
    (8 * width))`` rows, one chunk after the other from the block's stream,
    so the chunks of a block, concatenated, are the rows that
    ``random((count, width))`` on that stream gives.  A loop of at most 16
    columns draws each block as one chunk.  The loop allocates one table of
    at most ``TABLE_BYTES`` and draws every chunk into its leading rows, so
    a yielded ``U`` is valid only until the next chunk is drawn; a consumer
    that keeps rows past that copies them.  The loop builds one generator,
    for its first block, and re-keys it for each later block (see
    `SeedSpec.rekey`).
    """
    lo, hi = block_range if block_range is not None else (0, None)
    rows = min(TRIAL_BLOCK, trials, max(1, TABLE_BYTES // (8 * max(width, 1))))
    table = np.empty((rows, width))
    stream = None
    for j, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        if j < lo or (hi is not None and j >= hi):
            continue
        if stream is None:
            stream = seed.stream(domain, j)
        else:
            seed.rekey(stream, domain, j)
        end = min(start + TRIAL_BLOCK, trials)
        for at in range(start, end, rows):
            chunk = table[:min(rows, end - at)]
            stream.random(out=chunk)
            yield at, chunk


def num_blocks(trials: int) -> int:
    return (trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK


def trial_columns(seed: SeedSpec, domain: int, trials: int,
                  segments: Sequence,
                  block_range: Optional[tuple[int, int]] = None
                  ) -> Iterator[tuple[int, list]]:
    """Yield ``(start_trial, columns)`` blocks of decoded per-trial randomness.

    A trial loop declares its uniform row once, as an ordered list of
    segments; each segment owns the next columns of the row, and
    ``columns[k]`` holds segment k decoded for every trial of the block:

    - a probability vector ``p``: ``len(p)`` columns, decoded to an int64
      array of masks with bit e set iff the trial's uniform in column e is
      < p[e] (so ``[x]`` draws R(x), and ``np.full(n, b)`` thins at rate b);
    - an int ``k``: ``k`` raw columns, as the block's (count, k) array;
    - a scheme sampler (see `SchemeSampler`): one column per entry of its
      threshold vectors ``draws``, packed like a probability vector into a
      (count, len(draws)) int64 array and decoded by ``sample_block`` to
      ``(codes, families)``, an int64 family code per trial and an object
      that ``families[code]`` gives each code's family from.

    Rows come from :func:`uniform_blocks` chunk by chunk.  Each chunk is
    compared once with the loop's threshold row, the vectors' and
    samplers' thresholds in their columns and 0 in every raw column (so a
    raw column compares false and is never read).  The chunk's rows
    compare as long flat runs against that row tiled over about
    ``TRIAL_BLOCK`` thresholds, so numpy's inner loop is not one row
    short.  The span from the first threshold column to the last, if it
    has at most 63 columns, is packed once, by `pack_mask_rows`, and each
    vector's and sampler's masks are cut out of that one int64 array by a
    shift and an AND; a wider span packs every segment from column slices
    of the boolean array.  Either way the masks are int64 arrays of the
    block's own, and no block-sized float copy of the threshold columns is
    made.  A raw int segment is a view of the loop's one uniform table
    when the block is one chunk (a loop of at most 16 columns), and
    otherwise is gathered into one buffer of the loop; either way it is
    valid only until the next block is decoded.  Counts over disjoint
    ``block_range`` values add up to the full-range counts.
    """
    layout = []
    thresholds = []  # (first column, vector) of every threshold vector
    width = 0
    for segment in segments:
        if hasattr(segment, "sample_block"):
            count = segment.draw_count
            at = width
            for vector in segment.draws:
                thresholds.append((at, vector))
                at += vector.size
        elif isinstance(segment, int):
            count = segment
        else:
            segment = np.asarray(segment, dtype=float)
            count = segment.size
            thresholds.append((width, segment))
        layout.append((segment, width, width + count))
        width += count
    # the span of the threshold columns, and the row every chunk row is
    # compared with (a raw column compares with 0)
    first = min((at for at, _ in thresholds), default=0)
    last = max((at + vector.size for at, vector in thresholds), default=0)
    span = last - first
    threshold_row = np.zeros(width)
    for at, vector in thresholds:
        threshold_row[at:at + vector.size] = vector
    # the row repeated over about TRIAL_BLOCK thresholds, so that numpy's
    # inner loop runs that long rather than one row
    tiled = np.tile(threshold_row, (max(1, TRIAL_BLOCK // max(width, 1)), 1))
    raw_width = sum(hi - lo for segment, lo, hi in layout
                    if isinstance(segment, int))
    buffer = None  # raw columns of the blocks drawn in more than one chunk
    for at, chunk in uniform_blocks(seed, domain, trials, width, block_range):
        offset = at % TRIAL_BLOCK
        if offset == 0:
            start, count = at, min(TRIAL_BLOCK, trials - at)
            whole = len(chunk) == count
            if not whole and buffer is None:
                buffer = np.empty((min(TRIAL_BLOCK, trials), raw_width))
            columns, packs, gathers, samplers = [], [], [], []
            used = 0
            for segment, lo, hi in layout:
                if isinstance(segment, int):
                    if whole:
                        columns.append(chunk[:, lo:hi])
                        continue
                    cols = buffer[:count, used:used + segment]
                    gathers.append((lo, hi, cols))
                    used += segment
                elif isinstance(segment, np.ndarray):
                    cols = np.empty(count, dtype=np.int64)
                    packs.append((lo - first, hi - first, cols))
                else:
                    cols = np.empty((count, len(segment.draws)),
                                    dtype=np.int64)
                    lo -= first
                    for j, vector in enumerate(segment.draws):
                        packs.append((lo, lo + vector.size, cols[:, j]))
                        lo += vector.size
                    samplers.append((len(columns), segment))
                columns.append(cols)
        rows = slice(offset, offset + len(chunk))
        if packs:
            below = _compare(chunk, tiled)[:, first:last]
            if span < 64:
                # one pack of the span; each mask is a bit field of it
                packed = pack_mask_rows(below)
                for lo, hi, cols in packs:
                    np.right_shift(packed, lo, out=cols[rows])
                    np.bitwise_and(cols[rows], (1 << (hi - lo)) - 1,
                                   out=cols[rows])
            else:
                for lo, hi, cols in packs:
                    cols[rows] = pack_mask_rows(below[:, lo:hi])
        for lo, hi, cols in gathers:
            cols[rows] = chunk[:, lo:hi]
        if rows.stop == count:
            for k, sampler in samplers:
                columns[k] = sampler.sample_block(columns[k])
            yield start, columns


def _compare(chunk: np.ndarray, tiled: np.ndarray) -> np.ndarray:
    """``chunk < tiled[0]`` as a bool array, for ``tiled`` the threshold row
    repeated ``len(tiled)`` times: the chunk's leading whole tiles of rows
    compare as long flat runs, and the rest row by row."""
    tile = len(tiled)
    whole = len(chunk) - len(chunk) % tile
    runs = (whole // tile, tiled.size)
    below = np.empty(chunk.shape, dtype=bool)
    np.less(chunk[:whole].reshape(runs), tiled.reshape(-1),
            out=below[:whole].reshape(runs))
    np.less(chunk[whole:], tiled[0], out=below[whole:])
    return below


def block_states(columns: Sequence, rows: Optional[np.ndarray] = None
                 ) -> list[tuple]:
    """Per-trial state tuples of a block of mask and sampler columns (see
    `trial_columns`): each mask as a Python int, each ``(codes, families)``
    column as the trial's family.  ``rows``, if given, picks the trials; by
    default every trial of the block, in trial order."""
    picked = []
    for column in columns:
        if isinstance(column, tuple):
            codes, families = column
            codes = codes if rows is None else codes[rows]
            picked.append([families[c] for c in codes.tolist()])
        else:
            picked.append((column if rows is None else column[rows]).tolist())
    return list(zip(*picked))


def group_rows(columns: Sequence[np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Group a block's trials by the tuple of their entries in ``columns``.

    ``columns`` are nonempty, equal-length nonnegative int64 key columns.
    Returns ``(first, inverse)``: ``first`` holds the index of the first
    trial of each distinct tuple, ascending, and ``inverse[i]`` is the
    position in ``first`` of trial i's tuple.  The columns are packed into
    one int64 key in mixed radix (each column offset by its minimum, so a
    constant column adds nothing); when the product of the radices would
    pass 2^63, the key so far is re-ranked densely by ``np.unique`` first,
    so the grouping is exact at any width.

    A key that spans at most as many values as the block has trials is
    grouped without a sort, by tables of that span: each value's first
    trial by ``np.minimum.at``, the first trials in trial order, and
    ``inverse`` by one gather of each value's rank.  A wider key is ranked
    by ``np.unique`` first, so no table is longer than the block.
    """
    trials = len(columns[0])
    key = np.zeros(trials, dtype=np.int64)
    span = 1
    for column in columns:
        column = np.asarray(column, dtype=np.int64)
        lo = int(column.min())
        radix = int(column.max()) - lo + 1
        if radix == 1:
            continue
        column = column - lo
        if span * radix > 1 << 63:
            span, key = _dense_rank(key)
            if span * radix > 1 << 63:
                radix, column = _dense_rank(column)
        key = column if span == 1 else key * radix + column
        span *= radix
    if span > trials:
        span, key = _dense_rank(key)
    # tables over the key's span, at most one entry per trial: each key's
    # first trial, then the groups in the order their first trials come
    index = np.arange(trials)
    first = np.full(span, trials, dtype=np.int64)
    np.minimum.at(first, key, index)
    leads = np.flatnonzero(first[key] == index)
    rank = np.empty(span, dtype=np.int64)
    rank[key[leads]] = np.arange(leads.size)
    return leads, rank[key]


def _dense_rank(column: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of distinct values of ``column`` and each entry's rank
    among them."""
    distinct, inverse = np.unique(column, return_inverse=True)
    return distinct.size, inverse.reshape(-1).astype(np.int64, copy=False)


def ordered_sum(values: Iterable):
    """``values`` added one by one from the left, from the int 0.

    The builtin ``sum`` of floats is compensated from Python 3.12 on
    (Neumaier summation), so it can differ in the last bits from the same
    sum on earlier versions; every float sum that reaches a report, a CSV
    or an order choice goes through this loop instead.  As with the
    builtin, an empty sum is the int 0.
    """
    total = 0
    for v in values:
        total += v
    return total


def subset_sums(values: np.ndarray, elements: Iterable[int]) -> np.ndarray:
    """``values[e]`` summed over every subset of ``elements`` by doubling:
    bit j of an index picks the j-th of ``elements``, and every sum adds in
    their order from a zero of the dtype of ``values``."""
    elements = list(elements)
    sums = np.zeros(1 << len(elements), dtype=values.dtype)
    for j, e in enumerate(elements):
        half = 1 << j
        np.add(sums[:half], values[e], out=sums[half:2 * half])
    return sums


def subset_probs(x: np.ndarray, elements: Iterable[int]) -> np.ndarray:
    """Pr[R(x) meets ``elements`` in S] for every subset S of ``elements``,
    indexed and multiplied out by doubling as in `subset_sums`."""
    probs = np.ones(1)
    for e in elements:
        probs = np.concatenate([probs * (1.0 - x[e]), probs * x[e]])
    return probs


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcounts(k: int, within: int = -1) -> np.ndarray:
    """``popcount(i & within)`` for every index i in 0..2^k - 1, as uint8:
    the subset sums of the bits of ``within`` (every bit by default)."""
    bits = np.array([within >> j & 1 for j in range(k)], dtype=np.uint8)
    return subset_sums(bits, range(k))


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class FractionalPoint:
    """A point ``x`` in ``[0,1]^n`` with finite coordinates."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("x must be a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise ValueError("coordinates must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FractionalPoint is immutable")

    def __reduce__(self):  # the guard above blocks the default restore
        return FractionalPoint, (self.values,)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __getitem__(self, e: int) -> float:
        return float(self.values[e])

    def __repr__(self) -> str:
        return f"FractionalPoint({self.values.tolist()})"


def scale_point(x: FractionalPoint, b: float) -> FractionalPoint:
    """Coordinate-wise product ``b * x``."""
    if not 0.0 <= b <= 1.0:
        raise ValueError("scale must lie in [0, 1]")
    return FractionalPoint(b * x.values)


def read_field(name: str, value, convert: Callable):
    """``convert(value)`` for the instance field ``name``: a value of the
    wrong type or shape (a TypeError or ValueError from ``convert``) is a
    ValueError that names the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad '{name}': {exc}") from exc


def field(obj, name: str, convert: Callable):
    """``convert(obj[name])`` for the field ``name`` of the JSON object
    ``obj``, by `read_field`; a missing field (or an ``obj`` that is not an
    object) is a ValueError that names it.  A ``convert`` that reads fields
    of its own nests the names: ``bad 'inner': missing field 'n'``."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"missing field '{name}'")
    return read_field(name, obj[name], convert)


def json_int(value) -> int:
    """A JSON integer as it is: a float, a boolean or a string is a
    TypeError rather than truncated or parsed."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def json_float(value) -> float:
    """A JSON number as a float: a boolean or a string is a TypeError
    rather than read as 1.0 or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def json_str(value) -> str:
    """A JSON string as it is: any other value is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"expected a JSON string, got {value!r}")
    return value


def int_list(value) -> list[int]:
    """A JSON list of JSON integers (see `json_int`)."""
    return [json_int(v) for v in value]


def float_list(value) -> list[float]:
    """A JSON list of JSON numbers (see `json_float`)."""
    return [json_float(v) for v in value]


def pack_mask(bits: np.ndarray) -> int:
    """The int mask with bit i set iff ``bits[i]``, at any length."""
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def ground_size(n: int) -> int:
    """``n`` if a ground set of ``n`` elements fits the trial loops, which
    pack each trial's subset of it into one int64 mask: n <= 63.  Instance
    readers check each ground set where they parse it, so the error names
    the field."""
    if n >= 64:
        raise ValueError(f"a ground set of {n} elements; int64 mask packing "
                         f"holds at most 63 elements")
    return n


def pack_mask_rows(bits: np.ndarray) -> np.ndarray:
    """Row-wise bitmask packing of a boolean (T, n) array into int64 masks.

    Copies the bits into a zeroed (T, 8 * w) array, for the fewest bytes w
    of 1, 2, 4 or 8 that hold n bits, packs that with one flat
    ``np.packbits`` call (little bit order) and widens the w-byte
    little-endian words to int64, so no (T, n) integer array is made.
    Raises ValueError for n >= 64, which int64 masks cannot hold (see
    `ground_size`).
    """
    count, n = bits.shape
    ground_size(n)
    width = 1
    while 8 * width < n:
        width *= 2
    padded = np.zeros((count, 8 * width), dtype=bool)
    padded[:, :n] = bits
    return np.packbits(padded, bitorder="little").view(
        f"<u{width}").astype(np.int64)
