"""Bitmask subsets, fractional points, seeded streams and the trial decoder.

Element subsets are machine-word int bitmasks; all randomness flows from a
single 64-bit master seed through a published counter-based derivation
(Philox keyed by mixed path indices), so trial i is bit-identical across
runs and worker counts.  Every trial loop takes its randomness from
:func:`trial_columns`, which decodes the per-trial uniform rows into
activation masks, raw columns and sampled family codes, and order-free
loops group a block's trials by integer key columns with
:func:`group_rows`.
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

    def stream_key(self, *path: int) -> int:
        key = self.master_seed & _MASK64
        for index in path:
            key = _fold(key, index)
        return key

    def stream(self, *path: int) -> np.random.Generator:
        key = np.array([self.master_seed & _MASK64, self.stream_key(*path)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "SeedSpec":
        """Derived SeedSpec for a sub-experiment (same mixing rule)."""
        return SeedSpec(self.stream_key(index))


def uniform_blocks(seed: SeedSpec, domain: int, trials: int, width: int,
                   block_range: Optional[tuple[int, int]] = None
                   ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start_trial, U)`` blocks of per-trial uniform rows.

    ``U`` has shape ``(count, width)``; trial ``start_trial + i`` owns row
    ``U[i]``.  Block j draws from stream ``(domain, j)``, so any partition
    of blocks over workers reproduces the same per-trial rows.
    ``block_range`` restricts iteration to blocks ``lo <= j < hi``.
    """
    lo, hi = block_range if block_range is not None else (0, None)
    for j, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        if j < lo or (hi is not None and j >= hi):
            continue
        count = min(TRIAL_BLOCK, trials - start)
        gen = seed.stream(domain, j)
        yield start, gen.random((count, width))


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
    - a scheme sampler (``draw_count`` and ``sample_block``): its
      ``draw_count`` columns, decoded to ``(codes, families)``, an int64
      family code per trial and the block's distinct families.

    Rows come from :func:`uniform_blocks`, so counts over disjoint
    ``block_range`` values add up to the full-range counts.
    """
    layout = []
    width = 0
    for segment in segments:
        if hasattr(segment, "sample_block"):
            count = segment.draw_count
        elif isinstance(segment, int):
            count = segment
        else:
            segment = np.asarray(segment, dtype=float)
            count = segment.size
        layout.append((segment, width, width + count))
        width += count
    for start, block in uniform_blocks(seed, domain, trials, width,
                                       block_range):
        columns = []
        for segment, lo, hi in layout:
            cols = block[:, lo:hi]
            if isinstance(segment, int):
                columns.append(cols)
            elif isinstance(segment, np.ndarray):
                columns.append(pack_mask_rows(cols < segment))
            else:
                columns.append(segment.sample_block(cols))
        yield start, columns


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
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
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
    count, inverse = _dense_rank(key)
    # the first trial of each group (np.unique's return_index would sort
    # the whole block a second time, stably)
    first = np.full(count, inverse.size, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(inverse.size))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


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


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def json_int(value) -> int:
    """A JSON integer as it is: a float, a boolean or a string is a
    TypeError rather than truncated or parsed."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def int_list(value) -> list[int]:
    """A JSON list of JSON integers (see `json_int`)."""
    return [json_int(v) for v in value]


def float_list(value) -> list[float]:
    """A JSON list of numbers, each converted by ``float``."""
    return [float(v) for v in value]


def pack_mask(bits: np.ndarray) -> int:
    mask = 0
    for i in np.flatnonzero(bits):
        mask |= 1 << int(i)
    return mask


def pack_mask_rows(bits: np.ndarray) -> np.ndarray:
    """Row-wise bitmask packing of a boolean (T, n) array into int64 masks.

    Raises ValueError for n >= 64, which int64 masks cannot hold.
    """
    if bits.shape[1] >= 64:
        raise ValueError(f"int64 mask packing holds at most 63 elements, "
                         f"got {bits.shape[1]}")
    powers = (1 << np.arange(bits.shape[1], dtype=np.int64))
    return bits.astype(np.int64) @ powers
