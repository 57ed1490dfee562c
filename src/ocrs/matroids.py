"""Matroid oracles: independence, rank, contraction/restriction views.

The independence query is the primitive; rank is derived by the matroid
greedy and memoized per subset bitmask (desk scale, n <= ~24).  Uniform
and partition matroids are laminar families (one set; disjoint sets that
cover the ground set), so :class:`LaminarMatroid` holds the one
independence test, closed-form rank, rank-table fill and load of all
three.
Oracles are immutable after construction; memo dicts only cache pure
functions, so concurrent readers always observe consistent results.

:class:`MatroidPolytope` answers every question about the scaled polytope
``b*P = {x >= 0 : x(S) <= b*r(S) for all S}``: membership, the largest
feasible step along a coordinate, the smallest feasible scale, and the
exact separation of a linear program's rank rows (the most violated rank
row at a rational point).  It enumerates all subsets of the ground
set, so it is limited to ``EXHAUSTIVE_LIMIT`` elements; callers may set
lower limits of their own.  Every caller takes it from
``Matroid.polytope()``, which builds it once per matroid.  The uniform,
partition, laminar, graphic and explicit matroids fill its rank table with
numpy; every other matroid fills it with one ``indep`` call per subset.
The matroid axioms are audited on the same table
(:func:`check_matroid_axioms`).
"""

from __future__ import annotations

import logging
import operator
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (FractionalPoint, field, ground_size, int_list, iter_bits,
                   json_int, json_str, popcounts, subset_sums)

log = logging.getLogger("ocrs.matroids")

#: Exhaustive subset enumeration (polytope oracle, axiom audits) is limited
#: to this many elements.
EXHAUSTIVE_LIMIT = 24


class Matroid:
    """Base matroid over index space ``0..n-1`` with ground set ``ground_mask``.

    Subclasses implement ``_indep(mask)`` for ``mask`` a subset of the ground
    set.  ``rank``/``indep`` are memoized here.  Masks may be any
    integer type (``numpy.int64`` included); they are coerced to ``int`` on
    entry, so memo keys are Python ints.
    """

    kind = "abstract"

    def __init__(self, n: int, ground_mask: Optional[int] = None):
        self.n = n
        self.ground_mask = (1 << n) - 1 if ground_mask is None else ground_mask
        self._indep_cache: dict[int, bool] = {}
        self._rank_cache: dict[int, int] = {}
        self._polytope: Optional[MatroidPolytope] = None

    def _indep(self, mask: int) -> bool:
        raise NotImplementedError

    def _check_ground(self, mask: int) -> None:
        if mask & ~self.ground_mask:
            raise ValueError("subset has elements outside the ground set")

    def indep(self, mask: int) -> bool:
        mask = operator.index(mask)
        self._check_ground(mask)
        cached = self._indep_cache.get(mask)
        if cached is None:
            cached = self._indep(mask)
            self._indep_cache[mask] = cached
        return cached

    def rank(self, mask: int) -> int:
        """Size of a maximum independent subset of ``mask``."""
        mask = operator.index(mask)
        self._check_ground(mask)
        return self._rank(mask)

    def _rank(self, mask: int) -> int:
        """The matroid greedy, memoized; subclasses with a closed form
        override it."""
        cached = self._rank_cache.get(mask)
        if cached is None:
            kept = 0
            for e in iter_bits(mask):
                if self.indep(kept | (1 << e)):
                    kept |= 1 << e
            cached = kept.bit_count()
            self._rank_cache[mask] = cached
        return cached

    def spans(self, mask: int, e: int) -> bool:
        """Whether adding element ``e`` leaves the rank of ``mask`` unchanged."""
        mask = operator.index(mask)
        bit = 1 << operator.index(e)
        if mask & bit:
            return True
        return self.rank(mask | bit) == self.rank(mask)

    def loops(self) -> int:
        """Mask of the loops: elements of rank 0, in no independent set."""
        return sum(1 << e for e in iter_bits(self.ground_mask)
                   if self.rank(1 << e) == 0)

    def polytope(self) -> "MatroidPolytope":
        """The matroid's ``MatroidPolytope``, built on first use and shared
        by every caller after that; ValueError above EXHAUSTIVE_LIMIT
        elements."""
        if self._polytope is None:
            self._polytope = MatroidPolytope(self)
            own = type(self)._fill_ranks is not Matroid._fill_ranks
            log.info("rank table: %s fill, %d subsets",
                     self.kind if own else "indep", self._polytope.ranks.size)
        return self._polytope

    def _fill_ranks(self) -> np.ndarray:
        """``r(S)`` as uint8 for every subset S of the ground set, at index
        ``sum(2^j for the j-th ground element in S)``.

        The greedy basis of S + e (e above every element of S) is the greedy
        basis of S, plus e if that stays independent: the same ascending
        scan that ``rank`` makes, with one ``indep`` call per subset.
        Subclasses with a closed form override it.
        """
        bases = [0]
        for e in iter_bits(self.ground_mask):
            bit = 1 << e
            bases += [base | bit if self.indep(base | bit) else base
                      for base in bases]
        return np.array([base.bit_count() for base in bases], dtype=np.uint8)

    def full_rank(self) -> int:
        return self.rank(self.ground_mask)

    def load(self, values: np.ndarray) -> Optional[float]:
        """The smallest s with ``values`` in s * P in closed form, or None
        if the class has none; the polytope's ``min_scale`` enumerates
        subsets instead."""
        return None

    def size(self) -> int:
        return self.ground_mask.bit_count()


class GraphicMatroid(Matroid):
    """Forests of a multigraph; ground set elements are edges."""

    kind = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError("'edges' endpoint outside vertex range")
        self.num_vertices = num_vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)

    def _indep(self, mask: int) -> bool:
        parent = list(range(self.num_vertices))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in iter_bits(mask):
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def _fill_ranks(self) -> np.ndarray:
        """Component labels of every subset, doubled one edge at a time.

        Row i of ``labels`` holds, for each vertex that a later edge still
        touches, the label of its component in the forest of subset i.
        Adding edge j to every subset doubles the rows: where its ends
        carry different labels the edge merges two components, so the rank
        grows by one and one label replaces the other.  Touched vertices
        are relabelled 0..t-1, so the label dtype holds any ``vertices``.
        """
        last = {}
        for j, (u, v) in enumerate(self.edges):
            last[u] = last[v] = j
        dtype = np.min_scalar_type(len(last))
        ids = {w: i for i, w in enumerate(last)}
        ranks = np.zeros(1, dtype=np.uint8)
        labels = np.zeros((1, 0), dtype=dtype)
        columns: list[int] = []
        for j, (u, v) in enumerate(self.edges):
            for w in (u, v):
                if w not in columns:  # first touched: a component of its own
                    columns.append(w)
                    labels = np.column_stack(
                        [labels, np.full(len(labels), ids[w], dtype)])
            a = labels[:, columns.index(u), None]
            b = labels[:, columns.index(v), None]
            keep = [c for c, w in enumerate(columns) if last[w] > j]
            columns = [columns[c] for c in keep]
            rows = len(labels)
            doubled = np.empty((2 * rows, len(keep)), dtype=dtype)
            np.take(labels, keep, axis=1, out=doubled[:rows])
            doubled[rows:] = doubled[:rows]
            np.copyto(doubled[rows:], a, where=doubled[:rows] == b)
            ranks = np.concatenate([ranks, ranks + (a != b)[:, 0]])
            labels = doubled
        return ranks


class LaminarMatroid(Matroid):
    """Capacity bounds on a laminar (nested-or-disjoint) family of sets.

    The sets form a tree, built once: equal sets are one node with the
    least capacity, each capacity is capped at the set size, and the
    ground set, uncapped, is the root, so uncovered elements are free.
    ``rank``, the rank table and ``load`` read that tree;
    `UniformMatroid` and `PartitionMatroid` are laminar families too.
    """

    kind = "laminar"

    def __init__(self, n: int, sets: Sequence[Iterable[int]],
                 capacities: Sequence[int]):
        super().__init__(n)
        if len(sets) != len(capacities):
            raise ValueError("one capacity per set required")
        _check_capacities(capacities)
        masks = []
        for s in sets:
            m = 0
            for e in s:
                if not 0 <= e < n:
                    raise ValueError(f"'sets' element {e} outside ground set")
                m |= 1 << e
            masks.append(m)
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                inter = a & b
                if inter and inter != a and inter != b:
                    raise ValueError("family is not laminar")
        self.set_masks = tuple(masks)
        self.capacities = tuple(int(c) for c in capacities)
        caps = {self.ground_mask: n}
        for sm, c in zip(self.set_masks, self.capacities):
            caps[sm] = min(caps.get(sm, c), c, sm.bit_count())
        # ascending size puts children first and the root last; the
        # smallest set that contains a set is its parent
        order = sorted(caps, key=int.bit_count)
        kids: list[list[int]] = [[] for _ in order]
        for i, sm in enumerate(order[:-1]):
            kids[next(j for j in range(i + 1, len(order))
                      if not sm & ~order[j])].append(i)
        #: (own elements, child positions largest first, capacity) per
        #: node, children before parents
        self._nodes: list[tuple[int, tuple[int, ...], int]] = []
        for sm, below in zip(order, kids):
            below.sort(key=lambda i: order[i].bit_count(), reverse=True)
            own = sm
            for i in below:
                own &= ~order[i]
            self._nodes.append((own, tuple(below), caps[sm]))

    def _indep(self, mask: int) -> bool:
        return all((mask & sm).bit_count() <= c
                   for sm, c in zip(self.set_masks, self.capacities))

    def _rank(self, mask: int) -> int:
        """Nested mins up the tree: r_A(S) is the least of A's capacity and
        the children's ranks plus |S & A - children|."""
        ranks: list[int] = []
        for own, below, cap in self._nodes:
            r = (mask & own).bit_count()
            for i in below:
                r += ranks[i]
            ranks.append(r if r < cap else cap)  # min(), without the call
        return ranks[-1]

    def _fill_ranks(self) -> np.ndarray:
        """`_rank` on every subset at once, one uint8 table per node."""
        n = self.n

        def fill(node: int) -> np.ndarray:
            # the largest child's table is the running sum; every other
            # child has at most half of the node's elements, so at most
            # log2(n) + 1 tables are alive at once
            own, below, cap = self._nodes[node]
            ranks = fill(below[0]) if below else np.zeros(1 << n, np.uint8)
            ranks += popcounts(n, own)
            for kid in below[1:]:
                ranks += fill(kid)
            return np.minimum(ranks, cap, out=ranks)

        return fill(len(self._nodes) - 1)

    def load(self, values: np.ndarray) -> float:
        """The largest x_e and x(S) / c over the sets S of capacity c >= 1.
        The constraint matrix of a laminar family with the singletons added
        is totally unimodular, so those rows and x >= 0 are the whole
        polytope.  That is ``min_scale`` for any x that is 0 on the loops;
        an x positive on a loop is in no s * P, and the schemes refuse it
        when they bind."""
        return max(float(values.max(initial=0.0)),
                   _block_load(zip(self.set_masks, self.capacities), values))


def _block_load(blocks: Iterable[tuple[int, int]],
                values: np.ndarray) -> float:
    """The largest x(B) / c over the (set mask B, capacity c) pairs with
    c >= 1 and B nonempty, 0.0 if there are none."""
    load = 0.0
    for block, capacity in blocks:
        if capacity and block:
            load = max(load, values[list(iter_bits(block))].sum() / capacity)
    return float(load)


class UniformMatroid(LaminarMatroid):
    """All subsets of size at most ``k`` are independent: the laminar
    family of the ground set alone, with capacity ``k``."""

    kind = "uniform"

    def __init__(self, n: int, k: int):
        if k < 0:
            raise ValueError("rank bound must be nonnegative")
        super().__init__(n, [range(n)], [k])
        self.k = k


class PartitionMatroid(LaminarMatroid):
    """Per-block cardinality caps over a partition of the ground set: the
    laminar family of the blocks."""

    kind = "partition"

    def __init__(self, blocks: Sequence[Iterable[int]],
                 capacities: Sequence[int]):
        block_masks = []
        seen = 0
        top = -1
        for block in blocks:
            m = 0
            for e in block:
                if seen >> e & 1:
                    raise ValueError("blocks must be disjoint")
                m |= 1 << e
                top = max(top, e)
            seen |= m
            block_masks.append(m)
        if len(capacities) != len(block_masks):
            raise ValueError("one capacity per block required")
        _check_capacities(capacities)
        n = top + 1
        if seen != (1 << n) - 1:
            raise ValueError("blocks must cover the ground set")
        super().__init__(n, [list(iter_bits(m)) for m in block_masks],
                         capacities)


class ExplicitMatroid(Matroid):
    """Matroid given by its list of bases, on at most ``EXHAUSTIVE_LIMIT``
    elements.  Its rank table is filled from the bases and audited at
    construction; ``indep`` and ``rank`` read the table."""

    kind = "explicit"

    def __init__(self, n: int, bases: Sequence[Iterable[int]]):
        if n > EXHAUSTIVE_LIMIT:
            raise ValueError(f"explicit matroid 'n' is limited to "
                             f"{EXHAUSTIVE_LIMIT} elements")
        super().__init__(n)
        base_masks = set()
        for b in bases:
            m = 0
            for e in b:
                if not 0 <= e < n:
                    raise ValueError(f"'bases' element {e} outside ground "
                                     "set")
                m |= 1 << e
            base_masks.add(m)
        if not base_masks:
            raise ValueError("'bases' must not be empty")
        sizes = {m.bit_count() for m in base_masks}
        if len(sizes) != 1:
            raise ValueError("'bases' must share one cardinality")
        self.base_masks = tuple(sorted(base_masks))
        report = check_matroid_axioms(self)
        if not report.ok:
            raise ValueError(f"'bases' do not define a matroid: "
                             f"{report.failure}")

    def _fill_ranks(self) -> np.ndarray:
        """Every subset of a base is independent: close the bases downward
        one element at a time, then r(S) is the largest independent size
        below S, a max over the subsets taken one element at a time."""
        n = self.n
        indep = np.zeros(1 << n, dtype=bool)
        indep[list(self.base_masks)] = True
        for e in range(n):
            pairs = indep.reshape(-1, 2, 1 << e)
            pairs[:, 0] |= pairs[:, 1]
        ranks = popcounts(n)
        ranks[~indep] = 0
        for e in range(n):
            pairs = ranks.reshape(-1, 2, 1 << e)
            np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
        return ranks

    def _indep(self, mask: int) -> bool:
        return self._rank(mask) == mask.bit_count()

    def _rank(self, mask: int) -> int:
        return int(self.polytope().ranks[mask])


class MatroidView(Matroid):
    """``(M / contracted) | kept``: contraction then restriction.

    A set S ⊆ kept is independent iff rank(S ∪ contracted) equals
    |S| + rank(contracted) in the base matroid.  Element indices are shared
    with the base matroid.
    """

    kind = "view"

    def __init__(self, base: Matroid, contracted: int, kept: int):
        if contracted & kept:
            raise ValueError("contracted and kept sets must be disjoint")
        base._check_ground(contracted | kept)
        super().__init__(base.n, ground_mask=kept)
        self.base = base
        self.contracted = contracted
        self.contracted_rank = base.rank(contracted)

    def _rank(self, mask: int) -> int:
        cached = self._rank_cache.get(mask)
        if cached is None:
            cached = self.base.rank(mask | self.contracted) - self.contracted_rank
            self._rank_cache[mask] = cached
        return cached

    def _indep(self, mask: int) -> bool:
        return self.rank(mask) == mask.bit_count()


def _check_capacities(capacities: Sequence[int]) -> None:
    if any(c < 0 for c in capacities):
        raise ValueError("'capacities' must be nonnegative")


def max_weight_independent(m: Matroid, weights: Sequence[float]) -> int:
    """Greedy maximum-weight independent set; nonpositive weights dropped.

    Ties broken by ascending element index for determinism.
    """
    order = sorted(iter_bits(m.ground_mask), key=lambda e: (-weights[e], e))
    kept = 0
    for e in order:
        if weights[e] <= 0:
            break
        if m.indep(kept | (1 << e)):
            kept |= 1 << e
    return kept


class MatroidPolytope:
    """The polytope ``P = {x >= 0 : x(S) <= r(S) for all S}`` of a matroid,
    by enumeration of every subset S of the ground set.

    ``ranks[i]`` (uint8) is the rank of the subset whose bit j is bit j of
    ``i`` for the j-th ground element, so index arithmetic (``i | k``,
    ``i & k``) is set arithmetic; on a ground set 0..k-1 (every matroid
    built from JSON; ``identity``) the index is the mask.  Widen ranks before
    subtracting them.  Subset sums are `subset_sums` over the ground
    elements in ascending order, which adds up x(S) in the same order as
    ``sum(x[e] for e in iter_bits(S))``.
    """

    def __init__(self, m: Matroid):
        if m.size() > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive membership check limited to "
                             f"{EXHAUSTIVE_LIMIT} elements")
        self.elements = list(iter_bits(m.ground_mask))
        self.ranks = m._fill_ranks()
        self.identity = m.ground_mask == (1 << len(self.elements)) - 1

    def index(self, mask: int) -> int:
        """Table index of ``mask``, a subset of the ground set."""
        if self.identity:
            return mask
        return sum(1 << j for j, e in enumerate(self.elements)
                   if mask >> e & 1)

    def mask(self, index: int) -> int:
        """The subset at table index ``index``."""
        if self.identity:
            return index
        return sum(1 << e for j, e in enumerate(self.elements)
                   if index >> j & 1)

    def max_violation(self, values: np.ndarray, b: float) -> float:
        """Largest ``x(S) - b*r(S)``; x is in b*P iff this is at most 0."""
        return float((subset_sums(values, self.elements)
                      - b * self.ranks).max())

    def max_step(self, values: np.ndarray, e: int) -> float:
        """Largest d >= 0 with x + d * unit_e in P: the least slack
        ``r(S) - x(S)`` over the subsets S that contain e."""
        j = self.elements.index(e)
        slack = self.ranks - subset_sums(values, self.elements)
        return max(float(slack.reshape(-1, 2, 1 << j)[:, 1, :].min()), 0.0)

    def min_scale(self, values: np.ndarray) -> float:
        """Smallest s >= 0 with ``x(S) <= s*r(S)`` on every subset S of
        positive rank (subsets of rank 0 are not constrained)."""
        positive = self.ranks > 0
        ratios = (subset_sums(values, self.elements)[positive]
                  / self.ranks[positive])
        return float(ratios.max(initial=0.0))

    def max_excess(self, values: Sequence[int], scale: int) -> tuple[int, int]:
        """Largest ``y(S) - scale*r(S)`` over the nonempty subsets S, with
        the first S (ascending mask order) that reaches it, for integer
        ``values[e]`` = ``scale * y_e``.

        Exact: the sums are Python integers (numpy object arrays), so no
        magnitude overflows.  Subsets are swept in blocks of
        ``2**_EXCESS_BLOCK_BITS``: the sums of the low and the high elements
        are kept apart, 2^12 + 2^(k-12) integers for k elements, not 2^k.
        """
        values = np.array(values, dtype=object)
        low = subset_sums(values, self.elements[:_EXCESS_BLOCK_BITS])
        high = subset_sums(values, self.elements[_EXCESS_BLOCK_BITS:])
        width = low.size
        best, best_index = None, 0
        for h, offset in enumerate(high.tolist()):
            ranks = self.ranks[h * width:(h + 1) * width].astype(object)
            excess = low + offset - ranks * scale
            first = 1 if h == 0 else 0  # skip the empty set
            if excess.size > first:
                i = first + int(np.argmax(excess[first:]))
                if best is None or excess[i] > best:
                    best, best_index = excess[i], h * width + i
        if best is None:
            raise ValueError("the ground set is empty")
        return int(best), self.mask(best_index)

    def closures(self) -> np.ndarray:
        """``cl(S) = S + {e : r(S + e) = r(S)}`` for every subset S, as an
        int32 table index at S's index."""
        closures = np.arange(self.ranks.size, dtype=np.int32)
        for j in range(len(self.elements)):
            ranks = self.ranks.reshape(-1, 2, 1 << j)
            without = closures.reshape(-1, 2, 1 << j)[:, 0]
            np.bitwise_or(without, 1 << j, out=without,
                          where=ranks[:, 1] == ranks[:, 0])
        return closures


#: ``MatroidPolytope.max_excess`` sums subsets of this many elements at once.
_EXCESS_BLOCK_BITS = 12


def in_scaled_matroid_polytope(m: Matroid, x: FractionalPoint, b: float
                               ) -> bool:
    """Whether ``x(S) - b * rank(S) <= 1e-9`` holds for every subset of the
    ground set (exhaustive; at most ``EXHAUSTIVE_LIMIT`` elements)."""
    if x.n != m.n:
        raise ValueError("point dimension must match the ground set")
    return m.polytope().max_violation(x.values, b) <= 1e-9


class AxiomReport:
    """Outcome of a matroid axiom audit: ``axiom`` names the axiom that
    failed ("" when ``ok``) and ``failure`` says where."""

    __slots__ = ("ok", "axiom", "failure")

    def __init__(self, ok: bool, axiom: str = "", failure: str = ""):
        self.ok = ok
        self.axiom = axiom
        self.failure = failure

    def __bool__(self) -> bool:
        return self.ok


def check_matroid_axioms(m: Matroid) -> AxiomReport:
    """The rank axioms in local form on ``m.polytope().ranks``: each element
    adds 0 or 1 to the rank of every set not holding it (``unit
    increase``), ``r(S+e) + r(S+f) >= r(S+e+f) + r(S)`` for every e < f
    and S holding neither (``submodularity``), and ``r(empty) = 0``.
    Together they are equivalent to the matroid axioms (Oxley, *Matroid
    Theory*, 1.3).  Checked in that order; the first failure is reported
    with its elements and a witness set S.

    The audit certifies the table.  A table filled by the greedy from an
    ``_indep`` that is not down-closed, or that has the empty set
    dependent, can still be a rank function; every matroid built from
    JSON is down-closed with the empty set independent.
    """
    table = m.polytope()
    ranks = table.ranks

    def witness(bad: np.ndarray, *bits: int) -> str:
        # the first True of bad, whose flat index skips the table bits
        # given (ascending), as a subset of the ground set
        index = int(np.argmax(bad))
        for bit in bits:
            index = index >> bit << (bit + 1) | index & ((1 << bit) - 1)
        return str(list(iter_bits(table.mask(index))))

    for j, e in enumerate(table.elements):
        pairs = ranks.reshape(-1, 2, 1 << j)
        # the uint8 difference wraps where the rank falls, so "> 1" holds
        # where it falls or jumps
        bad = pairs[:, 1] - pairs[:, 0] > 1
        if bad.any():
            return AxiomReport(False, "unit increase",
                               f"unit increase fails for element {e} at "
                               f"S={witness(bad, j)}")
    for i, f in enumerate(table.elements):
        for j, e in enumerate(table.elements[:i]):
            quad = ranks.reshape(-1, 2, 1 << (i - j - 1), 2, 1 << j)
            bad = (quad[:, 0, :, 1] + quad[:, 1, :, 0]
                   < quad[:, 1, :, 1] + quad[:, 0, :, 0])
            if bad.any():
                return AxiomReport(False, "submodularity",
                                   f"submodularity fails for elements {e}, "
                                   f"{f} at S={witness(bad, j, i)}")
    if ranks[0]:
        return AxiomReport(False, "empty set",
                           f"the empty set has rank {ranks[0]}")
    return AxiomReport(True)


def random_point_in_polytope(m: Matroid, b: float,
                             gen: np.random.Generator) -> FractionalPoint:
    """Random x in b * P by a convex combination of n + 2 independent-set
    vertices.

    Each vertex is a random-weight greedy basis thinned by coin flips;
    membership in b * P is exact by convexity.
    """
    k = m.n + 2
    weights_total = np.zeros(m.n)
    lam = gen.exponential(size=k)
    lam /= lam.sum()
    for i in range(k):
        w = gen.random(m.n)
        basis = max_weight_independent(m, w)
        keep = gen.random(m.n)
        chosen = 0
        for e in iter_bits(basis):
            if keep[e] < 0.8:
                chosen |= 1 << e
        for e in iter_bits(chosen):
            weights_total[e] += lam[i]
    return FractionalPoint(b * weights_total)


def matroid_from_json(obj: dict) -> Matroid:
    """Build a matroid from its JSON descriptor (see README for shapes); a
    ground set of 64 or more elements is refused (see `ground_size`)."""
    kind = field(obj, "type", json_str)

    def int_lists(value) -> list[list[int]]:
        return [int_list(v) for v in value]

    def size(value) -> int:
        if json_int(value) < 0:
            raise ValueError("must be nonnegative")
        # before the matroid builds its ground mask of n bits
        return ground_size(value)

    if kind == "uniform":
        matroid = UniformMatroid(field(obj, "n", size),
                                 field(obj, "k", json_int))
    elif kind == "partition":
        matroid = PartitionMatroid(field(obj, "blocks", int_lists),
                                   field(obj, "capacities", int_list))
    elif kind == "graphic":
        matroid = GraphicMatroid(field(obj, "vertices", json_int),
                                 field(obj, "edges", edge_list))
    elif kind == "laminar":
        matroid = LaminarMatroid(field(obj, "n", size),
                                 field(obj, "sets", int_lists),
                                 field(obj, "capacities", int_list))
    elif kind == "explicit":
        matroid = ExplicitMatroid(field(obj, "n", size),
                                  field(obj, "bases", int_lists))
    else:
        raise ValueError(f"unknown matroid type {kind!r}")
    ground_size(matroid.n)
    return matroid


def edge_list(value) -> list[tuple[int, int]]:
    """A JSON list of ``[u, v]`` vertex pairs of JSON integers."""
    return [(json_int(u), json_int(v)) for u, v in value]
