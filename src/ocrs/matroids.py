"""Matroid oracles: independence, rank, span, contraction/restriction views.

The independence query is the primitive; rank and span are derived by the
matroid greedy and memoized per subset bitmask (desk scale, n <= ~24).
Oracles are immutable after construction; memo dicts only cache pure
functions, so concurrent readers always observe consistent results.

:class:`MatroidPolytope` answers every question about the scaled polytope
``b*P = {x >= 0 : x(S) <= b*r(S) for all S}``: membership, the largest
feasible step along a coordinate, the smallest feasible scale and the rank
rows of a linear program.  It enumerates all subsets of the ground set, so
it is limited to ``EXHAUSTIVE_LIMIT`` elements; callers may set lower
limits of their own.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .core import FractionalPoint, iter_bits

#: Exhaustive subset enumeration (polytope oracle, axiom audits) is limited
#: to this many elements.
EXHAUSTIVE_LIMIT = 24


class Matroid:
    """Base matroid over index space ``0..n-1`` with ground set ``ground_mask``.

    Subclasses implement ``_indep(mask)`` for ``mask`` a subset of the ground
    set.  ``rank``/``span``/``indep`` are memoized here.
    """

    kind = "abstract"

    def __init__(self, n: int, ground_mask: Optional[int] = None):
        self.n = n
        self.ground_mask = (1 << n) - 1 if ground_mask is None else ground_mask
        self._indep_cache: dict[int, bool] = {}
        self._rank_cache: dict[int, int] = {}
        self._span_cache: dict[int, int] = {}

    def _indep(self, mask: int) -> bool:
        raise NotImplementedError

    def _check_ground(self, mask: int) -> None:
        if mask & ~self.ground_mask:
            raise ValueError("subset has elements outside the ground set")

    def indep(self, mask: int) -> bool:
        self._check_ground(mask)
        cached = self._indep_cache.get(mask)
        if cached is None:
            cached = self._indep(mask)
            self._indep_cache[mask] = cached
        return cached

    def rank(self, mask: int) -> int:
        """Size of a maximum independent subset, by the matroid greedy."""
        self._check_ground(mask)
        cached = self._rank_cache.get(mask)
        if cached is None:
            kept = 0
            for e in iter_bits(mask):
                if self.indep(kept | (1 << e)):
                    kept |= 1 << e
            cached = kept.bit_count()
            self._rank_cache[mask] = cached
        return cached

    def span(self, mask: int) -> int:
        """Elements whose addition does not raise the rank of ``mask``."""
        self._check_ground(mask)
        cached = self._span_cache.get(mask)
        if cached is None:
            r = self.rank(mask)
            cached = mask
            for e in iter_bits(self.ground_mask & ~mask):
                if self.rank(mask | (1 << e)) == r:
                    cached |= 1 << e
            # elements of mask are spanned by definition; loops inside mask
            # are already included via `cached = mask`
            self._span_cache[mask] = cached
        return cached

    def spans(self, mask: int, e: int) -> bool:
        """Whether adding element ``e`` leaves the rank of ``mask`` unchanged."""
        bit = 1 << e
        if mask & bit:
            return True
        return self.rank(mask | bit) == self.rank(mask)

    def full_rank(self) -> int:
        return self.rank(self.ground_mask)

    def size(self) -> int:
        return self.ground_mask.bit_count()


class UniformMatroid(Matroid):
    """All subsets of size at most ``k`` are independent."""

    kind = "uniform"

    def __init__(self, n: int, k: int):
        if k < 0:
            raise ValueError("rank bound must be nonnegative")
        super().__init__(n)
        self.k = k

    def _indep(self, mask: int) -> bool:
        return mask.bit_count() <= self.k

    def rank(self, mask: int) -> int:
        self._check_ground(mask)
        return min(mask.bit_count(), self.k)


class PartitionMatroid(Matroid):
    """Per-block cardinality caps over a partition of the ground set."""

    kind = "partition"

    def __init__(self, blocks: Sequence[Iterable[int]], capacities: Sequence[int],
                 n: Optional[int] = None):
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
        n = n if n is not None else top + 1
        if seen != (1 << n) - 1:
            raise ValueError("blocks must cover the ground set")
        super().__init__(n)
        self.block_masks = tuple(block_masks)
        self.capacities = tuple(int(c) for c in capacities)

    def _indep(self, mask: int) -> bool:
        return all((mask & bm).bit_count() <= c
                   for bm, c in zip(self.block_masks, self.capacities))

    def rank(self, mask: int) -> int:
        self._check_ground(mask)
        return sum(min((mask & bm).bit_count(), c)
                   for bm, c in zip(self.block_masks, self.capacities))


class GraphicMatroid(Matroid):
    """Forests of a multigraph; ground set elements are edges."""

    kind = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError("edge endpoint outside vertex range")
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


class LaminarMatroid(Matroid):
    """Capacity bounds on a laminar (nested-or-disjoint) family of sets."""

    kind = "laminar"

    def __init__(self, n: int, sets: Sequence[Iterable[int]],
                 capacities: Sequence[int]):
        super().__init__(n)
        if len(sets) != len(capacities):
            raise ValueError("one capacity per set required")
        masks = []
        for s in sets:
            m = 0
            for e in s:
                if not 0 <= e < n:
                    raise ValueError(f"element {e} outside ground set")
                m |= 1 << e
            masks.append(m)
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                inter = a & b
                if inter and inter != a and inter != b:
                    raise ValueError("family is not laminar")
        self.set_masks = tuple(masks)
        self.capacities = tuple(int(c) for c in capacities)

    def _indep(self, mask: int) -> bool:
        return all((mask & sm).bit_count() <= c
                   for sm, c in zip(self.set_masks, self.capacities))


class ExplicitMatroid(Matroid):
    """Matroid given by its list of bases; axioms audited at construction."""

    kind = "explicit"

    def __init__(self, n: int, bases: Sequence[Iterable[int]]):
        super().__init__(n)
        base_masks = set()
        for b in bases:
            m = 0
            for e in b:
                if not 0 <= e < n:
                    raise ValueError(f"element {e} outside ground set")
                m |= 1 << e
            base_masks.add(m)
        if not base_masks:
            raise ValueError("at least one base required")
        sizes = {m.bit_count() for m in base_masks}
        if len(sizes) != 1:
            raise ValueError("bases must share one cardinality")
        self.base_masks = tuple(sorted(base_masks))
        if n <= 12:
            report = check_matroid_axioms(self)
            if not report.ok:
                raise ValueError(f"bases do not define a matroid: {report.failure}")

    def _indep(self, mask: int) -> bool:
        return any(mask & ~b == 0 for b in self.base_masks)


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

    def rank(self, mask: int) -> int:
        self._check_ground(mask)
        cached = self._rank_cache.get(mask)
        if cached is None:
            cached = self.base.rank(mask | self.contracted) - self.contracted_rank
            self._rank_cache[mask] = cached
        return cached

    def _indep(self, mask: int) -> bool:
        return self.rank(mask) == mask.bit_count()


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

    ``masks[i]`` and ``ranks[i]`` are the i-th subset in ascending mask order
    and its rank.  Bit j of ``i`` stands for the j-th ground element, so
    index arithmetic (``i | k``, ``i & k``) is set arithmetic.  Subset sums
    are built by doubling in ascending element order, which adds up x(S) in
    the same order as ``sum(x[e] for e in iter_bits(S))``.
    """

    def __init__(self, m: Matroid):
        if m.size() > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive membership check limited to "
                             f"{EXHAUSTIVE_LIMIT} elements")
        self.elements = list(iter_bits(m.ground_mask))
        # the greedy basis of S + e (e above every element of S) is the
        # greedy basis of S, plus e if that stays independent: the same
        # ascending scan that Matroid.rank makes
        bases = [0]
        masks = [0]
        for e in self.elements:
            bit = 1 << e
            bases += [base | bit if m.indep(base | bit) else base
                      for base in bases]
            masks += [mask | bit for mask in masks]
        self.masks = masks
        self.ranks = np.array([base.bit_count() for base in bases])

    def subset_sums(self, values: np.ndarray) -> np.ndarray:
        """``x(S)`` for every subset, in the order of ``masks``."""
        sums = np.zeros(1)
        for e in self.elements:
            sums = np.concatenate([sums, sums + values[e]])
        return sums

    def max_violation(self, values: np.ndarray, b: float) -> float:
        """Largest ``x(S) - b*r(S)``; x is in b*P iff this is at most 0."""
        return float((self.subset_sums(values) - b * self.ranks).max())

    def max_step(self, values: np.ndarray, e: int) -> float:
        """Largest d >= 0 with x + d * unit_e in P: the least slack
        ``r(S) - x(S)`` over the subsets S that contain e."""
        j = self.elements.index(e)
        slack = self.ranks - self.subset_sums(values)
        return max(float(slack.reshape(-1, 2, 1 << j)[:, 1, :].min()), 0.0)

    def min_scale(self, values: np.ndarray) -> float:
        """Smallest s >= 0 with ``x(S) <= s*r(S)`` on every subset S of
        positive rank (subsets of rank 0 are not constrained)."""
        positive = self.ranks > 0
        ratios = self.subset_sums(values)[positive] / self.ranks[positive]
        return float(ratios.max(initial=0.0))

    def rank_rows(self) -> list[tuple[int, int]]:
        """``(mask, rank)`` of every nonempty subset, in ascending mask order."""
        return list(zip(self.masks[1:], self.ranks[1:].tolist()))

    def is_submodular(self) -> bool:
        """Whether ``r(A) + r(B) >= r(A | B) + r(A & B)`` for all A, B."""
        r = self.ranks
        idx = np.arange(r.size)
        return all(bool(np.all(r[a] + r >= r[a | idx] + r[a & idx]))
                   for a in range(r.size))


def in_scaled_matroid_polytope(m: Matroid, x: FractionalPoint, b: float,
                               tol: float = 1e-9) -> bool:
    """Whether ``x(S) - b * rank(S) <= tol`` holds for every subset of the
    ground set (exhaustive; at most ``EXHAUSTIVE_LIMIT`` elements)."""
    if x.n != m.n:
        raise ValueError("point dimension must match the ground set")
    return MatroidPolytope(m).max_violation(x.values, b) <= tol


class AxiomReport:
    """Outcome of an exhaustive matroid axiom audit."""

    __slots__ = ("ok", "failure")

    def __init__(self, ok: bool, failure: str = ""):
        self.ok = ok
        self.failure = failure

    def __bool__(self) -> bool:
        return self.ok


def check_matroid_axioms(m: Matroid) -> AxiomReport:
    """Exhaustive audit: empty set independent, down-closure, exchange.

    Enumerates all subsets of the ground set; intended for ``size <= 12``.
    """
    size = m.size()
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError("axiom audit is exhaustive; ground set too large")
    elements = list(iter_bits(m.ground_mask))

    def to_mask(idx: int) -> int:
        mask = 0
        while idx:
            low = idx & -idx
            mask |= 1 << elements[low.bit_length() - 1]
            idx ^= low
        return mask

    total = 1 << size
    indep = [False] * total
    masks = [0] * total
    for idx in range(total):
        masks[idx] = to_mask(idx)
        indep[idx] = m.indep(masks[idx])
    if not indep[0]:
        return AxiomReport(False, "empty set is dependent")

    # down-closure: removing one element from an independent set stays independent
    for idx in range(total):
        if not indep[idx]:
            continue
        rem = idx
        while rem:
            low = rem & -rem
            if not indep[idx ^ low]:
                return AxiomReport(
                    False, f"down-closure fails at {bin(masks[idx])} minus bit")
            rem ^= low

    # exchange via per-set augmentation masks: for independent I, J with
    # |I| < |J| some element of J \ I must extend I
    aug = [0] * total
    by_size: dict[int, list[int]] = {}
    for idx in range(total):
        if not indep[idx]:
            continue
        by_size.setdefault(masks[idx].bit_count(), []).append(idx)
        a = 0
        free = (total - 1) ^ idx
        while free:
            low = free & -free
            if indep[idx | low]:
                a |= low
            free ^= low
        aug[idx] = a
    sizes = sorted(by_size)
    for si in sizes:
        for sj in sizes:
            if sj <= si:
                continue
            for i_idx in by_size[si]:
                not_i = (total - 1) ^ i_idx
                a = aug[i_idx]
                for j_idx in by_size[sj]:
                    if not (j_idx & not_i & a):
                        return AxiomReport(
                            False,
                            f"exchange fails for I={bin(masks[i_idx])}, "
                            f"J={bin(masks[j_idx])}")
    return AxiomReport(True)


def random_point_in_polytope(m: Matroid, b: float,
                             gen: np.random.Generator,
                             mixtures: Optional[int] = None) -> FractionalPoint:
    """Random x in b * P by a convex combination of independent-set vertices.

    Each vertex is a random-weight greedy basis thinned by coin flips;
    membership in b * P is exact by convexity.
    """
    k = mixtures if mixtures is not None else m.n + 2
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
    """Build a matroid from its JSON descriptor (see README for shapes)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("matroid descriptor must be an object with a 'type'")
    kind = obj["type"]
    try:
        if kind == "uniform":
            return UniformMatroid(int(obj["n"]), int(obj["k"]))
        if kind == "partition":
            return PartitionMatroid(obj["blocks"], obj["capacities"])
        if kind == "graphic":
            return GraphicMatroid(int(obj["vertices"]),
                                  [tuple(e) for e in obj["edges"]])
        if kind == "laminar":
            return LaminarMatroid(int(obj["n"]), obj["sets"], obj["capacities"])
        if kind == "explicit":
            return ExplicitMatroid(int(obj["n"]), obj["bases"])
    except KeyError as exc:
        raise ValueError(f"matroid descriptor missing field {exc}") from exc
    raise ValueError(f"unknown matroid type {kind!r}")
