"""Greedy OCRS constructions: sampled feasible subfamilies and the online loop.

Each scheme is a factory that, bound to a fractional point x in b*P, yields
a sampler; the sampler decodes a block of per-trial uniform rows into one
down-closed feasible subfamily per trial, given as an integer family code
per trial plus an object that indexes the families by code (a sampler
that draws no columns reuses a single family).  Families answer
membership and a fast `selectable_mask` query, and samplers give a
block's selectable masks at once; the online loop selects an arriving
active element iff adding it keeps the selected set in the subfamily.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from .core import (FractionalPoint, block_states, field, ground_size,
                   group_rows, iter_bits, json_int, json_str, ordered_sum,
                   pack_mask, pack_mask_rows, popcounts, subset_probs,
                   subset_sums)
from .matroids import (EXHAUSTIVE_LIMIT, Matroid, MatroidPolytope,
                       MatroidView, edge_list, in_scaled_matroid_polytope,
                       matroid_from_json)
from .optimize import KnapsackConstraint, knapsack_from_json

#: Above this many ground elements, chain span probabilities switch from
#: the exact rank-table sums to Monte-Carlo estimation.
EXACT_SPAN_LIMIT = 20

#: Monte-Carlo sample count per span-probability estimate is
#: ceil(SAMPLE_CONSTANT * (2 ln 2 + 2 (3 + ALPHA) ln n) / eps^2), the
#: Hoeffding bound for a one-sided estimate landing in [p - eps, p] with
#: failure probability n^-(3+ALPHA).
SAMPLE_CONSTANT = 1.0
ALPHA = 1.0

_TOL = 1e-9

log = logging.getLogger("ocrs.schemes")


class SchemeError(ValueError):
    """Base class for scheme construction failures."""


class PolytopeMembershipError(SchemeError):
    """The supplied point is outside the scaled relaxation polytope."""


class ChainConstructionError(SchemeError):
    """Chain refinement failed to shrink a level (bad point or estimates)."""


# ---------------------------------------------------------------------------
# feasible subfamilies


class FeasibleFamily:
    """One sampled instantiation of a greedy OCRS subfamily F_x."""

    n: int

    def member(self, mask: int) -> bool:
        raise NotImplementedError

    def selectable_mask(self, active_mask: int) -> int:
        """Bitmask of elements e with: I + e in F_x for every I in F_x,
        I a subset of the active set (the per-element order-free event)."""
        raise NotImplementedError

    def cache_key(self):
        """Hashable identity of the sampled instance: families with equal
        keys answer ``member`` and ``selectable_mask`` alike.  Its one
        reader outside the tests is the benchmark's trace
        (``perfbench/spans.py``), which counts distinct ``(cache_key,
        active)`` pairs.  Every trial loop, the prophet's included, groups
        by the samplers' integer family codes instead."""
        raise NotImplementedError


@dataclass(frozen=True)
class ChainDecomposition:
    """Nested level sets N_0 > N_1 > ... > N_l = 0 with per-level views.

    ``views[i]`` is the base matroid with N_{i+1} contracted, restricted to
    the layer N_i - N_{i+1}.  ``span_estimates[e]`` records the final
    (exact or Monte-Carlo) span probability that fixed e's layer; each is
    at most b by construction.
    """

    matroid: Matroid
    levels: tuple[int, ...]
    views: tuple[MatroidView, ...]
    b: float
    eps: float
    exact: bool
    span_estimates: dict[int, float] = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        levels = self.levels
        if levels[0] != self.matroid.ground_mask or levels[-1] != 0:
            raise ValueError("chain must run from the ground set to empty")
        for hi, lo in zip(levels, levels[1:]):
            if lo & ~hi or lo == hi:
                raise ValueError("chain levels must be strictly nested")

    @property
    def layers(self) -> tuple[int, ...]:
        return tuple(hi & ~lo for hi, lo in zip(self.levels, self.levels[1:]))


class MatroidChainFamily(FeasibleFamily):
    """Per-layer independence in the chain's contracted/restricted views.

    A view's rank is r_view(A) = r(A | lower) - r(lower), with ``lower`` the
    level below its layer.  An exact chain answers ``member`` and
    ``selectable_mask`` from two lookups over every subset of the ground
    set, read off the matroid's rank table; a Monte-Carlo chain (too large
    for the table) asks the views and memoizes ``selectable_mask``.
    """

    def __init__(self, chain: ChainDecomposition):
        self.chain = chain
        self.n = chain.matroid.n
        self._ground = chain.matroid.ground_mask
        self._layers = list(zip(chain.layers, chain.views))
        self._table = None
        if chain.exact:
            self._table = chain.matroid.polytope()
            self._member, self._selectable = _chain_lookups(self._table,
                                                            chain.levels)
        else:
            self._selectable_cache: dict[int, int] = {}

    def member(self, mask: int) -> bool:
        if mask & ~self._ground:
            return False
        if self._table is not None:
            return self._member[self._table.index(mask)]
        return all(view.indep(mask & layer) for layer, view in self._layers)

    def selectable_mask(self, active_mask: int) -> int:
        if self._table is not None:
            return self._selectable[self._table.index(active_mask
                                                      & self._ground)]
        cached = self._selectable_cache.get(active_mask)
        if cached is None:
            cached = 0
            for layer, view in self._layers:
                present = active_mask & layer
                for e in iter_bits(layer):
                    if not view.spans(present & ~(1 << e), e):
                        cached |= 1 << e
            self._selectable_cache[active_mask] = cached
        return cached

    def cache_key(self):
        return ("chain", id(self.chain))


class MatchingFamily(FeasibleFamily):
    """Subsets of the sampled edge set K that form a matching."""

    def __init__(self, graph: "Graph", k_mask: int):
        self.graph = graph
        self.k_mask = k_mask
        self.n = graph.n_edges

    def member(self, mask: int) -> bool:
        if mask & ~self.k_mask:
            return False
        adj = self.graph.adjacent_edges
        return not any(adj[e] & mask for e in iter_bits(mask))

    def selectable_mask(self, active_mask: int) -> int:
        """Edges of K sharing no endpoint with an active edge of K.

        Adjacency is symmetric, so OR-ing the neighbourhoods of the few
        active edges of K equals asking each edge of K for an active
        neighbour.  The mask is K AND, over the active edges e of K, the
        whole graph's ``selectable_mask(1 << e)``: the matching sampler's
        ``selectable_rows`` computes the trial loops' masks that way, from
        byte tables of those survivor masks, and this call serves online
        play, the brute-force oracles and the survivor masks themselves.
        """
        adj = self.graph.adjacent_edges
        blocked = 0
        m = active_mask & self.k_mask
        while m:
            low = m & -m
            blocked |= adj[low.bit_length() - 1]
            m ^= low
        return self.k_mask & ~blocked

    def cache_key(self):
        return ("matching", self.k_mask)


class KnapsackFamily(FeasibleFamily):
    """Big-only or small-only subsets respecting the unit capacity."""

    def __init__(self, knapsack: KnapsackConstraint, big_mode: bool):
        self.knapsack = knapsack
        self.big_mode = big_mode
        self.n = knapsack.n
        # the elements of this mode
        self._mode = (knapsack.big_mask if big_mode else
                      ((1 << knapsack.n) - 1) & ~knapsack.big_mask)
        self._sizes = np.array(knapsack.sizes)

    def member(self, mask: int) -> bool:
        return not mask & ~self._mode and self.knapsack.indep(mask)

    def selectable_mask(self, active_mask: int) -> int:
        # the pool's (the mode's active elements') subset sums, added as in
        # ``size_sum``; the best feasible one without e is in the half of
        # the table that leaves e out (all of it if e is not active)
        ks = self.knapsack
        pool = sorted(iter_bits(active_mask & self._mode), reverse=True)
        sums = subset_sums(self._sizes, pool)
        feasible = np.where(sums <= ks.capacity, sums, 0.0)
        fits = feasible.max() + self._sizes <= 1.0 + _TOL
        for j, e in enumerate(pool):
            worst = feasible.reshape(-1, 2, 1 << j)[:, 0].max()
            fits[e] = worst + ks.sizes[e] <= 1.0 + _TOL
        return pack_mask(fits) & self._mode

    def cache_key(self):
        return ("knapsack", self.big_mode)


class IntersectionFamily(FeasibleFamily):
    """Conjunction of member and selectable over the component families.

    The conjunction of per-part selectable events implies (and may be
    strictly stronger than) the quantifier event for the intersection, and
    is the event whose probability the combination bound c1*c2 controls.
    """

    def __init__(self, parts: Sequence[FeasibleFamily]):
        if not parts:
            raise ValueError("at least one family required")
        if len({f.n for f in parts}) != 1:
            raise ValueError("families must share the ground set")
        self.parts = tuple(parts)
        self.n = parts[0].n

    def member(self, mask: int) -> bool:
        return all(f.member(mask) for f in self.parts)

    def selectable_mask(self, active_mask: int) -> int:
        out = self.parts[0].selectable_mask(active_mask)
        for f in self.parts[1:]:
            if not out:
                break
            out &= f.selectable_mask(active_mask)
        return out

    def cache_key(self):
        return ("intersect",) + tuple(f.cache_key() for f in self.parts)


def _chain_lookups(table: MatroidPolytope, levels: Sequence[int]
                   ) -> tuple[list[bool], list[int]]:
    """``member`` and ``selectable_mask`` of a chain family, for every subset
    A of the ground set in table-index order.

    With L a layer and ``lo`` the level below it, A is a member iff
    r((A & L) | lo) - r(lo) = |A & L| on every layer, and e in L is
    selectable iff r((A & L - e) | lo | e) != r((A & L - e) | lo).
    """
    ranks = table.ranks
    index = np.arange(ranks.size)
    sizes = popcounts(len(table.elements))
    member = np.ones(ranks.size, dtype=bool)
    selectable = np.zeros(ranks.size, dtype=np.int64)
    for hi, lo in zip(levels, levels[1:]):
        layer = table.index(hi & ~lo)
        lower = table.index(lo)
        present = index & layer
        gain = ranks[present | lower].astype(np.int16) - ranks[lower]
        member &= gain == sizes[present]
        for j in iter_bits(layer):
            below = (present & ~(1 << j)) | lower
            free = ranks[below | (1 << j)] != ranks[below]
            selectable |= free.astype(np.int64) << j
    selectable = selectable.tolist()
    if not table.identity:
        selectable = [table.mask(i) for i in selectable]
    return member.tolist(), selectable


def combine_families(families: Sequence[FeasibleFamily]) -> FeasibleFamily:
    """Intersection family over a common ground set."""
    if len(families) == 1:
        return families[0]
    return IntersectionFamily(families)


def run_greedy_mask(family: FeasibleFamily, order: Sequence[int],
                    active_mask: int) -> int:
    """Scan ``order``; select an active element iff the selection stays in F_x."""
    selected = 0
    for e in order:
        bit = 1 << e
        if active_mask & bit and family.member(selected | bit):
            selected |= bit
    return selected


# ---------------------------------------------------------------------------
# matroid chain construction


def _mc_sample_count(n: int, eps: float) -> int:
    n = max(n, 2)
    return int(math.ceil(SAMPLE_CONSTANT
                         * (2 * math.log(2) + 2 * (3 + ALPHA) * math.log(n))
                         / (eps * eps)))


def _table_span_probability(table: MatroidPolytope, x: np.ndarray,
                            level_mask: int, s_mask: int, e: int) -> float:
    """Pr[e in span((R(x) | S) - e)] with R restricted to the level, exactly.

    The sum over T of Pr(R & free = T) * [r(T | S | e) = r(T | S)], with
    free = level - S - e.  Probabilities are built by doubling over free in
    ascending element order, and the terms are added in descending T (the
    order of ``iter_submasks(free)``) by a running sum, so the result is
    bit-equal to the plain loop over submasks.  Restricting to the level
    keeps ranks, so the whole matroid's rank table answers every level.
    """
    free = list(iter_bits(level_mask & ~s_mask & ~(1 << e)))
    probs = subset_probs(x, free)
    subsets = subset_sums(np.array([table.index(1 << g) for g in free],
                                   dtype=np.int64), range(len(free)))
    subsets |= table.index(s_mask)
    ranks = table.ranks
    spanned = ranks[subsets | table.index(1 << e)] == ranks[subsets]
    return float(np.cumsum(np.where(spanned, probs, 0.0)[::-1])[-1])


def _mc_span_probability(view: Matroid, x: np.ndarray, level_mask: int,
                         s_mask: int, e: int, samples: int, eps: float,
                         gen: np.random.Generator) -> float:
    """One-sided Monte-Carlo estimate targeted into [p - eps, p]."""
    free_list = [g for g in iter_bits(level_mask & ~s_mask) if g != e]
    if not free_list:
        return 1.0 - eps / 2 if view.spans(s_mask, e) else -eps / 2
    probs = x[free_list]
    draws = gen.random((samples, len(free_list))) < probs
    powers = np.array([1 << g for g in free_list], dtype=object)
    masks = draws @ powers
    hits = 0
    seen: dict[int, bool] = {}
    for m in masks:
        key = int(m)
        val = seen.get(key)
        if val is None:
            val = view.spans(key | s_mask, e)
            seen[key] = val
        hits += val
    return hits / samples - eps / 2


def matroid_chain_decompose(matroid: Matroid, x: FractionalPoint, b: float,
                            eps: float = 0.05,
                            stream: Optional[np.random.Generator] = None,
                            exact: Optional[bool] = None,
                            validate_point: bool = True
                            ) -> ChainDecomposition:
    """Build the nested level sets whose per-layer span probabilities are <= b.

    Levels are refined by repeatedly absorbing every element whose
    probability of being spanned by the other active elements (plus the
    already-absorbed set) exceeds b.  Exact probabilities (up to
    EXACT_SPAN_LIMIT elements by default) come from the matroid's rank
    table; above that, Monte-Carlo estimates with _mc_sample_count samples
    each (requires ``stream``).  Exact chains and the point check (up to
    EXHAUSTIVE_LIMIT elements) read the matroid's ``polytope()``.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if x.n != matroid.n:
        raise ValueError("point dimension must match the matroid")
    size = matroid.size()
    use_exact = exact if exact is not None else size <= EXACT_SPAN_LIMIT
    if not use_exact and stream is None:
        raise ValueError("Monte-Carlo chain construction needs a stream")
    if use_exact and size > EXHAUSTIVE_LIMIT:
        raise SchemeError(f"exact span probabilities enumerate subsets and "
                          f"are limited to {EXHAUSTIVE_LIMIT} elements")
    table = (matroid.polytope() if size <= EXHAUSTIVE_LIMIT
             and (use_exact or validate_point) else None)
    # a loop (rank 0) is spanned by every set, so refinement would absorb
    # it at every level; x is 0 on it and it never arrives, so it stays out
    # of refinement, in the top layer, where it is never selectable
    loops = matroid.loops()
    if validate_point:
        for e in iter_bits(loops):
            if x[e] > 0:
                raise PolytopeMembershipError(
                    f"x is outside b * P for the given matroid: element {e} "
                    f"is a loop (rank 0) but x[{e}] = {x[e]}")
        if table is not None and not in_scaled_matroid_polytope(matroid,
                                                                x, b):
            raise PolytopeMembershipError(
                "x is outside b * P for the given matroid")
    xv = x.values
    samples = _mc_sample_count(size, eps)

    levels = [matroid.ground_mask]
    estimates: dict[int, float] = {}
    current = matroid.ground_mask
    while current:
        if len(levels) > size + 1:
            raise ChainConstructionError("level cap exceeded")
        level_view = MatroidView(matroid, 0, current)

        def estimate(e: int, s_mask: int) -> float:
            if use_exact:
                return _table_span_probability(table, xv, current, s_mask, e)
            return _mc_span_probability(level_view, xv, current, s_mask, e,
                                        samples, eps, stream)

        s_mask = 0
        while True:
            sweep: dict[int, float] = {}
            added = 0
            for e in iter_bits(current & ~s_mask & ~loops):
                p_hat = estimate(e, s_mask)
                # strict comparison, at the same numerical tolerance that the
                # polytope membership check admits boundary points with
                if p_hat > b + _TOL:
                    added |= 1 << e
                    s_mask |= 1 << e
                else:
                    sweep[e] = p_hat
            if not added:
                break
        if s_mask and s_mask == current & ~loops:
            raise ChainConstructionError(
                "refinement absorbed a whole level; x is outside b * P or "
                "the span estimates failed")
        estimates.update(sweep)
        levels.append(s_mask)
        current = s_mask

    views = tuple(MatroidView(matroid, contracted=lo, kept=hi & ~lo)
                  for hi, lo in zip(levels, levels[1:]))
    chain = ChainDecomposition(matroid=matroid, levels=tuple(levels),
                               views=views, b=b,
                               eps=0.0 if use_exact else eps,
                               exact=use_exact, span_estimates=estimates)
    log.info("chain: %s; levels %s; layer sizes %s; max span estimate %.6g; "
             "rank table of %s subsets",
             "exact" if use_exact else f"Monte-Carlo, {samples} samples per "
                                        f"estimate",
             list(chain.levels), [layer.bit_count() for layer in chain.layers],
             max(estimates.values(), default=0.0),
             "no" if table is None else table.ranks.size)
    return chain


# ---------------------------------------------------------------------------
# graphs for the matching scheme


class Graph:
    """Undirected multigraph; the scheme's ground set is the edge list."""

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        self.num_vertices = num_vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in self.edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError("'edges' endpoint outside vertex range")
            if u == v:
                raise ValueError("self-loops are not allowed")
        self.n_edges = len(self.edges)
        incident = [0] * num_vertices
        for idx, (u, v) in enumerate(self.edges):
            incident[u] |= 1 << idx
            incident[v] |= 1 << idx
        self.adjacent_edges = tuple(
            (incident[u] | incident[v]) & ~(1 << idx)
            for idx, (u, v) in enumerate(self.edges))

    def degree_loads(self, x: np.ndarray) -> np.ndarray:
        loads = np.zeros(self.num_vertices)
        for idx, (u, v) in enumerate(self.edges):
            loads[u] += x[idx]
            loads[v] += x[idx]
        return loads


def graph_from_json(obj: dict) -> Graph:
    """The graph of an instance object; its edges are the ground set (see
    `ground_size`)."""
    def edges(value) -> list[tuple[int, int]]:
        pairs = edge_list(value)
        ground_size(len(pairs))
        return pairs

    return Graph(field(obj, "vertices", json_int), field(obj, "edges", edges))


# ---------------------------------------------------------------------------
# samplers and factories


class SchemeSampler:
    """Per-trial family sampler for one bound point x.

    A sampler declares its randomness as threshold vectors, ``draws``, one
    per leaf part: trial loops draw one uniform per entry and hand the
    sampler each vector's packed mask (bit e set iff the uniform of entry
    e is below it), as `core.trial_columns` packs a probability vector.
    ``sample_block`` is the one decode path: it maps a (trials,
    len(draws)) int64 array of those masks to each trial's family, as
    ``(codes, families)``: a nonnegative int64 code per row and anything
    that can be indexed by a code, with ``families[c]`` the family of code
    ``c``.  Rows share a code iff their families have equal ``cache_key``,
    but codes need not be dense: a random matching's codes are the K masks
    themselves, and its ``families`` makes ``MatchingFamily(graph, k)``
    when code k is asked for.  A sampler with no draws gives every row
    code 0 and one shared family.
    ``selectable_rows`` maps a block's active masks and decoded families
    to each trial's selectable mask, the counting loop's one query.
    """

    draws: tuple[np.ndarray, ...] = ()

    @property
    def draw_count(self) -> int:
        """The number of uniforms a trial draws: one per threshold."""
        return sum(vector.size for vector in self.draws)

    def sample_block(self, masks: np.ndarray) -> tuple[np.ndarray, object]:
        """Family codes and the families they index, of a (trials,
        len(draws)) array of packed threshold masks."""
        raise NotImplementedError

    def sample(self, gen: Optional[np.random.Generator] = None) -> FeasibleFamily:
        """One family: the single-trial view of ``sample_block``, from
        ``gen.random(draw_count)``."""
        if self.draws and gen is None:
            raise ValueError("randomized sampler needs a generator")
        masks = np.zeros((1, len(self.draws)), dtype=np.int64)
        if self.draws:
            row, at = gen.random((1, self.draw_count)), 0
            for j, vector in enumerate(self.draws):
                masks[:, j] = pack_mask_rows(row[:, at:at + vector.size]
                                             < vector)
                at += vector.size
        codes, families = self.sample_block(masks)
        return families[codes[0]]

    def selectable_rows(self, actives: np.ndarray, codes: np.ndarray,
                        families) -> np.ndarray:
        """Each trial's selectable mask, as an int64 row per trial of a
        block: ``families[codes[i]].selectable_mask(actives[i])`` for the
        trial's active mask and its ``sample_block`` family.

        By default one ``selectable_mask`` call per distinct (code,
        active) pair of the block; the matching sampler computes the rows
        from byte tables instead.
        """
        first, inverse = group_rows([codes, actives])
        masks = np.array([families[c].selectable_mask(a) for c, a in zip(
            codes[first].tolist(), actives[first].tolist())], np.int64)
        return masks[inverse]

    def enumerate_families(self) -> list[tuple[float, FeasibleFamily]]:
        """All (probability, family) outcomes; for brute-force oracles."""
        raise NotImplementedError


class _FixedSampler(SchemeSampler):
    """One family for every trial: code 0, and no columns drawn."""

    def __init__(self, family: FeasibleFamily):
        self.family = family

    def sample_block(self, masks: np.ndarray):
        return np.zeros(masks.shape[0], dtype=np.int64), [self.family]

    def enumerate_families(self):
        return [(1.0, self.family)]


class _MatchingFamilies:
    """The matching families of a graph, indexed by edge set: ``self[k]``
    is ``MatchingFamily(graph, k)``, made when it is asked for."""

    __slots__ = ("graph",)

    def __init__(self, graph: Graph):
        self.graph = graph

    def __getitem__(self, k_mask) -> MatchingFamily:
        return MatchingFamily(self.graph, int(k_mask))


class _MatchingSampler(SchemeSampler):
    """Random matching families: the edge set K is drawn edge by edge with
    the probabilities ``k_probs``.  A trial's family code is its K mask
    itself, so ``sample_block`` decodes nothing."""

    def __init__(self, graph: Graph, k_probs: np.ndarray):
        # codes and survivor tables are int64 masks of the edges
        m = ground_size(graph.n_edges)
        self.graph = graph
        self.k_probs = k_probs
        self.draws = (k_probs,)
        self.families = _MatchingFamilies(graph)
        full = MatchingFamily(graph, (1 << m) - 1)
        # entry b of byte table j is the AND, over the set bits i of b, of
        # the survivor mask of edge 8j + i: the edges that an active edge
        # leaves selectable in the whole graph; filled by doubling
        self._tables = np.full((-(-m // 8), 256), -1, dtype=np.int64)
        for e in range(m):
            table, half = self._tables[e // 8], 1 << e % 8
            np.bitwise_and(table[:half], full.selectable_mask(1 << e),
                           out=table[half:2 * half])

    def sample_block(self, masks: np.ndarray):
        return masks[:, 0], self.families

    def selectable_rows(self, actives, codes, families):
        """``MatchingFamily.selectable_mask`` is K & ~OR of the active
        edges' neighbourhoods in K, which is K AND the survivor masks of
        the active edges of K.  Byte j of A & K picks the AND of its
        edges' survivor masks from byte table j, so a block takes one
        gather per byte of the edge masks, and no per-trial call."""
        pending = actives & codes
        rows = codes.copy()
        for j, table in enumerate(self._tables):
            rows &= table[pending >> 8 * j & 255]
        return rows

    def enumerate_families(self):
        m = self.graph.n_edges
        if m > 16:
            raise ValueError("edge-set outcome space too large to enumerate")
        out = []
        for k_mask in range(1 << m):
            prob = 1.0
            for g in range(m):
                pg = self.k_probs[g]
                prob *= pg if (k_mask >> g) & 1 else 1.0 - pg
            if prob > 0.0:
                out.append((prob, MatchingFamily(self.graph, k_mask)))
        return out


class _KnapsackSampler(SchemeSampler):
    def __init__(self, knapsack: KnapsackConstraint, p_big: float):
        self.p_big = p_big
        self.draws = (np.array([p_big]),)
        self._big = KnapsackFamily(knapsack, True)
        self._small = KnapsackFamily(knapsack, False)

    def sample_block(self, masks: np.ndarray):
        # the mask of the one threshold p_big is 1 iff the big mode is drawn
        return masks[:, 0], [self._small, self._big]

    def enumerate_families(self):
        out = []
        if self.p_big > 0.0:
            out.append((self.p_big, self._big))
        if self.p_big < 1.0:
            out.append((1.0 - self.p_big, self._small))
        return out


class _IntersectionSampler(SchemeSampler):
    def __init__(self, parts: Sequence[SchemeSampler]):
        self.parts = tuple(parts)
        self.draws = tuple(v for p in self.parts for v in p.draws)

    def sample_block(self, masks: np.ndarray):
        columns = []
        at = 0
        for p in self.parts:
            columns.append(p.sample_block(masks[:, at:at + len(p.draws)]))
            at += len(p.draws)
        first, codes = group_rows([part_codes for part_codes, _ in columns])
        return codes, [combine_families(list(parts))
                       for parts in block_states(columns, first)]

    def enumerate_families(self):
        outcomes = [(1.0, [])]
        for p in self.parts:
            nxt = []
            for prob, fams in outcomes:
                for q, fam in p.enumerate_families():
                    nxt.append((prob * q, fams + [fam]))
            outcomes = nxt
        return [(prob, combine_families(fams)) for prob, fams in outcomes]


class GreedyOcrsFactory:
    """Scheme description bound to a scale b; `bind` attaches a point x.

    ``n`` is the size of the ground set the scheme's points live on.
    ``loops`` is the mask of elements that are in no feasible set: every
    point is 0 on them, so they never arrive and the bound does not cover
    them.
    """

    n: int
    b: float
    bound_expr: str
    construction_slack: float = 0.0
    loops: int = 0

    def bound(self) -> float:
        """The proven selectability constant for points in b * P."""
        raise NotImplementedError

    def load(self, x: FractionalPoint) -> float:
        """Smallest s with x in s * P, for the scheme's relaxation P."""
        raise NotImplementedError

    def bind(self, x: FractionalPoint,
             stream: Optional[np.random.Generator] = None) -> SchemeSampler:
        raise NotImplementedError


class MatroidChainFactory(GreedyOcrsFactory):
    bound_expr = "1-b"

    def __init__(self, matroid: Matroid, b: float, eps: float = 0.05,
                 exact: Optional[bool] = None):
        if not 0.0 <= b <= 1.0:
            raise SchemeError("matroid scheme requires b in [0, 1]")
        if not matroid.n:
            raise SchemeError("'matroid' must have a nonempty ground set")
        self.matroid = matroid
        self.n = matroid.n
        self.b = b
        self.eps = eps
        self.exact = exact if exact is not None else matroid.size() <= EXACT_SPAN_LIMIT
        self.construction_slack = 0.0 if self.exact else eps
        self.loops = matroid.loops()

    def bound(self) -> float:
        return 1.0 - self.b

    def load(self, x: FractionalPoint) -> float:
        """The polytope oracle's ``min_scale`` up to 16 elements (it
        enumerates subsets), and the matroid's closed-form `Matroid.load`
        above."""
        if self.matroid.size() <= 16:
            return self.matroid.polytope().min_scale(x.values)
        load = self.matroid.load(x.values)
        if load is None:
            raise SchemeError(
                "supply an explicit 'x'; point fitting enumerates subsets "
                "and is limited to 16 elements, except on uniform, "
                "partition and laminar matroids")
        return load

    def bind(self, x, stream=None) -> SchemeSampler:
        chain = matroid_chain_decompose(self.matroid, x, self.b, eps=self.eps,
                                        stream=stream, exact=self.exact)
        return _FixedSampler(MatroidChainFamily(chain))


class MatchingFactory(GreedyOcrsFactory):
    def __init__(self, graph: Graph, b: float, deterministic: bool = False):
        if not 0.0 <= b <= 1.0:
            raise SchemeError("matching scheme requires b in [0, 1]")
        if not graph.edges:
            raise SchemeError("'edges' must be nonempty")
        self.graph = graph
        self.n = graph.n_edges
        self.b = b
        self.deterministic = deterministic
        self.bound_expr = "(1-b)^2" if deterministic else "exp(-2b)"

    def bound(self) -> float:
        if self.deterministic:
            return (1.0 - self.b) ** 2
        return math.exp(-2.0 * self.b)

    def load(self, x: FractionalPoint) -> float:
        """The largest per-vertex degree load of x."""
        return float(self.graph.degree_loads(x.values).max())

    def bind(self, x, stream=None) -> SchemeSampler:
        if x.n != self.n:
            raise ValueError("point dimension must match the edge count")
        if self.load(x) > self.b + _TOL:
            raise PolytopeMembershipError(
                "x violates the scaled per-vertex degree bounds")
        if self.deterministic:
            return _FixedSampler(MatchingFamily(self.graph, (1 << self.n) - 1))
        with np.errstate(invalid="ignore"):
            k_probs = np.where(x.values > 0,
                               -np.expm1(-x.values) / np.where(x.values > 0,
                                                               x.values, 1.0),
                               1.0)
        return _MatchingSampler(self.graph, k_probs)


class KnapsackFactory(GreedyOcrsFactory):
    bound_expr = "(1-2b)/(2-2b)"

    def __init__(self, knapsack: KnapsackConstraint, b: float):
        if not 0.0 <= b <= 0.5:
            raise SchemeError("knapsack scheme requires b in [0, 1/2]")
        if not knapsack.sizes or any(s > 1 for s in knapsack.sizes):
            raise SchemeError("'sizes' must be nonempty and lie in [0, 1]")
        self.knapsack = knapsack
        self.n = knapsack.n
        self.b = b

    def bound(self) -> float:
        return (1.0 - 2.0 * self.b) / (2.0 - 2.0 * self.b)

    def load(self, x: FractionalPoint) -> float:
        """The knapsack occupancy ``sizes . x``."""
        return self.knapsack.load(x.values)

    def bind(self, x, stream=None) -> SchemeSampler:
        ks = self.knapsack
        if x.n != ks.n:
            raise ValueError("point dimension must match the size vector")
        if self.load(x) > self.b + _TOL:
            raise PolytopeMembershipError(
                "x violates the scaled knapsack capacity")
        b_big = float(ordered_sum(ks.sizes[e] * x.values[e]
                                  for e in iter_bits(ks.big_mask)))
        p_big = (1.0 - 2.0 * self.b + 2.0 * b_big) / (2.0 - 2.0 * self.b)
        return _KnapsackSampler(ks, min(max(p_big, 0.0), 1.0))


class IntersectionFactory(GreedyOcrsFactory):
    def __init__(self, parts: Sequence[GreedyOcrsFactory]):
        if not parts:
            raise ValueError("at least one factory required")
        if len({p.b for p in parts}) != 1:
            raise SchemeError("combined schemes must share the scale b")
        if len({p.n for p in parts}) != 1:
            raise SchemeError("intersect parts disagree on the ground size")
        self.parts = tuple(parts)
        self.n = parts[0].n
        self.b = parts[0].b
        self.bound_expr = " * ".join(f"({p.bound_expr})" for p in parts)
        self.construction_slack = ordered_sum(p.construction_slack
                                              for p in parts)
        self.loops = 0
        for p in parts:
            self.loops |= p.loops

    def bound(self) -> float:
        return math.prod(p.bound() for p in self.parts)

    def load(self, x: FractionalPoint) -> float:
        return max(p.load(x) for p in self.parts)

    def bind(self, x, stream=None) -> SchemeSampler:
        return _IntersectionSampler([p.bind(x, stream) for p in self.parts])


def factory_from_json(kind: str, obj: dict, b: float, eps: float,
                      exact: Optional[bool]) -> GreedyOcrsFactory:
    """Build the ``kind`` scheme factory from an instance object.

    The object carries the scheme's constraint: ``matroid`` (a matroid
    descriptor), ``graph`` (plus an optional ``deterministic`` flag),
    ``sizes``, or for ``intersect`` a nonempty list ``parts`` of objects
    that each name their ``scheme`` (matroid, matching or knapsack).  The
    scale, the chain tolerance and exactness come from the caller.
    """
    if kind == "matroid":
        return MatroidChainFactory(field(obj, "matroid", matroid_from_json),
                                   b, eps=eps, exact=exact)
    if kind == "matching":
        deterministic = obj.get("deterministic", False)
        if not isinstance(deterministic, bool):
            raise SchemeError("'deterministic' must be a JSON boolean")
        return MatchingFactory(field(obj, "graph", graph_from_json), b,
                               deterministic=deterministic)
    if kind == "knapsack":
        return KnapsackFactory(knapsack_from_json(obj), b)
    if kind == "intersect":
        def part(value) -> GreedyOcrsFactory:
            scheme = field(value, "scheme", json_str)
            if scheme not in ("matroid", "matching", "knapsack"):
                raise ValueError("'scheme' must be matroid, matching or "
                                 "knapsack")
            return factory_from_json(scheme, value, b, eps, exact)

        def parts(value) -> list[GreedyOcrsFactory]:
            if not isinstance(value, list) or not value:
                raise ValueError("must be a nonempty list")
            return [part(v) for v in value]

        return IntersectionFactory(field(obj, "parts", parts))
    raise SchemeError(f"unknown scheme '{kind}'")
