"""Submodular objectives: the exact multilinear extension, subsampling
bounds, continuous greedy, and submodular probing.

An oracle has at most 14 elements.  It tabulates its function once and
audits the table at construction, so every value, the multilinear extension
and every gradient of the ascent are exact reads of that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .applications import default_factory, probe, probing_block_key
from .core import (FractionalPoint, SeedSpec, field, float_list, int_list,
                   iter_bits, json_float, json_int, ordered_sum, read_field,
                   subset_probs, trial_columns)
from .harness import MeanEstimate, grouped_values
from .matroids import (Matroid, in_scaled_matroid_polytope,
                       max_weight_independent)
from .optimize import ConstraintSpec, cutting_plane_lp
from .schemes import GreedyOcrsFactory, run_greedy_mask

_EXACT_LIMIT = 14

_DOMAIN_TRIALS = 20
_DOMAIN_CONSTRUCT_IN = 22
_DOMAIN_CONSTRUCT_OUT = 23


class SubmodularOracle:
    """Nonnegative set function on at most 14 elements, tabulated once.

    ``table[mask]`` is ``fn(mask)`` for every subset.  The table is audited
    at construction: nonnegativity, then values below half the float
    maximum, then monotonicity when claimed, then submodularity in local
    form.  The last two compare float sums, whose rounding grows with their
    scale, so they allow ``1e-9 * max(1, max |f|)``.
    """

    def __init__(self, n: int, fn: Callable[[int], float], kind: str,
                 monotone: bool):
        if n > _EXACT_LIMIT:
            raise ValueError(
                "exact multilinear evaluation limited to 14 elements")
        self.n = n
        self.kind = kind
        self.monotone = monotone
        self.table = np.array([fn(mask) for mask in range(1 << n)],
                              dtype=float)
        self._audit()

    def value(self, mask: int) -> float:
        return float(self.table[mask])

    def _audit(self) -> None:
        tab = self.table
        if np.any(tab < -1e-9):
            raise ValueError("function must be nonnegative")
        if tab.max() > np.finfo(float).max / 2:
            # the submodularity check adds two values, and only below half
            # the float maximum does every such sum stay finite
            raise ValueError("'f' takes values above half the float "
                             "maximum, too large to audit for "
                             "submodularity")
        tol = 1e-9 * max(1.0, float(np.abs(tab).max()))
        if self.monotone:
            for e in range(self.n):
                pairs = tab.reshape(-1, 2, 1 << e)
                if np.any(pairs[:, 1] < pairs[:, 0] - tol):
                    raise ValueError("function is not monotone")
        # f(S+e) + f(S+g) >= f(S+e+g) + f(S) for e < g and S holding
        # neither, which is equivalent to submodularity
        for g in range(self.n):
            for e in range(g):
                quad = tab.reshape(-1, 2, 1 << (g - e - 1), 2, 1 << e)
                if np.any(quad[:, 0, :, 1] + quad[:, 1, :, 0]
                          < quad[:, 1, :, 1] + quad[:, 0, :, 0] - tol):
                    raise ValueError("function is not submodular")


def coverage_function(universe_weights: Sequence[float],
                      covers: Sequence[Sequence[int]]) -> SubmodularOracle:
    """Weighted coverage: value of the union of the chosen elements' sets."""
    weights = np.asarray(universe_weights, dtype=float)
    if not (np.all((weights >= 0) & np.isfinite(weights))
            and math.isfinite(ordered_sum(weights.tolist()))):
        raise ValueError("'universe_weights' must be finite and nonnegative, "
                         "with a finite total")
    cover_masks = []
    for s in covers:
        m = 0
        for u in s:
            if not 0 <= u < weights.size:
                raise ValueError("covered item outside the universe")
            m |= 1 << u
        cover_masks.append(m)

    def fn(mask: int) -> float:
        covered = 0
        for e in iter_bits(mask):
            covered |= cover_masks[e]
        return float(ordered_sum(weights[u] for u in iter_bits(covered)))

    return SubmodularOracle(len(cover_masks), fn, "coverage", monotone=True)


def weighted_matroid_rank(matroid: Matroid,
                          weights: Sequence[float]) -> SubmodularOracle:
    """f(S) = maximum weight of an independent subset of S."""
    w = [float(v) for v in weights]
    if any(not 0 <= v < math.inf for v in w):
        raise ValueError("weights must be finite and nonnegative")

    def fn(mask: int) -> float:
        order = sorted(iter_bits(mask), key=lambda e: (-w[e], e))
        kept = 0
        total = 0.0
        for e in order:
            if matroid.indep(kept | (1 << e)):
                kept |= 1 << e
                total += w[e]
        return total

    return SubmodularOracle(matroid.n, fn, "weighted-matroid-rank",
                            monotone=True)


def directed_cut(num_nodes: int,
                 arcs: Sequence[tuple[int, int, float]]) -> SubmodularOracle:
    """f(S) = total weight of arcs from S to its complement (non-monotone)."""
    for u, v, w in arcs:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes
                and 0 <= w < math.inf):
            raise ValueError("'arcs' need valid endpoints and finite "
                             "nonnegative weights")

    def fn(mask: int) -> float:
        return float(ordered_sum(w for u, v, w in arcs
                                 if (mask >> u) & 1 and not (mask >> v) & 1))

    return SubmodularOracle(num_nodes, fn, "directed-cut", monotone=False)


def submodular_from_json(obj: dict) -> SubmodularOracle:
    """A directed cut when the descriptor has ``arcs``, else a coverage
    function."""
    if isinstance(obj, dict) and "arcs" in obj:
        arcs = field(obj, "arcs", lambda v: [
            (json_int(a), json_int(c), json_float(w)) for a, c, w in v])
        nodes = obj.get("nodes", 1 + max((max(u, v) for u, v, _ in arcs),
                                         default=0))
        return directed_cut(read_field("nodes", nodes, json_int), arcs)
    return coverage_function(
        field(obj, "universe_weights", float_list),
        field(obj, "covers", lambda v: [int_list(s) for s in v]))


# ---------------------------------------------------------------------------
# multilinear extension


def multilinear_exact(f: SubmodularOracle, x: FractionalPoint) -> float:
    """F(x) = E[f(R(x))] by the full weighted sum over subsets."""
    return float(np.dot(subset_probs(x.values, range(x.n)), f.table))


# ---------------------------------------------------------------------------
# the subsampling bounds


def ocrs_submodular_value(f: SubmodularOracle, factory: GreedyOcrsFactory,
                          x: FractionalPoint, trials: int,
                          seed: SeedSpec) -> MeanEstimate:
    """Mean f(S) over greedy OCRS runs in index order; monotone objectives
    only."""
    if not f.monotone:
        raise ValueError("non-monotone objectives use half_subsample_value")
    return _ocrs_value_loop(f, factory, x, trials, seed,
                            half_subsample=False)


def half_subsample_value(f: SubmodularOracle, factory: GreedyOcrsFactory,
                         x: FractionalPoint, trials: int,
                         seed: SeedSpec) -> MeanEstimate:
    """Mean f over a coin-thinned copy of the OCRS output (rate one half),
    runs in index order."""
    return _ocrs_value_loop(f, factory, x, trials, seed,
                            half_subsample=True)


def _ocrs_value_loop(f: SubmodularOracle, factory: GreedyOcrsFactory,
                     x: FractionalPoint, trials: int, seed: SeedSpec,
                     half_subsample: bool) -> MeanEstimate:
    n = x.n
    sampler = factory.bind(x, seed.stream(_DOMAIN_CONSTRUCT_OUT))
    segments = [x.values, sampler]
    if half_subsample:
        # coins that keep each selected element with probability one half
        segments.append(np.full(n, 0.5))
    blocks = trial_columns(seed, _DOMAIN_TRIALS, trials, segments)
    if not half_subsample:
        # the monotone mode keeps the whole selection
        blocks = ((start, [actives, families, np.full_like(actives, -1)])
                  for start, (actives, families) in blocks)

    def key(columns) -> list[np.ndarray]:
        # the selection is a subset of the active set, so only the coins
        # inside it matter
        active, (codes, _families), kept = columns
        return [active, codes, kept & active]

    def value(state, order: Sequence[int]) -> float:
        active, family, kept = state
        return f.value(run_greedy_mask(family, order, active) & kept)

    return MeanEstimate.from_blocks(
        grouped_values(blocks, key, value, tuple(range(n))))


# ---------------------------------------------------------------------------
# continuous greedy


def _exact_marginals(f: SubmodularOracle, x: np.ndarray) -> np.ndarray:
    """Partial derivatives of the extension: E[f(S + e) - f(S)] with S drawn
    from R(x) restricted away from e.  (The raise-to-one marginal equals
    this scaled by 1 - x_e; either drives the ascent to the same bound.)"""
    tab = f.table
    n = x.size
    gains = np.zeros(n)
    idx = np.arange(1 << n)
    for e in range(n):
        bit = 1 << e
        xx = x.copy()
        xx[e] = 0.0
        probs = subset_probs(xx, range(n))
        gains[e] = float(np.dot(probs, tab[idx | bit] - tab[idx]))
    return gains


def _ascent(f: SubmodularOracle, p: np.ndarray, b: float,
            direction: Callable[[np.ndarray], np.ndarray],
            check: Callable[[np.ndarray], None]) -> FractionalPoint:
    """Continuous greedy (Calinescu, Chekuri, Pal & Vondrak 2011) on
    F(p o x), stopped at time b, 100 steps per unit of time.

    Each step adds a vertex that ``direction`` picks for the exact gains
    of F(p o x).  The point is b / steps times the sum of the vertices so
    far, so it stays in b times the region (a down-closed convex set), and
    ``check`` asserts that after every step.
    """
    x = np.zeros(p.size)
    if b == 0.0:
        return FractionalPoint(x)
    steps = max(1, round(b * 100))
    vertex_sum = np.zeros(p.size)
    for _ in range(steps):
        vertex_sum += direction(_exact_marginals(f, p * x) * p)
        # b * (vertex_sum / steps) puts a coordinate that every direction
        # holds at b exactly
        x = np.minimum(b * (vertex_sum / steps), 1.0)
        check(x)
    return FractionalPoint(x)


def continuous_greedy(f: SubmodularOracle, matroid: Matroid,
                      b: float) -> FractionalPoint:
    """Ascent toward max F over the matroid polytope, stopped at time b.

    Each direction is the indicator of a maximum-gain independent set, and
    membership in b * P is asserted after every step against the matroid's
    rank table.
    """
    if not f.monotone:
        raise ValueError("continuous greedy needs a monotone objective")
    if not 0.0 <= b <= 1.0:
        raise ValueError("stop time must lie in [0, 1]")
    _check_ground(f, matroid.n, "the matroid")
    n = matroid.n

    def direction(gains: np.ndarray) -> np.ndarray:
        chosen = max_weight_independent(matroid, gains)
        return np.array([chosen >> e & 1 for e in range(n)], dtype=float)

    return _ascent(f, np.ones(n), b, direction, lambda x:
                   _assert_scaled_membership(FractionalPoint(x), matroid, b))


# ---------------------------------------------------------------------------
# submodular probing


@dataclass
class SubmodularProbingResult:
    x_tilde: FractionalPoint
    estimate: MeanEstimate
    multilinear_benchmark: float
    scheme_constant: float
    bound_expr: str

    @property
    def target(self) -> float:
        return self.scheme_constant * self.multilinear_benchmark


def _direction_lp(gains: np.ndarray, p: Sequence[float],
                  inner: ConstraintSpec, outer: ConstraintSpec) -> np.ndarray:
    objective = [Fraction(float(max(g, 0.0))) for g in gains]
    return cutting_plane_lp(objective, p, inner, outer).x.values


def continuous_greedy_probing(f: SubmodularOracle, p: Sequence[float],
                              inner: ConstraintSpec, outer: ConstraintSpec,
                              b: float) -> FractionalPoint:
    """Continuous greedy on F(p o x) over the probing feasible region.

    Directions are vertices of {x : p o x in P_in, x in P_out, x in [0,1]}
    found by the exact simplex, and after every step the point satisfies
    p o x in b*P_in and x in b*P_out simultaneously (asserted).
    """
    if not f.monotone:
        raise ValueError("submodular probing needs a monotone objective")
    _check_ground(f, len(p), "'p'")
    pv = np.asarray(p, dtype=float)

    def check(x: np.ndarray) -> None:
        _assert_scaled_membership(FractionalPoint(pv * x), inner, b)
        _assert_scaled_membership(FractionalPoint(x), outer, b)

    return _ascent(f, pv, b,
                   lambda gains: _direction_lp(gains, p, inner, outer), check)


def _check_ground(f: SubmodularOracle, size: int, name: str) -> None:
    """A ValueError naming both sizes unless ``name`` has f's ``n``
    elements: the ascent reads f's table at every subset of its point."""
    if size != f.n:
        raise ValueError(f"'f' is over {f.n} elements but {name} has {size}")


def _assert_scaled_membership(y: FractionalPoint, spec: ConstraintSpec,
                              b: float) -> None:
    if isinstance(spec, Matroid):
        assert in_scaled_matroid_polytope(spec, y, b), \
            "point left the scaled polytope"
    else:
        assert spec.load(y.values) <= b + 1e-9, \
            "point left the scaled knapsack"


def run_submodular_probing(f: SubmodularOracle, p: Sequence[float],
                           inner: ConstraintSpec, outer: ConstraintSpec,
                           b: float, trials: int,
                           seed: SeedSpec) -> SubmodularProbingResult:
    """Continuous greedy then online probing in index order with the
    default schemes; compares E[f(S)] to the product of the scheme
    constants times F(p o x~)."""
    n = f.n
    if len(p) != n:
        raise ValueError("'p' must have one activation probability per "
                         "element of 'f'")
    if any(not 0.0 <= v <= 1.0 for v in p):
        raise ValueError("activation probabilities 'p' must lie in [0, 1]")
    x_tilde = continuous_greedy_probing(f, p, inner, outer, b)
    inner_factory = default_factory(inner, b)
    outer_factory = default_factory(outer, b)
    pv = np.asarray(p, dtype=float)
    inner_point = FractionalPoint(pv * x_tilde.values)
    inner_sampler = inner_factory.bind(inner_point,
                                       seed.stream(_DOMAIN_CONSTRUCT_IN))
    outer_sampler = outer_factory.bind(x_tilde,
                                       seed.stream(_DOMAIN_CONSTRUCT_OUT))

    def value(state, order: Sequence[int]) -> float:
        _probed, selected = probe(order, *state, inner.indep, outer.indep)
        return f.value(selected)

    blocks = trial_columns(seed, _DOMAIN_TRIALS, trials,
                           [x_tilde.values, pv, inner_sampler, outer_sampler])
    estimate = MeanEstimate.from_blocks(grouped_values(
        blocks, probing_block_key, value, tuple(range(n))))
    constant = inner_factory.bound() * outer_factory.bound()
    expr = (f"({inner_factory.bound_expr}) * ({outer_factory.bound_expr})")
    return SubmodularProbingResult(
        x_tilde=x_tilde,
        estimate=estimate,
        multilinear_benchmark=multilinear_exact(f, inner_point),
        scheme_constant=constant,
        bound_expr=expr)
