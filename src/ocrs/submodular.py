"""Submodular objectives: multilinear extension, subsampling bounds,
continuous greedy, and submodular probing.

Oracles audit submodularity (and monotonicity when claimed) exhaustively at
construction for small ground sets; the multilinear extension has an exact
mode (full 2^n sum) and a sampled mode with confidence half-widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .applications import default_factory, probe, probing_block_key
from .core import (FractionalPoint, SeedSpec, float_list, int_list,
                   iter_bits, json_int, ordered_sum, pack_mask_rows,
                   read_field, trial_columns)
from .harness import MeanEstimate, grouped_values
from .matroids import (Matroid, in_scaled_matroid_polytope,
                       max_weight_independent)
from .optimize import ConstraintSpec, constraint_member, cutting_plane_lp
from .schemes import GreedyOcrsFactory, run_greedy_mask

_AUDIT_LIMIT = 8
_EXACT_LIMIT = 14

_DOMAIN_TRIALS = 20
_DOMAIN_CONSTRUCT_IN = 22
_DOMAIN_CONSTRUCT_OUT = 23


class SubmodularOracle:
    """Nonnegative set function with an audited submodularity certificate."""

    def __init__(self, n: int, fn: Callable[[int], float], kind: str,
                 monotone: bool):
        self.n = n
        self._fn = fn
        self.kind = kind
        self.monotone = monotone
        self._table: Optional[np.ndarray] = None
        if n <= _AUDIT_LIMIT:
            self._audit()

    def value(self, mask: int) -> float:
        if self._table is not None:
            return float(self._table[mask])
        return self._fn(mask)

    def table(self) -> np.ndarray:
        if self._table is None:
            if self.n > _EXACT_LIMIT + 2:
                raise ValueError("full value table too large")
            self._table = np.array([self._fn(mask)
                                    for mask in range(1 << self.n)])
        return self._table

    def _audit(self) -> None:
        tab = self.table()
        if np.any(tab < -1e-9):
            raise ValueError("function must be nonnegative")
        if tab.max() > np.finfo(float).max / 2:
            # the submodularity check adds two values, and only below half
            # the float maximum does every such sum stay finite
            raise ValueError("'f' takes values above half the float "
                             "maximum, too large to audit for "
                             "submodularity")
        total = 1 << self.n
        for a in range(total):
            for e in range(self.n):
                bit = 1 << e
                if a & bit:
                    continue
                if self.monotone and tab[a | bit] < tab[a] - 1e-9:
                    raise ValueError("function is not monotone")
        idx = np.arange(total)
        a_grid = idx[:, None]
        b_grid = idx[None, :]
        lhs = tab[a_grid] + tab[b_grid]
        rhs = tab[a_grid | b_grid] + tab[a_grid & b_grid]
        if np.any(lhs < rhs - 1e-9):
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
    if isinstance(obj, dict) and "universe_weights" in obj and "covers" in obj:
        return coverage_function(
            read_field("universe_weights", obj["universe_weights"],
                       float_list),
            read_field("covers", obj["covers"],
                       lambda v: [int_list(s) for s in v]))
    if isinstance(obj, dict) and "arcs" in obj:
        arcs = read_field("arcs", obj["arcs"], lambda v: [
            (json_int(a), json_int(c), float(w)) for a, c, w in v])
        nodes = obj.get("nodes", 1 + max((max(u, v) for u, v, _ in arcs),
                                         default=0))
        return directed_cut(read_field("nodes", nodes, json_int), arcs)
    raise ValueError("unrecognized submodular function descriptor")


# ---------------------------------------------------------------------------
# multilinear extension


def _inclusion_probs(x: np.ndarray) -> np.ndarray:
    """prob[mask] of R(x) = mask, bit e of mask tracking element e."""
    probs = np.ones(1)
    for e in range(x.size):
        probs = np.concatenate([probs * (1.0 - x[e]), probs * x[e]])
    return probs


def multilinear_exact(f: SubmodularOracle, x: FractionalPoint) -> float:
    """F(x) = E[f(R(x))] by the full weighted sum over subsets."""
    if f.n > _EXACT_LIMIT:
        raise ValueError("exact multilinear evaluation limited to 14 elements")
    return float(np.dot(_inclusion_probs(x.values), f.table()))


def multilinear_sampled(f: SubmodularOracle, x: FractionalPoint, trials: int,
                        seed: SeedSpec) -> MeanEstimate:
    return MeanEstimate.from_stream(
        f.value(mask)
        for _start, (masks,) in trial_columns(seed, _DOMAIN_TRIALS, trials,
                                              [x.values])
        for mask in masks.tolist())


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
    tab = f.table()
    n = x.size
    gains = np.zeros(n)
    idx = np.arange(1 << n)
    for e in range(n):
        bit = 1 << e
        xx = x.copy()
        xx[e] = 0.0
        probs = _inclusion_probs(xx)
        gains[e] = float(np.dot(probs, tab[idx | bit] - tab[idx]))
    return gains


def _sampled_marginals(f: SubmodularOracle, x: np.ndarray, samples: int,
                       gen: np.random.Generator) -> np.ndarray:
    n = x.size
    gains = np.zeros(n)
    draws = gen.random((samples, n))
    masks = pack_mask_rows(draws < x)
    for e in range(n):
        bit = 1 << e
        acc = 0.0
        for m in masks.tolist():
            base = m & ~bit
            acc += f.value(base | bit) - f.value(base)
        gains[e] = acc / samples
    return gains


def continuous_greedy(f: SubmodularOracle, matroid: Matroid, b: float,
                      steps_per_unit: int = 100,
                      gradient_samples: int = 500,
                      stream: Optional[np.random.Generator] = None,
                      exact_gradients: Optional[bool] = None) -> FractionalPoint:
    """Ascent toward max F over the matroid polytope, stopped at time b.

    Each step adds delta times the indicator of a maximum-gain independent
    set; after k steps the point is a scaled convex combination of vertices,
    so membership in b * P holds by construction and is asserted after
    every step, against the matroid's rank table (ValueError above
    EXHAUSTIVE_LIMIT elements).
    """
    if not f.monotone:
        raise ValueError("continuous greedy needs a monotone objective")
    if not 0.0 <= b <= 1.0:
        raise ValueError("stop time must lie in [0, 1]")
    n = matroid.n
    x = np.zeros(n)
    if b == 0.0:
        return FractionalPoint(x)
    use_exact = (exact_gradients if exact_gradients is not None
                 else f.n <= _EXACT_LIMIT)
    if not use_exact and stream is None:
        raise ValueError("sampled gradients need a stream")
    steps = max(1, round(b * steps_per_unit))
    counts = np.zeros(n)
    matroid.polytope()  # the step check's table: fail before any step

    def point() -> np.ndarray:
        # b * (counts / steps) keeps every coordinate at most b exactly;
        # the average of <= steps vertex indicators stays inside b * P
        return b * (counts / steps)

    for _ in range(steps):
        x = point()
        if use_exact:
            gains = _exact_marginals(f, x)
        else:
            gains = _sampled_marginals(f, x, gradient_samples, stream)
        direction = max_weight_independent(matroid, gains)
        for e in iter_bits(direction):
            counts[e] += 1
        assert in_scaled_matroid_polytope(matroid, FractionalPoint(point()),
                                          b), \
            "continuous greedy stepped outside b * P"
    return FractionalPoint(point())


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
    """Continuous greedy on F(p o x) over the probing feasible region, 100
    steps per unit of time.

    Directions are vertices of {x : p o x in P_in, x in P_out, x in [0,1]}
    found by the exact simplex, so after stopping at time b the point
    satisfies p o x in b*P_in and x in b*P_out simultaneously.
    """
    if not f.monotone:
        raise ValueError("submodular probing needs a monotone objective")
    n = f.n
    pv = np.asarray(p, dtype=float)
    x = np.zeros(n)
    if b == 0.0:
        return FractionalPoint(x)
    steps = max(1, round(b * 100))
    vertex_sum = np.zeros(n)
    for _ in range(steps):
        x = np.minimum(b * (vertex_sum / steps), 1.0)
        gains = _exact_marginals(f, pv * x) * pv
        direction = _direction_lp(gains, p, inner, outer)
        vertex_sum += direction
    x = np.minimum(b * (vertex_sum / steps), 1.0)
    point = FractionalPoint(x)
    _assert_scaled_membership(FractionalPoint(pv * x), inner, b)
    _assert_scaled_membership(point, outer, b)
    return point


def _assert_scaled_membership(y: FractionalPoint, spec: ConstraintSpec,
                              b: float) -> None:
    if isinstance(spec, Matroid):
        assert in_scaled_matroid_polytope(spec, y, b), \
            "point left the scaled polytope"
    else:
        load = ordered_sum(s * v for s, v in zip(spec.sizes, y.values))
        assert load <= b + 1e-9, "point left the scaled knapsack"


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
    in_member = constraint_member(inner)
    out_member = constraint_member(outer)

    def value(state, order: Sequence[int]) -> float:
        _probed, selected = probe(order, *state, in_member, out_member)
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
