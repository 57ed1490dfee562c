"""OCRS constructions: chains, sampled families, combination, greedy loop."""

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocrs.core import (FractionalPoint, SeedSpec, iter_bits, iter_submasks,
                       pack_mask, pack_mask_rows)
from ocrs.matroids import (ExplicitMatroid, GraphicMatroid, LaminarMatroid,
                           MatroidPolytope, MatroidView, PartitionMatroid,
                           UniformMatroid, in_scaled_matroid_polytope,
                           random_point_in_polytope)
from ocrs.optimize import KnapsackConstraint
from ocrs.schemes import (_TOL, ChainConstructionError, ChainDecomposition,
                          Graph, IntersectionFactory, KnapsackFactory,
                          KnapsackFamily, MatchingFactory, MatchingFamily,
                          MatroidChainFactory, MatroidChainFamily,
                          PolytopeMembershipError, combine_families,
                          factory_from_json, _mc_sample_count,
                          graph_from_json, matroid_chain_decompose,
                          run_greedy_mask)
from ocrs.harness import brute_force_selectability, _quantifier_selectable

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


# ---------------------------------------------------------------------------
# chain decomposition


def test_chain_single_layer_rank_one():
    m = UniformMatroid(2, 1)
    chain = matroid_chain_decompose(m, FractionalPoint([0.25, 0.25]), 0.5)
    assert chain.levels == (0b11, 0)
    assert chain.span_estimates[0] == pytest.approx(0.25)
    assert chain.span_estimates[1] == pytest.approx(0.25)


def test_chain_zero_point():
    m = GraphicMatroid(4, K4_EDGES)
    chain = matroid_chain_decompose(m, FractionalPoint([0.0] * 6), 0.5)
    assert chain.levels == (m.ground_mask, 0)
    assert all(v == 0.0 for v in chain.span_estimates.values())


def test_chain_rank_one_never_refines():
    # span probability of each element is the other coordinate, below b
    m = UniformMatroid(2, 1)
    for b, xv in ((0.2, 0.18), (0.1, 0.09)):
        chain = matroid_chain_decompose(m, FractionalPoint([xv, xv]), b,
                                        validate_point=False)
        assert chain.levels == (0b11, 0)
        assert chain.span_estimates[0] == pytest.approx(xv)


def _theta_graph(num_paths):
    """Vertices u=0, v=1, midpoints 2..; edge 0 joins u and v directly and
    each path contributes two edges through its midpoint."""
    edges = [(0, 1)]
    for i in range(num_paths):
        mid = 2 + i
        edges.append((0, mid))
        edges.append((mid, 1))
    return GraphicMatroid(2 + num_paths, edges)


def test_chain_multi_level_refinement():
    # the direct edge is spanned by any fully active two-edge path; with
    # seven paths at the polytope boundary that probability exceeds b
    m = _theta_graph(7)
    b = 0.75
    y = (b * (m.full_rank()) - 0.01) / 14
    x = FractionalPoint([0.01] + [y] * 14)
    assert in_scaled_matroid_polytope(m, x, b)
    p_spanned = 1 - (1 - y * y) ** 7
    assert p_spanned > b
    chain = matroid_chain_decompose(m, x, b)
    assert len(chain.levels) >= 3
    assert chain.levels[1] & 1, "the direct edge must be pushed down a level"
    assert all(v <= b + 1e-9 for v in chain.span_estimates.values())
    # every element sits in exactly one layer
    assert sum(layer.bit_count() for layer in chain.layers) == 15


def test_chain_recorded_estimates_complement_selectability():
    # the recorded per-element span probability is exactly one minus the
    # element's true selectability in its layer view
    m = _theta_graph(7)
    b = 0.75
    y = (b * m.full_rank() - 0.01) / 14
    x = FractionalPoint([0.01] + [y] * 14)
    chain = matroid_chain_decompose(m, x, b)
    xv = x.values
    for layer, view in zip(chain.layers, chain.views):
        for e in iter_bits(layer):
            free = layer & ~(1 << e)
            sel = 0.0
            for t_mask in _submasks(free):
                prob = 1.0
                for g in iter_bits(free):
                    prob *= xv[g] if (t_mask >> g) & 1 else 1 - xv[g]
                if not view.spans(t_mask, e):
                    sel += prob
            assert sel == pytest.approx(1 - chain.span_estimates[e], abs=1e-12)
            assert sel >= 1 - b - 1e-9


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _loop_span_probability(view, x, level_mask, s_mask, e):
    """Pr[e in span((R(x) | S) - e)] with R restricted to the level, by one
    ``spans`` query per submask of the free elements: the reference for the
    rank-table sweep."""
    free = level_mask & ~s_mask & ~(1 << e)
    free_list = list(iter_bits(free))
    total = 0.0
    for t_mask in iter_submasks(free):
        prob = 1.0
        for g in free_list:
            prob *= x[g] if (t_mask >> g) & 1 else 1.0 - x[g]
        if prob == 0.0:
            continue
        if view.spans(t_mask | s_mask, e):
            total += prob
    return total


def _loop_chain(m, x, b):
    """Levels and span estimates of the exact chain, by the submask loop.
    Loops (dependent singletons) stay out of refinement."""
    levels = [m.ground_mask]
    estimates = {}
    current = m.ground_mask
    loops = sum(1 << e for e in iter_bits(m.ground_mask)
                if not m.indep(1 << e))
    while current:
        view = MatroidView(m, 0, current)
        s_mask = 0
        while True:
            sweep = {}
            added = 0
            for e in iter_bits(current & ~s_mask & ~loops):
                p = _loop_span_probability(view, x.values, current, s_mask, e)
                if p > b + _TOL:
                    added |= 1 << e
                    s_mask |= 1 << e
                else:
                    sweep[e] = p
            if not added:
                break
        if s_mask and s_mask == current & ~loops:
            raise ChainConstructionError("refinement absorbed a whole level")
        estimates.update(sweep)
        levels.append(s_mask)
        current = s_mask
    return tuple(levels), estimates


def _graphic_edges(draw, vertices, count):
    pairs = list(itertools.combinations(range(vertices), 2))
    return [pairs[i] for i in draw(st.lists(
        st.integers(0, len(pairs) - 1), min_size=count, max_size=count))]


@st.composite
def _small_matroids(draw):
    """Uniform, partition, graphic, laminar and explicit matroids of at most
    8 elements, and views whose ground set is not the index range 0..k-1.
    Only views can have loops (elements spanned by the contracted set)."""
    kind = draw(st.sampled_from(["uniform", "partition", "graphic",
                                 "laminar", "explicit", "view"]))
    n = draw(st.integers(1, 8))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(1, n)))
    if kind == "partition":
        block_of = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[e for e in range(n) if block_of[e] == i]
                  for i in sorted(set(block_of))]
        return PartitionMatroid(blocks, [draw(st.integers(1, len(bl)))
                                         for bl in blocks])
    if kind == "laminar":
        inner = draw(st.integers(0, n))
        outer = draw(st.integers(inner, n))
        sets = [range(inner), range(outer), range(outer, n)]
        return LaminarMatroid(n, sets, [draw(st.integers(1, 3))
                                        for _ in sets])
    graphic = GraphicMatroid(5, _graphic_edges(draw, 5, n))
    if kind == "graphic":
        return graphic
    if kind == "explicit":
        rank = graphic.full_rank()
        bases = [mask for mask in range(1 << n)
                 if mask.bit_count() == rank and graphic.indep(mask)]
        return ExplicitMatroid(n, [list(iter_bits(mask)) for mask in bases])
    kept = draw(st.integers(1, (1 << n) - 1))
    contracted = draw(st.integers(0, (1 << n) - 1)) & ~kept
    return MatroidView(graphic, contracted, kept)


def _assert_chain_matches_loop(m, x, b):
    """The rank-table chain has the loop's levels and bit-equal span
    estimates, and its family lookups equal the per-view rules on every
    mask.  Returns the chain (None when both constructions fail)."""
    try:
        levels, estimates = _loop_chain(m, x, b)
    except ChainConstructionError:
        with pytest.raises(ChainConstructionError):
            matroid_chain_decompose(m, x, b)
        return None
    chain = matroid_chain_decompose(m, x, b)
    assert chain.levels == levels
    assert chain.span_estimates == estimates
    fam = MatroidChainFamily(chain)
    layers = list(zip(chain.layers, chain.views))
    for mask in range(1 << m.n):
        member = not mask & ~m.ground_mask and all(
            view.indep(mask & layer) for layer, view in layers)
        assert fam.member(mask) == member
        selectable = 0
        for layer, view in layers:
            for e in iter_bits(layer):
                if not view.spans(mask & layer & ~(1 << e), e):
                    selectable |= 1 << e
        assert fam.selectable_mask(mask) == selectable
    return chain


@settings(max_examples=150, deadline=None)
@given(_small_matroids(), st.sampled_from([0.2, 0.5, 0.75, 0.95]),
       st.integers(0, 2 ** 32 - 1))
def test_table_chain_matches_submask_loop(m, b, seed):
    x = random_point_in_polytope(m, b, np.random.default_rng(seed))
    _assert_chain_matches_loop(m, x, b)


_GRAPHIC_3_LEVELS = [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (0, 1), (1, 2),
                     (0, 2)]


@pytest.mark.parametrize("make,weights,b", [
    (lambda: GraphicMatroid(3, _GRAPHIC_3_LEVELS),
     [0.75, 0.03, 0.05, 29.08, 2.78, 54.68, 5.35, 11.3], 0.75),
    # the same matroid with its elements at odd indices: a view whose
    # ground set is not 0..k-1
    (lambda: MatroidView(GraphicMatroid(3, [e for edge in _GRAPHIC_3_LEVELS
                                            for e in ((0, 1), edge)]),
                         0, sum(1 << (2 * i + 1) for i in range(8))),
     [w for v in [0.75, 0.03, 0.05, 29.08, 2.78, 54.68, 5.35, 11.3]
      for w in (0.0, v)], 0.75),
    (lambda: LaminarMatroid(7, [range(2), range(7)], [1, 2]),
     [2.56, 0.01, 0.16, 1.76, 0.02, 0.11, 0.32], 0.75),
], ids=["graphic", "view-odd-indices", "laminar"])
def test_table_chain_matches_submask_loop_multi_level(make, weights, b):
    # skewed points on the boundary of b * P, found by search, whose chains
    # have three levels
    m = make()
    w = np.array(weights)
    scale = b / MatroidPolytope(m).min_scale(w) * (1 - 1e-12)
    chain = _assert_chain_matches_loop(m, FractionalPoint(w * scale), b)
    assert len(chain.levels) == 3


def test_chain_logs_construction_summary(caplog):
    m = _theta_graph(7)
    b = 0.75
    y = (b * m.full_rank() - 0.01) / 14
    x = FractionalPoint([0.01] + [y] * 14)
    with caplog.at_level(logging.INFO, logger="ocrs.schemes"):
        chain = matroid_chain_decompose(m, x, b)
    sizes = [layer.bit_count() for layer in chain.layers]
    assert len(sizes) >= 2
    top = max(chain.span_estimates.values())
    assert caplog.messages == [
        f"chain: exact; levels {list(chain.levels)}; layer sizes {sizes}; "
        f"max span estimate {top:.6g}; rank table of 32768 subsets"]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ocrs.schemes"):
        matroid_chain_decompose(GraphicMatroid(4, K4_EDGES),
                                FractionalPoint([0.2] * 6), 0.5, exact=False,
                                stream=SeedSpec(1).stream(0))
    samples = _mc_sample_count(6, 0.05)
    assert len(caplog.messages) == 1
    assert caplog.messages[0].startswith(
        f"chain: Monte-Carlo, {samples} samples per estimate; levels [63, 0]")
    assert caplog.messages[0].endswith("rank table of 64 subsets")


def test_chain_monte_carlo_mode():
    m = GraphicMatroid(4, K4_EDGES)
    x = FractionalPoint([0.2] * 6)
    chain = matroid_chain_decompose(m, x, 0.5, eps=0.05,
                                    stream=SeedSpec(1).stream(0), exact=False)
    assert chain.levels == (m.ground_mask, 0)
    exact = matroid_chain_decompose(m, x, 0.5)
    for e in range(6):
        # estimates are shifted down by eps/2 and accurate to eps/2
        assert abs(chain.span_estimates[e] + 0.025
                   - exact.span_estimates[e]) <= 0.03
    assert chain.eps == 0.05 and not chain.exact


def test_chain_rejects_point_outside_polytope():
    m = UniformMatroid(3, 1)
    with pytest.raises(PolytopeMembershipError):
        matroid_chain_decompose(m, FractionalPoint([0.3, 0.3, 0.3]), 0.25)
    with pytest.raises(ChainConstructionError):
        matroid_chain_decompose(m, FractionalPoint([0.3, 0.3, 0.3]), 0.25,
                                validate_point=False)


def test_chain_validation():
    m = UniformMatroid(2, 1)
    view = MatroidView(m, 0, 0b11)
    with pytest.raises(ValueError):
        ChainDecomposition(matroid=m, levels=(0b11, 0b11, 0), views=(view,),
                           b=0.5, eps=0.0, exact=True, span_estimates={})
    with pytest.raises(ValueError):
        ChainDecomposition(matroid=m, levels=(0b01, 0), views=(view,),
                           b=0.5, eps=0.0, exact=True, span_estimates={})


# ---------------------------------------------------------------------------
# family membership and selectability


def _manual_chain(matroid, levels):
    views = tuple(MatroidView(matroid, contracted=lo, kept=hi & ~lo)
                  for hi, lo in zip(levels, levels[1:]))
    return ChainDecomposition(matroid=matroid, levels=tuple(levels),
                              views=views, b=0.5, eps=0.0, exact=True,
                              span_estimates={})


def test_matroid_family_membership():
    m = UniformMatroid(2, 1)
    fam = MatroidChainFamily(_manual_chain(m, [0b11, 0]))
    assert fam.member(0)
    assert fam.member(0b01) and fam.member(0b10)
    assert not fam.member(0b11)


def test_matroid_family_multi_layer_membership():
    # layered family: independence is judged per layer against the view
    m = UniformMatroid(4, 2)
    fam = MatroidChainFamily(_manual_chain(m, [0b1111, 0b1100, 0]))
    # layer {0,1} in (M / {2,3}): contracting two elements exhausts rank 2
    assert not fam.member(0b0001)
    # layer {2,3} restricted: plain rank-2 uniform there
    assert fam.member(0b1100)
    assert fam.member(0)


def test_selectable_matches_quantifier_exhaustive():
    """Fast selectable equals the quantifier definition on every
    (active, element) pair, for every base scheme variant, n <= 5."""
    seed = SeedSpec(42)
    cases = []

    m = GraphicMatroid(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    sampler = MatroidChainFactory(m, 0.5).bind(
        FractionalPoint([0.2, 0.2, 0.1, 0.3]))
    cases.append(sampler.enumerate_families())

    # a manual two-level chain exercises the per-layer span rule
    fam2 = MatroidChainFamily(_manual_chain(UniformMatroid(4, 2),
                                            [0b1111, 0b1100, 0]))
    cases.append([(1.0, fam2)])

    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    sampler = MatchingFactory(g, 0.4).bind(
        FractionalPoint([0.1, 0.15, 0.1, 0.05, 0.1]))
    cases.append(sampler.enumerate_families())

    # a multigraph: parallel edges block each other like adjacent ones
    g = Graph(3, [(0, 1), (0, 1), (1, 2), (0, 2), (1, 2)])
    sampler = MatchingFactory(g, 0.4).bind(
        FractionalPoint([0.05, 0.05, 0.1, 0.1, 0.05]))
    cases.append(sampler.enumerate_families())

    sampler = KnapsackFactory(
        KnapsackConstraint([0.8, 0.5, 0.4, 0.3, 0.25]), 0.25).bind(
        FractionalPoint([0.1, 0.1, 0.1, 0.1, 0.1]))
    cases.append(sampler.enumerate_families())

    for families in cases:
        for _prob, fam in families:
            n = fam.n
            for active in range(1 << n):
                fast = fam.selectable_mask(active)
                for e in range(n):
                    assert bool((fast >> e) & 1) == _quantifier_selectable(
                        fam, active, e), (fam, active, e)


def test_intersection_selectable_implies_quantifier():
    g = Graph(3, [(0, 1), (1, 2)])
    mfac = MatchingFactory(g, 0.3)
    kfac = KnapsackFactory(KnapsackConstraint([0.3, 0.9]), 0.25)
    # conjunction under-approximates on constructed cases but never
    # over-approximates the quantifier event
    inter = IntersectionFactory([MatroidChainFactory(UniformMatroid(2, 1), 0.25),
                                 kfac])
    sampler = inter.bind(FractionalPoint([0.1, 0.1]))
    for _prob, fam in sampler.enumerate_families():
        for active in range(1 << fam.n):
            fast = fam.selectable_mask(active)
            for e in range(fam.n):
                if (fast >> e) & 1:
                    assert _quantifier_selectable(fam, active, e)


def test_family_subset_of_underlying_constraint():
    """Every member of a sampled family is feasible in the real constraint."""
    # matroid chain on K4
    m = GraphicMatroid(4, K4_EDGES)
    x = FractionalPoint([0.15] * 6)
    fam = MatroidChainFactory(m, 0.5).bind(x).sample()
    for mask in range(1 << 6):
        if fam.member(mask):
            assert m.indep(mask)
    # matching on the triangle
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    sampler = MatchingFactory(g, 0.5).bind(FractionalPoint([0.2, 0.2, 0.2]))
    for _p, fam in sampler.enumerate_families():
        for mask in range(1 << 3):
            if fam.member(mask):
                used = set()
                ok = True
                for e in iter_bits(mask):
                    u, v = g.edges[e]
                    ok = ok and u not in used and v not in used
                    used.update((u, v))
                assert ok
    # knapsack
    sizes = [0.6, 0.3, 0.3, 0.2]
    sampler = KnapsackFactory(KnapsackConstraint(sizes), 0.25).bind(
        FractionalPoint([0.1, 0.2, 0.2, 0.3]))
    for _p, fam in sampler.enumerate_families():
        for mask in range(1 << 4):
            if fam.member(mask):
                assert sum(sizes[e] for e in iter_bits(mask)) <= 1 + 1e-12


def test_family_down_closed_random():
    gen = SeedSpec(7).stream(0)
    m = GraphicMatroid(4, K4_EDGES)
    fam = MatroidChainFactory(m, 0.5).bind(FractionalPoint([0.15] * 6)).sample()
    sampler = KnapsackFactory(
        KnapsackConstraint([0.6, 0.3, 0.3, 0.2, 0.1, 0.4]), 0.25).bind(
        FractionalPoint([0.1] * 6))
    families = [fam] + [f for _p, f in sampler.enumerate_families()]
    for family in families:
        members = [mask for mask in range(1 << 6) if family.member(mask)]
        for _ in range(2000):
            mask = members[int(gen.integers(len(members)))]
            sub = int(gen.integers(1 << 6)) & mask
            assert family.member(sub)


# ---------------------------------------------------------------------------
# matching specifics


def test_matching_k_probability_single_edge():
    g = Graph(2, [(0, 1)])
    for b in (0.3, 1.0):
        sampler = MatchingFactory(g, b).bind(FractionalPoint([b]))
        outcomes = sampler.enumerate_families()
        p_in_k = sum(prob for prob, fam in outcomes if fam.k_mask & 1)
        assert p_in_k == pytest.approx((1 - math.exp(-b)) / b)


def test_matching_zero_coordinate_gets_k_probability_one():
    g = Graph(3, [(0, 1), (1, 2)])
    sampler = MatchingFactory(g, 0.5).bind(FractionalPoint([0.0, 0.3]))
    assert sampler.k_probs[0] == 1.0
    outcomes = sampler.enumerate_families()
    assert all(fam.k_mask & 1 for _p, fam in outcomes)
    # membership of the zero-probability singleton holds with probability one
    assert sum(p for p, fam in outcomes if fam.member(0b01)) == pytest.approx(1.0)


def test_matching_deterministic_variant():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    fac = MatchingFactory(g, 0.4, deterministic=True)
    assert fac.bound() == pytest.approx(0.36)
    sampler = fac.bind(FractionalPoint([0.15, 0.15, 0.1]))
    assert sampler.draw_count == 0
    [(prob, fam)] = sampler.enumerate_families()
    assert prob == 1.0 and fam.k_mask == 0b111


def test_matching_degree_violation_rejected():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(PolytopeMembershipError):
        MatchingFactory(g, 0.4).bind(FractionalPoint([0.3, 0.2]))


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_json({"vertices": 2})


# ---------------------------------------------------------------------------
# knapsack specifics


def test_knapsack_p_big_formula():
    # single unit-size element at x = b = 1/2: the big mode is certain and
    # the element is always selectable
    fac = KnapsackFactory(KnapsackConstraint([1.0]), 0.5)
    sampler = fac.bind(FractionalPoint([0.5]))
    assert sampler.p_big == pytest.approx(1.0)
    [(prob, fam)] = [o for o in sampler.enumerate_families() if o[0] > 0]
    assert fam.big_mode and prob == pytest.approx(1.0)
    assert fam.selectable_mask(0b1) == 0b1

    # same shape at b = 1/4: b_big = 1/4, so p_big = (1 - 1/2 + 1/2) / (3/2)
    sampler = KnapsackFactory(
        KnapsackConstraint([1.0]), 0.25).bind(FractionalPoint([0.25]))
    assert sampler.p_big == pytest.approx(2 / 3)

    # zero point: p_big = (1-2b)/(2-2b)
    sampler = KnapsackFactory(
        KnapsackConstraint([1.0, 0.4]), 0.25).bind(FractionalPoint([0, 0]))
    assert sampler.p_big == pytest.approx((1 - 0.5) / (2 - 0.5))
    for _p, fam in sampler.enumerate_families():
        assert fam.member(0)


def _loop_selectable(knapsack, big_mode: bool, active: int) -> int:
    """The knapsack family's selectable elements by brute force: sizes added
    from the highest element down, and the fullest feasible set of the
    other active elements of the mode found over every submask."""

    def size_sum(mask):
        total = 0.0
        for e in sorted(iter_bits(mask), reverse=True):
            total += knapsack.sizes[e]
        return total

    def best_feasible_sum(mask):
        best = 0.0
        for sub in iter_submasks(mask):
            s = size_sum(sub)
            if s <= 1.0 + 1e-9 and s > best:
                best = s
        return best

    mode = (knapsack.big_mask if big_mode
            else ((1 << knapsack.n) - 1) & ~knapsack.big_mask)
    out = 0
    for e in iter_bits(mode):
        worst = best_feasible_sum(active & mode & ~(1 << e))
        if worst + knapsack.sizes[e] <= 1.0 + _TOL:
            out |= 1 << e
    return out


@st.composite
def _ulps_from(draw, value: float) -> float:
    """``value`` moved by a few ulps, kept in [0, 1]."""
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(2.0, steps))
    return min(max(value, 0.0), 1.0)


# sizes of exactly 1/2 (small) and just above it (big), and sizes whose
# pools of 2 to 4 sum to within a few ulps of the capacity 1 + 1e-9
_KNAPSACK_SIZES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.5, 1.0, 0.25, 1 / 3, *((1 + 1e-9) / k
                                              for k in (2, 3, 4))]
                    ).flatmap(_ulps_from))


@settings(max_examples=300, deadline=None)
@given(st.lists(_KNAPSACK_SIZES, min_size=1, max_size=8),
       st.integers(0, (1 << 8) - 1))
# the three sizes near 1/3 fit added from the highest down but not from the
# lowest up: only the descending sums leave element 3 unselectable
@example([0.33333333366666695, 0.3333333336666664, 0.3333333336666669, 0.3],
         0b1111)
def test_knapsack_selectable_mask_matches_the_submask_loop(sizes, active):
    knapsack = KnapsackConstraint(sizes)
    active &= (1 << knapsack.n) - 1
    for big_mode in (False, True):
        family = KnapsackFamily(knapsack, big_mode)
        assert family.selectable_mask(active) == _loop_selectable(
            knapsack, big_mode, active)


def test_knapsack_big_mode_reads_pairs_that_fit():
    """Two sizes just above 1/2 fit the capacity 1 + 1e-9 together, so a
    big-mode family holds pairs: with all three items active, each one
    would overfill the other two, and none is selectable."""
    family = KnapsackFamily(KnapsackConstraint([0.5 + 2e-10] * 3), True)
    assert family.member(0b011) and not family.member(0b111)
    for active in range(1 << 3):
        assert family.selectable_mask(active) == sum(
            1 << e for e in range(3)
            if _quantifier_selectable(family, active, e))
    assert family.selectable_mask(0b111) == 0


def test_knapsack_half_size_is_small():
    fac = KnapsackFactory(KnapsackConstraint([0.5, 0.6]), 0.25)
    assert fac.knapsack.big_mask == 0b10


def test_knapsack_mode_membership():
    st_sizes = [0.8, 0.6, 0.4, 0.3]
    sampler = KnapsackFactory(KnapsackConstraint(st_sizes), 0.25).bind(
        FractionalPoint([0.1, 0.1, 0.1, 0.1]))
    big = next(f for _p, f in sampler.enumerate_families() if f.big_mode)
    small = next(f for _p, f in sampler.enumerate_families() if not f.big_mode)
    assert big.member(0b0001) and big.member(0b0010)
    assert not big.member(0b0011)          # 0.8 + 0.6 over capacity
    assert not big.member(0b0100)          # small element in big mode
    assert small.member(0b1100) and not small.member(0b0001)


def test_knapsack_scale_validation():
    with pytest.raises(ValueError):
        KnapsackFactory(KnapsackConstraint([0.5]), 0.75)
    with pytest.raises(PolytopeMembershipError):
        KnapsackFactory(
            KnapsackConstraint([1.0]), 0.25).bind(FractionalPoint([0.5]))


def test_knapsack_sizes_above_one_fit_the_lp_but_not_the_scheme():
    """The LP takes any finite nonnegative sizes; the knapsack scheme's
    guarantee needs every size in [0, 1]."""
    knapsack = KnapsackConstraint((1.5, 0.2))
    assert knapsack.indep(0b10) and not knapsack.indep(0b01)
    with pytest.raises(ValueError, match="'sizes'"):
        KnapsackFactory(knapsack, 0.25)
    for bad in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="'sizes'"):
            KnapsackConstraint((bad, 0.2))


# ---------------------------------------------------------------------------
# combination


def test_combine_single_identity():
    m = UniformMatroid(3, 1)
    fam = MatroidChainFactory(m, 0.5).bind(FractionalPoint([0.1] * 3)).sample()
    assert combine_families([fam]) is fam


def test_combined_selectability_disjoint_supports():
    # each part only constrains one block, so the conjunction equals the
    # binding part's selectability exactly
    m1 = PartitionMatroid([[0, 1], [2, 3]], [1, 2])
    m2 = PartitionMatroid([[0, 1], [2, 3]], [2, 1])
    b = 0.5
    x = FractionalPoint([0.2, 0.25, 0.15, 0.1])
    f1 = MatroidChainFactory(m1, b)
    f2 = MatroidChainFactory(m2, b)
    both = IntersectionFactory([f1, f2])
    exact1 = brute_force_selectability(f1, x)
    exact2 = brute_force_selectability(f2, x)
    exact12 = brute_force_selectability(both, x)
    assert np.allclose(exact12, np.minimum(exact1, exact2))
    assert both.bound() == pytest.approx(0.25)
    assert both.bound_expr == "(1-b) * (1-b)"


def test_factory_ground_size_and_load():
    x = FractionalPoint([0.1, 0.3])
    mfac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    gfac = MatchingFactory(Graph(3, [(0, 1), (1, 2)]), 0.5)
    kfac = KnapsackFactory(KnapsackConstraint([0.5, 1.0]), 0.5)
    assert (mfac.n, gfac.n, kfac.n) == (2, 2, 2)
    assert mfac.load(x) == 0.1 + 0.3
    assert gfac.load(x) == 0.1 + 0.3
    assert kfac.load(x) == pytest.approx(0.5 * 0.1 + 1.0 * 0.3)
    both = IntersectionFactory([mfac, kfac])
    assert both.n == 2 and both.load(x) == mfac.load(x)
    with pytest.raises(ValueError, match="ground size"):
        IntersectionFactory([mfac, KnapsackFactory(
                                       KnapsackConstraint([0.5]), 0.5)])


@st.composite
def _block_matroids(draw):
    """A uniform or partition matroid on at most 12 elements, capacities 0
    (loops) and above the block size included, with a point that is 0 on
    its loops."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        m = UniformMatroid(n, draw(st.integers(0, n + 1)))
    else:
        labels = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
                      if n > 1 else set())
        blocks = [labels[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
        m = PartitionMatroid(blocks, [draw(st.integers(0, len(block) + 1))
                                      for block in blocks])
    x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    x[list(iter_bits(m.loops()))] = 0.0
    return m, x


@settings(max_examples=300, deadline=None)
@given(_block_matroids())
def test_block_load_equals_min_scale(case):
    """The closed-form load of a uniform or partition matroid equals the
    polytope oracle's subset enumeration."""
    m, x = case
    assert abs(m.load(x) - m.polytope().min_scale(x)) <= 1e-12


@st.composite
def _laminar_matroids(draw):
    """A laminar matroid on at most 12 elements: intervals of a shuffled
    ground set kept while they nest in or miss the ones before, with
    capacities from 0 (its elements are loops) to above the set size, and
    a point that is 0 on its loops."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(n)))
    sets, capacities = [], []
    for lo, hi in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                          st.integers(1, n)), max_size=8)):
        block = set(labels[lo:max(lo + 1, hi)])
        if all(block <= s or s <= block or not block & s for s in sets):
            sets.append(block)
            capacities.append(draw(st.integers(0, len(block) + 1)))
    m = LaminarMatroid(n, sets, capacities)
    x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    x[list(iter_bits(m.loops()))] = 0.0
    return m, x


@settings(max_examples=300, deadline=None)
@given(_laminar_matroids())
def test_laminar_load_equals_min_scale(case):
    """A laminar family's rows with the singletons' form a totally
    unimodular matrix, so the largest x(S) / c and x_e is the polytope
    oracle's subset enumeration."""
    m, x = case
    assert abs(m.load(x) - m.polytope().min_scale(x)) <= 1e-12


def test_load_above_16_elements_has_a_closed_form_or_is_refused():
    x = FractionalPoint([0.1] * 16 + [0.3])
    assert MatroidChainFactory(UniformMatroid(17, 3), 0.5).load(x) == (
        pytest.approx(1.9 / 3))
    parts = PartitionMatroid([range(10), range(10, 17)], [2, 1])
    assert MatroidChainFactory(parts, 0.5).load(x) == pytest.approx(0.9)
    nested = LaminarMatroid(17, [range(10), range(3), [16]], [2, 1, 1])
    assert MatroidChainFactory(nested, 0.5).load(x) == pytest.approx(0.5)
    path = GraphicMatroid(18, [(v, v + 1) for v in range(17)])
    with pytest.raises(ValueError, match="uniform, partition and laminar"):
        MatroidChainFactory(path, 0.5).load(x)


def test_intersection_requires_common_b():
    with pytest.raises(ValueError):
        IntersectionFactory([MatroidChainFactory(UniformMatroid(2, 1), 0.5),
                             KnapsackFactory(
                                 KnapsackConstraint([0.4, 0.4]), 0.25)])


# ---------------------------------------------------------------------------
# the online loop


def test_run_greedy_basics():
    m = UniformMatroid(2, 1)
    fam = MatroidChainFamily(_manual_chain(m, [0b11, 0]))
    assert run_greedy_mask(fam, [0, 1], 0) == 0
    assert run_greedy_mask(fam, [0, 1], 0b11) == 0b01
    assert run_greedy_mask(fam, [1, 0], 0b11) == 0b10


def test_greedy_output_contains_selectable_random():
    # over random draws, the run keeps every selectable active element
    seed = SeedSpec(13)
    m = GraphicMatroid(4, K4_EDGES)
    x = FractionalPoint([0.2] * 6)
    sampler = MatroidChainFactory(m, 0.5).bind(x)
    gen = seed.stream(0)
    fam = sampler.sample()
    for _ in range(10_000):
        active = int(gen.integers(1 << 6))
        order = list(gen.permutation(6))
        out = run_greedy_mask(fam, order, active)
        assert fam.selectable_mask(active) & active & ~out == 0
        assert fam.member(out)


def test_single_sample_family_helpers():
    g = Graph(2, [(0, 1)])
    x = FractionalPoint([0.3])
    fam = MatchingFactory(g, 0.3).bind(x).sample(SeedSpec(1).stream(0))
    assert fam.n == 1
    det = MatchingFactory(g, 0.3, deterministic=True).bind(x).sample()
    assert det.k_mask == 0b1
    kf = KnapsackFactory(KnapsackConstraint([0.6, 0.3]), 0.25).bind(
        FractionalPoint([0.1, 0.1])).sample(SeedSpec(1).stream(1))
    assert kf.member(0) and kf.n == 2


def test_sample_is_one_row_of_sample_block():
    """``sample(gen)`` decodes the same uniforms as ``gen.random(draw_count)``."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    sampler = MatchingFactory(g, 0.4).bind(
        FractionalPoint([0.1, 0.15, 0.1, 0.05, 0.1]))
    for i in range(20):
        fam = sampler.sample(SeedSpec(i).stream(0))
        row = SeedSpec(i).stream(0).random(sampler.draw_count)
        assert fam.k_mask == pack_mask(row < sampler.k_probs)
    with pytest.raises(ValueError):
        sampler.sample()
    chain = MatroidChainFactory(UniformMatroid(3, 1), 0.5).bind(
        FractionalPoint([0.1] * 3))
    assert chain.draw_count == 0 and chain.sample() is chain.family


def _per_edge_selectable(graph: Graph, k_mask: int, active_mask: int) -> int:
    """The matching rule as first written: scan every edge of K for an
    active neighbour in K."""
    blockers = active_mask & k_mask
    out = 0
    for e in iter_bits(k_mask):
        if not blockers & graph.adjacent_edges[e]:
            out |= 1 << e
    return out


@st.composite
def _multigraph_masks(draw):
    vertices = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, vertices - 1),
                     st.integers(0, vertices - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, min_size=1, max_size=16))
    full = (1 << len(edges)) - 1
    return (Graph(vertices, edges), draw(st.integers(0, full)),
            draw(st.integers(0, full)))


@settings(max_examples=300, deadline=None)
@given(_multigraph_masks())
def test_matching_selectable_matches_per_edge_rule(case):
    graph, k_mask, active_mask = case
    fam = MatchingFamily(graph, k_mask)
    assert fam.selectable_mask(active_mask) == _per_edge_selectable(
        graph, k_mask, active_mask)


@st.composite
def _matching_blocks(draw, edges=st.integers(1, 63)):
    """A multigraph of ``edges`` edges (up to 63 by default), parallel ones
    included, with a block of K and active columns; empty and full masks
    are drawn often."""
    vertices = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, vertices - 1),
                     st.integers(0, vertices - 1)).filter(lambda e: e[0] != e[1])
    m = draw(edges)
    pairs = draw(st.lists(pair, min_size=m, max_size=m))
    full = (1 << m) - 1
    mask = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    rows = draw(st.integers(1, 40))
    column = st.lists(mask, min_size=rows, max_size=rows)
    return (Graph(vertices, pairs), np.array(draw(column), dtype=np.int64),
            np.array(draw(column), dtype=np.int64))


def _check_selectable_rows(sampler, k_column, actives):
    """``selectable_rows`` against the trials' own ``selectable_mask``
    calls, on the families that ``sample_block`` decodes K to."""
    codes, families = sampler.sample_block(k_column[:, None])
    rows = sampler.selectable_rows(actives, codes, families)
    assert rows.dtype == np.int64
    assert rows.tolist() == [families[c].selectable_mask(a) for c, a in zip(
        codes.tolist(), actives.tolist())]
    return codes


@pytest.mark.parametrize("deterministic", [False, True])
@settings(max_examples=200, deadline=None)
@given(_matching_blocks())
def test_matching_selectable_rows_equal_per_trial_calls(deterministic, case):
    """A matching sampler's ``selectable_rows`` gives, trial by trial, the
    selectable mask of the trial's family at its active set: the byte
    tables for random edge sets K, and the default per-pair path for the
    deterministic scheme's K of every edge."""
    graph, k_column, actives = case
    _check_selectable_rows(
        MatchingFactory(graph, 1.0, deterministic=deterministic).bind(
            FractionalPoint([0.0] * graph.n_edges)), k_column, actives)


@pytest.mark.parametrize("edges", [1, 7, 8, 9, 16, 17, 45, 63])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matching_byte_tables_at_every_last_table_size(edges, data):
    """The byte tables give the per-trial masks when the last table is
    full, short of full or holds one edge, and a random matching's codes
    are the K column itself."""
    graph, k_column, actives = data.draw(_matching_blocks(st.just(edges)))
    sampler = MatchingFactory(graph, 1.0).bind(
        FractionalPoint([0.0] * graph.n_edges))
    assert np.array_equal(_check_selectable_rows(sampler, k_column, actives),
                          k_column)


def test_factory_from_json_descriptors():
    fac = factory_from_json("matroid",
                            {"matroid": {"type": "uniform", "n": 3, "k": 1}},
                            0.5, 0.05, None)
    assert isinstance(fac, MatroidChainFactory) and fac.b == 0.5
    fac = factory_from_json("matching",
                            {"deterministic": True,
                             "graph": {"vertices": 2, "edges": [[0, 1]]}},
                            0.5, 0.05, None)
    assert isinstance(fac, MatchingFactory) and fac.deterministic
    fac = factory_from_json("knapsack", {"sizes": [0.6, 0.3]}, 0.25, 0.05,
                            None)
    assert isinstance(fac, KnapsackFactory)
    fac = factory_from_json(
        "intersect",
        {"parts": [{"scheme": "matroid",
                    "matroid": {"type": "uniform", "n": 2, "k": 1}},
                   {"scheme": "knapsack", "sizes": [0.6, 0.3]}]},
        0.25, 0.05, None)
    assert isinstance(fac, IntersectionFactory) and fac.b == 0.25
    with pytest.raises(ValueError, match="'matroid'"):
        factory_from_json("matroid", {}, 0.5, 0.05, None)
    with pytest.raises(ValueError):
        factory_from_json("mystery", {}, 0.5, 0.05, None)


def test_greedy_selectable_selected_under_every_order():
    # exhaustive over all arrival permutations, n = 5 knapsack variants
    sampler = KnapsackFactory(
        KnapsackConstraint([0.6, 0.3, 0.3, 0.25, 0.2]), 0.25).bind(
        FractionalPoint([0.2, 0.1, 0.15, 0.1, 0.1]))
    families = [f for _p, f in sampler.enumerate_families()]
    for fam in families:
        for active in range(1 << 5):
            safe = fam.selectable_mask(active) & active
            for order in itertools.permutations(range(5)):
                out = run_greedy_mask(fam, order, active)
                assert safe & ~out == 0


@pytest.mark.parametrize("exact", [True, False])
def test_chain_leaves_loops_out_of_refinement(exact):
    """Elements 2 and 3 of this partition matroid are loops.  They stay in
    the top layer, get no span estimate and are never selectable; mass on
    a loop is rejected, naming the element."""
    m = PartitionMatroid([[0, 1], [2, 3]], [1, 0])
    x = FractionalPoint([0.3, 0.2, 0.0, 0.0])
    chain = matroid_chain_decompose(m, x, 0.5, exact=exact,
                                    stream=SeedSpec(4).stream(0))
    assert chain.layers[0] & 0b1100 == 0b1100
    assert set(chain.span_estimates) == {0, 1}
    fam = MatroidChainFamily(chain)
    assert all(not fam.selectable_mask(mask) & 0b1100
               and fam.member(mask) == (mask.bit_count() <= 1
                                        and not mask & 0b1100)
               for mask in range(16))
    with pytest.raises(PolytopeMembershipError, match="element 2 is a loop"):
        matroid_chain_decompose(m, FractionalPoint([0.3, 0.2, 0.1, 0.0]),
                                0.5, exact=exact,
                                stream=SeedSpec(4).stream(0))


_GRAPH5 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
_POINT5 = FractionalPoint([0.05, 0.1, 0.05, 0.1, 0.05])
# chain, random and deterministic matching, knapsack, and an intersection of
# a chain, a random matching and a knapsack
_SAMPLERS = {
    "chain": MatroidChainFactory(UniformMatroid(5, 2), 0.25),
    "matching": MatchingFactory(_GRAPH5, 0.25),
    "matching-deterministic": MatchingFactory(_GRAPH5, 0.25,
                                              deterministic=True),
    "knapsack": KnapsackFactory(
        KnapsackConstraint([0.7, 0.4, 0.3, 0.6, 0.2]), 0.25),
    "intersect": IntersectionFactory([
        MatroidChainFactory(UniformMatroid(5, 2), 0.25),
        MatchingFactory(_GRAPH5, 0.25),
        KnapsackFactory(KnapsackConstraint([0.6, 0.4, 0.3, 0.5, 0.2]), 0.25)]),
}


@pytest.mark.parametrize("name", list(_SAMPLERS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rows=st.integers(1, 400))
def test_sample_block_codes_follow_cache_keys(name, seed, rows):
    """Within a block, two trials share a code iff their families have
    equal ``cache_key``s, and each trial's family has the ``cache_key`` of
    the same row decoded on its own."""
    sampler = _SAMPLERS[name].bind(_POINT5)
    table = SeedSpec(seed).stream(0).random((rows, sampler.draw_count))
    masks = np.zeros((rows, len(sampler.draws)), dtype=np.int64)
    at = 0
    for j, vector in enumerate(sampler.draws):
        masks[:, j] = pack_mask_rows(table[:, at:at + vector.size] < vector)
        at += vector.size
    codes, families = sampler.sample_block(masks)
    assert codes.dtype == np.int64 and codes.shape == (rows,)
    keys = [families[c].cache_key() for c in codes.tolist()]
    assert (len(set(codes.tolist())) == len(set(keys))
            == len(set(zip(codes.tolist(), keys))))
    alone = []
    for i in range(rows):
        row_codes, row_families = sampler.sample_block(masks[i:i + 1])
        alone.append(row_families[row_codes[0]].cache_key())
    assert keys == alone


def test_construction_slack_sums_left_to_right():
    """The parts' slacks add left to right: 0.1 + 0.2 + 0.3 is
    0.6000000000000001, where a compensated sum gives 0.6."""
    factory = IntersectionFactory([
        MatroidChainFactory(UniformMatroid(3, 1), 0.5, eps=eps, exact=False)
        for eps in (0.1, 0.2, 0.3)])
    assert factory.construction_slack == 0.6000000000000001
