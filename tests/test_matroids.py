"""Matroid oracle behavior: axioms, rank/span, views, polytope membership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs.core import FractionalPoint, SeedSpec, iter_bits
from ocrs.matroids import (ExplicitMatroid, GraphicMatroid, LaminarMatroid,
                           Matroid, MatroidPolytope, MatroidView,
                           PartitionMatroid, UniformMatroid,
                           check_matroid_axioms, in_scaled_matroid_polytope,
                           matroid_from_json, max_weight_independent,
                           random_point_in_polytope)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4():
    return GraphicMatroid(4, K4_EDGES)


def _is_forest(num_vertices, edges, mask):
    """Independent acyclic check via DFS, written separately from the oracle."""
    adj = {v: [] for v in range(num_vertices)}
    chosen = [edges[e] for e in iter_bits(mask)]
    for idx, (u, v) in enumerate(chosen):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    seen = set()
    for root in range(num_vertices):
        if root in seen:
            continue
        stack = [(root, -1)]
        seen.add(root)
        while stack:
            node, via = stack.pop()
            for nxt, idx in adj[node]:
                if idx == via:
                    continue
                if nxt in seen:
                    return False
                seen.add(nxt)
                stack.append((nxt, idx))
    return True


def test_axioms_all_kinds():
    fixtures = [
        UniformMatroid(6, 3),
        PartitionMatroid([[0, 1], [2, 3], [4, 5]], [1, 1, 1]),
        k4(),
        LaminarMatroid(6, [[0, 1, 2], [0, 1, 2, 3, 4, 5], [4, 5]], [2, 4, 1]),
        ExplicitMatroid(4, [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]),
    ]
    for m in fixtures:
        assert check_matroid_axioms(m).ok, m.kind


def test_axioms_exhaustive_n12():
    m = PartitionMatroid([[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]],
                         [1] * 6)
    assert check_matroid_axioms(m).ok


def test_explicit_matroid_rejects_non_matroid():
    # two disjoint pairs as bases fail the exchange axiom
    with pytest.raises(ValueError):
        ExplicitMatroid(4, [[0, 1], [2, 3]])


def test_rank_examples():
    assert UniformMatroid(4, 2).rank(0) == 0
    assert UniformMatroid(4, 2).rank(0b0111) == 2
    m = k4()
    # spanning tree size by an independent brute force
    best = max(mask.bit_count() for mask in range(1 << 6)
               if _is_forest(4, K4_EDGES, mask))
    assert m.rank(m.ground_mask) == best == 3


def test_rank_agrees_with_forest_brute_force():
    m = k4()
    for mask in range(1 << 6):
        expect = max(sub.bit_count() for sub in range(1 << 6)
                     if sub & ~mask == 0 and _is_forest(4, K4_EDGES, sub))
        assert m.rank(mask) == expect


def test_span_examples():
    assert UniformMatroid(3, 2).span(0) == 0
    assert UniformMatroid(3, 1).span(0b001) == 0b111
    m = k4()
    # edges (0,1) and (0,2) span the triangle closed by (1,2) = index 3
    assert m.span(0b000011) == 0b001011


def test_span_closure_cycle_brute_force():
    m = k4()
    for mask in range(1 << 6):
        r = m.rank(mask)
        expect = 0
        for e in range(6):
            grown = mask | (1 << e)
            best = max(sub.bit_count() for sub in range(1 << 6)
                       if sub & ~grown == 0 and _is_forest(4, K4_EDGES, sub))
            if best == r:
                expect |= 1 << e
        assert m.span(mask) == expect


def test_span_idempotent():
    for m in (k4(), UniformMatroid(5, 2),
              LaminarMatroid(5, [[0, 1], [0, 1, 2, 3, 4]], [1, 3])):
        for mask in range(1 << m.n):
            s = m.span(mask)
            assert m.span(s) == s


def test_rank_monotone_submodular_exhaustive():
    for m in (k4(), UniformMatroid(10, 4),
              PartitionMatroid([[0, 1, 2], [3, 4], [5]], [2, 1, 1])):
        size = m.size()
        ranks = np.array([m.rank(mask) for mask in range(1 << size)])
        idx = np.arange(1 << size)
        a = idx[:, None]
        b = idx[None, :]
        assert np.all(ranks[a] + ranks[b] >= ranks[a | b] + ranks[a & b])
        for mask in range(1 << size):
            for e in range(size):
                if not (mask >> e) & 1:
                    assert ranks[mask | (1 << e)] >= ranks[mask]


def test_view_identity():
    m = k4()
    view = MatroidView(m, 0, m.ground_mask)
    for mask in range(1 << 6):
        assert view.indep(mask) == m.indep(mask)
        assert view.rank(mask) == m.rank(mask)


def test_view_contract_uniform():
    view = MatroidView(UniformMatroid(3, 2), 0b001, 0b110)
    assert view.indep(0b010)
    assert not view.indep(0b110)


def test_view_contract_graphic_equivalence():
    # contracting edge (0,1) of K4 merges its endpoints; remaining edges map
    # onto a 3-vertex multigraph with two parallel pairs
    m = k4()
    view = MatroidView(m, 0b000001, 0b111110)
    merged = GraphicMatroid(3, [(0, 1), (0, 2), (0, 1), (0, 2), (1, 2)])
    for sub in range(1 << 5):
        mask = sub << 1
        assert view.indep(mask) == merged.indep(sub)


def test_view_rejects_overlap():
    with pytest.raises(ValueError):
        MatroidView(UniformMatroid(3, 2), 0b011, 0b110)


def test_max_weight_independent():
    m = UniformMatroid(3, 1)
    assert max_weight_independent(m, [0.0, 0.0, 0.0]) == 0
    assert max_weight_independent(m, [5.0, 2.0, 9.0]) == 0b100
    gen = SeedSpec(5).stream(0)
    g = k4()
    for _ in range(25):
        w = gen.random(6).tolist()
        got = max_weight_independent(g, w)
        best = max((sum(w[e] for e in iter_bits(mask))
                    for mask in range(1 << 6) if g.indep(mask)))
        assert abs(sum(w[e] for e in iter_bits(got)) - best) < 1e-12


def test_polytope_membership():
    m = UniformMatroid(2, 1)
    assert in_scaled_matroid_polytope(m, FractionalPoint([0.0, 0.0]), 0.3)
    assert not in_scaled_matroid_polytope(m, FractionalPoint([0.6, 0.6]), 1.0)
    g = k4()
    assert in_scaled_matroid_polytope(g, FractionalPoint([1 / 3] * 6), 1.0)
    # uniform value t is feasible up to t = rank(N)/|N| = 1/2 on K4
    assert in_scaled_matroid_polytope(g, FractionalPoint([0.5] * 6), 1.0)
    assert not in_scaled_matroid_polytope(g, FractionalPoint([0.51] * 6), 1.0)


ORACLE_MATROIDS = [
    UniformMatroid(8, 3),
    PartitionMatroid([[0, 1, 2], [3, 4], [5, 6, 7]], [1, 2, 1]),
    GraphicMatroid(4, K4_EDGES),
    LaminarMatroid(8, [[0, 1, 2, 3], [0, 1], [4, 5, 6, 7]], [2, 1, 2]),
    MatroidView(GraphicMatroid(4, K4_EDGES), contracted=0b000001,
                kept=0b110110),
]


def _literal_polytope(m, x, b):
    """The polytope questions answered by a plain loop over every subset."""
    violation, worst = -np.inf, 0.0
    slack = {e: np.inf for e in iter_bits(m.ground_mask)}
    rows = []
    for mask in range(1 << m.n):
        if mask & ~m.ground_mask:
            continue
        r = m.rank(mask)
        load = sum(x[e] for e in iter_bits(mask))
        violation = max(violation, load - b * r)
        if r:
            worst = max(worst, load / r)
        if mask:
            rows.append((mask, r))
        for e in iter_bits(mask):
            slack[e] = min(slack[e], r - load)
    steps = {e: max(v, 0.0) for e, v in slack.items()}
    return violation, steps, worst, rows


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(ORACLE_MATROIDS) - 1),
       x=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
       b=st.floats(0.0, 1.0))
def test_polytope_oracle_matches_subset_loop(which, x, b):
    m = ORACLE_MATROIDS[which]
    x = np.array(x[:m.n])
    polytope = MatroidPolytope(m)
    violation, steps, worst, rows = _literal_polytope(m, x, b)
    assert polytope.max_violation(x, b) == violation
    assert {e: polytope.max_step(x, e) for e in steps} == steps
    assert polytope.min_scale(x) == worst
    assert polytope.rank_rows() == rows


class _GreedyOnly(Matroid):
    """Not a matroid: {0, 2} is dependent while {0, 1, 2} is independent."""

    def _indep(self, mask):
        return mask in (0b000, 0b001, 0b010, 0b100, 0b011, 0b111)


def test_polytope_submodularity_matches_pair_loop():
    for m in ORACLE_MATROIDS + [_GreedyOnly(3)]:
        masks = [k for k in range(1 << m.n) if not k & ~m.ground_mask]
        expected = all(m.rank(a) + m.rank(c) >= m.rank(a | c) + m.rank(a & c)
                       for a in masks for c in masks)
        assert MatroidPolytope(m).is_submodular() == expected
    assert not MatroidPolytope(_GreedyOnly(3)).is_submodular()


def test_random_point_in_polytope():
    gen = SeedSpec(6).stream(0)
    for m in (k4(), UniformMatroid(5, 2)):
        for b in (0.25, 0.5, 1.0):
            x = random_point_in_polytope(m, b, gen)
            assert in_scaled_matroid_polytope(m, x, b)


def test_matroid_from_json():
    m = matroid_from_json({"type": "uniform", "n": 6, "k": 3})
    assert isinstance(m, UniformMatroid) and m.k == 3
    g = matroid_from_json({"type": "graphic", "vertices": 4,
                           "edges": K4_EDGES})
    assert isinstance(g, GraphicMatroid)
    p = matroid_from_json({"type": "partition", "blocks": [[0, 1], [2, 3]],
                           "capacities": [1, 1]})
    assert isinstance(p, PartitionMatroid)
    lam = matroid_from_json({"type": "laminar", "n": 4,
                             "sets": [[0, 1], [0, 1, 2, 3]],
                             "capacities": [1, 2]})
    assert isinstance(lam, LaminarMatroid)
    ex = matroid_from_json({"type": "explicit", "n": 4,
                            "bases": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]})
    assert isinstance(ex, ExplicitMatroid)
    with pytest.raises(ValueError):
        matroid_from_json({"type": "unknown"})
    with pytest.raises(ValueError):
        matroid_from_json({"type": "uniform", "n": 6})


def test_laminar_rejects_crossing_family():
    with pytest.raises(ValueError):
        LaminarMatroid(4, [[0, 1], [1, 2]], [1, 1])
