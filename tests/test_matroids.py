"""Matroid oracle behavior: axioms, rank/closure, views, the polytope."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs.core import (FractionalPoint, SeedSpec, iter_bits, iter_submasks,
                       popcounts)
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
    # two disjoint pairs as bases fail the exchange axiom, at every size the
    # rank table allows
    for n in (4, 13, 24):
        with pytest.raises(ValueError, match=(
                "'bases' do not define a matroid: submodularity fails for "
                "elements 0, 1 at S=\\[2\\]")):
            ExplicitMatroid(n, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="'n' is limited to 24 elements"):
        ExplicitMatroid(25, [[0, 1]])


def test_audit_names_the_axiom_the_elements_and_a_witness():
    report = check_matroid_axioms(_GreedyOnly(3))
    assert (report.ok, report.axiom, report.failure) == (
        False, "unit increase",
        "unit increase fails for element 0 at S=[1, 2]")
    with pytest.raises(ValueError, match="submodularity fails for elements "
                       "1, 2 at S=\\[3\\]"):
        ExplicitMatroid(5, [[1, 2], [3, 4]])
    # the greedy table of bases {1, 2} and {3, 4} falls from r({3, 4}) = 2
    # to r({1, 3, 4}) = 1; on a view the witness is still a subset of the
    # ground set, not a table index
    view = MatroidView(_Witness(5, (0b00110, 0b11000)), 0, 0b11110)
    report = check_matroid_axioms(view)
    assert (report.axiom, report.failure) == (
        "unit increase", "unit increase fails for element 1 at S=[3, 4]")


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


def _closure(m, mask):
    return int(m.polytope().closures()[mask])


def test_span_examples():
    assert _closure(UniformMatroid(3, 2), 0) == 0
    assert _closure(UniformMatroid(3, 1), 0b001) == 0b111
    m = k4()
    # edges (0,1) and (0,2) span the triangle closed by (1,2) = index 3
    assert _closure(m, 0b000011) == 0b001011
    # a view's closure table is in table indices: with edge (0,1) of K4
    # contracted, edges (0,3) and (1,3) (elements 2 and 4, table indices 1
    # and 2 of the kept 1, 2, 4, 5) are parallel
    view = MatroidView(m, contracted=0b000001, kept=0b110110)
    assert view.polytope().closures()[0b0010] == 0b0110


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
        assert _closure(m, mask) == expect
        assert expect == sum(1 << e for e in range(6) if m.spans(mask, e))


def test_span_idempotent():
    for m in (k4(), UniformMatroid(5, 2),
              LaminarMatroid(5, [[0, 1], [0, 1, 2, 3, 4]], [1, 3])):
        closures = m.polytope().closures()
        assert closures.dtype == np.int32
        assert np.array_equal(closures[closures], closures)
        for mask in range(1 << m.n):
            assert closures[mask] & mask == mask


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


_COLD_MATROIDS = {
    "uniform": lambda: UniformMatroid(4, 2),
    "partition": lambda: PartitionMatroid([[0, 1], [2, 3]], [1, 1]),
    "graphic": lambda: GraphicMatroid(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "laminar": lambda: LaminarMatroid(4, [[0, 1], [0, 1, 2, 3]], [1, 2]),
    "explicit": lambda: ExplicitMatroid(4, [[0, 2], [0, 3], [1, 2], [1, 3]]),
    "view": lambda: MatroidView(GraphicMatroid(5, [(0, 1), (1, 2), (0, 2),
                                                   (2, 3), (3, 4)]),
                                0b10000, 0b01111),
}


@pytest.mark.parametrize("kind", sorted(_COLD_MATROIDS))
def test_oracles_accept_numpy_integer_masks(kind):
    # on a fresh matroid (no memo warmed by Python-int queries) numpy
    # integer masks answer like ints, and memo keys stay Python ints
    cold, ref = _COLD_MATROIDS[kind](), _COLD_MATROIDS[kind]()
    for mask in iter_submasks(ref.ground_mask):
        for dtype in (np.int64, np.uint8):
            assert cold.rank(dtype(mask)) == ref.rank(mask)
            assert cold.indep(dtype(mask)) == ref.indep(mask)
            for e in iter_bits(ref.ground_mask):
                assert (cold.spans(dtype(mask), np.int64(e))
                        == ref.spans(mask, e))
    for memo in (cold._rank_cache, cold._indep_cache):
        assert all(type(key) is int for key in memo)


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
    for mask in range(1 << m.n):
        if mask & ~m.ground_mask:
            continue
        r = m.rank(mask)
        load = sum(x[e] for e in iter_bits(mask))
        violation = max(violation, load - b * r)
        if r:
            worst = max(worst, load / r)
        for e in iter_bits(mask):
            slack[e] = min(slack[e], r - load)
    steps = {e: max(v, 0.0) for e, v in slack.items()}
    return violation, steps, worst


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(ORACLE_MATROIDS) - 1),
       x=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
       b=st.floats(0.0, 1.0))
def test_polytope_oracle_matches_subset_loop(which, x, b):
    m = ORACLE_MATROIDS[which]
    x = np.array(x[:m.n])
    polytope = MatroidPolytope(m)
    violation, steps, worst = _literal_polytope(m, x, b)
    assert polytope.max_violation(x, b) == violation
    assert {e: polytope.max_step(x, e) for e in steps} == steps
    assert polytope.min_scale(x) == worst


class _GreedyOnly(Matroid):
    """Not a matroid: {0, 2} is dependent while {0, 1, 2} is independent."""

    def _indep(self, mask):
        return mask in (0b000, 0b001, 0b010, 0b100, 0b011, 0b111)


class _Witness(Matroid):
    """Independent sets: the subsets of the given bases, by a scan over
    them; no audit."""

    def __init__(self, n, bases):
        super().__init__(n)
        self.bases = bases

    def _indep(self, mask):
        return any(mask & ~b == 0 for b in self.bases)


def test_polytope_submodularity_matches_pair_loop():
    """The audit on the rank table against the rank axioms by a loop over
    every pair (A, B): submodular, monotone, r(A) <= |A|, r(empty) = 0."""
    for m in ORACLE_MATROIDS + [_GreedyOnly(3)]:
        masks = [k for k in range(1 << m.n) if not k & ~m.ground_mask]
        expected = all(m.rank(a) + m.rank(c) >= m.rank(a | c) + m.rank(a & c)
                       and m.rank(a & c) <= m.rank(a) <= a.bit_count()
                       for a in masks for c in masks) and m.rank(0) == 0
        assert check_matroid_axioms(m).ok == expected
    assert not check_matroid_axioms(_GreedyOnly(3)).ok


def _loop_axioms(m):
    """The matroid axioms by Python loops over ``indep``: empty set
    independent, down-closure, then exchange over every pair of
    independent sets of different sizes (O(4^n))."""
    elements = list(iter_bits(m.ground_mask))
    total = 1 << len(elements)
    masks = [sum(1 << elements[j] for j in iter_bits(idx))
             for idx in range(total)]
    indep = [m.indep(mask) for mask in masks]
    if not indep[0]:
        return False
    for idx in range(total):
        if indep[idx] and not all(indep[idx ^ (1 << j)]
                                  for j in iter_bits(idx)):
            return False
    by_size = {}
    for idx in range(total):
        if indep[idx]:
            by_size.setdefault(idx.bit_count(), []).append(idx)
    for small in by_size:
        for large in by_size:
            if large <= small:
                continue
            for i in by_size[small]:
                grows = sum(1 << j for j in iter_bits((total - 1) & ~i)
                            if indep[i | 1 << j])
                if any(not j & ~i & grows for j in by_size[large]):
                    return False
    return True


def _explicit_accepts(n, bases):
    try:
        ExplicitMatroid(n, bases)
    except ValueError as exc:
        assert "'bases' do not define a matroid" in str(exc)
        return False
    return True


def _bases_of(m):
    r = m.full_rank()
    return [mask for mask in range(1 << m.n)
            if mask.bit_count() == r and m.indep(mask)]


@st.composite
def _small_matroids(draw):
    """A uniform, partition, graphic or laminar matroid on 1 to 7
    elements."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["uniform", "partition", "graphic",
                                 "laminar"]))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n)))
    if kind == "graphic":
        edge = st.tuples(st.integers(0, 3), st.integers(0, 3))
        return GraphicMatroid(4, draw(st.lists(edge, min_size=n,
                                               max_size=n)))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    caps = st.lists(st.integers(0, 3), min_size=len(cuts) + 1,
                    max_size=len(cuts) + 1)
    if kind == "partition":
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        return PartitionMatroid(blocks, draw(caps))
    # a chain of nested prefixes
    return LaminarMatroid(n, [order[:c] for c in cuts + [n]], draw(caps))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_audit_matches_axiom_loop_on_base_families(n, data):
    """Random families of equal-size bases: the explicit matroid is built
    exactly when the loops over ``indep`` find a matroid, and the audit of
    the family's greedy table agrees."""
    k = data.draw(st.integers(0, n))
    sized = [mask for mask in range(1 << n) if mask.bit_count() == k]
    bases = data.draw(st.lists(st.sampled_from(sized), min_size=1,
                               unique=True))
    verdict = _loop_axioms(_Witness(n, bases))
    assert check_matroid_axioms(_Witness(n, bases)).ok == verdict
    assert _explicit_accepts(n, [list(iter_bits(b)) for b in bases]) == verdict


#: matroids with many bases, so that dropping some makes a near-matroid
_MANY_BASES = [
    UniformMatroid(5, 2), UniformMatroid(6, 3), GraphicMatroid(4, K4_EDGES),
    GraphicMatroid(4, [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3), (0, 2)]),
    PartitionMatroid([[0, 1, 2], [3, 4], [5, 6]], [2, 1, 1]),
    LaminarMatroid(7, [[0, 1, 2, 3], [0, 1], [4, 5, 6]], [2, 1, 2]),
]


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from(_MANY_BASES) | _small_matroids(), data=st.data())
def test_audit_matches_axiom_loop_on_near_matroids(m, data):
    """A real matroid's bases, some of them dropped: a near-matroid, or the
    matroid itself when none is dropped."""
    bases = _bases_of(m)
    dropped = data.draw(st.sets(st.sampled_from(bases),
                                min_size=min(len(bases) - 1, 1),
                                max_size=len(bases) - 1))
    verdict = _loop_axioms(_Witness(m.n, bases))
    assert verdict
    bases = [b for b in bases if b not in dropped]
    verdict = _loop_axioms(_Witness(m.n, bases))
    assert check_matroid_axioms(_Witness(m.n, bases)).ok == verdict
    assert _explicit_accepts(m.n, [list(iter_bits(b)) for b in bases]) == \
        verdict


@settings(max_examples=100, deadline=None)
@given(m=_small_matroids())
def test_explicit_fill_matches_indep_fill(m):
    """The explicit matroid of a real matroid's bases fills, from them,
    the real matroid's table by ``indep``."""
    explicit = ExplicitMatroid(m.n, [list(iter_bits(b)) for b in _bases_of(m)])
    ranks = explicit._fill_ranks()
    assert ranks.dtype == np.uint8
    assert np.array_equal(ranks, Matroid._fill_ranks(m))
    assert all(explicit.indep(mask) == m.indep(mask)
               for mask in range(1 << m.n))


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


def _literal_max_excess(m, values, scale):
    """max over nonempty S of values(S) - scale * r(S), first S in
    ascending mask order, by one Python loop over the subsets."""
    best = None
    for mask in range(1, 1 << m.n):
        if mask & ~m.ground_mask:
            continue
        excess = sum(values[e] for e in iter_bits(mask)) - scale * m.rank(mask)
        if best is None or excess > best[0]:
            best = (excess, mask)
    return best


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 14), k=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1, 7, 2 ** 70 + 3]), view=st.booleans())
def test_max_excess_matches_subset_loop(n, k, seed, scale, view):
    """Exact separation equals the literal loop, beyond int64 magnitudes
    and across the 2^12-subset blocks (n > 12); on views the ground set is
    not the index range."""
    gen = np.random.default_rng(seed)
    m = UniformMatroid(n, k)
    if view and n > 1:
        m = MatroidView(m, 1, (1 << n) - 2)
    values = [int(v) * (scale // 4 + 1) for v in gen.integers(-2, 6, n)]
    assert MatroidPolytope(m).max_excess(values, scale) == \
        _literal_max_excess(m, values, scale)


def test_max_excess_rejects_a_point_that_violates_one_rank_row():
    """U(4,2) at y = (1, 1, 1/2, 0) (times 2): only S = {0, 1, 2} is
    violated, by 1/2; a point of P has max excess <= 0."""
    table = MatroidPolytope(UniformMatroid(4, 2))
    assert table.max_excess([2, 2, 1, 0], 2) == (1, 0b0111)
    assert table.max_excess([2, 1, 1, 0], 2) == (0, 0b0001)
    assert table.max_excess([0, 0, 0, 0], 2) == (-2, 0b0001)


def _assert_fill_matches_indep(m):
    """The class's own rank-table fill against the base class's one
    ``indep`` call per subset."""
    assert type(m)._fill_ranks is not Matroid._fill_ranks
    ranks = m._fill_ranks()
    assert ranks.dtype == np.uint8
    assert np.array_equal(ranks, Matroid._fill_ranks(m))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 10), k=st.integers(0, 14))
def test_uniform_fill_matches_indep_fill(n, k):
    """k = 0 and k >= n included."""
    _assert_fill_matches_indep(UniformMatroid(n, k))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 10))
def test_partition_fill_matches_indep_fill(data, n):
    """Random blocks in random element order, zero capacities included."""
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else [])
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    caps = data.draw(st.lists(st.integers(0, 3), min_size=len(blocks),
                              max_size=len(blocks)))
    _assert_fill_matches_indep(PartitionMatroid(blocks, caps))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 10))
def test_laminar_fill_matches_indep_fill(data, n):
    """Intervals of a random order of some elements, kept when nested in or
    disjoint from every earlier one, so the family nests, may repeat a set
    (with another capacity) and need not cover the ground set."""
    covered = data.draw(st.permutations(range(n)))
    covered = covered[:data.draw(st.integers(0, n))]
    sets = []
    for _ in range(data.draw(st.integers(0, 8))):
        lo = data.draw(st.integers(0, len(covered)))
        s = set(covered[lo:data.draw(st.integers(lo, len(covered)))])
        if all(not s & t or s <= t or t <= s for t in sets):
            sets.append(s)
        if sets and data.draw(st.booleans()):
            sets.append(data.draw(st.sampled_from(sets)))
    caps = data.draw(st.lists(st.integers(0, 4), min_size=len(sets),
                              max_size=len(sets)))
    _assert_fill_matches_indep(LaminarMatroid(n, [sorted(s) for s in sets],
                                              caps))


@st.composite
def _laminar_families(draw):
    """A laminar matroid on at most 10 elements: intervals of a random
    order of some elements, kept when nested in or disjoint from every
    earlier one, with equal sets, empty sets, capacity 0 and capacities
    above the set size."""
    n = draw(st.integers(0, 10))
    covered = draw(st.permutations(range(n)))
    covered = covered[:draw(st.integers(0, n))]
    sets = []
    for _ in range(draw(st.integers(0, 8))):
        lo = draw(st.integers(0, len(covered)))
        s = set(covered[lo:draw(st.integers(lo, len(covered)))])
        if all(not s & t or s <= t or t <= s for t in sets):
            sets.append(s)
        if sets and draw(st.booleans()):
            sets.append(draw(st.sampled_from(sets)))
    caps = [draw(st.integers(0, len(s) + 2)) for s in sets]
    return LaminarMatroid(n, [sorted(s) for s in sets], caps)


@settings(max_examples=80, deadline=None)
@given(_laminar_families())
def test_laminar_rank_equals_the_greedy_and_the_table(m):
    """The closed-form rank against the base class's memoised greedy and
    the rank table, on every subset."""
    ranks = m.polytope().ranks
    for mask in range(1 << m.n):
        assert m.rank(mask) == Matroid._rank(m, mask) == ranks[mask]


def test_uniform_and_partition_are_laminar_families():
    """Both classes are laminar matroids that define only ``__init__``."""
    for cls in (UniformMatroid, PartitionMatroid):
        assert issubclass(cls, LaminarMatroid)
        assert {name for name, value in vars(cls).items()
                if callable(value)} == {"__init__"}


def _blocks_load(blocks, x):
    """A uniform or partition matroid's load as (block mask, capacity)
    pairs: the largest max(max x_B, x(B) / c) over the blocks of capacity
    c >= 1."""
    load = 0.0
    for block, capacity in blocks:
        if capacity and block:
            x_block = x[list(iter_bits(block))]
            load = max(load, x_block.max(), x_block.sum() / capacity)
    return float(load)


def _assert_blocks_closed_forms(m, blocks, data):
    """rank, indep, the rank table and the load of ``m`` against the
    per-block formulas; the load exactly, on a point 0 on the loops."""
    n = m.n
    for mask in range(1 << n):
        counts = [(mask & bm).bit_count() for bm, _ in blocks]
        assert m.rank(mask) == sum(min(k, c)
                                   for k, (_, c) in zip(counts, blocks))
        assert m.indep(mask) == all(k <= c
                                    for k, (_, c) in zip(counts, blocks))
    table = np.zeros(1 << n, dtype=np.uint8)
    for bm, c in blocks:
        table += np.minimum(popcounts(n, bm), min(c, bm.bit_count()))
    assert np.array_equal(m._fill_ranks(), table)
    x = np.array(data.draw(st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.floats(0.0, 1.0).map(lambda v: [v] * n))), dtype=float)
    x[list(iter_bits(m.loops()))] = 0.0
    assert m.load(x) == _blocks_load(blocks, x)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 10), k=st.integers(0, 12))
def test_uniform_matches_its_closed_forms(data, n, k):
    m = UniformMatroid(n, k)
    _assert_blocks_closed_forms(m, [((1 << n) - 1, k)], data)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 10))
def test_partition_matches_its_closed_forms(data, n):
    """Random blocks in random element order, capacities from 0 to above
    the block size."""
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else [])
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    caps = [data.draw(st.integers(0, len(b) + 1)) for b in blocks]
    m = PartitionMatroid(blocks, caps)
    masks = [sum(1 << e for e in b) for b in blocks]
    _assert_blocks_closed_forms(m, list(zip(masks, caps)), data)


def test_laminar_load_is_exact_on_a_constant_point():
    """x(E) / n read 1 ulp above max x_e here; the load takes max x_e."""
    m = LaminarMatroid(18, [range(9), range(9, 18)], [17, 11])
    assert m.load(np.full(18, 0.05)) == 0.05


def test_load_counts_a_positive_loop_at_its_coordinate():
    """A point positive on a loop is in no s * P; the load still counts
    the loop's coordinate, so such a point is never read as fitting."""
    m = PartitionMatroid([[0, 1], [2]], [1, 0])
    assert m.load(np.array([0.1, 0.2, 0.7])) == 0.7


@settings(max_examples=60, deadline=None)
@given(data=st.data(), vertices=st.sampled_from([1, 2, 4, 7, 300]))
def test_graphic_fill_matches_indep_fill(data, vertices):
    """Edges among a few vertex ids drawn up to ``vertices``: parallel
    edges, self-loops and isolated vertices; at 300, ids above the uint8
    labels' range, two of them equal modulo 256."""
    ids = data.draw(st.lists(st.integers(0, vertices - 1), min_size=1,
                             max_size=6))
    if vertices == 300:
        ids += [3, 259]
    edges = data.draw(st.lists(st.tuples(st.sampled_from(ids),
                                         st.sampled_from(ids)), max_size=11))
    _assert_fill_matches_indep(GraphicMatroid(vertices, edges))


def test_other_matroids_fill_by_indep():
    """Views and any other subclass keep the base class's fill; explicit
    matroids fill from their bases."""
    assert ExplicitMatroid._fill_ranks is not Matroid._fill_ranks
    for cls in (MatroidView, _GreedyOnly):
        assert cls._fill_ranks is Matroid._fill_ranks


def test_polytope_logs_its_fill_once(caplog):
    m = GraphicMatroid(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    view = MatroidView(m, contracted=1, kept=0b110)
    with caplog.at_level(logging.INFO, logger="ocrs.matroids"):
        assert m.polytope() is m.polytope()
        view.polytope()
        # audited at construction, from the one table
        ExplicitMatroid(3, [[0, 1], [0, 2], [1, 2]]).polytope()
    assert caplog.messages == ["rank table: graphic fill, 32768 subsets",
                               "rank table: indep fill, 4 subsets",
                               "rank table: explicit fill, 8 subsets"]


@pytest.mark.parametrize("build", [
    lambda: UniformMatroid(22, 3),
    lambda: GraphicMatroid(25, [(v, v + 1) for v in range(24)]),
], ids=["uniform-22", "graphic-path-24"])
def test_large_rank_tables_stay_small(build):
    """A uint8 rank per subset and no per-subset Python objects: the
    traced peak of a 2^22 or 2^24 table stays under 256 MB."""
    m = build()
    tracemalloc.start()
    try:
        ranks = m.polytope().ranks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.dtype == np.uint8 and ranks.size == 1 << m.n
    assert peak < 256 * 2 ** 20
