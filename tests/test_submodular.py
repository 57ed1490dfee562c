"""Multilinear machinery, characteristic CRS, continuous greedy, probing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocrs.core import TRIAL_BLOCK, FractionalPoint, SeedSpec, trial_columns
from ocrs.applications import (ProbingInstance, default_factory,
                               prepare_probing, probe, probing_mean_value)
from ocrs.harness import MeanEstimate, brute_force_selectability
from ocrs.matroids import (GraphicMatroid, UniformMatroid,
                           random_point_in_polytope)
from ocrs.optimize import KnapsackConstraint
from ocrs.schemes import KnapsackFactory, MatroidChainFactory, run_greedy_mask
from ocrs.submodular import (_DOMAIN_CONSTRUCT_IN, _DOMAIN_CONSTRUCT_OUT,
                             _DOMAIN_TRIALS, SubmodularOracle,
                             _assert_scaled_membership,
                             continuous_greedy, continuous_greedy_probing,
                             coverage_function,
                             directed_cut, half_subsample_value,
                             multilinear_exact, ocrs_submodular_value,
                             run_submodular_probing, submodular_from_json,
                             weighted_matroid_rank)

SEED = SeedSpec(303)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def modular(weights):
    """Modular functions as coverage over disjoint singleton universes."""
    return coverage_function(weights, [[i] for i in range(len(weights))])


# ---------------------------------------------------------------------------
# oracles


def test_oracle_audit_rejects_non_submodular():
    def fn(mask):
        return float(mask.bit_count() ** 2)
    with pytest.raises(ValueError):
        SubmodularOracle(3, fn, "square", monotone=True)


def test_oracle_audit_rejects_wrong_monotone_flag():
    cut = directed_cut(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        SubmodularOracle(3, cut.value, "cut", monotone=True)


@pytest.mark.parametrize("n", [10, 14])
def test_oracle_audit_covers_every_size(n):
    """Above the 8 elements the audit once stopped at: |S|^2 is not
    submodular, and the cut function of the complete graph is not
    monotone."""
    with pytest.raises(ValueError, match="not submodular"):
        SubmodularOracle(n, lambda mask: float(mask.bit_count() ** 2),
                         "square", monotone=True)
    with pytest.raises(ValueError, match="not monotone"):
        SubmodularOracle(n, lambda mask: float(mask.bit_count()
                                               * (n - mask.bit_count())),
                         "complete-cut", monotone=True)


def _literal_audit(table, monotone):
    """The audit's verdict by the definitions: nonnegativity, then
    monotonicity over every (S, e) when claimed, then
    f(A) + f(B) >= f(A | B) + f(A & B) over every pair of subsets."""
    size = len(table)
    if min(table) < 0:
        return "function must be nonnegative"
    if monotone and any(table[a | 1 << e] < table[a] for a in range(size)
                        for e in range(size.bit_length() - 1)):
        return "function is not monotone"
    if any(table[a] + table[b] < table[a | b] + table[a & b]
           for a in range(size) for b in range(size)):
        return "function is not submodular"
    return None


@st.composite
def _integer_tables(draw):
    """Integer tables on at most 5 elements, near submodular: budgeted
    modular terms plus directed cut arcs, with one entry moved by -1, 0
    or +1."""
    n = draw(st.integers(0, 5))
    table = [0] * (1 << n)
    for _ in range(draw(st.integers(0, 3))):
        members = draw(st.integers(0, (1 << n) - 1))
        budget = draw(st.integers(1, 3))
        for mask in range(1 << n):
            table[mask] += min(budget, (mask & members).bit_count())
    if n >= 2:
        for _ in range(draw(st.integers(0, 3))):
            u, v = draw(st.permutations(range(n)))[:2]
            for mask in range(1 << n):
                table[mask] += (mask >> u & 1) and not (mask >> v & 1)
    mask = draw(st.integers(0, (1 << n) - 1))
    table[mask] += draw(st.sampled_from([-1, 0, 1]))
    return n, table


@settings(max_examples=300, deadline=None)
@given(case=_integer_tables(), monotone=st.booleans())
def test_local_audit_matches_pairwise_definition(case, monotone):
    """On integer values the tolerance plays no part, so the local-form
    audit accepts and rejects exactly as the definitions do, and names
    the same first failure."""
    n, table = case
    try:
        SubmodularOracle(n, lambda mask: float(table[mask]), "table",
                         monotone)
        verdict = None
    except ValueError as exc:
        verdict = str(exc)
    assert verdict == _literal_audit(table, monotone)


def test_weighted_matroid_rank_is_audited():
    f = weighted_matroid_rank(GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]),
                              [3.0, 2.0, 1.0])
    assert f.monotone
    assert f.value(0b111) == pytest.approx(5.0)


def test_submodular_from_json():
    f = submodular_from_json({"universe_weights": [1, 2],
                              "covers": [[0], [0, 1]]})
    assert f.kind == "coverage"
    g = submodular_from_json({"arcs": [[0, 1, 2.0]]})
    assert g.kind == "directed-cut" and not g.monotone
    with pytest.raises(ValueError):
        submodular_from_json({"bogus": 1})


# ---------------------------------------------------------------------------
# multilinear extension


def test_multilinear_integral_points():
    f = coverage_function([1.0, 2.0, 4.0], [[0, 1], [1, 2], [2]])
    for mask in range(1 << 3):
        x = FractionalPoint([(mask >> e) & 1 for e in range(3)])
        assert multilinear_exact(f, x) == pytest.approx(f.value(mask))


def test_multilinear_modular_linearity():
    w = [1.5, 2.0, 0.5, 3.0]
    f = modular(w)
    x = FractionalPoint([0.2, 0.7, 0.4, 0.9])
    assert multilinear_exact(f, x) == pytest.approx(float(np.dot(w, x.values)))


def test_multilinear_matches_hand_sum():
    f = coverage_function([1.0, 2.0, 1.5], [[0], [0, 1], [2], [1, 2]])
    xv = [0.3, 0.6, 0.2, 0.8]
    x = FractionalPoint(xv)
    expect = 0.0
    for mask in range(1 << 4):
        prob = math.prod(xv[e] if (mask >> e) & 1 else 1 - xv[e]
                         for e in range(4))
        expect += prob * f.value(mask)
    assert multilinear_exact(f, x) == pytest.approx(expect)


# ---------------------------------------------------------------------------
# characteristic CRS


def _rank_one_family():
    return MatroidChainFactory(UniformMatroid(2, 1), 0.5).bind(
        FractionalPoint([0.2, 0.2])).sample()


def test_characteristic_crs_examples():
    fam = _rank_one_family()
    assert fam.selectable_mask(0) & 0 == 0
    assert fam.selectable_mask(0b01) & 0b01 == 0b01
    assert fam.selectable_mask(0b11) & 0b11 == 0


def test_characteristic_crs_contained_in_every_run():
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (1, 3)])
    fam = MatroidChainFactory(m, 0.5).bind(
        FractionalPoint([0.15, 0.15, 0.1, 0.2, 0.1])).sample()
    for active in range(1 << 5):
        core = fam.selectable_mask(active) & active
        for order in itertools.permutations(range(5)):
            out = run_greedy_mask(fam, order, active)
            assert core & ~out == 0


def test_characteristic_crs_monotone():
    fam = _rank_one_family()
    kn = MatroidChainFactory(GraphicMatroid(4, [(0, 1), (1, 2), (2, 0),
                                                (0, 3), (1, 3)]), 0.5).bind(
        FractionalPoint([0.1] * 5)).sample()
    for family in (fam, kn):
        n = family.n
        for a2 in range(1 << n):
            crs2 = family.selectable_mask(a2) & a2
            a1 = a2
            while True:
                crs1 = family.selectable_mask(a1) & a1
                # growing the active set can only remove selectable elements
                assert crs2 & a1 & ~crs1 == 0
                if a1 == 0:
                    break
                a1 = (a1 - 1) & a2


# ---------------------------------------------------------------------------
# value bounds under the OCRS


def test_ocrs_submodular_modular_decomposition():
    w = [2.0, 1.0, 3.0, 1.5]
    f = modular(w)
    m = UniformMatroid(4, 2)
    x = FractionalPoint([0.25] * 4)
    fac = MatroidChainFactory(m, 0.5)
    est = ocrs_submodular_value(f, fac, x, 60_000, SEED)
    # modular value decomposes into per-element selection probabilities,
    # which under the identity order are at least the selectable ones
    exact_selectable = brute_force_selectability(fac, x)
    lower = float(np.dot(w, x.values * exact_selectable))
    upper = float(np.dot(w, x.values))
    assert lower - 3 * est.halfwidth <= est.mean <= upper + 3 * est.halfwidth


def test_ocrs_submodular_zero_point():
    f = coverage_function([1.0], [[0], [0]])
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    est = ocrs_submodular_value(f, fac, FractionalPoint([0.0, 0.0]),
                                2000, SEED)
    assert est.mean == 0.0


def test_ocrs_submodular_bound_coverage():
    f = coverage_function([1.0, 2.0, 1.5, 0.5, 1.0],
                          [[0, 1], [1, 2], [2, 3], [3, 4]])
    m = UniformMatroid(4, 2)
    x = FractionalPoint([0.25] * 4)
    est = ocrs_submodular_value(f, MatroidChainFactory(m, 0.5), x,
                                60_000, SEED)
    target = 0.5 * multilinear_exact(f, x)
    assert est.mean + 3 * est.halfwidth >= target


def test_ocrs_submodular_rejects_non_monotone():
    cut = directed_cut(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        ocrs_submodular_value(cut, MatroidChainFactory(UniformMatroid(2, 1),
                                                       0.5),
                              FractionalPoint([0.1, 0.1]), 100, SEED)


def test_half_subsample_modular_halves_the_mean():
    w = [2.0, 1.0, 3.0, 1.5]
    f = modular(w)
    m = UniformMatroid(4, 2)
    x = FractionalPoint([0.25] * 4)
    fac = MatroidChainFactory(m, 0.5)
    full = ocrs_submodular_value(f, fac, x, 60_000, SEED)
    half = half_subsample_value(f, fac, x, 60_000, SEED)
    tol = 3 * (full.halfwidth + half.halfwidth)
    assert abs(half.mean - 0.5 * full.mean) <= tol


def test_half_subsample_cut_bound():
    cut = directed_cut(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0),
                           (3, 0, 0.5), (0, 2, 1.0)])
    m = UniformMatroid(4, 2)
    x = FractionalPoint([0.25] * 4)
    est = half_subsample_value(cut, MatroidChainFactory(m, 0.5), x,
                               60_000, SEED)
    target = (0.5 / 4.0) * multilinear_exact(cut, x)
    assert est.mean + 3 * est.halfwidth >= target


_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.5])


@st.composite
def _value_loops(draw):
    """An objective, a scheme factory and a point in its b * P."""
    n = draw(st.integers(1, 5))
    b = draw(st.sampled_from([0.25, 0.5]))
    if draw(st.booleans()):
        factory = MatroidChainFactory(UniformMatroid(n, draw(st.integers(1, n))),
                                      b)
    else:
        # a knapsack scheme draws a family per trial, so the family must be
        # part of the key
        factory = KnapsackFactory(KnapsackConstraint(draw(st.lists(
            st.sampled_from([0.125, 0.25, 0.3, 0.6, 1.0]), min_size=n,
            max_size=n))), b)
    if draw(st.booleans()):
        f = coverage_function(
            draw(st.lists(_WEIGHTS, min_size=3, max_size=3)),
            draw(st.lists(st.lists(st.integers(0, 2), max_size=3),
                          min_size=n, max_size=n)))
    else:
        f = directed_cut(n, draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), _WEIGHTS),
            max_size=6)))
    raw = FractionalPoint(draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]),
                                        min_size=n, max_size=n)))
    load = factory.load(raw)
    scale = b / load * (1 - 1e-12) if load > b else 1.0
    return f, factory, FractionalPoint(raw.values * scale)


def _literal_ocrs_value(f, factory, x, trials, seed, half_subsample):
    """The OCRS value loop as a literal loop over every trial (the
    reference the grouped loop must reproduce bit for bit)."""
    sampler = factory.bind(x, seed.stream(_DOMAIN_CONSTRUCT_OUT))
    segments = [x.values, sampler]
    if half_subsample:
        segments.append(np.full(x.n, 0.5))
    order = tuple(range(x.n))
    values = []
    for _start, (actives, (codes, families), *coins) in trial_columns(
            seed, _DOMAIN_TRIALS, trials, segments):
        kept = coins[0].tolist() if coins else [-1] * len(actives)
        for a, c, k in zip(actives.tolist(), codes.tolist(), kept):
            values.append(f.value(run_greedy_mask(families[c], order, a)
                                  & k))
    return MeanEstimate.from_stream(values)


@settings(max_examples=40, deadline=None)
@given(loop=_value_loops(), trials=st.integers(1, 3 * TRIAL_BLOCK),
       seed=st.integers(0, 2 ** 32), half_subsample=st.booleans())
def test_grouped_ocrs_value_loops_match_per_trial_loop(loop, trials, seed,
                                                       half_subsample):
    f, factory, x = loop
    seed = SeedSpec(seed)
    # the monotone mode takes monotone objectives only
    half_subsample = half_subsample or not f.monotone
    run = half_subsample_value if half_subsample else ocrs_submodular_value
    assert run(f, factory, x, trials, seed) == _literal_ocrs_value(
        f, factory, x, trials, seed, half_subsample)


# ---------------------------------------------------------------------------
# continuous greedy


def test_continuous_greedy_zero_time():
    f = modular([1.0, 2.0])
    x = continuous_greedy(f, UniformMatroid(2, 1), 0.0)
    assert np.all(x.values == 0.0)


def test_continuous_greedy_modular_takes_best_vertex():
    f = modular([3.0, 2.0, 1.0])
    x = continuous_greedy(f, UniformMatroid(3, 1), 0.5)
    assert x.values[0] == pytest.approx(0.5)
    assert x.values[1] == 0.0 and x.values[2] == 0.0


def test_continuous_greedy_guarantee_coverage():
    f = coverage_function([1.0, 2.0, 1.5, 0.5, 1.0],
                          [[0, 1], [1, 2], [2, 3], [3, 4]])
    m = UniformMatroid(4, 2)
    x = continuous_greedy(f, m, 1.0)
    best_integral = max(f.value(mask) for mask in range(1 << 4)
                        if m.indep(mask))
    assert multilinear_exact(f, x) >= (1 - math.exp(-1) - 0.02) * best_integral


def test_continuous_greedy_partial_time_membership():
    f = coverage_function([1.0, 1.0, 1.0], [[0], [1], [2]])
    m = UniformMatroid(3, 2)
    for b in (0.3, 0.5, 0.75):
        x = continuous_greedy(f, m, b)
        assert x.values.sum() <= 2 * b + 1e-12


@pytest.mark.parametrize("n", [13, 14])
def test_continuous_greedy_checks_every_step(monkeypatch, n):
    """The per-step membership assert covers matroids of more than 12
    elements: with a dependent direction (every element of U(n, 2)) each
    of the 50 steps at b = 1/2 adds 0.01 to every coordinate, and the
    8th is the first whose point, at load 0.08 n, leaves b * P."""
    steps = []

    def every_element(m, gains):
        steps.append(gains)
        return m.ground_mask

    monkeypatch.setattr("ocrs.submodular.max_weight_independent",
                        every_element)
    with pytest.raises(AssertionError, match="left the scaled polytope"):
        continuous_greedy(modular([1.0] * n), UniformMatroid(n, 2), 0.5)
    assert len(steps) == 8
    # the gradient of a modular objective is its weights
    assert all(np.allclose(g, np.ones(n)) for g in steps)


def test_continuous_greedy_beyond_the_table_raises():
    with pytest.raises(ValueError, match="limited to 14 elements"):
        continuous_greedy(modular([1.0] * 15), UniformMatroid(15, 2), 0.5)


@pytest.mark.parametrize("n", [2, 4])
def test_continuous_greedy_rejects_a_matroid_off_the_ground_set(n):
    """The ascent reads f's table at the matroid's subsets: U(2, 1) would
    leave the heaviest element of a 3-element coverage unseen, and U(4, 1)
    would read past the table."""
    f = coverage_function([1.0, 2.0, 3.0], [[0], [1], [2]])
    with pytest.raises(ValueError, match=f"^'f' is over 3 elements but "
                                         f"the matroid has {n}$"):
        continuous_greedy(f, UniformMatroid(n, 1), 0.5)


@pytest.mark.parametrize("n", [2, 4])
def test_probing_ascent_rejects_p_off_the_ground_set(n):
    f = coverage_function([1.0, 2.0, 3.0], [[0], [1], [2]])
    with pytest.raises(ValueError, match=f"^'f' is over 3 elements but "
                                         f"'p' has {n}$"):
        continuous_greedy_probing(f, [0.5] * n, UniformMatroid(n, 1),
                                  UniformMatroid(n, 2), 0.5)


def test_probing_ascent_checks_every_step(monkeypatch):
    """A direction far outside the probing region trips the membership
    assert at the first step, not after the last."""
    steps = []

    def outside(gains, p, inner, outer):
        steps.append(gains)
        return np.full(len(p), 100.0)

    monkeypatch.setattr("ocrs.submodular._direction_lp", outside)
    with pytest.raises(AssertionError, match="left the scaled polytope"):
        continuous_greedy_probing(modular([1.0, 2.0, 3.0]), [1.0] * 3,
                                  UniformMatroid(3, 1), UniformMatroid(3, 2),
                                  0.5)
    assert len(steps) == 1


# ---------------------------------------------------------------------------
# submodular probing


def test_submodular_probing_zero_probabilities():
    f = coverage_function([1.0, 1.0], [[0], [1]])
    res = run_submodular_probing(f, [0.0, 0.0], UniformMatroid(2, 1),
                                 UniformMatroid(2, 2), 0.5, 2000, SEED)
    assert res.estimate.mean == 0.0
    assert res.multilinear_benchmark == 0.0


def test_submodular_probing_modular_matches_weighted_pipeline():
    # with a modular objective the greedy direction is the LP optimum, so
    # the pipeline coincides with weighted probing up to sampling noise
    w = (3.0, 2.0, 1.0)
    p = (0.9, 0.6, 0.8)
    inner, outer = UniformMatroid(3, 1), UniformMatroid(3, 2)
    b = 0.5
    f = modular(list(w))
    res = run_submodular_probing(f, list(p), inner, outer, b, 60_000, SEED)
    inst = ProbingInstance(p=p, w=w, inner=inner, outer=outer, b=b)
    pipeline = prepare_probing(inst, SEED)
    assert np.allclose(res.x_tilde.values, b * pipeline.lp.x.values, atol=0.02)
    est = probing_mean_value(pipeline, 60_000, SEED)
    tol = 3 * (res.estimate.halfwidth + est.halfwidth) + 0.02 * est.mean
    assert abs(res.estimate.mean - est.mean) <= tol


def test_submodular_probing_bound_coverage_fixture():
    f = coverage_function([1.0, 1.0, 2.0], [[0], [1], [2, 0]])
    res = run_submodular_probing(f, [0.8, 0.6, 0.9], UniformMatroid(3, 2),
                                 UniformMatroid(3, 1), 0.5, 60_000, SEED)
    assert (res.estimate.mean + 3 * res.estimate.halfwidth
            >= res.target - 1e-15)


def test_submodular_probing_rejects_non_monotone():
    cut = directed_cut(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        continuous_greedy_probing(cut, [0.5, 0.5], UniformMatroid(2, 1),
                                  UniformMatroid(2, 2), 0.5)


def test_submodular_probing_with_knapsack_inner():
    f = coverage_function([1.0, 2.0, 1.0], [[0], [1], [2]])
    res = run_submodular_probing(f, [0.9, 0.8, 0.7],
                                 KnapsackConstraint((0.5, 0.5, 0.25)),
                                 UniformMatroid(3, 2), 0.25, 20_000, SEED)
    assert (res.estimate.mean + 3 * res.estimate.halfwidth
            >= res.target - 1e-15)
    # the inner scheme constant is the knapsack one
    assert res.bound_expr.startswith("((1-2b)/(2-2b))")


def _literal_submodular_probing(f, p, inner, outer, b, trials, seed,
                                x_tilde):
    """The submodular probing loop as a literal loop over every trial,
    from the pipeline's own point and scheme streams."""
    pv = np.asarray(p, dtype=float)
    inner_sampler = default_factory(inner, b).bind(
        FractionalPoint(pv * x_tilde.values),
        seed.stream(_DOMAIN_CONSTRUCT_IN))
    outer_sampler = default_factory(outer, b).bind(
        x_tilde, seed.stream(_DOMAIN_CONSTRUCT_OUT))
    in_member, out_member = inner.indep, outer.indep
    order = tuple(range(f.n))
    values = []
    for _start, columns in trial_columns(
            seed, _DOMAIN_TRIALS, trials,
            [x_tilde.values, pv, inner_sampler, outer_sampler]):
        a_out, act, (codes_in, fams_in), (codes_out, fams_out) = columns
        for a, s, c_in, c_out in zip(a_out.tolist(), act.tolist(),
                                     codes_in.tolist(), codes_out.tolist()):
            _probed, selected = probe(order, a, s, fams_in[c_in],
                                      fams_out[c_out], in_member, out_member)
            values.append(f.value(selected))
    return MeanEstimate.from_stream(values)


@st.composite
def _submodular_probing_instances(draw):
    n = draw(st.integers(1, 4))

    def constraint():
        if draw(st.booleans()):
            return UniformMatroid(n, draw(st.integers(1, n)))
        return KnapsackConstraint(tuple(draw(st.lists(
            st.sampled_from([0.25, 0.3, 0.6, 1.0]), min_size=n,
            max_size=n))))

    f = coverage_function(
        draw(st.lists(_WEIGHTS, min_size=3, max_size=3)),
        draw(st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=n,
                      max_size=n)))
    p = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
                      min_size=n, max_size=n))
    return f, p, constraint(), constraint(), draw(st.sampled_from([0.25,
                                                                   0.5]))


@settings(max_examples=25, deadline=None)
@given(instance=_submodular_probing_instances(),
       trials=st.integers(1, 3 * TRIAL_BLOCK), seed=st.integers(0, 2 ** 32))
def test_grouped_submodular_probing_matches_per_trial_loop(instance, trials,
                                                           seed):
    f, p, inner, outer, b = instance
    seed = SeedSpec(seed)
    res = run_submodular_probing(f, p, inner, outer, b, trials, seed)
    assert res.estimate == _literal_submodular_probing(
        f, p, inner, outer, b, trials, seed, res.x_tilde)


@pytest.mark.parametrize("n", [13, 14])
def test_scaled_membership_checked_beyond_twelve_elements(n):
    """The final membership assert covers every matroid up to the rank
    table's limit: a point moved outside b * P on a 13-14 element graphic
    matroid trips it, the same point scaled back inside passes."""
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(i, (i + 3) % 7) for i in range(n - 7)]
    m = GraphicMatroid(7, edges)
    b = 0.5
    x = random_point_in_polytope(m, b, np.random.default_rng(n))
    _assert_scaled_membership(x, m, b)
    # the 7-cycle has rank 6: load it with 0.5 * 6 + 0.1 in total
    y = x.values.copy()
    y[:7] = (b * 6 + 0.1) / 7
    with pytest.raises(AssertionError, match="left the scaled polytope"):
        _assert_scaled_membership(FractionalPoint(y), m, b)


def test_scaled_membership_beyond_the_table_raises():
    with pytest.raises(ValueError, match="limited to 24 elements"):
        _assert_scaled_membership(FractionalPoint(np.zeros(25)),
                                  UniformMatroid(25, 2), 0.5)


def test_coverage_and_cut_values_sum_left_to_right():
    """1.0 + 2^53 rounds back to 2^53: a left-to-right sum of 1.0, 2^53
    and 1.0 is 2^53, a compensated one 2^53 + 2."""
    cover = coverage_function([1.0, 2.0 ** 53, 1.0], [[0, 1, 2]])
    assert cover.value(0b1) == 2.0 ** 53
    cut = directed_cut(4, [(0, 1, 1.0), (0, 2, 2.0 ** 53), (0, 3, 1.0)])
    assert cut.value(0b0001) == 2.0 ** 53
