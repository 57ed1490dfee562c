"""Relaxation solvers and the exact simplex, audited against small oracles."""

import itertools
import logging
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs.applications import deadline_matroid
from ocrs.core import FractionalPoint, SeedSpec
from ocrs.matroids import (GraphicMatroid, LaminarMatroid, Matroid,
                           PartitionMatroid, UniformMatroid,
                           in_scaled_matroid_polytope)
from ocrs.optimize import (DiscreteDistribution, KnapsackConstraint,
                           LinearProgram, LpError, LpUnbounded,
                           adaptive_probing_optimum,
                           distribution_from_json, simplex_solve,
                           solve_probing_lp, solve_prophet_relaxation,
                           tail_value, threshold)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution([1, 1], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteDistribution([2, 1], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteDistribution([1, 2], [0.5, 0.6])
    with pytest.raises(ValueError):
        DiscreteDistribution([1, 2], [0.0, 1.0])
    d = distribution_from_json({"support": [1, 10], "probs": [0.8, 0.2]})
    assert d.expectation() == pytest.approx(2.8)


def test_quantile():
    d = DiscreteDistribution([1, 10], [0.8, 0.2])
    assert d.quantile(0.0) == 1
    assert d.quantile(0.5) == 1
    assert d.quantile(0.81) == 10
    assert d.quantile(1.0) == 10


def test_tail_value_examples():
    d = DiscreteDistribution([1, 10], [0.8, 0.2])
    assert tail_value(d, 0.0) == 0.0
    assert threshold(d, 0.0) == 10
    assert tail_value(d, 1.0) == pytest.approx(d.expectation())
    assert threshold(d, 1.0) == 1
    assert tail_value(d, 0.2) == pytest.approx(2.0)
    assert tail_value(d, 0.5) == pytest.approx(2.3)
    assert threshold(d, 0.5) == 1


def test_prophet_relaxation_input_validation():
    d = DiscreteDistribution([1], [1.0])
    with pytest.raises(ValueError):
        solve_prophet_relaxation(UniformMatroid(2, 1), [d])
    neg = DiscreteDistribution([-1, 1], [0.5, 0.5])
    with pytest.raises(ValueError):
        solve_prophet_relaxation(UniformMatroid(1, 1), [neg])


def test_prophet_relaxation_single_element():
    d = DiscreteDistribution([1, 3], [0.5, 0.5])
    x, obj = solve_prophet_relaxation(UniformMatroid(1, 1), [d])
    assert np.allclose(x.values, [1.0])
    assert obj == pytest.approx(d.expectation())


def test_prophet_relaxation_two_piece_example():
    dists = [DiscreteDistribution([1], [1.0]),
             DiscreteDistribution([0, 100], [0.99, 0.01])]
    x, obj = solve_prophet_relaxation(UniformMatroid(2, 1), dists)
    assert np.allclose(x.values, [0.99, 0.01])
    assert obj == pytest.approx(1.99)


def _grid_optimum(matroid, dists, steps=50):
    """Independent oracle: brute force over the 1/steps grid inside P."""
    n = matroid.n
    best = -1.0
    for combo in itertools.product(range(steps + 1), repeat=n):
        x = FractionalPoint([c / steps for c in combo])
        if in_scaled_matroid_polytope(matroid, x, 1.0):
            val = sum(tail_value(dists[e], x[e]) for e in range(n))
            best = max(best, val)
    return best


def test_prophet_relaxation_meets_grid_oracle():
    gen = SeedSpec(21).stream(0)
    triangle = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    for matroid in (UniformMatroid(3, 1), UniformMatroid(3, 2), triangle):
        dists = []
        for _e in range(3):
            vals = sorted(set(np.round(gen.random(2) * 9 + 0.5, 2)))
            if len(vals) == 1:
                dists.append(DiscreteDistribution(vals, [1.0]))
            else:
                p = round(float(gen.random() * 0.8 + 0.1), 2)
                dists.append(DiscreteDistribution(vals, [p, round(1 - p, 2)]))
        x, obj = solve_prophet_relaxation(matroid, dists)
        assert in_scaled_matroid_polytope(matroid, x, 1.0)
        assert obj >= _grid_optimum(matroid, dists) - 1e-9


# ---------------------------------------------------------------------------
# simplex


def test_simplex_trivial():
    lp = LinearProgram([Fraction(0)], [[Fraction(1)]], [Fraction(1)])
    value, x = simplex_solve(lp)
    assert value == 0
    lp = LinearProgram([Fraction(1), Fraction(1)],
                       [[Fraction(1), Fraction(1)]], [Fraction(1)])
    value, x = simplex_solve(lp)
    assert value == 1 and sum(x) == 1


def test_simplex_unbounded():
    with pytest.raises(LpUnbounded):
        simplex_solve(LinearProgram([Fraction(1)], [], []))


def test_negative_rhs_is_rejected_naming_the_row():
    """The simplex starts from the slack basis, so x = 0 must be feasible:
    a negative rhs (here x0 >= 1/2) is refused when the LP is built."""
    with pytest.raises(LpError, match="row 0 has a negative rhs -1/2"):
        LinearProgram([Fraction(-1)], [[Fraction(-1)], [Fraction(1)]],
                      [Fraction(-1, 2), Fraction(1)])


def _solve_square(rows, rhs):
    """Fraction Gaussian elimination; returns None for singular systems."""
    n = len(rows)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [u - f * v for u, v in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _vertex_optimum(lp):
    """Independent oracle: enumerate basic feasible points of the LP."""
    n = len(lp.objective)
    cons = [(row, rhs) for row, rhs in zip(lp.rows, lp.rhs)]
    for e in range(n):
        unit = [Fraction(0)] * n
        unit[e] = Fraction(-1)
        cons.append((unit, Fraction(0)))  # -x_e <= 0
    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        rows = [cons[i][0] for i in combo]
        rhs = [cons[i][1] for i in combo]
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        feasible = all(sum(r * v for r, v in zip(row, x)) <= rhs
                       for row, rhs in cons)
        if feasible:
            val = sum(c * v for c, v in zip(lp.objective, x))
            best = val if best is None or val > best else best
    return best


def test_simplex_matches_vertex_enumeration():
    gen = SeedSpec(22).stream(0)
    for _case in range(12):
        n = 5
        m = 4
        rows = [[Fraction(int(gen.integers(-2, 4))) for _ in range(n)]
                for _ in range(m)]
        rhs = [Fraction(int(gen.integers(1, 6))) for _ in range(m)]
        for e in range(n):
            unit = [Fraction(0)] * n
            unit[e] = Fraction(1)
            rows.append(unit)
            rhs.append(Fraction(1))
        objective = [Fraction(int(gen.integers(-2, 5))) for _ in range(n)]
        lp = LinearProgram(objective, rows, rhs)
        value, x = simplex_solve(lp)
        assert value == _vertex_optimum(lp)
        # returned point is feasible
        for row, b in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, x)) <= b
        assert all(v >= 0 for v in x)


def test_lp_dump_and_validation():
    lp = LinearProgram([Fraction(3), Fraction(2)],
                       [[Fraction(1), Fraction(0)]], [Fraction(1)])
    text = lp.dump()
    assert "max" in text and "<=" in text
    with pytest.raises(ValueError):
        LinearProgram([Fraction(1)], [[Fraction(1), Fraction(2)]],
                      [Fraction(1)])


# ---------------------------------------------------------------------------
# probing LP


def test_probing_lp_examples():
    res = solve_probing_lp([0.7], [0.0], UniformMatroid(1, 1),
                           UniformMatroid(1, 1))
    assert res.value_exact == 0

    res = solve_probing_lp([0.5], [10.0], UniformMatroid(1, 1),
                           UniformMatroid(1, 1))
    assert res.value_exact == 5 and res.x_exact == [1]

    res = solve_probing_lp([1.0, 1.0], [3.0, 2.0], UniformMatroid(2, 1),
                           UniformMatroid(2, 2))
    assert res.value_exact == 3
    assert res.x_exact[0] == 1
    assert _vertex_optimum(res.lp) == res.value_exact


def test_probing_lp_with_knapsack_constraint():
    # dyadic sizes keep the float-to-Fraction conversion exact
    res = solve_probing_lp([1.0, 1.0], [2.0, 1.0],
                           KnapsackConstraint((0.5, 0.75)),
                           UniformMatroid(2, 2))
    # x0 = 1 fills half the capacity, x1 takes the remaining 2/3
    assert res.value_exact == _vertex_optimum(res.lp)
    assert res.value_exact == 2 + Fraction(2, 3)


def test_lp_upper_bounds_adaptive_optimum():
    fixtures = [
        ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3), Fraction(2)),
         UniformMatroid(2, 1), UniformMatroid(2, 2)),
        ((Fraction(9, 10), Fraction(3, 5), Fraction(4, 5)),
         (Fraction(3), Fraction(2), Fraction(1)),
         UniformMatroid(3, 1), UniformMatroid(3, 2)),
        ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
         (Fraction(4), Fraction(3), Fraction(2), Fraction(1)),
         UniformMatroid(4, 2), UniformMatroid(4, 3)),
        ((Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)),
         (Fraction(2), Fraction(2), Fraction(3)),
         KnapsackConstraint((0.5, 0.5, 0.5)), UniformMatroid(3, 2)),
    ]
    for p, w, inner, outer in fixtures:
        res = solve_probing_lp([float(v) for v in p], [float(v) for v in w],
                               inner, outer)
        opt = adaptive_probing_optimum(p, w, inner, outer)
        # exact rational comparison; the float conversion of p is exact for
        # dyadic entries and agrees on both sides otherwise
        lp_exact = solve_probing_lp([float(v) for v in p],
                                    [float(v) for v in w], inner,
                                    outer).value_exact
        adapted = adaptive_probing_optimum(
            [Fraction(float(v)) for v in p], [Fraction(float(v)) for v in w],
            inner, outer)
        assert lp_exact >= adapted
        assert res.value_exact >= adapted


# ---------------------------------------------------------------------------
# cutting planes against the full-row probing LP


def _full_probing_lp(objective, p, inner, outer, extra_outer=None):
    """Every row of the probing LP, in order: the inner rank rows over p o x
    (every nonempty subset, ascending mask), the outer rank rows, the
    ``extra_outer`` rows, one unit box row per element.  The oracle for the
    cutting-plane solver."""
    n = len(p)
    pf = [Fraction(float(v)) for v in p]
    ones = [Fraction(1)] * n
    rows = []
    for spec, mult in [(inner, pf), (outer, ones), (extra_outer, ones)]:
        if spec is None:
            continue
        if isinstance(spec, Matroid):
            for mask in range(1, 1 << n):
                rows.append(([mult[e] if mask >> e & 1 else Fraction(0)
                              for e in range(n)], Fraction(spec.rank(mask))))
        else:
            rows.append(([Fraction(spec.sizes[e]) * mult[e]
                          for e in range(n)], Fraction(1)))
    for e in range(n):
        rows.append(([Fraction(int(j == e)) for j in range(n)], Fraction(1)))
    return LinearProgram(objective, [r for r, _ in rows],
                         [rhs for _, rhs in rows])


def _constraint(draw, kind, n):
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n)))
    if kind == "partition":
        block_of = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[e for e in range(n) if block_of[e] == i]
                  for i in sorted(set(block_of))]
        return PartitionMatroid(blocks, [draw(st.integers(0, len(bl)))
                                         for bl in blocks])
    if kind == "graphic":
        pairs = list(itertools.combinations(range(4), 2))
        return GraphicMatroid(4, [pairs[i] for i in draw(st.lists(
            st.integers(0, len(pairs) - 1), min_size=n, max_size=n))])
    if kind == "laminar":
        inner = draw(st.integers(0, n))
        outer = draw(st.integers(inner, n))
        sets = [range(inner), range(outer), range(outer, n)]
        return LaminarMatroid(n, sets, [draw(st.integers(0, 3))
                                        for _ in sets])
    return KnapsackConstraint(tuple(draw(st.lists(
        st.sampled_from([0.125, 0.25, 0.3, 0.5, 0.75, 1.0, 1.5]),
        min_size=n, max_size=n))))


@st.composite
def _probing_instances(draw):
    """Probing LPs of 1-7 elements: uniform, partition, graphic or laminar
    matroids (loops allowed), a knapsack inner, with or without deadlines."""
    n = draw(st.integers(1, 7))
    matroids = ["uniform", "partition", "graphic", "laminar"]
    inner = _constraint(draw, draw(st.sampled_from(matroids + ["knapsack"])), n)
    outer = _constraint(draw, draw(st.sampled_from(matroids)), n)
    p = draw(st.lists(st.sampled_from([0.125, 0.3, 0.5, 0.7, 0.75, 1.0]),
                      min_size=n, max_size=n))
    w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25, 6.1]),
                      min_size=n, max_size=n))
    deadlines = draw(st.none() | st.lists(st.integers(1, n), min_size=n,
                                          max_size=n))
    extra = deadline_matroid(deadlines, n) if deadlines else None
    return p, w, inner, outer, extra


@settings(max_examples=150, deadline=None)
@given(_probing_instances())
def test_cutting_plane_matches_full_row_lp(instance):
    """Same exact optimum as the full-row LP; the same vertex, or else a
    feasible point of the full LP with the same value."""
    p, w, inner, outer, extra = instance
    res = solve_probing_lp(p, w, inner, outer, extra_outer=extra)
    objective = [Fraction(we) * Fraction(pe) for we, pe in zip(w, p)]
    full = _full_probing_lp(objective, p, inner, outer, extra)
    value, x = simplex_solve(full)
    assert res.value_exact == value
    if res.x_exact != x:
        assert all(v >= 0 for v in res.x_exact)
        for row, rhs in zip(full.rows, full.rhs):
            assert sum(a * v for a, v in zip(row, res.x_exact)) <= rhs
        assert sum(c * v for c, v in zip(objective, res.x_exact)) == value
    # the certificate: one entry per matroid, none violated
    matroids = [spec for spec in (inner, outer, extra)
                if isinstance(spec, Matroid)]
    assert len(res.separations) == len(matroids)
    assert all(s.max_excess <= 0 for s in res.separations)
    # the generated rows are a subsequence of the full rows
    full_rows = iter(zip(full.rows, full.rhs))
    assert all(row in full_rows for row in zip(res.lp.rows, res.lp.rhs))


def _uniform_max_excess(y, k):
    """max over nonempty S of y(S) - min(|S|, k): the top-j sums."""
    top = sorted(y, reverse=True)
    return max(sum(top[:j]) - min(j, k) for j in range(1, len(top) + 1))


def test_probing_lp_beyond_sixteen_elements():
    """18 elements: U(18,2) inner, U(18,3) outer; the full LP would have
    2 * (2^18 - 1) + 18 rows.  The certificate is exact: each matroid's
    max excess equals the closed form for uniform matroids and is <= 0."""
    n = 18
    p = [round(0.3 + 0.025 * e, 3) for e in range(n)]
    w = [round(1.0 + 0.5 * ((7 * e) % n), 2) for e in range(n)]
    res = solve_probing_lp(p, w, UniformMatroid(n, 2), UniformMatroid(n, 3))
    inner, outer = res.separations
    x = res.x_exact
    assert inner.max_excess == _uniform_max_excess(
        [Fraction(pe) * v for pe, v in zip(p, x)], 2) <= 0
    assert outer.max_excess == _uniform_max_excess(x, 3) <= 0
    assert all(0 <= v <= 1 for v in x)
    assert len(res.lp.rows) < 100


def test_probing_lp_limit_is_named():
    with pytest.raises(LpError, match="limited to 24 elements"):
        solve_probing_lp([0.5] * 25, [1.0] * 25, UniformMatroid(25, 2),
                         UniformMatroid(25, 3))


def test_probing_lp_logs_summary(caplog):
    p = [0.62, 0.35, 0.71, 0.48, 0.55, 0.4]
    w = [4.3, 7.9, 2.6, 5.1, 3.8, 6.7]
    with caplog.at_level(logging.INFO, logger="ocrs.optimize"):
        res = solve_probing_lp(p, w, UniformMatroid(6, 2),
                               UniformMatroid(6, 3))
    assert len(caplog.messages) == 1
    assert re.fullmatch(r"probing LP: \d+ rounds; \d+ of 132 rows; \d+ "
                        r"pivots; max excess 0", caplog.messages[0])
    assert f"; {len(res.lp.rows)} of 132 rows;" in caplog.messages[0]
    text = res.dump()
    assert text.startswith(res.lp.dump())
    inner, outer = res.separations
    assert text.splitlines()[-2:] == [
        f"certificate inner: max over S of y(S) - r(S) = {inner.max_excess}",
        "certificate outer: max over S of y(S) - r(S) = 0"]
    assert inner.max_excess < 0
