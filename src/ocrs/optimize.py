"""Relaxation solvers: separable-concave maximization over matroid polytopes,
the probing linear program, and an exact rational simplex.

The simplex works entirely in Fractions with Bland's pivoting rule, so
degenerate matroid constraint systems terminate with certified optima; the
prophet relaxation instead uses the slope-greedy that is exact for
piecewise-linear concave objectives over matroid polytopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FractionalPoint, iter_bits
from .matroids import Matroid, MatroidPolytope

_TOL = 1e-12


class DiscreteDistribution:
    """Finite-support distribution with ascending distinct support values."""

    def __init__(self, support: Sequence[float], probs: Sequence[float]):
        sup = [float(v) for v in support]
        pr = [float(p) for p in probs]
        if len(sup) != len(pr) or not sup:
            raise ValueError("support and probs must be equal-length, nonempty")
        if not all(math.isfinite(v) for v in sup):
            raise ValueError("'support' values must be finite")
        if not all(math.isfinite(p) for p in pr):
            raise ValueError("'probs' must be finite")
        if any(b <= a for a, b in zip(sup, sup[1:])):
            raise ValueError("support must be ascending and distinct")
        if any(p <= 0 for p in pr):
            raise ValueError("probabilities must be positive")
        if abs(sum(pr) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to one")
        self.support = tuple(sup)
        self.probs = tuple(pr)
        self._cum = np.cumsum(pr)

    def expectation(self) -> float:
        return float(np.dot(self.support, self.probs))

    def cdf(self, value: float) -> float:
        total = 0.0
        for v, p in zip(self.support, self.probs):
            if v <= value:
                total += p
        return total

    def prob_of(self, value: float) -> float:
        for v, p in zip(self.support, self.probs):
            if v == value:
                return p
        return 0.0

    def quantile_index(self, u: np.ndarray) -> np.ndarray:
        """Support index of the smallest value whose CDF reaches u, per u."""
        idx = np.searchsorted(self._cum, u, side="left")
        return np.minimum(idx, len(self.support) - 1)

    def quantile(self, u: float) -> float:
        """Smallest support value whose CDF reaches u (inverse CDF)."""
        return self.support[int(self.quantile_index(u))]

    @property
    def min_value(self) -> float:
        return self.support[0]

    @property
    def max_value(self) -> float:
        return self.support[-1]


def distribution_from_json(obj: dict) -> DiscreteDistribution:
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise ValueError("distribution descriptor needs 'support' and 'probs'")
    return DiscreteDistribution(obj["support"], obj["probs"])


def threshold(dist: DiscreteDistribution, p: float) -> float:
    """q(p): the smallest value whose CDF reaches 1 - p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    target = 1.0 - p
    total = 0.0
    for v, pr in zip(dist.support, dist.probs):
        total += pr
        if total >= target - _TOL:
            return v
    return dist.max_value


def tail_value(dist: DiscreteDistribution, p: float) -> float:
    """Expected value restricted to the top p-fraction of realizations.

    Splits the atom at the threshold: the threshold value contributes only
    the part of its mass needed to fill the fraction exactly.
    """
    q = threshold(dist, p)
    above = sum(v * pr for v, pr in zip(dist.support, dist.probs) if v > q)
    upper_tail = sum(pr for v, pr in zip(dist.support, dist.probs) if v > q)
    return (p - upper_tail) * q + above


@dataclass(frozen=True)
class TailFunction:
    """Piecewise-linear concave tail-expectation with explicit breakpoints.

    Breakpoints are (fraction, value) pairs starting at (0, 0); slopes are
    the support values in descending order, hence strictly decreasing.
    """

    breakpoints: tuple[tuple[float, float], ...]

    @classmethod
    def from_distribution(cls, dist: DiscreteDistribution) -> "TailFunction":
        pts = [(0.0, 0.0)]
        acc_p, acc_v = 0.0, 0.0
        for v, pr in zip(reversed(dist.support), reversed(dist.probs)):
            acc_p += pr
            acc_v += v * pr
            pts.append((min(acc_p, 1.0), acc_v))
        pts[-1] = (1.0, pts[-1][1])
        return cls(tuple(pts))

    def value(self, p: float) -> float:
        pts = self.breakpoints
        if p <= 0.0:
            return 0.0
        for (p0, v0), (p1, v1) in zip(pts, pts[1:]):
            if p <= p1 + _TOL:
                if p1 == p0:
                    return v1
                return v0 + (v1 - v0) * (p - p0) / (p1 - p0)
        return pts[-1][1]

    def slopes(self) -> list[float]:
        pts = self.breakpoints
        return [(v1 - v0) / (p1 - p0)
                for (p0, v0), (p1, v1) in zip(pts, pts[1:]) if p1 > p0]


def solve_prophet_relaxation(
        matroid: Matroid,
        dists: Sequence[DiscreteDistribution]) -> tuple[FractionalPoint, float]:
    """Maximize the sum of per-element tail expectations over the polytope.

    Slope-greedy over the piecewise-linear pieces: repeatedly raise the
    coordinate with the steepest remaining slope by the largest step that
    stays inside the polytope, capped by the piece width.  Exact for
    concave separable objectives over matroid polytopes.  Zero-value pieces
    are skipped so the returned point is coordinate-wise minimal.
    """
    n = matroid.n
    if len(dists) != n:
        raise ValueError("one distribution per element required")
    if matroid.size() > 20:
        raise ValueError("exhaustive polytope stepping limited to 20 elements")
    polytope = MatroidPolytope(matroid)
    pieces = []
    for e in range(n):
        d = dists[e]
        if d.min_value < 0:
            raise ValueError("prophet instances need nonnegative support")
        for k, (v, pr) in enumerate(zip(reversed(d.support),
                                        reversed(d.probs))):
            pieces.append((-v, e, k, pr))
    pieces.sort()
    x = np.zeros(n)
    for neg_slope, e, _k, width in pieces:
        if neg_slope >= 0.0:
            break
        if not (matroid.ground_mask >> e) & 1:
            continue
        step = min(width, polytope.max_step(x, e), 1.0 - x[e])
        if step > 0.0:
            x[e] += step
    objective = float(sum(tail_value(dists[e], x[e]) for e in range(n)))
    return FractionalPoint(x).with_validated_scale(1.0), objective


# ---------------------------------------------------------------------------
# exact rational simplex


class LpError(ValueError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass
class LinearProgram:
    """max objective . x  subject to  rows . x <= rhs,  x >= 0."""

    objective: list[Fraction]
    rows: list[list[Fraction]]
    rhs: list[Fraction]

    def __post_init__(self) -> None:
        n = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise LpError("one rhs entry per row required")
        for row in self.rows:
            if len(row) != n:
                raise LpError("row length must match the objective")

    def dump(self) -> str:
        lines = ["max " + " + ".join(f"{c}*x{j}"
                                     for j, c in enumerate(self.objective))]
        for row, rhs in zip(self.rows, self.rhs):
            lines.append("  " + " + ".join(f"{a}*x{j}"
                                           for j, a in enumerate(row))
                         + f" <= {rhs}")
        return "\n".join(lines)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int,
           col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [a - factor * b for a, b in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int],
                 num_cols: int) -> None:
    """Maximize with Bland's rule; objective is the last tableau row."""
    obj = len(tableau) - 1
    while True:
        col = next((j for j in range(num_cols) if tableau[obj][j] > 0), None)
        if col is None:
            return
        ratios = [(tableau[r][-1] / tableau[r][col], r)
                  for r in range(obj) if tableau[r][col] > 0]
        if not ratios:
            raise LpUnbounded("objective is unbounded over the feasible region")
        min_ratio = min(q for q, _ in ratios)
        row = min(r for q, r in ratios if q == min_ratio)
        _pivot(tableau, basis, row, col)


def simplex_solve(lp: LinearProgram) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of the LP; Bland's rule guarantees termination."""
    n = len(lp.objective)
    m = len(lp.rows)
    # columns: n structural | m slack | (phase-1 artificials) | rhs
    rows = []
    negatives = []
    for i in range(m):
        coeffs = list(lp.rows[i])
        rhs = lp.rhs[i]
        slack = Fraction(1)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            slack = Fraction(-1)
            negatives.append(i)
        rows.append((coeffs, slack, rhs))

    num_art = len(negatives)
    width = n + m + num_art + 1
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_at = {}
    next_art = 0
    for i, (coeffs, slack, rhs) in enumerate(rows):
        line = [Fraction(0)] * width
        for j, c in enumerate(coeffs):
            line[j] = c
        line[n + i] = slack
        if slack < 0:
            line[n + m + next_art] = Fraction(1)
            art_at[i] = n + m + next_art
            basis.append(n + m + next_art)
            next_art += 1
        else:
            basis.append(n + i)
        line[-1] = rhs
        tableau.append(line)

    if num_art:
        # phase 1: maximize minus the sum of artificials; the cost row is
        # reduced against the artificial basis by adding their rows
        obj = [Fraction(0)] * width
        for col in art_at.values():
            obj[col] = Fraction(-1)
        for i in art_at:
            obj = [a + b for a, b in zip(obj, tableau[i])]
        tableau.append(obj)
        _run_simplex(tableau, basis, n + m + num_art)
        if tableau[-1][-1] != 0:
            raise LpInfeasible("no feasible point")
        tableau.pop()
        for r in range(m):
            if basis[r] >= n + m:
                # degenerate artificial still basic; pivot it out or drop row
                col = next((j for j in range(n + m)
                            if tableau[r][j] != 0), None)
                if col is not None:
                    _pivot(tableau, basis, r, col)

    obj = [Fraction(0)] * width
    for j in range(n):
        obj[j] = lp.objective[j]
    # express objective in terms of nonbasic variables
    for r in range(m):
        if basis[r] < n and obj[basis[r]] != 0:
            factor = obj[basis[r]]
            obj = [a - factor * b for a, b in zip(obj, tableau[r])]
    tableau.append(obj)
    _run_simplex(tableau, basis, n + m)

    solution = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            solution[basis[r]] = tableau[r][-1]
    value = -tableau[-1][-1]
    return value, solution


# ---------------------------------------------------------------------------
# the probing linear program


@dataclass(frozen=True)
class KnapsackConstraint:
    """Single capacity row: sum of sizes over the chosen set at most one."""

    sizes: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.sizes)

    def member(self, mask: int) -> bool:
        return sum(self.sizes[e] for e in iter_bits(mask)) <= 1.0 + 1e-9


ConstraintSpec = Matroid | KnapsackConstraint


def constraint_member(spec: ConstraintSpec) -> Callable[[int], bool]:
    if isinstance(spec, Matroid):
        return spec.indep
    return spec.member


def polytope_rows(spec: ConstraintSpec, multipliers: Sequence[Fraction],
                  n: int) -> list[tuple[list[Fraction], Fraction]]:
    """Inequality rows of {y : diag(mult) x = y in P_spec} over x variables."""
    rows = []
    if isinstance(spec, Matroid):
        if spec.size() > 16:
            raise LpError("rank-constraint enumeration limited to 16 elements")
        for mask, rank in MatroidPolytope(spec).rank_rows():
            coeffs = [multipliers[e] if (mask >> e) & 1 else Fraction(0)
                      for e in range(n)]
            rows.append((coeffs, Fraction(rank)))
    else:
        coeffs = [Fraction(spec.sizes[e]) * multipliers[e] for e in range(n)]
        rows.append((coeffs, Fraction(1)))
    return rows


@dataclass
class ProbingLpResult:
    x: FractionalPoint
    x_exact: list[Fraction]
    value: float
    value_exact: Fraction
    lp: LinearProgram


def solve_probing_lp(p: Sequence[float], w: Sequence[float],
                     inner: ConstraintSpec, outer: ConstraintSpec,
                     extra_outer: Optional[ConstraintSpec] = None) -> ProbingLpResult:
    """Optimal basic solution of: max w.(p o x), p o x in P_in, x in P_out.

    All data is converted to exact rationals (floats convert exactly) and
    solved by the rational simplex, so the optimum certifies Lp upper
    bounds in exact arithmetic.
    """
    n = len(p)
    if len(w) != n:
        raise ValueError("weights and probabilities must share the length")
    pf = [Fraction(float(v)) for v in p]
    ones = [Fraction(1)] * n
    rows: list[tuple[list[Fraction], Fraction]] = []
    rows += polytope_rows(inner, pf, n)
    rows += polytope_rows(outer, ones, n)
    if extra_outer is not None:
        rows += polytope_rows(extra_outer, ones, n)
    for e in range(n):
        unit = [Fraction(0)] * n
        unit[e] = Fraction(1)
        rows.append((unit, Fraction(1)))
    objective = [Fraction(float(w[e])) * pf[e] for e in range(n)]
    lp = LinearProgram(objective=objective,
                       rows=[r for r, _ in rows],
                       rhs=[rhs for _, rhs in rows])
    value, solution = simplex_solve(lp)
    x = FractionalPoint([float(v) for v in solution])
    return ProbingLpResult(x=x, x_exact=solution, value=float(value),
                           value_exact=value, lp=lp)


def adaptive_probing_optimum(p: Sequence[Fraction], w: Sequence[Fraction],
                             inner: ConstraintSpec,
                             outer: ConstraintSpec,
                             extra_outer: Optional[ConstraintSpec] = None) -> Fraction:
    """Exact optimal adaptive probing value by backward induction.

    States are (probed set, selected set); at each state the policy may stop
    or probe any element keeping the probed set outer-feasible and the
    would-be selection inner-feasible.  Exponential; intended for n <= 4.
    """
    n = len(p)
    if n > 10:
        raise ValueError("backward induction limited to small ground sets")
    pf = [Fraction(v) for v in p]
    wf = [Fraction(v) for v in w]
    in_member = constraint_member(inner)
    out_member = constraint_member(outer)
    extra_member = (constraint_member(extra_outer)
                    if extra_outer is not None else lambda mask: True)
    memo: dict[tuple[int, int], Fraction] = {}

    def value(probed: int, selected: int) -> Fraction:
        key = (probed, selected)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = Fraction(0)
        for e in range(n):
            bit = 1 << e
            if probed & bit:
                continue
            if not (out_member(probed | bit) and extra_member(probed | bit)):
                continue
            if not in_member(selected | bit):
                continue
            gain = (pf[e] * (wf[e] + value(probed | bit, selected | bit))
                    + (1 - pf[e]) * value(probed | bit, selected))
            if gain > best:
                best = gain
        memo[key] = best
        return best

    return value(0, 0)
