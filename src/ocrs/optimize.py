"""Relaxation solvers: separable-concave maximization over matroid polytopes,
the probing linear program, and an exact rational simplex.

The simplex works entirely in Fractions with Bland's pivoting rule, so
degenerate matroid constraint systems terminate with certified optima.  It
has one phase: every LP here has a nonnegative rhs, so it starts from the
slack basis.  The probing LP is solved by cutting planes, adding only the
rank rows that exact separation finds violated; the prophet relaxation
instead uses the slope-greedy that is exact for piecewise-linear concave
objectives over matroid polytopes.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FractionalPoint, iter_bits, ordered_sum
from .matroids import EXHAUSTIVE_LIMIT, Matroid

log = logging.getLogger("ocrs.optimize")

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
        if abs(ordered_sum(pr) - 1.0) > 1e-12:
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
    above = ordered_sum(v * pr for v, pr in zip(dist.support, dist.probs)
                        if v > q)
    upper_tail = ordered_sum(pr for v, pr in zip(dist.support, dist.probs)
                             if v > q)
    return (p - upper_tail) * q + above


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
    polytope = matroid.polytope()
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
    objective = float(ordered_sum(tail_value(dists[e], x[e])
                                  for e in range(n)))
    return FractionalPoint(x), objective


# ---------------------------------------------------------------------------
# exact rational simplex


class LpError(ValueError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass
class LinearProgram:
    """max objective . x  subject to  rows . x <= rhs,  x >= 0,  rhs >= 0.

    Every rhs is nonnegative (rank values, capacities and unit boxes), so
    x = 0 is feasible and the simplex starts from the slack basis.
    """

    objective: list[Fraction]
    rows: list[list[Fraction]]
    rhs: list[Fraction]
    #: Bland's-rule pivots of the last ``simplex_solve``
    pivots: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise LpError("one rhs entry per row required")
        for i, (row, rhs) in enumerate(zip(self.rows, self.rhs)):
            if len(row) != n:
                raise LpError("row length must match the objective")
            if rhs < 0:
                raise LpError(f"row {i} has a negative rhs {rhs}; the "
                              f"simplex starts from the slack basis")

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
    pivot_row = [v / piv for v in tableau[row]]
    tableau[row] = pivot_row
    # the eliminations touch only the pivot row's nonzero columns (the rank
    # and box rows are sparse in the slack columns)
    nonzero = [j for j, v in enumerate(pivot_row) if v]
    for r, line in enumerate(tableau):
        factor = line[col]
        if r != row and factor != 0:
            for j in nonzero:
                line[j] -= factor * pivot_row[j]
    basis[row] = col


def simplex_solve(lp: LinearProgram) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of the LP by Bland's rule from the slack basis, which
    guarantees termination; ``lp.pivots`` counts the pivots."""
    n = len(lp.objective)
    m = len(lp.rows)
    # columns: n structural | m slack | rhs, and the objective is the last
    # row; the slacks are the basis, so it is already in terms of the
    # nonbasic variables
    tableau: list[list[Fraction]] = []
    for i in range(m):
        line = [Fraction(0)] * (n + m + 1)
        line[:n] = lp.rows[i]
        line[n + i] = Fraction(1)
        line[-1] = lp.rhs[i]
        tableau.append(line)
    tableau.append(list(lp.objective) + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))
    lp.pivots = 0
    while True:
        col = next((j for j in range(n + m) if tableau[m][j] > 0), None)
        if col is None:
            break
        ratios = [(tableau[r][-1] / tableau[r][col], r)
                  for r in range(m) if tableau[r][col] > 0]
        if not ratios:
            raise LpUnbounded("objective is unbounded over the feasible region")
        min_ratio = min(q for q, _ in ratios)
        row = min(r for q, r in ratios if q == min_ratio)
        _pivot(tableau, basis, row, col)
        lp.pivots += 1
    solution = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            solution[basis[r]] = tableau[r][-1]
    return -tableau[m][-1], solution


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
        return (ordered_sum(self.sizes[e] for e in iter_bits(mask))
                <= 1.0 + 1e-9)


ConstraintSpec = Matroid | KnapsackConstraint


def constraint_member(spec: ConstraintSpec) -> Callable[[int], bool]:
    if isinstance(spec, Matroid):
        return spec.indep
    return spec.member


def polytope_rows(spec: ConstraintSpec, multipliers: Sequence[Fraction],
                  n: int, masks: Sequence[int] = ()
                  ) -> list[tuple[list[Fraction], Fraction]]:
    """Inequality rows of {y : diag(mult) x = y in P_spec} over x variables:
    the rank rows of the subsets ``masks`` of a matroid, in that order, or
    the one capacity row of a knapsack (``masks`` is ignored)."""
    if isinstance(spec, Matroid):
        return [([multipliers[e] if (mask >> e) & 1 else Fraction(0)
                  for e in range(n)], Fraction(spec.rank(mask)))
                for mask in masks]
    return [([Fraction(spec.sizes[e]) * multipliers[e] for e in range(n)],
             Fraction(1))]


@dataclass(frozen=True)
class Separation:
    """The last round's separation of one matroid constraint:
    ``max_excess`` is the exact max over nonempty S of y(S) - r(S), with
    y = diag(multipliers) x.  The solution lies in the matroid's polytope
    iff ``max_excess <= 0``."""

    name: str
    max_excess: Fraction


@dataclass
class ProbingLpResult:
    """An exact optimum of the probing LP, with the rows it needed.

    ``lp`` is the last round's program: the generated rows, in the full
    LP's order (``full_rows`` counts the full LP's rows).  ``separations``
    is the certificate: one entry per matroid constraint, every
    ``max_excess`` at most 0.
    """

    x: FractionalPoint
    x_exact: list[Fraction]
    value_exact: Fraction
    lp: LinearProgram
    separations: list[Separation]
    rounds: int
    pivots: int
    full_rows: int

    @property
    def value(self) -> float:
        return float(self.value_exact)

    def summary(self) -> str:
        excess = max((s.max_excess for s in self.separations), default=None)
        return (f"{self.rounds} rounds; {len(self.lp.rows)} of "
                f"{self.full_rows} rows; {self.pivots} pivots; max excess "
                f"{'none' if excess is None else excess}")

    def dump(self) -> str:
        """The generated rows, then one certificate line per matroid."""
        lines = [self.lp.dump()]
        lines += [f"certificate {s.name}: max over S of y(S) - r(S) = "
                  f"{s.max_excess}" for s in self.separations]
        return "\n".join(lines)


def cutting_plane_lp(objective: list[Fraction], p: Sequence[float],
                     inner: ConstraintSpec, outer: ConstraintSpec,
                     extra_outer: Optional[ConstraintSpec] = None
                     ) -> ProbingLpResult:
    """max objective.x over {x : p o x in P_in, x in P_out, x in [0, 1]^n}.

    The full program has, in order: the inner rows with multipliers p
    (floats convert exactly to rationals), the outer rows, the
    ``extra_outer`` rows if any, and one unit box row per element.  This
    solves it by cutting planes.  It starts from the box rows and any
    knapsack row, solves exactly, and adds for each matroid constraint
    the most violated rank row max_S y(S) - r(S), found exactly by
    ``MatroidPolytope.max_excess`` over y scaled to integers by the LCM of
    its denominators.  It stops when no row is violated, so the optimum
    is the full program's.  The rows stay in the full program's order, so
    Bland's rule sees the same relative row order.
    """
    n = len(p)
    ones = [Fraction(1)] * n
    groups = [(inner, [Fraction(float(v)) for v in p], "inner"),
              (outer, ones, "outer")]
    if extra_outer is not None:
        groups.append((extra_outer, ones, "extra"))
    # rows keyed by (group, mask); the box rows are the last group
    rows: dict[tuple[int, int], tuple[list[Fraction], Fraction]] = {}
    tables = []
    full_rows = n
    for g, (spec, mult, name) in enumerate(groups):
        if not isinstance(spec, Matroid):
            rows[g, 0] = polytope_rows(spec, mult, n)[0]
            full_rows += 1
            continue
        if spec.size() > EXHAUSTIVE_LIMIT:
            raise LpError(f"probing LP separation enumerates the subsets of "
                          f"each matroid and is limited to "
                          f"{EXHAUSTIVE_LIMIT} elements")
        tables.append((g, name, spec, mult, spec.polytope()))
        full_rows += (1 << spec.size()) - 1
    for e in range(n):
        rows[len(groups), e] = ([Fraction(int(j == e)) for j in range(n)],
                                Fraction(1))
    rounds = pivots = 0
    while True:
        keys = sorted(rows)
        lp = LinearProgram(objective=objective,
                           rows=[rows[k][0] for k in keys],
                           rhs=[rows[k][1] for k in keys])
        value, solution = simplex_solve(lp)
        rounds += 1
        pivots += lp.pivots
        separations = []
        for g, name, spec, mult, table in tables:
            y = [m * v for m, v in zip(mult, solution)]
            scale = math.lcm(*(v.denominator for v in y))
            excess, mask = table.max_excess(
                [v.numerator * (scale // v.denominator) for v in y], scale)
            separations.append(Separation(name, Fraction(excess, scale)))
            if excess > 0:
                rows[g, mask] = polytope_rows(spec, mult, n, [mask])[0]
        if all(s.max_excess <= 0 for s in separations):
            return ProbingLpResult(
                x=FractionalPoint([float(v) for v in solution]),
                x_exact=solution, value_exact=value,
                lp=lp, separations=separations, rounds=rounds,
                pivots=pivots, full_rows=full_rows)


def solve_probing_lp(p: Sequence[float], w: Sequence[float],
                     inner: ConstraintSpec, outer: ConstraintSpec,
                     extra_outer: Optional[ConstraintSpec] = None) -> ProbingLpResult:
    """Optimal basic solution of: max w.(p o x), p o x in P_in, x in P_out.

    All data is converted to exact rationals (floats convert exactly) and
    solved by ``cutting_plane_lp`` over the rational simplex, so the
    optimum certifies LP upper bounds in exact arithmetic.
    """
    if len(w) != len(p):
        raise ValueError("weights and probabilities must share the length")
    objective = [Fraction(float(we)) * Fraction(float(pe))
                 for we, pe in zip(w, p)]
    res = cutting_plane_lp(objective, p, inner, outer, extra_outer)
    if abs(res.value_exact) > sys.float_info.max:
        raise ValueError("weights 'w' are too large: the probing LP optimum "
                         "overflows the float range")
    log.info("probing LP: %s", res.summary())
    return res


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
