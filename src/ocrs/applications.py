"""End-to-end pipelines: prophet selection, stochastic probing, deadlines.

Each pipeline solves its relaxation, converts the fractional optimum into
activation thresholds or probing probabilities, and plays a greedy OCRS
online.  Trials are grouped by a state key (integer key columns in the
order-free probing loop, the tuple key `prophet_state_key` in prophet), so
a distinct state is played at most once per order and trial block, not
once per trial.  Prophet trials are decoded and grouped block by block
with numpy, and trials with equal full states share one state tuple, so
`harness.group_states` keys each distinct tuple once.  A prophet run only
looks at its active elements, so the worst-order search plays a state once
per order of its active set, not once per permutation, and takes every
order's mean from one table of those values; the almighty adversary plays
it once, in ascending value.  Feasibility is asserted on every play, which
covers every trial and order that shares it, because a run is a pure
function of its key and of the order restricted to its active set.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (TRIAL_BLOCK, FractionalPoint, SeedSpec, block_states,
                   group_rows, iter_bits, ordered_sum, pack_mask_rows,
                   scale_point, trial_columns)
from .harness import (AdversarySearchResult, MeanEstimate, group_states,
                      grouped_values, worst_order_value)
from .matroids import LaminarMatroid, Matroid, max_weight_independent
from .optimize import (ConstraintSpec, DiscreteDistribution,
                       KnapsackConstraint, ProbingLpResult,
                       solve_probing_lp, solve_prophet_relaxation, threshold)
from .schemes import (FeasibleFamily, GreedyOcrsFactory, IntersectionFactory,
                      KnapsackFactory, MatroidChainFactory, SchemeSampler,
                      run_greedy_mask)

log = logging.getLogger("ocrs.applications")

_DOMAIN_CONSTRUCT_OUT = 10
_DOMAIN_CONSTRUCT_IN = 11
_DOMAIN_TRIALS = 12


def default_factory(spec: ConstraintSpec, b: float) -> GreedyOcrsFactory:
    """The scheme this library pairs with a constraint family by default."""
    if isinstance(spec, Matroid):
        return MatroidChainFactory(spec, b)
    if isinstance(spec, KnapsackConstraint):
        return KnapsackFactory(spec, b)
    raise TypeError(f"no default scheme for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# prophet pipeline


@dataclass(frozen=True)
class ProphetInstance:
    """Matroid constraint plus one finite value distribution per element.

    ``arrival_order`` names the evaluation policy: "worst", "identity", or
    a fixed permutation tuple.  For "worst", the ``prophet`` command
    searches every fixed order (`prophet_worst_order`) up to 6 elements and
    plays the almighty adversary (`prophet_almighty_value`) above.
    """

    matroid: Matroid
    dists: tuple[DiscreteDistribution, ...]
    arrival_order: str | tuple[int, ...] = "worst"

    def __post_init__(self) -> None:
        if len(self.dists) != self.matroid.n:
            raise ValueError("'dists' must hold one distribution per element")
        for d in self.dists:
            if d.min_value < 0:
                raise ValueError("prophet values in 'dists' must be "
                                 "nonnegative")
        if not isinstance(self.arrival_order, str):
            if sorted(self.arrival_order) != list(range(self.matroid.n)):
                raise ValueError("fixed arrival 'order' must be a "
                                 "permutation")
        elif self.arrival_order not in ("worst", "identity"):
            raise ValueError("arrival_order must be 'worst', 'identity' or "
                             "a permutation")

    @property
    def n(self) -> int:
        return self.matroid.n


def prophet_thresholds(instance: ProphetInstance,
                       x: FractionalPoint) -> list[tuple[float, float]]:
    """Per-element (threshold value, tie-activation probability).

    Element e becomes active when its realization exceeds the threshold, or
    equals it and an independent coin with the tie probability succeeds; the
    resulting activation probability is exactly x_e.
    """
    out = []
    for e in range(instance.n):
        d = instance.dists[e]
        xe = x[e]
        if xe <= 0.0:
            out.append((d.max_value, 0.0))
            continue
        q = threshold(d, xe)
        atom = d.prob_of(q)
        tie = (xe - 1.0 + d.cdf(q)) / atom if atom > 0 else 0.0
        out.append((q, min(max(tie, 0.0), 1.0)))
    return out


@dataclass
class ProphetPipeline:
    """Relaxation point, thresholds and a bound scheme sampler for one run."""

    instance: ProphetInstance
    x: FractionalPoint
    relaxation_value: float
    thresholds: list[tuple[float, float]]
    sampler: SchemeSampler
    b: float

    def value(self, state, order: Sequence[int]) -> float:
        """Value of one greedy OCRS run over a trial state in ``order``.

        Asserts, under every order, that the selection is independent in the
        matroid and contains every active element whose selectable event
        held.
        """
        family, active, z = state
        selected = run_greedy_mask(family, order, active)
        if not self.instance.matroid.indep(selected):
            raise AssertionError("prophet selection violated the matroid")
        if family.selectable_mask(active) & active & ~selected:
            raise AssertionError("selectable active element was not selected")
        return ordered_sum(z[e] for e in iter_bits(selected))


def prepare_prophet(instance: ProphetInstance, factory: MatroidChainFactory,
                    seed: SeedSpec) -> ProphetPipeline:
    """Solve the relaxation and bind the scheme to the downscaled point.

    The scheme sees b*x, and trials keep each active element only with
    probability b, so a (b, c)-selectable scheme yields per-element
    selection probability at least b*c*x_e on the unscaled instance.
    Its chain family F_x is the direct sum of its layer views, so it is a
    matroid: a greedy run in any order selects a basis of F_x restricted
    to the active set, and ascending value order selects one of least
    value (`prophet_almighty_value`).
    """
    x, value = solve_prophet_relaxation(instance.matroid, instance.dists)
    sampler = factory.bind(scale_point(x, factory.b),
                           seed.stream(_DOMAIN_CONSTRUCT_OUT))
    return ProphetPipeline(instance=instance, x=x, relaxation_value=value,
                           thresholds=prophet_thresholds(instance, x),
                           sampler=sampler, b=factory.b)


def prophet_trial_states(pipeline: ProphetPipeline, trials: int,
                         seed: SeedSpec) -> list[tuple[FeasibleFamily, int, tuple[float, ...]]]:
    """Per-trial (family, active mask, values) for common random numbers.

    Per trial: a value quantile and a tie coin per element, a downsampling
    coin per element (kept below b), then the family draws.  Element e is
    active when its value beats its threshold, or ties it and the coin falls
    below the tie probability, and its downsampling coin keeps it.  Values
    are the distributions' own support floats.

    Each block is decoded with numpy, into every element's value index (a
    small unsigned int, compared with the threshold's index) and the active
    mask, and its trials are grouped by `group_rows` on (family
    code, active mask, value indices).  Each distinct state of the run (the
    same family object, active mask and values) is one ``(family, active,
    z)`` tuple, and every trial that has it holds a reference to that
    tuple, so the list costs one reference per trial and one tuple per
    distinct state.
    """
    dists = pipeline.instance.dists
    n = len(dists)
    supports = [d.support for d in dists]
    # each threshold q as support indices (supports ascend): a value beats q
    # iff its index is at least ``above``, and ties it iff its index is
    # ``at`` (-1 when q is no support value)
    above, at, tie = [], [], []
    for support, (q, p) in zip(supports, pipeline.thresholds):
        k = bisect.bisect_right(support, q)
        above.append([k])
        at.append([k - 1 if k and support[k - 1] == q else -1])
        tie.append([p])
    above, at, tie = np.array(above), np.array(at), np.array(tie)
    index_type = np.min_scalar_type(max(map(len, supports)) - 1)
    states: list[tuple[FeasibleFamily, int, tuple[float, ...]]] = []
    # each distinct state of the run, as its own key
    shared: dict[tuple, tuple[FeasibleFamily, int, tuple[float, ...]]] = {}
    for _start, (u, coins, kept, (codes, families)) in trial_columns(
            seed, _DOMAIN_TRIALS, trials,
            [n, n, np.full(n, pipeline.b), pipeline.sampler]):
        index = np.empty((n, len(u)), dtype=index_type)
        for e, d in enumerate(dists):
            index[e] = d.quantile_index(u[:, e])
        beats = (index >= above) | ((index == at) & (coins.T < tie))
        active = pack_mask_rows(beats.T) & kept
        first, inverse = group_rows([codes, active, *index])
        block = []
        for c, a, idx in zip(codes[first].tolist(), active[first].tolist(),
                             index[:, first].T.tolist()):
            state = (families[c], a, tuple(map(tuple.__getitem__, supports,
                                               idx)))
            block.append(shared.setdefault(state, state))
        states.extend(map(block.__getitem__, inverse.tolist()))
    return states


def prophet_state_key(state) -> tuple:
    """Everything a prophet run's value depends on: the family, the active
    mask and the values of the active elements (the selection is a subset
    of the active mask)."""
    family, active, z = state
    return (family.cache_key(), active,
            tuple(map(z.__getitem__, iter_bits(active))))


def prophet_value_under_order(pipeline: ProphetPipeline, states,
                              order: Sequence[int],
                              collect: Optional[list] = None, *,
                              trial_state: Optional[Sequence[int]] = None
                              ) -> MeanEstimate:
    """Mean value over trial states in one order; ``collect``, if given,
    receives every per-trial value in trial order.

    One run per distinct state; with ``trial_state``, ``states`` are already
    the distinct states of `group_states` and ``trial_state`` maps trials to
    them.  The moments are added by `MeanEstimate.from_blocks`, a
    ``TRIAL_BLOCK`` of trials at a time: the same left-to-right sums as
    `MeanEstimate.from_stream` over every trial.
    """
    if trial_state is None:
        states, trial_state = group_states(states, prophet_state_key)
    return MeanEstimate.from_blocks(
        _trial_blocks([pipeline.value(state, order) for state in states],
                      trial_state), collect)


def _trial_blocks(values: list, trial_state: Sequence[int]
                  ) -> Iterator[tuple[list, np.ndarray]]:
    """`MeanEstimate.from_blocks` blocks of the trials of `group_states`,
    ``TRIAL_BLOCK`` trials each: trial t has value
    ``values[trial_state[t]]``."""
    for lo in range(0, len(trial_state), TRIAL_BLOCK):
        yield values, np.asarray(trial_state[lo:lo + TRIAL_BLOCK],
                                 dtype=np.int64)


def prophet_worst_order(pipeline: ProphetPipeline, trials: int,
                        seed: SeedSpec, collect: Optional[list] = None
                        ) -> tuple[AdversarySearchResult, MeanEstimate]:
    """Worst fixed arrival order over common random numbers, by exhaustive
    search (at most 8 elements), plus its mean value.

    A run only looks at its active elements, so the search plays each
    distinct trial state once per order of its active set.
    """
    distinct, trial_state = group_states(
        prophet_trial_states(pipeline, trials, seed), prophet_state_key)
    result = worst_order_value(distinct.__getitem__, pipeline.value,
                               pipeline.instance.n, len(distinct),
                               trial_state=trial_state,
                               masks=[active for _f, active, _z in distinct])
    estimate = prophet_value_under_order(pipeline, distinct,
                                         result.worst_order, collect,
                                         trial_state=trial_state)
    return result, estimate


def prophet_almighty_value(pipeline: ProphetPipeline, trials: int,
                           seed: SeedSpec,
                           collect: Optional[list]) -> MeanEstimate:
    """Mean value against the almighty adversary, who sees every coin of a
    trial and then picks its arrival order; ``collect``, if given,
    receives every per-trial value in trial order.

    The chain family F_x is a matroid, so every order selects a basis of
    F_x restricted to the active set, every such basis is selected by some
    order (its elements first), and the matroid greedy in ascending value
    finds one of least value.  So each distinct state is played once, its
    active elements in ascending value (ties by index), and that play is
    the minimum over every order.  Two least-value bases can hold equal
    values at different elements, so the minimum is exact up to the order
    of a float sum.
    """
    distinct, trial_state = group_states(
        prophet_trial_states(pipeline, trials, seed), prophet_state_key)
    # sorted is stable and iter_bits ascends, so ties go by index
    values = [pipeline.value(state, sorted(iter_bits(state[1]),
                                           key=state[2].__getitem__))
              for state in distinct]
    log.info("almighty adversary: %d trials, %d distinct states, one "
             "ascending-value play each", len(trial_state), len(distinct))
    return MeanEstimate.from_blocks(_trial_blocks(values, trial_state),
                                    collect)


def brute_force_prophet_opt(instance: ProphetInstance) -> float:
    """Exact E[max-weight independent set] over the product distribution,
    of at most 10^6 joint outcomes."""
    scenarios = 1
    for d in instance.dists:
        scenarios *= len(d.support)
        if scenarios > 10 ** 6:
            raise ValueError("joint support too large to enumerate")
    n = instance.n
    total = 0.0
    stack = [(0, 1.0, [0.0] * n)]
    while stack:
        e, prob, values = stack.pop()
        if e == n:
            best = max_weight_independent(instance.matroid, values)
            total += prob * ordered_sum(values[g] for g in iter_bits(best))
            continue
        for v, pr in zip(instance.dists[e].support, instance.dists[e].probs):
            nxt = list(values)
            nxt[e] = v
            stack.append((e + 1, prob * pr, nxt))
    return total


# ---------------------------------------------------------------------------
# stochastic probing


@dataclass(frozen=True)
class ProbingInstance:
    """Activation probabilities, weights, inner/outer families, scale b."""

    p: tuple[float, ...]
    w: tuple[float, ...]
    inner: ConstraintSpec
    outer: ConstraintSpec
    b: float
    deadlines: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        n = len(self.p)
        if len(self.w) != n:
            raise ValueError("weights and probabilities must share the length")
        if self.inner.n != n or self.outer.n != n:
            raise ValueError("'p' must have one entry per element of 'inner' "
                             "and 'outer'")
        if any(not 0.0 <= v <= 1.0 for v in self.p):
            raise ValueError("activation probabilities 'p' must lie in [0, 1]")
        if any(not 0.0 <= v < math.inf for v in self.w):
            raise ValueError("weights 'w' must be finite and nonnegative")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("scale 'b' must lie in [0, 1]")
        if self.deadlines is not None:
            if len(self.deadlines) != n:
                raise ValueError("'deadlines' must hold one deadline per "
                                 "element")
            if any(not 1 <= d <= n for d in self.deadlines):
                raise ValueError("'deadlines' must lie in 1..n")

    @property
    def n(self) -> int:
        return len(self.p)


def deadline_matroid(deadlines: Sequence[int], n: int) -> LaminarMatroid:
    """Laminar matroid of deadline-respecting probe sets: at most d elements
    with deadline at most d, for every d."""
    sets = []
    caps = []
    for d in sorted(set(deadlines)):
        members = [e for e in range(n) if deadlines[e] <= d]
        if len(members) > d:
            sets.append(members)
            caps.append(d)
    if not sets:
        # vacuous constraints; a free matroid keeps the scheme machinery uniform
        sets = [list(range(n))]
        caps = [n]
    return LaminarMatroid(n, sets, caps)


@dataclass
class ProbingPipeline:
    instance: ProbingInstance
    lp: ProbingLpResult
    inner_sampler: SchemeSampler
    outer_sampler: SchemeSampler
    order: tuple[int, ...]
    bound: float
    bound_expr: str
    outer_point: FractionalPoint
    laminar: Optional[LaminarMatroid] = None
    inner_member: Callable[[int], bool] = field(init=False, repr=False)
    outer_member: Callable[[int], bool] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the deadline matroid is part of the outer family it was intersected
        # into, so the probed set is checked against both
        self.inner_member = self.instance.inner.indep
        outer = self.instance.outer.indep
        laminar = self.laminar
        self.outer_member = (outer if laminar is None else
                             lambda mask: outer(mask) and laminar.indep(mask))

    def value(self, state, order: Sequence[int]) -> float:
        """Weight of the selection of one probing run over a trial state."""
        _probed, selected = probe(order, *state, self.inner_member,
                                  self.outer_member, self.instance.deadlines)
        return ordered_sum(self.instance.w[e] for e in iter_bits(selected))


def prepare_probing(instance: ProbingInstance,
                    seed: SeedSpec) -> ProbingPipeline:
    """Solve the probing LP and bind inner/outer schemes per the algorithm.

    The outer scheme is bound to b*x*, the inner scheme to p o (b*x*).  With
    deadlines, the laminar deadline matroid is intersected into the outer
    scheme, its rank rows join the LP, the probe order becomes ascending
    deadlines (ties by index), and the guarantee picks up the extra (1-b).
    """
    b = instance.b
    n = instance.n
    inner_factory = default_factory(instance.inner, b)
    outer_factory = default_factory(instance.outer, b)
    order = range(n)
    laminar = None
    extra = None
    bound = b * inner_factory.bound() * outer_factory.bound()
    bound_expr = (f"b * ({inner_factory.bound_expr}) * "
                  f"({outer_factory.bound_expr})")
    if instance.deadlines is not None:
        laminar = deadline_matroid(instance.deadlines, n)
        extra = laminar
        deadline_factory = MatroidChainFactory(laminar, b)
        bound *= deadline_factory.bound()
        bound_expr = (f"b * (1-b) * ({inner_factory.bound_expr}) * "
                      f"({outer_factory.bound_expr})")
        outer_factory = IntersectionFactory([outer_factory, deadline_factory])
        order = sorted(range(n), key=lambda e: (instance.deadlines[e], e))
    lp = solve_probing_lp(instance.p, instance.w, instance.inner,
                          instance.outer, extra_outer=extra)
    outer_point = scale_point(lp.x, b)
    inner_point = FractionalPoint(np.asarray(instance.p) * outer_point.values)
    inner_sampler = inner_factory.bind(inner_point,
                                       seed.stream(_DOMAIN_CONSTRUCT_IN))
    outer_sampler = outer_factory.bind(outer_point,
                                       seed.stream(_DOMAIN_CONSTRUCT_OUT))
    return ProbingPipeline(instance=instance, lp=lp,
                           inner_sampler=inner_sampler,
                           outer_sampler=outer_sampler,
                           order=tuple(order), bound=bound,
                           bound_expr=bound_expr, outer_point=outer_point,
                           laminar=laminar)


def probe(order: Sequence[int], a_out: int, act: int, fam_in: FeasibleFamily,
          fam_out: FeasibleFamily, inner_member: Callable[[int], bool],
          outer_member: Callable[[int], bool],
          deadlines: Optional[Sequence[int]] = None) -> tuple[int, int]:
    """One oblivious probing run; returns the (probed Q, selected S) masks.

    Scanning ``order``, an element of A_out is probed iff adding it keeps Q
    in the outer family and S in the inner family, and selected iff it is
    also active.  Asserts S = Q & active, S feasible for the inner
    constraint, Q feasible for the outer one and, with deadlines, that the
    k-th probe has deadline at least k.
    """
    probed = 0
    selected = 0
    position = 0
    for e in order:
        bit = 1 << e
        if (a_out & bit and fam_in.member(selected | bit)
                and fam_out.member(probed | bit)):
            probed |= bit
            position += 1
            if deadlines is not None and position > deadlines[e]:
                raise AssertionError(
                    f"element {e} probed at position {position} past its "
                    f"deadline {deadlines[e]}")
            if act & bit:
                selected |= bit
    if selected != probed & act & a_out:
        raise AssertionError("selected set must be the active probed elements")
    if not inner_member(selected):
        raise AssertionError("selection violated the inner family")
    if not outer_member(probed):
        raise AssertionError("probes violated the outer family")
    return probed, selected


def probing_trial_states(pipeline: ProbingPipeline, trials: int,
                         seed: SeedSpec) -> Iterator[tuple[int, int, FeasibleFamily, FeasibleFamily]]:
    """Per-trial (A_out, active, inner family, outer family), in trial order.

    A_out is drawn from R(b*x*), the active set from R(p), then the inner
    and outer families.
    """
    for _start, columns in _probing_blocks(pipeline, trials, seed):
        yield from block_states(columns)


def _probing_blocks(pipeline: ProbingPipeline, trials: int, seed: SeedSpec
                    ) -> Iterator[tuple[int, list]]:
    return trial_columns(seed, _DOMAIN_TRIALS, trials,
                         [pipeline.outer_point.values, pipeline.instance.p,
                          pipeline.inner_sampler, pipeline.outer_sampler])


def probing_mean_value(pipeline: ProbingPipeline, trials: int, seed: SeedSpec,
                       collect: Optional[list] = None) -> MeanEstimate:
    """Mean probing value over seeded trials in the pipeline's probe order,
    one run per distinct state of each trial block.

    ``collect``, if given, receives every per-trial value in trial order.
    """
    return MeanEstimate.from_blocks(
        grouped_values(_probing_blocks(pipeline, trials, seed),
                       probing_block_key, pipeline.value, pipeline.order),
        collect)


def probing_block_key(columns) -> list[np.ndarray]:
    """Everything a probing run's value depends on, as key columns of a
    `_probing_blocks` block: A_out, the active elements inside it and both
    family codes (only elements of A_out are probed)."""
    a_out, act, (codes_in, _), (codes_out, _) = columns
    return [a_out, act & a_out, codes_in, codes_out]


@dataclass(frozen=True)
class RatioReport:
    """Mean value relative to a benchmark, with the bound being tested."""

    ratio: float
    ci_halfwidth: float
    mean: float
    benchmark: float
    bound: float
    bound_expr: str
    trials: int

    def passes(self) -> bool:
        return self.ratio + 3 * self.ci_halfwidth >= self.bound - 1e-15


def estimate_competitive_ratio(estimate: MeanEstimate, benchmark: float,
                               bound: float, bound_expr: str) -> RatioReport:
    """Ratio of the estimated mean to a benchmark value.

    A zero benchmark with a zero mean reports ratio 1 (nothing was lost);
    a zero benchmark with positive mean is infinity.
    """
    if benchmark == 0.0:
        ratio = 1.0 if estimate.mean == 0.0 else float("inf")
        ci = 0.0
    else:
        ratio = estimate.mean / benchmark
        ci = estimate.halfwidth / benchmark
    return RatioReport(ratio=ratio, ci_halfwidth=ci, mean=estimate.mean,
                       benchmark=benchmark, bound=bound,
                       bound_expr=bound_expr, trials=estimate.trials)
