"""Prophet and probing pipelines: thresholds, feasibility, ratio bounds."""

import functools
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocrs.core import (TRIAL_BLOCK, FractionalPoint, SeedSpec, iter_bits,
                       num_blocks, ordered_sum, uniform_blocks)
from ocrs.applications import (ProbingInstance, ProphetInstance,
                               brute_force_prophet_opt, deadline_matroid,
                               estimate_competitive_ratio, prepare_probing,
                               prepare_prophet, probe, probing_mean_value,
                               probing_trial_states, prophet_almighty_value,
                               prophet_state_key, prophet_thresholds,
                               prophet_trial_states, prophet_value_under_order,
                               prophet_worst_order)
from ocrs import core, harness
from ocrs.harness import (MeanEstimate, _sum_after, group_states,
                          worst_order_value)
from ocrs.matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from ocrs.optimize import DiscreteDistribution, KnapsackConstraint
from ocrs.schemes import FeasibleFamily, MatroidChainFactory, run_greedy_mask

SEED = SeedSpec(202)


def _dist(support, probs):
    return DiscreteDistribution(support, probs)


def classic_instance():
    return ProphetInstance(UniformMatroid(2, 1),
                           (_dist([1], [1.0]), _dist([0, 100], [0.99, 0.01])))


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_examples():
    inst = ProphetInstance(UniformMatroid(1, 1), (_dist([1, 10], [0.8, 0.2]),))
    q, tie = prophet_thresholds(inst, FractionalPoint([0.5]))[0]
    assert q == 1 and tie == pytest.approx(0.375)
    q, tie = prophet_thresholds(inst, FractionalPoint([1.0]))[0]
    assert q == 1 and tie == pytest.approx(1.0)
    q, tie = prophet_thresholds(inst, FractionalPoint([0.0]))[0]
    assert tie == 0.0 and q == 10


def test_threshold_activation_probability_exact():
    # P(Z > q) + P(Z = q) * tie equals x for every x on a grid
    d = _dist([0.5, 2, 7, 9], [0.3, 0.3, 0.2, 0.2])
    inst = ProphetInstance(UniformMatroid(1, 1), (d,))
    for xv in np.linspace(0, 1, 41):
        q, tie = prophet_thresholds(inst, FractionalPoint([float(xv)]))[0]
        above = sum(p for v, p in zip(d.support, d.probs) if v > q)
        atom = d.prob_of(q)
        assert above + atom * tie == pytest.approx(xv, abs=1e-12)


def test_activation_marginals_monte_carlo():
    inst = classic_instance()
    factory = MatroidChainFactory(inst.matroid, 0.5)
    pipeline = prepare_prophet(inst, factory, SEED)
    states = prophet_trial_states(pipeline, 50_000, SEED)
    # downsampled activation: b * x_e
    freq = np.zeros(2)
    for _fam, active, _z in states:
        for e in iter_bits(active):
            freq[e] += 1
    freq /= len(states)
    for e in range(2):
        target = 0.5 * pipeline.x[e]
        assert abs(freq[e] - target) <= 4 * math.sqrt(max(target, 1e-4) / 50_000) + 1e-3


def _check_trial_states_match_per_trial_reference(dists):
    """The block-wise decode equals a per-element loop over each uniform
    row (value quantile, tie coin and downsampling coin per element), and
    the values are the distributions' own support floats; returns the
    pipeline."""
    from ocrs.applications import _DOMAIN_TRIALS

    inst = ProphetInstance(UniformMatroid(3, 1), dists)
    pipeline = prepare_prophet(inst, MatroidChainFactory(inst.matroid, 0.5),
                               SEED)
    assert pipeline.sampler.draw_count == 0
    assert any(0.0 < tie < 1.0 for _q, tie in pipeline.thresholds)
    trials = TRIAL_BLOCK + 50
    states = prophet_trial_states(pipeline, trials, SEED)
    rows = np.concatenate([block.copy() for _start, block in uniform_blocks(
        SEED, _DOMAIN_TRIALS, trials, 9)])
    assert len(states) == trials
    for (_family, active, z), row in zip(states, rows):
        expect_z = [d.quantile(row[e]) for e, d in enumerate(dists)]
        expect = 0
        for e, (q, tie) in enumerate(pipeline.thresholds):
            beats = expect_z[e] > q or (expect_z[e] == q and row[3 + e] < tie)
            if beats and row[6 + e] < 0.5:
                expect |= 1 << e
        assert active == expect
        assert all(v is w for v, w in zip(z, expect_z))
    return pipeline


def test_prophet_trial_states_match_per_trial_reference():
    _check_trial_states_match_per_trial_reference((
        _dist([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]),
        _dist([1.0, 3.0], [0.6, 0.4]), _dist([0.5, 4.0], [0.9, 0.1])))


def test_prophet_trial_states_match_reference_on_wide_supports():
    """300 atoms take two-byte value indices and one atom a single value;
    a tie coin far from 0 and 1 makes ties decide some trials (the tie
    coins of the other reference case are 0 or within 1e-15 of 0)."""
    pipeline = _check_trial_states_match_per_trial_reference((
        _dist([0.5 * i for i in range(300)], [1 / 300] * 300),
        _dist([2.0], [1.0]), _dist([1.0, 3.0], [0.6, 0.4])))
    assert any(0.01 < tie < 0.99 for _q, tie in pipeline.thresholds)


# ---------------------------------------------------------------------------
# prophet runs


def test_run_prophet_zero_values():
    inst = ProphetInstance(UniformMatroid(2, 1),
                           (_dist([0], [1.0]), _dist([0], [1.0])))
    factory = MatroidChainFactory(inst.matroid, 0.5)
    pipeline = prepare_prophet(inst, factory, SEED)
    for state in prophet_trial_states(pipeline, 50, SEED.child(5)):
        for order in ((0, 1), (1, 0)):
            assert pipeline.value(state, order) == 0.0


def test_run_prophet_single_element_mean():
    d = _dist([1, 3], [0.5, 0.5])
    inst = ProphetInstance(UniformMatroid(1, 1), (d,))
    factory = MatroidChainFactory(inst.matroid, 1.0)
    pipeline = prepare_prophet(inst, factory, SEED)
    states = prophet_trial_states(pipeline, 50_000, SEED)
    est = prophet_value_under_order(pipeline, states, (0,))
    assert abs(est.mean - d.expectation()) <= 3 * est.halfwidth + 1e-9


def test_prophet_feasibility_asserted():
    inst = classic_instance()
    factory = MatroidChainFactory(inst.matroid, 0.5)
    pipeline = prepare_prophet(inst, factory, SEED)
    for family, active, z in prophet_trial_states(pipeline, 200,
                                                  SEED.child(6)):
        selected = run_greedy_mask(family, [1, 0], active)
        assert inst.matroid.indep(selected)
        assert bin(selected).count("1") <= 1
        value = pipeline.value((family, active, z), [1, 0])
        assert value == sum(z[e] for e in iter_bits(selected))


class _Family(FeasibleFamily):
    """A family given by its membership test that claims ``claimed``
    selectable whatever the active set."""

    def __init__(self, member, claimed):
        self.n = 2
        self.member = member
        self.claimed = claimed

    def selectable_mask(self, active_mask):
        return self.claimed


def test_prophet_value_asserts_under_every_order():
    inst = classic_instance()
    pipeline = prepare_prophet(inst, MatroidChainFactory(inst.matroid, 0.5),
                               SEED)
    z = [1.0, 2.0]
    # a family admitting both active elements breaks U(2, 1)
    with pytest.raises(AssertionError, match="matroid"):
        pipeline.value((_Family(lambda m: True, 0), 0b11, z), (0, 1))

    def only_first(mask):
        return mask in (0, 0b01)

    # a selectable claim on an inactive element is harmless
    assert pipeline.value((_Family(only_first, 0b10), 0b01, z), (1, 0)) == 1.0
    # an active element claimed selectable but left out is caught in every
    # order
    for order in ((0, 1), (1, 0)):
        with pytest.raises(AssertionError, match="selectable"):
            pipeline.value((_Family(only_first, 0b10), 0b11, z), order)


def test_prophet_worst_order_ratio_bound():
    inst = classic_instance()
    factory = MatroidChainFactory(inst.matroid, 0.5)
    pipeline = prepare_prophet(inst, factory, SEED)
    benchmark = brute_force_prophet_opt(inst)
    result, est = prophet_worst_order(pipeline, 40_000, SEED)
    ratio = est.mean / benchmark
    assert ratio >= 0.25 - 3 * est.halfwidth / benchmark
    assert len(result.values_by_order) == 2


# ---------------------------------------------------------------------------
# the offline benchmark


def test_brute_force_prophet_deterministic():
    inst = ProphetInstance(UniformMatroid(2, 1),
                           (_dist([2], [1.0]), _dist([5], [1.0])))
    assert brute_force_prophet_opt(inst) == pytest.approx(5.0)


def test_brute_force_prophet_classic():
    assert brute_force_prophet_opt(classic_instance()) == pytest.approx(1.99)


def test_brute_force_prophet_matches_hand_enumeration():
    dists = (_dist([1, 4], [0.5, 0.5]), _dist([2, 3], [0.25, 0.75]),
             _dist([0, 6], [0.9, 0.1]))
    m = UniformMatroid(3, 2)
    inst = ProphetInstance(m, dists)
    # independent 8-scenario enumeration: best pair sum per scenario
    expect = 0.0
    for vals_probs in itertools.product(*[list(zip(d.support, d.probs))
                                          for d in dists]):
        vals = [v for v, _ in vals_probs]
        prob = math.prod(p for _, p in vals_probs)
        best = max(vals[i] + vals[j]
                   for i in range(3) for j in range(3) if i != j)
        expect += prob * best
    assert brute_force_prophet_opt(inst) == pytest.approx(expect)


def test_brute_force_prophet_guards_support_size():
    big = _dist(list(range(200)), [1 / 200] * 200)
    inst = ProphetInstance(UniformMatroid(3, 1), (big, big, big))
    with pytest.raises(ValueError):
        brute_force_prophet_opt(inst)


# ---------------------------------------------------------------------------
# competitive ratio plumbing


def test_ratio_report_conventions():
    est = MeanEstimate(mean=2.0, halfwidth=0.1, trials=100)
    rep = estimate_competitive_ratio(est, 2.0, 0.9, "c")
    assert rep.ratio == pytest.approx(1.0)
    assert rep.passes()
    zero = MeanEstimate(mean=0.0, halfwidth=0.0, trials=100)
    rep = estimate_competitive_ratio(zero, 0.0, 0.25, "c")
    assert rep.ratio == 1.0 and rep.passes()


# ---------------------------------------------------------------------------
# probing


def _probe(pipeline, state, order=None):
    return probe(pipeline.order if order is None else order, *state,
                 pipeline.inner_member, pipeline.outer_member,
                 pipeline.instance.deadlines)


def test_probing_zero_probability_selects_nothing():
    inst = ProbingInstance(p=(0.0, 0.0), w=(3.0, 2.0),
                           inner=UniformMatroid(2, 1),
                           outer=UniformMatroid(2, 2), b=0.5)
    pipeline = prepare_probing(inst, SEED)
    for state in probing_trial_states(pipeline, 100, SEED.child(7)):
        _q, s = _probe(pipeline, state)
        assert s == 0 and pipeline.value(state, pipeline.order) == 0.0


def test_probing_single_element_closed_form():
    inst = ProbingInstance(p=(1.0,), w=(1.0,), inner=UniformMatroid(1, 1),
                           outer=UniformMatroid(1, 1), b=0.5)
    pipeline = prepare_probing(inst, SEED)
    assert pipeline.lp.value == pytest.approx(1.0)
    est = probing_mean_value(pipeline, 50_000, SEED)
    # the sole element is probed exactly when it lands in R(b x*)
    assert abs(est.mean - 0.5) <= 3 * est.halfwidth
    assert est.mean >= pipeline.bound - 3 * est.halfwidth


def test_probing_activation_marginals():
    # the trial states draw A_out against b*x* and activity against p;
    # check the empirical marginals
    inst = ProbingInstance(p=(0.9, 0.6, 0.8), w=(3.0, 2.0, 1.0),
                           inner=UniformMatroid(3, 1),
                           outer=UniformMatroid(3, 2), b=0.5)
    pipeline = prepare_probing(inst, SEED)
    trials = 50_000
    n = inst.n
    out_freq = np.zeros(n)
    act_freq = np.zeros(n)
    for a_out, act, _fin, _fout in probing_trial_states(pipeline, trials,
                                                        SEED):
        for e in iter_bits(a_out):
            out_freq[e] += 1
        for e in iter_bits(act):
            act_freq[e] += 1
    out_freq /= trials
    act_freq /= trials
    for e in range(n):
        target = 0.5 * pipeline.lp.x[e]
        assert abs(out_freq[e] - target) <= 4 * math.sqrt(0.25 / trials)
        assert abs(act_freq[e] - inst.p[e]) <= 4 * math.sqrt(0.25 / trials)


def test_probing_ratio_bounds_small_instances():
    fixtures = [
        ProbingInstance(p=(0.9, 0.6, 0.8), w=(3.0, 2.0, 1.0),
                        inner=UniformMatroid(3, 1),
                        outer=UniformMatroid(3, 2), b=0.5),
        ProbingInstance(p=(0.7, 0.5, 0.9), w=(1.0, 2.0, 1.5),
                        inner=UniformMatroid(3, 2),
                        outer=KnapsackConstraint((0.5, 0.25, 0.25)), b=0.25),
    ]
    for inst in fixtures:
        pipeline = prepare_probing(inst, SEED)
        est = probing_mean_value(pipeline, 100_000, SEED)
        report = estimate_competitive_ratio(est, pipeline.lp.value,
                                            pipeline.bound,
                                            pipeline.bound_expr)
        assert report.passes(), (inst, report)


# ---------------------------------------------------------------------------
# worst-order search over distinct trial states


def _literal_search(states, value, n):
    """The order search as a literal loop over every trial and order (the
    reference the grouped search must reproduce bit for bit), each mean
    added left to right."""
    values = {}
    for perm in itertools.permutations(range(n)):
        values[perm] = (ordered_sum(value(state, perm) for state in states)
                        / len(states))
    return min(values, key=lambda p: (values[p], p)), values


def _first_and_last(state, order):
    """A value that depends on the order of the state's mask alone: twice
    the value of its first element in ``order`` plus that of its last."""
    mask, z = state
    inside = [e for e in order if mask >> e & 1]
    return 2.0 * z[inside[0]] + z[inside[-1]] if inside else 0.0


_SUM_VALUES = st.one_of(st.floats(-1e300, 1e300),
                        st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16, 1e308,
                                         math.inf, -math.inf]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4),
       chunk_bytes=st.sampled_from([8, 24, 40, 1 << 18]),
       table_bytes=st.sampled_from([8, 64, 1 << 20]), masked=st.booleans())
def test_order_sums_equal_per_order_sums_and_literal_search(
        data, n, chunk_bytes, table_bytes, masked):
    """Every order's mean is the left-to-right sum over the trials, bit for
    bit (inf and nan included), whatever the chunk of trial rows and the
    band of orders, also at one order and at trial counts that are no
    multiple of the chunk."""
    distinct = data.draw(st.lists(
        st.tuples(st.integers(0, (1 << n) - 1),
                  st.tuples(*[_SUM_VALUES] * n)),
        min_size=1, max_size=6))
    trial_state = data.draw(st.lists(st.integers(0, len(distinct) - 1),
                                     min_size=1, max_size=40))
    with mock.patch.object(harness, "_SUM_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(harness, "TABLE_BYTES", table_bytes):
        result = worst_order_value(
            distinct.__getitem__, _first_and_last, n, len(distinct),
            trial_state=trial_state,
            masks=[mask for mask, _z in distinct] if masked else None)
    states = [distinct[i] for i in trial_state]
    worst, literal = _literal_search(states, _first_and_last, n)
    per_order = {order: _sum_after(0.0, np.array(
        [_first_and_last(state, order) for state in states]))
        / len(states) for order in literal}
    got = {order: repr(v) for order, v in result.values_by_order.items()}
    assert got == {order: repr(v) for order, v in literal.items()}
    assert got == {order: repr(v) for order, v in per_order.items()}
    assert list(result.values_by_order) == list(literal)
    assert result.worst_order == worst


def _prophet4(matroid):
    inst = ProphetInstance(matroid, (
        _dist([0.0, 1.5, 4.0], [0.6, 0.3, 0.1]),
        _dist([0.0, 2.0], [0.7, 0.3]),
        _dist([0.0, 1.0, 3.5], [0.5, 0.3, 0.2]),
        _dist([0.5, 5.0], [0.8, 0.2])))
    return prepare_prophet(inst, MatroidChainFactory(matroid, 0.5), SEED)


def _prophet_u42():
    return _prophet4(UniformMatroid(4, 2))


@functools.lru_cache(maxsize=1)
def _prophet_partition():
    return _prophet4(PartitionMatroid([[0, 2], [1, 3]], [1, 1]))


def test_grouped_prophet_search_matches_per_trial_loop():
    pipeline = _prophet_u42()
    trials = 1500
    states = prophet_trial_states(pipeline, trials, SEED)
    distinct, _ = group_states(states, prophet_state_key)
    assert len(distinct) < trials / 4
    worst, values = _literal_search(states, pipeline.value, 4)
    expected_collect = []
    expected = MeanEstimate.from_stream(
        (pipeline.value(state, worst) for state in states), expected_collect)
    collect = []
    result, estimate = prophet_worst_order(pipeline, trials, SEED,
                                           collect=collect)
    assert result.values_by_order == values
    assert result.worst_order == worst
    assert estimate == expected
    assert collect == expected_collect


@functools.lru_cache(maxsize=1)
def _probing_knapsack4():
    inst = ProbingInstance(p=(0.9, 0.6, 0.8, 0.5), w=(3.0, 2.0, 10.0, 2.5),
                           inner=UniformMatroid(4, 2),
                           outer=KnapsackConstraint((0.5, 0.25, 0.6, 0.3)),
                           b=0.5)
    return prepare_probing(inst, SEED)


@functools.lru_cache(maxsize=1)
def _probing_knapsack4_states():
    return list(probing_trial_states(_probing_knapsack4(), 300, SEED))


@functools.lru_cache(maxsize=1)
def _probing_deadlines4():
    inst = ProbingInstance(p=(0.9, 0.6, 0.8, 0.5), w=(3.0, 2.0, 10.0, 2.5),
                           inner=UniformMatroid(4, 2),
                           outer=UniformMatroid(4, 3), b=0.5,
                           deadlines=(2, 1, 3, 2))
    return prepare_probing(inst, SEED)


@functools.lru_cache(maxsize=1)
def _probing_deadlines4_states():
    return list(probing_trial_states(_probing_deadlines4(), 300, SEED))


def _counting(pipeline):
    """Wrap ``pipeline.value`` in a call counter; returns the counter."""
    calls = Counter()
    value = pipeline.value

    def counting(state, order):
        calls["value"] += 1
        return value(state, order)

    pipeline.value = counting
    return calls


def test_search_calls_trial_value_once_per_order_and_state():
    """Once per distinct state and order of its active elements: a state
    with k active elements is played k! times, not 4! times."""
    pipeline = _prophet_u42()
    trials = 1000
    distinct, _ = group_states(prophet_trial_states(pipeline, trials, SEED),
                               prophet_state_key)
    calls = _counting(pipeline)
    prophet_worst_order(pipeline, trials, SEED)
    searched = sum(math.factorial(active.bit_count())
                   for _family, active, _z in distinct)
    assert searched < 24 * len(distinct)
    # then the worst order once more for the report
    assert calls["value"] == searched + len(distinct)


def _prophet_peak_bytes(pipeline, trials: int) -> int:
    tracemalloc.start()
    try:
        prophet_worst_order(pipeline, trials, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prophet_worst_order_memory_grows_by_a_reference_per_trial():
    """Trials share one tuple per distinct state, and the order sums and
    the mean take bounded chunks of trials, so quadrupling the trial count
    adds little more than the per-trial lists of references and indices
    (each trial still holds one of each until the search is keyed by
    blocks)."""
    pipeline = _prophet_u42()
    growth = (_prophet_peak_bytes(pipeline, 65_536)
              - _prophet_peak_bytes(pipeline, 16_384))
    assert growth < 2 ** 20, growth


# ---------------------------------------------------------------------------
# the almighty adversary, who picks each trial's order after its coins


def _literal_minimum(pipeline, state):
    """The almighty adversary's value of one state, literally: the least
    value of a run over every order of its active elements."""
    return min(pipeline.value(state, order)
               for order in itertools.permutations(iter_bits(state[1])))


_PROPHET_VALUES = st.sampled_from([0.0, 1.0, 1.5, 2.5, 4.0])
_PROBS = {1: [(1.0,)], 2: [(0.5, 0.5), (0.25, 0.75)],
          3: [(0.5, 0.25, 0.25), (0.25, 0.5, 0.25)]}


@st.composite
def _prophet_chains(draw):
    """Prophet pipelines on uniform, partition and graphic chains of at
    most 5 elements, with supports that share values across elements."""
    kind = draw(st.sampled_from(["uniform", "partition", "graphic"]))
    if kind == "uniform":
        n = draw(st.integers(1, 5))
        matroid = UniformMatroid(n, draw(st.integers(1, n)))
    elif kind == "partition":
        n = draw(st.integers(2, 5))
        cut = draw(st.integers(1, n - 1))
        matroid = PartitionMatroid(
            [range(cut), range(cut, n)],
            [draw(st.integers(1, cut)), draw(st.integers(1, n - cut))])
    else:
        edges = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                              min_size=1, max_size=5))
        matroid = GraphicMatroid(4, edges)
    dists = []
    for _ in range(matroid.n):
        support = draw(st.lists(_PROPHET_VALUES, min_size=1, max_size=3,
                                unique=True).map(sorted))
        dists.append(_dist(support,
                           draw(st.sampled_from(_PROBS[len(support)]))))
    b = draw(st.sampled_from([0.5, 0.8]))
    return prepare_prophet(ProphetInstance(matroid, tuple(dists)),
                           MatroidChainFactory(matroid, b),
                           SeedSpec(draw(st.integers(0, 2 ** 32))))


@settings(max_examples=40, deadline=None)
@given(pipeline=_prophet_chains(), seed=st.integers(0, 2 ** 32))
def test_almighty_play_is_the_minimum_over_every_order(pipeline, seed):
    """Each trial's value is its state's least value over every order of
    its active set; two least-value bases can hold equal values at
    different elements, so their index-order sums may differ in the last
    bits."""
    collect = []
    estimate = prophet_almighty_value(pipeline, 300, SeedSpec(seed), collect)
    states = prophet_trial_states(pipeline, 300, SeedSpec(seed))
    assert len(collect) == len(states)
    minima = {}
    for state, got in zip(states, collect):
        key = prophet_state_key(state)
        if key not in minima:
            minima[key] = _literal_minimum(pipeline, state)
        assert math.isclose(got, minima[key], rel_tol=1e-12), (state, got)
    assert estimate == MeanEstimate.from_stream(collect)


@pytest.mark.parametrize("pipeline", [_prophet_u42, _prophet_partition],
                         ids=["u42", "partition"])
def test_almighty_mean_at_most_worst_fixed_order(pipeline):
    pipeline = pipeline()
    _result, worst = prophet_worst_order(pipeline, 4000, SEED)
    almighty = prophet_almighty_value(pipeline, 4000, SEED, None)
    assert almighty.mean <= worst.mean
    assert almighty.trials == worst.trials == 4000


def test_almighty_plays_each_distinct_state_once():
    pipeline = _prophet_u42()
    distinct, _ = group_states(prophet_trial_states(pipeline, 1000, SEED),
                               prophet_state_key)
    calls = _counting(pipeline)
    prophet_almighty_value(pipeline, 1000, SEED, None)
    assert calls["value"] == len(distinct)


def _same_restriction(order, mask, other):
    """``other`` with the elements of ``mask`` put in their order in
    ``order``: a second order whose restriction to ``mask`` equals
    ``order``'s."""
    inside = iter([e for e in order if mask >> e & 1])
    return tuple(next(inside) if mask >> e & 1 else e for e in other)


def _outcome(value, state, order):
    """A run's value, or the message of the assertion it raised."""
    try:
        return value(state, order)
    except AssertionError as exc:
        return repr(exc)


_VALUES = st.sampled_from([0.0, 0.5, 1.5, 4.0])


def per_trial_values(trial_value, distinct, trial_state, order):
    """Values of every trial in trial order, from one ``trial_value`` call
    per distinct state: the oracle of the grouped means."""
    values = [trial_value(state, order) for state in distinct]
    return map(values.__getitem__, trial_state)


@settings(max_examples=60, deadline=None)
@given(states=st.lists(st.tuples(st.integers(0, 15),
                                 st.tuples(_VALUES, _VALUES, _VALUES,
                                           _VALUES)),
                       min_size=1, max_size=60),
       order=st.permutations(range(4)))
def test_grouping_then_expanding_gives_per_trial_values(states, order):
    # a partition matroid, so that which elements are active matters beyond
    # their values
    pipeline = _prophet_partition()
    family = pipeline.sampler.sample()
    states = [(family, active, z) for active, z in states]
    distinct, trial_state = group_states(states, prophet_state_key)
    assert [states[trial_state.index(i)] for i in range(len(distinct))] \
        == distinct
    assert (list(per_trial_values(pipeline.value, distinct, trial_state,
                                  order))
            == [pipeline.value(state, order) for state in states])


_ORDERS4 = st.permutations(range(4))


@settings(max_examples=80, deadline=None)
@given(active=st.integers(0, 15),
       z=st.tuples(_VALUES, _VALUES, _VALUES, _VALUES),
       order=_ORDERS4, other=_ORDERS4)
def test_prophet_value_depends_only_on_the_order_of_active_elements(
        active, z, order, other):
    # a partition matroid, so that which active elements come first matters
    pipeline = _prophet_partition()
    state = (pipeline.sampler.sample(), active, z)
    assert (pipeline.value(state, order)
            == pipeline.value(state, _same_restriction(order, active, other)))


@settings(max_examples=80, deadline=None)
@given(trial=st.integers(0, 299), a_out=st.integers(0, 15),
       act=st.integers(0, 15), order=_ORDERS4, other=_ORDERS4)
def test_probing_value_depends_only_on_the_order_of_a_out(trial, a_out, act,
                                                          order, other):
    # a knapsack outer scheme, so that the families differ between trials
    pipeline = _probing_knapsack4()
    _a_out, _act, fam_in, fam_out = _probing_knapsack4_states()[trial]
    state = (a_out, act, fam_in, fam_out)
    assert (pipeline.value(state, order)
            == pipeline.value(state, _same_restriction(order, a_out, other)))


@settings(max_examples=80, deadline=None)
@given(trial=st.integers(0, 299), a_out=st.integers(0, 15),
       act=st.integers(0, 15), order=_ORDERS4, other=_ORDERS4)
def test_probe_with_deadlines_depends_only_on_the_order_of_a_out(
        trial, a_out, act, order, other):
    # a run in an order that is not by deadline may probe an element past
    # its deadline; then both orders raise the same assertion
    pipeline = _probing_deadlines4()
    _a_out, _act, fam_in, fam_out = _probing_deadlines4_states()[trial]
    state = (a_out, act, fam_in, fam_out)
    assert (_outcome(pipeline.value, state, order)
            == _outcome(pipeline.value, state,
                        _same_restriction(order, a_out, other)))


# ---------------------------------------------------------------------------
# the probing mean loop, one run per distinct state of each trial block


def _literal_probing_mean(pipeline, trials, seed, collect):
    """The mean loop as a literal loop over every trial (the reference the
    grouped loop must reproduce bit for bit)."""
    return MeanEstimate.from_stream(
        (pipeline.value(state, pipeline.order)
         for state in probing_trial_states(pipeline, trials, seed)), collect)


_SIZES = st.sampled_from([0.125, 0.25, 0.3, 0.5, 0.75, 1.0])


@st.composite
def _probing_pipelines(draw):
    n = draw(st.integers(1, 5))

    def constraint():
        if draw(st.booleans()):
            return UniformMatroid(n, draw(st.integers(0, n)))
        # a knapsack scheme draws a family per trial, so the family must
        # be part of the key
        return KnapsackConstraint(tuple(draw(st.lists(_SIZES, min_size=n,
                                                      max_size=n))))

    inst = ProbingInstance(
        p=tuple(draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
                              min_size=n, max_size=n))),
        w=tuple(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.25]),
                              min_size=n, max_size=n))),
        inner=constraint(), outer=constraint(),
        b=draw(st.sampled_from([0.25, 0.5])),
        # with deadlines the outer family is an intersection
        deadlines=draw(st.none() | st.lists(st.integers(1, n), min_size=n,
                                             max_size=n).map(tuple)))
    return prepare_probing(inst, SeedSpec(draw(st.integers(0, 2 ** 32))))


@settings(max_examples=40, deadline=None)
@given(pipeline=_probing_pipelines(), trials=st.integers(1, 3 * TRIAL_BLOCK),
       seed=st.integers(0, 2 ** 32))
def test_grouped_probing_mean_matches_per_trial_loop(pipeline, trials, seed):
    expected_collect, collect = [], []
    expected = _literal_probing_mean(pipeline, trials, SeedSpec(seed),
                                     expected_collect)
    assert (probing_mean_value(pipeline, trials, SeedSpec(seed), collect)
            == expected)
    assert collect == expected_collect


# probing-u6 of the benchmark at seed 0
_PROBING_U6 = ProbingInstance(
    p=(0.55, 0.32, 0.57, 0.33, 0.42, 0.47),
    w=(3.22, 8.83, 2.77, 7.78, 5.88, 9.68),
    inner=UniformMatroid(6, 2), outer=UniformMatroid(6, 3), b=0.5)


def probing_state_key(state) -> tuple:
    """Everything a probing run's value depends on, as a tuple: A_out, the
    active elements inside it and both families (only elements of A_out
    are probed).  The oracle of `probing_block_key`."""
    a_out, act, fam_in, fam_out = state
    return (a_out, act & a_out, fam_in.cache_key(), fam_out.cache_key())


def test_probing_mean_runs_once_per_distinct_state_of_each_block():
    seed = SeedSpec(0)
    pipeline = prepare_probing(_PROBING_U6, seed)
    trials = 300_000
    calls = 0
    value = pipeline.value

    def counting(state, order):
        nonlocal calls
        calls += 1
        return value(state, order)

    pipeline.value = counting
    probing_mean_value(pipeline, trials, seed)
    states = probing_trial_states(pipeline, trials, seed)
    per_block = [len(group_states(itertools.islice(states, TRIAL_BLOCK),
                                  probing_state_key)[0])
                 for _ in range(num_blocks(trials))]
    assert per_block == [27] * 37
    assert calls == sum(per_block) == 999


def test_probing_blocks_group_without_a_sort(monkeypatch):
    """A probing-u6 block's key (A_out, its active elements and two family
    codes) spans at most 2^12 values, fewer than the block has trials, so
    every block of the 300,000-trial run, its 5,088-trial tail too, is
    grouped by tables, with no `_dense_rank` sort."""
    seed = SeedSpec(0)
    pipeline = prepare_probing(_PROBING_U6, seed)
    sorts = []
    dense_rank = core._dense_rank
    monkeypatch.setattr(core, "_dense_rank",
                        lambda column: sorts.append(column.size)
                        or dense_rank(column))
    estimate = probing_mean_value(pipeline, 300_000, seed)
    assert estimate.trials == 300_000
    assert sorts == []


def _probing_peak_bytes(pipeline, trials: int) -> int:
    tracemalloc.start()
    try:
        probing_mean_value(pipeline, trials, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probing_mean_memory_bounded_by_block_not_trials():
    """Grouping holds one block's states at a time, so quadrupling the
    trial count barely moves the peak."""
    inst = ProbingInstance(p=(0.9, 0.6, 0.8, 0.5), w=(3.0, 2.0, 10.0, 2.5),
                           inner=UniformMatroid(4, 2),
                           outer=KnapsackConstraint((0.5, 0.25, 0.6, 0.3)),
                           b=0.5)
    pipeline = prepare_probing(inst, SEED)
    growth = (_probing_peak_bytes(pipeline, 65_536)
              - _probing_peak_bytes(pipeline, 16_384))
    assert growth < 2 ** 20, growth


# ---------------------------------------------------------------------------
# deadlines


def test_deadline_matroid_structure():
    m = deadline_matroid((1, 2), 2)
    assert m.indep(0b01) and m.indep(0b10) and m.indep(0b11)
    # two elements with deadline one cannot both be probed
    m2 = deadline_matroid((1, 1), 2)
    assert m2.indep(0b01) and not m2.indep(0b11)


def test_deadline_vacuous_reduces_to_plain_probing():
    base = dict(p=(0.9, 0.6), w=(3.0, 2.0), inner=UniformMatroid(2, 1),
                outer=UniformMatroid(2, 2), b=0.5)
    plain = prepare_probing(ProbingInstance(**base), SEED)
    dl = prepare_probing(ProbingInstance(**base, deadlines=(2, 2)), SEED)
    assert dl.laminar is not None
    assert dl.laminar.indep(0b11)
    assert dl.lp.value == pytest.approx(plain.lp.value)
    assert dl.bound == pytest.approx(plain.bound * (1 - 0.5))


def test_deadline_positions_respected():
    inst = ProbingInstance(p=(1.0, 0.8), w=(1.0, 2.0),
                           inner=UniformMatroid(2, 2),
                           outer=UniformMatroid(2, 2), b=0.5,
                           deadlines=(1, 2))
    pipeline = prepare_probing(inst, SEED)
    assert pipeline.order == (0, 1)
    # the per-run assertion raises on any deadline violation
    est = probing_mean_value(pipeline, 10_000, SEED)
    assert est.mean >= 0.0


def test_deadline_ratio_bound():
    inst = ProbingInstance(p=(0.9, 0.7, 0.8), w=(3.0, 1.0, 2.0),
                           inner=UniformMatroid(3, 1),
                           outer=UniformMatroid(3, 3), b=0.5,
                           deadlines=(1, 2, 3))
    pipeline = prepare_probing(inst, SEED)
    est = probing_mean_value(pipeline, 100_000, SEED)
    report = estimate_competitive_ratio(est, pipeline.lp.value,
                                        pipeline.bound, pipeline.bound_expr)
    assert pipeline.bound == pytest.approx(0.5 * 0.5 * 0.5 * 0.5)
    assert report.passes()


def test_run_probing_with_deadlines_single_runs():
    inst = ProbingInstance(p=(1.0, 0.8), w=(1.0, 2.0),
                           inner=UniformMatroid(2, 2),
                           outer=UniformMatroid(2, 2), b=0.5,
                           deadlines=(1, 2))
    pipeline = prepare_probing(inst, SEED)
    states = list(probing_trial_states(pipeline, 200, SEED.child(8)))
    for state in states:
        q, s = _probe(pipeline, state)
        assert s & ~q == 0
    # probing out of deadline order trips the per-run position assertion
    with pytest.raises(AssertionError, match="deadline"):
        for state in states:
            _probe(pipeline, state, order=(1, 0))


def test_probing_instance_validation():
    with pytest.raises(ValueError):
        ProbingInstance(p=(1.5,), w=(1.0,), inner=UniformMatroid(1, 1),
                        outer=UniformMatroid(1, 1), b=0.5)
    with pytest.raises(ValueError):
        ProbingInstance(p=(0.5,), w=(-1.0,), inner=UniformMatroid(1, 1),
                        outer=UniformMatroid(1, 1), b=0.5)
    with pytest.raises(ValueError):
        ProbingInstance(p=(0.5,), w=(1.0,), inner=UniformMatroid(1, 1),
                        outer=UniformMatroid(1, 1), b=0.5, deadlines=(2,))


# 1.0 + 2^53 rounds back to 2^53, so these add to 2^53 left to right but to
# 2^53 + 2 compensated (the builtin sum of floats from Python 3.12 on)
_UNEVEN = (1.0, 2.0 ** 53, 1.0)


def test_run_values_sum_left_to_right():
    """Prophet and probing runs and the brute-force prophet optimum add
    the chosen elements' values in ascending element order, left to
    right."""
    u3 = UniformMatroid(3, 3)
    prophet = prepare_prophet(
        ProphetInstance(u3, (_dist([0.0, 1.0], [0.5, 0.5]),) * 3),
        MatroidChainFactory(u3, 0.5), SEED)
    family = prophet.sampler.sample()
    assert prophet.value((family, 0b111, (1e16, 1.0, -1e16)),
                         (2, 1, 0)) == 0.0
    probing = prepare_probing(ProbingInstance(p=(1.0,) * 3, w=_UNEVEN,
                                              inner=u3, outer=u3, b=0.5),
                              SEED)
    state = (0b111, 0b111, probing.inner_sampler.sample(),
             probing.outer_sampler.sample())
    assert probing.value(state, (2, 1, 0)) == 2.0 ** 53
    assert brute_force_prophet_opt(ProphetInstance(
        u3, tuple(_dist([v], [1.0]) for v in _UNEVEN))) == 2.0 ** 53
