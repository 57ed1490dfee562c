"""Estimator-vs-oracle agreement, impossibility enumeration, order search."""

import itertools
import logging
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ocrs.core import FractionalPoint, SeedSpec, iter_bits
from ocrs.harness import (MeanEstimate, brute_force_selectability,
                          ci_halfwidth, estimate_selectability, group_states,
                          grouped_values,
                          knapsack_deterministic_impossibility,
                          selectability_counts, worst_order_value)
from ocrs.matroids import GraphicMatroid, UniformMatroid
from ocrs.schemes import (Graph, IntersectionFactory, KnapsackFactory,
                          MatchingFactory, MatroidChainFactory,
                          run_greedy_mask)

SEED = SeedSpec(101)


def test_estimate_zero_point_all_selectable():
    fac = MatroidChainFactory(GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]), 0.5)
    rep = estimate_selectability(fac, FractionalPoint([0.0] * 3), 2000, SEED)
    assert np.all(rep.estimates == 1.0)
    assert rep.all_pass()


def test_estimate_matches_closed_form_rank_one():
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    rep = estimate_selectability(fac, FractionalPoint([0.25, 0.25]),
                                 100_000, SEED)
    assert np.all(np.abs(rep.estimates - 0.75) <= 0.01)
    assert rep.bound == pytest.approx(0.5)
    assert rep.bound_expr == "1-b"


def test_estimate_knapsack_unit_element_exact_one():
    fac = KnapsackFactory([1.0], 0.5)
    rep = estimate_selectability(fac, FractionalPoint([0.5]), 5000, SEED)
    assert rep.estimates[0] == 1.0


def test_report_invariants_and_csv(tmp_path):
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    rep = estimate_selectability(fac, FractionalPoint([0.25, 0.25]), 5000,
                                 SEED, scheme="matroid")
    for e in range(2):
        p = rep.estimates[e]
        assert rep.halfwidths[e] == pytest.approx(
            2.576 * math.sqrt(p * (1 - p) / 5000))
        assert rep.passes[e] == (p + rep.halfwidths[e]
                                 + rep.construction_slack >= rep.bound - 1e-15)
    out = tmp_path / "report.csv"
    rep.write_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "element,estimate,ci_halfwidth,bound,pass"
    assert len(lines) == 3
    payload = rep.to_json_dict()
    assert payload["scheme"] == "matroid" and payload["trials"] == 5000


def test_counts_block_ranges_merge():
    fac = MatroidChainFactory(UniformMatroid(3, 1), 0.5)
    x = FractionalPoint([0.15, 0.2, 0.1])
    trials = 20_000
    full = selectability_counts(fac, x, trials, SEED)
    lo = selectability_counts(fac, x, trials, SEED, block_range=(0, 1))
    hi = selectability_counts(fac, x, trials, SEED, block_range=(1, None))
    merged = Counter(lo)
    merged.update(hi)
    assert merged == full


def _counts_peak_bytes(factory, x, trials: int) -> int:
    tracemalloc.start()
    try:
        selectability_counts(factory, x, trials, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counts_memory_bounded_by_instance_not_trials():
    """Random matching families on K10: a trial that draws a new (K, active)
    state must not leave memory behind, so quadrupling the trial count
    barely moves the peak."""
    graph = Graph(10, list(itertools.combinations(range(10), 2)))
    raw = 0.25 + 0.75 * np.random.default_rng(0).random(graph.n_edges)
    x = FractionalPoint(raw * (0.5 / graph.degree_loads(raw).max()))
    factory = MatchingFactory(graph, 0.5)
    growth = (_counts_peak_bytes(factory, x, 65_536)
              - _counts_peak_bytes(factory, x, 16_384))
    assert growth < 4 * 2**20, growth


def test_brute_force_examples():
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    exact = brute_force_selectability(fac, FractionalPoint([0.25, 0.25]))
    assert np.allclose(exact, [0.75, 0.75])

    mfac = MatchingFactory(Graph(2, [(0, 1)]), 0.5)
    exact = brute_force_selectability(mfac, FractionalPoint([0.5]))
    assert exact[0] == pytest.approx((1 - math.exp(-0.5)) / 0.5)

    kfac = KnapsackFactory([0.4], 0.25)
    exact = brute_force_selectability(kfac, FractionalPoint([0.5]))
    assert exact[0] == pytest.approx(2 / 3)


def test_estimate_agrees_with_brute_force_fixtures():
    trials = 100_000
    fixtures = [
        (MatroidChainFactory(GraphicMatroid(4, [(0, 1), (1, 2), (2, 0),
                                                (2, 3)]), 0.5),
         FractionalPoint([0.2, 0.25, 0.2, 0.3])),
        (MatchingFactory(Graph(3, [(0, 1), (1, 2), (0, 2)]), 0.5),
         FractionalPoint([0.2, 0.25, 0.2])),
        (KnapsackFactory([0.7, 0.4, 0.3], 0.25),
         FractionalPoint([0.15, 0.2, 0.15])),
        (IntersectionFactory([MatroidChainFactory(UniformMatroid(3, 2), 0.25),
                              KnapsackFactory([0.6, 0.4, 0.3], 0.25)]),
         FractionalPoint([0.15, 0.1, 0.12])),
    ]
    for fac, x in fixtures:
        exact = brute_force_selectability(fac, x)
        rep = estimate_selectability(fac, x, trials, SEED)
        for e in range(x.n):
            tol = 3 * max(rep.halfwidths[e], ci_halfwidth(exact[e], trials))
            assert abs(rep.estimates[e] - exact[e]) <= max(tol, 1e-9), (
                fac, e, rep.estimates[e], exact[e])


def test_impossibility_matches_closed_form():
    for n in (2, 3):
        for b in (Fraction(1, 4), Fraction(1, 2)):
            best, witness = knapsack_deterministic_impossibility(n, b)
            assert best == (1 - b) ** (n - 1)
            assert 0 in witness
            assert all((1 << e) in witness for e in range(n))
    best, _ = knapsack_deterministic_impossibility(3, Fraction(0))
    assert best == 1


def test_impossibility_witness_down_closed():
    _best, witness = knapsack_deterministic_impossibility(3, Fraction(1, 2))
    members = set(witness)
    for mask in members:
        sub = mask
        while sub:
            sub = (sub - 1) & mask
            assert sub in members


def test_impossibility_rejects_large_n():
    with pytest.raises(ValueError):
        knapsack_deterministic_impossibility(5, Fraction(1, 2))


def _greedy_weight(weights):
    """Order-search value of a (family, active mask) trial: the weight of the
    greedy selection, which must keep every selectable active element."""

    def value(state, order) -> float:
        family, active = state
        selected = run_greedy_mask(family, order, active)
        assert family.selectable_mask(active) & active & ~selected == 0
        return float(sum(weights[e] for e in iter_bits(selected)))

    return value


def test_worst_order_single_element():
    fac = MatroidChainFactory(UniformMatroid(1, 1), 0.5)
    sampler = fac.bind(FractionalPoint([0.4]))
    fam = sampler.sample()
    gen = SEED.stream(0)
    actives = [int(gen.random() < 0.4) for _ in range(500)]
    value = _greedy_weight([2.0])
    res = worst_order_value(lambda t: (fam, actives[t]), value, 1, 500)
    assert res.worst_order == (0,)
    assert res.worst_value == pytest.approx(2.0 * sum(actives) / 500)


def test_worst_order_presents_small_weight_first():
    # rank-1 uniform with weights (1, 100): the adversary shows element 0
    # first so that it blocks the valuable one
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    sampler = fac.bind(FractionalPoint([0.25, 0.25]))
    fam = sampler.sample()
    gen = SEED.stream(1)
    states = [(fam, int(gen.random() < 0.25) | (int(gen.random() < 0.25) << 1))
              for _ in range(4000)]
    value = _greedy_weight([1.0, 100.0])
    res = worst_order_value(lambda t: states[t], value, 2, 4000)
    assert res.worst_order == (0, 1)
    assert res.values_by_order[(0, 1)] < res.values_by_order[(1, 0)]


def test_worst_order_value_respects_selectability_bound():
    # worst-order expected value >= c * sum(x_e w_e) for a (b,c)-scheme
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    x = FractionalPoint([0.25, 0.25])
    sampler = fac.bind(x)
    fam = sampler.sample()
    gen = SEED.stream(2)
    trials = 20_000
    w = [1.0, 100.0]
    states = [(fam, int(gen.random() < 0.25) | (int(gen.random() < 0.25) << 1))
              for _ in range(trials)]
    value = _greedy_weight(w)
    res = worst_order_value(lambda t: states[t], value, 2, trials)
    target = fac.bound() * sum(xe * we for xe, we in zip(x.values, w))
    sd = 3 * 100.0 / math.sqrt(trials)
    assert res.worst_value >= target - sd


def test_worst_order_heuristic_mode():
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    fam = fac.bind(FractionalPoint([0.25, 0.25])).sample()
    gen = SEED.stream(3)
    states = [(fam, int(gen.integers(4))) for _ in range(1000)]
    value = _greedy_weight([1.0, 100.0])
    res = worst_order_value(lambda t: states[t], value, 2, 1000,
                            mode="greedy-heuristic", seed=SEED)
    assert res.mode == "greedy-heuristic"
    assert res.worst_order in ((0, 1), (1, 0))


def test_heuristic_search_evaluates_each_order_once(caplog):
    # hill-climbing swaps back and restarts revisit orders; each distinct
    # order is still evaluated once
    fam = MatroidChainFactory(UniformMatroid(4, 1), 0.5).bind(
        FractionalPoint([0.1] * 4)).sample()
    gen = SEED.stream(5)
    actives = [int(v) for v in gen.integers(16, size=500)]
    value = _greedy_weight([1.0, 5.0, 20.0, 100.0])
    calls = Counter()

    def counted(state, order):
        calls[tuple(order)] += 1
        return value(state, order)

    with caplog.at_level(logging.INFO, logger="ocrs.harness"):
        res = worst_order_value(lambda t: (fam, actives[t]), counted, 4, 500,
                                mode="greedy-heuristic", seed=SEED)
    assert set(calls.values()) == {500}
    assert f"{len(calls)} orders evaluated" in caplog.text
    for order, mean in res.values_by_order.items():
        assert mean == sum(value((fam, a), order) for a in actives) / 500
    assert res.worst_value == min(res.values_by_order.values())


def test_group_states_first_seen_order():
    states = ["b1", "a1", "b2", "c1", "a2"]
    distinct, trial_state = group_states(states, lambda s: s[0])
    assert distinct == ["b1", "a1", "c1"]
    assert trial_state == [0, 1, 0, 2, 1]


def test_grouped_search_equals_per_trial_search(caplog):
    fac = MatroidChainFactory(UniformMatroid(3, 1), 0.5)
    fam = fac.bind(FractionalPoint([0.15, 0.15, 0.15])).sample()
    gen = SEED.stream(4)
    actives = [int(v) for v in gen.integers(8, size=3000)]
    value = _greedy_weight([1.0, 7.0, 100.0])
    plain = worst_order_value(lambda t: (fam, actives[t]), value, 3, 3000)
    distinct, trial_state = group_states(actives, lambda a: a)
    with caplog.at_level(logging.INFO, logger="ocrs.harness"):
        grouped = worst_order_value(lambda i: (fam, distinct[i]), value, 3,
                                    len(distinct), trial_state=trial_state)
    assert grouped == plain
    assert ("worst-order search (exhaustive): 3000 trials, 8 distinct "
            "states, 6 orders evaluated, 48 value calls") in caplog.text


def test_grouped_values_run_once_per_state_of_each_block(caplog):
    """Values come out in trial order; a state repeated across blocks runs
    once in each block, since each block is grouped on its own."""
    blocks = [(0, [[1, 2, 1, 2], ["a", "b", "a", "a"]]),
              (4, [[1, 1], ["a", "a"]])]
    calls = []

    def value(state, order):
        calls.append(state)
        return state[0] * 10.0 + order[0]

    with caplog.at_level(logging.INFO, logger="ocrs.harness"):
        values = list(grouped_values(iter(blocks), lambda s: s, value, (3,)))
    assert values == [13.0, 23.0, 13.0, 23.0, 13.0, 13.0]
    assert calls == [(1, "a"), (2, "b"), (2, "a"), (1, "a")]
    assert ("grouped mean: 6 trials in 2 blocks, 4 distinct states (at most "
            "3 per block), 4 value calls") in caplog.text


def test_mean_estimate_moments():
    values = [1.0, 3.0, 2.0, 2.0]
    collected = []
    est = MeanEstimate.from_stream(iter(values), collected)
    assert collected == values and est.trials == 4
    assert est.mean == pytest.approx(2.0)
    var = np.var(values)
    assert est.halfwidth == pytest.approx(2.576 * math.sqrt(var / 4))
