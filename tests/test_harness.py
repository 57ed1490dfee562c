"""Estimator-vs-oracle agreement, impossibility enumeration, order search."""

import itertools
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs.core import (TRIAL_BLOCK, FractionalPoint, SeedSpec, iter_bits,
                       num_blocks, trial_columns)
from ocrs.harness import (_DOMAIN_CONSTRUCT, _DOMAIN_TRIALS, MeanEstimate,
                          bind_sampler, brute_force_selectability,
                          ci_halfwidth, estimate_selectability, group_states,
                          grouped_values,
                          knapsack_deterministic_impossibility,
                          restricted_order_ids, selectability_counts,
                          worst_order_value)
from ocrs.matroids import GraphicMatroid, UniformMatroid
from ocrs.optimize import KnapsackConstraint
from ocrs.schemes import (Graph, IntersectionFactory, KnapsackFactory,
                          MatchingFactory, MatchingFamily,
                          MatroidChainFactory, run_greedy_mask)

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
    fac = KnapsackFactory(KnapsackConstraint([1.0]), 0.5)
    rep = estimate_selectability(fac, FractionalPoint([0.5]), 5000, SEED)
    assert rep.estimates[0] == 1.0


def test_report_invariants_and_csv(tmp_path):
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    rep = estimate_selectability(fac, FractionalPoint([0.25, 0.25]), 5000,
                                 SEED, scheme="matroid")
    for e in range(2):
        p = rep.estimates[e]
        assert rep.halfwidths[e] == 2.576 * math.sqrt(p * (1 - p) / 5000)
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
    sampler = bind_sampler(fac, x, SEED)
    full = selectability_counts(sampler, x, trials, SEED)
    lo = selectability_counts(sampler, x, trials, SEED, block_range=(0, 1))
    hi = selectability_counts(sampler, x, trials, SEED, block_range=(1, None))
    assert full.dtype == np.int64 and full.shape == (3,)
    assert np.array_equal(lo + hi, full)


def _oracle_counts(factory, x, trials, seed, block_range):
    """The per-trial loop: the bits of every trial's selectable mask,
    summed trial by trial."""
    sampler = factory.bind(x, seed.stream(_DOMAIN_CONSTRUCT))
    counts = np.zeros(x.n, dtype=np.int64)
    for _start, (actives, (codes, families)) in trial_columns(
            seed, _DOMAIN_TRIALS, trials, [x.values, sampler], block_range):
        for active, code in zip(actives.tolist(), codes.tolist()):
            for e in iter_bits(families[code].selectable_mask(active)):
                counts[e] += 1
    return counts


_GRAPH4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
_K10 = Graph(10, list(itertools.combinations(range(10), 2)))
_COUNT_FACTORIES = [
    MatroidChainFactory(GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3),
                                           (0, 3)]), 0.5),
    MatchingFactory(_GRAPH4, 0.5),
    KnapsackFactory(KnapsackConstraint([0.7, 0.4, 0.3, 0.6, 0.2]), 0.25),
    IntersectionFactory([MatroidChainFactory(UniformMatroid(5, 2), 0.25),
                         MatchingFactory(_GRAPH4, 0.25),
                         KnapsackFactory(KnapsackConstraint(
                             [0.6, 0.4, 0.3, 0.5, 0.2]), 0.25)]),
    # masks of two and of six bytes; K10 draws each block in six chunks,
    # and both count by the matching kernel
    MatchingFactory(Graph(6, list(itertools.combinations(range(6), 2))),
                    0.5),
    MatchingFactory(_K10, 0.5),
    # a fixed family: one run-level histogram of active sets, at its
    # 1 MiB limit on 17 elements; 18 elements count block by block
    MatroidChainFactory(UniformMatroid(17, 3), 0.5),
    MatroidChainFactory(UniformMatroid(18, 3), 0.5),
    MatchingFactory(_GRAPH4, 0.5, deterministic=True),
    # the deterministic matching above 17 edges: a fixed family counted
    # block by block
    MatchingFactory(_K10, 0.5, deterministic=True),
]


@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, len(_COUNT_FACTORIES) - 1),
       trials=st.integers(1, 3 * TRIAL_BLOCK),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_counts_equal_per_trial_loop(which, trials, seed, data):
    """Per-element counts of any block range are the per-trial sums of the
    selectable masks' bits, on all four schemes, on masks of more than one
    byte, and on fixed families counted by either path."""
    factory = _COUNT_FACTORIES[which]
    x = FractionalPoint(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=factory.n, max_size=factory.n)))
    load = factory.load(x)
    if load > factory.b:
        x = FractionalPoint(x.values * (factory.b / load * (1 - 1e-12)))
    blocks = num_blocks(trials)
    lo = data.draw(st.integers(0, blocks))
    block_range = data.draw(st.sampled_from(
        [None, (lo, data.draw(st.integers(lo, blocks)))]))
    spec = SeedSpec(seed)
    assert np.array_equal(
        selectability_counts(bind_sampler(factory, x, spec), x, trials, spec,
                             block_range),
        _oracle_counts(factory, x, trials, spec, block_range))


def _counts_peak_bytes(factory, x, trials: int) -> int:
    tracemalloc.start()
    try:
        selectability_counts(bind_sampler(factory, x, SEED), x, trials, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _counting_peak_bytes(sampler, x, trials: int) -> int:
    """`_counts_peak_bytes` of a bound sampler: the count alone."""
    tracemalloc.start()
    try:
        selectability_counts(sampler, x, trials, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _k10_matching() -> tuple[MatchingFactory, FractionalPoint]:
    raw = 0.25 + 0.75 * np.random.default_rng(0).random(_K10.n_edges)
    x = FractionalPoint(raw * (0.5 / _K10.degree_loads(raw).max()))
    return MatchingFactory(_K10, 0.5), x


def test_matching_counts_make_no_family_after_bind(monkeypatch):
    """A random matching's trial codes are its K masks and its rows come
    from byte tables, so counting K10 makes no `MatchingFamily` once the
    sampler is bound (it made one per distinct K of each block)."""
    factory, x = _k10_matching()
    sampler = bind_sampler(factory, x, SEED)
    made = 0
    init = MatchingFamily.__init__

    def counting(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    monkeypatch.setattr(MatchingFamily, "__init__", counting)
    counts = selectability_counts(sampler, x, 2 * TRIAL_BLOCK + 5, SEED)
    assert made == 0 and counts.sum() > 0


def test_counts_memory_bounded_by_instance_not_trials():
    """Random matching families on K10: a trial that draws a new (K, active)
    state must not leave memory behind, so quadrupling the trial count
    leaves the peak where it was (a count per distinct selectable mask
    grew it by about 1 MB)."""
    factory, x = _k10_matching()
    growth = (_counts_peak_bytes(factory, x, 65_536)
              - _counts_peak_bytes(factory, x, 16_384))
    assert growth < 64 * 2**10, growth


@pytest.mark.parametrize("trials", [TRIAL_BLOCK, 8 * TRIAL_BLOCK])
def test_counts_peak_stays_under_3_mib(trials):
    """The K10 loop's 90 columns are drawn into a table of at most 1 MiB,
    the sampler gets packed masks, and the selectable masks are reduced
    by byte histograms, so no block-sized float table or (pairs, n) bit
    matrix is made (a whole-block draw and the bit matrix peaked at about
    9 MB)."""
    assert _counts_peak_bytes(*_k10_matching(), trials) < 3 * 2**20


def test_fixed_family_counts_memory_bounded_by_instance_not_trials():
    """A fixed family counts the run's active sets in one histogram of at
    most 1 MiB: on the K6 chain quadrupling the trial count leaves the
    peak where it was, and on U(17, 3), at the histogram's limit, the
    count peaks under 3 MiB (the exact chain's own lookups, built by the
    bind, are not counted)."""
    k6 = GraphicMatroid(6, list(itertools.combinations(range(6), 2)))
    factory = MatroidChainFactory(k6, 0.5)
    x = FractionalPoint(np.full(15, 0.5 * 5 / 15))
    sampler = bind_sampler(factory, x, SEED)
    growth = (_counting_peak_bytes(sampler, x, 65_536)
              - _counting_peak_bytes(sampler, x, 16_384))
    assert growth < 64 * 2**10, growth
    factory = MatroidChainFactory(UniformMatroid(17, 3), 0.5)
    x = FractionalPoint(np.full(17, 0.5 * 3 / 17 * (1 - 1e-12)))
    peak = _counting_peak_bytes(bind_sampler(factory, x, SEED), x, 65_536)
    assert peak < 3 * 2**20, peak


def test_knapsack_counts_memory_bounded_by_instance_not_trials():
    """Twenty small items: most trials draw a new active set, and the
    knapsack families keep no memo of their subset sums or answers, so
    quadrupling the trial count leaves the peak where it was (such memos
    grew it by about 20 MB)."""
    factory = KnapsackFactory(KnapsackConstraint([0.05] * 20), 0.25)
    x = FractionalPoint([0.25 * (1 - 1e-9)] * 20)
    growth = (_counts_peak_bytes(factory, x, 32_768)
              - _counts_peak_bytes(factory, x, 8_192))
    assert growth < 2**20, growth


def test_brute_force_examples():
    fac = MatroidChainFactory(UniformMatroid(2, 1), 0.5)
    exact = brute_force_selectability(fac, FractionalPoint([0.25, 0.25]))
    assert np.allclose(exact, [0.75, 0.75])

    mfac = MatchingFactory(Graph(2, [(0, 1)]), 0.5)
    exact = brute_force_selectability(mfac, FractionalPoint([0.5]))
    assert exact[0] == pytest.approx((1 - math.exp(-0.5)) / 0.5)

    kfac = KnapsackFactory(KnapsackConstraint([0.4]), 0.25)
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
        (KnapsackFactory(KnapsackConstraint([0.7, 0.4, 0.3]), 0.25),
         FractionalPoint([0.15, 0.2, 0.15])),
        (IntersectionFactory([MatroidChainFactory(UniformMatroid(3, 2), 0.25),
                              KnapsackFactory(
                                  KnapsackConstraint([0.6, 0.4, 0.3]), 0.25)]),
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
    """n outside 1..4 is refused with the text the CLI's ``--n`` prints."""
    for n in (0, -1, 5):
        with pytest.raises(ValueError, match=r"^must lie in 1\.\.4$"):
            knapsack_deterministic_impossibility(n, Fraction(1, 2))


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


def test_order_search_stops_above_eight_elements():
    # 9! orders are not enumerated; no trial is prepared first
    def prepare(t):
        raise AssertionError("prepared a trial")

    with pytest.raises(ValueError, match="limited to n <= 8"):
        worst_order_value(prepare, lambda state, order: 0.0, 9, 10)


def test_group_states_first_seen_order():
    states = ["b1", "a1", "b2", "c1", "a2"]
    distinct, trial_state = group_states(states, lambda s: s[0])
    assert distinct == ["b1", "a1", "c1"]
    assert trial_state == [0, 1, 0, 2, 1]


def _literal_grouping(states, key):
    """`group_states` as a literal dict loop that keys every trial."""
    index, distinct, trial_state = {}, [], []
    for state in states:
        k = key(state)
        if k not in index:
            index[k] = len(distinct)
            distinct.append(state)
        trial_state.append(index[k])
    return distinct, trial_state


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       made=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                     min_size=1, max_size=8))
def test_group_states_memo_equals_literal_grouping(data, made):
    """Trials that share one object, equal but distinct objects and
    objects with equal keys but other contents group as the literal loop
    groups them: the same distinct objects, in first-seen order, and the
    same indices; the key runs once per distinct object."""
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(made) - 1),
                                         st.booleans()),
                               min_size=1, max_size=50))
    # a fresh tuple equal to the shared one, or the shared one itself
    states = [tuple(list(made[i])) if copy else made[i]
              for i, copy in picks]
    keyed = []

    def key(state):
        keyed.append(state)
        return state[0]

    distinct, trial_state = group_states(states, key)
    expected, expected_index = _literal_grouping(states, lambda s: s[0])
    assert trial_state == expected_index
    assert len(distinct) == len(expected)
    assert all(a is b for a, b in zip(distinct, expected))
    assert len(keyed) == len({id(s) for s in states})


def test_group_states_memo_survives_transient_objects():
    """A generator whose objects die after use may hand a new object the
    id of an old one; the memo holds what it saw, so no id is reused."""
    def fresh():
        for k in [0, 1, 0, 2, 1, 3] * 50:
            yield [k]

    distinct, trial_state = group_states(fresh(), lambda s: s[0])
    assert [s[0] for s in distinct] == [0, 1, 2, 3]
    assert trial_state == [0, 1, 0, 2, 1, 3] * 50


def test_restricted_order_ids_equal_the_tuple_loop():
    """On every mask up to 6 elements: each order's restriction numbered
    by first appearance, and the first order of each, as the loop over
    restricted tuples numbers them."""
    for n in range(7):
        orders = list(itertools.permutations(range(n)))
        rows = np.array(orders, dtype=np.int64)
        for mask in range(1 << n):
            seen: dict[tuple, int] = {}
            ids = [seen.setdefault(tuple(e for e in order if mask >> e & 1),
                                   len(seen)) for order in orders]
            first = [ids.index(r) for r in range(len(seen))]
            got_first, got_ids = restricted_order_ids(rows, mask)
            assert got_ids.tolist() == ids, (n, mask)
            assert got_first.tolist() == first, (n, mask)


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


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3),
       actives=st.lists(st.integers(0, 15), min_size=1, max_size=40),
       weights=st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 100.0]),
                        min_size=4, max_size=4),
       grouped=st.booleans())
def test_masked_search_equals_search_over_every_element(k, actives, weights,
                                                        grouped):
    """Keyed by each state's active set, the search gives the same means,
    worst order and value as the search that plays every state under every
    order, with one value call per distinct (state, restricted order)."""
    fam = MatroidChainFactory(UniformMatroid(4, k), 0.5).bind(
        FractionalPoint([0.1] * 4)).sample()
    value = _greedy_weight(weights)
    if grouped:
        distinct, trial_state = group_states(actives, lambda a: a)
    else:
        distinct, trial_state = actives, None
    calls = 0

    def counted(state, order):
        nonlocal calls
        calls += 1
        return value(state, order)

    plain = worst_order_value(lambda i: (fam, distinct[i]), value, 4,
                              len(distinct), trial_state=trial_state)
    masked = worst_order_value(lambda i: (fam, distinct[i]), counted, 4,
                               len(distinct), trial_state=trial_state,
                               masks=distinct)
    assert masked.values_by_order == plain.values_by_order
    assert masked.worst_order == plain.worst_order
    assert masked.worst_value == plain.worst_value
    assert calls == sum(math.factorial(a.bit_count()) for a in distinct)


def test_grouped_values_run_once_per_state_of_each_block(caplog):
    """Values come out in trial order; a state repeated across blocks runs
    once in each block, since each block is grouped on its own."""
    blocks = [(0, [np.array([1, 2, 1, 2]), np.array([5, 6, 5, 5])]),
              (4, [np.array([1, 1]), np.array([5, 5])])]
    calls = []

    def value(state, order):
        calls.append(state)
        return state[0] * 10.0 + order[0]

    collected = []
    with caplog.at_level(logging.INFO, logger="ocrs.harness"):
        est = MeanEstimate.from_blocks(
            grouped_values(iter(blocks), lambda columns: columns, value,
                           (3,)), collected)
    assert collected == [13.0, 23.0, 13.0, 23.0, 13.0, 13.0]
    assert est == MeanEstimate.from_stream(collected)
    assert calls == [(1, 5), (2, 6), (2, 5), (1, 5)]
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


def test_order_means_sum_left_to_right():
    values = [1e16, 1.0, -1e16]
    res = worst_order_value(lambda t: t, lambda t, order: values[t], 1, 3)
    assert res.values_by_order == {(0,): 0.0}


def test_one_order_means_sum_left_to_right_past_eight_trials():
    """At one order the trial rows are (rows, 1) chunks, which
    ``np.add.reduce`` would sum pairwise, eight partial sums at a time."""
    values = [1e16] + [1.0] * 16 + [-1e16]
    res = worst_order_value(lambda t: t, lambda t, order: values[t], 1,
                            len(values))
    assert res.values_by_order == {(0,): 0.0}


_BLOCK_VALUES = st.one_of(st.floats(-1e200, 1e200),
                          st.sampled_from([0, 1e16, 1.0, -1e16]))


@settings(max_examples=100, deadline=None)
@given(blocks=st.lists(st.lists(_BLOCK_VALUES, min_size=1, max_size=30),
                       min_size=1, max_size=5), data=st.data())
def test_mean_from_blocks_equals_from_stream(blocks, data):
    """The block form sums the same values in the same order, bit for bit,
    also where the squares overflow, and collects the same Python
    numbers (the int 0 stays an int)."""
    per_block, flat = [], []
    for distinct in blocks:
        inverse = data.draw(st.lists(st.integers(0, len(distinct) - 1),
                                     min_size=1, max_size=60))
        per_block.append((distinct, np.array(inverse)))
        flat.extend(distinct[i] for i in inverse)
    collected = []
    # repr, since an overflowing half-width is nan on both sides
    assert (repr(MeanEstimate.from_blocks(iter(per_block), collected))
            == repr(MeanEstimate.from_stream(iter(flat))))
    assert collected == flat
    assert [type(v) for v in collected] == [type(v) for v in flat]
