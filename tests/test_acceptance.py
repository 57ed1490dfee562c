"""Acceptance suite: every proven constant checked at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line with the
numbers it measured.  Tolerances: Monte-Carlo bound checks allow three
99%-confidence half-widths plus, where stated, the chain-construction
slack eps = 0.05; exact checks are exact.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

from ocrs.applications import (ProbingInstance, ProphetInstance,
                               brute_force_prophet_opt,
                               estimate_competitive_ratio, prepare_probing,
                               prepare_prophet, probing_mean_value,
                               prophet_almighty_value, prophet_worst_order)
from ocrs.cli import main as cli_main
from ocrs.core import FractionalPoint, SeedSpec, iter_bits
from ocrs.harness import (brute_force_selectability, ci_halfwidth,
                          estimate_selectability,
                          knapsack_deterministic_impossibility,
                          _quantifier_selectable)
from ocrs.matroids import (GraphicMatroid, LaminarMatroid, PartitionMatroid,
                           UniformMatroid, check_matroid_axioms,
                           random_point_in_polytope)
from ocrs.optimize import (DiscreteDistribution, KnapsackConstraint,
                           adaptive_probing_optimum, solve_probing_lp)
from ocrs.schemes import (Graph, IntersectionFactory, KnapsackFactory,
                          MatchingFactory, MatroidChainFactory,
                          run_greedy_mask)
from ocrs.submodular import (coverage_function, directed_cut,
                             half_subsample_value, multilinear_exact,
                             ocrs_submodular_value, run_submodular_probing)

SEED = SeedSpec(20150731)
EPS = 0.05

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_matroid_selectability():
    matroids = {
        "graphic-K4": GraphicMatroid(4, K4_EDGES),
        "partition-3x2": PartitionMatroid([[0, 1], [2, 3], [4, 5]],
                                          [1, 1, 1]),
        "laminar": LaminarMatroid(6, [[0, 1, 2], [0, 1, 2, 3, 4, 5], [4, 5]],
                                  [2, 4, 1]),
        "uniform-6-3": UniformMatroid(6, 3),
    }
    trials = 100_000
    worst_margin = float("inf")
    case_idx = 0
    for name, matroid in matroids.items():
        for b in (0.25, 0.5, 0.75):
            case_idx += 1
            start = time.perf_counter()
            x = random_point_in_polytope(matroid, b,
                                         SEED.stream(1, case_idx))
            factory = MatroidChainFactory(matroid, b)
            rep = estimate_selectability(factory, x, trials,
                                         SEED.child(case_idx))
            elapsed = time.perf_counter() - start
            floor = (1 - b) - EPS - 3 * rep.halfwidths
            margin = float(np.min(rep.estimates - floor))
            worst_margin = min(worst_margin, margin)
            assert elapsed < 60, f"{name} b={b} took {elapsed:.1f}s"
            assert margin >= 0, (name, b, rep.estimates)
    _report(1, worst_margin >= 0,
            f"matroid selectability >= (1-b)-eps-3ci on 12 cases, "
            f"worst margin {worst_margin:.4f}")


def test_criterion_02_matroid_intersection():
    b = 0.5
    m1 = PartitionMatroid([[0, 1], [2, 3], [4, 5]], [1, 1, 1])
    m2 = PartitionMatroid([[0, 5], [1, 2], [3, 4]], [1, 1, 1])
    factory = IntersectionFactory([MatroidChainFactory(m1, b),
                                   MatroidChainFactory(m2, b)])
    x = FractionalPoint([0.25] * 6)
    rep = estimate_selectability(factory, x, 100_000, SEED.child(2))
    floor = (1 - b) ** 2 - EPS - 3 * rep.halfwidths
    margin = float(np.min(rep.estimates - floor))
    _report(2, margin >= 0,
            f"two-partition intersection >= (1-b)^2-eps-3ci, "
            f"worst margin {margin:.4f}")


def test_criterion_03_matching():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    k4 = Graph(4, K4_EDGES)
    trials = 100_000
    worst = float("inf")
    idx = 0
    for graph, degree in ((triangle, 2), (k4, 3)):
        for b in (0.5, 1.0):
            x = FractionalPoint([b / degree] * graph.n_edges)
            for deterministic in (False, True):
                idx += 1
                factory = MatchingFactory(graph, b,
                                          deterministic=deterministic)
                rep = estimate_selectability(factory, x, trials,
                                             SEED.child(30 + idx))
                floor = factory.bound() - 3 * rep.halfwidths
                worst = min(worst, float(np.min(rep.estimates - floor)))
                assert np.min(rep.estimates - floor) >= 0, (
                    b, deterministic, rep.estimates)
    _report(3, worst >= 0,
            f"matching selectability >= exp(-2b)-3ci (randomized) and "
            f">= (1-b)^2-3ci (deterministic), worst margin {worst:.4f}")


def test_criterion_04_knapsack():
    profiles = [
        [0.6, 0.3, 0.3],
        [1.0, 0.2, 0.2, 0.2],
        [0.5, 0.4, 0.25, 0.25, 0.1],
    ]
    trials = 200_000
    worst = float("inf")
    idx = 0
    for sizes in profiles:
        total = sum(sizes)
        for b in (0.1, 0.25):
            idx += 1
            x = FractionalPoint([b / total] * len(sizes))
            factory = KnapsackFactory(KnapsackConstraint(sizes), b)
            rep = estimate_selectability(factory, x, trials,
                                         SEED.child(60 + idx))
            floor = factory.bound() - 3 * rep.halfwidths
            worst = min(worst, float(np.min(rep.estimates - floor)))
            assert np.min(rep.estimates - floor) >= 0, (sizes, b,
                                                        rep.estimates)
    _report(4, worst >= 0,
            f"knapsack selectability >= (1-2b)/(2-2b)-3ci on 6 cases, "
            f"worst margin {worst:.4f}")


def test_criterion_05_deterministic_knapsack_impossibility():
    ok = True
    details = []
    for n in (2, 3):
        for b in (Fraction(1, 4), Fraction(1, 2)):
            best, _witness = knapsack_deterministic_impossibility(n, b)
            expect = (1 - b) ** (n - 1)
            ok = ok and best == expect
            details.append(f"n={n},b={b}:{best}")
    _report(5, ok, "deterministic impossibility equals (1-b)^(n-1) exactly: "
            + "; ".join(details))


def test_criterion_06_combination():
    b = 0.25
    matroid = UniformMatroid(4, 2)
    sizes = [0.7, 0.4, 0.3, 0.2]
    factory = IntersectionFactory([MatroidChainFactory(matroid, b),
                                   KnapsackFactory(
                                       KnapsackConstraint(sizes), b)])
    x = FractionalPoint([0.1, 0.1, 0.1, 0.1])
    rep = estimate_selectability(factory, x, 200_000, SEED.child(90))
    target = (1 - b) * (1 - 2 * b) / (2 - 2 * b)
    floor = target - 3 * rep.halfwidths
    margin = float(np.min(rep.estimates - floor))
    _report(6, margin >= 0,
            f"matroid*knapsack combination >= {target:.4f}-3ci, "
            f"worst margin {margin:.4f}")


def test_criterion_07_oracle_agreement():
    trials = 100_000
    fixtures = [
        ("chain-graphic", MatroidChainFactory(
            GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (0, 3)]), 0.5),
         FractionalPoint([0.2, 0.15, 0.2, 0.25, 0.1])),
        ("chain-uniform", MatroidChainFactory(UniformMatroid(3, 1), 0.5),
         FractionalPoint([0.2, 0.15, 0.1])),
        ("matching-triangle", MatchingFactory(Graph(3, [(0, 1), (1, 2),
                                                        (0, 2)]), 0.5),
         FractionalPoint([0.2, 0.25, 0.2])),
        ("matching-det", MatchingFactory(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                                         0.5, deterministic=True),
         FractionalPoint([0.2, 0.25, 0.2])),
        ("knapsack", KnapsackFactory(
                         KnapsackConstraint([0.7, 0.4, 0.3, 0.25]), 0.25),
         FractionalPoint([0.15, 0.15, 0.1, 0.2])),
        ("intersect", IntersectionFactory(
            [MatroidChainFactory(UniformMatroid(3, 2), 0.25),
             KnapsackFactory(KnapsackConstraint([0.6, 0.4, 0.3]), 0.25)]),
         FractionalPoint([0.15, 0.1, 0.12])),
    ]
    worst = 0.0
    for idx, (name, factory, x) in enumerate(fixtures):
        exact = brute_force_selectability(factory, x)
        rep = estimate_selectability(factory, x, trials, SEED.child(100 + idx))
        for e in range(x.n):
            tol = 3 * max(rep.halfwidths[e], ci_halfwidth(exact[e], trials),
                          1e-9)
            gap = abs(rep.estimates[e] - exact[e])
            worst = max(worst, gap / tol)
            assert gap <= tol, (name, e, rep.estimates[e], exact[e])
    _report(7, worst <= 1.0,
            f"Monte-Carlo matches exact enumeration within 3ci on all "
            f"fixtures, worst gap {worst:.2f} of tolerance")


def _prophet_fixture_instances():
    classic = ProphetInstance(
        UniformMatroid(2, 1),
        (DiscreteDistribution([1], [1.0]),
         DiscreteDistribution([0, 100], [0.99, 0.01])))
    two_point = ProphetInstance(
        UniformMatroid(3, 2),
        (DiscreteDistribution([1, 4], [0.5, 0.5]),
         DiscreteDistribution([2, 3], [0.25, 0.75]),
         DiscreteDistribution([0, 6], [0.9, 0.1])))
    partition = ProphetInstance(
        PartitionMatroid([[0, 1], [2, 3]], [1, 1]),
        (DiscreteDistribution([1, 2], [0.5, 0.5]),
         DiscreteDistribution([0, 5], [0.8, 0.2]),
         DiscreteDistribution([3], [1.0]),
         DiscreteDistribution([0, 4], [0.6, 0.4])))
    return [("classic-rank1", classic), ("uniform-3-2", two_point),
            ("partition", partition)]


def test_criterion_08_prophet():
    b = 0.5
    bound = b * (1 - b)
    trials = 100_000
    worst = float("inf")
    for idx, (name, instance) in enumerate(_prophet_fixture_instances()):
        start = time.perf_counter()
        factory = MatroidChainFactory(instance.matroid, b)
        pipeline = prepare_prophet(instance, factory, SEED.child(120 + idx))
        benchmark = brute_force_prophet_opt(instance)
        result, est = prophet_worst_order(pipeline, trials,
                                          SEED.child(130 + idx))
        almighty = prophet_almighty_value(pipeline, trials,
                                          SEED.child(130 + idx), None)
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"{name} took {elapsed:.1f}s"
        for adversary, estimate in (("worst order", est),
                                    ("almighty", almighty)):
            ratio = estimate.mean / benchmark
            ci = estimate.halfwidth / benchmark
            margin = ratio - (bound - 3 * ci)
            worst = min(worst, margin)
            assert margin >= 0, (name, adversary, ratio, result.worst_order)
    _report(8, worst >= 0,
            f"prophet worst-order and almighty ratios >= b(1-b)=0.25 minus "
            f"3ci on 3 instances, worst margin {worst:.4f}")


def test_criterion_09_probing():
    trials = 1_000_000
    fixtures = [
        ("matroid/matroid",
         ProbingInstance(p=(0.9, 0.6, 0.8), w=(3.0, 2.0, 1.0),
                         inner=UniformMatroid(3, 1),
                         outer=UniformMatroid(3, 2), b=0.5)),
        ("matroid/knapsack",
         ProbingInstance(p=(0.7, 0.5, 0.9), w=(1.0, 2.0, 1.5),
                         inner=UniformMatroid(3, 2),
                         outer=KnapsackConstraint((0.5, 0.25, 0.25)),
                         b=0.25)),
    ]
    worst = float("inf")
    for idx, (name, instance) in enumerate(fixtures):
        pipeline = prepare_probing(instance, SEED.child(140 + idx))
        est = probing_mean_value(pipeline, trials, SEED.child(150 + idx))
        report = estimate_competitive_ratio(est, pipeline.lp.value,
                                            pipeline.bound,
                                            pipeline.bound_expr)
        margin = report.ratio + 3 * report.ci_halfwidth - report.bound
        worst = min(worst, margin)
        assert margin >= 0, (name, report)
    _report(9, worst >= 0,
            f"probing ratio >= b*c_in*c_out-3ci with feasibility asserted "
            f"on {trials} runs each, zero violations, worst margin "
            f"{worst:.4f}")


def test_criterion_10_probing_deadlines():
    trials = 100_000
    instance = ProbingInstance(p=(0.9, 0.7, 0.8), w=(3.0, 1.0, 2.0),
                               inner=UniformMatroid(3, 1),
                               outer=UniformMatroid(3, 3), b=0.5,
                               deadlines=(1, 2, 3))
    pipeline = prepare_probing(instance, SEED.child(160))
    est = probing_mean_value(pipeline, trials, SEED.child(161))
    report = estimate_competitive_ratio(est, pipeline.lp.value,
                                        pipeline.bound, pipeline.bound_expr)
    margin = report.ratio + 3 * report.ci_halfwidth - report.bound
    _report(10, margin >= 0,
            f"deadline probing ratio >= b(1-b)*c_in*c_out-3ci with zero "
            f"deadline-position violations over {trials} runs, margin "
            f"{margin:.4f}")


def test_criterion_11_lp_upper_bound():
    fixtures = [
        ((Fraction(1, 2), Fraction(1, 4)), (Fraction(3), Fraction(2)),
         UniformMatroid(2, 1), UniformMatroid(2, 2)),
        ((Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)),
         (Fraction(2), Fraction(2), Fraction(3)),
         UniformMatroid(3, 1), UniformMatroid(3, 2)),
        ((Fraction(1, 2),) * 4, (Fraction(4), Fraction(3), Fraction(2),
                                 Fraction(1)),
         UniformMatroid(4, 2), UniformMatroid(4, 3)),
        ((Fraction(3, 4), Fraction(1, 2), Fraction(1, 2)),
         (Fraction(2), Fraction(1), Fraction(3)),
         KnapsackConstraint((0.5, 0.5, 0.75)), UniformMatroid(3, 2)),
    ]
    ok = True
    gaps = []
    for p, w, inner, outer in fixtures:
        lp = solve_probing_lp([float(v) for v in p], [float(v) for v in w],
                              inner, outer)
        opt = adaptive_probing_optimum([Fraction(float(v)) for v in p],
                                       [Fraction(float(v)) for v in w],
                                       inner, outer)
        ok = ok and lp.value_exact >= opt
        gaps.append(f"{lp.value_exact}>={opt}")
    _report(11, ok, "LP value upper bounds the exact adaptive optimum "
            "(exact rationals): " + "; ".join(gaps))


def test_criterion_12_submodular_bounds():
    b = 0.5
    f = coverage_function([1.0, 2.0, 1.5, 0.5, 1.0],
                          [[0, 1], [1, 2], [2, 3], [3, 4]])
    matroid = UniformMatroid(4, 2)
    x = FractionalPoint([0.25] * 4)
    est = ocrs_submodular_value(f, MatroidChainFactory(matroid, b), x,
                                100_000, SEED.child(170))
    target = (1 - b) * multilinear_exact(f, x)
    margin_mono = est.mean + 3 * est.halfwidth - target

    # second monotone fixture with a larger exact multilinear table
    f8 = coverage_function([1.0] * 8 + [2.0, 3.0],
                           [[i, (i + 3) % 10] for i in range(8)])
    part = PartitionMatroid([[0, 1], [2, 3], [4, 5], [6, 7]], [1] * 4)
    x8 = FractionalPoint([0.25] * 8)
    est8 = ocrs_submodular_value(f8, MatroidChainFactory(part, b), x8,
                                 100_000, SEED.child(172))
    target8 = (1 - b) * multilinear_exact(f8, x8)
    margin_mono8 = est8.mean + 3 * est8.halfwidth - target8

    cut = directed_cut(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0),
                           (3, 0, 0.5), (0, 2, 1.0)])
    est2 = half_subsample_value(cut, MatroidChainFactory(matroid, b), x,
                                100_000, SEED.child(171))
    target2 = ((1 - b) / 4.0) * multilinear_exact(cut, x)
    margin_cut = est2.mean + 3 * est2.halfwidth - target2
    _report(12, margin_mono >= 0 and margin_mono8 >= 0 and margin_cut >= 0,
            f"monotone coverage E[f(S)] >= c*F(x) (margins {margin_mono:.4f}"
            f", {margin_mono8:.4f}); non-monotone cut half-subsample >= "
            f"(c/4)*F(x) (margin {margin_cut:.4f})")


def test_criterion_13_submodular_probing():
    f = coverage_function([1.0, 1.0, 2.0], [[0], [1], [2, 0]])
    res = run_submodular_probing(f, [0.8, 0.6, 0.9], UniformMatroid(3, 2),
                                 UniformMatroid(3, 1), 0.5, 100_000,
                                 SEED.child(180))
    margin = res.estimate.mean + 3 * res.estimate.halfwidth - res.target
    _report(13, margin >= 0,
            f"submodular probing E[f(S)] >= c_in*c_out*F(p o x~) "
            f"({res.estimate.mean:.4f} vs {res.target:.4f}, margin "
            f"{margin:.4f})")


def test_criterion_14_structural_invariants():
    gen = SEED.stream(190)
    failures = []

    # matroid axioms, exhaustive (includes an n = 12 case)
    fixtures = [GraphicMatroid(4, K4_EDGES),
                PartitionMatroid([[0, 1], [2, 3], [4, 5]], [1, 1, 1]),
                LaminarMatroid(6, [[0, 1, 2], [0, 1, 2, 3, 4, 5], [4, 5]],
                               [2, 4, 1]),
                UniformMatroid(6, 3),
                PartitionMatroid([[2 * i, 2 * i + 1] for i in range(6)],
                                 [1] * 6)]
    for m in fixtures:
        if not check_matroid_axioms(m).ok:
            failures.append(f"axioms:{m.kind}")

    # down-closedness of sampled families, 10^4 random (member, subset) pairs
    samplers = [
        MatroidChainFactory(GraphicMatroid(4, K4_EDGES), 0.5).bind(
            FractionalPoint([0.15] * 6)),
        MatchingFactory(Graph(3, [(0, 1), (1, 2), (0, 2)]), 0.5).bind(
            FractionalPoint([0.2] * 3)),
        KnapsackFactory(
            KnapsackConstraint([0.7, 0.4, 0.3, 0.25, 0.2, 0.15]), 0.25).bind(
            FractionalPoint([0.1] * 6)),
    ]
    for sampler in samplers:
        fams = [f for _p, f in sampler.enumerate_families()][:8]
        for fam in fams:
            members = [mask for mask in range(1 << fam.n) if fam.member(mask)]
            for _ in range(10_000 // len(fams) + 1):
                mask = members[int(gen.integers(len(members)))]
                sub = int(gen.integers(1 << fam.n)) & mask
                if not fam.member(sub):
                    failures.append("down-closed")
                    break

    # F_x subset of F, exhaustive up to n = 10
    chain10 = MatroidChainFactory(UniformMatroid(10, 4), 0.5).bind(
        FractionalPoint([0.15] * 10)).sample()
    m10 = UniformMatroid(10, 4)
    for mask in range(1 << 10):
        if chain10.member(mask) and not m10.indep(mask):
            failures.append("subset-of-F:chain")
            break
    knap_sizes = [0.7, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05]
    ksampler = KnapsackFactory(KnapsackConstraint(knap_sizes), 0.25).bind(
        FractionalPoint([0.05] * 10))
    for _p, fam in ksampler.enumerate_families():
        for mask in range(1 << 10):
            if fam.member(mask):
                if sum(knap_sizes[e] for e in iter_bits(mask)) > 1 + 1e-9:
                    failures.append("subset-of-F:knapsack")
                    break

    # fast selectable equals the quantifier, exhaustive n <= 5, all variants
    quantifier_cases = [
        MatroidChainFactory(GraphicMatroid(4, [(0, 1), (1, 2), (2, 0),
                                               (2, 3), (0, 3)]), 0.5).bind(
            FractionalPoint([0.2, 0.15, 0.2, 0.25, 0.1])),
        MatchingFactory(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
                        0.4).bind(
            FractionalPoint([0.1, 0.15, 0.1, 0.05, 0.1])),
        KnapsackFactory(
            KnapsackConstraint([0.8, 0.5, 0.4, 0.3, 0.25]), 0.25).bind(
            FractionalPoint([0.1] * 5)),
    ]
    for sampler in quantifier_cases:
        for _p, fam in sampler.enumerate_families():
            for active in range(1 << fam.n):
                fast = fam.selectable_mask(active)
                for e in range(fam.n):
                    if bool((fast >> e) & 1) != _quantifier_selectable(
                            fam, active, e):
                        failures.append("quantifier")

    # characteristic CRS containment under every order: n = 6 exhaustive for
    # the chain family, n = 5 for sampled matching and knapsack families
    fam6 = MatroidChainFactory(GraphicMatroid(4, K4_EDGES), 0.5).bind(
        FractionalPoint([0.15] * 6)).sample()
    containment_cases = [(fam6, 6)]
    msampler = MatchingFactory(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0),
                                         (0, 2)]), 0.4).bind(
        FractionalPoint([0.1, 0.1, 0.1, 0.05, 0.05]))
    containment_cases += [(fam, 5) for _p, fam in
                          msampler.enumerate_families()[:6]]
    ksampler = KnapsackFactory(
        KnapsackConstraint([0.8, 0.5, 0.4, 0.3, 0.25]), 0.25).bind(
        FractionalPoint([0.1] * 5))
    containment_cases += [(fam, 5) for _p, fam in
                          ksampler.enumerate_families()]
    for fam, size in containment_cases:
        for active in range(1 << size):
            core = fam.selectable_mask(active) & active
            for order in itertools.permutations(range(size)):
                if core & ~run_greedy_mask(fam, order, active):
                    failures.append("crs-containment")
                    break

    # characteristic CRS monotonicity, n = 5 exhaustive
    fam5 = MatroidChainFactory(GraphicMatroid(4, [(0, 1), (1, 2), (2, 0),
                                                  (2, 3), (0, 3)]),
                               0.5).bind(FractionalPoint([0.15] * 5)).sample()
    for a2 in range(1 << 5):
        crs2 = fam5.selectable_mask(a2) & a2
        a1 = a2
        while True:
            crs1 = fam5.selectable_mask(a1) & a1
            if crs2 & a1 & ~crs1:
                failures.append("crs-monotone")
            if a1 == 0:
                break
            a1 = (a1 - 1) & a2

    _report(14, not failures,
            "matroid axioms, down-closure, F_x within F, quantifier "
            "selectability, characteristic-CRS containment and "
            "monotonicity all hold exhaustively"
            + ("" if not failures else f" (failed: {sorted(set(failures))})"))


def test_criterion_15_determinism(tmp_path):
    instance = tmp_path / "k4.json"
    instance.write_text(json.dumps(
        {"matroid": {"type": "graphic", "vertices": 4,
                     "edges": [list(e) for e in K4_EDGES]}}))
    outputs = []
    for tag, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        out = tmp_path / f"rep_{tag}.json"
        code = cli_main(["verify-selectability", "--scheme", "matroid",
                         "--b", "0.5", "--trials", "20000", "--seed", "7",
                         str(instance), "--out-json", str(out)] + extra)
        assert code == 0
        outputs.append(out.read_bytes())
    same = outputs[0] == outputs[1] == outputs[2]

    probing = tmp_path / "probe.json"
    probing.write_text(json.dumps({
        "p": [0.9, 0.6], "w": [3.0, 2.0],
        "inner": {"type": "uniform", "n": 2, "k": 1},
        "outer": {"type": "uniform", "n": 2, "k": 2}, "b": 0.5}))
    reports = []
    for tag in ("x", "y"):
        out = tmp_path / f"probe_{tag}.json"
        assert cli_main(["probing", str(probing), "--trials", "20000",
                         "--seed", "11", "--out-json", str(out)]) == 0
        reports.append(out.read_bytes())
    same = same and reports[0] == reports[1]
    _report(15, same, "identical seeds give byte-identical reports, "
            "independent of worker count")
