"""Batch experiment runner: verify bounds, run pipelines, emit reports.

Exit codes: 0 when every tested bound holds, 1 on a bound failure, 2 on
malformed input.  All randomness flows from --seed; reports contain no
timestamps, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from .applications import (ProbingInstance, ProphetInstance,
                           brute_force_prophet_opt, estimate_competitive_ratio,
                           prepare_probing, prepare_prophet,
                           probing_mean_value, prophet_almighty_value,
                           prophet_trial_states, prophet_value_under_order,
                           prophet_worst_order)
from .core import (FractionalPoint, SeedSpec, field, float_list, ground_size,
                   int_list, iter_bits, json_float, json_str, num_blocks,
                   read_field)
from .harness import (MeanEstimate, bind_sampler, family_size,
                      knapsack_deterministic_impossibility,
                      passes_with_margin, report_from_counts,
                      selectability_counts)
from .matroids import (check_matroid_axioms, in_scaled_matroid_polytope,
                       matroid_from_json, random_point_in_polytope)
from .optimize import (ConstraintSpec, distribution_from_json,
                       knapsack_from_json)
from .schemes import GreedyOcrsFactory, MatroidChainFactory, factory_from_json
from .submodular import (SubmodularOracle, _check_ground,
                         half_subsample_value, multilinear_exact,
                         ocrs_submodular_value, run_submodular_probing,
                         submodular_from_json)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

log = logging.getLogger("ocrs")


def _load_json(path: str) -> dict:
    """The instance object in ``path``; the one reader that names the
    file.  Every other input error is a ValueError naming its field."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"instance file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise ValueError(f"instance {path} must be a JSON object")
    return obj


def constraint_from_json(obj: dict) -> ConstraintSpec:
    """A matroid descriptor, or ``{"type": "knapsack", "sizes": [...]}``."""
    if field(obj, "type", json_str) == "knapsack":
        return knapsack_from_json(obj)
    return matroid_from_json(obj)


def _unit(value):
    if not 0 <= value <= 1:
        raise ValueError("must lie in [0, 1]")
    return value


def _unit_float(value) -> float:
    return _unit(json_float(value))


def _probing_fields(obj: dict, b: float) -> tuple:
    """``(p, inner, outer, b)`` of a probing instance, as `probing` and
    submodular probing read them; ``b`` is the default scale."""
    def probabilities(value) -> list[float]:
        p = float_list(value)
        if not p:
            raise ValueError("must be nonempty")
        ground_size(len(p))
        return p

    return (field(obj, "p", probabilities),
            field(obj, "inner", constraint_from_json),
            field(obj, "outer", constraint_from_json),
            read_field("b", obj.get("b", b), _unit_float))


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_finite(estimate: MeanEstimate, name: str) -> None:
    """Before any output: an overflowing mean or half-width names its field."""
    if not np.isfinite([estimate.mean, estimate.halfwidth]).all():
        raise ValueError(f"'{name}' is too large: the mean or the "
                         f"half-width of the trial values overflows")


def _write_values_csv(path: str, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, v])


# ---------------------------------------------------------------------------
# scheme construction for verify-selectability


def _fit_point_to_factory(x: FractionalPoint,
                          factory: GreedyOcrsFactory) -> FractionalPoint:
    """Scale a candidate point down until it lies in the factory's b * P."""
    load = factory.load(x)
    scale = factory.b / load * (1 - 1e-12) if load > factory.b else 1.0
    return FractionalPoint(x.values * scale)


def _point_from_json(obj: dict, n: int) -> FractionalPoint:
    """The instance's ``x``, a point on ``n`` elements."""
    def point(value) -> FractionalPoint:
        x = FractionalPoint(float_list(value))
        if x.n != n:
            raise ValueError(f"has {x.n} coordinates, not {n}")
        return x

    return field(obj, "x", point)


def _default_point(instance: dict, factory: GreedyOcrsFactory,
                   seed: SeedSpec) -> FractionalPoint:
    if "x" in instance:
        return _point_from_json(instance, factory.n)
    gen = seed.stream(99)
    if isinstance(factory, MatroidChainFactory):
        return random_point_in_polytope(factory.matroid, factory.b, gen)
    raw = 0.25 + 0.75 * gen.random(factory.n)
    # a loop is in no feasible set, so every point of P is 0 on it
    raw[list(iter_bits(factory.loops))] = 0.0
    return _fit_point_to_factory(FractionalPoint(raw), factory)


def _process_pool(workers: int):
    """A pool of ``workers`` processes.  The pool modules (with them
    multiprocessing, socket and subprocess) are imported here, so that a
    serial run never loads them."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def cmd_verify_selectability(args) -> int:
    instance = _load_json(args.instance)
    seed = SeedSpec(args.seed)
    factory = factory_from_json(args.scheme, instance, args.b, args.eps,
                                args.exact)
    x = _default_point(instance, factory, seed)
    log.info("scheme=%s b=%s bound=%s (%s) trials=%d seed=%d", args.scheme,
             args.b, factory.bound(), factory.bound_expr, args.trials,
             args.seed)
    sampler = bind_sampler(factory, x, seed)
    blocks = num_blocks(args.trials)
    workers = min(args.workers, blocks)
    count = functools.partial(selectability_counts, sampler, x, args.trials,
                              seed)
    if workers > 1:
        ranges = [(i * blocks // workers, (i + 1) * blocks // workers)
                  for i in range(workers)]
        from concurrent.futures.process import BrokenProcessPool
        try:
            with _process_pool(workers) as pool:
                counts = sum(pool.map(count, ranges))
        except (OSError, NotImplementedError, BrokenProcessPool) as exc:
            # only a pool that cannot run falls back; run errors propagate
            log.warning("parallel run failed (%s); falling back to serial",
                        exc)
            counts = count((0, blocks))
    else:
        counts = count((0, blocks))
    report = report_from_counts(counts, args.trials, factory, seed,
                                scheme=args.scheme)
    payload = report.to_json_dict()
    payload["x"] = x.values.tolist()
    _write_json(args.out_json, payload)
    if args.out_csv:
        report.write_csv(args.out_csv)
    for row in report.rows():
        log.info("element %d: %.5f +- %.5f vs %s  %s", row["element"],
                 row["estimate"], row["ci_halfwidth"], factory.bound_expr,
                 "pass" if row["pass"] else "FAIL")
    return EXIT_PASS if report.all_pass() else EXIT_FAIL


def cmd_impossibility(args) -> int:
    n = read_field("--n", args.n, family_size)
    b = read_field("--b", args.b, lambda text: _unit(_rational(text)))
    best, witness = knapsack_deterministic_impossibility(n, b)
    expected = (1 - b) ** (n - 1)
    payload = {
        "n": n,
        "b": str(b),
        "best_selectability": str(best),
        "best_selectability_float": float(best),
        "expected": str(expected),
        "matches_closed_form": best == expected,
        "witness_family": [sorted(e for e in range(n) if (m >> e) & 1)
                           for m in witness],
    }
    _write_json(args.out_json, payload)
    return EXIT_PASS if best == expected else EXIT_FAIL


def _arrival_order(value):
    if isinstance(value, list):
        return tuple(int_list(value))
    if value not in ("worst", "identity"):
        raise ValueError("must be 'worst', 'identity' or a list of JSON "
                         "integers")
    return value


def cmd_prophet(args) -> int:
    obj = _load_json(args.instance)
    matroid = field(obj, "matroid", matroid_from_json)
    dists = field(obj, "dists",
                  lambda v: tuple(map(distribution_from_json, v)))
    # a given --order wins over the instance's "order", which wins over
    # the default, worst
    policy = (args.order if args.order is not None else
              read_field("order", obj.get("order", "worst"), _arrival_order))
    instance = ProphetInstance(matroid, dists, arrival_order=policy)
    seed = SeedSpec(args.seed)
    factory = MatroidChainFactory(matroid, args.b)
    pipeline = prepare_prophet(instance, factory, seed)
    benchmark = brute_force_prophet_opt(instance)
    bound = args.b * factory.bound()
    bound_expr = "b * (1-b)"
    log.info("prophet: b=%s bound=%s (%s) trials=%d seed=%d", args.b, bound,
             bound_expr, args.trials, args.seed)
    collect: Optional[list] = [] if args.out_csv else None
    if instance.arrival_order == "worst" and instance.n > 6:
        # past 6! orders the fixed-order search gives way to the almighty
        # adversary, who is at least as strong
        log.info("prophet: almighty adversary over %d elements", instance.n)
        estimate = prophet_almighty_value(pipeline, args.trials, seed,
                                          collect)
        order = "almighty"
    elif instance.arrival_order == "worst":
        log.info("prophet: exhaustive worst-order search over %d elements",
                 instance.n)
        result, estimate = prophet_worst_order(pipeline, args.trials, seed,
                                               collect=collect)
        order = list(result.worst_order)
    else:
        order = list(range(instance.n) if instance.arrival_order == "identity"
                     else instance.arrival_order)
        states = prophet_trial_states(pipeline, args.trials, seed)
        estimate = prophet_value_under_order(pipeline, states, order,
                                             collect=collect)
    _check_finite(estimate, "dists")
    report = estimate_competitive_ratio(estimate, benchmark, bound, bound_expr)
    payload = {
        "relaxation_value": pipeline.relaxation_value,
        "benchmark_expected_max": benchmark,
        "order": order,
        "mean": report.mean,
        "ci_halfwidth": estimate.halfwidth,
        "ratio": report.ratio,
        "bound": bound,
        "bound_expr": bound_expr,
        "trials": args.trials,
        "seed": args.seed,
        "pass": report.passes(),
    }
    _write_json(args.out_json, payload)
    if args.out_csv:
        _write_values_csv(args.out_csv, collect)
    return EXIT_PASS if report.passes() else EXIT_FAIL


def cmd_probing(args) -> int:
    obj = _load_json(args.instance)
    w = field(obj, "w", float_list)
    p, inner, outer, b = _probing_fields(obj, args.b)
    deadlines = obj.get("deadlines")
    instance = ProbingInstance(
        p=tuple(p), w=tuple(w), inner=inner, outer=outer, b=b,
        deadlines=(tuple(read_field("deadlines", deadlines, int_list))
                   if deadlines is not None else None))
    seed = SeedSpec(args.seed)
    pipeline = prepare_probing(instance, seed)
    log.info("probing: b=%s bound=%s (%s) trials=%d seed=%d", instance.b,
             pipeline.bound, pipeline.bound_expr, args.trials, args.seed)
    collect: Optional[list] = [] if args.out_csv else None
    estimate = probing_mean_value(pipeline, args.trials, seed, collect=collect)
    _check_finite(estimate, "w")
    if args.dump_lp:
        with open(args.dump_lp, "w") as fh:
            fh.write(pipeline.lp.dump() + "\n")
    report = estimate_competitive_ratio(estimate, pipeline.lp.value,
                                        pipeline.bound, pipeline.bound_expr)
    payload = {
        "lp_value": pipeline.lp.value,
        "x_star": pipeline.lp.x.values.tolist(),
        "order": list(pipeline.order),
        "mean": report.mean,
        "ci_halfwidth": estimate.halfwidth,
        "ratio": report.ratio,
        "bound": pipeline.bound,
        "bound_expr": pipeline.bound_expr,
        "trials": args.trials,
        "seed": args.seed,
        "violations": 0,
        "pass": report.passes(),
    }
    _write_json(args.out_json, payload)
    if args.out_csv:
        _write_values_csv(args.out_csv, collect)
    return EXIT_PASS if report.passes() else EXIT_FAIL


def _objective(value, probing: bool) -> SubmodularOracle:
    """The instance's ``f``, tabulated and audited; probing needs it
    monotone."""
    f = submodular_from_json(value)
    if probing and not f.monotone:
        raise ValueError("submodular probing needs a monotone objective")
    return f


def cmd_submodular(args) -> int:
    obj = _load_json(args.instance)
    f = field(obj, "f", lambda value: _objective(value, "p" in obj))
    seed = SeedSpec(args.seed)
    log.info("submodular: kind=%s monotone=%s trials=%d seed=%d", f.kind,
             f.monotone, args.trials, args.seed)
    if "p" in obj:
        p, inner, outer, b = _probing_fields(obj, args.b)
        _check_ground(f, inner.n, "'inner'")
        _check_ground(f, outer.n, "'outer'")
        result = run_submodular_probing(f, p, inner, outer, b, args.trials,
                                        seed)
        _check_finite(result.estimate, "f")
        ok = passes_with_margin(result.estimate.mean,
                                result.estimate.halfwidth, result.target)
        payload = {
            "mode": "probing",
            "x_tilde": result.x_tilde.values.tolist(),
            "mean": result.estimate.mean,
            "ci_halfwidth": result.estimate.halfwidth,
            "benchmark_multilinear": result.multilinear_benchmark,
            "scheme_constant": result.scheme_constant,
            "bound_expr": result.bound_expr,
            "trials": args.trials,
            "seed": args.seed,
            "pass": ok,
        }
        _write_json(args.out_json, payload)
        return EXIT_PASS if ok else EXIT_FAIL
    b = read_field("b", obj.get("b", args.b), _unit_float)
    matroid = field(obj, "matroid", matroid_from_json)
    _check_ground(f, matroid.n, "'matroid'")
    factory = MatroidChainFactory(matroid, b)
    if "x" in obj:
        x = _point_from_json(obj, matroid.n)
        if not in_scaled_matroid_polytope(matroid, x, b):
            raise ValueError("'x' is outside b * P")
    else:
        x = random_point_in_polytope(matroid, b, seed.stream(99))
    if f.monotone:
        estimate = ocrs_submodular_value(f, factory, x, args.trials, seed)
        constant = factory.bound()
        mode = "monotone"
    else:
        estimate = half_subsample_value(f, factory, x, args.trials, seed)
        constant = factory.bound() / 4.0
        mode = "half-subsample"
    _check_finite(estimate, "f")
    benchmark = constant * multilinear_exact(f, x)
    ok = passes_with_margin(estimate.mean, estimate.halfwidth, benchmark)
    payload = {
        "mode": mode,
        "x": x.values.tolist(),
        "mean": estimate.mean,
        "ci_halfwidth": estimate.halfwidth,
        "target": benchmark,
        "scheme_constant": constant,
        "trials": args.trials,
        "seed": args.seed,
        "pass": ok,
    }
    _write_json(args.out_json, payload)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_validate_matroid(args) -> int:
    obj = _load_json(args.instance)
    matroid = field(obj, "matroid", matroid_from_json)
    report = check_matroid_axioms(matroid)
    checks = {"axioms": report.ok}
    if not report.ok:
        checks["failure"] = report.failure
    checks["rank_submodular_monotone"] = report.axiom not in (
        "unit increase", "submodularity")
    closures = matroid.polytope().closures()
    checks["span_idempotent"] = bool(
        np.array_equal(closures[closures], closures))
    payload = {"matroid": obj["matroid"], "checks": checks,
               "pass": all(v for k, v in checks.items() if k != "failure")}
    _write_json(args.out_json, payload)
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocrs",
        description="online contention resolution experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_csv: bool, parallel: bool):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--b", type=_finite_float, default=0.5,
                       help="polytope scale (default 0.5)")
        p.add_argument("--trials", type=int, default=100000)
        p.add_argument("--seed", type=int, default=0,
                       help="master seed, in [0, 2^64)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (affects wall time only)"
                       if parallel else "accepted and ignored: this command "
                       "runs serially")
        if out_csv:
            p.add_argument("--out-csv", default=None)
        p.add_argument("--out-json", default=None)

    p = sub.add_parser("verify-selectability",
                       help="estimate per-element selectability vs the bound")
    common(p, out_csv=True, parallel=True)
    p.add_argument("--eps", type=_finite_float, default=0.05,
                   help="chain construction tolerance")
    p.add_argument("--scheme", required=True,
                   choices=["matroid", "matching", "knapsack", "intersect"])
    p.add_argument("--exact", action="store_const", const=True, default=None,
                   help="force exact span probabilities in the chain")

    p = sub.add_parser("impossibility",
                       help="deterministic knapsack impossibility enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", required=True, help="rational scale, e.g. 0.5 or 1/4")
    p.add_argument("--out-json", default=None)

    p = sub.add_parser("prophet", help="prophet pipeline competitive ratio")
    common(p, out_csv=True, parallel=False)
    p.add_argument("--order", choices=["worst", "identity"], default=None,
                   help="arrival order; overrides the instance's 'order' "
                        "(default: the instance's, else worst)")

    p = sub.add_parser("probing", help="stochastic probing pipeline, with "
                       "deadlines when the instance has them")
    common(p, out_csv=True, parallel=False)
    p.add_argument("--dump-lp", default=None,
                   help="write the generated LP rows and the separation "
                        "certificate to this file")

    p = sub.add_parser("submodular", help="submodular objective pipelines")
    common(p, out_csv=False, parallel=False)

    p = sub.add_parser("validate-matroid", help="exhaustive matroid audits")
    p.add_argument("instance")
    p.add_argument("--out-json", default=None)

    return parser


_COMMANDS = {
    "verify-selectability": cmd_verify_selectability,
    "impossibility": cmd_impossibility,
    "prophet": cmd_prophet,
    "probing": cmd_probing,
    "submodular": cmd_submodular,
    "validate-matroid": cmd_validate_matroid,
}


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("OCRS_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("trials", "workers"):
            if getattr(args, flag, 1) < 1:
                raise ValueError(f"{flag} must be at least 1")
        if not 0 <= getattr(args, "seed", 0) < 1 << 64:
            raise ValueError("--seed must lie in [0, 2^64)")
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
