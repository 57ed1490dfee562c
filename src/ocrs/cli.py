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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from typing import Optional

import numpy as np

from .applications import (ProbingInstance, ProphetInstance,
                           brute_force_prophet_opt, estimate_competitive_ratio,
                           prepare_probing, prepare_prophet,
                           probing_mean_value, prophet_trial_states,
                           prophet_value_under_order, prophet_worst_order)
from .core import (FractionalPoint, SeedSpec, float_list, int_list,
                   num_blocks, read_field)
from .harness import (MeanEstimate, knapsack_deterministic_impossibility,
                      report_from_counts, selectability_counts)
from .matroids import (check_matroid_axioms, in_scaled_matroid_polytope,
                       matroid_from_json, random_point_in_polytope)
from .optimize import KnapsackConstraint, distribution_from_json
from .schemes import GreedyOcrsFactory, MatroidChainFactory, factory_from_json
from .submodular import (half_subsample_value, multilinear_exact,
                         ocrs_submodular_value, run_submodular_probing,
                         submodular_from_json)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

log = logging.getLogger("ocrs")


class InstanceError(ValueError):
    """Malformed instance input; the message names the offending field."""


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise InstanceError(f"instance file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise InstanceError(f"instance {path} must be a JSON object")
    return obj


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise InstanceError(f"instance {path} is missing field '{field}'")
    return obj[field]


def constraint_from_json(obj: dict, path: str):
    if not isinstance(obj, dict) or "type" not in obj:
        raise InstanceError(
            f"constraint in {path} must be an object with a 'type'")
    if obj["type"] == "knapsack":
        return KnapsackConstraint(tuple(read_field(
            "sizes", _require(obj, "sizes", path), float_list)))
    try:
        return matroid_from_json(obj)
    except ValueError as exc:
        raise InstanceError(f"bad constraint in {path}: {exc}")


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_finite(estimate: MeanEstimate, field: str, path: str) -> None:
    """Before any output: an overflowing mean or half-width names its field."""
    if not np.isfinite([estimate.mean, estimate.halfwidth]).all():
        raise InstanceError(f"'{field}' in {path} is too large: the mean or "
                            f"the half-width of the trial values overflows")


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


def _point_from_json(obj: dict, path: str) -> FractionalPoint:
    try:
        return FractionalPoint(obj["x"])
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"bad 'x' in {path}: {exc}") from exc


def _default_point(instance: dict, path: str, factory: GreedyOcrsFactory,
                   seed: SeedSpec) -> FractionalPoint:
    if "x" in instance:
        x = _point_from_json(instance, path)
        if x.n != factory.n:
            raise InstanceError(f"'x' in {path} has the wrong length")
        return x
    gen = seed.stream(99)
    if isinstance(factory, MatroidChainFactory):
        return random_point_in_polytope(factory.matroid, factory.b, gen)
    raw = FractionalPoint(0.25 + 0.75 * gen.random(factory.n))
    return _fit_point_to_factory(raw, factory)


def _count_range(factory: GreedyOcrsFactory, x: FractionalPoint,
                 trials: int, seed: SeedSpec,
                 block_range: tuple[int, int]) -> np.ndarray:
    # every range binds the same sampler; only the range that starts at
    # block 0 logs the bind, so the log does not depend on --workers
    schemes_log = logging.getLogger("ocrs.schemes")
    level = schemes_log.level
    if block_range[0] != 0:
        schemes_log.setLevel(logging.CRITICAL + 1)
    try:
        return selectability_counts(factory, x, trials, seed,
                                    block_range=block_range)
    finally:
        schemes_log.setLevel(level)


def cmd_verify_selectability(args) -> int:
    instance = _load_json(args.instance)
    seed = SeedSpec(args.seed)
    try:
        factory = factory_from_json(args.scheme, instance, args.b, args.eps,
                                    args.exact)
    except ValueError as exc:
        raise InstanceError(f"bad instance {args.instance}: {exc}") from exc
    x = _default_point(instance, args.instance, factory, seed)
    log.info("scheme=%s b=%s bound=%s (%s) trials=%d seed=%d", args.scheme,
             args.b, factory.bound(), factory.bound_expr, args.trials,
             args.seed)
    blocks = num_blocks(args.trials)
    workers = min(args.workers, blocks)
    count = functools.partial(_count_range, factory, x, args.trials, seed)
    if workers > 1:
        ranges = [(i * blocks // workers, (i + 1) * blocks // workers)
                  for i in range(workers)]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
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
    try:
        b = Fraction(args.b)
    except ValueError:
        raise InstanceError(f"--b must be a rational, got {args.b!r}")
    best, witness = knapsack_deterministic_impossibility(args.n, b)
    expected = (1 - b) ** (args.n - 1)
    payload = {
        "n": args.n,
        "b": str(b),
        "best_selectability": str(best),
        "best_selectability_float": float(best),
        "expected": str(expected),
        "matches_closed_form": best == expected,
        "witness_family": [sorted(e for e in range(args.n) if (m >> e) & 1)
                           for m in witness],
    }
    _write_json(args.out_json, payload)
    return EXIT_PASS if best == expected else EXIT_FAIL


def cmd_prophet(args) -> int:
    instance_obj = _load_json(args.instance)
    matroid = matroid_from_json(_require(instance_obj, "matroid",
                                         args.instance))
    dists = read_field("dists", _require(instance_obj, "dists", args.instance),
                       lambda v: tuple(map(distribution_from_json, v)))
    # a given --order wins over the instance's "order", which wins over
    # the default, worst
    policy = (args.order if args.order is not None
              else instance_obj.get("order", "worst"))
    if isinstance(policy, list):
        policy = tuple(read_field("order", policy, int_list))
    elif policy not in ("worst", "identity"):
        raise InstanceError(f"'order' in {args.instance} must be 'worst', "
                            f"'identity' or a list of JSON integers")
    try:
        instance = ProphetInstance(matroid, dists, arrival_order=policy)
    except ValueError as exc:
        raise InstanceError(f"bad instance {args.instance}: {exc}")
    seed = SeedSpec(args.seed)
    factory = MatroidChainFactory(matroid, args.b, eps=args.eps)
    pipeline = prepare_prophet(instance, factory, seed)
    benchmark = brute_force_prophet_opt(instance)
    bound = args.b * factory.bound()
    bound_expr = "b * (1-b)"
    log.info("prophet: b=%s bound=%s (%s) trials=%d seed=%d", args.b, bound,
             bound_expr, args.trials, args.seed)
    collect: Optional[list] = [] if args.out_csv else None
    if instance.arrival_order == "worst":
        mode = "exhaustive" if instance.n <= 6 else "greedy-heuristic"
        log.info("prophet: %s worst-order search over %d elements", mode,
                 instance.n)
        result, estimate = prophet_worst_order(pipeline, args.trials, seed,
                                               mode=mode, collect=collect)
        order = result.worst_order
    else:
        if isinstance(instance.arrival_order, tuple):
            order = instance.arrival_order
        else:
            order = tuple(range(instance.n))
        states = prophet_trial_states(pipeline, args.trials, seed)
        estimate = prophet_value_under_order(pipeline, states, order,
                                             collect=collect)
    _check_finite(estimate, "dists", args.instance)
    report = estimate_competitive_ratio(estimate, benchmark, bound, bound_expr)
    payload = {
        "relaxation_value": pipeline.relaxation_value,
        "benchmark_expected_max": benchmark,
        "order": list(order),
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


def _load_probing_instance(args, need_deadlines: bool) -> ProbingInstance:
    obj = _load_json(args.instance)
    deadlines = obj.get("deadlines")
    if need_deadlines and deadlines is None:
        raise InstanceError(
            f"instance {args.instance} is missing field 'deadlines'")
    if not need_deadlines and deadlines is not None:
        raise InstanceError(
            "instance has deadlines; use the probing-deadlines command")
    return ProbingInstance(
        p=tuple(read_field("p", _require(obj, "p", args.instance),
                           float_list)),
        w=tuple(read_field("w", _require(obj, "w", args.instance),
                           float_list)),
        inner=constraint_from_json(_require(obj, "inner", args.instance),
                                   args.instance),
        outer=constraint_from_json(_require(obj, "outer", args.instance),
                                   args.instance),
        b=read_field("b", obj.get("b", args.b), float),
        deadlines=(tuple(read_field("deadlines", deadlines, int_list))
                   if deadlines else None))


def _run_probing_command(args, need_deadlines: bool) -> int:
    instance = _load_probing_instance(args, need_deadlines)
    seed = SeedSpec(args.seed)
    pipeline = prepare_probing(instance, seed)
    log.info("probing: b=%s bound=%s (%s) trials=%d seed=%d", instance.b,
             pipeline.bound, pipeline.bound_expr, args.trials, args.seed)
    collect: Optional[list] = [] if args.out_csv else None
    estimate = probing_mean_value(pipeline, args.trials, seed, collect=collect)
    _check_finite(estimate, "w", args.instance)
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


def cmd_probing(args) -> int:
    return _run_probing_command(args, need_deadlines=False)


def cmd_probing_deadlines(args) -> int:
    return _run_probing_command(args, need_deadlines=True)


def cmd_submodular(args) -> int:
    obj = _load_json(args.instance)
    f = submodular_from_json(_require(obj, "f", args.instance))
    b = read_field("b", obj.get("b", args.b), float)
    if not 0.0 <= b <= 1.0:
        raise InstanceError(f"'b' in {args.instance} must lie in [0, 1]")
    seed = SeedSpec(args.seed)
    log.info("submodular: kind=%s monotone=%s trials=%d seed=%d", f.kind,
             f.monotone, args.trials, args.seed)
    if "p" in obj:
        p = read_field("p", obj["p"], float_list)
        inner = constraint_from_json(_require(obj, "inner", args.instance),
                                     args.instance)
        outer = constraint_from_json(_require(obj, "outer", args.instance),
                                     args.instance)
        _check_ground_size(f, {"inner": inner, "outer": outer}, args.instance)
        result = run_submodular_probing(f, p, inner, outer, b, args.trials,
                                        seed)
        _check_finite(result.estimate, "f", args.instance)
        ok = (result.estimate.mean + 3 * result.estimate.halfwidth
              >= result.target - 1e-15)
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
    matroid = matroid_from_json(_require(obj, "matroid", args.instance))
    _check_ground_size(f, {"matroid": matroid}, args.instance)
    factory = MatroidChainFactory(matroid, b, eps=args.eps)
    if "x" in obj:
        x = _point_from_json(obj, args.instance)
        if not in_scaled_matroid_polytope(matroid, x, b):
            raise InstanceError(f"'x' in {args.instance} is outside b * P")
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
    _check_finite(estimate, "f", args.instance)
    benchmark = constant * multilinear_exact(f, x)
    ok = estimate.mean + 3 * estimate.halfwidth >= benchmark - 1e-15
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


def _check_ground_size(f, constraints: dict, path: str) -> None:
    for name, spec in constraints.items():
        if spec.n != f.n:
            raise InstanceError(f"'f' in {path} is over {f.n} elements but "
                                f"'{name}' has {spec.n}")


def cmd_validate_matroid(args) -> int:
    obj = _load_json(args.instance)
    matroid = matroid_from_json(_require(obj, "matroid", args.instance))
    if matroid.size() > 12:
        raise InstanceError("exhaustive validation is limited to 12 elements")
    report = check_matroid_axioms(matroid)
    checks = {"axioms": report.ok}
    if not report.ok:
        checks["failure"] = report.failure
    if matroid.size() <= 10:
        checks["rank_submodular_monotone"] = (
            matroid.polytope().is_submodular())
    span_ok = all(matroid.span(matroid.span(m)) == matroid.span(m)
                  for m in range(min(1 << matroid.size(), 1 << 10)))
    checks["span_idempotent"] = span_ok
    payload = {"matroid": obj["matroid"], "checks": checks,
               "pass": all(v for k, v in checks.items() if k != "failure")}
    _write_json(args.out_json, payload)
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------


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

    def common(p, eps: bool, out_csv: bool):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--b", type=_finite_float, default=0.5,
                       help="polytope scale (default 0.5)")
        if eps:
            p.add_argument("--eps", type=_finite_float, default=0.05,
                           help="chain construction tolerance")
        p.add_argument("--trials", type=int, default=100000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (affects wall time only)")
        if out_csv:
            p.add_argument("--out-csv", default=None)
        p.add_argument("--out-json", default=None)

    p = sub.add_parser("verify-selectability",
                       help="estimate per-element selectability vs the bound")
    common(p, eps=True, out_csv=True)
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
    common(p, eps=True, out_csv=True)
    p.add_argument("--order", choices=["worst", "identity"], default=None,
                   help="arrival order; overrides the instance's 'order' "
                        "(default: the instance's, else worst)")

    p = sub.add_parser("probing", help="stochastic probing pipeline")
    common(p, eps=False, out_csv=True)
    p.add_argument("--dump-lp", default=None,
                   help="write the generated LP rows and the separation "
                        "certificate to this file")

    p = sub.add_parser("probing-deadlines",
                       help="stochastic probing with deadlines")
    common(p, eps=False, out_csv=True)
    p.add_argument("--dump-lp", default=None)

    p = sub.add_parser("submodular", help="submodular objective pipelines")
    common(p, eps=True, out_csv=False)

    p = sub.add_parser("validate-matroid", help="exhaustive matroid audits")
    p.add_argument("instance")
    p.add_argument("--out-json", default=None)

    return parser


_COMMANDS = {
    "verify-selectability": cmd_verify_selectability,
    "impossibility": cmd_impossibility,
    "prophet": cmd_prophet,
    "probing": cmd_probing,
    "probing-deadlines": cmd_probing_deadlines,
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
                raise InstanceError(f"{flag} must be at least 1")
        return _COMMANDS[args.command](args)
    except InstanceError as exc:
        log.error("%s", exc)
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
