"""Correctness checks that decide whether a benchmark command failed.

A command fails if it exits non-zero, if its report says a bound failed, if
its report bytes differ from the other commands of the same run (same seed,
same code), or, on the default seed at the workload's trial count, if it
differs from the committed reference report.  Against the reference,
integers, strings, booleans and ``order`` must match exactly and floats
within 1e-9 relative, so that a summation-order change is not a failure but
a wrong estimate is.
"""

from __future__ import annotations

import json
import math
from typing import Optional

FLOAT_RTOL = 1e-9


def report_problems(report: Optional[bytes], exit_code: int,
                    first_report: Optional[bytes],
                    reference: Optional[dict]) -> list[str]:
    """Reasons one command counts as failed; empty when it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report is None:
        return problems + ["no report written"]
    try:
        obj = json.loads(report)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(obj, dict):
        return problems + ["report is not a JSON object"]
    if obj.get("all_pass", obj.get("pass")) is not True:
        problems.append("report says a bound failed")
    if first_report is not None and report != first_report:
        problems.append("report differs from the run's first report")
    if reference is not None:
        problems += [f"differs from reference at {path}"
                     for path in diff_against_reference(obj, reference)]
    return problems


def diff_against_reference(value, reference, path: str = "$") -> list[str]:
    """Paths where ``value`` does not match ``reference`` (see module doc)."""
    if isinstance(reference, bool) or isinstance(value, bool):
        return [] if value is reference else [path]
    if isinstance(reference, float) or isinstance(value, float):
        if not (isinstance(value, (int, float))
                and isinstance(reference, (int, float))):
            return [path]
        if math.isnan(reference) or math.isnan(value):
            return [] if math.isnan(reference) and math.isnan(value) else [path]
        scale = max(abs(value), abs(reference))
        return [] if abs(value - reference) <= FLOAT_RTOL * scale else [path]
    if isinstance(reference, dict):
        if not isinstance(value, dict) or value.keys() != reference.keys():
            return [path]
        return [p for key in reference
                for p in diff_against_reference(value[key], reference[key],
                                                f"{path}.{key}")]
    if isinstance(reference, list):
        if not isinstance(value, list) or len(value) != len(reference):
            return [path]
        return [p for i, (v, r) in enumerate(zip(value, reference))
                for p in diff_against_reference(v, r, f"{path}[{i}]")]
    # int, str, None; ``order`` is a list of ints, so it lands here exactly
    return [] if type(value) is type(reference) and value == reference else [path]
