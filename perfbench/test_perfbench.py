"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import diff_against_reference, report_problems  # noqa: E402
from run import Sample, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "spec.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--trials", "300"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = _run(workload, trace=0)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"[{workload}] failed_frac: 0 fraction" in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_trace_prints_every_per_layer_metric(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in SPEC["layer_map"]:
        if workload in entry["workloads"]:
            for name in entry["metrics"]:
                if name != "trace.overhead_frac":
                    assert result["metrics"][name]["value"] > 0, name


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("matching-k10", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _reference(workload: str) -> bytes:
    with open(os.path.join(HERE, "reference", f"{workload}.json"), "rb") as fh:
        return fh.read()


def _tampered(workload: str, edit) -> bytes:
    obj = json.loads(_reference(workload))
    edit(obj)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _sample(report: bytes) -> Sample:
    sidecar = {"start": 0.0, "first_draw": 0.5, "end": 1.5, "exit": 0}
    return Sample(False, 2.0, 50.0, 0, report, sidecar, 1000)


def _flip_pass(obj: dict) -> None:
    obj["elements"][0]["pass"] = False
    obj["all_pass"] = False


def _perturb_estimate(obj: dict) -> None:
    obj["elements"][0]["estimate"] *= 1 + 1e-6


@pytest.mark.parametrize("edit", [_flip_pass, _perturb_estimate])
def test_tampered_report_counts_in_failed_frac(edit, capsys):
    reference = _reference("matching-k10")
    samples = [_sample(reference), _sample(reference),
               _sample(_tampered("matching-k10", edit))]
    for s in samples:
        s.problems += report_problems(s.report, s.exit_code, samples[0].report,
                                      json.loads(reference))
    _metrics, attempted, failed = summarize("", samples, False, BENCH)
    assert (attempted, failed) == (3, 1)
    assert "failed_frac: 0.333333 fraction (1 of 3 commands)" in capsys.readouterr().out


def test_reference_comparison_tolerates_rounding_only():
    reference = json.loads(_reference("prophet-worst-u52"))
    close = dict(reference, mean=reference["mean"] * (1 + 1e-12))
    assert diff_against_reference(close, reference) == []
    far = dict(reference, mean=reference["mean"] * (1 + 1e-7))
    assert diff_against_reference(far, reference) == ["$.mean"]
    reordered = dict(reference, order=list(reversed(reference["order"])))
    assert "$.order[0]" in diff_against_reference(reordered, reference)
    assert diff_against_reference(dict(reference, trials=1), reference) == [
        "$.trials"]


def test_spec_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry, workload in zip(SPEC["workloads"], WORKLOADS.values()):
        assert entry["trials"] == workload.trials
        assert entry["generator"] == workload.generator
        assert entry["why"] == workload.why
    mapped = [name for entry in SPEC["layer_map"] for name in entry["metrics"]]
    assert sorted(set(mapped)) == sorted(m["name"] for m in BENCH["per_layer"])
