"""Benchmark of the ``ocrs`` CLI on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload matching-k10 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each command runs in a fresh, single-process interpreter (``perfbench/child.py``
with ``--workers 1``), repeatedly, until ``--seconds`` is used up.  The same
seed generates the instance and is passed to the command as ``--seed``.  With
``--trace 0`` the benchmark reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
commands and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import report_problems  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: Every run makes at least this many untraced commands, so that each
#: timing is a median and byte-identity across repeats is checked.
MIN_COMMANDS = 3
#: Each workload's commands must end well inside three minutes.
RUN_LIMIT_S = 170.0
RUNS_DIR = ".perfbench_runs"
_SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


class Sample:
    """One command: its wall time, peak RSS, report and timing sidecar."""

    def __init__(self, traced: bool, wall: float, rss_mb: float, exit_code: int,
                 report: bytes | None, sidecar: dict | None, trials: int):
        self.traced = traced
        self.wall = wall
        self.rss_mb = rss_mb
        self.exit_code = exit_code
        self.report = report
        self.sidecar = sidecar
        self.trials = trials
        self.problems: list[str] = []

    @property
    def timed(self) -> bool:
        return (self.sidecar is not None
                and self.sidecar.get("first_draw") is not None)

    def end_to_end(self) -> dict[str, float]:
        sc = self.sidecar
        return {"wall_s": self.wall,
                "setup_s": sc["first_draw"] - sc["start"],
                "trials_per_s": self.trials / (sc["end"] - sc["first_draw"]),
                "peak_rss_mb": self.rss_mb}


def run_command(root: str, argv: list[str], rundir: str, run_id: int,
                traced: bool, trials: int, timeout: float) -> Sample:
    """Spawn one child, wait for it with ``wait4`` and collect its outputs."""
    out_json = os.path.join(rundir, f"report-{run_id}.json")
    sidecar_path = os.path.join(rundir, f"timing-{run_id}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--src", os.path.join(root, "src"), "--sidecar", sidecar_path,
           "--trace", str(int(traced)), "--run-id", str(run_id)]
    if traced:
        cmd += ["--spans", os.path.join(rundir, "spans.npz")]
    cmd += ["--", *argv, "--out-json", out_json]
    env = dict(os.environ, **_SINGLE_THREAD_ENV)
    with open(os.path.join(rundir, f"log-{run_id}.txt"), "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=rundir, env=env)
        pidfd = os.pidfd_open(proc.pid)
        ready: list = []
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 1.0))
        finally:
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = _read(out_json)
    sidecar_bytes = _read(sidecar_path)
    sidecar = json.loads(sidecar_bytes) if sidecar_bytes else None
    sample = Sample(traced, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                    report, sidecar, trials)
    if not ready:
        sample.problems.append(f"killed after {timeout:.0f} s")
    return sample


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def warm_up(root: str) -> None:
    """Byte-compile the sources and import them once, untimed."""
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import ocrs.cli", os.path.join(root, "src")],
                   check=True, env=dict(os.environ, **_SINGLE_THREAD_ENV))


def run_workload(root: str, workload: Workload, seed: int, seconds: float,
                 trace: bool, trials: int, hard_deadline: float) -> list[Sample]:
    """Repeat the workload's command until ``seconds`` are used up."""
    rundir = os.path.join(root, RUNS_DIR, f"{workload.name}-s{seed}-t{int(trace)}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    instance_path = os.path.join(rundir, "instance.json")
    with open(instance_path, "w") as fh:
        json.dump(workload.instance(seed), fh, sort_keys=True)
    argv = workload.argv(instance_path, seed, trials)
    reference = None
    if seed == DEFAULT_SEED and trials == workload.trials:
        with open(os.path.join(HERE, "reference", f"{workload.name}.json")) as fh:
            reference = json.load(fh)

    samples: list[Sample] = []
    min_commands = 2 * MIN_COMMANDS - 1 if trace else MIN_COMMANDS
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < hard_deadline:
        traced = trace and len(samples) % 2 == 1
        same = [s.wall for s in samples if s.traced == traced] or \
            [s.wall for s in samples]
        expected = statistics.median(same) if same else 0.0
        if (len(samples) >= min_commands
                and time.perf_counter() + expected > deadline):
            break
        sample = run_command(root, argv, rundir, len(samples), traced, trials,
                             hard_deadline - time.perf_counter())
        samples.append(sample)
        if sample.problems:
            break

    first_report = samples[0].report if samples else None
    for sample in samples:
        sample.problems += report_problems(sample.report, sample.exit_code,
                                           first_report, reference)
        if not sample.timed:
            sample.problems.append("no timing sidecar or no trial drawn")
    return samples


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def summarize(prefix: str, samples: list[Sample], trace: bool,
              bench: dict) -> tuple[dict, int, int]:
    """Print one workload's metrics; return (metrics, attempted, failed)."""
    failed = [s for s in samples if s.problems]
    for i, s in enumerate(samples):
        for problem in s.problems:
            print(f"{prefix}command {i} failed: {problem}")
    good = [s for s in samples if not s.problems]
    untraced = [s for s in good if not s.traced]
    metrics: dict[str, dict] = {}
    if untraced:
        for m in bench["end_to_end"]:
            values = [s.end_to_end()[m["name"]] for s in untraced]
            median = statistics.median(values)
            tail = tail_percentile(values)
            quartiles = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else [median] * 3)
            tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else
                         "tail n/a (needs >= 11 samples)")
            print(f"{prefix}{m['name']}: median {median:.6g} {m['unit']}, "
                  f"q1 {quartiles[0]:.6g}, q3 {quartiles[2]:.6g}, {tail_text}, "
                  f"n={len(values)}")
            if not trace:
                metrics[m["name"]] = {"value": median, "unit": m["unit"]}
    traced = [s for s in good if s.traced]
    if trace and traced and untraced:
        layers = [s.sidecar["layers"] for s in traced]
        overhead = (statistics.median(s.wall for s in traced)
                    / statistics.median(s.wall for s in untraced) - 1.0)
        for m in bench["per_layer"]:
            if m["name"] == "trace.overhead_frac":
                value = overhead
            else:
                value = statistics.median(l.get(m["name"], 0.0) for l in layers)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{prefix}{m['name']}: {value:.6g} {m['unit']} "
                  f"(median of {len(traced)} traced commands)")
    print(f"{prefix}failed_frac: {len(failed) / max(len(samples), 1):.6g} "
          f"fraction ({len(failed)} of {len(samples)} commands)")
    return metrics, len(samples), len(failed)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override the workload's trial count (smoke "
                             "tests); skips the reference comparison")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.trials or 1) < 1:
        parser.error("--seed must be >= 0, --seconds and --trials positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ocrs", "cli.py")):
        print("perfbench: ./src/ocrs not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    warm_up(root)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        workload = WORKLOADS[name]
        trials = args.trials if args.trials is not None else workload.trials
        samples = run_workload(root, workload, args.seed, args.seconds,
                               bool(args.trace), trials,
                               time.perf_counter() + RUN_LIMIT_S)
        prefix = f"[{name}] "
        got, n_attempted, n_failed = summarize(prefix, samples,
                                               bool(args.trace), bench)
        attempted += n_attempted
        failed += n_failed
        if len(names) > 1:
            got = {f"{name}.{key}": value for key, value in got.items()}
        metrics.update(got)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if len(names) == 1 and set(metrics) != {m["name"] for m in wanted}:
        print("perfbench: no command completed with usable timings",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
