"""The benchmark's workloads: fixed instance structure, seeded numeric fields.

Each workload names one ``ocrs`` CLI command.  ``instance(seed)`` returns the
instance JSON object for that seed; the same seed always gives the same
object, and the benchmark passes the same seed to the command as ``--seed``.
Numeric fields vary with the seed only inside narrow ranges, so that the
work a command does (and therefore its timing) is nearly the same on every
seed, while the reports differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Seed whose reports are committed under ``perfbench/reference``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    trials: int
    why: str
    generator: str
    make: Callable[[np.random.Generator], dict]

    def instance(self, seed: int) -> dict:
        return self.make(np.random.default_rng([seed, _salt(self.name)]))

    def argv(self, instance_path: str, seed: int, trials: int) -> list[str]:
        """CLI arguments for one command (``ocrs.cli.main`` argv)."""
        return [self.command[0], instance_path, *self.command[1:],
                "--trials", str(trials), "--seed", str(seed), "--workers", "1"]


def _salt(name: str) -> int:
    return int.from_bytes(name.encode(), "little") % (1 << 62)


def _complete_graph_edges(vertices: int,
                          rng: np.random.Generator) -> list[list[int]]:
    """Edges of K_vertices with vertex labels and edge order shuffled."""
    label = rng.permutation(vertices)
    edges = [sorted((int(label[u]), int(label[v])))
             for u, v in itertools.combinations(range(vertices), 2)]
    return [edges[i] for i in rng.permutation(len(edges))]


def _matroid_k6(rng: np.random.Generator) -> dict:
    return {"matroid": {"type": "graphic", "vertices": 6,
                        "edges": _complete_graph_edges(6, rng)}}


def _matching_k10(rng: np.random.Generator) -> dict:
    return {"graph": {"vertices": 10, "edges": _complete_graph_edges(10, rng)}}


def _prophet_u52(rng: np.random.Generator) -> dict:
    dists = []
    for _ in range(5):
        low = round(float(rng.uniform(1.0, 2.0)), 2)
        high = round(float(rng.uniform(3.0, 5.0)), 2)
        p_zero = round(float(rng.uniform(0.6, 0.7)), 2)
        p_high = round(float(rng.uniform(0.1, 0.15)), 2)
        dists.append({"support": [0.0, low, high],
                      "probs": [p_zero, 1.0 - p_zero - p_high, p_high]})
    return {"matroid": {"type": "uniform", "n": 5, "k": 2}, "dists": dists,
            "order": "worst"}


def _probing_u6(rng: np.random.Generator) -> dict:
    n = 6
    return {"p": [round(float(v), 2) for v in rng.uniform(0.3, 0.7, n)],
            "w": [round(float(v), 2) for v in rng.uniform(1.0, 10.0, n)],
            "inner": {"type": "uniform", "n": n, "k": 2},
            "outer": {"type": "uniform", "n": n, "k": 3},
            "b": 0.5}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="matroid-k6",
        command=("verify-selectability", "--scheme", "matroid", "--b", "0.5"),
        trials=600_000,
        why=("set-up dominates: exact chain span enumeration and the 2^15 "
             "polytope re-check on graphic K6; deterministic family, few "
             "distinct trial states"),
        generator=("graphic K6 (15 edges), vertex labels and edge order "
                   "shuffled by the seed; no x, so the point is drawn from "
                   "--seed"),
        make=_matroid_k6),
    Workload(
        name="matching-k10",
        command=("verify-selectability", "--scheme", "matching", "--b", "0.5"),
        trials=150_000,
        why=("trials dominate: a random edge set per trial makes most "
             "(K, active) states distinct, so memo and grouping gain least"),
        generator=("K10 (45 edges), vertex labels and edge order shuffled by "
                   "the seed; no x, so the point is drawn from --seed"),
        make=_matching_k10),
    Workload(
        name="prophet-worst-u52",
        command=("prophet", "--b", "0.5"),
        trials=8192,
        why=("adversary search: 120 orders replay every trial, over few "
             "distinct (active, z) states"),
        generator=("U(5,2); per element support {0, U(1,2), U(3,5)} with "
                   "probabilities near (0.65, 0.23, 0.12), rounded to 2 "
                   "decimals; order worst"),
        make=_prophet_u52),
    Workload(
        name="probing-u6",
        command=("probing", "--b", "0.5"),
        trials=300_000,
        why=("exact rational simplex over 132 rank and box rows, then "
             "probing runs with per-run feasibility asserts"),
        generator=("6 elements, inner U(6,2), outer U(6,3), b=0.5; p in "
                   "U(0.3,0.7) and w in U(1,10), rounded to 2 decimals"),
        make=_probing_u6),
)}
