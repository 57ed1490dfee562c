"""Spans and counters recorded around the public functions of ``ocrs``.

Wrappers are installed from outside the package, by replacing module
attributes and class methods after import; nothing under ``src/`` changes.
A span is (name, start, end, parent, run id).  Spans stay in memory and are
written once, when the command ends.  High-frequency oracle methods
(``Matroid.rank``/``indep`` on every subclass, ``FeasibleFamily.member``) are
only counted, never timed, so that tracing does not swamp the oracle-bound
workloads.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

import numpy as np

_clock = time.perf_counter


class DrawProbe:
    """Time of the first trial block drawn through ``ocrs.core.uniform_blocks``.

    This is the only probe installed when tracing is off.
    """

    def __init__(self) -> None:
        self.first_draw: float | None = None

    def install(self) -> None:
        import ocrs.core

        original = ocrs.core.uniform_blocks

        def uniform_blocks(*args, **kwargs):
            for item in original(*args, **kwargs):
                if self.first_draw is None:
                    self.first_draw = _clock()
                yield item

        _replace_function(original, uniform_blocks)


class Tracer:
    """In-memory span store plus per-layer counters for one command."""

    def __init__(self, run_id: int, probe: DrawProbe) -> None:
        self.run_id = run_id
        self.probe = probe
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.nested: list[bool] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, list[int]] = {}
        self.values: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)

    # -- span bookkeeping -------------------------------------------------

    def _open_span(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._open[name] > 0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._open[name] += 1
        self.starts.append(_clock())
        return idx

    def _close_span(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()
        self._open[self.names[idx]] -= 1

    def timed(self, name: str, fn: Callable,
              after: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` counts."""

        def wrapper(*args, **kwargs):
            idx = self._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, name: str, fn: Callable,
                        on_item: Callable | None = None) -> Callable:
        """Wrap a generator function: one span per ``next`` on the generator."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open_span(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close_span(idx)
                    return
                except BaseException:
                    self._close_span(idx)
                    raise
                self._close_span(idx)
                if self.probe.first_draw is None:
                    self.probe.first_draw = self.ends[idx]
                if on_item is not None:
                    on_item(item)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count calls of ``fn`` without timing them."""
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions and methods of every ``ocrs`` module."""
        import ocrs.cli  # noqa: F401  (imports every traced module)
        from ocrs import applications, core, harness, matroids, optimize, schemes

        values = self.values

        def add(key: str, amount: float) -> None:
            values[key] += amount

        def fn(module, attr: str, name: str, after=None) -> None:
            original = getattr(module, attr)
            _replace_function(original, self.timed(name, original, after))

        # core
        _replace_function(core.uniform_blocks, self.timed_generator(
            "core.uniform_blocks", core.uniform_blocks,
            on_item=lambda item: add("core.uniform_blocks.rows",
                                     item[1].shape[0])))
        fn(core, "pack_mask_rows", "core.pack_mask_rows")

        # matroids
        fn(matroids, "in_scaled_matroid_polytope",
           "matroids.in_scaled_matroid_polytope",
           after=lambda a, k, r: add("matroids.in_scaled_matroid_polytope"
                                     ".subsets",
                                     2 ** (a[0] if a else k["m"]).size()))
        fn(matroids, "random_point_in_polytope",
           "matroids.random_point_in_polytope")
        for cls, method in _methods(matroids.Matroid, ("rank", "indep")):
            setattr(cls, method.__name__,
                    self.counted(f"matroids.{method.__name__}", method))

        # schemes
        fn(schemes, "matroid_chain_decompose",
           "schemes.matroid_chain_decompose",
           after=lambda a, k, r: add("schemes.matroid_chain_decompose.levels",
                                     len(r.levels) - 1))
        _replace_function(schemes.run_greedy_mask, self.counted(
            "schemes.run_greedy_mask", schemes.run_greedy_mask))
        for cls, method in _methods(schemes.GreedyOcrsFactory, ("bind",)):
            setattr(cls, "bind", self.timed("schemes.bind", method))
        for cls, method in _methods(schemes.SchemeSampler, ("sample_block",)):
            setattr(cls, "sample_block",
                    self.timed("schemes.sample_block", method))
        for cls, method in _methods(schemes.FeasibleFamily, ("member",)):
            setattr(cls, "member", self.counted("schemes.member", method))
        seen = self.distinct["schemes.selectable_mask"]
        for cls, method in _methods(schemes.FeasibleFamily,
                                    ("selectable_mask",)):
            setattr(cls, "selectable_mask", self.timed(
                "schemes.selectable_mask", method,
                after=lambda a, k, r: seen.add((a[0].cache_key(), a[1]))))

        # harness
        fn(harness, "selectability_counts", "harness.selectability_counts")
        original_wov = harness.worst_order_value
        timed_wov = self.timed("harness.worst_order_value", original_wov)

        def worst_order_value(prepare_trial, trial_value, n, trials,
                              *args, **kwargs):
            counted = self.counted("harness.worst_order_value.trial_value",
                                   trial_value)
            add("harness.worst_order_value.trials", trials)
            return timed_wov(prepare_trial, counted, n, trials,
                             *args, **kwargs)

        _replace_function(original_wov, worst_order_value)

        # optimize
        fn(optimize, "solve_probing_lp", "optimize.solve_probing_lp")
        fn(optimize, "simplex_solve", "optimize.simplex_solve",
           after=lambda a, k, r: (add("optimize.simplex_solve.rows",
                                      len(a[0].rows)),
                                  add("optimize.simplex_solve.cols",
                                      len(a[0].objective))))
        fn(optimize, "polytope_rows", "optimize.polytope_rows",
           after=lambda a, k, r: add("optimize.polytope_rows.rows", len(r)))
        fn(optimize, "solve_prophet_relaxation",
           "optimize.solve_prophet_relaxation")

        # applications
        for attr in ("prepare_probing", "probing_mean_value",
                     "prepare_prophet", "brute_force_prophet_opt",
                     "prophet_worst_order", "prophet_value_under_order"):
            fn(applications, attr, f"applications.{attr}")

        def trial_states(a, k, states) -> None:
            add("applications.prophet_trial_states.trials", len(states))
            self.distinct["applications.prophet_trial_states"].update(
                (active, tuple(z)) for _family, active, z in states)

        fn(applications, "prophet_trial_states",
           "applications.prophet_trial_states", after=trial_states)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this command, keyed by metric name.

        ``<span>.s`` is inclusive time of the outermost spans of that name;
        ``harness.selectability_counts.s`` and ``cli.self_s`` are self time.
        """
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child_time = np.zeros(len(durations))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        self_time = durations - child_time
        names = np.asarray(self.names, dtype=object)
        outermost = ~np.asarray(self.nested, dtype=bool)
        out: dict[str, float] = {}
        for name in set(self.names):
            sel = names == name
            out[f"{name}.s"] = float(durations[sel & outermost].sum())
            out[f"{name}.calls"] = float(sel.sum())
            out[f"{name}.self_s"] = float(self_time[sel].sum())
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = float(cell[0])
        out.update(self.values)
        out["harness.selectability_counts.s"] = out.get(
            "harness.selectability_counts.self_s", 0.0)
        out["cli.self_s"] = out.get("cli.main.self_s", 0.0)
        calls = out.get("schemes.selectable_mask.calls", 0.0)
        if calls:
            out["schemes.selectable_mask.distinct_ratio"] = (
                len(self.distinct["schemes.selectable_mask"]) / calls)
        trials = out.get("applications.prophet_trial_states.trials", 0.0)
        if trials:
            out["applications.prophet_trial_states.distinct_ratio"] = (
                len(self.distinct["applications.prophet_trial_states"])
                / trials)
        wov_trials = out.get("harness.worst_order_value.trials", 0.0)
        if wov_trials:
            tv_calls = out.get(
                "harness.worst_order_value.trial_value.calls", 0.0)
            out["harness.worst_order_value.trial_value_calls"] = tv_calls
            out["harness.worst_order_value.orders"] = tv_calls / wov_trials
        return out

    def write_spans(self, path: str) -> None:
        """Write every span of the command as an ``.npz`` table."""
        kinds = sorted(set(self.names))
        index = {name: i for i, name in enumerate(kinds)}
        np.savez(
            path, names=np.asarray(kinds),
            name_id=np.asarray([index[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts), end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
            run_id=np.full(len(self.names), self.run_id, dtype=np.int32))


def _ocrs_modules() -> Iterable:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ocrs" or name.startswith("ocrs."))]


def _replace_function(original: Callable, replacement: Callable) -> None:
    """Rebind every ``ocrs`` module attribute that refers to ``original``."""
    for module in _ocrs_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _methods(base: type, names: tuple[str, ...]):
    """(class, function) for each class under ``base`` that defines a name."""
    classes, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in classes:
            classes.append(cls)
            todo.extend(cls.__subclasses__())
    return [(cls, cls.__dict__[name]) for cls in classes for name in names
            if name in cls.__dict__]
