"""Statistical verification of selectability bounds and exact tiny oracles.

Selectability estimates carry two-sided 99% confidence half-widths
(z = 2.576).  Brute-force counterparts enumerate the activation and
family-sampling outcome spaces exactly on tiny instances, so Monte-Carlo
results can be audited against numbers computed by an independent path.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Hashable, Iterable, Iterator, Optional,
                    Sequence, TypeVar)

import numpy as np

from .core import (TABLE_BYTES, FractionalPoint, SeedSpec, block_states,
                   group_rows, iter_bits, iter_submasks, trial_columns)
from .schemes import FeasibleFamily, GreedyOcrsFactory, SchemeSampler

Z_99 = 2.576

log = logging.getLogger("ocrs.harness")

_State = TypeVar("_State")

_DOMAIN_CONSTRUCT = 0
_DOMAIN_TRIALS = 1

#: Bit i of each byte value v: ``_BYTE_BITS[v, i] == v >> i & 1``.
_BYTE_BITS = np.arange(256, dtype=np.int64)[:, None] >> np.arange(8) & 1


def passes_with_margin(value: float, halfwidth: float, target: float) -> bool:
    """The pass rule of an estimated mean or ratio against its target: the
    value plus three 99% half-widths reaches the target, less 1e-15 for
    rounding."""
    return value + 3 * halfwidth >= target - 1e-15


def ci_halfwidth(p_hat, trials: int):
    """Two-sided 99% normal-approximation half-width; elementwise on arrays."""
    return Z_99 * np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / trials)


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean with a 99% normal-approximation half-width."""

    mean: float
    halfwidth: float
    trials: int

    @classmethod
    def from_moments(cls, total: float, total_sq: float,
                     trials: int) -> "MeanEstimate":
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        return cls(mean=mean, halfwidth=Z_99 * math.sqrt(var / trials),
                   trials=trials)

    @classmethod
    def from_stream(cls, values: Iterable[float],
                    collect: Optional[list] = None) -> "MeanEstimate":
        """Moments summed in iteration order; ``collect``, if given,
        receives every value."""
        total = 0.0
        total_sq = 0.0
        trials = 0
        for v in values:
            total += v
            total_sq += v * v
            trials += 1
            if collect is not None:
                collect.append(v)
        return cls.from_moments(total, total_sq, trials)

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[Sequence[float], np.ndarray]],
                    collect: Optional[list] = None) -> "MeanEstimate":
        """`from_stream` over values given block by block, as
        ``(distinct, inverse)``: trial i of a block has value
        ``distinct[inverse[i]]`` (see `grouped_values`).

        Each block's moments are added to the running totals by a
        sequential ``np.cumsum``, so the sums are the same left-to-right
        sums as `from_stream`'s.  ``collect``, if given, receives every
        value as the Python number in ``distinct``.
        """
        total = 0.0
        total_sq = 0.0
        trials = 0
        for distinct, inverse in blocks:
            values = np.asarray(distinct, dtype=float)[inverse]
            with np.errstate(over="ignore"):
                squares = values * values
            total = _sum_after(total, values)
            total_sq = _sum_after(total_sq, squares)
            trials += values.size
            if collect is not None:
                collect.extend(map(distinct.__getitem__, inverse.tolist()))
        return cls.from_moments(total, total_sq, trials)


def _sum_after(total: float, values: np.ndarray) -> float:
    """``total + values[0] + values[1] + ...``, added left to right: the
    array form of `core.ordered_sum`.

    A sequential ``np.cumsum``: ``np.sum``'s pairwise summation would
    differ in the last bits from the same sum in a Python loop.  Like
    Python floats, the sum overflows to inf and nan without a warning.
    ``values`` (a nonempty float array) is overwritten.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values[0] += total
        return float(np.cumsum(values)[-1])


@dataclass
class SelectabilityReport:
    """Per-element selectability estimates against a claimed bound."""

    estimates: np.ndarray
    halfwidths: np.ndarray
    trials: int
    bound: float
    bound_expr: str
    construction_slack: float
    scheme: str = ""
    b: float = float("nan")
    seed: Optional[int] = None
    #: mask of loops: they never arrive, so the bound does not cover them
    #: and each is held to 0
    loops: int = 0
    passes: np.ndarray = field(init=False)
    element_bounds: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.element_bounds = np.array(
            [0.0 if self.loops >> e & 1 else self.bound
             for e in range(self.estimates.size)])
        self.passes = (self.estimates + self.halfwidths
                       + self.construction_slack
                       >= self.element_bounds - 1e-15)

    @property
    def n(self) -> int:
        return int(self.estimates.size)

    def all_pass(self) -> bool:
        return bool(np.all(self.passes))

    def rows(self) -> list[dict]:
        return [{"element": e,
                 "estimate": float(self.estimates[e]),
                 "ci_halfwidth": float(self.halfwidths[e]),
                 "bound": float(self.element_bounds[e]),
                 "pass": bool(self.passes[e])}
                for e in range(self.n)]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["element", "estimate", "ci_halfwidth",
                                "bound", "pass"])
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "b": self.b,
            "trials": self.trials,
            "seed": self.seed,
            "bound": self.bound,
            "bound_expr": self.bound_expr,
            "construction_slack": self.construction_slack,
            "elements": self.rows(),
            "all_pass": self.all_pass(),
        }


def bind_sampler(factory: GreedyOcrsFactory, x: FractionalPoint,
                 seed: SeedSpec) -> SchemeSampler:
    """``factory`` bound to x by ``seed``'s construction stream, once a run."""
    return factory.bind(x, seed.stream(_DOMAIN_CONSTRUCT))


def selectability_counts(sampler: SchemeSampler, x: FractionalPoint,
                         trials: int, seed: SeedSpec,
                         block_range: Optional[tuple[int, int]] = None
                         ) -> np.ndarray:
    """Per element, the number of trials in a range of trial blocks in which
    it is selectable: an int64 array of length n.

    A sampler with no draws has one family for every trial, so a trial's
    selectable mask depends on its active set alone.  When a dense int64
    histogram over the 2^n active sets fits in ``TABLE_BYTES`` (n <= 17),
    the run counts its active sets in that histogram, block by block, and
    asks ``selectable_mask`` once per distinct active set of the run.
    Every other sampler gives each block's selectable masks by
    `SchemeSampler.selectable_rows`, one row per trial: byte-table gathers
    for random matchings, one ``selectable_mask`` call per distinct (family,
    active) pair of the block for the other schemes.  Either way the counts
    are integer sums, so they are the per-trial loop's exactly, and the
    counts for disjoint block ranges of one `bind_sampler` sampler sum to
    the full-range counts, so workers can split ranges without changing
    the reduced result.
    """
    if not sampler.draws and 8 << x.n <= TABLE_BYTES:
        hist = np.zeros(1 << x.n, dtype=np.int64)
        for _start, (actives,) in trial_columns(
                seed, _DOMAIN_TRIALS, trials, [x.values], block_range):
            np.add.at(hist, actives, 1)
        family = sampler.sample()
        seen = np.flatnonzero(hist)
        masks = np.array([family.selectable_mask(a) for a in seen.tolist()],
                         np.int64)
        return _bit_counts(masks, hist[seen], x.n)
    counts = np.zeros(x.n, dtype=np.int64)
    for _start, (actives, (codes, families)) in trial_columns(
            seed, _DOMAIN_TRIALS, trials, [x.values, sampler], block_range):
        counts += _bit_counts(
            sampler.selectable_rows(actives, codes, families), None, x.n)
    return counts


def _bit_counts(masks: np.ndarray, weights: Optional[np.ndarray],
                n: int) -> np.ndarray:
    """Per element e < n, the total weight of the int64 ``masks`` with bit
    e set (each mask weighing 1 if ``weights`` is None): an int64 array of
    length n."""
    counts = np.zeros(n, dtype=np.int64)
    # per mask byte, the weight of each of its 256 values: a float sum of
    # integer weights below 2^53, so exact
    for lo in range(0, n, 8):
        hist = np.bincount(masks >> lo & 255, weights=weights, minlength=256)
        counts[lo:lo + 8] = (hist.astype(np.int64) @ _BYTE_BITS)[:n - lo]
    return counts


def report_from_counts(counts: np.ndarray, trials: int,
                       factory: GreedyOcrsFactory, seed: SeedSpec,
                       scheme: str = "") -> SelectabilityReport:
    estimates = counts / trials
    return SelectabilityReport(estimates=estimates,
                               halfwidths=ci_halfwidth(estimates, trials),
                               trials=trials, bound=factory.bound(),
                               bound_expr=factory.bound_expr,
                               construction_slack=factory.construction_slack,
                               scheme=scheme, b=factory.b,
                               seed=seed.master_seed, loops=factory.loops)


def estimate_selectability(factory: GreedyOcrsFactory, x: FractionalPoint,
                           trials: int, seed: SeedSpec,
                           scheme: str = "") -> SelectabilityReport:
    """Monte-Carlo frequency of the per-element order-free selectable event.

    Per trial, the active set R(x) and one family F_x are sampled and every
    element's `selectable` indicator recorded; trial randomness is derived
    in fixed blocks from the seed, so worker layout cannot change results.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    counts = selectability_counts(bind_sampler(factory, x, seed), x, trials,
                                  seed)
    return report_from_counts(counts, trials, factory, seed, scheme)


def _quantifier_selectable(family: FeasibleFamily, active_mask: int,
                           e: int) -> bool:
    """Literal check: every family member inside the active set stays a
    member after adding e.  Uses only membership queries."""
    bit = 1 << e
    for i_mask in iter_submasks(active_mask & ~bit):
        if family.member(i_mask) and not family.member(i_mask | bit):
            return False
    return True


def brute_force_selectability(factory: GreedyOcrsFactory,
                              x: FractionalPoint) -> np.ndarray:
    """Exact per-element selectability by enumerating all outcomes.

    Sums over every activation outcome and every family outcome, weighting
    by product probabilities; the selectable event is evaluated by the
    quantifier definition over membership queries only, independently of
    the schemes' fast rules.
    """
    n = x.n
    if n > 5:
        raise ValueError("brute force limited to 5 elements")
    sampler = factory.bind(x)
    outcomes = sampler.enumerate_families()
    xv = x.values
    result = np.zeros(n)
    for active in range(1 << n):
        p_active = 1.0
        for e in range(n):
            p_active *= xv[e] if (active >> e) & 1 else 1.0 - xv[e]
        if p_active == 0.0:
            continue
        for fam_prob, family in outcomes:
            weight = p_active * fam_prob
            for e in range(n):
                if _quantifier_selectable(family, active, e):
                    result[e] += weight
    return result


# ---------------------------------------------------------------------------
# deterministic knapsack impossibility


def _down_closed(family: frozenset[int]) -> bool:
    return all(sub in family
               for mask in family for sub in iter_submasks(mask))


def family_size(n: int) -> int:
    """``n`` if `knapsack_deterministic_impossibility` takes it: the
    enumeration of subfamilies is doubly exponential in n."""
    if not 1 <= n <= 4:
        raise ValueError("must lie in 1..4")
    return n


def knapsack_deterministic_impossibility(
        n: int, b: Fraction) -> tuple[Fraction, list[int]]:
    """Best min-element selectability over all deterministic subfamilies.

    Instance: n - 1 items of size 1/n plus one item of size 1, with
    x = (b, ..., b, b/n).  Enumerates every down-closed subfamily of the
    knapsack-feasible sets that contains all singletons, computes each
    element's exact selectability, and returns the maximum over families of
    the per-family minimum, with a witnessing family.  Everything is exact
    rational arithmetic; the result equals (1-b)^(n-1).
    """
    family_size(n)
    b = Fraction(b)
    if not 0 <= b <= 1:
        raise ValueError("b must lie in [0, 1]")
    sizes = [Fraction(1, n)] * (n - 1) + [Fraction(1)]
    x = [b] * (n - 1) + [b / n]

    feasible = [mask for mask in range(1 << n)
                if sum(sizes[e] for e in iter_bits(mask)) <= 1]
    base = {0} | {1 << e for e in range(n)}
    if not base <= set(feasible):
        raise AssertionError("singletons must be feasible")
    optional = [m for m in feasible if m not in base]

    activation = []
    for active in range(1 << n):
        p = Fraction(1)
        for e in range(n):
            p *= x[e] if (active >> e) & 1 else 1 - x[e]
        activation.append(p)

    best = Fraction(-1)
    witness: list[int] = []
    for picks in range(1 << len(optional)):
        family = frozenset(base | {optional[i] for i in range(len(optional))
                                   if (picks >> i) & 1})
        if not _down_closed(family):
            continue
        worst = Fraction(2)
        for e in range(n):
            bit = 1 << e
            prob = Fraction(0)
            for active in range(1 << n):
                if activation[active] == 0:
                    continue
                ok = True
                for i_mask in iter_submasks(active & ~bit):
                    if i_mask in family and (i_mask | bit) not in family:
                        ok = False
                        break
                if ok:
                    prob += activation[active]
            worst = min(worst, prob)
        if worst > best:
            best = worst
            witness = sorted(family)
    return best, witness


# ---------------------------------------------------------------------------
# adversarial order search


@dataclass
class AdversarySearchResult:
    """Worst arrival order and its estimated expected value."""

    worst_order: tuple[int, ...]
    worst_value: float
    values_by_order: dict[tuple[int, ...], float]


def group_states(states: Iterable[_State],
                 key: Callable[[_State], Hashable]
                 ) -> tuple[list[_State], list[int]]:
    """Distinct trial states in first-seen order, and each trial's index
    among them.

    Trials with equal keys share an index, and the first of them stands for
    all; the key must hold everything a trial's value depends on.  The key
    runs once per trial, with no memo.  ``key=id`` groups by object
    identity: that is exact when the caller holds every state for the call
    (as the list of `applications.prophet_trial_states` does, in which
    trials with equal play keys share one object), so that no id is reused
    by another object.
    """
    index: dict[Hashable, int] = {}
    distinct: list[_State] = []
    trial_state = []
    for state in states:
        k = key(state)
        i = index.get(k)
        if i is None:
            i = index[k] = len(distinct)
            distinct.append(state)
        trial_state.append(i)
    return distinct, trial_state


def grouped_values(blocks: Iterable[tuple[int, Sequence]],
                   key: Callable[[Sequence], Sequence[np.ndarray]],
                   trial_value: Callable[[tuple, Sequence[int]], float],
                   order: Sequence[int]
                   ) -> Iterator[tuple[list[float], np.ndarray]]:
    """Values of the trials of `trial_columns` blocks, block by block, as
    ``(distinct, inverse)`` for `MeanEstimate.from_blocks`.

    ``key`` maps a block's columns to nonnegative int64 key columns that
    hold everything a trial's value depends on; trials with equal keys are
    grouped by `group_rows`, which needs no sort when the key spans no more
    values than the block has trials (probing on six elements with fixed
    families: A_out and its active elements span at most 2^12).
    ``trial_value`` runs once per distinct key of a block, on the state
    (see `block_states`) of its first trial, so memory is bounded by one
    block, not by the trial count.
    """
    trials = blocks_seen = calls = widest = 0
    for _start, columns in blocks:
        first, inverse = group_rows(key(columns))
        trials += inverse.size
        blocks_seen += 1
        calls += first.size
        widest = max(widest, first.size)
        yield ([trial_value(state, order)
                for state in block_states(columns, first)], inverse)
    log.info("grouped mean: %d trials in %d blocks, %d distinct states "
             "(at most %d per block), %d value calls", trials, blocks_seen,
             calls, widest, calls)


def worst_order_value(prepare_trial: Callable[[int], object],
                      trial_value: Callable[[object, Sequence[int]], float],
                      n: int, trials: int, *,
                      trial_state: Optional[Sequence[int]] = None,
                      masks: Optional[Sequence[int]] = None
                      ) -> AdversarySearchResult:
    """Minimize the estimated expected value over all n! arrival orders
    (n <= 8).

    Common random numbers: each trial's state is prepared once (indexed by
    trial number) and reused for every permutation, so order comparisons are
    free of sampling noise.  With ``trial_state`` (from `group_states`), the
    ``trials`` prepared states are the distinct ones and trial t has state
    ``trial_state[t]``; each order's mean is still summed over the trials in
    trial order, left to right, so grouping leaves every value unchanged.

    ``masks[i]``, if given, holds the elements whose relative order state
    i's value can depend on (default: every element); the caller vouches
    that two orders with equal restriction to it give equal values.  States
    are grouped by mask, and each group runs once per distinct restricted
    order (`restricted_order_ids`), with the first order that gives it, so
    the search costs one ``trial_value`` call per distinct pair of state
    and restricted order: a state with k elements in its mask is played at
    most k! times, not once per order.  The calls come in the order of an
    order-by-order scan.  Their values form a value table of states by
    orders, and every order's sum is taken from that table at once (see
    `_order_sums`).  The worst order is a fixed order, the same for every
    trial; an adversary who picks each trial's order after seeing its coins
    can do worse.
    """
    if n > 8:
        raise ValueError("exhaustive order search limited to n <= 8")
    states = [prepare_trial(t) for t in range(trials)]
    trial_state = np.asarray(range(trials) if trial_state is None
                             else trial_state, dtype=np.int64)
    orders = list(itertools.permutations(range(n)))
    order_rows = np.array(orders, dtype=np.int64)
    members: dict[int, list[int]] = {}
    for i, mask in enumerate([(1 << n) - 1] * trials if masks is None
                             else masks):
        members.setdefault(mask, []).append(i)
    # per mask: its states, the first order of each restricted order and
    # each order's restricted-order id
    groups = [(np.asarray(idx, dtype=np.int64),
               *restricted_order_ids(order_rows, mask))
              for mask, idx in members.items()]
    # a state's values by restricted order, played as the scan of the orders
    # meets each (mask, restricted order) pair first
    values = [np.empty((idx.size, first.size)) for idx, first, _ids in groups]
    plays = sorted((p, g, r) for g, (_idx, first, _ids) in enumerate(groups)
                   for r, p in enumerate(first.tolist()))
    calls = 0
    for p, g, r in plays:
        group = groups[g][0].tolist()
        values[g][:, r] = [trial_value(states[i], orders[p]) for i in group]
        calls += len(group)
    sums = _order_sums(groups, values, trial_state, trials, len(orders))
    means = dict(zip(orders, (sums / trial_state.size).tolist()))
    worst = min(means, key=lambda p: (means[p], p))
    log.info("worst-order search (exhaustive): %d trials, %d distinct states, "
             "%d orders evaluated, %d value calls, one per distinct "
             "(state, restricted order) pair (%d restricted orders of %d "
             "masks)", trial_state.size, trials, len(means), calls,
             len(plays), len(groups))
    return AdversarySearchResult(worst, means[worst], means)


def restricted_order_ids(orders: np.ndarray, mask: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The restrictions of permutation rows to the elements of a mask, as
    integer codes.

    ``orders`` is a (count, n) int64 array of permutations of range(n).
    Returns ``(first, ids)``: ``ids[p]`` numbers row p's restriction (its
    elements inside ``mask``, in their order in the row) by first
    appearance, and ``first[r]`` is the first row whose restriction has
    number r.  A restriction is a row of elements, coded by `group_rows`.
    """
    inside = (mask >> orders & 1).astype(bool)
    restricted = orders[inside].reshape(len(orders), int(inside[0].sum()))
    return group_rows(list(restricted.T)
                      or [np.zeros(len(orders), dtype=np.int64)])


#: Bytes of trial rows that `_order_sums` gathers at a time.
_SUM_CHUNK_BYTES = 1 << 18


def _order_sums(groups: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                values: Sequence[np.ndarray], trial_state: np.ndarray,
                states: int, orders: int) -> np.ndarray:
    """Per order, the sum of the values of the trials, added left to right
    in trial order as `_sum_after` adds them.

    ``groups`` and ``values`` are `worst_order_value`'s: state
    ``groups[g][0][i]`` has value ``values[g][i, groups[g][2][p]]`` under
    order p.  The (states, orders) value table is filled a band of orders
    at a time, of at most ``TABLE_BYTES`` (the whole table on small
    searches).  Its trial rows are gathered in chunks of at most
    ``_SUM_CHUNK_BYTES``; the running sums are added to a chunk's first row
    and the chunk is reduced down axis 0, which adds its rows one by one.
    One order, a (rows, 1) chunk, is summed by ``np.cumsum`` instead, as
    ``np.add.reduce`` sums a contiguous axis pairwise.
    """
    sums = np.zeros(orders)
    width = max(1, min(orders, TABLE_BYTES // (8 * states)))
    for lo in range(0, orders, width):
        band = slice(lo, min(lo + width, orders))
        table = np.empty((states, band.stop - lo))
        for (idx, _first, ids), by_restriction in zip(groups, values):
            table[idx] = by_restriction[:, ids[band]]
        rows = max(1, _SUM_CHUNK_BYTES // (8 * table.shape[1]))
        running = sums[band]
        for at in range(0, trial_state.size, rows):
            chunk = table[trial_state[at:at + rows]]
            with np.errstate(over="ignore", invalid="ignore"):
                chunk[0] += running
                running = (np.add.reduce(chunk, axis=0) if chunk.shape[1] > 1
                           else np.cumsum(chunk, axis=0)[-1])
        sums[band] = running
    return sums
