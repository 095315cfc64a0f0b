"""Hints generation — Algorithm 1 (paper §IV-A).

For every sub-workflow (chain suffix) and every integral time budget, pick
the head function's size ``k1`` and percentile ``p`` plus downstream sizes
``k2..kN`` (pinned to the anchor percentile, Insight-2) minimising expected
consumption (Eq. 4)

    s = W*k1 + (p/100) * sum_{i>=2} k_i + (1 - p/100) * (N-1) * Kmax

subject to the latency budget (Eq. 5) and the resilience constraint
(Eq. 6): the head's potential timeout ``D1(p, k1)`` must not exceed the
downstream allocation's total resilience ``sum R_i(P99, k_i)``.

The paper's recursion is replaced by the vectorised suffix DP of
:class:`~repro.synthesis.dp.ChainDP` plus a percentile x size sweep that
updates all budgets at once (see dp.py's module docstring for the
complexity argument). Exploration modes:

* ``NONE`` — head pinned to P99 (the paper's **Janus-** baseline),
* ``HEAD_ONLY`` — head explores all percentiles (**Janus**),
* ``HEAD_PLUS_NEXT`` — head and next-to-head explore jointly (**Janus+**);
  cost multiplies by the percentile-grid size, reproducing the paper's
  order-of-magnitude synthesis slowdown (Fig. 6b).
"""

from __future__ import annotations

import enum
import math
import os
import time
import typing as _t
from dataclasses import dataclass

import numpy as np

from ..errors import SynthesisError
from ..knobs import POSITIVE, check, knob
from ..persist import DiskBackedMemo, atomic_write_bytes
from ..profiling.profiles import ProfileSet
from .budget import BudgetRange, budget_range_for_chain
from .condenser import condense
from .dp import ChainDP
from .hints import RawHints, WorkflowHints

__all__ = [
    "HeadExploration",
    "SynthesisConfig",
    "HintSynthesizer",
    "synthesize_hints",
    "clear_hints_cache",
    "set_hints_cache_dir",
    "hints_cache_dir",
    "hints_cache_stats",
]

_EPS = 1e-9


class HeadExploration(enum.Enum):
    """Which functions of each sub-workflow explore sub-anchor percentiles."""

    NONE = "none"
    HEAD_ONLY = "head"
    HEAD_PLUS_NEXT = "head+next"


@dataclass(frozen=True)
class SynthesisConfig:
    """Synthesizer knobs (paper defaults: W=1, head-only exploration)."""

    weight: float = knob(POSITIVE, 1.0)
    exploration: HeadExploration = HeadExploration.HEAD_ONLY
    enforce_resilience: bool = True
    clamp_above: bool = True

    def __post_init__(self) -> None:
        check(self, SynthesisError)


class HintSynthesizer:
    """Generates and condenses hint tables for one workflow chain."""

    def __init__(
        self,
        profiles: ProfileSet,
        chain: _t.Sequence[str],
        config: SynthesisConfig | None = None,
    ) -> None:
        if not chain:
            raise SynthesisError("chain may not be empty")
        self.profiles = profiles
        self.chain = list(chain)
        self.config = config or SynthesisConfig()
        self._chain_profiles = profiles.for_chain(self.chain)
        self.limits = profiles.limits
        self.percentiles = profiles.percentiles

    # ------------------------------------------------------------------
    def synthesize(
        self,
        budget: BudgetRange | None = None,
        concurrency: int = 1,
        workflow_name: str = "",
    ) -> WorkflowHints:
        """Produce condensed hint tables for every sub-workflow suffix."""
        start = time.perf_counter()
        if budget is None:
            budget = budget_range_for_chain(self._chain_profiles, concurrency)
        dp = ChainDP.cached(self._chain_profiles, budget.tmax_ms, concurrency)
        tables = []
        raw_total = 0
        condensed_total = 0
        per_suffix: list[dict[str, _t.Any]] = []
        for j in range(len(self.chain)):
            raw = self.synthesize_suffix(j, dp, budget, concurrency)
            table = condense(raw, self.limits.kmax, self.config.clamp_above)
            tables.append(table)
            raw_total += raw.num_feasible
            condensed_total += len(table)
            per_suffix.append(
                {
                    "suffix": j,
                    "head": self.chain[j],
                    "raw": raw.num_feasible,
                    "condensed": len(table),
                }
            )
        elapsed = time.perf_counter() - start
        return WorkflowHints(
            workflow_name=workflow_name or "-".join(self.chain),
            concurrency=concurrency,
            weight=self.config.weight,
            tables=tables,
            raw_hint_count=raw_total,
            condensed_hint_count=condensed_total,
            synthesis_seconds=elapsed,
            metadata={
                "per_suffix": per_suffix,
                "exploration": self.config.exploration.value,
                "budget": (budget.tmin_ms, budget.tmax_ms),
            },
        )

    # ------------------------------------------------------------------
    def suffix_budget(
        self, j: int, budget: BudgetRange, concurrency: int
    ) -> BudgetRange:
        """Budget range for suffix ``j``.

        Suffix 0 uses the configured workflow range; later suffixes extend
        down to their own achievable minimum (Eq. 3 on the suffix) because
        runtime leftover budgets shrink as stages complete.
        """
        if j == 0:
            return budget
        suffix_profiles = self._chain_profiles[j:]
        tmin = sum(
            prof.latency(self.percentiles.percentiles[0], self.limits.kmax, concurrency)
            for prof in suffix_profiles
        )
        return BudgetRange(
            tmin_ms=min(int(math.floor(tmin)), budget.tmax_ms),
            tmax_ms=budget.tmax_ms,
            step_ms=budget.step_ms,
        )

    def synthesize_suffix(
        self,
        j: int,
        dp: ChainDP,
        budget: BudgetRange,
        concurrency: int = 1,
    ) -> RawHints:
        """Raw per-budget hints for the sub-workflow starting at stage ``j``."""
        n = len(self.chain)
        if not 0 <= j < n:
            raise SynthesisError(f"suffix index {j} out of range for chain of {n}")
        if budget.step_ms != 1:
            # Raw hint arrays and the condenser index budgets at millisecond
            # granularity (the paper's "finer granularity in milliseconds",
            # §IV-A); coarser grids would mis-shape the tables.
            raise SynthesisError(
                f"hint synthesis requires a 1 ms budget grid, got step "
                f"{budget.step_ms} ms"
            )
        srange = self.suffix_budget(j, budget, concurrency)
        budgets = srange.grid()
        if j == n - 1:
            return self._single_function_suffix(j, dp, srange, budgets)
        explore = self.config.exploration
        if explore is HeadExploration.HEAD_PLUS_NEXT and n - j >= 3:
            return self._joint_exploration_suffix(j, dp, srange, budgets, concurrency)
        return self._head_exploration_suffix(j, dp, srange, budgets, concurrency)

    # -- suffix kinds ---------------------------------------------------------
    def _single_function_suffix(
        self, j: int, dp: ChainDP, srange: BudgetRange, budgets: np.ndarray
    ) -> RawHints:
        # Algorithm 1 line 6-7: min_resource(f1, t). With nothing downstream
        # to absorb a timeout, the head is pinned to the anchor percentile.
        idx = np.clip(budgets, 0, dp.tmax_ms)
        cost = dp.cost_array(j)[idx]
        head_ki = dp.head_size_array(j)[idx]
        feasible = np.isfinite(cost)
        sizes = np.where(feasible, dp.k_grid[np.clip(head_ki, 0, None)], -1)
        anchor = self.percentiles.anchor
        return RawHints(
            suffix_index=j,
            head_function=self.chain[j],
            tmin_ms=srange.tmin_ms,
            tmax_ms=srange.tmax_ms,
            head_sizes=sizes.astype(np.int32),
            head_percentiles=np.where(feasible, anchor, np.nan).astype(np.float32),
            expected_cost=np.where(feasible, self.config.weight * cost, np.inf),
            planned_total=np.where(feasible, cost, np.inf),
        )

    def _candidate_percentiles(self) -> tuple[float, ...]:
        if self.config.exploration is HeadExploration.NONE:
            return (self.percentiles.anchor,)
        # Descending order: on objective ties the safer (higher) percentile
        # wins because updates require a strict improvement.
        return tuple(sorted(self.percentiles.percentiles, reverse=True))

    def _head_exploration_suffix(
        self,
        j: int,
        dp: ChainDP,
        srange: BudgetRange,
        budgets: np.ndarray,
        concurrency: int,
    ) -> RawHints:
        n = len(self.chain)
        n_rest = n - j - 1
        kmax = float(self.limits.kmax)
        weight = self.config.weight
        next_cost = dp.cost_array(j + 1)
        next_res = dp.resilience_array(j + 1)
        prof = self._chain_profiles[j]
        k_vals = dp.k_grid.astype(np.float64)

        size = budgets.size
        best_s = np.full(size, np.inf)
        best_k = np.full(size, -1, dtype=np.int32)
        best_p = np.full(size, np.nan, dtype=np.float32)
        best_total = np.full(size, np.inf)

        for p in self._candidate_percentiles():
            pf = p / 100.0
            l_row = prof.latency_row(p, concurrency)
            d_row = np.ceil(l_row).astype(np.int64)  # (K,)
            timeout_row = prof.timeout_row(p, concurrency)  # (K,)
            rest_idx = budgets[None, :] - d_row[:, None]  # (K, T)
            valid = rest_idx >= 0
            ri = np.clip(rest_idx, 0, dp.tmax_ms)
            rc = next_cost[ri]
            feas = valid & np.isfinite(rc)
            if self.config.enforce_resilience:
                rr = next_res[ri]
                feas &= timeout_row[:, None] <= rr + _EPS
            s = weight * k_vals[:, None] + pf * rc + (1.0 - pf) * n_rest * kmax
            s = np.where(feas, s, np.inf)
            ki_best = np.argmin(s, axis=0)
            cols = np.arange(size)
            s_best = s[ki_best, cols]
            upd = s_best < best_s - _EPS
            if np.any(upd):
                best_s[upd] = s_best[upd]
                best_k[upd] = dp.k_grid[ki_best[upd]]
                best_p[upd] = p
                best_total[upd] = k_vals[ki_best[upd]] + rc[ki_best[upd], cols[upd]]

        feasible = best_k >= 0
        return RawHints(
            suffix_index=j,
            head_function=self.chain[j],
            tmin_ms=srange.tmin_ms,
            tmax_ms=srange.tmax_ms,
            head_sizes=best_k,
            head_percentiles=best_p,
            expected_cost=best_s,
            planned_total=np.where(feasible, best_total, np.inf),
        )

    def _joint_exploration_suffix(
        self,
        j: int,
        dp: ChainDP,
        srange: BudgetRange,
        budgets: np.ndarray,
        concurrency: int,
    ) -> RawHints:
        """Janus+ joint (head, next-to-head) percentile exploration.

        For each next-to-head percentile ``p2`` an intermediate table is
        built over all budgets (best ``k2`` + downstream plan), then the head
        sweep runs against it — multiplying synthesis cost by the percentile
        count, which is exactly the blow-up Fig. 6b documents.
        """
        n = len(self.chain)
        n_rest1 = n - j - 1
        n_rest2 = n - j - 2
        kmax = float(self.limits.kmax)
        weight = self.config.weight
        head_prof = self._chain_profiles[j]
        next_prof = self._chain_profiles[j + 1]
        rest_cost = dp.cost_array(j + 2)
        rest_res = dp.resilience_array(j + 2)
        anchor_res_row = next_prof.latency_row(self.percentiles.anchor, concurrency)
        anchor_res_row = anchor_res_row - anchor_res_row[-1]  # R2(P99, k2)
        k_vals = dp.k_grid.astype(np.float64)
        full = np.arange(dp.tmax_ms + 1, dtype=np.int64)

        size = budgets.size
        best_s = np.full(size, np.inf)
        best_k = np.full(size, -1, dtype=np.int32)
        best_p = np.full(size, np.nan, dtype=np.float32)
        best_total = np.full(size, np.inf)
        percentile_options = self._candidate_percentiles()

        for p2 in percentile_options:
            p2f = p2 / 100.0
            l2 = next_prof.latency_row(p2, concurrency)
            d2 = np.ceil(l2).astype(np.int64)
            t2 = next_prof.timeout_row(p2, concurrency)
            idx2 = full[None, :] - d2[:, None]
            valid2 = idx2 >= 0
            ri2 = np.clip(idx2, 0, dp.tmax_ms)
            rc2 = rest_cost[ri2]
            rr2 = rest_res[ri2]
            feas2 = valid2 & np.isfinite(rc2)
            if self.config.enforce_resilience:
                feas2 &= t2[:, None] <= rr2 + _EPS
            s2 = k_vals[:, None] + p2f * rc2 + (1.0 - p2f) * n_rest2 * kmax
            s2 = np.where(feas2, s2, np.inf)
            k2_best = np.argmin(s2, axis=0)
            cols_full = np.arange(dp.tmax_ms + 1)
            inner_cost = s2[k2_best, cols_full]  # expected downstream cost
            inner_planned = np.where(
                np.isfinite(inner_cost),
                k_vals[k2_best] + rc2[k2_best, cols_full],
                np.inf,
            )
            inner_res = np.where(
                np.isfinite(inner_cost),
                anchor_res_row[k2_best] + rr2[k2_best, cols_full],
                -np.inf,
            )

            for p1 in percentile_options:
                p1f = p1 / 100.0
                l1 = head_prof.latency_row(p1, concurrency)
                d1 = np.ceil(l1).astype(np.int64)
                t1 = head_prof.timeout_row(p1, concurrency)
                idx1 = budgets[None, :] - d1[:, None]
                valid1 = idx1 >= 0
                ri1 = np.clip(idx1, 0, dp.tmax_ms)
                ic = inner_cost[ri1]
                feas1 = valid1 & np.isfinite(ic)
                if self.config.enforce_resilience:
                    feas1 &= t1[:, None] <= inner_res[ri1] + _EPS
                s = weight * k_vals[:, None] + p1f * ic + (1.0 - p1f) * n_rest1 * kmax
                s = np.where(feas1, s, np.inf)
                ki_best = np.argmin(s, axis=0)
                cols = np.arange(size)
                s_best = s[ki_best, cols]
                upd = s_best < best_s - _EPS
                if np.any(upd):
                    best_s[upd] = s_best[upd]
                    best_k[upd] = dp.k_grid[ki_best[upd]]
                    best_p[upd] = p1
                    planned = k_vals[ki_best[upd]] + inner_planned[
                        ri1[ki_best[upd], cols[upd]]
                    ]
                    best_total[upd] = planned

        feasible = best_k >= 0
        return RawHints(
            suffix_index=j,
            head_function=self.chain[j],
            tmin_ms=srange.tmin_ms,
            tmax_ms=srange.tmax_ms,
            head_sizes=best_k,
            head_percentiles=best_p,
            expected_cost=best_s,
            planned_total=np.where(feasible, best_total, np.inf),
        )


#: Process-wide memo of synthesized hint tables, keyed by every input the
#: synthesis reads: per-function profile digests, chain, budget, concurrency
#: and the SynthesisConfig knobs. Hints are deployed read-only, so the memo
#: returns the shared object; SLO sweeps and scenario matrices that revisit
#: a configuration skip both the DP solve and the percentile sweep. The
#: optional disk layer (one JSON of condensed tables per key, shared across
#: pool workers) and the memory/disk/``syntheses`` counters live in the
#: shared :class:`~repro.persist.DiskBackedMemo` machinery.
_HINTS_MEMO = DiskBackedMemo("syntheses", max_entries=64)


def set_hints_cache_dir(path: str | os.PathLike[str] | None) -> None:
    """Attach (or detach, with ``None``) the hints memo's disk layer."""
    _HINTS_MEMO.set_dir(path)


def hints_cache_dir() -> str | None:
    """The currently attached disk-layer directory (``None`` = detached)."""
    return _HINTS_MEMO.dir()


def hints_cache_stats() -> dict[str, int]:
    """Copy of the process-wide hints memo counters."""
    return _HINTS_MEMO.stats()


def clear_hints_cache() -> None:
    """Drop all memoised hint tables (mainly for tests and benchmarks).

    Clears the in-memory memo only — a configured disk layer keeps its
    files (delete the directory to cold-start it).
    """
    _HINTS_MEMO.clear()


def _load_disk_hints(path: str) -> WorkflowHints | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return WorkflowHints.from_json(fh.read())
    except (OSError, ValueError, KeyError, SynthesisError):
        return None  # absent or torn entry — treat as a miss


def _store_disk_hints(path: str, hints: WorkflowHints) -> None:
    atomic_write_bytes(path, hints.to_json().encode("utf-8"))


def synthesize_hints(
    profiles: ProfileSet,
    chain: _t.Sequence[str],
    budget: BudgetRange | None = None,
    concurrency: int = 1,
    weight: float = 1.0,
    exploration: HeadExploration = HeadExploration.HEAD_ONLY,
    enforce_resilience: bool = True,
    workflow_name: str = "",
) -> WorkflowHints:
    """Convenience one-call synthesis (profile set -> condensed tables).

    Results are memoised process-wide on the full input key (profile
    digests + knobs); a repeated call returns the same
    :class:`WorkflowHints` object, whose ``synthesis_seconds`` still reports
    the original live run.
    """
    config = SynthesisConfig(
        weight=weight,
        exploration=exploration,
        enforce_resilience=enforce_resilience,
    )
    key = (
        tuple(profiles[name].digest() for name in chain),
        tuple(chain),
        None if budget is None else (budget.tmin_ms, budget.tmax_ms, budget.step_ms),
        int(concurrency),
        float(weight),
        exploration.value,
        bool(enforce_resilience),
        workflow_name,
    )
    def compute() -> WorkflowHints:
        synth = HintSynthesizer(profiles, chain, config)
        return synth.synthesize(budget, concurrency, workflow_name)

    return _HINTS_MEMO.get(
        key, compute, load=_load_disk_hints, store=_store_disk_hints
    )
