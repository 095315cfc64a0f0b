"""ORION-like distribution-aware early binding (Mahgoub et al., OSDI'22).

ORION's key idea (as summarised in the paper's related work): model each
function's latency as a *distribution* and size the DAG so that the
end-to-end P99 of the *convolution* meets the SLO, rather than summing
per-function P99s. Because the sum of independent stage latencies
concentrates, the convolution's P99 is below the sum of P99s — ORION
therefore provisions less than GrandSLAM+ while still meeting the SLO,
which is exactly the ordering Table I reports.

Implementation: each function's latency distribution at size ``k`` is
reconstructed from the profiled percentile table by inverse-CDF
interpolation over common uniform draws (common random numbers keep the
estimate monotone in ``k``), and a greedy coordinate descent shrinks the
allocation one step at a time while the Monte-Carlo end-to-end P99 stays
within the SLO. Each stage's sample table is one vectorised gather, and
each greedy step scores all its trials with one partition; both are
bit-identical to per-size ``np.interp`` and per-trial ``np.percentile``
(the reference kept in ``tests/test_orion.py``).

The plan is a pure function of its inputs, so builds go through a
process-wide memo with an optional disk layer (the sweep's
``--cache-dir``): every sweep cell, pool worker and distributed worker
that asks for the same plan shares one build.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ..errors import PolicyError
from ..knobs import FINITE, INTEGER, PERCENTILE, Domain, at_least, check_args
from ..persist import DiskBackedMemo, atomic_write_bytes
from ..profiling.profiles import ProfileSet
from ..rng import derive_rng
from ..types import Milliseconds
from ..workflow.catalog import Workflow
from .early_binding import FixedPlanPolicy

__all__ = [
    "OrionPolicy",
    "clear_orion_cache",
    "set_orion_cache_dir",
    "orion_cache_dir",
    "orion_cache_stats",
]

#: Process-wide memo of ORION ``(plan, e2e_p99_ms)`` pairs, keyed by every
#: input the greedy reads: the workflow name (it seeds the Monte-Carlo
#: draws), the chain order, each chain profile's content digest,
#: concurrency, the resolved SLO, ``mc_samples``, ``seed``, the resolved
#: target percentile and the safety margin. The optional disk layer (one
#: JSON per key, shared across pool workers) and the memory/disk/``builds``
#: counters live in the shared :class:`~repro.persist.DiskBackedMemo`
#: machinery. An infeasible SLO raises inside the build, so it is never
#: stored and raises again on every build.
_ORION_MEMO = DiskBackedMemo("builds", max_entries=64)


def set_orion_cache_dir(path: str | os.PathLike[str] | None) -> None:
    """Attach (or detach, with ``None``) the ORION memo's disk layer."""
    _ORION_MEMO.set_dir(path)


def orion_cache_dir() -> str | None:
    """The currently attached disk-layer directory (``None`` = detached)."""
    return _ORION_MEMO.dir()


def orion_cache_stats() -> dict[str, int]:
    """Copy of the process-wide ORION memo counters."""
    return _ORION_MEMO.stats()


def clear_orion_cache() -> None:
    """Drop all memoised ORION plans (mainly for tests and benchmarks).

    Clears the in-memory memo only — a configured disk layer keeps its
    files (delete the directory to cold-start it).
    """
    _ORION_MEMO.clear()


def _load_disk_plan(
    path: str, stages: int
) -> tuple[tuple[int, ...], float] | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        plan = tuple(int(k) for k in doc["plan"])
        p99 = float(doc["e2e_p99_ms"])
    except (OSError, ValueError, KeyError, TypeError):
        return None  # absent or torn entry — treat as a miss
    return (plan, p99) if len(plan) == stages else None


def _store_disk_plan(path: str, value: tuple[tuple[int, ...], float]) -> None:
    plan, p99 = value
    # ``json`` writes floats with ``repr``, so the p99 reads back bit for bit.
    doc = {"plan": list(plan), "e2e_p99_ms": p99}
    atomic_write_bytes(path, json.dumps(doc).encode("utf-8"))


def _inverse_cdf_table(
    plane: np.ndarray, p_grid: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """``float64[K, n]``: ``np.interp(uniforms, p_grid, plane[:, k])`` per size.

    ``np.interp``'s slopes and formula, bit for bit; a zero last slope row
    gives its right-edge rule (``u >= p[-1]`` yields ``plane[-1]``).
    ``uniforms`` must not fall below ``p_grid[0]``.
    """
    j = np.searchsorted(p_grid, uniforms, side="right") - 1
    slopes = np.zeros_like(plane)
    slopes[:-1] = np.diff(plane, axis=0) / np.diff(p_grid)[:, None]
    table = slopes[j]
    table *= (uniforms - p_grid[j])[:, None]
    table += plane[j]
    return table.T.copy()  # C order: the greedy gathers whole rows


def _percentile_rows(block: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(block, q, axis=1)``, linear method, bit for bit.

    One single-kth partition finds the lower order statistic and a min
    over the rest the upper one: far cheaper than the two-kth partition
    inside ``np.percentile``. The interpolation is numpy's.
    """
    n = block.shape[1]
    virtual = (n - 1) * (q / 100.0)
    if virtual >= n - 1:
        return block.max(axis=1)
    lo = math.floor(virtual)
    gamma = virtual - lo
    part = np.partition(block, lo, axis=1)
    a, b = part[:, lo], part[:, lo + 1 :].min(axis=1)
    diff = b - a
    return a + diff * gamma if gamma < 0.5 else b - diff * (1 - gamma)


def _greedy_plan(
    name: str,
    profiles: ProfileSet,
    chain: tuple[str, ...],
    concurrency: int,
    slo: float,
    mc_samples: int,
    seed: int,
    anchor: float,
    safety_margin: float,
) -> tuple[tuple[int, ...], float]:
    """One live ORION build: ``(plan, e2e_p99_ms)``, or ``PolicyError``."""
    # ORION sizes against a deflated SLO target. The real system keeps a
    # safety cushion because its distribution model is fitted offline and
    # must absorb bundling/placement effects it does not capture; without
    # the cushion the Monte-Carlo convolution tracks the true P99 so
    # closely that estimation noise alone produces >1% violations.
    target = slo * (1.0 - safety_margin)
    limits = profiles.limits
    rng = derive_rng(seed, "orion", name)
    # Common uniforms per stage; tables[i][ki] holds stage i's latency
    # draws at size index ki.
    uniforms = [
        rng.uniform(
            profiles.percentiles.percentiles[0],
            profiles.percentiles.percentiles[-1],
            size=mc_samples,
        )
        for _ in chain
    ]
    p_grid = profiles.percentiles.as_array()
    tables = [
        _inverse_cdf_table(prof.plane(concurrency), p_grid, u)
        for prof, u in zip(profiles.for_chain(chain), uniforms)
    ]

    def e2e_p99(rows: np.ndarray) -> list[float]:
        # One convolved percentile per row of size indices; stages add
        # up from zero in chain order, the scalar sum's float order.
        total = np.zeros((len(rows), mc_samples))
        for i, table in enumerate(tables):
            total += table[rows[:, i]]
        return _percentile_rows(total, anchor).tolist()

    k_idx = np.full(len(chain), limits.num_options - 1)  # Kmax everywhere
    (p99,) = e2e_p99(k_idx[None])
    if p99 > target:
        if p99 > slo:
            raise PolicyError(
                f"ORION: SLO {slo} ms infeasible even at Kmax "
                f"(E2E P{anchor:g} = {p99:.0f} ms)"
            )
        # Kmax fits the SLO but not the cushioned target: deploy Kmax.
        target = slo

    # Greedy shrink: repeatedly take the single-stage downsize that keeps
    # the convolved P99 within the SLO, preferring the largest millicore
    # saving (all steps save `limits.step`, so any feasible stage works;
    # pick the one leaving the most SLO headroom, the first on ties).
    while stages := np.flatnonzero(k_idx).tolist():
        trials = np.tile(k_idx, (len(stages), 1))
        trials[range(len(stages)), stages] -= 1
        best, best_headroom = -1, -math.inf
        for t, trial_p99 in enumerate(e2e_p99(trials)):
            if trial_p99 <= target and target - trial_p99 > best_headroom:
                best, best_headroom, p99 = t, target - trial_p99, trial_p99
        if best < 0:
            break
        k_idx = trials[best]

    return tuple(int(limits.grid()[ki]) for ki in k_idx), p99


class OrionPolicy(FixedPlanPolicy):
    """Distribution-convolution early binding.

    The plan comes from the process-wide ORION memo (see
    :func:`set_orion_cache_dir`): a repeated build returns a fresh policy
    over the memoised plan, with the live build's ``e2e_p99_ms`` bits.
    """

    #: Constructor knob domains.
    KNOBS = {
        "slo_ms": FINITE.or_none,
        "mc_samples": at_least(1),
        "seed": INTEGER,
        "target_percentile": PERCENTILE.or_none,
        "safety_margin": Domain(0.0, 1.0, lo_open=False),
    }

    def __init__(
        self,
        workflow: Workflow,
        profiles: ProfileSet,
        concurrency: int = 1,
        slo_ms: Milliseconds | None = None,
        mc_samples: int = 4000,
        seed: int = 7,
        target_percentile: float | None = None,
        safety_margin: float = 0.10,
    ) -> None:
        check_args(PolicyError, OrionPolicy, locals())
        slo = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        anchor = float(
            target_percentile
            if target_percentile is not None
            else profiles.percentiles.anchor
        )
        chain = tuple(workflow.chain)
        # Profile digests cover each table and the shared size and
        # percentile grids. ``concurrency`` stays as given, so a value no
        # profile has still fails with the profiles' own error.
        knobs = (
            concurrency, slo, int(mc_samples), int(seed), anchor,
            float(safety_margin),
        )
        key = (
            workflow.name,
            chain,
            tuple(prof.digest() for prof in profiles.for_chain(chain)),
            *knobs,
        )
        plan, p99 = _ORION_MEMO.get(
            key,
            compute=lambda: _greedy_plan(workflow.name, profiles, chain, *knobs),
            load=lambda path: _load_disk_plan(path, len(chain)),
            store=_store_disk_plan,
        )
        super().__init__("ORION", plan)
        self.stage_order = chain
        self.e2e_p99_ms = p99
        self.slo_ms = slo
