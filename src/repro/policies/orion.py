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
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PolicyError
from ..profiling.profiles import ProfileSet
from ..rng import derive_rng
from ..types import Milliseconds
from ..workflow.catalog import Workflow
from .early_binding import FixedPlanPolicy

__all__ = ["OrionPolicy"]


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


class OrionPolicy(FixedPlanPolicy):
    """Distribution-convolution early binding."""

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
        if not 0.0 <= safety_margin < 1.0:
            raise PolicyError(f"safety margin must be in [0, 1): {safety_margin}")
        if not isinstance(mc_samples, (int, np.integer)) or mc_samples < 1:
            raise PolicyError(
                f"ORION: mc_samples must be an integer >= 1: {mc_samples!r}"
            )
        slo = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        if not math.isfinite(slo):
            raise PolicyError(f"ORION: slo_ms must be finite: {slo}")
        anchor = float(
            target_percentile
            if target_percentile is not None
            else profiles.percentiles.anchor
        )
        if not 0.0 <= anchor <= 100.0:
            raise PolicyError(
                f"ORION: target_percentile must be in [0, 100]: {anchor}"
            )
        # ORION sizes against a deflated SLO target. The real system keeps a
        # safety cushion because its distribution model is fitted offline and
        # must absorb bundling/placement effects it does not capture; without
        # the cushion the Monte-Carlo convolution tracks the true P99 so
        # closely that estimation noise alone produces >1% violations.
        target = slo * (1.0 - safety_margin)
        chain = workflow.chain
        limits = profiles.limits
        rng = derive_rng(seed, "orion", workflow.name)
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

        plan = [int(limits.grid()[ki]) for ki in k_idx]
        super().__init__("ORION", plan)
        self.stage_order = tuple(workflow.chain)
        self.e2e_p99_ms = p99
        self.slo_ms = slo
