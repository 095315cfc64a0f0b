"""Zipf popularity mixes over registered catalog workflows.

The paper's Fig. 1a substrate (:mod:`repro.traces.azure`) draws function
popularity from a Zipf law. :class:`PopularityMix` lifts that skew from
anonymous function ids to *named workflows*: rank 0 (the most popular) is
the first workflow in the tuple, and an invocation stream assigns each
arrival a workflow with Zipf(``zipf_s``) probabilities — turning a single
arrival process into a realistic multi-workflow stream whose per-workflow
sub-streams a scenario cell can replay individually.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..knobs import POSITIVE, check, knob

__all__ = ["PopularityMix"]


@dataclass(frozen=True)
class PopularityMix:
    """Zipf(``zipf_s``) popularity over an ordered tuple of workflows.

    ``workflows[0]`` is rank 1 (heaviest traffic); weights decay as
    ``rank ** -zipf_s`` and are normalised to sum to one.
    """

    workflows: tuple[str, ...]
    zipf_s: float = knob(POSITIVE, 0.9)

    def __post_init__(self) -> None:
        if not self.workflows:
            raise TraceError("popularity mix requires >= 1 workflow")
        if len(set(self.workflows)) != len(self.workflows):
            raise TraceError(f"duplicate workflows: {list(self.workflows)}")
        check(self, TraceError)

    def weights(self) -> np.ndarray:
        """Normalised popularity weights, one per workflow (rank order)."""
        ranks = np.arange(1, len(self.workflows) + 1, dtype=np.float64)
        w = ranks ** (-self.zipf_s)
        return w / w.sum()

    def share(self, workflow: str) -> float:
        """Traffic share of one workflow."""
        try:
            rank = self.workflows.index(workflow)
        except ValueError:
            raise TraceError(
                f"unknown workflow {workflow!r}; mix covers "
                f"{list(self.workflows)}"
            )
        return float(self.weights()[rank])

    def assign(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Workflow index (rank position) for each of ``n`` invocations."""
        if n <= 0:
            raise TraceError(f"n must be > 0, got {n}")
        return rng.choice(
            len(self.workflows), size=n, p=self.weights()
        ).astype(np.int64)

    def map_ranks(self, function_ranks: np.ndarray) -> np.ndarray:
        """Map trace function popularity ranks onto workflow indices.

        Rank ``r`` (0 = most popular function) lands on workflow
        ``r % len(workflows)``, so the heaviest trace functions spread
        round-robin across the catalog in popularity order — the bridge
        from an :class:`~repro.traces.azure.AzureLikeTrace`'s anonymous
        functions to registered workflows.
        """
        ranks = np.asarray(function_ranks, dtype=np.int64)
        if ranks.size and ranks.min() < 0:
            raise TraceError("function ranks must be >= 0")
        return ranks % len(self.workflows)

    def names_for(self, indices: np.ndarray) -> _t.List[str]:
        """Workflow names for an index array (from :meth:`assign`)."""
        return [self.workflows[int(i)] for i in indices]
