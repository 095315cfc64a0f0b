"""Run results: outcome collections with the paper's summary metrics."""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ExperimentError
from ..workflow.request import RequestOutcome, StageRecord

__all__ = [
    "OutcomeColumns",
    "RunResult",
    "StreamingRunResult",
    "collect_policy_extras",
]

#: Diagnostic attributes lifted off a policy into ``RunResult.extras``
#: (Janus-style policies expose hit rates / synthesis costs — keep them).
_POLICY_EXTRA_ATTRS = ("hit_rate", "synthesis_seconds")


def collect_policy_extras(policy: _t.Any) -> dict[str, _t.Any]:
    """Per-policy diagnostics every executor attaches to its result."""
    return {
        attr: getattr(policy, attr)
        for attr in _POLICY_EXTRA_ATTRS
        if hasattr(policy, attr)
    }


def _baseline_allocation(baseline: "RunResult | StreamingRunResult") -> float:
    """The baseline's mean allocation, the denominator of every
    normalised cost metric."""
    denom = baseline.mean_allocated
    if denom <= 0:
        raise ExperimentError("baseline has zero mean allocation")
    return denom


@dataclass
class OutcomeColumns:
    """Column-wise stage records of a served stream.

    ``functions`` holds the node names in execution (chain/topological)
    order, shared by every row; the stage axis of the 2-D arrays follows
    it. ``order`` lists, per row, the stage columns in the order the row
    reports its stages (completion order on DAGs); ``None`` when every
    row reports them in column order, as chains do.

    Every derived metric reproduces the corresponding
    :class:`~repro.workflow.request.RequestOutcome` property bit-exactly:
    float reductions accumulate sequentially in the row's stage order
    instead of using pairwise ``np.sum``.
    """

    request_ids: np.ndarray  # int64[n]
    arrivals: np.ndarray  # float64[n]
    slos: np.ndarray  # float64[n]
    functions: tuple[str, ...]
    sizes: np.ndarray  # int64[n, S]
    starts: np.ndarray  # float64[n, S]
    ends: np.ndarray  # float64[n, S]
    order: np.ndarray | None = None  # int64[n, S] stage permutation, or None

    @classmethod
    def from_outcomes(
        cls, outcomes: _t.Sequence[RequestOutcome]
    ) -> "OutcomeColumns":
        """Columns of an outcome list (the DES and batching executors'
        output), keyed by the first outcome's stage order."""
        functions = tuple(s.function for s in outcomes[0].stages)
        column = {name: j for j, name in enumerate(functions)}
        identity = list(range(len(functions)))
        rows = [
            [column.get(s.function, -1) for s in o.stages] for o in outcomes
        ]
        if any(sorted(row) != identity for row in rows):
            raise ExperimentError(
                f"outcomes do not all run the stages {list(functions)}"
            )
        order = np.asarray(rows, dtype=np.int64)

        def scatter(attr: str, dtype: type) -> np.ndarray:
            flat = [getattr(s, attr) for o in outcomes for s in o.stages]
            out = np.empty(order.shape, dtype=dtype)
            values = np.asarray(flat, dtype=dtype).reshape(order.shape)
            np.put_along_axis(out, order, values, axis=1)
            return out

        return cls(
            request_ids=np.asarray([o.request_id for o in outcomes], np.int64),
            arrivals=np.asarray([o.arrival_ms for o in outcomes], np.float64),
            slos=np.asarray([o.slo_ms for o in outcomes], np.float64),
            functions=functions,
            sizes=scatter("size", np.int64),
            starts=scatter("start_ms", np.float64),
            ends=scatter("end_ms", np.float64),
            order=None if all(row == identity for row in rows) else order,
        )

    @property
    def n(self) -> int:
        """Number of requests in the batch."""
        return int(self.arrivals.size)

    def reordered(self, functions: tuple[str, ...]) -> "OutcomeColumns":
        """The same rows with stage columns in ``functions`` order (two
        outcome lists of one DAG may key their columns by different first
        rows)."""
        if functions == self.functions:
            return self
        take = [self.functions.index(name) for name in functions]
        moved_to = np.argsort(take)  # old column -> new column
        return replace(
            self,
            functions=functions,
            sizes=self.sizes[:, take],
            starts=self.starts[:, take],
            ends=self.ends[:, take],
            order=(
                np.tile(moved_to, (self.n, 1))
                if self.order is None
                else moved_to[self.order]
            ),
        )

    def e2e_ms(self) -> np.ndarray:
        """Per-request end-to-end latency (last reported stage end -
        arrival)."""
        if self.order is None:
            return self.ends[:, -1] - self.arrivals
        last = np.take_along_axis(self.ends, self.order[:, -1:], axis=1)
        return last[:, 0] - self.arrivals

    def slo_met(self) -> np.ndarray:
        """Boolean mask of requests within their SLO."""
        return self.e2e_ms() <= self.slos

    def slacks(self) -> np.ndarray:
        """Per-request slack ``1 - l/T``."""
        return 1.0 - self.e2e_ms() / self.slos

    def allocated(self) -> np.ndarray:
        """Per-request total allocated millicores (int64)."""
        return self.sizes.sum(axis=1)

    def millicore_ms(self) -> np.ndarray:
        """Per-request resource-time product, accumulated sequentially in
        each row's stage order."""
        sizes, starts, ends = self.sizes, self.starts, self.ends
        if self.order is not None:
            sizes = np.take_along_axis(sizes, self.order, axis=1)
            starts = np.take_along_axis(starts, self.order, axis=1)
            ends = np.take_along_axis(ends, self.order, axis=1)
        acc = np.zeros(self.n, dtype=np.float64)
        for j in range(len(self.functions)):
            acc = acc + sizes[:, j] * (ends[:, j] - starts[:, j])
        return acc

    def to_outcomes(self) -> list[RequestOutcome]:
        """Materialise row-wise :class:`RequestOutcome` records.

        ``.tolist()`` hands exact Python floats/ints to the records, so the
        materialised objects equal the scalar walk's output field by field.
        """
        ids = self.request_ids.tolist()
        arrivals = self.arrivals.tolist()
        slos = self.slos.tolist()
        sizes = self.sizes.tolist()
        starts = self.starts.tolist()
        ends = self.ends.tolist()
        order = (
            self.order.tolist() if self.order is not None
            else [range(len(self.functions))] * self.n
        )
        return [
            RequestOutcome(
                request_id=ids[i],
                arrival_ms=arrivals[i],
                slo_ms=slos[i],
                stages=[
                    StageRecord(
                        function=self.functions[j],
                        size=sizes[i][j],
                        start_ms=starts[i][j],
                        end_ms=ends[i][j],
                    )
                    for j in order[i]
                ],
            )
            for i in range(self.n)
        ]


class RunResult:
    """Outcomes of serving one request stream with one policy.

    Backed by :class:`OutcomeColumns`, which every metric reads. The
    batched executors hand columns over directly and the row-wise
    ``outcomes`` list is materialised only on first access; executors that
    produce an outcome list (the DES platforms, batching) pass it in, get
    it back untouched from ``outcomes``, and have columns derived once.
    """

    def __init__(
        self,
        policy_name: str,
        outcomes: list[RequestOutcome] | None = None,
        extras: dict[str, _t.Any] | None = None,
        *,
        columns: OutcomeColumns | None = None,
    ) -> None:
        self.policy_name = policy_name
        self.extras = extras if extras is not None else {}
        if columns is None and outcomes:
            columns = OutcomeColumns.from_outcomes(outcomes)
        if columns is None or columns.n == 0:
            raise ExperimentError(f"{policy_name}: no outcomes recorded")
        self.columns = columns
        self._outcomes = outcomes

    @property
    def outcomes(self) -> list[RequestOutcome]:
        """Per-request outcome records."""
        if self._outcomes is None:
            self._outcomes = self.columns.to_outcomes()
        return self._outcomes

    # -- latency ---------------------------------------------------------------
    def e2e_ms(self) -> np.ndarray:
        """End-to-end latencies of all requests."""
        return self.columns.e2e_ms()

    def e2e_percentile(self, p: float) -> float:
        """Percentile of the end-to-end latency distribution."""
        return float(np.percentile(self.e2e_ms(), p))

    @property
    def violation_rate(self) -> float:
        """Fraction of requests exceeding their SLO."""
        return float(np.mean(~self.columns.slo_met()))

    def slacks(self) -> np.ndarray:
        """Per-request slack ``1 - l/T``."""
        return self.columns.slacks()

    # -- resources ----------------------------------------------------------
    def allocated(self) -> np.ndarray:
        """Per-request total allocated millicores (the Fig. 5 metric)."""
        return self.columns.allocated().astype(np.float64)

    @property
    def mean_allocated(self) -> float:
        """Average allocated millicores per request."""
        return float(self.allocated().mean())

    @property
    def mean_millicore_ms(self) -> float:
        """Average resource-time product per request."""
        return float(np.mean(self.columns.millicore_ms()))

    def normalized_cpu(self, baseline: "RunResult") -> float:
        """Mean allocation normalised by a baseline (the paper normalises by
        Optimal)."""
        return self.mean_allocated / _baseline_allocation(baseline)

    def reduction_vs(self, other: "RunResult", baseline: "RunResult") -> float:
        """Paper Table I metric: resource reduction of *self* vs. *other*,
        normalised by ``baseline`` (Optimal):
        ``(other - self) / baseline``, as a fraction."""
        return (
            other.mean_allocated - self.mean_allocated
        ) / _baseline_allocation(baseline)

    # -- presentation ---------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Headline metrics as a plain dict."""
        return {
            "mean_allocated_millicores": self.mean_allocated,
            "p50_e2e_ms": self.e2e_percentile(50),
            "p99_e2e_ms": self.e2e_percentile(99),
            "violation_rate": self.violation_rate,
            "mean_slack": float(self.slacks().mean()),
        }


@dataclass(frozen=True)
class StreamingRunResult:
    """Aggregate of serving one stream without retaining the outcomes.

    The bounded-memory counterpart of :class:`RunResult` for very large
    streams: per-request metrics were folded into streaming estimators
    (:mod:`repro.metrics.streaming`) as the stream was served, so only the
    aggregates survive. Percentiles are P² *estimates* (within a fraction
    of a percent of the exact order statistics at sweep-scale streams).
    Duck-types the slice of :class:`RunResult` that
    :func:`repro.runtime.driver.compare` consumes — ``summary()``,
    ``mean_allocated``, ``normalized_cpu`` — so streaming and exact
    results are interchangeable in comparison tables.
    """

    policy_name: str
    n_requests: int
    mean_allocated: float
    p50_e2e_ms: float
    p99_e2e_ms: float
    violation_rate: float
    mean_slack: float
    extras: dict[str, _t.Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ExperimentError(f"{self.policy_name}: no outcomes recorded")

    def normalized_cpu(
        self, baseline: "RunResult | StreamingRunResult"
    ) -> float:
        """Mean allocation normalised by a baseline (paper: Optimal)."""
        return self.mean_allocated / _baseline_allocation(baseline)

    def summary(self) -> dict[str, float]:
        """Headline metrics, same keys as :meth:`RunResult.summary`."""
        return {
            "mean_allocated_millicores": self.mean_allocated,
            "p50_e2e_ms": self.p50_e2e_ms,
            "p99_e2e_ms": self.p99_e2e_ms,
            "violation_rate": self.violation_rate,
            "mean_slack": self.mean_slack,
        }
