"""The :class:`Session` facade — one entry point for the whole pipeline.

The paper's developer/provider split takes six hand-wired steps (build →
profile → synthesize → policy → requests → run); a :class:`Session` owns
the intermediate artifacts and memoises the expensive ones, so the
quickstart collapses to::

    >>> from repro import Session, intelligent_assistant
    >>> report = Session.evaluate(intelligent_assistant(), slo_ms=3000)
    >>> report.normalized_cpu("Janus") < report.normalized_cpu("GrandSLAM")
    True

Everything underneath resolves through the shared registries: policies by
name via :data:`repro.policies.registry.POLICIES` and executors via
:mod:`repro.runtime.registry`, auto-selected from
:attr:`Workflow.topology`. The same ``Session`` code path therefore drives
chains and branching DAGs — a chain is a degenerate DAG.
"""

from __future__ import annotations

import typing as _t

from ..errors import ExperimentError
from ..policies.base import SizingPolicy
from ..policies.registry import (
    DEFAULT_SUITE,
    JANUS_EXPLORATIONS,
    POLICIES,
    PolicyRegistry,
)
from ..profiling.profiler import profile_workflow
from ..profiling.profiles import ProfileSet
from ..runtime.driver import assemble_suite, run_policies
from ..runtime.registry import Executor, resolve_executor
from ..synthesis.budget import BudgetRange
from ..synthesis.dag import DagWorkflowHints, synthesize_dag_hints
from ..synthesis.generator import HeadExploration, synthesize_hints
from ..synthesis.hints import WorkflowHints
from ..traces.workload import WorkloadConfig, generate_requests
from ..types import Milliseconds
from ..workflow.catalog import Workflow
from ..workflow.request import RequestBlock, WorkflowRequest

__all__ = ["Session"]

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .report import ComparisonReport

#: What ``Session.run``/``requests`` accept as a request-stream spec.
RequestSpec = _t.Union[
    None, int, WorkloadConfig, _t.Sequence[WorkflowRequest]
]

_DEFAULT_SAMPLES = 2000
_DEFAULT_SEED = 2025


class Session:
    """Owns one workflow's evaluation pipeline end to end.

    Parameters
    ----------
    workflow:
        The application under study (chain or DAG).
    slo_ms:
        Optional SLO override; the workflow's default otherwise.
    budget:
        Hint-synthesis budget range; derived from the profiles otherwise.
    samples / seed:
        Profiling-campaign size and master seed. The request stream uses
        ``seed + 1`` so workload randomness is independent of profiling.
    profiles:
        Pre-computed :class:`ProfileSet` to reuse instead of running a
        campaign — the idiom for SLO sweeps sharing one profiling pass.
    registry:
        Policy registry to resolve names through (shared default).
    executor:
        Default backend name for :meth:`run`/:meth:`evaluate`; auto-selected
        from :attr:`Workflow.topology` when ``None``.
    executor_kwargs:
        Construction options for the session's *default* backend — e.g.
        cluster knobs for ``executor="cluster"`` (``{"n_vms": 2,
        "autoscale": False}`` or a full ``{"config": ClusterConfig(...)}``).
        They apply when :meth:`run`/:meth:`compare` resolve that default
        (executor argument omitted or equal to it) and are deliberately
        *not* carried onto a different backend named at a call site —
        pass options for such overrides at the call site itself
        (``session.executor("cluster", n_vms=2)``). Ignored for prebuilt
        executor instances.
    """

    def __init__(
        self,
        workflow: Workflow,
        *,
        slo_ms: Milliseconds | None = None,
        budget: BudgetRange | None = None,
        samples: int = _DEFAULT_SAMPLES,
        seed: int = _DEFAULT_SEED,
        profiles: ProfileSet | None = None,
        registry: PolicyRegistry | None = None,
        executor: str | None = None,
        executor_kwargs: _t.Mapping[str, _t.Any] | None = None,
    ) -> None:
        if slo_ms is not None:
            workflow = workflow.with_slo(slo_ms)
        self.workflow = workflow
        self.budget = budget
        self.samples = int(samples)
        self.seed = int(seed)
        self.registry = registry if registry is not None else POLICIES
        self.executor_name = executor
        self.executor_kwargs = dict(executor_kwargs or {})
        self._profiles = profiles
        #: Synthesized tables memoised per (weight, exploration) — the two
        #: knobs that change table contents for a fixed session budget.
        self._hints_cache: dict[
            tuple[float, str], WorkflowHints | DagWorkflowHints
        ] = {}

    # -- introspection ------------------------------------------------------
    @property
    def topology(self) -> str:
        """The workflow's topology (``"chain"`` or ``"dag"``)."""
        return self.workflow.topology

    @property
    def slo_ms(self) -> float:
        """The SLO this session evaluates against."""
        return float(self.workflow.slo_ms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.workflow.name!r}, topology={self.topology!r}, "
            f"slo_ms={self.slo_ms:g})"
        )

    # -- developer side (offline) -------------------------------------------
    def profile(self, force: bool = False) -> ProfileSet:
        """Profile every function (memoised; ``force`` re-runs the campaign)."""
        if self._profiles is None or force:
            self._profiles = profile_workflow(
                self.workflow, seed=self.seed, samples=self.samples
            )
        return self._profiles

    def synthesize(
        self,
        weight: float = 1.0,
        exploration: HeadExploration = HeadExploration.HEAD_ONLY,
        force: bool = False,
    ) -> WorkflowHints | DagWorkflowHints:
        """Synthesize hint tables for the workflow's topology.

        Memoised per ``(weight, exploration)``: repeating a call is free,
        changing either knob synthesizes fresh tables.
        """
        key = (float(weight), exploration.value)
        if force or key not in self._hints_cache:
            profiles = self.profile()
            if self.topology == "dag":
                hints: WorkflowHints | DagWorkflowHints = synthesize_dag_hints(
                    self.workflow, profiles, budget=self.budget,
                    concurrency=self.workflow.max_concurrency,
                    weight=weight, exploration=exploration,
                )
            else:
                hints = synthesize_hints(
                    profiles, self.workflow.chain, budget=self.budget,
                    concurrency=self.workflow.max_concurrency,
                    weight=weight, exploration=exploration,
                    workflow_name=self.workflow.name,
                )
            self._hints_cache[key] = hints
        return self._hints_cache[key]

    # -- provider side (online) ---------------------------------------------
    def policy(self, name: str = "Janus", **overrides: _t.Any) -> SizingPolicy:
        """Build one named policy through the registry with session defaults.

        Janus variants deploy tables from the :meth:`synthesize` memo (keyed
        by the variant's exploration mode and the requested ``weight``), so
        inspecting tables and then deploying them — or serving the same
        variant twice — synthesizes once. Overrides the memo cannot express
        (``budget``, ``concurrency``, ``enforce_resilience``, explicit
        ``hints``) bypass it and reach the registry builder untouched.
        Profiles are passed lazily: policies that never consume them (the
        clairvoyant oracle, pre-built hints) trigger no profiling campaign.
        """
        kwargs: dict[str, _t.Any] = {
            "budget": self.budget,
            "concurrency": self.workflow.max_concurrency,
        }
        if name in JANUS_EXPLORATIONS:
            mode = JANUS_EXPLORATIONS[name]
            if overrides.get("exploration") is mode:
                # Redundant — the variant name already pins this mode.
                overrides.pop("exploration")
            # A *mismatched* exploration stays in overrides and is rejected
            # by the registry builder's own guard.
            if not (
                set(overrides)
                & {"hints", "budget", "concurrency", "enforce_resilience",
                   "exploration"}
            ):
                kwargs["hints"] = self.synthesize(
                    weight=overrides.get("weight", 1.0), exploration=mode
                )
        kwargs.update(overrides)
        return self.registry.build(name, self.workflow, self.profile, **kwargs)

    def executor(
        self, name: str | Executor | None = None, **kwargs: _t.Any
    ) -> Executor:
        """Resolve an execution backend (session default / auto when ``None``).

        The session's ``executor_kwargs`` are merged under any call-site
        ``kwargs`` — but only when resolving the session's *own* default
        backend (``name`` omitted or equal to it): overriding the backend
        per call must not drag backend-specific session options (cluster
        knobs, say) onto an executor that cannot take them. A prebuilt
        executor passes through unchanged (and takes no options, per
        :func:`resolve_executor`).
        """
        if name is None or name == self.executor_name:
            kwargs = {**self.executor_kwargs, **kwargs}
        target = name if name is not None else self.executor_name
        return resolve_executor(self.workflow, target, **kwargs)

    def requests(self, spec: RequestSpec = None) -> _t.Sequence[WorkflowRequest]:
        """Materialise a request stream from ``spec``.

        ``None`` → the default :class:`WorkloadConfig`; an ``int`` → that
        many requests; a :class:`WorkloadConfig` → as given (each a
        :class:`RequestBlock`); a block passes through unchanged, any other
        sequence of :class:`WorkflowRequest` as a list of its rows.
        """
        if isinstance(spec, RequestBlock):
            return spec
        if spec is not None and not isinstance(spec, (int, WorkloadConfig)):
            return list(spec)
        if isinstance(spec, int):
            spec = WorkloadConfig(n_requests=spec)
        return generate_requests(
            self.workflow, spec or WorkloadConfig(), seed=self.seed + 1
        )

    def run(
        self,
        policy: str | SizingPolicy = "Janus",
        requests: RequestSpec = None,
        executor: str | Executor | None = None,
    ) -> _t.Any:
        """Serve a stream under one policy and return its :class:`RunResult`."""
        if isinstance(policy, str):
            policy = self.policy(policy)
        return self.executor(executor).run(policy, self.requests(requests))

    def suite(
        self, include: _t.Sequence[str] | None = None, **kwargs: _t.Any
    ) -> dict[str, SizingPolicy]:
        """The standard policy suite (or ``include`` subset) for this session.

        Built through :meth:`policy` so Janus variants reuse the session's
        hints memo, with :func:`assemble_suite`'s shared contract: unknown
        names raise, infeasible/unsupported policies are skipped.
        """
        wanted = list(include) if include is not None else list(DEFAULT_SUITE)
        return assemble_suite(
            wanted, self.registry, lambda name: self.policy(name, **kwargs)
        )

    def compare(
        self,
        include: _t.Sequence[str] | None = None,
        requests: RequestSpec = None,
        executor: str | Executor | None = None,
        baseline: str | None = None,
        suite: _t.Mapping[str, SizingPolicy] | None = None,
    ) -> "ComparisonReport":
        """Run the whole profile → synthesize → serve → compare pipeline.

        Returns a :class:`ComparisonReport` over every buildable policy in
        the suite. ``baseline`` defaults to ``"Optimal"`` when present (the
        paper's normalisation), else the first built policy. A prebuilt
        ``suite`` (e.g. from :meth:`suite`) is served as given — ``include``
        is ignored then, and no policies are rebuilt.
        """
        from .report import ComparisonReport

        if suite is None:
            suite = self.suite(include)
        stream = self.requests(requests)
        backend = self.executor(executor)
        results = run_policies(self.workflow, suite, stream, executor=backend)
        if baseline is None:
            baseline = "Optimal" if "Optimal" in results else next(iter(results))
        elif baseline not in results:
            raise ExperimentError(
                f"baseline {baseline!r} not in suite {sorted(results)}"
            )
        # The report derives its table via the shared compare() contract.
        return ComparisonReport(
            workflow_name=self.workflow.name,
            topology=self.topology,
            slo_ms=self.slo_ms,
            executor=type(backend).__name__,
            baseline=baseline,
            results=results,
        )

    # -- the one-call entry point -------------------------------------------
    @classmethod
    def evaluate(
        cls,
        workflow: Workflow,
        *,
        slo_ms: Milliseconds | None = None,
        budget: BudgetRange | None = None,
        requests: RequestSpec = None,
        include: _t.Sequence[str] | None = None,
        samples: int = _DEFAULT_SAMPLES,
        seed: int = _DEFAULT_SEED,
        profiles: ProfileSet | None = None,
        registry: PolicyRegistry | None = None,
        executor: str | None = None,
        executor_kwargs: _t.Mapping[str, _t.Any] | None = None,
        baseline: str | None = None,
    ) -> "ComparisonReport":
        """Profile, synthesize, serve, and compare — in one call.

        ``Session.evaluate(intelligent_assistant(), slo_ms=3000)`` runs the
        full pipeline on the IA chain; pass a branching workflow and the
        same code path drives the DAG backend instead — or name the
        ``"cluster"`` backend (with ``executor_kwargs`` cluster knobs) to
        measure cold starts, co-location and autoscaling on the DES
        platform.
        """
        session = cls(
            workflow, slo_ms=slo_ms, budget=budget, samples=samples,
            seed=seed, profiles=profiles, registry=registry, executor=executor,
            executor_kwargs=executor_kwargs,
        )
        return session.compare(
            include=include, requests=requests, baseline=baseline
        )
