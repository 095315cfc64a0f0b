"""Multi-tenant serving: several workflows sharing one cluster.

Paper §III-A: "In a multi-user scenario, the hints are managed separately
for each tenant and each workflow." This module runs multiple tenants'
workflows on one set of VMs. Function identities are namespaced per tenant
(``tenant:function``) so that warm pools and co-location interference stay
tenant-local — commercial platforms pack instances of the *same* tenant
together (§II-B), which is exactly what the pool's affinity placement then
reproduces.

Per-request serving is *not* re-implemented here: each tenant's requests go
through the registered ``"cluster"`` executor's serving core
(:class:`~repro.cluster.platform._ServingPlatform`), with the pool keys
namespaced per tenant — so chain and full-DAG workflows behave identically
on the shared cluster and on a dedicated one, every run starts on fresh
simulator/pool/autoscaler/accounting state, and ``ClusterConfig.autoscale``
drives one shared horizontal autoscaler whose demand signal is fed per
tenant-namespaced function.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from ..errors import ClusterError
from ..functions.model import FunctionModel
from ..policies.base import SizingPolicy
from ..runtime.results import RunResult
from ..workflow.catalog import Workflow
from ..workflow.request import RequestOutcome, WorkflowRequest
from .faults import FaultSpec
from .interference import InterferenceModel
from .platform import ClusterConfig, _ServingPlatform

__all__ = ["TenantJob", "MultiTenantPlatform"]


@dataclass(frozen=True)
class TenantJob:
    """One tenant's serving job: a policy plus its request stream."""

    tenant: str
    policy: SizingPolicy
    requests: tuple[WorkflowRequest, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ClusterError(f"tenant {self.tenant!r} has no requests")


class MultiTenantPlatform(_ServingPlatform):
    """Shared-cluster execution of several tenants' workflows."""

    def __init__(
        self,
        workflows: _t.Mapping[str, Workflow],
        config: ClusterConfig | None = None,
        interference: InterferenceModel | None = None,
        faults: FaultSpec | None = None,
        fault_seed: int = 0,
    ) -> None:
        if not workflows:
            raise ClusterError("at least one tenant workflow required")
        self.workflows = dict(workflows)
        self.config = config or ClusterConfig()
        for workflow in self.workflows.values():
            self.config.check_workflow(workflow)
        self.interference = interference or InterferenceModel()
        self._init_faults(faults, fault_seed)
        self._namespaced: dict[str, FunctionModel] = {}
        for tenant, workflow in self.workflows.items():
            for name, model in workflow.functions.items():
                self._namespaced[self._key(tenant, name)] = model
        self._outcomes: dict[str, list[RequestOutcome]] = {}
        self._reset()

    def _reset(self) -> None:
        self._build_substrate(self._namespaced)

    @staticmethod
    def _key(tenant: str, function: str) -> str:
        return f"{tenant}:{function}"

    # ------------------------------------------------------------------
    def _serve(self, tenant: str, policy: SizingPolicy, request: WorkflowRequest):
        """Process: one tenant request through the shared serving core."""
        outcome = yield from self._serve_request(
            self.workflows[tenant], policy, request,
            pool_key=lambda fname: self._key(tenant, fname),
        )
        self._outcomes[tenant].append(outcome)
        return outcome

    # -- public API -------------------------------------------------------
    def run(self, jobs: _t.Sequence[TenantJob]) -> dict[str, RunResult]:
        """Serve all tenants' streams concurrently on the shared cluster."""
        if not jobs:
            raise ClusterError("no tenant jobs submitted")
        tenants = [job.tenant for job in jobs]
        if len(set(tenants)) != len(tenants):
            raise ClusterError(f"duplicate tenants: {tenants}")
        unknown = [t for t in tenants if t not in self.workflows]
        if unknown:
            raise ClusterError(f"tenants without deployed workflows: {unknown}")
        self._reset()
        self._start_faults(
            [request for job in jobs for request in job.requests]
        )
        self._outcomes = {job.tenant: [] for job in jobs}
        procs = []
        for job in jobs:
            for request in job.requests:
                procs.append(
                    self.sim.process(
                        self._hold_until_arrival(
                            request, self._serve(job.tenant, job.policy, request)
                        )
                    )
                )
        self._drain(procs)
        platform_extras = self._platform_extras()
        results: dict[str, RunResult] = {}
        for job in jobs:
            outcomes = sorted(
                self._outcomes[job.tenant], key=lambda o: o.request_id
            )
            results[job.tenant] = RunResult(
                policy_name=job.policy.name,
                outcomes=outcomes,
                extras={**platform_extras, "tenant": job.tenant},
            )
        return results
