"""The :class:`Workflow` facade and the two evaluation workflows.

A :class:`Workflow` bundles everything a policy needs to serve an
application: the DAG, the function models, the resource limits and the
default SLO. The catalog constructors reproduce the paper's Intelligent
Assistant and Video Analytics applications (§V-A).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from ..errors import WorkflowError
from ..functions.library import ia_functions, va_functions
from ..functions.model import FunctionModel
from ..knobs import POSITIVE, at_least, check, knob
from ..types import Milliseconds, ResourceLimits
from .chain import chain_dag
from .dag import WorkflowDAG

__all__ = ["Workflow", "intelligent_assistant", "video_analytics"]


@dataclass(frozen=True)
class Workflow:
    """An application: DAG + function models + limits + default SLO."""

    name: str
    dag: WorkflowDAG
    functions: dict[str, FunctionModel]
    slo_ms: Milliseconds = knob(POSITIVE)
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    max_concurrency: int = knob(at_least(1), 1)

    def __post_init__(self) -> None:
        missing = [n for n in self.dag.nodes if n not in self.functions]
        if missing:
            raise WorkflowError(f"{self.name}: missing function models: {missing}")
        extra = [n for n in self.functions if n not in self.dag]
        if extra:
            raise WorkflowError(f"{self.name}: models without DAG nodes: {extra}")
        check(self, WorkflowError)
        if self.max_concurrency > 1:
            non_batchable = [
                n for n in self.dag.nodes if not self.functions[n].batchable
            ]
            if non_batchable:
                raise WorkflowError(
                    f"{self.name}: concurrency {self.max_concurrency} requires "
                    f"batchable functions, but {non_batchable} are not"
                )

    @property
    def topology(self) -> str:
        """``"chain"`` when the DAG is a simple path, ``"dag"`` otherwise.

        The single switch executors, synthesis, and the :class:`Session`
        facade key on — callers should not probe ``.dag``/``.chain`` shape
        themselves.
        """
        return "chain" if self.dag.is_chain else "dag"

    @property
    def chain(self) -> list[str]:
        """Execution order as a chain (critical path for general DAGs)."""
        if self.dag.is_chain:
            return self.dag.as_chain()
        weights = {
            n: self.functions[n].base_time(self.limits.kmin)
            for n in self.dag.nodes
        }
        return self.dag.critical_path(weights)

    @property
    def num_functions(self) -> int:
        return self.dag.num_nodes

    def models_in_order(self) -> list[FunctionModel]:
        """Function models along :attr:`chain`."""
        return [self.functions[n] for n in self.chain]

    def model(self, name: str) -> FunctionModel:
        """Model for function ``name``."""
        try:
            return self.functions[name]
        except KeyError:
            raise WorkflowError(f"{self.name}: unknown function {name!r}")

    def with_slo(self, slo_ms: Milliseconds) -> "Workflow":
        """Copy of this workflow with a different SLO."""
        return Workflow(
            name=self.name,
            dag=self.dag,
            functions=dict(self.functions),
            slo_ms=slo_ms,
            limits=self.limits,
            max_concurrency=self.max_concurrency,
        )

    def with_concurrency(self, concurrency: int) -> "Workflow":
        """Copy of this workflow with a different batch size."""
        return Workflow(
            name=self.name,
            dag=self.dag,
            functions=dict(self.functions),
            slo_ms=self.slo_ms,
            limits=self.limits,
            max_concurrency=concurrency,
        )


def _bundle(
    name: str,
    models: _t.Sequence[FunctionModel],
    slo_ms: Milliseconds,
    limits: ResourceLimits,
    max_concurrency: int,
) -> Workflow:
    dag = chain_dag([m.name for m in models])
    return Workflow(
        name=name,
        dag=dag,
        functions={m.name: m for m in models},
        slo_ms=slo_ms,
        limits=limits,
        max_concurrency=max_concurrency,
    )


def intelligent_assistant(
    slo_ms: Milliseconds = 3000.0,
    concurrency: int = 1,
    limits: ResourceLimits | None = None,
) -> Workflow:
    """The IA workflow: OD -> QA -> TS, default SLO 3 s (paper §V-A).

    The paper evaluates concurrency (batch size) 1, 2, 3 with SLOs
    3 s / 4 s / 5 s respectively.
    """
    return _bundle(
        name="IA",
        models=ia_functions(),
        slo_ms=slo_ms,
        limits=limits or ResourceLimits(),
        max_concurrency=concurrency,
    )


def video_analytics(
    slo_ms: Milliseconds = 1500.0,
    limits: ResourceLimits | None = None,
) -> Workflow:
    """The VA workflow: FE -> ICL -> ICO, default SLO 1.5 s (paper §V-A).

    Concurrency is fixed at one because FE and ICO cannot batch.
    """
    return _bundle(
        name="VA",
        models=va_functions(),
        slo_ms=slo_ms,
        limits=limits or ResourceLimits(),
        max_concurrency=1,
    )
