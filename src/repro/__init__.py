"""Janus: bilaterally engaged runtime resource adaptation for serverless
workflows — a full reproduction of the IPDPS 2025 paper.

Quickstart
----------
The :class:`Session` facade runs the whole developer/provider pipeline —
profile → synthesize → policy → serve → compare — in one call, for chains
and branching DAGs alike:

>>> from repro import Session, intelligent_assistant
>>> report = Session.evaluate(intelligent_assistant(), slo_ms=3000)
>>> report.violation_rate("Janus") <= 0.01
True
>>> report.normalized_cpu("Janus") < report.normalized_cpu("GrandSLAM")
True

Step-by-step control over the same pipeline:

>>> session = Session(intelligent_assistant(), slo_ms=3000)
>>> profiles = session.profile()
>>> hints = session.synthesize()
>>> result = session.run("Janus", requests=500)
>>> result.violation_rate <= 0.01
True

New systems plug into the shared registries instead of spawning parallel
API families: policies by name through :data:`POLICIES`
(``POLICIES.register("MyPolicy")(builder)``) and execution backends through
:func:`register_executor` (``analytic``, ``dag``, ``batching`` and the DES
``cluster`` platform ship built in; the analytic pair is auto-selected
from :attr:`Workflow.topology`).

The package splits along the paper's developer/provider boundary:

* developer side (offline): :mod:`repro.profiling`, :mod:`repro.synthesis`
* provider side (online): :mod:`repro.adapter`, :mod:`repro.cluster`
* shared substrate: :mod:`repro.workflow`, :mod:`repro.functions`,
  :mod:`repro.traces`, :mod:`repro.sim`
* evaluation: :mod:`repro.policies`, :mod:`repro.runtime`,
  :mod:`repro.metrics`, :mod:`repro.experiments`, :mod:`repro.scenarios`
* high-level facade: :mod:`repro.api`

Broad scenario coverage goes through :class:`ScenarioMatrix` /
:class:`SweepRunner` — a declarative arrival x topology x SLO x tenant
product executed on a process pool with bit-reproducible results.
"""

from .adapter import AdapterService, HitMissSupervisor, JanusAdapter
from .api import ComparisonReport, Session
from .cluster import (
    ClusterConfig,
    InterferenceModel,
    MultiTenantPlatform,
    ServerlessPlatform,
    TenantJob,
)
from .errors import ReproError
from .functions import FunctionModel, InvocationDynamics, Resource
from .profiling import (
    LatencyProfile,
    Profiler,
    ProfilerConfig,
    ProfileSet,
    load_profile_set,
    profile_workflow,
    save_profile_set,
)
from .policies import (
    DEFAULT_SUITE,
    GrandSLAMPlusPolicy,
    GrandSLAMPolicy,
    JanusPolicy,
    OraclePolicy,
    OrionPolicy,
    POLICIES,
    PolicyRegistry,
    SizingPolicy,
    janus,
    janus_minus,
    janus_plus,
)
from .runtime import (
    AnalyticExecutor,
    BatchingExecutor,
    Executor,
    RunResult,
    build_policy_suite,
    compare,
    executor_names,
    get_executor,
    register_executor,
    resolve_executor,
    run_policies,
)
from .scenarios import (
    Scenario,
    ScenarioMatrix,
    SweepReport,
    SweepRunner,
    run_scenario,
)
from .synthesis import (
    BudgetRange,
    CondensedHintsTable,
    HeadExploration,
    HintSynthesizer,
    SynthesisConfig,
    WorkflowHints,
    synthesize_hints,
)
from .traces import (
    ArrivalSpec,
    DiurnalRate,
    PopularityMix,
    WorkloadConfig,
    WorkloadTrace,
    generate_requests,
    generate_workload_trace,
    load_trace,
    save_trace,
    trace_from_requests,
)
from .types import PercentileGrid, ResourceLimits
from .workflow import (
    RequestOutcome,
    Workflow,
    WorkflowDAG,
    WorkflowRequest,
    chain_dag,
    intelligent_assistant,
    parse_spec,
    video_analytics,
)

__version__ = "1.4.0"

__all__ = [
    "__version__",
    "ReproError",
    # facade
    "Session",
    "ComparisonReport",
    # workflow
    "Workflow",
    "WorkflowDAG",
    "chain_dag",
    "parse_spec",
    "intelligent_assistant",
    "video_analytics",
    "WorkflowRequest",
    "RequestOutcome",
    # functions
    "FunctionModel",
    "InvocationDynamics",
    "Resource",
    # profiling
    "LatencyProfile",
    "ProfileSet",
    "Profiler",
    "ProfilerConfig",
    "profile_workflow",
    "save_profile_set",
    "load_profile_set",
    # synthesis
    "BudgetRange",
    "HintSynthesizer",
    "SynthesisConfig",
    "HeadExploration",
    "WorkflowHints",
    "CondensedHintsTable",
    "synthesize_hints",
    # adapter
    "JanusAdapter",
    "AdapterService",
    "HitMissSupervisor",
    # policies
    "SizingPolicy",
    "PolicyRegistry",
    "POLICIES",
    "DEFAULT_SUITE",
    "JanusPolicy",
    "janus",
    "janus_minus",
    "janus_plus",
    "OraclePolicy",
    "OrionPolicy",
    "GrandSLAMPolicy",
    "GrandSLAMPlusPolicy",
    # runtime
    "Executor",
    "register_executor",
    "executor_names",
    "get_executor",
    "resolve_executor",
    "AnalyticExecutor",
    "BatchingExecutor",
    "RunResult",
    "build_policy_suite",
    "run_policies",
    "compare",
    # cluster
    "ServerlessPlatform",
    "MultiTenantPlatform",
    "TenantJob",
    "ClusterConfig",
    "InterferenceModel",
    # scenarios
    "Scenario",
    "ScenarioMatrix",
    "SweepRunner",
    "SweepReport",
    "run_scenario",
    # traces
    "DiurnalRate",
    "PopularityMix",
    "WorkloadTrace",
    "generate_workload_trace",
    "load_trace",
    "save_trace",
    "trace_from_requests",
    "generate_requests",
    "WorkloadConfig",
    "ArrivalSpec",
    # types
    "ResourceLimits",
    "PercentileGrid",
]
