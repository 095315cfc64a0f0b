"""The unified Session facade, executor/policy registries, and the
compatibility surface of the chain/DAG API unification."""

import warnings

import numpy as np
import pytest

import repro
from repro.api import ComparisonReport, Session
from repro.errors import ExperimentError, PolicyError
from repro.policies import POLICIES, PolicyRegistry, SizingPolicy
from repro.policies.dag import DagJanusPolicy
from repro.policies.early_binding import FixedPlanPolicy
from repro.profiling.profiler import profile_workflow
from repro.runtime import (
    AnalyticExecutor,
    BatchingExecutor,
    DagAnalyticExecutor,
    build_policy_suite,
    executor_names,
    get_executor,
    resolve_executor,
    run_policies,
)
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.workflow.chain import chain_dag

SAMPLES = 600
SEED = 11


@pytest.fixture(scope="module")
def chain_session(small_workflow):
    return Session(small_workflow, samples=SAMPLES, seed=SEED)


@pytest.fixture(scope="module")
def diamond_workflow():
    from repro.experiments.extension_dag import diamond_workflow as build

    return build(slo_ms=2200.0)


class TestWorkflowTopology:
    def test_chain(self, small_workflow):
        assert small_workflow.topology == "chain"
        assert small_workflow.dag == chain_dag(small_workflow.chain)

    def test_dag(self, diamond_workflow):
        assert diamond_workflow.topology == "dag"


class TestExecutorRegistry:
    def test_builtins_registered(self):
        assert {"analytic", "dag", "batching", "cluster"} <= set(
            executor_names()
        )

    def test_get_by_name(self, small_workflow):
        assert isinstance(
            get_executor("analytic", small_workflow), AnalyticExecutor
        )
        assert isinstance(get_executor("dag", small_workflow), DagAnalyticExecutor)
        assert isinstance(
            get_executor("batching", small_workflow), BatchingExecutor
        )

    def test_unknown_name_rejected(self, small_workflow):
        with pytest.raises(ExperimentError, match="unknown executor"):
            get_executor("quantum", small_workflow)

    def test_auto_selection_by_topology(self, small_workflow, diamond_workflow):
        assert isinstance(resolve_executor(small_workflow), AnalyticExecutor)
        assert isinstance(resolve_executor(diamond_workflow), DagAnalyticExecutor)

    def test_prebuilt_executor_passes_through(self, small_workflow):
        executor = AnalyticExecutor(small_workflow)
        assert resolve_executor(small_workflow, executor) is executor

    def test_prebuilt_executor_rejects_options(self, small_workflow):
        with pytest.raises(ExperimentError, match="already-built"):
            resolve_executor(
                small_workflow, AnalyticExecutor(small_workflow), clamp_sizes=False
            )

    def test_backend_option_mismatch_raises_named_error(self, small_workflow):
        # Cluster knobs on a session with an auto-selected analytic default
        # must fail with an error naming the backend and options, not an
        # opaque TypeError from inside the factory.
        session = Session(small_workflow, executor_kwargs={"n_vms": 2})
        with pytest.raises(
            ExperimentError, match=r"'analytic' rejected options \['n_vms'\]"
        ):
            session.executor()

    def test_cluster_backend_resolves_with_kwargs(self, small_workflow):
        from repro.cluster.platform import ServerlessPlatform

        backend = get_executor(
            "cluster", small_workflow, n_vms=2, autoscale=False
        )
        assert isinstance(backend, ServerlessPlatform)
        assert backend.config.n_vms == 2

    def test_session_executor_kwargs_reach_named_backend(self, small_workflow):
        session = Session(
            small_workflow,
            executor="cluster",
            executor_kwargs={"n_vms": 2, "autoscale": False},
        )
        backend = session.executor()
        assert backend.config.n_vms == 2 and backend.config.autoscale is False
        # Call-site kwargs override the session defaults.
        assert session.executor(n_vms=3).config.n_vms == 3
        # Overriding the backend per call must NOT drag the session's
        # cluster knobs onto an executor that cannot take them.
        assert isinstance(session.executor("analytic"), AnalyticExecutor)
        # A prebuilt executor still passes through untouched.
        prebuilt = AnalyticExecutor(small_workflow)
        assert session.executor(prebuilt) is prebuilt

    def test_session_serves_on_cluster_backend(
        self, small_workflow, small_profiles
    ):
        session = Session(
            small_workflow,
            slo_ms=8000.0,
            profiles=small_profiles,
            executor="cluster",
            executor_kwargs={"n_vms": 2, "vm_capacity_millicores": 20_000,
                             "autoscale": False},
        )
        result = session.run("GrandSLAM", 10)
        assert result.extras["cold_start_rate"] > 0
        assert any(
            s.cold_start_ms > 0 for o in result.outcomes for s in o.stages
        )
        report = session.compare(include=("GrandSLAM", "Janus"), requests=10)
        assert report.executor == "ServerlessPlatform"
        assert set(report.table) == {"GrandSLAM", "Janus"}


class TestPolicyRegistry:
    def test_standard_suite_registered(self):
        assert {"Optimal", "ORION", "Janus", "Janus-", "Janus+",
                "GrandSLAM", "GrandSLAM+"} <= set(POLICIES.names())

    def test_unknown_name_rejected(self, small_workflow, small_profiles):
        with pytest.raises(ExperimentError, match="unknown policy"):
            POLICIES.build("Nope", small_workflow, small_profiles)

    def test_custom_registration_flows_into_suite(
        self, small_workflow, small_profiles
    ):
        registry = PolicyRegistry()
        registry.register(
            "Fixed2k",
            lambda wf, profiles, **kw: FixedPlanPolicy(
                "Fixed2k", [2000] * wf.num_functions
            ),
        )
        suite = build_policy_suite(
            small_workflow, small_profiles,
            include=["Fixed2k"], registry=registry,
        )
        assert set(suite) == {"Fixed2k"}
        assert suite["Fixed2k"].plan == [2000, 2000, 2000]

    def test_topology_dispatch(self, diamond_workflow):
        profiles = profile_workflow(diamond_workflow, seed=SEED, samples=SAMPLES)
        policy = POLICIES.build("Janus", diamond_workflow, profiles)
        assert isinstance(policy, DagJanusPolicy)

    def test_enforce_resilience_reaches_builder(
        self, small_workflow, small_profiles, small_budget
    ):
        on = POLICIES.build(
            "Janus", small_workflow, small_profiles, budget=small_budget
        )
        off = POLICIES.build(
            "Janus", small_workflow, small_profiles, budget=small_budget,
            enforce_resilience=False,
        )
        # Dropping Eq. 6 admits cheaper plans — the tables must differ.
        assert off.hints.condensed_hint_count != on.hints.condensed_hint_count \
            or off.hints.raw_hint_count != on.hints.raw_hint_count

    def test_chain_only_policies_reject_dags(self, diamond_workflow):
        profiles = profile_workflow(diamond_workflow, seed=SEED, samples=SAMPLES)
        for name in ("Optimal", "ORION", "GrandSLAM+"):
            with pytest.raises(PolicyError, match="chain workflows only"):
                POLICIES.build(name, diamond_workflow, profiles)


class TestUnifiedSizingPolicy:
    def test_stage_indexed_policy_answers_by_node(self, small_workflow):
        policy = FixedPlanPolicy("fixed", [1000, 1500, 2000])
        policy.bind(small_workflow)
        req = generate_requests(small_workflow, WorkloadConfig(n_requests=1))[0]
        assert policy.size_for_node("F0", req, 0.0) == 1000
        assert policy.size_for_node("F2", req, 50.0) == 2000
        # The historical index-keyed shim still answers identically.
        assert policy.size_for_stage(2, req, 50.0) == 2000

    def test_unknown_node_rejected(self, small_workflow):
        policy = FixedPlanPolicy("fixed", [1000] * 3)
        policy.bind(small_workflow)
        req = generate_requests(small_workflow, WorkloadConfig(n_requests=1))[0]
        with pytest.raises(PolicyError, match="not in stage order"):
            policy.size_for_node("F9", req, 0.0)

    def test_unbound_policy_rejected(self, small_workflow):
        policy = FixedPlanPolicy("fixed", [1000] * 3)
        req = generate_requests(small_workflow, WorkloadConfig(n_requests=1))[0]
        assert policy.stage_order is None
        with pytest.raises(PolicyError, match="no stage order bound"):
            policy.size_for_node("F0", req, 0.0)

    def test_worstcase_serves_dag_branches(self, diamond_workflow):
        from repro.policies.early_binding import WorstCasePolicy

        policy = WorstCasePolicy(diamond_workflow)
        requests = generate_requests(
            diamond_workflow, WorkloadConfig(n_requests=3), seed=1
        )
        result = DagAnalyticExecutor(diamond_workflow).run(policy, requests)
        kmax = diamond_workflow.limits.kmax
        # Every node — including off-critical-path Audio — rides at Kmax.
        assert all(
            s.size == kmax for o in result.outcomes for s in o.stages
        )

    def test_bind_is_identity_cached(self, small_workflow):
        policy = FixedPlanPolicy("fixed", [1000] * 3)
        policy.bind(small_workflow)
        order = policy.stage_order
        policy.bind(small_workflow)  # same workflow: early-out, no recompute
        assert policy.stage_order is order
        other = Session(small_workflow, slo_ms=999.0).workflow
        policy.bind(other)
        assert policy.stage_order == order  # same chain, freshly derived
        assert policy._bound_workflow is other

    def test_policy_without_any_override_rejected(self, small_workflow):
        class Empty(SizingPolicy):
            name = "empty"

        req = generate_requests(small_workflow, WorkloadConfig(n_requests=1))[0]
        with pytest.raises(PolicyError, match="overrides none"):
            Empty().size_for_node("F0", req, 0.0)


class TestChainDagParity:
    """A chain is a degenerate DAG: both executors and both synthesis paths
    must produce byte-identical results on it."""

    def test_dag_executor_reproduces_analytic_results(
        self, small_workflow, small_profiles, small_budget
    ):
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=60), seed=3
        )
        suite = build_policy_suite(
            small_workflow, small_profiles, budget=small_budget,
            include=["Optimal", "Janus", "GrandSLAM"],
        )
        for name in suite:
            analytic = AnalyticExecutor(small_workflow).run(
                build_policy_suite(
                    small_workflow, small_profiles, budget=small_budget,
                    include=[name],
                )[name],
                requests,
            )
            via_dag = DagAnalyticExecutor(small_workflow).run(
                suite[name], requests
            )
            np.testing.assert_array_equal(analytic.e2e_ms(), via_dag.e2e_ms())
            np.testing.assert_array_equal(
                analytic.allocated(), via_dag.allocated()
            )

    def test_session_evaluate_matches_manual_pipeline(self, small_workflow):
        report = Session.evaluate(
            small_workflow, samples=SAMPLES, seed=SEED,
            include=["Optimal", "Janus", "GrandSLAM"], requests=60,
        )
        # The old six-step hand-wired pipeline, reproduced exactly.
        profiles = profile_workflow(small_workflow, seed=SEED, samples=SAMPLES)
        suite = build_policy_suite(
            small_workflow, profiles, include=["Optimal", "Janus", "GrandSLAM"]
        )
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=60), seed=SEED + 1
        )
        manual = run_policies(small_workflow, suite, requests)
        assert set(report.results) == set(manual)
        for name, expected in manual.items():
            np.testing.assert_array_equal(
                report.result_for(name).e2e_ms(), expected.e2e_ms()
            )
            np.testing.assert_array_equal(
                report.result_for(name).allocated(), expected.allocated()
            )

    def test_session_dag_backend_on_chain_matches_analytic(self, small_workflow):
        kwargs = dict(
            samples=SAMPLES, seed=SEED, requests=60,
            include=["Optimal", "Janus", "GrandSLAM"],
        )
        via_dag = Session.evaluate(small_workflow, executor="dag", **kwargs)
        via_chain = Session.evaluate(small_workflow, **kwargs)
        assert via_dag.executor == "DagAnalyticExecutor"
        assert via_chain.executor == "AnalyticExecutor"
        for name in via_chain.results:
            np.testing.assert_array_equal(
                via_dag.result_for(name).e2e_ms(),
                via_chain.result_for(name).e2e_ms(),
            )


class TestSession:
    def test_profile_memoised(self, chain_session):
        assert chain_session.profile() is chain_session.profile()

    def test_synthesize_topology_dispatch(self, chain_session, diamond_workflow):
        from repro.synthesis.dag import DagWorkflowHints
        from repro.synthesis.hints import WorkflowHints

        assert isinstance(chain_session.synthesize(), WorkflowHints)
        dag_session = Session(diamond_workflow, samples=SAMPLES, seed=SEED)
        assert isinstance(dag_session.synthesize(), DagWorkflowHints)

    def test_requests_specs(self, chain_session):
        default = chain_session.requests()
        assert len(default) == 1000
        assert len(chain_session.requests(25)) == 25
        cfg = WorkloadConfig(n_requests=10)
        assert len(chain_session.requests(cfg)) == 10
        explicit = chain_session.requests(default[:5])
        assert explicit == default[:5]

    def test_run_accepts_policy_name_or_instance(self, chain_session):
        requests = chain_session.requests(20)
        by_name = chain_session.run("GrandSLAM", requests)
        by_instance = chain_session.run(
            chain_session.policy("GrandSLAM"), requests
        )
        np.testing.assert_array_equal(by_name.e2e_ms(), by_instance.e2e_ms())

    def test_unknown_policy_rejected(self, chain_session):
        with pytest.raises(ExperimentError, match="unknown policy"):
            chain_session.run("Nope", 5)

    def test_unknown_executor_rejected(self, chain_session):
        with pytest.raises(ExperimentError, match="unknown executor"):
            chain_session.run("GrandSLAM", 5, executor="quantum")

    def test_batching_backend_keeps_policy_diagnostics(self, chain_session):
        result = chain_session.run("Janus", 30, executor="batching")
        assert "hit_rate" in result.extras  # like the other backends
        assert "mean_batch_size" in result.extras

    def test_injected_profiles_skip_campaign(self, small_workflow, small_profiles):
        session = Session(small_workflow, profiles=small_profiles)
        assert session.profile() is small_profiles

    def test_slo_override(self, small_workflow):
        session = Session(small_workflow, slo_ms=1234.0)
        assert session.slo_ms == 1234.0
        assert small_workflow.slo_ms != 1234.0  # original untouched

    def test_policy_redeploys_memoised_hints(self, small_workflow):
        session = Session(small_workflow, samples=SAMPLES, seed=SEED)
        hints = session.synthesize()
        policy = session.policy("Janus")
        assert policy.hints is hints  # inspect-then-deploy: one synthesis
        # Serving the same variant twice reuses the same tables too.
        assert session.policy("Janus").hints is hints
        # A different variant needs different tables — freshly synthesized.
        assert session.policy("Janus-").hints is not hints

    def test_synthesize_memo_keyed_by_parameters(self, small_workflow):
        session = Session(small_workflow, samples=SAMPLES, seed=SEED)
        default = session.synthesize()
        heavier = session.synthesize(weight=2.0)
        assert heavier is not default and heavier.weight == 2.0
        assert session.synthesize() is default  # keyed, not clobbered

    def test_policy_weight_override_honoured(self, small_workflow):
        session = Session(small_workflow, samples=SAMPLES, seed=SEED)
        session.synthesize()  # default-weight tables in the memo
        policy = session.policy("Janus", weight=2.0)
        assert policy.hints.weight == 2.0  # override not shadowed by memo

    def test_policy_exploration_override_rejected(self, small_workflow):
        from repro.synthesis.generator import HeadExploration

        session = Session(small_workflow, samples=SAMPLES, seed=SEED)
        with pytest.raises(ExperimentError, match="determined by the policy"):
            session.policy("Janus", exploration=HeadExploration.HEAD_PLUS_NEXT)
        # A matching mode is redundant, not a conflict — both surfaces agree.
        policy = session.policy("Janus", exploration=HeadExploration.HEAD_ONLY)
        assert policy.hints is session.synthesize()

    def test_dag_policy_redeploys_memoised_hints(self, diamond_workflow):
        session = Session(diamond_workflow, samples=SAMPLES, seed=SEED)
        hints = session.synthesize()
        assert session.policy("Janus").hints is hints

    def test_policy_concurrency_override_bypasses_memo(self, small_workflow):
        from repro.errors import ProfileError

        session = Session(small_workflow, samples=SAMPLES, seed=SEED)
        session.synthesize()  # concurrency-1 tables in the memo
        # The override must reach the builder (which rejects it because
        # concurrency 2 was never profiled), not silently serve stale tables.
        with pytest.raises(ProfileError, match="concurrency 2"):
            session.policy("Janus", concurrency=2)

    def test_profiles_resolved_lazily(self, small_workflow):
        session = Session(small_workflow, samples=SAMPLES, seed=SEED)
        session.policy("Optimal")  # the oracle never consumes profiles
        assert session._profiles is None

    def test_suite_reuses_memoised_hints(self, small_workflow):
        session = Session(small_workflow, samples=SAMPLES, seed=SEED)
        hints = session.synthesize()
        suite = session.suite(include=["Optimal", "Janus"])
        assert suite["Janus"].hints is hints


class TestSessionEvaluateDag:
    def test_same_code_path_drives_dag(self, diamond_workflow):
        report = Session.evaluate(
            diamond_workflow, samples=SAMPLES, seed=SEED, requests=40
        )
        assert report.topology == "dag"
        assert report.executor == "DagAnalyticExecutor"
        # Chain-only systems were skipped; the registry dispatched the rest.
        assert "Optimal" not in report.results
        assert {"Janus", "GrandSLAM"} <= set(report.results)
        assert report.baseline in report.results
        assert report.normalized_cpu(report.baseline) == pytest.approx(1.0)
        # Suite keys and served policy names agree on DAGs too.
        for key, res in report.results.items():
            assert res.policy_name == key

    def test_explicit_missing_baseline_rejected(self, diamond_workflow):
        with pytest.raises(ExperimentError, match="baseline"):
            Session.evaluate(
                diamond_workflow, samples=SAMPLES, seed=SEED, requests=10,
                baseline="Optimal",
            )


class TestComparisonReport:
    @pytest.fixture(scope="class")
    def report(self, small_workflow):
        return Session.evaluate(
            small_workflow, samples=SAMPLES, seed=SEED,
            include=["Optimal", "Janus", "GrandSLAM"], requests=40,
        )

    def test_baseline_normalisation(self, report):
        assert report.baseline == "Optimal"
        assert report.normalized_cpu("Optimal") == pytest.approx(1.0)
        assert report.normalized_cpu("GrandSLAM") >= 1.0

    def test_table_matches_results(self, report):
        for name, row in report.table.items():
            assert row["normalized_cpu"] == pytest.approx(
                report.normalized_cpu(name)
            )

    def test_render_mentions_every_policy(self, report):
        text = str(report)
        for name in report.policies:
            assert name in text

    def test_missing_policy_rejected(self, report):
        with pytest.raises(ExperimentError, match="no result"):
            report.result_for("Nope")

    def test_saving_vs(self, report):
        saving = report.saving_vs("Janus", "GrandSLAM")
        assert saving == pytest.approx(
            1.0
            - report.result_for("Janus").mean_allocated
            / report.result_for("GrandSLAM").mean_allocated
        )

    def test_empty_results_rejected(self):
        with pytest.raises(ExperimentError):
            ComparisonReport(
                workflow_name="x", topology="chain", slo_ms=1.0,
                executor="AnalyticExecutor", baseline="a", results={},
            )


#: Every public name the seed release exported from `repro` — the
#: unification must keep them importable — except the top-level ``Dag*``
#: aliases, removed in 1.3.0 as scheduled.
_SEED_PUBLIC_NAMES = [
    "ReproError", "Workflow", "WorkflowDAG", "chain_dag", "parse_spec",
    "intelligent_assistant", "video_analytics", "WorkflowRequest",
    "RequestOutcome", "FunctionModel", "InvocationDynamics", "Resource",
    "LatencyProfile", "ProfileSet", "Profiler", "ProfilerConfig",
    "profile_workflow", "save_profile_set", "load_profile_set",
    "BudgetRange", "HintSynthesizer", "SynthesisConfig", "HeadExploration",
    "WorkflowHints", "CondensedHintsTable", "synthesize_hints",
    "JanusAdapter", "AdapterService", "HitMissSupervisor", "SizingPolicy",
    "JanusPolicy", "janus", "janus_minus", "janus_plus", "OraclePolicy",
    "OrionPolicy", "GrandSLAMPolicy", "GrandSLAMPlusPolicy",
    "AnalyticExecutor", "BatchingExecutor", "RunResult",
    "build_policy_suite", "run_policies", "compare", "ServerlessPlatform",
    "MultiTenantPlatform", "TenantJob", "ClusterConfig", "InterferenceModel",
    "generate_requests", "WorkloadConfig", "ResourceLimits", "PercentileGrid",
]

#: The removed top-level aliases and the modules that still export them.
_REMOVED_ALIASES = {
    "DagAnalyticExecutor": "repro.runtime.dag_executor",
    "DagJanusPolicy": "repro.policies.dag",
    "DagGrandSLAMPolicy": "repro.policies.dag",
    "DagWorkflowHints": "repro.synthesis.dag",
    "synthesize_dag_hints": "repro.synthesis.dag",
}


class TestBackwardCompatibility:
    def test_all_seed_imports_resolve(self):
        for name in _SEED_PUBLIC_NAMES:
            assert getattr(repro, name) is not None, name

    @pytest.mark.parametrize("name", sorted(_REMOVED_ALIASES))
    def test_removed_aliases_resolve_only_from_their_modules(self, name):
        import importlib

        assert not hasattr(repro, name)
        module = importlib.import_module(_REMOVED_ALIASES[name])
        assert getattr(module, name) is not None

    def test_canonical_submodule_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.runtime.dag_executor import DagAnalyticExecutor  # noqa: F401
            from repro.synthesis.dag import synthesize_dag_hints  # noqa: F401

    def test_star_import_stays_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            namespace: dict = {}
            exec("from repro import *", namespace)
        assert "Session" in namespace
        assert "DagAnalyticExecutor" not in namespace

    def test_registry_exploration_override_rejected(
        self, small_workflow, small_profiles
    ):
        from repro.synthesis.generator import HeadExploration

        with pytest.raises(ExperimentError, match="determined by the policy"):
            POLICIES.build(
                "Janus-", small_workflow, small_profiles,
                exploration=HeadExploration.HEAD_PLUS_NEXT,
            )
        # The matching mode is not a conflict.
        policy = POLICIES.build(
            "Janus-", small_workflow, small_profiles,
            exploration=HeadExploration.NONE,
        )
        assert policy.name == "Janus-"


class TestCliIntrospection:
    def test_new_experiments_get_request_knob_for_free(self):
        # ext-dag was missing from the old hardcoded table; introspection
        # discovers its n_requests parameter.
        import argparse

        from repro.cli import _params_for

        args = argparse.Namespace(requests=7, samples=None, seed=None)
        assert _params_for("ext-dag", args) == {"n_requests": 7}

    def test_unsupported_knob_is_dropped(self):
        import argparse

        from repro.cli import _params_for

        # fig1a's run() takes no samples parameter.
        args = argparse.Namespace(requests=None, samples=500, seed=4)
        assert _params_for("fig1a", args) == {"seed": 4}

    def test_fig1c_samples_knob_stays_unmapped(self):
        # fig1c's repetition count is samples_per_level, deliberately not
        # reachable via --samples (which means profiling-campaign size).
        import argparse

        from repro.cli import _params_for

        args = argparse.Namespace(requests=None, samples=2000, seed=None)
        assert _params_for("fig1c", args) == {}
