"""Scenario matrix, sweep runner, and the cross-process determinism claim."""

import json

import pytest

from repro.cluster.platform import ClusterConfig
from repro.errors import ClusterError, ExperimentError
from repro.scenarios import (
    SCENARIO_WORKFLOWS,
    ScenarioMatrix,
    SweepRunner,
    parse_arrival,
    parse_cluster_config,
    register_workflow,
    run_scenario,
)
from repro.scenarios.runner import merge_tenant_streams
from repro.traces.workload import ArrivalSpec, WorkloadConfig, generate_requests

#: One small, fast matrix shared by the runner tests (profiles are cached
#: per process, so repeated runs only pay the serving cost).
SMALL_MATRIX = ScenarioMatrix(
    workflows=("IA",),
    arrivals=(ArrivalSpec("constant"), ArrivalSpec("poisson", rate_per_s=8.0)),
    slo_scales=(1.0, 1.2),
    tenant_counts=(1, 2),
    policies=("Optimal", "GrandSLAM", "Janus"),
    n_requests=30,
    samples=300,
    seed=17,
)


class TestMatrix:
    def test_len_is_product_of_axes(self):
        assert len(SMALL_MATRIX) == 1 * 2 * 2 * 2

    def test_expand_covers_every_cell_once(self):
        cells = SMALL_MATRIX.expand()
        assert len(cells) == len(SMALL_MATRIX)
        assert len({c.scenario_id for c in cells}) == len(cells)

    def test_seeds_differ_per_cell_but_profile_seed_shared(self):
        cells = SMALL_MATRIX.expand()
        assert len({c.seed for c in cells}) == len(cells)
        assert len({c.profile_seed for c in cells}) == 1  # one workflow

    def test_seed_stability_under_axis_growth(self):
        # Adding an axis value must not shift existing cells' seeds.
        import dataclasses

        grown = dataclasses.replace(
            SMALL_MATRIX, slo_scales=(1.0, 1.2, 1.5)
        )
        base = {c.scenario_id: c.seed for c in SMALL_MATRIX.expand()}
        grown_seeds = {c.scenario_id: c.seed for c in grown.expand()}
        for sid, seed in base.items():
            assert grown_seeds[sid] == seed

    def test_empty_axis_rejected(self):
        with pytest.raises(ExperimentError, match="axis"):
            ScenarioMatrix(workflows=())

    def test_unknown_workflow_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workflows"):
            ScenarioMatrix(workflows=("NOPE",))

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ExperimentError, match="unknown policies"):
            ScenarioMatrix(policies=("Janus", "Jannus"))

    def test_baseline_outside_suite_rejected_at_construction(self):
        with pytest.raises(ExperimentError, match="baseline"):
            ScenarioMatrix(policies=("Janus", "GrandSLAM"), baseline="Optimal")

    def test_bare_scenario_rejects_policy_typo(self):
        # Scenarios built without a matrix validate too, so run_scenario's
        # dead-cell handling can never mask a misspelt name.
        import dataclasses

        cell = SMALL_MATRIX.expand()[0]
        with pytest.raises(ExperimentError, match="unknown policies"):
            dataclasses.replace(cell, policies=("Jannus",))

    @pytest.mark.parametrize(
        "scale", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]
    )
    def test_non_positive_or_non_finite_slo_scale_rejected(self, scale):
        import dataclasses

        with pytest.raises(ExperimentError, match="slo_scale"):
            dataclasses.replace(SMALL_MATRIX.expand()[0], slo_scale=scale)
        with pytest.raises(
            ExperimentError, match=r"^ScenarioMatrix\.slo_scales\[1\] must be"
        ):
            dataclasses.replace(SMALL_MATRIX, slo_scales=(1.0, scale))

    def test_budgets_attached_per_workflow(self):
        import dataclasses

        matrix = dataclasses.replace(
            SMALL_MATRIX, budgets={"IA": (2000, 7000)}
        )
        for cell in matrix.expand():
            assert cell.budget_ms == (2000, 7000)
        assert SMALL_MATRIX.expand()[0].budget_ms is None

    def test_invalid_budget_range_rejected(self):
        import dataclasses

        with pytest.raises(ExperimentError, match="invalid budget range"):
            dataclasses.replace(SMALL_MATRIX, budgets={"IA": (7000, 2000)})

    def test_registry_extension(self):
        from repro.workflow.catalog import intelligent_assistant

        register_workflow("IA-copy", intelligent_assistant)
        try:
            matrix = ScenarioMatrix(workflows=("IA-copy",))
            assert matrix.expand()[0].workflow == "IA-copy"
        finally:
            SCENARIO_WORKFLOWS.pop("IA-copy")

    def test_with_scale(self):
        scaled = SMALL_MATRIX.with_scale(n_requests=5, samples=100)
        assert scaled.n_requests == 5 and scaled.samples == 100
        assert scaled.seed == SMALL_MATRIX.seed


class TestParseArrival:
    @pytest.mark.parametrize(
        "token,kind,rate",
        [
            ("constant", "constant", None),
            ("poisson@8", "poisson", 8.0),
            ("burst@5", "burst", 5.0),
            ("azure@2.5", "azure", 2.5),
        ],
    )
    def test_tokens(self, token, kind, rate):
        spec = parse_arrival(token)
        assert spec.kind == kind
        if rate is not None:
            assert spec.rate_per_s == rate

    def test_constant_interval(self):
        assert parse_arrival("constant@50").interval_ms == 50.0

    def test_bad_kind(self):
        with pytest.raises(ExperimentError, match="unknown arrival kind"):
            parse_arrival("weibull@3")

    def test_bad_rate(self):
        with pytest.raises(ExperimentError, match="invalid arrival rate"):
            parse_arrival("poisson@fast")

    def test_zero_rate_rejected_at_parse_time(self):
        from repro.errors import TraceError

        # Spec construction validates shape parameters, so a bad token
        # fails before any cell (or profiling campaign) runs.
        with pytest.raises(TraceError, match="ArrivalSpec.rate_per_s must be"):
            parse_arrival("poisson@0")

    def test_invalid_spec_values_rejected(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError, match="interval"):
            ArrivalSpec(kind="constant", interval_ms=-5.0)
        with pytest.raises(TraceError, match="ArrivalSpec.burst_fraction"):
            ArrivalSpec(kind="burst", rate_per_s=5.0, burst_fraction=1.5)
        with pytest.raises(TraceError, match="sigma"):
            ArrivalSpec(kind="azure", rate_per_s=5.0, sigma=-0.1)


class TestTenantMerge:
    def test_merge_orders_by_arrival_and_renumbers(self, small_workflow):
        streams = [
            generate_requests(
                small_workflow,
                WorkloadConfig(n_requests=10, arrival_rate_per_s=20.0),
                seed=s,
            )
            for s in (1, 2)
        ]
        merged = merge_tenant_streams(streams)
        assert len(merged) == 20
        arrivals = [r.arrival_ms for r in merged]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in merged] == list(range(20))

    def test_merge_is_stable_for_tied_arrivals(self, small_workflow):
        streams = [
            generate_requests(
                small_workflow, WorkloadConfig(n_requests=3), seed=s
            )
            for s in (1, 2)
        ]
        merged = merge_tenant_streams(streams)
        # Constant back-to-back arrivals all tie at 0 ms; tenant order and
        # in-stream order must break the tie deterministically.
        assert [r.stage_dynamics for r in merged] == [
            r.stage_dynamics for r in streams[0] + streams[1]
        ]


class TestSweepRunner:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return SweepRunner(max_workers=1).run(SMALL_MATRIX)

    def test_all_cells_evaluated(self, serial_report):
        assert serial_report.num_cells == len(SMALL_MATRIX)
        assert serial_report.skipped == {}

    def test_janus_beats_grandslam_on_aggregate(self, serial_report):
        assert serial_report.mean_normalized_cpu(
            "Janus"
        ) < serial_report.mean_normalized_cpu("GrandSLAM")
        assert serial_report.attainment("Janus") >= 0.95

    def test_rerun_is_bit_identical(self, serial_report):
        again = SweepRunner(max_workers=1).run(SMALL_MATRIX)
        assert again.to_json() == serial_report.to_json()

    def test_pooled_run_bit_identical_to_serial(self, serial_report):
        # The documented bit-reproducibility claim, asserted across real
        # process boundaries: two workers, same master seed.
        pooled = SweepRunner(max_workers=2).run(SMALL_MATRIX)
        assert pooled.max_workers == 2
        assert pooled.to_json() == serial_report.to_json()

    def test_tenant_axis_changes_results(self, serial_report):
        by_id = {r.scenario_id: r for r in serial_report.results}
        single = [r for r in serial_report.results if r.tenants == 1]
        for res in single:
            twin_id = res.scenario_id.replace("tenants 1", "tenants 2")
            assert by_id[twin_id].table != res.table

    def test_json_round_trip(self, serial_report):
        payload = json.loads(serial_report.to_json())
        assert payload["num_cells"] == serial_report.num_cells
        assert len(payload["results"]) == serial_report.num_cells

    def test_csv_has_row_per_cell_policy(self, serial_report):
        lines = serial_report.to_csv().strip().splitlines()
        expected = sum(len(r.table) for r in serial_report.results)
        assert len(lines) == expected + 1  # + header
        assert lines[0].startswith("scenario_id,workflow,arrival")

    def test_render_mentions_cells_and_policies(self, serial_report):
        text = serial_report.render()
        assert f"{serial_report.num_cells} cells" in text
        assert "Janus" in text and "SLO att." in text


class TestScenarioExecution:
    def test_dag_cells_skip_chain_only_policies(self):
        matrix = ScenarioMatrix(
            workflows=("media",),
            arrivals=(ArrivalSpec("constant"),),
            policies=("Optimal", "ORION", "Janus", "GrandSLAM"),
            n_requests=20,
            samples=300,
            seed=3,
        )
        report = SweepRunner(max_workers=1).run(matrix)
        sid = report.results[0].scenario_id
        assert set(report.skipped[sid]) == {"Optimal", "ORION"}
        assert set(report.results[0].table) == {"Janus", "GrandSLAM"}

    def test_dead_cells_skipped_not_fatal(self):
        # A cell where *no* requested policy is buildable (chain-only suite
        # on a DAG topology) must not abort the sweep: the IA cell survives
        # and the media cell lands fully in `skipped`.
        matrix = ScenarioMatrix(
            workflows=("IA", "media"),
            arrivals=(ArrivalSpec("constant"),),
            policies=("Optimal", "ORION"),
            n_requests=20,
            samples=300,
            seed=3,
        )
        report = SweepRunner(max_workers=1).run(matrix)
        assert report.num_cells == 1
        assert report.results[0].workflow == "IA"
        [(sid, missing)] = report.skipped.items()
        assert sid.startswith("media/") and missing == ["Optimal", "ORION"]

    def test_infeasible_pinned_baseline_kills_cell_not_sweep(self):
        # Janus/GrandSLAM build fine on the DAG, but the pinned baseline
        # cannot: the cell must die (no silent renormalisation) while the
        # chain cell survives.
        matrix = ScenarioMatrix(
            workflows=("IA", "media"),
            arrivals=(ArrivalSpec("constant"),),
            policies=("Optimal", "Janus", "GrandSLAM"),
            baseline="Optimal",
            n_requests=20,
            samples=300,
            seed=3,
        )
        report = SweepRunner(max_workers=1).run(matrix)
        assert [r.workflow for r in report.results] == ["IA"]
        assert report.results[0].baseline == "Optimal"
        [(sid, _)] = report.skipped.items()
        assert sid.startswith("media/")

    def test_reregistration_gets_fresh_profiles(self):
        from repro.scenarios.registry import workflow_epoch
        from repro.workflow.catalog import intelligent_assistant, video_analytics

        register_workflow("swap", intelligent_assistant)
        try:
            epoch0 = workflow_epoch("swap")
            register_workflow("swap", video_analytics)
            assert workflow_epoch("swap") == epoch0 + 1
            # The epoch feeds the profile-cache key, so the swapped factory
            # cannot be served the old factory's campaign.
            from repro.scenarios.runner import _profiles_for

            profiles = _profiles_for(
                "swap", 200, 1, workflow_epoch("swap")
            )
            assert set(profiles.functions()) == {"FE", "ICL", "ICO"}  # VA
        finally:
            SCENARIO_WORKFLOWS.pop("swap")

    def test_all_cells_dead_raises_with_context(self):
        matrix = ScenarioMatrix(
            workflows=("media",),
            arrivals=(ArrivalSpec("constant"),),
            policies=("Optimal", "ORION"),
            n_requests=20,
            samples=300,
            seed=3,
        )
        with pytest.raises(ExperimentError, match="every cell was skipped"):
            SweepRunner(max_workers=1).run(matrix)

    def test_run_scenario_result_shape(self):
        scenario = SMALL_MATRIX.expand()[0]
        result = run_scenario(scenario)
        assert result.workflow == "IA"
        assert result.slo_ms == pytest.approx(3000.0)
        assert set(result.table) == set(scenario.policies)
        for row in result.table.values():
            assert {"normalized_cpu", "violation_rate"} <= set(row)

    def test_slo_scale_round_trips_absolute_slos(self):
        import dataclasses

        # 3130/3000 does not round-trip in floating point; the runner must
        # still evaluate at exactly 3130 ms (and feed the DP the intended
        # budget grid), or fig9-style sweeps drift by an epsilon.
        cell = dataclasses.replace(
            SMALL_MATRIX.expand()[0], slo_scale=3130.0 / 3000.0,
            n_requests=5,
        )
        result = run_scenario(cell)
        assert result.slo_ms == 3130.0

    def test_mixed_baselines_flagged_in_render(self):
        matrix = ScenarioMatrix(
            workflows=("IA", "media"),
            arrivals=(ArrivalSpec("constant"),),
            policies=("Optimal", "Janus", "GrandSLAM"),
            n_requests=20,
            samples=300,
            seed=3,
        )
        report = SweepRunner(max_workers=1).run(matrix)
        # IA normalises by Optimal, the DAG cell falls back to the first
        # built policy — the aggregate must say so instead of silently
        # averaging incompatible ratios.
        assert len(report.baselines()) == 2
        assert "mixes per-cell baselines" in report.render()
        assert (
            ",baseline,executor,policy,"
            in report.to_csv().splitlines()[0].replace("slo_ms,", "")
        )

    def test_baseline_override(self):
        import dataclasses

        matrix = dataclasses.replace(
            SMALL_MATRIX,
            slo_scales=(1.0,),
            tenant_counts=(1,),
            arrivals=(ArrivalSpec("constant"),),
            baseline="GrandSLAM",
        )
        report = SweepRunner(max_workers=1).run(matrix)
        res = report.results[0]
        assert res.baseline == "GrandSLAM"
        assert res.metric("GrandSLAM", "normalized_cpu") == pytest.approx(1.0)


#: A matrix pairing analytic and cluster cells on one workload family.
CLUSTER_MATRIX = ScenarioMatrix(
    workflows=("IA",),
    arrivals=(ArrivalSpec("poisson", rate_per_s=4.0),),
    slo_scales=(2.0,),
    policies=("GrandSLAM", "Janus"),
    executors=(None, "cluster"),
    cluster=ClusterConfig(n_vms=2, warm_pool_size=2, autoscale=False),
    n_requests=12,
    samples=300,
    seed=23,
)


class TestExecutorAxis:
    def test_len_includes_executor_axis(self):
        assert len(CLUSTER_MATRIX) == 2

    def test_cells_share_request_seed_across_backends(self):
        analytic, cluster = CLUSTER_MATRIX.expand()
        assert analytic.executor is None and cluster.executor == "cluster"
        # The same workload replays on both backends...
        assert analytic.seed == cluster.seed
        # ...under distinct identifiers (only explicit backends get a
        # suffix, so pre-existing cell ids and derived seeds are stable).
        assert analytic.scenario_id + "/exec cluster" == cluster.scenario_id

    def test_cluster_config_reaches_only_cluster_cells(self):
        analytic, cluster = CLUSTER_MATRIX.expand()
        assert analytic.cluster is None
        assert cluster.cluster == CLUSTER_MATRIX.cluster

    def test_unknown_executor_rejected_at_construction(self):
        import dataclasses

        with pytest.raises(ExperimentError, match="unknown executor"):
            dataclasses.replace(CLUSTER_MATRIX, executors=("quantum",))

    def test_empty_executor_axis_rejected(self):
        import dataclasses

        with pytest.raises(ExperimentError, match="axis"):
            dataclasses.replace(CLUSTER_MATRIX, executors=())

    def test_cluster_config_without_cluster_executor_rejected(self):
        # A config that no cell would consume must fail loudly, not let the
        # sweep run on the analytic backend with the knobs ignored.
        import dataclasses

        with pytest.raises(ExperimentError, match="silently ignored"):
            dataclasses.replace(CLUSTER_MATRIX, executors=(None,))

    def test_bare_scenario_rejects_cluster_on_non_cluster_executor(self):
        # Analytic backends take no config kwarg — this must fail at
        # construction, not as a TypeError from a pool worker mid-sweep.
        import dataclasses

        cell = CLUSTER_MATRIX.expand()[1]
        for executor in (None, "analytic", "batching"):
            with pytest.raises(
                ExperimentError, match="cluster config requires"
            ):
                dataclasses.replace(cell, executor=executor)


class TestClusterCells:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return SweepRunner(max_workers=1).run(CLUSTER_MATRIX)

    def test_cluster_cell_serves_on_the_platform(self, serial_report):
        by_exec = {r.executor: r for r in serial_report.results}
        assert set(by_exec) == {"AnalyticExecutor", "ServerlessPlatform"}

    def test_cluster_cell_reports_platform_extras(self, serial_report):
        cluster = next(
            r for r in serial_report.results
            if r.executor == "ServerlessPlatform"
        )
        analytic = next(
            r for r in serial_report.results
            if r.executor == "AnalyticExecutor"
        )
        for policy in ("GrandSLAM", "Janus"):
            assert 0.0 < cluster.extra(policy, "cold_start_rate") <= 1.0
            assert cluster.extra(policy, "mean_cluster_allocated") > 0
            assert cluster.extra(policy, "throttled") >= 0
            assert analytic.extra(policy, "cold_start_rate") is None
        # Mean-over-cluster-cells aggregate ignores analytic cells.
        assert serial_report.mean_extra(
            "Janus", "cold_start_rate"
        ) == cluster.extra("Janus", "cold_start_rate")
        with pytest.raises(ExperimentError, match="no cell reports"):
            serial_report.mean_extra("Janus", "nonexistent_extra")

    def test_extras_exported_to_json_and_csv(self, serial_report):
        payload = json.loads(serial_report.to_json())
        cluster_rows = [
            r for r in payload["results"]
            if r["executor"] == "ServerlessPlatform"
        ]
        assert cluster_rows and all(
            "cold_start_rate" in r["extras"]["Janus"] for r in cluster_rows
        )
        lines = serial_report.to_csv().splitlines()
        header = lines[0].split(",")
        for column in ("cold_start_rate", "mean_cluster_allocated",
                       "throttled"):
            assert column in header
        idx = header.index("cold_start_rate")
        cells = {line.split(",")[idx] for line in lines[1:]}
        assert "" in cells  # analytic rows leave platform extras blank
        assert any(c not in ("", "0.0") for c in cells)  # cluster rows don't

    def test_cluster_cells_pooled_bit_identical_to_serial(self, serial_report):
        # The sweep engine's headline determinism claim must hold for DES
        # cluster cells exactly as for analytic ones, across real process
        # boundaries.
        pooled = SweepRunner(max_workers=2).run(CLUSTER_MATRIX)
        assert pooled.to_json() == serial_report.to_json()

    def test_cluster_dag_cell_serves_every_node(self):
        matrix = ScenarioMatrix(
            workflows=("media",),
            arrivals=(ArrivalSpec("constant"),),
            slo_scales=(3.0,),
            policies=("Janus",),
            executors=("cluster",),
            cluster=ClusterConfig(n_vms=2, warm_pool_size=4, autoscale=False),
            n_requests=6,
            samples=300,
            seed=5,
        )
        scenario = matrix.expand()[0]
        result = run_scenario(scenario)
        assert result.executor == "ServerlessPlatform"
        # The diamond has 4 nodes but a 3-node critical path; a platform
        # that served only workflow.chain would allocate 3 stages/request.
        from repro.scenarios.registry import scenario_workflow

        media = scenario_workflow("media")
        assert media.dag.num_nodes == 4 and len(media.chain) == 3
        mean_stages = result.metric("Janus", "mean_allocated_millicores")
        # Every stage allocates >= kmin, so 4 served nodes put the mean
        # strictly above the 3-node critical-path ceiling... conservatively:
        kmin = media.limits.kmin
        assert mean_stages >= 4 * kmin


class TestParseClusterConfig:
    def test_full_grammar(self):
        config = parse_cluster_config(
            "n_vms=2, warm_pool_size=4, autoscale=false, keepalive_ms=500"
        )
        assert config == ClusterConfig(
            n_vms=2, warm_pool_size=4, autoscale=False, keepalive_ms=500
        )

    def test_none_and_bool_tokens(self):
        config = parse_cluster_config(
            "keepalive_ms=none,colocate_same_function=true"
        )
        assert config.keepalive_ms is None
        assert config.colocate_same_function is True

    def test_empty_text_gives_defaults(self):
        assert parse_cluster_config("") == ClusterConfig()

    def test_unknown_field_rejected(self):
        with pytest.raises(ClusterError, match="unknown ClusterConfig"):
            parse_cluster_config("n_vmz=2")

    def test_missing_value_rejected(self):
        with pytest.raises(ExperimentError, match="field=value"):
            parse_cluster_config("n_vms")

    def test_invalid_value_rejected(self):
        with pytest.raises(ExperimentError, match="invalid value"):
            parse_cluster_config("n_vms=lots")

    def test_float_for_int_field_rejected_at_parse_time(self):
        # 'n_vms=4.0' parses as a float; ClusterConfig must reject it here,
        # not crash range() inside a pool worker (and 'warm_pool_size=2.5'
        # must not silently truncate).
        for knob in ("n_vms=4.0", "warm_pool_size=2.5", "min_warm=1.5"):
            with pytest.raises(ClusterError, match="must be an integer"):
                parse_cluster_config(knob)


class TestExecutorConfigCapability:
    def test_probe_matches_factories(self):
        from repro.runtime.registry import executor_accepts_option

        assert executor_accepts_option("cluster", "config") is True
        assert executor_accepts_option("analytic", "config") is False
        with pytest.raises(ExperimentError, match="unknown executor"):
            executor_accepts_option("quantum", "config")

    def test_custom_config_taking_executor_receives_cluster(self):
        # The matrix asks the registry which backends take a config instead
        # of hard-coding the name "cluster" — a custom cluster-like backend
        # must receive the ClusterConfig through expand().
        from repro.runtime.registry import _EXECUTORS, register_executor
        from repro.cluster.platform import ServerlessPlatform

        @register_executor("cluster-copy")
        def _copy(workflow, *, config=None):
            return ServerlessPlatform(workflow, config=config)

        try:
            matrix = ScenarioMatrix(
                workflows=("IA",), policies=("Janus",),
                executors=("cluster-copy",),
                cluster=ClusterConfig(n_vms=2),
                n_requests=5, samples=300,
            )
            cell = matrix.expand()[0]
            assert cell.cluster == ClusterConfig(n_vms=2)
        finally:
            _EXECUTORS.pop("cluster-copy")


class TestBackends:
    def test_registry_names(self):
        from repro.scenarios import backend_names

        names = set(backend_names())
        assert {"serial", "pool", "distributed"} <= names
        assert "workstealing" not in names  # folded into pool

    def test_unknown_backend_rejected_with_known_names(self):
        from repro.scenarios import get_backend

        with pytest.raises(ExperimentError, match="unknown sweep backend"):
            get_backend("quantum")
        with pytest.raises(ExperimentError, match="'pool'"):
            SweepRunner(backend="quantum").run(SMALL_MATRIX)

    def test_resolve_default_keeps_historical_rule(self):
        from repro.scenarios.backends import resolve_backend

        assert resolve_backend(None, max_workers=1).name == "serial"
        assert resolve_backend(None, max_workers=4).name == "pool"
        assert resolve_backend("pool", max_workers=1).name == "pool"

    def test_backend_instance_passes_through(self):
        from repro.scenarios import SerialBackend
        from repro.scenarios.backends import resolve_backend

        instance = SerialBackend()
        assert resolve_backend(instance, max_workers=8) is instance

    def test_custom_backend_registration(self):
        from repro.scenarios import SerialBackend, register_backend
        from repro.scenarios.backends import _BACKENDS, get_backend

        @register_backend("serial-copy")
        class _Copy(SerialBackend):
            name = "serial-copy"

        try:
            assert isinstance(get_backend("serial-copy"), _Copy)
        finally:
            _BACKENDS.pop("serial-copy")

    def test_pool_dispatches_expensive_first(self):
        # The dispatch order (not completion order) is descending cost,
        # ties broken by position — observable through a single-worker
        # pool run's completion callbacks.
        import dataclasses

        from repro.scenarios import PoolBackend

        cells = dataclasses.replace(
            SMALL_MATRIX, tenant_counts=(1, 3), n_requests=4, samples=300
        ).expand()
        costs = [c.cost_estimate() for c in cells]
        seen = []
        out = PoolBackend(max_workers=1).run(
            cells, _cost_probe, on_complete=lambda pos, out: seen.append(pos)
        )
        expected = sorted(
            range(len(cells)), key=lambda pos: (-costs[pos], pos)
        )
        assert seen == expected
        assert out == [c.scenario_id for c in cells]  # order preserved


def _cost_probe(scenario):
    """Top-level (picklable) no-op cell function for scheduling tests."""
    return scenario.scenario_id


class TestCostEstimate:
    def test_scales_with_requests_and_tenants(self):
        import dataclasses

        cell = SMALL_MATRIX.expand()[0]
        assert dataclasses.replace(
            cell, n_requests=2 * cell.n_requests
        ).cost_estimate() == pytest.approx(2 * cell.cost_estimate())
        assert dataclasses.replace(
            cell, tenants=3
        ).cost_estimate() == pytest.approx(3 * cell.cost_estimate())

    def test_cluster_cells_cost_more_than_analytic(self):
        analytic, cluster = CLUSTER_MATRIX.expand()
        assert cluster.cost_estimate() > 4 * analytic.cost_estimate()

    def test_dag_workflow_counts_all_nodes(self):
        # The media diamond has 4 nodes but a 3-node critical path; the
        # estimate must weigh the full served DAG.
        matrix = ScenarioMatrix(
            workflows=("media",), policies=("Janus",), n_requests=10,
        )
        ia = ScenarioMatrix(
            workflows=("IA",), policies=("Janus",), n_requests=10,
        )
        assert matrix.expand()[0].cost_estimate() > (
            ia.expand()[0].cost_estimate()
        )

    def test_matrix_total_is_sum_of_cells(self):
        total = sum(c.cost_estimate() for c in SMALL_MATRIX.expand())
        assert SMALL_MATRIX.cost_estimate() == pytest.approx(total)


class TestDeterminismAcrossBackends:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return SweepRunner(max_workers=1).run(SMALL_MATRIX)

    def test_pool_reassembles_cost_ordered_cells_bit_identically(
        self, serial_report
    ):
        # Across real process boundaries: per-cell submission in cost
        # order, results reassembled in expansion order. The matrix's
        # tenant counts make the two orders differ, so reassembly is real.
        costs = [c.cost_estimate() for c in SMALL_MATRIX.expand()]
        cost_order = sorted(range(len(costs)), key=lambda p: (-costs[p], p))
        assert cost_order != list(range(len(costs)))
        pooled = SweepRunner(max_workers=2, backend="pool").run(SMALL_MATRIX)
        assert pooled.backend == "pool"
        assert pooled.max_workers == 2
        assert pooled.to_json() == serial_report.to_json()

    def test_explicit_pool_backend_bit_identical(self, serial_report):
        pooled = SweepRunner(max_workers=2, backend="pool").run(SMALL_MATRIX)
        assert pooled.backend == "pool"
        assert pooled.to_json() == serial_report.to_json()

    def test_explicit_serial_backend_matches_default(self, serial_report):
        explicit = SweepRunner(max_workers=4, backend="serial").run(
            SMALL_MATRIX
        )
        assert explicit.backend == "serial"
        assert explicit.max_workers == 1
        assert explicit.to_json() == serial_report.to_json()


class TestScenarioDigest:
    def test_digest_is_stable_and_field_sensitive(self):
        import dataclasses

        from repro.scenarios import scenario_digest

        cell = SMALL_MATRIX.expand()[0]
        assert scenario_digest(cell) == scenario_digest(cell)
        for change in (
            {"n_requests": cell.n_requests + 1},
            {"samples": cell.samples + 1},
            {"seed": cell.seed + 1},
            {"slo_scale": cell.slo_scale * 2},
            {"policies": cell.policies[:-1]},
        ):
            assert scenario_digest(
                dataclasses.replace(cell, **change)
            ) != scenario_digest(cell)

    def test_version_and_epoch_invalidate(self, monkeypatch):
        from repro.scenarios import scenario_digest
        from repro.workflow.catalog import intelligent_assistant

        register_workflow("digest-wf", intelligent_assistant)
        try:
            matrix = ScenarioMatrix(
                workflows=("digest-wf",), policies=("Janus",), n_requests=5
            )
            cell = matrix.expand()[0]
            base = scenario_digest(cell)
            import repro

            monkeypatch.setattr(repro, "__version__", "0.0.0-test")
            assert scenario_digest(cell) != base
            monkeypatch.undo()
            assert scenario_digest(cell) == base
            # Re-registering the factory bumps the epoch -> new digest.
            register_workflow("digest-wf", intelligent_assistant)
            assert scenario_digest(cell) != base
        finally:
            SCENARIO_WORKFLOWS.pop("digest-wf")
            from repro.scenarios.registry import _EPOCHS

            _EPOCHS.pop("digest-wf", None)


class TestCellCache:
    @pytest.fixture()
    def cached_run(self, tmp_path):
        # Cold memory memos make the cold-run counter assertions
        # deterministic regardless of which tests ran before.
        from repro.synthesis.dp import clear_dp_cache
        from repro.synthesis.generator import clear_hints_cache

        clear_dp_cache()
        clear_hints_cache()
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path).run(SMALL_MATRIX)
        return tmp_path, cold

    def test_cold_run_populates_and_counts_misses(self, cached_run):
        cache_dir, cold = cached_run
        assert cold.cell_cache == {
            "hits": 0, "misses": len(SMALL_MATRIX)
        }
        assert len(list((cache_dir / "cells").iterdir())) == len(SMALL_MATRIX)
        assert cold.synthesis_cache["dp"]["solves"] >= 1
        assert cold.synthesis_cache["hints"]["syntheses"] >= 1

    def test_warm_run_performs_zero_evaluations(self, cached_run, monkeypatch):
        # The acceptance claim: a fully warm sweep never evaluates a cell.
        import repro.scenarios.runner as runner_mod

        cache_dir, cold = cached_run

        def _forbidden(scenario):
            raise AssertionError(
                f"cell {scenario.scenario_id} was evaluated on a warm cache"
            )

        monkeypatch.setattr(runner_mod, "run_scenario", _forbidden)
        warm = SweepRunner(max_workers=1, cache_dir=cache_dir).run(SMALL_MATRIX)
        assert warm.cell_cache == {"hits": len(SMALL_MATRIX), "misses": 0}
        assert warm.to_json() == cold.to_json()

    def test_warm_run_byte_identical_on_every_backend(self, cached_run):
        cache_dir, cold = cached_run
        for backend in ("serial", "pool"):
            warm = SweepRunner(
                max_workers=2, backend=backend, cache_dir=cache_dir
            ).run(SMALL_MATRIX)
            assert warm.to_json() == cold.to_json()

    def test_overlapping_sweep_reuses_shared_cells(self, cached_run):
        # A grown matrix re-runs only the new cells.
        import dataclasses

        cache_dir, _ = cached_run
        grown = dataclasses.replace(SMALL_MATRIX, slo_scales=(1.0, 1.2, 1.4))
        report = SweepRunner(max_workers=1, cache_dir=cache_dir).run(grown)
        assert report.cell_cache["hits"] == len(SMALL_MATRIX)
        assert report.cell_cache["misses"] == len(grown) - len(SMALL_MATRIX)

    def test_corrupt_entry_is_a_miss_and_heals(self, cached_run):
        cache_dir, cold = cached_run
        victim = sorted((cache_dir / "cells").iterdir())[0]
        victim.write_text("{not json")
        healed = SweepRunner(max_workers=1, cache_dir=cache_dir).run(
            SMALL_MATRIX
        )
        assert healed.cell_cache == {
            "hits": len(SMALL_MATRIX) - 1, "misses": 1
        }
        assert healed.to_json() == cold.to_json()

    def test_dead_cells_are_cached_too(self, tmp_path, monkeypatch):
        # A cell with no buildable policy is cached as skipped, so warm
        # re-runs of mixed matrices still evaluate nothing.
        import repro.scenarios.runner as runner_mod

        matrix = ScenarioMatrix(
            workflows=("IA", "media"),
            arrivals=(ArrivalSpec("constant"),),
            policies=("Optimal", "ORION"),
            n_requests=20,
            samples=300,
            seed=3,
        )
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path).run(matrix)
        monkeypatch.setattr(
            runner_mod, "run_scenario",
            lambda s: (_ for _ in ()).throw(AssertionError("evaluated")),
        )
        warm = SweepRunner(max_workers=1, cache_dir=tmp_path).run(matrix)
        assert warm.skipped == cold.skipped
        assert warm.to_json() == cold.to_json()

    def test_persistent_synthesis_caches_hit_across_cold_memos(self, cached_run):
        # Drop the cells (forcing re-evaluation) and the in-memory memos:
        # the DP/hints disk layers must serve the re-run.
        import shutil

        from repro.synthesis.dp import clear_dp_cache
        from repro.synthesis.generator import clear_hints_cache

        cache_dir, cold = cached_run
        shutil.rmtree(cache_dir / "cells")
        clear_dp_cache()
        clear_hints_cache()
        rerun = SweepRunner(max_workers=1, cache_dir=cache_dir).run(
            SMALL_MATRIX
        )
        assert rerun.to_json() == cold.to_json()
        synth = rerun.synthesis_cache
        assert synth["hints"]["disk_hits"] >= 1
        assert synth["hints"]["syntheses"] == 0

    def test_no_cache_dir_reports_empty_counters(self):
        report = SweepRunner(max_workers=1).run(SMALL_MATRIX)
        assert report.cell_cache == {}


class TestProgressAndAttribution:
    def test_progress_lines_cover_every_cell(self, tmp_path):
        lines: list[str] = []
        SweepRunner(
            max_workers=1, cache_dir=tmp_path, progress=lines.append
        ).run(SMALL_MATRIX)
        assert len(lines) == len(SMALL_MATRIX)
        assert all(" s" in line for line in lines)
        lines.clear()
        SweepRunner(
            max_workers=1, cache_dir=tmp_path, progress=lines.append
        ).run(SMALL_MATRIX)
        assert len(lines) == len(SMALL_MATRIX)
        assert all("cache hit" in line for line in lines)
        assert lines[0].startswith(f"[1/{len(SMALL_MATRIX)}] IA/")

    def test_worker_error_names_the_cell_serial(self):
        register_workflow("boom", _exploding_factory)
        try:
            matrix = ScenarioMatrix(
                workflows=("boom",), policies=("Janus",), n_requests=5
            )
            with pytest.raises(
                ExperimentError,
                match=r"scenario boom/.* failed \(RuntimeError: kaboom",
            ):
                SweepRunner(max_workers=1).run(matrix)
        finally:
            SCENARIO_WORKFLOWS.pop("boom")

    def test_worker_error_names_the_cell_across_processes(self):
        # The same attribution must survive the pickle boundary of a
        # pooled backend (chained causes do not; the message carries it).
        register_workflow("boom", _exploding_factory)
        try:
            matrix = ScenarioMatrix(
                workflows=("IA", "boom"), policies=("Janus",), n_requests=5,
                samples=300,
            )
            with pytest.raises(
                ExperimentError, match="scenario boom/.* failed"
            ):
                SweepRunner(max_workers=2, backend="pool").run(matrix)
        finally:
            SCENARIO_WORKFLOWS.pop("boom")


def _exploding_factory():
    """Top-level so fork/spawn pool workers can resolve the registration."""
    raise RuntimeError("kaboom: flaky workflow factory")


@pytest.fixture()
def recorded_trace(tmp_path):
    """A small diurnal+Zipf trace covering both catalog chain workflows."""
    from repro.traces.trace_file import generate_workload_trace, save_trace
    from repro.traces.workload import ArrivalSpec as Spec

    path = tmp_path / "day.jsonl"
    trace = generate_workload_trace(
        ("IA", "VA"), 120,
        arrival=Spec(kind="diurnal", rate_per_s=12.0, period_s=5.0),
        zipf_s=1.0, seed=41, name="day",
    )
    save_trace(trace, path)
    return path


def _trace_matrix(path):
    return ScenarioMatrix(
        workflows=("IA",),
        arrivals=(ArrivalSpec("constant"),),
        traces=(str(path),),
        policies=("Optimal", "Janus"),
        n_requests=25,
        samples=300,
        seed=19,
    )


class TestTraceAxis:
    def test_traces_extend_the_arrivals_axis(self, recorded_trace):
        matrix = _trace_matrix(recorded_trace)
        assert len(matrix) == 2
        labels = [c.arrival.label for c in matrix.expand()]
        assert labels == ["constant@0ms", f"replay@{recorded_trace}"]

    def test_missing_trace_fails_at_construction(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read trace file"):
            _trace_matrix(tmp_path / "nope.jsonl")

    def test_trace_without_the_workflow_fails_at_construction(
        self, tmp_path
    ):
        from repro.traces.trace_file import generate_workload_trace, save_trace

        path = tmp_path / "va-only.jsonl"
        save_trace(
            generate_workload_trace(("VA",), 30, seed=1, name="va"), path
        )
        with pytest.raises(ExperimentError, match="no records for workflows"):
            _trace_matrix(path)

    def test_zero_record_catalog_workflow_fails_at_construction(
        self, tmp_path
    ):
        # A workflow can sit in the trace's catalog with zero records
        # (extreme Zipf skew); its replay cells are just as unservable as
        # for a missing workflow, and must fail here, not mid-sweep in a
        # pool worker.
        import numpy as np

        from repro.traces.trace_file import WorkloadTrace, save_trace

        path = tmp_path / "skewed.jsonl"
        save_trace(
            WorkloadTrace(
                name="skewed",
                arrival_ms=np.array([0.0, 10.0, 20.0]),
                workflow_ids=np.array([0, 0, 0]),
                workflows=("VA", "IA"),  # IA listed, zero records
            ),
            path,
        )
        with pytest.raises(ExperimentError, match="no records for workflows"):
            _trace_matrix(path)

    def test_single_record_substream_fails_at_construction(self, tmp_path):
        # Wrap-around replay needs >= 2 records per served workflow when
        # n_requests exceeds the sub-stream; this must fail here, not as
        # a TraceError from a pool worker mid-sweep.
        import numpy as np

        from repro.traces.trace_file import WorkloadTrace, save_trace

        path = tmp_path / "thin.jsonl"
        save_trace(
            WorkloadTrace(
                name="thin",
                arrival_ms=np.array([0.0, 5.0, 10.0]),
                workflow_ids=np.array([1, 0, 1]),
                workflows=("IA", "VA"),  # IA has exactly one record
            ),
            path,
        )
        with pytest.raises(ExperimentError, match="single record"):
            _trace_matrix(path)

    def test_replay_parse_token(self):
        spec = parse_arrival("replay@/tmp/some-trace.jsonl")
        assert spec.kind == "replay"
        assert spec.trace == "/tmp/some-trace.jsonl"
        from repro.errors import TraceError

        with pytest.raises(TraceError, match="replay arrivals require"):
            parse_arrival("replay@")

    def test_diurnal_parse_token(self):
        spec = parse_arrival("diurnal@6")
        assert spec.kind == "diurnal" and spec.rate_per_s == 6.0

    def test_replay_sweep_bit_identical_across_backends(self, recorded_trace):
        # Acceptance: a recorded trace replayed through the sweep engine
        # is bit-identical on every backend, across real process
        # boundaries.
        matrix = _trace_matrix(recorded_trace)
        serial = SweepRunner(max_workers=1, backend="serial").run(matrix)
        pooled = SweepRunner(max_workers=2, backend="pool").run(matrix)
        assert pooled.to_json() == serial.to_json()
        # The replay cell genuinely served the trace's IA sub-stream, not
        # the synthetic arrivals.
        replay_cells = [
            r for r in serial.results if r.arrival.startswith("replay@")
        ]
        assert len(replay_cells) == 1

    def test_editing_the_trace_cold_starts_only_replay_cells(
        self, recorded_trace, tmp_path
    ):
        # Acceptance: an untouched trace is a full cache hit; editing the
        # file changes the cell-cache key of exactly the cells replaying
        # it (the constant-arrival cell stays warm). Asserted on the
        # cache keys and the regenerated arrivals, not report-JSON
        # inequality — analytic per-request latencies are
        # arrival-independent, so the aggregate metrics can coincide to
        # the last ulp and a JSON comparison would be flaky.
        from repro.scenarios import scenario_digest
        from repro.scenarios.runner import scenario_requests
        from repro.scenarios.registry import scenario_workflow
        from repro.traces.trace_file import generate_workload_trace, save_trace
        from repro.traces.workload import ArrivalSpec as Spec

        matrix = _trace_matrix(recorded_trace)
        constant_cell, replay_cell = matrix.expand()
        cold_digests = (
            scenario_digest(constant_cell), scenario_digest(replay_cell)
        )
        workflow = scenario_workflow(replay_cell.workflow)
        cold_arrivals = [
            r.arrival_ms
            for r in scenario_requests(workflow, replay_cell, 3000.0)
        ]

        cache_dir = tmp_path / "cache"
        cold = SweepRunner(max_workers=1, cache_dir=cache_dir).run(matrix)
        assert cold.cell_cache == {"hits": 0, "misses": 2}
        warm = SweepRunner(max_workers=1, cache_dir=cache_dir).run(matrix)
        assert warm.cell_cache == {"hits": 2, "misses": 0}
        assert warm.to_json() == cold.to_json()

        save_trace(
            generate_workload_trace(
                ("IA", "VA"), 120,
                arrival=Spec(kind="poisson", rate_per_s=30.0),
                seed=4242, name="edited",
            ),
            recorded_trace,
        )
        # Exactly the replay cell's cache key changes...
        assert scenario_digest(constant_cell) == cold_digests[0]
        assert scenario_digest(replay_cell) != cold_digests[1]
        # ...its regenerated workload serves the edited arrivals...
        edited_arrivals = [
            r.arrival_ms
            for r in scenario_requests(workflow, replay_cell, 3000.0)
        ]
        assert edited_arrivals != cold_arrivals
        # ...and the sweep re-evaluates it while the constant cell stays
        # warm.
        edited = SweepRunner(max_workers=1, cache_dir=cache_dir).run(matrix)
        assert edited.cell_cache == {"hits": 1, "misses": 1}

    def test_replay_cells_keep_dynamics_streams(self, recorded_trace):
        # Replay pins arrivals to the file; the per-request dynamics stay
        # on the cell's derived seed (common random numbers), so the seed
        # labels — which embed the trace *path*, not its content — are
        # stable across file edits.
        matrix = _trace_matrix(recorded_trace)
        constant, replay = matrix.expand()
        assert replay.seed != constant.seed
        again = _trace_matrix(recorded_trace).expand()[1]
        assert again.seed == replay.seed


class TestDagHintsCache:
    def test_dag_cells_hit_the_disk_layer(self, tmp_path):
        import shutil

        from repro.synthesis.dag import clear_dag_hints_cache
        from repro.synthesis.dp import clear_dp_cache
        from repro.synthesis.generator import clear_hints_cache

        matrix = ScenarioMatrix(
            workflows=("media",),
            arrivals=(ArrivalSpec("constant"),),
            policies=("Janus",),
            n_requests=8,
            samples=300,
            seed=5,
        )
        clear_dp_cache()
        clear_hints_cache()
        clear_dag_hints_cache()
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path).run(matrix)
        assert cold.synthesis_cache["dag_hints"]["syntheses"] >= 1
        assert (tmp_path / "dag-hints").is_dir()
        # Cold memos + dropped cells: the rerun must be served from the
        # DAG-hints disk layer without re-running the suffix sweeps.
        shutil.rmtree(tmp_path / "cells")
        clear_dp_cache()
        clear_hints_cache()
        clear_dag_hints_cache()
        rerun = SweepRunner(max_workers=1, cache_dir=tmp_path).run(matrix)
        assert rerun.synthesis_cache["dag_hints"]["disk_hits"] >= 1
        assert rerun.synthesis_cache["dag_hints"]["syntheses"] == 0
        assert rerun.to_json() == cold.to_json()
        assert "dag_hints[" in rerun.render()

    def test_sweep_restores_caller_configured_dag_hints_layer(self, tmp_path):
        from repro.synthesis.dag import (
            dag_hints_cache_dir,
            set_dag_hints_cache_dir,
        )

        set_dag_hints_cache_dir(tmp_path / "my-dag-hints")
        try:
            SweepRunner(max_workers=1, cache_dir=tmp_path / "sweep").run(
                SMALL_MATRIX
            )
            assert dag_hints_cache_dir() == str(tmp_path / "my-dag-hints")
        finally:
            set_dag_hints_cache_dir(None)


class TestReviewHardening:
    """Regression pins for the post-review fixes."""

    def test_warm_replay_reproduces_csv_and_render_verbatim(self, tmp_path):
        # The cell store must not reorder per-policy tables: a warm
        # replay's CSV and rendered table match the cold run's exactly
        # (not just the key-sorted JSON). "Optimal" sorts before
        # "GrandSLAM" alphabetically but is evaluated first, so a
        # sort_keys store would flip the row order.
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path).run(SMALL_MATRIX)
        warm = SweepRunner(max_workers=1, cache_dir=tmp_path).run(SMALL_MATRIX)
        assert warm.to_csv() == cold.to_csv()
        assert [list(r.table) for r in warm.results] == [
            list(r.table) for r in cold.results
        ]

    def test_sweep_restores_caller_configured_disk_layers(self, tmp_path):
        from repro.synthesis.dp import dp_cache_dir, set_dp_cache_dir
        from repro.synthesis.generator import (
            hints_cache_dir,
            set_hints_cache_dir,
        )

        set_dp_cache_dir(tmp_path / "my-dp")
        set_hints_cache_dir(tmp_path / "my-hints")
        try:
            # Without a cache_dir the sweep must leave the layers alone...
            SweepRunner(max_workers=1).run(SMALL_MATRIX)
            assert dp_cache_dir() == str(tmp_path / "my-dp")
            # ...and with one it must restore them afterwards.
            SweepRunner(max_workers=1, cache_dir=tmp_path / "sweep").run(
                SMALL_MATRIX
            )
            assert dp_cache_dir() == str(tmp_path / "my-dp")
            assert hints_cache_dir() == str(tmp_path / "my-hints")
        finally:
            set_dp_cache_dir(None)
            set_hints_cache_dir(None)

    def test_completed_cells_survive_a_failing_cell(self, tmp_path):
        # One broken cell must not discard the finished cells' cache
        # entries: stores happen per completion, not after the run.
        register_workflow("boom2", _exploding_factory)
        try:
            matrix = ScenarioMatrix(
                workflows=("IA", "boom2"), policies=("Janus",),
                n_requests=5, samples=300,
            )
            with pytest.raises(ExperimentError, match="scenario boom2/"):
                SweepRunner(max_workers=1, cache_dir=tmp_path).run(matrix)
        finally:
            SCENARIO_WORKFLOWS.pop("boom2")
        stored = list((tmp_path / "cells").iterdir())
        assert len(stored) == 1  # the IA cell completed before the crash

    def test_single_pending_cell_resolves_serial_by_default(self):
        # min(jobs, pending cells) drives the default rule, so a 1-cell
        # dispatch never pays a process-pool spawn for zero parallelism.
        matrix = ScenarioMatrix(
            workflows=("IA",), policies=("Janus",), n_requests=5,
            samples=300, seed=29,
        )
        report = SweepRunner(max_workers=8).run(matrix)
        assert report.backend == "serial"
        assert report.max_workers == 1

    def test_plain_init_custom_backend_resolves(self):
        # The documented register_backend idiom: a factory that declares
        # no pool knobs still resolves (options are signature-filtered).
        from repro.scenarios.backends import _BACKENDS, register_backend

        @register_backend("inline")
        class _Inline:
            name = "inline"

            def workers_for(self, n_tasks):
                return 1

            def run(self, scenarios, fn, on_complete=None,
                    initializer=None, initargs=()):
                if initializer is not None:
                    initializer(*initargs)
                out = []
                for pos, s in enumerate(scenarios):
                    out.append(fn(s))
                    if on_complete is not None:
                        on_complete(pos, out[-1])
                return out

        try:
            matrix = ScenarioMatrix(
                workflows=("IA",), policies=("Janus",), n_requests=5,
                samples=300, seed=31,
            )
            report = SweepRunner(max_workers=4, backend="inline").run(matrix)
            assert report.backend == "inline"
        finally:
            _BACKENDS.pop("inline")


class TestStreamingCells:
    """The opt-in bounded-memory sweep path (Scenario.streaming)."""

    MATRIX = ScenarioMatrix(
        workflows=("IA",),
        arrivals=(ArrivalSpec("poisson", rate_per_s=20.0),),
        slo_scales=(1.0,),
        tenant_counts=(1, 2),
        policies=("Optimal", "Janus"),
        n_requests=120,
        samples=300,
        seed=13,
        streaming=True,
    )

    def test_cell_id_and_executor_are_marked(self):
        cell = self.MATRIX.expand()[0]
        assert cell.streaming
        assert cell.scenario_id.endswith("/streaming")
        result = run_scenario(cell)
        assert result.executor.endswith("[streaming]")

    def test_digest_differs_from_exact_cell(self):
        import dataclasses

        from repro.scenarios.cache import scenario_digest

        streaming_cell = self.MATRIX.expand()[0]
        exact_cell = dataclasses.replace(streaming_cell, streaming=False)
        assert scenario_digest(streaming_cell) != scenario_digest(exact_cell)

    def test_table_matches_exact_cell_closely(self):
        self._assert_table_matches_exact_cell(self.MATRIX.expand()[0])

    def test_dag_cell_streams_and_matches_exact_cell_closely(self):
        media = ScenarioMatrix(
            workflows=("media",),
            arrivals=(ArrivalSpec("poisson", rate_per_s=20.0),),
            slo_scales=(1.0,),
            tenant_counts=(1,),
            policies=("GrandSLAM", "Janus"),
            n_requests=120,
            samples=300,
            seed=13,
            streaming=True,
        )
        cell = media.expand()[0]
        result = self._assert_table_matches_exact_cell(cell)
        assert result.executor == "DagAnalyticExecutor[streaming]"

    @staticmethod
    def _assert_table_matches_exact_cell(streaming_cell):
        import dataclasses

        exact_cell = dataclasses.replace(streaming_cell, streaming=False)
        s_result = run_scenario(streaming_cell)
        e_result = run_scenario(exact_cell)
        s_table, e_table = s_result.table, e_result.table
        assert set(s_table) == set(e_table)
        for policy in s_table:
            s_row, e_row = s_table[policy], e_table[policy]
            # Means are exact aggregates: identical stream, identical math.
            assert s_row["mean_allocated_millicores"] == pytest.approx(
                e_row["mean_allocated_millicores"], rel=1e-12
            )
            assert s_row["violation_rate"] == pytest.approx(
                e_row["violation_rate"]
            )
            # Percentiles are P2 estimates; tight but not exact.
            assert s_row["p50_e2e_ms"] == pytest.approx(
                e_row["p50_e2e_ms"], rel=0.05
            )
        # Policy extras still carried, matching the exact path.
        assert "hit_rate" in s_result.extras["Janus"]
        assert s_result.extras["Janus"]["hit_rate"] == pytest.approx(
            e_result.extras["Janus"]["hit_rate"]
        )
        return s_result

    def test_lazy_merge_equals_eager_merge(self):
        from repro.scenarios.registry import scenario_workflow
        from repro.scenarios.runner import (
            iter_scenario_requests,
            scenario_requests,
        )

        cell = next(
            c for c in self.MATRIX.expand() if c.tenants == 2
        )
        workflow = scenario_workflow(cell.workflow)
        slo_ms = workflow.slo_ms * cell.slo_scale
        lazy = list(iter_scenario_requests(workflow, cell, slo_ms))
        eager = scenario_requests(workflow, cell, slo_ms)
        assert len(lazy) == len(eager) == 240
        for a, b in zip(lazy, eager):
            assert a.request_id == b.request_id
            assert a.arrival_ms == b.arrival_ms
            assert a.stage_dynamics == b.stage_dynamics

    def test_tied_arrivals_merge_lazily_like_the_eager_sort(self):
        # Constant arrivals tie across tenants: the lazy heap merge must
        # break ties by tenant index exactly as merge_tenant_streams does.
        from repro.scenarios.registry import scenario_workflow
        from repro.scenarios.runner import (
            iter_scenario_requests,
            scenario_requests,
        )

        cell = ScenarioMatrix(
            workflows=("IA",),
            arrivals=(ArrivalSpec("constant"),),
            slo_scales=(1.0,),
            tenant_counts=(2,),
            policies=("Optimal", "Janus"),
            n_requests=40,
            samples=300,
            seed=13,
            streaming=True,
        ).expand()[0]
        workflow = scenario_workflow(cell.workflow)

        def rows(requests):
            return [
                (r.request_id, r.arrival_ms, r.stage_dynamics)
                for r in requests
            ]

        lazy = iter_scenario_requests(workflow, cell, workflow.slo_ms)
        eager = scenario_requests(workflow, cell, workflow.slo_ms)
        assert rows(lazy) == rows(eager)
        self._assert_table_matches_exact_cell(cell)

    def test_streaming_requires_analytic_executor(self):
        with pytest.raises(ExperimentError, match="streaming"):
            ScenarioMatrix(
                workflows=("IA",), policies=("Janus",),
                executors=("cluster",), streaming=True,
                n_requests=10, samples=300,
            )
