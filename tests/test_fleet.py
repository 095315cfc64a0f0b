"""Multi-region fleet tests: specs, topology, routing, sweeps, serving.

The fleet subsystem joins every determinism contract the sweep engine
pins — the chaos/property checks here cover routing conservation under
failover, bit-identity across execution backends and warm cache replays,
and the digest-separation rule that keeps fleet-free cells on their
pre-existing cache keys.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os

import numpy as np
import pytest

from repro.cluster.faults import RegionOutage, compile_region_failover
from repro.errors import ExperimentError
from repro.fleet import (
    ROUTING_POLICIES,
    FleetConfig,
    RegionTopology,
    RoutingContext,
    StreamRouter,
    fleet_arrival_source,
    fleet_requests,
    parse_fleet,
    region_arrival,
    route_requests,
)
from repro.rng import child_seed
from repro.scenarios import (
    ScenarioMatrix,
    SweepRunner,
    parse_cluster_config,
    parse_fault,
    scenario_digest,
    scenario_requests,
)
from repro.scenarios.registry import scenario_workflow
from repro.serving import ServingConfig, run_service
from repro.traces.workload import ArrivalSpec

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _fleet(**overrides) -> FleetConfig:
    kwargs = dict(
        regions=("us-east", "eu-west", "ap-south"),
        routing="spillover",
        capacity=4,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


def _fleet_matrix(**overrides) -> ScenarioMatrix:
    kwargs = dict(
        workflows=("IA",),
        arrivals=(
            ArrivalSpec(kind="diurnal", rate_per_s=20.0, period_s=10.0),
        ),
        slo_scales=(1.0,),
        tenant_counts=(1,),
        policies=("Janus",),
        n_requests=24,
        samples=200,
        seed=23,
        fleets=(_fleet(),),
        faults=(None, parse_fault("region-failover@2000")),
    )
    kwargs.update(overrides)
    return ScenarioMatrix(**kwargs)


# ---------------------------------------------------------------------------
# spec grammar and topology


class TestParseFleet:
    def test_region_count_uses_default_names(self):
        fleet = parse_fleet("regions=3")
        assert fleet.regions == ("us-east", "eu-west", "ap-south")
        assert fleet.routing == "home-region"

    def test_named_regions_and_knobs(self):
        fleet = parse_fleet(
            "regions=eu:us:ap,routing=latency-aware,capacity=6,"
            "rtt=25,weights=2:1:1"
        )
        assert fleet.regions == ("eu", "us", "ap")
        assert fleet.routing == "latency-aware"
        assert fleet.capacity == 6
        assert fleet.rtt_ms == 25.0
        assert fleet.effective_weights() == (2.0, 1.0, 1.0)

    def test_label_is_count_and_routing(self):
        assert parse_fleet("regions=3,routing=spillover").label == (
            "3r:spillover"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "regions=3,routing=nope",
            "regions=3,bogus=1",
            "regions=0",
            "regions=3,capacity=0",
            "regions=3,rtt=-5",
            "regions=3,weights=1:2",
            "regions=a:a",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ExperimentError):
            parse_fleet(bad)

    def test_default_weights_are_uniform(self):
        assert _fleet().effective_weights() == (1.0, 1.0, 1.0)


class TestRegionTopology:
    def test_ring_is_symmetric_with_zero_diagonal(self):
        topo = RegionTopology.ring(4, hop_rtt_ms=30.0)
        for a in range(4):
            assert topo.rtt_ms(a, a) == 0.0
            for b in range(4):
                assert topo.rtt_ms(a, b) == topo.rtt_ms(b, a)
        # Opposite corners of a 4-ring are two hops either way.
        assert topo.rtt_ms(0, 2) == 60.0
        assert topo.rtt_ms(0, 1) == 30.0

    @pytest.mark.parametrize(
        "rtt",
        [
            ((0.0, 1.0),),  # not square
            ((1.0, 1.0), (1.0, 0.0)),  # nonzero diagonal
            ((0.0, 1.0), (2.0, 0.0)),  # asymmetric
            ((0.0, -1.0), (-1.0, 0.0)),  # negative
        ],
    )
    def test_bad_tables_rejected(self, rtt):
        with pytest.raises(ExperimentError):
            RegionTopology(rtt=rtt)


# ---------------------------------------------------------------------------
# routing policies and the stream router


def _ctx(fleet: FleetConfig, queue_penalty_ms: float = 100.0):
    return RoutingContext(
        fleet=fleet,
        topology=fleet.topology(),
        weights=fleet.effective_weights(),
        queue_penalty_ms=queue_penalty_ms,
    )


class TestRoutingPolicies:
    def test_home_region_stays_home_until_dark(self):
        policy = ROUTING_POLICIES["home-region"]
        ctx = _ctx(_fleet())
        assert policy.choose(1, [0, 1, 2], [9, 9, 0], ctx) == 1
        # Home dark: least-loaded survivor, ties by index.
        assert policy.choose(1, [0, 2], [3, 9, 3], ctx) == 0

    def test_weighted_balances_by_weight(self):
        policy = ROUTING_POLICIES["weighted"]
        ctx = _ctx(_fleet(weights=(4.0, 1.0, 1.0)))
        # Equal raw load: the heavy region wins on load/weight.
        assert policy.choose(2, [0, 1, 2], [2, 2, 2], ctx) == 0

    def test_latency_aware_trades_rtt_against_queue(self):
        policy = ROUTING_POLICIES["latency-aware"]
        fleet = _fleet(rtt_ms=60.0)
        ctx = _ctx(fleet, queue_penalty_ms=50.0)
        # Lightly loaded home beats a free neighbour (60 ms hop).
        assert policy.choose(0, [0, 1, 2], [1, 0, 0], ctx) == 0
        # Two in-flight at home (100 ms) now lose to the 60 ms hop.
        assert policy.choose(0, [0, 1, 2], [2, 0, 0], ctx) == 1

    def test_spillover_overflows_at_capacity(self):
        policy = ROUTING_POLICIES["spillover"]
        fleet = _fleet(capacity=2)
        ctx = _ctx(fleet)
        assert policy.choose(0, [0, 1, 2], [1, 0, 0], ctx) == 0
        assert policy.choose(0, [0, 1, 2], [2, 5, 3], ctx) == 2
        # Saturated home with no peers up still serves at home.
        assert policy.choose(0, [0], [2, 0, 0], ctx) == 0


class TestStreamRouter:
    def test_conservation_every_request_served_exactly_once(self):
        fleet = _fleet(capacity=2)
        n = 200
        homes = [i % 3 for i in range(n)]
        arrivals = [float(i * 7) for i in range(n)]
        outage = RegionOutage(region_index=1, start_ms=200.0, end_ms=900.0)
        plan = route_requests(
            fleet, homes, arrivals, hold_ms=120.0, outage=outage
        )
        assert len(plan.assigned) == n
        assert sum(plan.region_counts) == n
        assert plan.failovers > 0
        remote = sum(
            1 for h, c in zip(homes, plan.assigned) if h != c
        )
        assert plan.spillovers + plan.failovers == remote
        # Nothing lands on the dark region inside the window.
        for home, t, chosen in zip(homes, arrivals, plan.assigned):
            if outage.down_at(t):
                assert chosen != 1

    def test_rtt_charged_only_off_home(self):
        fleet = _fleet(routing="home-region", rtt_ms=40.0)
        plan = route_requests(
            fleet, [0, 1, 2], [0.0, 1.0, 2.0], hold_ms=50.0
        )
        assert plan.assigned == (0, 1, 2)
        assert plan.rtt_ms == (0.0, 0.0, 0.0)
        assert plan.spillovers == plan.failovers == 0

    def test_outage_needs_two_regions(self):
        fleet = FleetConfig(regions=("solo",))
        with pytest.raises(ExperimentError, match=">= 2 regions"):
            StreamRouter(
                fleet,
                hold_ms=10.0,
                outage=RegionOutage(0, 0.0, 1.0),
            )

    def test_dark_choice_is_rejected(self):
        from repro.fleet.routing import register_routing

        if "test-always-zero" not in ROUTING_POLICIES:
            @register_routing("test-always-zero")
            class _AlwaysZero:
                def choose(self, home, up, load, ctx):
                    return 0

        fleet = _fleet(routing="test-always-zero")
        router = StreamRouter(
            fleet, hold_ms=10.0, outage=RegionOutage(0, 0.0, 100.0)
        )
        with pytest.raises(ExperimentError, match="dark region"):
            router.route(1, 50.0)


class TestRegionFailoverCompile:
    def test_deterministic_and_inside_horizon(self):
        spec = parse_fault("region-failover@2000")
        a = compile_region_failover(spec, 99, 3, 10_000.0)
        b = compile_region_failover(spec, 99, 3, 10_000.0)
        assert a == b
        assert 0 <= a.region_index < 3
        assert 0.0 <= a.start_ms
        assert a.end_ms == a.start_ms + 2000.0
        assert a.end_ms <= 10_000.0

    def test_different_seeds_can_move_the_window(self):
        spec = parse_fault("region-failover@2000")
        windows = {
            compile_region_failover(spec, seed, 3, 10_000.0)
            for seed in range(8)
        }
        assert len(windows) > 1


# ---------------------------------------------------------------------------
# request generation (common random numbers)


class TestFleetRequests:
    def test_region_zero_replays_the_single_region_sibling(self):
        matrix = _fleet_matrix(faults=(None,))
        (scenario,) = matrix.expand()
        workflow = scenario_workflow(scenario.workflow)
        slo_ms = workflow.slo_ms * scenario.slo_scale
        requests, homes = fleet_requests(workflow, scenario, slo_ms)
        sibling = dataclasses.replace(scenario, fleet=None)
        solo = scenario_requests(workflow, sibling, slo_ms)
        at_home = [
            req for req, home in zip(requests, homes) if home == 0
        ]
        assert len(at_home) == len(solo)
        for mine, theirs in zip(at_home, solo):
            assert mine.arrival_ms == theirs.arrival_ms
            assert mine.stage_dynamics == theirs.stage_dynamics

    def test_regions_get_distinct_streams_and_phases(self):
        matrix = _fleet_matrix(faults=(None,))
        (scenario,) = matrix.expand()
        arrival = scenario.effective_arrival()
        shifted = region_arrival(arrival, 1, 3)
        assert shifted.phase != arrival.phase
        assert region_arrival(arrival, 0, 3) == arrival
        # Phase-free kinds shift nothing — they differ only by seed.
        poisson = ArrivalSpec(kind="poisson", rate_per_s=8.0)
        assert region_arrival(poisson, 2, 3) == poisson
        # Per-region tenant seeds are distinct from the home path.
        assert child_seed(
            scenario.seed, "region", "eu-west", "tenant", "0"
        ) != child_seed(scenario.seed, "tenant", "0")


# ---------------------------------------------------------------------------
# sweep integration: bit-identity, warm replay, counters, digests


class TestFleetSweep:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return SweepRunner(max_workers=1, backend="serial").run(
            _fleet_matrix()
        )

    def test_bit_identical_across_backends(self, serial_report, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", SRC_DIR)
        matrix = _fleet_matrix()
        for backend, options in (
            ("pool", None),
            ("distributed", {"hosts": "local:2", "connect_timeout": 60.0}),
        ):
            other = SweepRunner(
                max_workers=2, backend=backend, backend_options=options
            ).run(matrix)
            assert other.to_json() == serial_report.to_json(), (
                f"{backend} diverged on the fleet matrix"
            )

    def test_warm_cache_replay_is_byte_identical(self, tmp_path):
        cold = SweepRunner(
            max_workers=1, backend="serial", cache_dir=tmp_path
        ).run(_fleet_matrix())
        warm = SweepRunner(
            max_workers=1, backend="serial", cache_dir=tmp_path
        ).run(_fleet_matrix())
        assert warm.to_json() == cold.to_json()
        assert warm.cell_cache == {"hits": 2, "misses": 0}

    def test_counters_nonzero_in_json_and_csv(
        self, serial_report, tmp_path
    ):
        payload = json.loads(serial_report.to_json())
        fault_free, faulted = payload["results"]
        extras = fault_free["extras"]["Janus"]
        assert extras["fleet_spillovers"] > 0
        assert extras["fleet_failovers"] == 0
        assert faulted["extras"]["Janus"]["fleet_failovers"] > 0
        # Per-region accounting rides in the JSON extras.
        for name in ("us-east", "eu-west", "ap-south"):
            assert f"fleet_share_{name}" in extras
            assert f"fleet_slo_{name}" in extras
        shares = [extras[f"fleet_share_{n}"]
                  for n in ("us-east", "eu-west", "ap-south")]
        assert sum(shares) == pytest.approx(1.0)
        # The fixed fleet columns are promoted to the CSV.
        csv_path = tmp_path / "fleet.csv"
        serial_report.write_csv(csv_path)
        text = csv_path.read_text()
        header = text.splitlines()[0]
        for column in (
            "fleet_spillovers",
            "fleet_failovers",
            "fleet_remote_fraction",
            "fleet_rtt_penalty_ms",
        ):
            assert column in header

    def test_executor_label_names_the_fleet(self, serial_report):
        payload = json.loads(serial_report.to_json())
        assert payload["results"][0]["executor"].startswith("Fleet[3x")

    def test_scenario_id_carries_the_fleet_label(self):
        scenarios = _fleet_matrix().expand()
        assert all(
            "/fleet 3r:spillover" in s.scenario_id for s in scenarios
        )


class TestFleetOnCluster:
    """DES-platform regions: the fleet merge's outcome-list input."""

    def test_backend_identical_with_per_region_cold_starts(
        self, monkeypatch
    ):
        monkeypatch.setenv("PYTHONPATH", SRC_DIR)
        matrix = _fleet_matrix(
            executors=("cluster",),
            cluster=parse_cluster_config(
                "n_vms=2,warm_pool_size=2,autoscale=false"
            ),
            slo_scales=(1.0, 2.0),
            faults=(None,),
            n_requests=8,
        )
        serial = SweepRunner(max_workers=1, backend="serial").run(matrix)
        pooled = SweepRunner(max_workers=2, backend="pool").run(matrix)
        assert pooled.to_json() == serial.to_json()
        for cell in json.loads(serial.to_json())["results"]:
            assert cell["executor"] == "Fleet[3xServerlessPlatform]"
            extras = cell["extras"]["Janus"]
            for name in ("us-east", "eu-west", "ap-south"):
                assert 0.0 <= extras[f"fleet_cold_start_rate_{name}"] <= 1.0


class TestFleetMerge:
    def test_columns_merge_like_shifted_outcomes(self):
        # Reference: the per-record merge the columns replaced — every
        # stage of a remote-served outcome shifts by its RTT, and rows
        # take their global ids. Region 1 hands over an outcome list (as
        # the DES platform does) whose first row lists the DAG's stages
        # in completion order, so its columns must be realigned.
        from repro.fleet.runner import _merge_columns
        from repro.policies.dag import DagFixedPolicy
        from repro.runtime.dag_executor import DagAnalyticExecutor
        from repro.runtime.results import OutcomeColumns
        from repro.traces.workload import WorkloadConfig, generate_requests
        from repro.workflow.request import RequestOutcome, StageRecord

        wf = scenario_workflow("media")
        requests = generate_requests(wf, WorkloadConfig(n_requests=12), seed=4)
        policy = DagFixedPolicy("fixed", {n: 2000 for n in wf.dag.nodes})
        by_region = [[0, 3, 4, 9], [1, 2, 5, 6, 7, 8, 10, 11]]
        rtt = [0.0, 35.5, 35.5, 0.0, 0.0, 35.5, 35.5, 35.5, 0.0, 0.0, 35.5, 35.5]
        parts, expected = [], [None] * len(requests)
        for region, indices in enumerate(by_region):
            sub = [
                dataclasses.replace(requests[i], request_id=j)
                for j, i in enumerate(indices)
            ]
            result = DagAnalyticExecutor(wf).run(policy, sub)
            columns = (
                result.columns if region == 0
                else OutcomeColumns.from_outcomes(result.outcomes)
            )
            parts.append((indices, columns))
            for j, i in enumerate(indices):
                outcome = result.outcomes[j]
                expected[i] = RequestOutcome(
                    request_id=i,
                    arrival_ms=outcome.arrival_ms,
                    slo_ms=outcome.slo_ms,
                    stages=[
                        StageRecord(
                            s.function, s.size,
                            s.start_ms + rtt[i], s.end_ms + rtt[i],
                        )
                        for s in outcome.stages
                    ],
                )
        assert parts[1][1].functions != parts[0][1].functions
        merged = _merge_columns(parts, np.asarray(rtt))
        assert merged.to_outcomes() == expected
        assert merged.e2e_ms().tolist() == [o.e2e_ms for o in expected]


class TestDigestSeparation:
    def test_fleet_free_cells_keep_their_digests(self):
        base = _fleet_matrix(faults=(None,), fleets=(None,))
        legacy = ScenarioMatrix(
            workflows=("IA",),
            arrivals=(
                ArrivalSpec(kind="diurnal", rate_per_s=20.0, period_s=10.0),
            ),
            slo_scales=(1.0,),
            tenant_counts=(1,),
            policies=("Janus",),
            n_requests=24,
            samples=200,
            seed=23,
        )
        for with_axis, without in zip(base.expand(), legacy.expand()):
            assert scenario_digest(with_axis) == scenario_digest(without)
            assert with_axis.seed == without.seed

    def test_fleet_cells_get_distinct_digests_but_shared_seeds(self):
        fleet_free = _fleet_matrix(faults=(None,), fleets=(None,)).expand()
        fleeted = _fleet_matrix(faults=(None,)).expand()
        assert scenario_digest(fleeted[0]) != scenario_digest(fleet_free[0])
        # CRN: the fleet cell replays its sibling's workload seed.
        assert fleeted[0].seed == fleet_free[0].seed

    def test_zero_phase_keeps_legacy_arrival_labels(self):
        spec = ArrivalSpec(kind="diurnal", rate_per_s=8.0)
        explicit = dataclasses.replace(spec, phase=0.0)
        assert explicit.label == spec.label
        assert "+0" not in spec.label
        shifted = dataclasses.replace(spec, phase=1.5)
        assert shifted.label != spec.label

    def test_region_failover_requires_a_fleet_on_every_entry(self):
        with pytest.raises(ExperimentError, match="fleet"):
            _fleet_matrix(fleets=(None, _fleet()))
        with pytest.raises(ExperimentError, match="fleet"):
            _fleet_matrix(fleets=(None,))

    def test_streaming_rejects_fleets(self):
        with pytest.raises(ExperimentError, match="[Ss]treaming"):
            _fleet_matrix(faults=(None,), streaming=True)


# ---------------------------------------------------------------------------
# serving integration


class TestFleetServing:
    def _config(self, **overrides):
        kwargs = dict(
            workflow="IA",
            policy="Janus",
            source=ArrivalSpec(
                kind="diurnal", rate_per_s=40.0, period_s=20.0
            ),
            seed=7,
            samples=300,
            max_requests=200,
            metrics_every=100,
            fleet=_fleet(),
        )
        kwargs.update(overrides)
        return ServingConfig(**kwargs)

    def test_fleet_serve_is_deterministic_with_counters(self):
        first = run_service(self._config())
        second = run_service(self._config())
        assert first.snapshot == second.snapshot
        snap = first.snapshot
        assert snap["fleet_spillovers"] > 0
        assert 0.0 <= snap["fleet_remote_fraction"] <= 1.0
        shares = [
            snap[f"fleet_share_{name}"]
            for name in ("us-east", "eu-west", "ap-south")
        ]
        assert sum(shares) == pytest.approx(1.0)

    def test_region_failover_serving_needs_a_fleet(self):
        with pytest.raises(ExperimentError, match="fleet"):
            self._config(
                fleet=None, faults=parse_fault("region-failover@2000")
            )

    def test_cluster_kinds_still_rejected(self):
        with pytest.raises(ExperimentError, match="cluster"):
            self._config(faults=parse_fault("preempt@2"))

    def test_fleet_free_snapshot_has_no_fleet_keys(self):
        report = run_service(self._config(fleet=None))
        assert not any(k.startswith("fleet_") for k in report.snapshot)

    def test_merged_source_preserves_region_zero_stream(self):
        spec = ArrivalSpec(kind="diurnal", rate_per_s=20.0, period_s=10.0)
        specs = [region_arrival(spec, r, 2) for r in range(2)]
        merged = fleet_arrival_source(
            specs, [np.random.default_rng(5), np.random.default_rng(9)]
        )
        taken = list(itertools.islice(merged, 300))
        assert taken == sorted(taken)  # time-ordered merge
        r0 = [t for t, region in taken if region == 0]
        solo = list(
            itertools.islice(spec.stream(np.random.default_rng(5)), len(r0))
        )
        assert r0 == solo
