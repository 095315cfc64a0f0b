"""Always-on serving: sources, event log, loop, online adaptation."""

import asyncio
import itertools

import numpy as np
import pytest

from repro.errors import ExperimentError, TraceError
from repro.rng import RngFactory
from repro.runtime.executor import AnalyticExecutor
from repro.serving import (
    EventLog,
    ServingConfig,
    ServingLoop,
    read_events,
    run_service,
)
from repro.traces.trace_file import (
    generate_workload_trace,
    replay_arrivals,
    save_trace,
)
from repro.traces.workload import ArrivalSpec


def take(iterator, n):
    return list(itertools.islice(iterator, n))


def rng(*path):
    return RngFactory(7).fork("test-sources").stream(*path)


class TestArrivalSources:
    @pytest.mark.parametrize("token_kind,kwargs", [
        ("poisson", {"rate_per_s": 20.0}),
        ("burst", {"rate_per_s": 10.0}),
        ("azure", {"rate_per_s": 10.0}),
        ("diurnal", {"rate_per_s": 8.0}),
    ])
    def test_sorted_positive_unbounded(self, token_kind, kwargs):
        spec = ArrivalSpec(kind=token_kind, **kwargs)
        ts = take(spec.stream(rng(token_kind)), 1000)
        arr = np.asarray(ts)
        assert np.all(arr >= 0) and np.all(np.diff(arr) >= 0)

    def test_constant_spacing_exact(self):
        spec = ArrivalSpec(kind="constant", interval_ms=25.0)
        ts = take(spec.stream(rng("const")), 10)
        assert ts == [i * 25.0 for i in range(10)]

    def test_consumption_depth_does_not_change_the_stream(self):
        # The determinism contract: draw sizes are fixed constants, so
        # taking 10 then 1000 arrivals yields the same leading values.
        spec = ArrivalSpec(kind="diurnal", rate_per_s=8.0)
        short = take(spec.stream(rng("d")), 10)
        long = take(spec.stream(rng("d")), 1000)
        assert long[:10] == short

    def test_replay_matches_batch_replay_with_wraparound(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = generate_workload_trace(["IA", "VA"], 40, seed=5)
        save_trace(trace, path)
        spec = ArrivalSpec(kind="replay", trace=str(path))
        streamed = take(spec.stream(rng("r"), workflow="IA"), 90)
        batch = replay_arrivals(trace, 90, workflow="IA")
        assert streamed == pytest.approx(list(batch))

    def test_replay_empty_substream_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(generate_workload_trace(["IA"], 10, seed=5), path)
        spec = ArrivalSpec(kind="replay", trace=str(path))
        with pytest.raises(TraceError, match="no records"):
            # The stream is a generator: validation happens on first pull.
            next(spec.stream(rng("r"), workflow="VA"))


class TestEventLog:
    def test_in_memory_accumulates(self):
        log = EventLog()
        log.emit("start", policy="Janus")
        log.emit("stop")
        assert [e["kind"] for e in log.events] == ["start", "stop"]
        assert [e["seq"] for e in log.events] == [0, 1]
        assert log.count == 2

    def test_file_sink_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("decision", request_id=0, size=np.int64(1500))
            log.emit("swap", swap=1)
        assert log.events == []  # write-through, nothing retained
        records = read_events(path)
        assert len(records) == 2
        assert records[0]["size"] == 1500  # numpy scalar serialized plainly
        assert read_events(path, kind="swap") == [
            {"seq": 1, "kind": "swap", "swap": 1}
        ]

    def test_read_missing_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="no event log"):
            read_events(tmp_path / "absent.jsonl")


class TestServingConfig:
    def test_unbounded_needs_opt_in(self):
        with pytest.raises(ExperimentError, match="unbounded"):
            ServingConfig()

    def test_bad_bounds_rejected(self):
        with pytest.raises(ExperimentError):
            ServingConfig(max_requests=0)
        with pytest.raises(ExperimentError):
            ServingConfig(max_seconds=0.0)
        with pytest.raises(ExperimentError):
            ServingConfig(max_requests=10, time_scale=-1.0)

    @pytest.mark.parametrize(
        "scale", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]
    )
    def test_non_positive_or_non_finite_slo_scale_rejected(self, scale):
        with pytest.raises(ExperimentError, match="slo_scale"):
            ServingConfig(max_requests=10, slo_scale=scale)

    def test_workset_schedule_must_ascend(self):
        with pytest.raises(ExperimentError, match="ascend"):
            ServingConfig(
                max_requests=10, workset_schedule=((100, 2.0), (50, 3.0))
            )
        with pytest.raises(ExperimentError, match="scale"):
            ServingConfig(max_requests=10, workset_schedule=((5, 0.0),))


def small_config(**overrides):
    base = dict(
        source=ArrivalSpec(kind="poisson", rate_per_s=50.0),
        max_requests=200,
        samples=300,
        metrics_every=100,
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestServingLoop:
    def test_bounded_run_completes_everything(self):
        report = run_service(small_config())
        assert report.arrivals == report.completed == 200
        assert report.dropped == 0
        snap = report.snapshot
        for key in (
            "p50", "p95", "p99", "mean", "slo_attainment",
            "slo_attainment_windowed", "violation_rate",
            "mean_allocated_millicores", "total_millicore_cost",
            "miss_rate", "swaps",
        ):
            assert key in snap
        assert snap["completed"] == 200.0

    def test_run_is_deterministic(self):
        a = run_service(small_config())
        b = run_service(small_config())
        assert a.snapshot == b.snapshot  # bit-identical replay

    def test_events_cover_the_lifecycle(self):
        loop = ServingLoop(small_config(max_requests=50, metrics_every=25))
        asyncio.run(loop.run())
        kinds = [e["kind"] for e in loop.events.events]
        assert kinds[0] == "start" and kinds[-1] == "stop"
        assert kinds.count("arrival") == 50
        assert kinds.count("decision") == 50
        # Two periodic snapshots plus the final one.
        assert kinds.count("snapshot") == 3

    def test_requests_interleave(self):
        # Cooperative stage yields: with a multi-stage chain and
        # back-to-back arrivals, completions lag ingestion, so decision
        # events appear after later arrivals' events.
        loop = ServingLoop(small_config(max_requests=30))
        asyncio.run(loop.run())
        kinds = [e["kind"] for e in loop.events.events]
        first_decision = kinds.index("decision")
        assert "arrival" in kinds[first_decision:]

    def test_non_adaptive_policy_serves(self):
        report = run_service(small_config(policy="Optimal", max_requests=60))
        assert report.completed == 60 and report.swaps == 0
        assert report.snapshot["miss_rate"] == 0.0

    def test_dag_workflow_rejected(self):
        with pytest.raises(ExperimentError, match="chain"):
            ServingLoop(small_config(workflow="media"))

    def test_snapshot_before_any_completion_raises(self):
        loop = ServingLoop(small_config())
        with pytest.raises(ExperimentError, match="no completed"):
            loop.snapshot()

    def test_snapshot_is_internally_consistent(self):
        report = run_service(small_config(max_requests=200))
        snap = report.snapshot
        assert snap["min"] <= snap["p50"] <= snap["p99"] <= snap["max"]
        # The cost counters are exact aggregates, not estimates.
        assert snap["total_millicore_cost"] == pytest.approx(
            snap["mean_allocated_millicores"] * snap["completed"]
        )
        assert snap["violation_rate"] == pytest.approx(
            1.0 - snap["slo_attainment"]
        )


class TestServingParity:
    @pytest.mark.parametrize("policy", ["GrandSLAM", "Optimal"])
    def test_stages_match_run_request(self, policy):
        # The loop consumes the executor's scalar walk: with a
        # non-adaptive policy every served request gets exactly the sizes
        # and stage times AnalyticExecutor.run_request gives it.
        loop = ServingLoop(small_config(policy=policy, max_requests=80))
        served, outcomes = [], {}
        serve, on_complete = loop._serve, loop._on_complete

        async def record_request(request, rtt_ms=0.0):
            served.append(request)
            await serve(request, rtt_ms)

        def record_outcome(outcome):
            outcomes[outcome.request_id] = outcome
            on_complete(outcome)

        loop._serve = record_request
        loop._on_complete = record_outcome
        asyncio.run(loop.run())
        assert len(served) == len(outcomes) == 80
        executor = AnalyticExecutor(loop.workflow)

        def stages(outcome):
            return [
                (s.function, s.size, s.start_ms, s.end_ms)
                for s in outcome.stages
            ]

        for request in served:
            reference = executor.run_request(loop.policy, request)
            assert stages(outcomes[request.request_id]) == stages(reference)


DRIFT_CONFIG = dict(
    source=ArrivalSpec(kind="poisson", rate_per_s=50.0),
    max_requests=900,
    samples=400,
    metrics_every=300,
    workset_schedule=((300, 4.0),),
    miss_threshold=0.05,
    miss_window=200,
    min_samples=50,
    latency_window=256,
)


class TestOnlineAdaptation:
    def test_forced_drift_triggers_hot_swap(self, tmp_path):
        # The ISSUE acceptance test: a mid-run working-set drift must
        # trigger at least one hint hot-swap, visible in the JSONL event
        # log, with zero dropped requests.
        path = tmp_path / "drift.jsonl"
        report = run_service(
            ServingConfig(event_log=str(path), **DRIFT_CONFIG)
        )
        assert report.swaps >= 1
        assert report.arrivals == report.completed == 900
        assert report.dropped == 0
        swaps = read_events(path, kind="swap")
        assert len(swaps) == report.swaps
        # The swap happened while requests were mid-flight, and the drift
        # estimate points the right way (slower than profiled).
        assert any(s["in_flight"] >= 1 for s in swaps)
        assert all(
            ratio > 1.0
            for s in swaps
            for ratio in s["ratios"].values()
        )
        # After adaptation the recent window is healthy again.
        assert report.snapshot["miss_rate"] <= 0.05

    def test_adaptation_can_be_disabled(self):
        report = run_service(ServingConfig(adapt=False, **DRIFT_CONFIG))
        assert report.swaps == 0
        assert report.completed == 900  # still serves everything

    def test_drift_run_is_deterministic(self):
        a = run_service(ServingConfig(**DRIFT_CONFIG))
        b = run_service(ServingConfig(**DRIFT_CONFIG))
        assert a.snapshot == b.snapshot
        assert a.swaps == b.swaps


class TestServingFaults:
    def test_cluster_side_kinds_rejected(self):
        from repro.cluster.faults import parse_fault

        for token in ("preempt@2", "crash@5000", "straggler@0.25:3",
                      "contention"):
            with pytest.raises(ExperimentError, match="arrival-side"):
                small_config(faults=parse_fault(token))

    def test_storm_reshapes_the_source_and_logs_it(self):
        from repro.cluster.faults import parse_fault

        config = small_config(
            source=ArrivalSpec(kind="diurnal", rate_per_s=50.0),
            faults=parse_fault("storm@6"),
        )
        loop = ServingLoop(config)
        assert loop.effective_source.kind == "storm"
        assert loop.effective_source.storm_multiplier == 6.0
        asyncio_run(loop)
        faults = [e for e in loop.events.events if e["kind"] == "fault"]
        assert faults == [{
            "seq": faults[0]["seq"],
            "kind": "fault",
            "fault": "storm@x6~0.15",
            "fault_kind": "storm",
            "effective_source": loop.effective_source.label,
        }]

    def test_storm_run_is_deterministic_and_differs_from_clean(self):
        from repro.cluster.faults import parse_fault

        base = dict(source=ArrivalSpec(kind="diurnal", rate_per_s=50.0))
        clean = run_service(small_config(**base))
        stormy = run_service(
            small_config(**base, faults=parse_fault("storm@6"))
        )
        again = run_service(
            small_config(**base, faults=parse_fault("storm@6"))
        )
        assert stormy.snapshot == again.snapshot
        # The flash crowd compresses arrivals: same count, different times.
        assert stormy.completed == clean.completed == 200
        assert stormy.snapshot != clean.snapshot


def asyncio_run(loop):
    import asyncio

    return asyncio.run(loop.run())
