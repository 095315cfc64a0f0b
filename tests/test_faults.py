"""Chaos tests for the fault-injection subsystem.

The subsystem's headline claims, pinned here:

* ``(spec, seed, n_vms, horizon) -> schedule`` is a pure function — the
  bit-identical tuple from every process and backend (hypothesis).
* A faulted sweep stays bit-identical across the serial and pool
  backends and replays byte-identically from a warm :class:`CellCache`.
* Adding a ``faults=`` axis leaves fault-free cells' cache keys unchanged,
  and changing a fault spec cold-starts exactly the faulted cells.
* The DES platform realises each cluster-side kind deterministically and
  surfaces its accounting as per-policy extras; clean runs carry none of
  the fault keys, so pre-existing payloads stay byte-identical.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.cluster.faults import (
    CLUSTER_FAULT_KINDS,
    FAULT_KINDS,
    FaultSpec,
    compile_fault_schedule,
    parse_fault,
)
from repro.cluster.platform import ServerlessPlatform
from repro.errors import ClusterError, ExperimentError
from repro.policies.early_binding import FixedPlanPolicy
from repro.scenarios import (
    CellCache,
    ScenarioMatrix,
    SweepRunner,
    scenario_digest,
    storm_arrival,
)
from repro.traces.workload import ArrivalSpec, WorkloadConfig, generate_requests
from tests.conftest import make_chain_workflow

seeds = st.integers(min_value=0, max_value=2**31 - 1)
fleet_sizes = st.integers(min_value=1, max_value=12)
horizons = st.floats(min_value=5_000.0, max_value=180_000.0,
                     allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Spec parsing and validation
# ---------------------------------------------------------------------------
class TestFaultSpec:
    @pytest.mark.parametrize("token, kind, field, value", [
        ("preempt@2", "preempt", "rate_per_min", 2.0),
        ("preempt@2:750", "preempt", "recovery_ms", 750.0),
        ("crash@9000", "crash", "at_ms", 9000.0),
        ("storm@6", "storm", "multiplier", 6.0),
        ("storm@4:0.3", "storm", "window_fraction", 0.3),
        ("straggler@0.25:3", "straggler", "slowdown", 3.0),
        ("contention", "contention", "scale", 0.5),
        ("contention@0.8", "contention", "scale", 0.8),
    ])
    def test_parse_tokens(self, token, kind, field, value):
        spec = parse_fault(token)
        assert spec.kind == kind
        assert getattr(spec, field) == value

    @pytest.mark.parametrize("token", [
        "bogus@1",                # unknown kind
        "preempt@nope",           # non-numeric operand
        "preempt@0",              # rate must be > 0
        "preempt@2:-5",           # recovery must be > 0
        "crash@-1",               # crash time must be >= 0
        "storm@1",                # multiplier must be > 1
        "storm@6:1.5",            # window fraction in (0, 1]
        "straggler@0.25",         # wants FRACTION:SLOWDOWN
        "straggler@2:3",          # fraction in (0, 1]
        "straggler@0.25:1",       # slowdown must be > 1
        "contention@-0.5",        # scale must be >= 0
    ])
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(ClusterError):
            parse_fault(token)

    def test_every_kind_has_a_stable_label(self):
        for kind in FAULT_KINDS:
            spec = FaultSpec(kind=kind)
            assert spec.label.startswith(kind)
            # Labels key fault-seed derivation: equal specs, equal labels.
            assert spec.label == FaultSpec(kind=kind).label

    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError, match="unknown fault kind"):
            FaultSpec(kind="meteor")


# ---------------------------------------------------------------------------
# Schedule compilation (hypothesis)
# ---------------------------------------------------------------------------
class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n_vms=fleet_sizes, horizon=horizons,
           rate=st.floats(min_value=1.0, max_value=120.0),
           recovery=st.floats(min_value=100.0, max_value=20_000.0))
    def test_preempt_schedule_is_pure_and_well_formed(
        self, seed, n_vms, horizon, rate, recovery
    ):
        spec = FaultSpec(kind="preempt", rate_per_min=rate,
                         recovery_ms=recovery)
        schedule = compile_fault_schedule(spec, seed, n_vms, horizon)
        # Purity: recompiling yields the bit-identical tuple.
        assert schedule == compile_fault_schedule(spec, seed, n_vms, horizon)
        keys = [(ev.at_ms, ev.vm_id, ev.action) for ev in schedule]
        assert keys == sorted(keys)
        per_vm: dict[int, list] = {}
        for ev in schedule:
            assert 0 <= ev.vm_id < n_vms
            assert ev.cause == "preempt"
            per_vm.setdefault(ev.vm_id, []).append(ev)
        for events in per_vm.values():
            events.sort(key=lambda ev: (ev.at_ms, ev.action != "down"))
            # Clean alternation: every down is followed by its up exactly
            # recovery later, and the next down never lands inside it.
            assert [ev.action for ev in events] == (
                ["down", "up"] * (len(events) // 2)
            )
            for down, up in zip(events[::2], events[1::2]):
                assert up.at_ms == pytest.approx(down.at_ms + recovery)
            for up, nxt in zip(events[1::2], events[2::2]):
                assert nxt.at_ms >= up.at_ms
        assert all(
            ev.at_ms < horizon for ev in schedule if ev.action == "down"
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n_vms=fleet_sizes, horizon=horizons,
           at_ms=st.floats(min_value=0.0, max_value=240_000.0))
    def test_crash_schedule_is_one_event_or_none(
        self, seed, n_vms, horizon, at_ms
    ):
        spec = FaultSpec(kind="crash", at_ms=at_ms)
        schedule = compile_fault_schedule(spec, seed, n_vms, horizon)
        assert schedule == compile_fault_schedule(spec, seed, n_vms, horizon)
        if at_ms < horizon:
            (ev,) = schedule
            assert ev.action == "down" and ev.cause == "crash"
            assert ev.at_ms == at_ms and 0 <= ev.vm_id < n_vms
        else:
            assert schedule == ()

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n_vms=fleet_sizes, horizon=horizons,
           fraction=st.floats(min_value=0.05, max_value=1.0),
           slowdown=st.floats(min_value=1.5, max_value=10.0))
    def test_straggler_schedule_is_correlated_and_paired(
        self, seed, n_vms, horizon, fraction, slowdown
    ):
        spec = FaultSpec(kind="straggler", fraction=fraction,
                         slowdown=slowdown, duration_ms=3000.0,
                         interval_ms=8000.0)
        schedule = compile_fault_schedule(spec, seed, n_vms, horizon)
        assert schedule == compile_fault_schedule(spec, seed, n_vms, horizon)
        affected = {ev.vm_id for ev in schedule}
        if schedule:
            assert len(affected) == max(1, math.ceil(fraction * n_vms))
        slows = [ev for ev in schedule if ev.action == "slow"]
        unslows = [ev for ev in schedule if ev.action == "unslow"]
        assert len(slows) == len(unslows) == len(schedule) / 2
        assert all(ev.slowdown == slowdown for ev in slows)
        # Correlated: every episode hits every affected VM at the same
        # instant.
        episodes = {ev.at_ms for ev in slows}
        for start in episodes:
            assert {
                ev.vm_id for ev in slows if ev.at_ms == start
            } == affected

    @pytest.mark.parametrize("kind", ["contention", "storm"])
    def test_eventless_kinds_compile_empty(self, kind):
        spec = FaultSpec(kind=kind)
        assert compile_fault_schedule(spec, 7, 4, 60_000.0) == ()

    def test_degenerate_inputs_rejected(self):
        spec = FaultSpec(kind="preempt")
        with pytest.raises(ClusterError):
            compile_fault_schedule(spec, 0, 0, 60_000.0)
        with pytest.raises(ClusterError):
            compile_fault_schedule(spec, 0, 4, 0.0)


# ---------------------------------------------------------------------------
# Platform realisation of each cluster-side kind
# ---------------------------------------------------------------------------
def _faulted_run(faults, fault_seed=3, n_requests=40, rate=10.0, **config):
    wf = make_chain_workflow(slo_ms=8000.0)
    platform = ServerlessPlatform(
        wf,
        ClusterConfig(n_vms=2, vm_capacity_millicores=20_000,
                      autoscale=False, **config),
        faults=faults,
        fault_seed=fault_seed,
    )
    requests = generate_requests(
        wf, WorkloadConfig(n_requests=n_requests, arrival_rate_per_s=rate),
        seed=6,
    )
    policy = FixedPlanPolicy("fp", [1500, 1500, 1500])
    return platform, platform.run(policy, requests)


class TestPlatformFaults:
    def test_clean_run_carries_no_fault_extras(self):
        _, result = _faulted_run(None)
        assert not set(result.extras) & {
            "preemptions", "evictions", "retries", "straggler_exposure"
        }

    def test_preempt_counts_and_retries(self):
        spec = FaultSpec(kind="preempt", rate_per_min=240.0,
                         recovery_ms=500.0)
        platform, result = _faulted_run(spec)
        assert result.extras["preemptions"] > 0
        assert result.extras["retries"] > 0
        # Every outcome completed despite mid-flight kills.
        assert len(result.outcomes) == 40
        # Deterministic replay, stats included.
        _, again = _faulted_run(spec)
        assert result.extras == again.extras
        assert [o.e2e_ms for o in result.outcomes] == [
            o.e2e_ms for o in again.outcomes
        ]

    def test_preempted_invocations_pay_latency(self):
        spec = FaultSpec(kind="preempt", rate_per_min=240.0,
                         recovery_ms=500.0)
        _, clean = _faulted_run(None)
        _, faulted = _faulted_run(spec)
        mean = lambda res: sum(o.e2e_ms for o in res.outcomes) / len(res.outcomes)  # noqa: E731
        assert mean(faulted) > mean(clean)

    def test_crash_downs_one_vm_permanently(self):
        spec = FaultSpec(kind="crash", at_ms=500.0)
        platform, result = _faulted_run(spec)
        assert platform.fault_stats.crashes == 1
        assert len(result.outcomes) == 40  # the fleet's survivor absorbs it
        assert sum(1 for vm in platform.vms if not vm.up) == 1

    def test_crash_needs_a_survivor(self):
        wf = make_chain_workflow()
        with pytest.raises(ClusterError, match="survivor|n_vms|>= 2"):
            ServerlessPlatform(
                wf, ClusterConfig(n_vms=1), faults=FaultSpec(kind="crash")
            )

    def test_straggler_slows_exposed_invocations(self):
        spec = FaultSpec(kind="straggler", fraction=0.5, slowdown=3.0,
                         duration_ms=4000.0, interval_ms=2000.0)
        platform, result = _faulted_run(spec)
        assert result.extras["straggler_exposure"] > 0
        assert result.extras["preemptions"] == 0.0
        _, clean = _faulted_run(None)
        mean = lambda res: sum(o.e2e_ms for o in res.outcomes) / len(res.outcomes)  # noqa: E731
        assert mean(result) > mean(clean)
        _, again = _faulted_run(spec)
        assert result.extras == again.extras

    def test_contention_perturbs_colocated_functions(self):
        spec = FaultSpec(kind="contention", scale=1.0)
        _, clean = _faulted_run(None, rate=40.0)
        _, faulted = _faulted_run(spec, rate=40.0)
        mean = lambda res: sum(o.e2e_ms for o in res.outcomes) / len(res.outcomes)  # noqa: E731
        assert mean(faulted) > mean(clean)
        _, again = _faulted_run(spec, rate=40.0)
        assert [o.e2e_ms for o in faulted.outcomes] == [
            o.e2e_ms for o in again.outcomes
        ]

    def test_storm_is_not_a_platform_kind(self):
        wf = make_chain_workflow()
        with pytest.raises(ClusterError, match="arrival-side"):
            ServerlessPlatform(
                wf, ClusterConfig(n_vms=2), faults=FaultSpec(kind="storm")
            )


# ---------------------------------------------------------------------------
# Scenario axis: validation, CRN seeds, digest separation
# ---------------------------------------------------------------------------
CLUSTER = ClusterConfig(n_vms=2, autoscale=False)


def _matrix(**kwargs):
    base = dict(
        workflows=("IA",),
        arrivals=(ArrivalSpec("poisson", 8.0),),
        slo_scales=(1.0,),
        policies=("GrandSLAM", "Janus"),
        executors=("cluster",),
        cluster=CLUSTER,
        n_requests=30,
        samples=120,
        seed=17,
    )
    base.update(kwargs)
    return ScenarioMatrix(**base)


class TestFaultAxis:
    def test_len_multiplies_and_ids_are_suffixed(self):
        matrix = _matrix(faults=(None, parse_fault("preempt@30")))
        assert len(matrix) == 2 * len(_matrix())
        ids = [s.scenario_id for s in matrix.expand()]
        assert sum("/faults preempt@" in sid for sid in ids) == 1

    def test_fault_axis_shares_workload_seeds(self):
        # Common random numbers: the faulted cell replays its clean
        # sibling's exact request stream, so differences are the fault's.
        cells = _matrix(faults=(None, parse_fault("preempt@30"))).expand()
        assert cells[0].seed == cells[1].seed
        assert cells[0].profile_seed == cells[1].profile_seed

    def test_clean_cell_digest_unchanged_by_axis(self):
        without = _matrix().expand()[0]
        with_axis = _matrix(
            faults=(None, parse_fault("preempt@30"))
        ).expand()[0]
        assert with_axis.faults is None
        assert scenario_digest(without) == scenario_digest(with_axis)

    def test_fault_digests_are_distinct(self):
        cells = _matrix(faults=(
            None,
            parse_fault("preempt@30"),
            parse_fault("preempt@30:2000"),
            parse_fault("straggler@0.5:3"),
        )).expand()
        digests = [scenario_digest(c) for c in cells]
        assert len(set(digests)) == len(digests)

    def test_cluster_kind_needs_cluster_executor(self):
        with pytest.raises(ExperimentError, match="faults"):
            ScenarioMatrix(
                workflows=("IA",),
                arrivals=(ArrivalSpec("poisson", 8.0),),
                policies=("Janus",),
                faults=(parse_fault("preempt@30"),),
                n_requests=30,
                samples=120,
            )

    def test_crash_needs_two_vms_at_matrix_level(self):
        with pytest.raises((ExperimentError, ClusterError)):
            _matrix(
                cluster=ClusterConfig(n_vms=1, autoscale=False),
                faults=(parse_fault("crash@500"),),
            )

    def test_storm_runs_on_analytic_cells(self):
        matrix = ScenarioMatrix(
            workflows=("IA",),
            arrivals=(ArrivalSpec("poisson", 8.0),),
            policies=("Janus",),
            faults=(parse_fault("storm@6"),),
            n_requests=30,
            samples=120,
        )
        (cell,) = matrix.expand()
        assert cell.effective_arrival().kind == "storm"
        assert cell.arrival.kind == "poisson"

    def test_storm_needs_a_rate_shaped_base(self):
        with pytest.raises(ExperimentError):
            storm_arrival(ArrivalSpec("constant"), parse_fault("storm@6"))
        with pytest.raises(ExperimentError):
            ScenarioMatrix(
                workflows=("IA",),
                arrivals=(ArrivalSpec("constant"),),
                policies=("Janus",),
                faults=(parse_fault("storm@6"),),
                n_requests=30,
                samples=120,
            )

    def test_empty_fault_axis_rejected(self):
        with pytest.raises(ExperimentError):
            _matrix(faults=())


# ---------------------------------------------------------------------------
# Sweep determinism and cache behaviour (the acceptance criteria)
# ---------------------------------------------------------------------------
FAULTS_AXIS = (
    None,
    parse_fault("preempt@60:1000"),
    parse_fault("straggler@0.5:3"),
)


@pytest.fixture(scope="module")
def faulted_matrix():
    return _matrix(
        arrivals=(ArrivalSpec("poisson", 8.0), ArrivalSpec("poisson", 20.0)),
        faults=FAULTS_AXIS,
    )


@pytest.fixture(scope="module")
def serial_report(faulted_matrix):
    return SweepRunner(max_workers=1, backend="serial").run(faulted_matrix)


class TestFaultedSweep:
    def test_three_axis_sweep_shape(self, faulted_matrix, serial_report):
        assert len(faulted_matrix) == 6  # 2 arrivals x 3 faults
        assert serial_report.num_cells == 6

    def test_bit_identical_across_all_backends(
        self, faulted_matrix, serial_report
    ):
        pooled = SweepRunner(max_workers=2, backend="pool").run(faulted_matrix)
        assert pooled.to_json() == serial_report.to_json()

    def test_faulted_extras_deterministic_and_clean_cells_bare(
        self, faulted_matrix, serial_report
    ):
        again = SweepRunner(max_workers=1, backend="serial").run(faulted_matrix)
        assert again.to_json() == serial_report.to_json()
        for res in serial_report.results:
            has_fault_keys = {
                "preemptions", "retries", "straggler_exposure"
            } <= set(res.extras["Janus"])
            assert has_fault_keys == ("/faults " in res.scenario_id)

    def test_faults_change_results(self, serial_report):
        by_id = {r.scenario_id: r for r in serial_report.results}
        clean = next(
            r for sid, r in by_id.items() if "/faults" not in sid
        )
        preempted = next(
            r for sid, r in by_id.items()
            if "/faults preempt" in sid and r.arrival == clean.arrival
        )
        assert preempted.table != clean.table

    def test_warm_cache_replay_is_byte_identical(
        self, faulted_matrix, serial_report, tmp_path
    ):
        cold = SweepRunner(
            max_workers=1, backend="serial", cache_dir=tmp_path
        ).run(faulted_matrix)
        assert cold.cell_cache == {"hits": 0, "misses": 6}
        warm = SweepRunner(
            max_workers=1, backend="serial", cache_dir=tmp_path
        ).run(faulted_matrix)
        assert warm.cell_cache == {"hits": 6, "misses": 0}
        assert warm.to_json() == cold.to_json() == serial_report.to_json()

    def test_fault_spec_change_cold_starts_only_faulted_cells(
        self, faulted_matrix, tmp_path
    ):
        SweepRunner(
            max_workers=1, backend="serial", cache_dir=tmp_path
        ).run(faulted_matrix)
        changed = _matrix(
            arrivals=(ArrivalSpec("poisson", 8.0),
                      ArrivalSpec("poisson", 20.0)),
            faults=(
                None,
                parse_fault("preempt@60:2000"),  # recovery changed
                parse_fault("straggler@0.5:3"),  # unchanged
            ),
        )
        report = SweepRunner(
            max_workers=1, backend="serial", cache_dir=tmp_path
        ).run(changed)
        # 2 clean + 2 straggler cells stay warm; 2 preempt cells re-run.
        assert report.cell_cache == {"hits": 4, "misses": 2}

    def test_cache_lookup_discriminates_fault_cells(
        self, faulted_matrix, tmp_path
    ):
        cache = CellCache(tmp_path)
        cells = faulted_matrix.expand()
        assert all(cache.lookup(cell) is None for cell in cells)
