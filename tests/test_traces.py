"""Traces and workloads: arrivals, request streams, Azure-like trace,
diurnal rate curves, popularity mixes, and the trace-file subsystem."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.rng import make_rng
from repro.traces.azure import generate_trace, slack_analysis
from repro.traces.diurnal import DiurnalRate, nhpp_arrivals
from repro.traces.popularity import PopularityMix
from repro.traces.trace_file import (
    WorkloadTrace,
    cached_trace,
    generate_workload_trace,
    load_trace,
    replay_arrivals,
    save_trace,
    trace_from_requests,
)
from repro.traces.workload import ArrivalSpec, WorkloadConfig, generate_requests


def poisson(rate_per_s, n, rng):
    return ArrivalSpec(kind="poisson", rate_per_s=rate_per_s).timestamps(n, rng)


class TestArrivals:
    def test_poisson_rate(self):
        arr = poisson(10.0, 5000, make_rng(1))
        mean_gap = np.diff(np.concatenate(([0.0], arr))).mean()
        assert mean_gap == pytest.approx(100.0, rel=0.1)  # 10/s -> 100 ms

    def test_poisson_monotone(self):
        arr = poisson(5.0, 100, make_rng(2))
        assert np.all(np.diff(arr) >= 0)

    def test_poisson_invalid(self):
        with pytest.raises(TraceError):
            poisson(0.0, 10, make_rng(1))
        with pytest.raises(TraceError):
            poisson(1.0, 0, make_rng(1))

    def test_constant(self):
        arr = ArrivalSpec(kind="constant", interval_ms=50.0).timestamps(4, None)
        assert list(arr) == [0.0, 50.0, 100.0, 150.0]

    def test_constant_invalid(self):
        with pytest.raises(TraceError):
            ArrivalSpec(kind="constant", interval_ms=-1.0)

    def test_burst_mixture_faster_than_base(self):
        base = poisson(10.0, 4000, make_rng(3))
        bursty = ArrivalSpec(
            kind="burst", rate_per_s=10.0, burst_rate_per_s=100.0,
            burst_fraction=0.5,
        ).timestamps(4000, make_rng(3))
        assert bursty[-1] < base[-1]

    def test_burst_invalid(self):
        with pytest.raises(TraceError):
            ArrivalSpec(
                kind="burst", rate_per_s=1.0, burst_rate_per_s=2.0,
                burst_fraction=1.5,
            )


class TestWorkload:
    def test_deterministic(self, small_workflow):
        a = generate_requests(small_workflow, WorkloadConfig(n_requests=20), seed=7)
        b = generate_requests(small_workflow, WorkloadConfig(n_requests=20), seed=7)
        for ra, rb in zip(a, b):
            assert ra.stage_dynamics == rb.stage_dynamics

    def test_seed_sensitivity(self, small_workflow):
        a = generate_requests(small_workflow, WorkloadConfig(n_requests=5), seed=7)
        b = generate_requests(small_workflow, WorkloadConfig(n_requests=5), seed=8)
        assert a[0].stage_dynamics != b[0].stage_dynamics

    def test_carries_all_stage_dynamics(self, small_workflow):
        reqs = generate_requests(small_workflow, WorkloadConfig(n_requests=3))
        for req in reqs:
            assert set(req.stage_dynamics) == set(small_workflow.chain)

    def test_slo_defaults_to_workflow(self, small_workflow):
        req = generate_requests(small_workflow, WorkloadConfig(n_requests=1))[0]
        assert req.slo_ms == small_workflow.slo_ms

    def test_slo_override(self, small_workflow):
        cfg = WorkloadConfig(n_requests=1, slo_ms=123.0)
        assert generate_requests(small_workflow, cfg)[0].slo_ms == 123.0

    def test_poisson_arrivals_attached(self, small_workflow):
        cfg = WorkloadConfig(n_requests=50, arrival_rate_per_s=100.0)
        reqs = generate_requests(small_workflow, cfg, seed=4)
        arrivals = [r.arrival_ms for r in reqs]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0

    def test_interference_draw(self, small_workflow):
        cfg = WorkloadConfig(
            n_requests=10, interference=lambda rng: 1.0 + rng.random()
        )
        reqs = generate_requests(small_workflow, cfg, seed=4)
        qs = [d.interference for r in reqs for d in r.stage_dynamics.values()]
        assert all(q >= 1.0 for q in qs)
        assert max(qs) > 1.0

    def test_workset_scale(self, small_workflow):
        plain = generate_requests(small_workflow, WorkloadConfig(n_requests=10), seed=4)
        scaled = generate_requests(
            small_workflow, WorkloadConfig(n_requests=10, workset_scale=2.0), seed=4
        )
        for a, b in zip(plain, scaled):
            for f in small_workflow.chain:
                assert b.dynamics_for(f).workset == pytest.approx(
                    2.0 * a.dynamics_for(f).workset
                )

    def test_invalid_config(self):
        with pytest.raises(TraceError):
            WorkloadConfig(n_requests=0)
        with pytest.raises(TraceError):
            WorkloadConfig(workset_scale=0.0)


class TestDiurnalRate:
    def test_sinusoid_shape(self):
        curve = DiurnalRate.sinusoid(10.0, amplitude=0.5, period_s=100.0)
        assert curve.peak_rate == pytest.approx(15.0)
        assert curve.mean_rate == pytest.approx(10.0)
        # Quarter period is the sine peak; wraps periodically.
        assert curve.rate_at(25.0) == pytest.approx(15.0)
        assert curve.rate_at(125.0) == pytest.approx(15.0)
        assert curve.rate_at(75.0) == pytest.approx(5.0)

    def test_rate_at_vectorised(self):
        curve = DiurnalRate.sinusoid(10.0, amplitude=1.0, period_s=10.0)
        rates = curve.rate_at(np.linspace(0.0, 20.0, 50))
        assert rates.shape == (50,)
        assert rates.min() >= -1e-9 and rates.max() <= 20.0 + 1e-9

    def test_piecewise_steps_and_wrap(self):
        curve = DiurnalRate.piecewise(
            ((0.0, 10.0), (5.0, 100.0)), period_s=10.0
        )
        assert curve.peak_rate == 100.0
        assert curve.mean_rate == pytest.approx(55.0)
        np.testing.assert_allclose(
            curve.rate_at(np.array([0.0, 4.9, 5.0, 9.9, 10.0, 15.0])),
            [10.0, 10.0, 100.0, 100.0, 10.0, 100.0],
        )

    def test_piecewise_default_period(self):
        curve = DiurnalRate.piecewise(((0.0, 1.0), (30.0, 2.0)))
        assert curve.period_s == 60.0

    def test_invalid_curves(self):
        with pytest.raises(TraceError, match="amplitude"):
            DiurnalRate.sinusoid(10.0, amplitude=1.5)
        with pytest.raises(TraceError, match="DiurnalRate.base_rate_per_s"):
            DiurnalRate.sinusoid(0.0)
        with pytest.raises(TraceError, match="period"):
            DiurnalRate.sinusoid(10.0, period_s=0.0)
        with pytest.raises(TraceError, match="t=0"):
            DiurnalRate.piecewise(((1.0, 5.0),), period_s=10.0)
        with pytest.raises(TraceError, match="ascend"):
            DiurnalRate.piecewise(((0.0, 5.0), (0.0, 6.0)), period_s=10.0)
        with pytest.raises(TraceError, match="below the period"):
            DiurnalRate.piecewise(((0.0, 5.0), (10.0, 6.0)), period_s=10.0)
        with pytest.raises(TraceError, match="positive peak"):
            DiurnalRate.piecewise(((0.0, 0.0),), period_s=10.0)

    def test_nhpp_sorted_and_deterministic(self):
        curve = DiurnalRate.sinusoid(50.0, amplitude=0.8, period_s=10.0)
        a = nhpp_arrivals(curve, 2000, make_rng(3))
        b = nhpp_arrivals(curve, 2000, make_rng(3))
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0) and a[0] >= 0

    def test_nhpp_invalid_n(self):
        curve = DiurnalRate.sinusoid(10.0)
        with pytest.raises(TraceError, match="n must be > 0"):
            nhpp_arrivals(curve, 0, make_rng(1))


class TestPopularityMix:
    def test_weights_zipf_and_normalised(self):
        mix = PopularityMix(("IA", "VA", "media"), zipf_s=1.0)
        w = mix.weights()
        assert w.sum() == pytest.approx(1.0)
        assert w[0] > w[1] > w[2]
        assert w[0] / w[1] == pytest.approx(2.0)  # Zipf(1): rank ratio

    def test_share_and_unknown(self):
        mix = PopularityMix(("IA", "VA"), zipf_s=1.0)
        assert mix.share("IA") == pytest.approx(2.0 / 3.0)
        with pytest.raises(TraceError, match="unknown workflow"):
            mix.share("nope")

    def test_assign_deterministic_and_skewed(self):
        mix = PopularityMix(("IA", "VA"), zipf_s=1.0)
        a = mix.assign(4000, make_rng(7))
        b = mix.assign(4000, make_rng(7))
        np.testing.assert_array_equal(a, b)
        counts = np.bincount(a, minlength=2)
        assert counts[0] > counts[1]
        assert counts[0] / 4000 == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_map_ranks_round_robin(self):
        mix = PopularityMix(("IA", "VA"), zipf_s=0.9)
        np.testing.assert_array_equal(
            mix.map_ranks(np.array([0, 1, 2, 3, 4])), [0, 1, 0, 1, 0]
        )
        with pytest.raises(TraceError, match=">= 0"):
            mix.map_ranks(np.array([-1]))

    def test_invalid_mixes(self):
        with pytest.raises(TraceError, match=">= 1 workflow"):
            PopularityMix(())
        with pytest.raises(TraceError, match="duplicate"):
            PopularityMix(("IA", "IA"))
        with pytest.raises(TraceError, match="zipf"):
            PopularityMix(("IA",), zipf_s=0.0)


@pytest.fixture()
def small_trace():
    return generate_workload_trace(
        ("IA", "VA"), 200,
        arrival=ArrivalSpec(kind="diurnal", rate_per_s=20.0, period_s=5.0),
        zipf_s=1.0, seed=11, name="small",
    )


class TestTraceFile:
    def test_generate_is_deterministic(self, small_trace):
        again = generate_workload_trace(
            ("IA", "VA"), 200,
            arrival=ArrivalSpec(kind="diurnal", rate_per_s=20.0, period_s=5.0),
            zipf_s=1.0, seed=11, name="small",
        )
        assert again.digest() == small_trace.digest()
        assert again.to_jsonl() == small_trace.to_jsonl()

    def test_generate_records_independent_of_name(self, small_trace):
        # The name labels the trace (and lands in the header/digest); it
        # must not seed the records — renaming the output is not a new
        # workload.
        renamed = generate_workload_trace(
            ("IA", "VA"), 200,
            arrival=ArrivalSpec(kind="diurnal", rate_per_s=20.0, period_s=5.0),
            zipf_s=1.0, seed=11, name="other",
        )
        np.testing.assert_array_equal(
            renamed.arrival_ms, small_trace.arrival_ms
        )
        np.testing.assert_array_equal(
            renamed.workflow_ids, small_trace.workflow_ids
        )
        assert renamed.digest() != small_trace.digest()  # header differs

    def test_jsonl_round_trip_is_byte_identical(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        # The canonical serialisation round-trips byte-for-byte, so a
        # re-save produces the identical file.
        assert loaded.to_jsonl() == small_trace.to_jsonl()
        assert path.read_text() == small_trace.to_jsonl()
        save_trace(loaded, tmp_path / "t2.jsonl")
        assert (tmp_path / "t2.jsonl").read_bytes() == path.read_bytes()
        np.testing.assert_array_equal(
            loaded.arrival_ms, small_trace.arrival_ms
        )
        np.testing.assert_array_equal(
            loaded.workflow_ids, small_trace.workflow_ids
        )

    def test_csv_round_trip_digests_identically(self, small_trace, tmp_path):
        path = tmp_path / "t.csv"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        # The digest is over the canonical JSONL form, so both encodings
        # of one trace share it.
        assert loaded.digest() == small_trace.digest()
        assert loaded.counts_by_workflow() == small_trace.counts_by_workflow()

    def test_round_trip_preserves_durations_and_metadata(self, tmp_path):
        trace = WorkloadTrace(
            name="d",
            arrival_ms=np.array([0.0, 1.5, 3.25]),
            workflow_ids=np.array([0, 1, 0]),
            workflows=("IA", "VA"),
            durations_ms=np.array([12.5, 80.0, 7.125]),
            metadata={"source": "unit-test", "k": 3},
        )
        for suffix in ("jsonl", "csv"):
            path = tmp_path / f"t.{suffix}"
            save_trace(trace, path)
            loaded = load_trace(path)
            np.testing.assert_array_equal(
                loaded.durations_ms, trace.durations_ms
            )
            assert loaded.metadata == trace.metadata
            assert loaded.digest() == trace.digest()

    def test_replay_is_byte_identical(self, small_trace, tmp_path):
        # The acceptance loop: write -> load -> replay reproduces the
        # recorded arrivals exactly.
        path = tmp_path / "t.jsonl"
        save_trace(small_trace, path)
        replayed = replay_arrivals(load_trace(path), small_trace.n_records)
        np.testing.assert_array_equal(replayed, small_trace.arrival_ms)

    def test_replay_prefix_and_wraparound(self, small_trace):
        prefix = replay_arrivals(small_trace, 10)
        np.testing.assert_array_equal(prefix, small_trace.arrival_ms[:10])
        looped = replay_arrivals(small_trace, 3 * small_trace.n_records + 5)
        assert looped.size == 3 * small_trace.n_records + 5
        assert np.all(np.diff(looped) >= 0)
        # Wrapped passes repeat the gap structure, shifted by one period.
        gaps = np.diff(small_trace.arrival_ms)
        wrapped_gaps = np.diff(
            looped[small_trace.n_records : 2 * small_trace.n_records]
        )
        np.testing.assert_allclose(wrapped_gaps, gaps)

    def test_per_workflow_substream(self, small_trace):
        ia = small_trace.arrivals_for("IA")
        va = small_trace.arrivals_for("VA")
        assert ia.size + va.size == small_trace.n_records
        merged = np.sort(np.concatenate([ia, va]))
        np.testing.assert_array_equal(merged, small_trace.arrival_ms)
        with pytest.raises(TraceError, match="no records for workflow"):
            small_trace.arrivals_for("media")

    def test_unattributed_trace_serves_any_workflow(self):
        trace = WorkloadTrace(
            name="raw",
            arrival_ms=np.array([0.0, 1.0, 2.0]),
            workflow_ids=np.array([-1, -1, -1]),
        )
        np.testing.assert_array_equal(
            trace.arrivals_for("IA"), trace.arrival_ms
        )
        assert trace.counts_by_workflow() == {}

    def test_validation_rejects_malformed_traces(self):
        with pytest.raises(TraceError, match=">= 1 record"):
            WorkloadTrace("x", np.array([]), np.array([]))
        with pytest.raises(TraceError, match="non-decreasing"):
            WorkloadTrace("x", np.array([2.0, 1.0]), np.array([-1, -1]))
        with pytest.raises(TraceError, match="finite"):
            WorkloadTrace("x", np.array([-1.0]), np.array([-1]))
        with pytest.raises(TraceError, match="index the catalog"):
            WorkloadTrace(
                "x", np.array([0.0]), np.array([2]), workflows=("IA",)
            )
        with pytest.raises(TraceError, match="ids to be -1"):
            WorkloadTrace("x", np.array([0.0]), np.array([0]))
        with pytest.raises(TraceError, match="durations"):
            WorkloadTrace(
                "x", np.array([0.0, 1.0]), np.array([-1, -1]),
                durations_ms=np.array([1.0]),
            )

    def test_single_record_stream_cannot_wrap(self):
        trace = WorkloadTrace(
            name="one",
            arrival_ms=np.array([100.0]),
            workflow_ids=np.array([0]),
            workflows=("IA",),
        )
        np.testing.assert_array_equal(replay_arrivals(trace, 1), [100.0])
        # Tiling one timestamp would invent a simultaneous burst the
        # trace never recorded.
        with pytest.raises(TraceError, match="single-record stream"):
            replay_arrivals(trace, 5)

    def test_non_utf8_file_raises_trace_error(self, tmp_path):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00bogus")
        with pytest.raises(TraceError, match="not a UTF-8 text trace file"):
            load_trace(path)
        with pytest.raises(TraceError, match="not a UTF-8 text trace file"):
            cached_trace(path)

    def test_loader_rejects_bad_files(self, small_trace, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(missing)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError, match="empty trace file"):
            load_trace(empty)
        bad_header = tmp_path / "bad.jsonl"
        bad_header.write_text('{"not_a_trace": true}\n')
        with pytest.raises(TraceError, match="header"):
            load_trace(bad_header)
        # Truncation: drop the last record while the header still
        # declares the full count.
        truncated = tmp_path / "trunc.jsonl"
        lines = small_trace.to_jsonl().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="declares"):
            load_trace(truncated)
        future = tmp_path / "future.jsonl"
        future.write_text('{"janus_trace": 99, "n_records": 0}\n')
        with pytest.raises(TraceError, match="unsupported trace schema"):
            load_trace(future)

    def test_save_to_bare_filename(self, small_trace, tmp_path, monkeypatch):
        # atomic writes must cope with an empty dirname (cwd-relative
        # paths, the README idiom).
        monkeypatch.chdir(tmp_path)
        save_trace(small_trace, "bare.jsonl")
        assert load_trace("bare.jsonl").digest() == small_trace.digest()

    def test_cached_trace_sees_edits(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(small_trace, path)
        first = cached_trace(path)
        assert cached_trace(path) is first  # memoised
        edited = generate_workload_trace(
            ("IA", "VA"), 50,
            arrival=ArrivalSpec(kind="poisson", rate_per_s=5.0),
            seed=99, name="edited",
        )
        save_trace(edited, path)
        reloaded = cached_trace(path)
        assert reloaded.digest() == edited.digest()
        assert reloaded.digest() != first.digest()

    def test_cached_trace_keyed_by_content_not_stat(
        self, small_trace, tmp_path
    ):
        # A same-size rewrite inside one mtime tick must still be seen:
        # the memo keys on the file bytes, not the stat signature.
        import os

        path = tmp_path / "t.jsonl"
        save_trace(small_trace, path)
        stat = os.stat(path)
        first = cached_trace(path)
        text = path.read_text()
        assert "IA" in text
        path.write_text(text.replace('"IA"', '"XA"'))  # same byte length
        os.utime(path, ns=(stat.st_mtime_ns, stat.st_mtime_ns))
        reloaded = cached_trace(path)
        assert os.stat(path).st_size == stat.st_size
        assert reloaded.workflows != first.workflows
        assert "XA" in reloaded.workflows


class TestTraceRecording:
    def test_record_then_replay_requests(self, small_workflow):
        requests = generate_requests(
            small_workflow,
            WorkloadConfig(n_requests=25, arrival_rate_per_s=50.0),
            seed=3,
        )
        trace = trace_from_requests(requests, name="rec")
        assert trace.workflows == (small_workflow.name,)
        np.testing.assert_array_equal(
            replay_arrivals(trace, 25, small_workflow.name),
            np.array([r.arrival_ms for r in requests]),
        )

    def test_replay_spec_drives_generate_requests(
        self, small_workflow, tmp_path
    ):
        stream = generate_requests(
            small_workflow,
            WorkloadConfig(n_requests=20, arrival_rate_per_s=25.0),
            seed=5,
        )
        path = tmp_path / "rec.jsonl"
        save_trace(trace_from_requests(stream, name="rec"), path)
        replayed = generate_requests(
            small_workflow,
            WorkloadConfig(
                n_requests=20,
                arrival=ArrivalSpec(kind="replay", trace=str(path)),
            ),
            seed=999,  # arrivals come from the file, not the seed
        )
        assert [r.arrival_ms for r in replayed] == [
            r.arrival_ms for r in stream
        ]

    def test_untagged_requests_need_explicit_workflow(self, small_workflow):
        from repro.workflow.request import WorkflowRequest

        untagged = [
            WorkflowRequest(
                request_id=0, arrival_ms=0.0, slo_ms=100.0,
                stage_dynamics={"f": object()},
            )
        ]
        trace = trace_from_requests(untagged, name="raw")
        assert trace.workflows == ()
        tagged = trace_from_requests(untagged, workflow="IA")
        assert tagged.workflows == ("IA",)
        with pytest.raises(TraceError, match="empty request stream"):
            trace_from_requests([])

    def test_mixed_attribution_rejected(self, small_workflow):
        import dataclasses

        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=2), seed=1
        )
        mixed = [requests[0], dataclasses.replace(requests[1], workflow="")]
        with pytest.raises(TraceError, match="mixes workflow-tagged"):
            trace_from_requests(mixed)

    def test_workflow_override_fills_gaps_without_clobbering_tags(
        self, small_workflow
    ):
        # An explicit workflow= attributes only *untagged* requests; an
        # existing tag always wins, so recording a merged multi-workflow
        # stream can never silently collapse its popularity mix.
        import dataclasses

        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=2), seed=1
        )
        mixed = [requests[0], dataclasses.replace(requests[1], workflow="")]
        trace = trace_from_requests(mixed, workflow="other")
        assert trace.workflows == (small_workflow.name, "other")
        assert trace.counts_by_workflow() == {
            small_workflow.name: 1, "other": 1
        }


class TestAzureTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(n_functions=50, n_invocations=20_000, seed=1)

    def test_dimensions(self, trace):
        assert trace.n_invocations == 20_000
        assert trace.n_functions == 50
        assert trace.durations_ms.min() > 0

    def test_zipf_popularity(self, trace):
        counts = np.bincount(trace.function_ids, minlength=50)
        order = trace.popularity_order()
        assert counts[order[0]] >= counts[order[-1]]
        # Head dominance: top-10 functions carry most traffic.
        assert counts[order[:10]].sum() / counts.sum() > 0.5

    def test_reproducible(self):
        a = generate_trace(n_functions=10, n_invocations=1000, seed=3)
        b = generate_trace(n_functions=10, n_invocations=1000, seed=3)
        np.testing.assert_array_equal(a.durations_ms, b.durations_ms)

    def test_invalid_params(self):
        with pytest.raises(TraceError):
            generate_trace(n_functions=1)
        with pytest.raises(TraceError):
            generate_trace(n_functions=10, n_invocations=5)
        with pytest.raises(TraceError):
            generate_trace(zipf_s=0.0)

    def test_slack_analysis_shape(self, trace):
        analysis = slack_analysis(trace, top_k=10)
        # Paper Fig 1a headline: heavy over-provisioning under P99 SLOs.
        assert analysis.fraction_above(0.6, "all") > 0.6
        assert analysis.popular_traffic_share > 0.5
        # Slacks are bounded above by 1 and mostly positive.
        assert analysis.all_slacks.max() <= 1.0
        assert np.mean(analysis.all_slacks > 0) > 0.9

    def test_slack_cdf_monotone(self, trace):
        analysis = slack_analysis(trace, top_k=10)
        _, cdf = analysis.cdf("all")
        assert np.all(np.diff(cdf) >= 0)

    def test_slack_invalid_params(self, trace):
        with pytest.raises(TraceError):
            slack_analysis(trace, slo_percentile=100.0)
        with pytest.raises(TraceError):
            slack_analysis(trace, top_k=0)
