"""Experiment registry and reduced-scale integration runs.

Every registered experiment must run end-to-end at a small scale and
reproduce its paper artifact's qualitative claim.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import list_experiments, run_experiment
from repro.experiments import (
    ablation_resilience,
    fig1_interference,
    fig1_slack,
    fig1_worksets,
    fig2_motivation,
    fig5_resources,
    fig8_condensing,
    overhead,
    regeneration,
)

SAMPLES = 600  # reduced profiling scale for tests


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = {e for e, _ in list_experiments()}
        assert {"fig1a", "fig1b", "fig1c", "fig2", "fig4", "fig5", "fig6",
                "fig7", "table2", "fig8", "fig9", "overhead"} <= ids

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_run_experiment_renders_text(self):
        text = run_experiment("fig1b", samples=SAMPLES)
        assert "Fig 1b" in text


class TestFig1a:
    def test_shape(self):
        result = fig1_slack.run(n_functions=50, n_invocations=20_000)
        # Paper: >60% of invocations with slack above 0.6.
        assert result.frac_all_above_060 > 0.6
        assert 0 <= result.frac_popular_below_040 <= 0.5
        text = fig1_slack.render(result)
        assert "slack" in text


class TestFig1b:
    def test_variance_band(self):
        result = fig1_worksets.run(samples=SAMPLES)
        assert 1.5 <= result.max_ratio <= 4.5


class TestFig1c:
    def test_interference_ordering(self):
        result = fig1_interference.run(samples_per_level=60)
        finals = {name: series[-1] for name, series in result.series.items()}
        # Network-dominant worst, CPU-dominant best (paper Fig. 1c).
        assert finals["SocketComm"] == max(finals.values())
        assert finals["AES"] == min(finals.values())
        assert result.max_slowdown > 5.0

    def test_series_start_at_one(self):
        result = fig1_interference.run(max_colocated=3, samples_per_level=40)
        for series in result.series.values():
            assert series[0] == pytest.approx(1.0)


class TestFig2:
    def test_late_binding_saves_and_meets_slo(self):
        result = fig2_motivation.run(n_requests=40, samples=SAMPLES)
        assert result.max_cpu_reduction > 0.10
        assert result.late_violations <= 1


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5_resources.run(
            n_requests=250, samples=SAMPLES, concurrencies=(1,)
        )

    def test_policy_ordering_matches_table1(self, result):
        # Core Table I shape: Optimal <= Janus+ ~ Janus <= Janus- <= ORION
        # <= GrandSLAM family.
        for wf in ("IA", "VA"):
            norm = result.normalized((wf, 1))
            assert norm["Optimal"] == pytest.approx(1.0)
            assert norm["Janus"] <= norm["Janus-"] + 0.02
            assert norm["Janus-"] < norm["ORION"]
            assert norm["ORION"] < max(norm["GrandSLAM"], norm["GrandSLAM+"])

    def test_reductions_positive(self, result):
        for wf in ("IA", "VA"):
            reductions = result.reduction_table((wf, 1))
            for base in ("ORION", "GrandSLAM", "GrandSLAM+"):
                assert reductions[base] > 5.0  # percent of Optimal

    def test_janus_slo_compliance(self, result):
        for wf in ("IA", "VA"):
            res = result.panels[(wf, 1)]["Janus"]
            assert res.violation_rate <= 0.01 + 1e-9

    def test_render(self, result):
        text = fig5_resources.render(result)
        assert "Table I" in text and "Fig 5" in text


class TestFig8:
    def test_compression_and_weight_trend(self):
        result = fig8_condensing.run(
            weights=(1.0, 3.0), ia_concurrencies=(1,), samples=SAMPLES
        )
        for key, ratio in result.compression.items():
            assert ratio > 0.9, key
        assert result.counts[("IA", 1, 3.0)] <= result.counts[("IA", 1, 1.0)]
        assert result.counts[("VA", 1, 3.0)] <= result.counts[("VA", 1, 1.0)]


class TestOverhead:
    def test_decision_latency_under_paper_bound(self):
        result = overhead.run(n_requests=150, samples=SAMPLES)
        for wf, stats in result.decision_ms.items():
            assert stats["max"] < 3.0, wf  # paper §V-H bound
        assert all(v > 0 for v in result.table_bytes.values())

    def test_hit_rates_high(self):
        result = overhead.run(n_requests=150, samples=SAMPLES)
        assert all(rate >= 0.95 for rate in result.hit_rates.values())


class TestRegeneration:
    def test_drift_triggers_and_recovery(self):
        result = regeneration.run(
            workset_scale=4.0, n_requests=250, samples=SAMPLES
        )
        assert result.miss_rate_under_drift > result.miss_rate_before_drift
        assert result.regeneration_triggered
        assert result.miss_rate_after_regen < result.miss_rate_under_drift


class TestAblation:
    def test_runs_and_reports_both_variants(self):
        result = ablation_resilience.run(n_requests=150, samples=SAMPLES)
        variants = {(wf, v) for wf, v, _, _ in result.rows}
        assert ("IA", "with Eq.6") in variants
        assert ("VA", "without Eq.6") in variants


class TestExtensionExperiments:
    def test_dag_extension(self):
        from repro.experiments import extension_dag

        result = extension_dag.run(n_requests=150, samples=SAMPLES)
        by_name = {n: (cpu, viol) for n, cpu, _, viol in result.rows}
        assert by_name["Janus-DAG"][0] < by_name["GrandSLAM-DAG"][0]
        assert by_name["Janus-DAG"][1] <= 0.02
        assert "critical path" in extension_dag.render(result)

    def test_batching_extension(self):
        from repro.experiments import extension_batching

        result = extension_batching.run(
            rates_per_s=(5.0, 50.0), n_requests=120, samples=SAMPLES
        )
        janus_rows = [r for r in result.rows if r[0] == "Janus"]
        assert janus_rows[-1][2] > janus_rows[0][2]  # batches grow with rate
        assert "batching" in extension_batching.render(result)

    def test_registry_knows_extensions(self):
        ids = {e for e, _ in list_experiments()}
        assert {"ext-dag", "ext-batching", "regeneration",
                "ablation-resilience"} <= ids

    def test_strict_slo_extension(self):
        from repro.experiments import extension_strict_slo

        result = extension_strict_slo.run(n_requests=1500, samples=3000)
        by_anchor = {a: (viol, cpu) for a, viol, _, cpu in result.rows}
        # A stricter anchor trades some CPU for fewer violations.
        assert by_anchor["P99.9"][0] <= by_anchor["P99"][0]
        assert by_anchor["P99.9"][0] <= 0.001 + 1e-9  # P99.9 contract
        assert by_anchor["P99.9"][1] >= by_anchor["P99"][1] * 0.99

    def test_multitenant_extension(self):
        from repro.experiments import extension_multitenant

        result = extension_multitenant.run(n_requests=80, samples=SAMPLES)
        assert len(result.rows) == 2
        tenants = {row[0] for row in result.rows}
        assert tenants == {"tenant-ia", "tenant-va"}
        # Shared-cluster dynamics allow some tail violations, but the bulk
        # of traffic must meet the (loosened) SLOs.
        assert all(row[4] <= 0.10 for row in result.rows)

    def test_keepalive_extension(self):
        from repro.experiments import extension_keepalive

        result = extension_keepalive.run(
            ttls_ms=(0.0, 5000.0, None), n_requests=60, samples=SAMPLES
        )
        cold = [row[1] for row in result.rows]
        idle = [row[2] for row in result.rows]
        # Longer TTL: cold starts fall, idle reservation cost grows.
        assert cold[0] > cold[1] > cold[2]
        assert idle[0] <= idle[1] <= idle[2]
        assert "keep-alive" in extension_keepalive.render(result)


class TestRemainingArtifacts:
    """Reduced-scale smoke + shape for fig4/fig6/fig7/fig9/table2."""

    def test_fig4_all_panels_compliant(self):
        from repro.experiments import fig4_latency_cdf

        result = fig4_latency_cdf.run(
            n_requests=120, samples=SAMPLES, panels=[("IA", 1), ("VA", 1)]
        )
        for panel, results in result.panels.items():
            assert results["Janus"].violation_rate <= 0.02, panel
        assert "Fig 4" in fig4_latency_cdf.render(result)

    def test_fig6_janus_plus_tradeoff(self):
        from repro.experiments import fig6_percentile_exploration

        result = fig6_percentile_exploration.run(
            slos_s=(3.0, 4.0), n_requests=80, samples=SAMPLES
        )
        assert result.max_time_ratio > 2.0
        assert -5.0 <= result.mean_cpu_gain_pct <= 10.0  # small-sample noise

    def test_fig7_monotonicities(self):
        import numpy as np

        from repro.experiments import fig7_timeout_resilience

        result = fig7_timeout_resilience.run(samples=SAMPLES)
        d25 = result.timeout_by_percentile[25]
        d75 = result.timeout_by_percentile[75]
        assert np.all(d25 >= d75 - 1e-9)
        r1 = result.resilience_by_concurrency[1]
        assert abs(r1[-1]) < 1e-9

    def test_fig9_tight_slo_gains(self):
        from repro.experiments import fig9_slo

        result = fig9_slo.run(
            ia_slos_s=(3.0,), va_slos_s=(1.5,),
            n_requests=150, samples=SAMPLES,
        )
        for wf in ("IA", "VA"):
            tight = result.series[wf][min(result.series[wf])]
            assert tight["Janus"] < tight["GrandSLAM"]

    def test_table2_weight_direction(self):
        from repro.experiments import table2_weight

        result = table2_weight.run(
            slos_s=(3.0, 3.4, 3.8), n_requests=60, samples=SAMPLES
        )
        assert result.head_cpu[3.0] <= result.head_cpu[1.0] + 1e-9


class TestFaultedExperiments:
    """The fig7/ablation fault knobs, pinned against pre-refactor outputs.

    The parity goldens were captured on the commit *before* the faults
    knob existed, at exactly these arguments — the refactor must keep the
    default (fault-free) paths bit-identical. The ablation rows were
    regenerated when each stage's worksets and noise moved to streams of
    their own (1.4.0); fig7 draws no request stream and did not move.
    """

    FIG7_GOLDEN = (
        "f10ec4eb836183dc01fc3156831cab8ee8ac4bd54174aa3aeeed6af6cebf35b7"
    )
    ABLATION_GOLDEN = [
        ("IA", "with Eq.6", 0.013333333333333334, 3482.6666666666665),
        ("IA", "without Eq.6", 0.013333333333333334, 3485.3333333333335),
        ("VA", "with Eq.6", 0.0, 3411.3333333333335),
        ("VA", "without Eq.6", 0.0, 3411.3333333333335),
    ]

    @staticmethod
    def _fig7_digest(result):
        import hashlib
        import json

        payload = json.dumps({
            "k": [float(k) for k in result.k_grid],
            "t": {str(p): [float(x) for x in curve]
                  for p, curve in sorted(result.timeout_by_percentile.items())},
            "r": {str(c): [float(x) for x in curve]
                  for c, curve
                  in sorted(result.resilience_by_concurrency.items())},
        }, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def test_fig7_default_parity(self):
        from repro.experiments import fig7_timeout_resilience

        result = fig7_timeout_resilience.run(samples=SAMPLES)
        assert result.fault is None
        assert self._fig7_digest(result) == self.FIG7_GOLDEN

    def test_ablation_default_parity(self):
        result = ablation_resilience.run(n_requests=150, samples=SAMPLES)
        assert result.fault is None
        assert [tuple(row) for row in result.rows] == self.ABLATION_GOLDEN

    def test_fig7_straggler_scales_both_curve_families(self):
        import numpy as np

        from repro.experiments import fig7_timeout_resilience

        clean = fig7_timeout_resilience.run(samples=SAMPLES)
        slow = fig7_timeout_resilience.run(
            samples=SAMPLES, faults="straggler@0.25:3"
        )
        assert slow.fault == "straggler@0.25x3~5000/20000ms"
        for p, curve in clean.timeout_by_percentile.items():
            assert np.allclose(slow.timeout_by_percentile[p], curve * 3.0)
        for c, curve in clean.resilience_by_concurrency.items():
            assert np.allclose(slow.resilience_by_concurrency[c], curve * 3.0)
        assert "straggler" in fig7_timeout_resilience.render(slow)

    def test_fig7_contention_scales_by_cross_interference(self):
        import numpy as np

        from repro.cluster.interference import InterferenceModel
        from repro.experiments import fig7_timeout_resilience
        from repro.experiments.common import ia_setup

        clean = fig7_timeout_resilience.run(samples=SAMPLES)
        contended = fig7_timeout_resilience.run(
            samples=SAMPLES, faults="contention@0.5"
        )
        wf, _, _ = ia_setup(samples=SAMPLES)
        factor = InterferenceModel().cross_slowdown(
            wf.model("TS").dominant_resource, 1, 1, scale=0.5
        )
        assert factor > 1.0
        assert np.allclose(
            contended.timeout_by_percentile[50],
            clean.timeout_by_percentile[50] * factor,
        )

    def test_fig7_rejects_event_level_faults(self):
        from repro.experiments import fig7_timeout_resilience

        with pytest.raises(ExperimentError, match="event-level"):
            fig7_timeout_resilience.run(samples=SAMPLES, faults="preempt@2")

    def test_ablation_under_cluster_faults(self):
        from repro.cluster import ClusterConfig

        faulted = ablation_resilience.run(
            n_requests=60, samples=SAMPLES, faults="preempt@60:1000",
            cluster=ClusterConfig(n_vms=2, autoscale=False),
        )
        assert faulted.fault == "preempt@60/min~1000ms"
        assert [tuple(r) for r in faulted.rows] != self.ABLATION_GOLDEN
        again = ablation_resilience.run(
            n_requests=60, samples=SAMPLES, faults="preempt@60:1000",
            cluster=ClusterConfig(n_vms=2, autoscale=False),
        )
        assert faulted == again
        assert "under preempt" in ablation_resilience.render(faulted)

    def test_ablation_rejects_arrival_side_faults(self):
        with pytest.raises(ExperimentError, match="arrival"):
            ablation_resilience.run(
                n_requests=60, samples=SAMPLES, faults="storm@6"
            )
