"""Edge-path coverage: CLI failure modes, config corners, result extras."""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import SynthesisError
from repro.policies.janus import janus
from repro.runtime.batching import BatchingExecutor
from repro.runtime.executor import AnalyticExecutor
from repro.synthesis.generator import SynthesisConfig, HintSynthesizer
from repro.synthesis.budget import budget_range_for_chain
from repro.synthesis.dp import ChainDP
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.workflow.catalog import Workflow
from repro.workflow.dag import WorkflowDAG
from tests.conftest import make_chain_workflow, make_function, small_limits


class TestCliFailureModes:
    def test_synthesize_missing_profile_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main([
                "synthesize", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "h.json"),
            ])

    def test_inspect_missing_hints_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["inspect", str(tmp_path / "nope.json")])

    def test_synthesize_unknown_chain_function(self, tmp_path, cli_error):
        from repro.profiling.io import load_profile_set, save_profile_set

        prof = tmp_path / "p.json"
        from tests.test_profiling import make_profile
        from repro.profiling.profiles import ProfileSet

        save_profile_set(ProfileSet({"A": make_profile("A")}), str(prof))
        from repro.errors import ProfileError

        with pytest.raises(ProfileError) as want:
            load_profile_set(str(prof))["Missing"]
        assert cli_error([
            "synthesize", str(prof), "--chain", "A,Missing",
            "--out", str(tmp_path / "h.json"),
        ]) == str(want.value)


class TestClampAboveConfig:
    def test_strict_tables_miss_above_range(self, small_profiles):
        chain = ["F0", "F1", "F2"]
        budget = budget_range_for_chain([small_profiles[f] for f in chain])
        synth = HintSynthesizer(
            small_profiles, chain, SynthesisConfig(clamp_above=False)
        )
        hints = synth.synthesize(budget)
        table = hints.tables[0]
        assert not table.lookup(table.tmax_ms + 1).hit
        # Default configuration clamps instead.
        default = HintSynthesizer(small_profiles, chain).synthesize(budget)
        assert default.tables[0].lookup(table.tmax_ms + 1).hit


class TestCriticalPathChain:
    def test_non_chain_workflow_chain_property(self):
        dag = WorkflowDAG(
            ["A", "B", "C"], [("A", "B"), ("A", "C")]
        )
        functions = {
            "A": make_function("A", serial=10, parallel=100),
            "B": make_function("B", serial=10, parallel=900),  # heavy
            "C": make_function("C", serial=10, parallel=50),
        }
        wf = Workflow(
            name="fanout", dag=dag, functions=functions,
            slo_ms=10_000.0, limits=small_limits(),
        )
        assert wf.chain == ["A", "B"]  # latency-dominant branch


class TestBatchBoundary:
    def test_arrival_exactly_at_window_close_joins(self):
        wf = make_chain_workflow(slo_ms=5000.0).with_concurrency(2)
        executor = BatchingExecutor(wf, max_batch=2, max_wait_ms=100.0)
        reqs = generate_requests(wf, WorkloadConfig(n_requests=2), seed=1)
        # Force arrivals: second exactly at the first's window close.
        reqs[0].arrival_ms = 0.0
        reqs[1].arrival_ms = 100.0
        batches = executor.form_batches(reqs)
        assert [len(b) for b in batches] == [2]

    def test_arrival_after_window_close_splits(self):
        wf = make_chain_workflow(slo_ms=5000.0).with_concurrency(2)
        executor = BatchingExecutor(wf, max_batch=2, max_wait_ms=100.0)
        reqs = generate_requests(wf, WorkloadConfig(n_requests=2), seed=1)
        reqs[0].arrival_ms = 0.0
        reqs[1].arrival_ms = 100.1
        batches = executor.form_batches(reqs)
        assert [len(b) for b in batches] == [1, 1]


class TestRunResultExtras:
    def test_janus_extras_propagate(self, small_workflow, small_profiles):
        policy = janus(small_workflow, small_profiles)
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=30), seed=2
        )
        result = AnalyticExecutor(small_workflow).run(policy, requests)
        assert "hit_rate" in result.extras
        assert "synthesis_seconds" in result.extras
        assert 0.0 <= result.extras["hit_rate"] <= 1.0

    def test_slacks_match_outcomes(self, small_workflow, small_profiles):
        policy = janus(small_workflow, small_profiles)
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=20), seed=3
        )
        result = AnalyticExecutor(small_workflow).run(policy, requests)
        np.testing.assert_allclose(
            result.slacks(), 1.0 - result.e2e_ms() / small_workflow.slo_ms
        )


class TestSynthesisConfigEdges:
    def test_head_only_on_two_function_chain(self, small_profiles):
        # Janus+ on a 2-chain degenerates to head-only (next is the last
        # function and must stay anchored).
        from repro.synthesis.generator import HeadExploration, synthesize_hints

        chain = ["F0", "F1"]
        j = synthesize_hints(
            small_profiles, chain, exploration=HeadExploration.HEAD_ONLY
        )
        jp = synthesize_hints(
            small_profiles, chain, exploration=HeadExploration.HEAD_PLUS_NEXT
        )
        for ta, tb in zip(j.tables, jp.tables):
            assert ta.rows() == tb.rows()

    def test_single_stage_workflow_hints(self, small_profiles):
        from repro.synthesis.generator import synthesize_hints

        hints = synthesize_hints(small_profiles, ["F1"])
        assert hints.num_stages == 1
        assert hints.compression_ratio > 0.5
