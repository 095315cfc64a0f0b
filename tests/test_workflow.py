"""Workflow DAGs, specs, catalog, requests."""

import json

import pytest

from repro.errors import WorkflowError
from repro.functions.model import InvocationDynamics
from repro.workflow.catalog import Workflow, intelligent_assistant, video_analytics
from repro.workflow.chain import chain_dag
from repro.workflow.dag import WorkflowDAG
from repro.workflow.request import RequestOutcome, StageRecord, WorkflowRequest
from repro.workflow.spec import chain_spec, parse_spec
from tests.conftest import make_function


class TestDAG:
    def test_chain_properties(self):
        dag = chain_dag(["A", "B", "C"])
        assert dag.is_chain
        assert dag.as_chain() == ["A", "B", "C"]
        assert dag.sources() == ["A"] and dag.sinks() == ["C"]

    def test_single_node_is_chain(self):
        assert WorkflowDAG(["X"]).is_chain

    def test_cycle_rejected(self):
        with pytest.raises(WorkflowError, match="cycle"):
            WorkflowDAG(["A", "B"], [("A", "B"), ("B", "A")])

    def test_self_loop_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG(["A"], [("A", "A")])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG(["A", "A"])

    def test_empty_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG([])

    def test_unknown_edge_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG(["A"], [("A", "B")])

    def test_diamond_not_chain(self):
        dag = WorkflowDAG(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        assert not dag.is_chain
        with pytest.raises(WorkflowError):
            dag.as_chain()

    def test_critical_path_picks_heavier_branch(self):
        dag = WorkflowDAG(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        weights = {"A": 1.0, "B": 10.0, "C": 2.0, "D": 1.0}
        assert dag.critical_path(weights) == ["A", "B", "D"]

    def test_critical_path_missing_weight(self):
        dag = chain_dag(["A", "B"])
        with pytest.raises(WorkflowError):
            dag.critical_path({"A": 1.0})

    def test_topological_order(self):
        dag = WorkflowDAG(["C", "A", "B"], [("A", "B"), ("B", "C")])
        assert dag.nodes == ["A", "B", "C"]

    @pytest.mark.parametrize("name,order", [
        ("IA", ["OD", "QA", "TS"]),
        ("VA", ["FE", "ICL", "ICO"]),
        ("media", ["Ingest", "Vision", "Audio", "Publish"]),
    ])
    def test_catalog_orders_are_pinned(self, name, order):
        from repro.scenarios.registry import scenario_workflow

        assert scenario_workflow(name).dag.nodes == order

    def test_fan_out_orders_by_generation_not_depth(self):
        # Depth-first would give A, B, D, C, E; generation-wise Kahn frees
        # both branch heads before either tail.
        dag = WorkflowDAG(
            ["A", "B", "C", "D", "E"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "E")],
        )
        assert dag.nodes == ["A", "B", "C", "D", "E"]
        # Sources in node order, successors in edge order; edges list by
        # source in node order; predecessors in edge-insertion order.
        dag = WorkflowDAG(
            ["E", "D", "C", "B", "A"],
            [("A", "C"), ("A", "B"), ("C", "E"), ("B", "D"), ("D", "E")],
        )
        assert dag.nodes == ["A", "C", "B", "D", "E"]
        assert dag.edges == [
            ("D", "E"), ("C", "E"), ("B", "D"), ("A", "C"), ("A", "B"),
        ]
        assert dag.predecessors("E") == ["C", "D"]

    def test_successors_predecessors(self):
        dag = chain_dag(["A", "B", "C"])
        assert dag.successors("A") == ["B"]
        assert dag.predecessors("C") == ["B"]
        with pytest.raises(WorkflowError):
            dag.successors("Z")

    def test_subgraph(self):
        dag = chain_dag(["A", "B", "C"])
        sub = dag.subgraph(["B", "C"])
        assert sub.nodes == ["B", "C"] and sub.edges == [("B", "C")]

    def test_equality_and_hash(self):
        a, b = chain_dag(["A", "B"]), chain_dag(["A", "B"])
        assert a == b and hash(a) == hash(b)
        assert a != chain_dag(["A", "C"])

    def test_contains(self):
        assert "A" in chain_dag(["A"])


class TestSpec:
    def test_chain_roundtrip(self):
        doc = chain_spec(["OD", "QA", "TS"], comment="IA")
        dag = parse_spec(doc)
        assert dag.as_chain() == ["OD", "QA", "TS"]

    def test_parse_json_text(self):
        dag = parse_spec(json.dumps(chain_spec(["A", "B"])))
        assert dag.as_chain() == ["A", "B"]

    def test_invalid_json_rejected(self):
        with pytest.raises(WorkflowError, match="invalid JSON"):
            parse_spec("{not json")

    def test_missing_states_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec({"StartAt": "A"})

    def test_bad_startat_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec({"StartAt": "Z", "States": {"A": {"Type": "Task", "End": True}}})

    def test_dangling_next_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec(
                {"StartAt": "A",
                 "States": {"A": {"Type": "Task", "Next": "Missing"}}}
            )

    def test_state_without_next_or_end_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec({"StartAt": "A", "States": {"A": {"Type": "Task"}}})

    def test_parallel_fan_out_fan_in(self):
        doc = {
            "StartAt": "P",
            "States": {
                "P": {
                    "Type": "Parallel",
                    "Branches": [
                        {"StartAt": "B1",
                         "States": {"B1": {"Type": "Task", "End": True}}},
                        {"StartAt": "B2",
                         "States": {"B2": {"Type": "Task", "End": True}}},
                    ],
                    "Next": "Join",
                },
                "Join": {"Type": "Task", "End": True},
            },
        }
        dag = parse_spec(doc)
        assert set(dag.nodes) == {"B1", "B2", "Join"}
        assert ("B1", "Join") in dag.edges and ("B2", "Join") in dag.edges

    def test_empty_chain_spec_rejected(self):
        with pytest.raises(WorkflowError):
            chain_spec([])


class TestCatalog:
    def test_ia_defaults(self):
        wf = intelligent_assistant()
        assert wf.chain == ["OD", "QA", "TS"]
        assert wf.slo_ms == 3000.0
        assert wf.limits.kmin == 1000 and wf.limits.kmax == 3000

    def test_va_defaults(self):
        wf = video_analytics()
        assert wf.chain == ["FE", "ICL", "ICO"]
        assert wf.slo_ms == 1500.0
        assert wf.max_concurrency == 1

    def test_ia_concurrency_variant(self):
        wf = intelligent_assistant(slo_ms=4000.0, concurrency=2)
        assert wf.max_concurrency == 2

    def test_va_rejects_concurrency(self):
        # FE/ICO are not batchable.
        wf = video_analytics()
        with pytest.raises(WorkflowError):
            wf.with_concurrency(2)

    def test_with_slo(self):
        wf = intelligent_assistant().with_slo(5000.0)
        assert wf.slo_ms == 5000.0

    def test_missing_model_rejected(self):
        m = make_function("A")
        with pytest.raises(WorkflowError):
            Workflow(
                name="w", dag=chain_dag(["A", "B"]),
                functions={"A": m}, slo_ms=1000.0,
            )

    def test_extra_model_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow(
                name="w", dag=chain_dag(["A"]),
                functions={"A": make_function("A"), "B": make_function("B")},
                slo_ms=1000.0,
            )

    def test_model_lookup(self):
        wf = intelligent_assistant()
        assert wf.model("OD").name == "OD"
        with pytest.raises(WorkflowError):
            wf.model("nope")


class TestRequests:
    def _dyn(self):
        return InvocationDynamics(workset=1.0, noise_z=0.0)

    def test_stage_record_duration(self):
        rec = StageRecord("F", 1000, 10.0, 25.0)
        assert rec.execution_ms == 15.0

    def test_stage_record_invalid(self):
        with pytest.raises(WorkflowError):
            StageRecord("F", 1000, 10.0, 5.0)

    def test_request_validation(self):
        with pytest.raises(WorkflowError):
            WorkflowRequest(0, 0.0, -1.0, {"F": self._dyn()})
        with pytest.raises(WorkflowError):
            WorkflowRequest(0, 0.0, 100.0, {})
        with pytest.raises(WorkflowError):
            WorkflowRequest(0, 0.0, 100.0, {"F": self._dyn()}, concurrency=0)

    def test_dynamics_lookup(self):
        req = WorkflowRequest(0, 0.0, 100.0, {"F": self._dyn()})
        assert req.dynamics_for("F") == self._dyn()
        with pytest.raises(WorkflowError):
            req.dynamics_for("G")

    def test_outcome_metrics(self):
        out = RequestOutcome(
            request_id=1, arrival_ms=100.0, slo_ms=1000.0,
            stages=[
                StageRecord("A", 1000, 100.0, 400.0),
                StageRecord("B", 2000, 400.0, 900.0),
            ],
        )
        assert out.e2e_ms == 800.0
        assert out.slo_met
        assert out.slack == pytest.approx(0.2)
        assert out.allocated_millicores == 3000
        assert out.millicore_ms == pytest.approx(1000 * 300 + 2000 * 500)
        assert out.sizes() == [1000, 2000]
        assert set(out.stage_map()) == {"A", "B"}

    def test_outcome_violation(self):
        out = RequestOutcome(
            request_id=1, arrival_ms=0.0, slo_ms=100.0,
            stages=[StageRecord("A", 1000, 0.0, 150.0)],
        )
        assert not out.slo_met and out.slack < 0

    def test_empty_outcome(self):
        out = RequestOutcome(request_id=1, arrival_ms=0.0, slo_ms=100.0)
        assert out.e2e_ms == 0.0
