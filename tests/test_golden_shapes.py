"""Golden regression tests: seed-pinned end-to-end ComparisonReport numbers.

These pin *exact* floats for one chain and one DAG evaluation, so any
refactor of the serving hot path (executors, sim kernel, synthesis, RNG
derivation) that changes behaviour — even in the last bit — fails loudly.
Qualitative assertions live elsewhere; this file is deliberately brittle.

If a change is *meant* to alter results (new policy logic, different
seeding), regenerate the tables with the expressions in each test and
justify the diff in the PR.
"""

import pytest

from repro.api.session import Session
from repro.scenarios.registry import scenario_workflow

#: Session.evaluate(scenario_workflow("IA"), slo_ms=3000, requests=40,
#: samples=400, seed=123, include=(...)) — exact table, pinned.
GOLDEN_CHAIN = {
    "Optimal": {
        "mean_allocated_millicores": 3040.0,
        "mean_slack": 0.11681906757998142,
        "normalized_cpu": 1.0,
        "p50_e2e_ms": 2706.5183433397915,
        "p99_e2e_ms": 2991.058705449346,
        "violation_rate": 0.0,
    },
    "ORION": {
        "mean_allocated_millicores": 4200.0,
        "mean_slack": 0.3178702383163934,
        "normalized_cpu": 1.381578947368421,
        "p50_e2e_ms": 2064.662627486091,
        "p99_e2e_ms": 2536.9945000934727,
        "violation_rate": 0.0,
    },
    "GrandSLAM": {
        "mean_allocated_millicores": 4500.0,
        "mean_slack": 0.35388165775705405,
        "normalized_cpu": 1.480263157894737,
        "p50_e2e_ms": 1955.9310371716315,
        "p99_e2e_ms": 2420.530969812797,
        "violation_rate": 0.0,
    },
    "Janus": {
        "mean_allocated_millicores": 3517.5,
        "mean_slack": 0.1998271606000264,
        "normalized_cpu": 1.1570723684210527,
        "p50_e2e_ms": 2443.1587648189943,
        "p99_e2e_ms": 2902.0302116651364,
        "violation_rate": 0.0,
    },
}

#: Session.evaluate(scenario_workflow("media"), requests=30, samples=400,
#: seed=123, include=("GrandSLAM", "Janus")) — exact table, pinned.
GOLDEN_DAG = {
    "GrandSLAM": {
        "mean_allocated_millicores": 4400.0,
        "mean_slack": 0.41677338419380755,
        "normalized_cpu": 1.0,
        "p50_e2e_ms": 1258.2818906108555,
        "p99_e2e_ms": 1902.8397516603884,
        "violation_rate": 0.0,
    },
    "Janus": {
        "mean_allocated_millicores": 4000.0,
        "mean_slack": 0.36862940934093597,
        "normalized_cpu": 0.9090909090909091,
        "p50_e2e_ms": 1361.666030652981,
        "p99_e2e_ms": 2060.481043223871,
        "violation_rate": 0.0,
    },
}


def _assert_exact(actual: dict, golden: dict) -> None:
    assert list(actual) == list(golden), "policy set or order drifted"
    for policy, golden_row in golden.items():
        row = actual[policy]
        assert set(row) == set(golden_row), policy
        for metric, value in golden_row.items():
            assert row[metric] == value, (
                f"{policy}.{metric}: got {row[metric]!r}, pinned {value!r}"
            )


class TestGoldenChain:
    @pytest.fixture(scope="class")
    def report(self):
        return Session.evaluate(
            scenario_workflow("IA"), slo_ms=3000.0, requests=40,
            samples=400, seed=123,
            include=("Optimal", "ORION", "GrandSLAM", "Janus"),
        )

    def test_exact_table(self, report):
        _assert_exact(report.table, GOLDEN_CHAIN)

    def test_metadata(self, report):
        assert report.topology == "chain"
        assert report.baseline == "Optimal"
        assert report.executor == "AnalyticExecutor"


class TestGoldenDag:
    @pytest.fixture(scope="class")
    def report(self):
        return Session.evaluate(
            scenario_workflow("media"), requests=30, samples=400, seed=123,
            include=("GrandSLAM", "Janus"),
        )

    def test_exact_table(self, report):
        _assert_exact(report.table, GOLDEN_DAG)

    def test_metadata(self, report):
        assert report.topology == "dag"
        assert report.executor == "DagAnalyticExecutor"
