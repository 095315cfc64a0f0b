"""Property-based tests for the DAG extension on random layered DAGs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError, WorkflowError
from repro.policies.dag import DagFixedPolicy
from repro.runtime.dag_executor import DagAnalyticExecutor
from repro.synthesis.dag import downstream_chain
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.workflow.catalog import Workflow
from repro.workflow.dag import WorkflowDAG
from tests.conftest import make_function, small_limits


@st.composite
def layered_dags(draw):
    """A random layered DAG: 2-4 layers of 1-3 nodes, edges between
    consecutive layers (every node reachable, no orphans)."""
    n_layers = draw(st.integers(min_value=2, max_value=4))
    layers = [
        [f"L{i}N{j}" for j in range(draw(st.integers(min_value=1, max_value=3)))]
        for i in range(n_layers)
    ]
    nodes = [n for layer in layers for n in layer]
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        # Every lower node gets at least one parent; every upper node at
        # least one child (choose uniformly).
        for child in lower:
            parent = draw(st.sampled_from(upper))
            edges.append((parent, child))
        for parent in upper:
            if not any(e[0] == parent for e in edges):
                child = draw(st.sampled_from(lower))
                edges.append((parent, child))
    return WorkflowDAG(nodes, sorted(set(edges)))


@st.composite
def arbitrary_dags(draw):
    """Node list in arbitrary order plus forward edges (w.r.t. a hidden
    rank) in arbitrary order, duplicates included."""
    n = draw(st.integers(min_value=2, max_value=8))
    rank = draw(st.permutations([f"n{i}" for i in range(n)]))
    nodes = draw(st.permutations(rank))
    pairs = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 2),
            st.integers(min_value=1, max_value=n - 1),
        ).filter(lambda ab: ab[0] < ab[1]),
        max_size=3 * n,
    )
    return nodes, [(rank[a], rank[b]) for a, b in draw(pairs)]


def brute_force_heaviest_path(dag, start, weights):
    """Enumerate all paths from `start`; return the max total weight."""
    best = 0.0

    def walk(node, acc):
        nonlocal best
        acc += weights[node]
        succs = dag.successors(node)
        if not succs:
            best = max(best, acc)
        for s in succs:
            walk(s, acc)

    walk(start, 0.0)
    return best


class TestTopologicalOrderProperties:
    @given(arbitrary_dags())
    @settings(max_examples=200, deadline=None)
    def test_nodes_are_a_topological_order(self, drawn):
        nodes, edges = drawn
        dag = WorkflowDAG(nodes, edges)
        order = dag.nodes
        assert sorted(order) == sorted(nodes)
        position = {name: i for i, name in enumerate(order)}
        assert all(position[u] < position[v] for u, v in edges)
        # Generation 0: the sources, in the order the nodes were given.
        sources = [v for v in nodes if not any(e[1] == v for e in edges)]
        assert order[: len(sources)] == sources
        # Predecessors keep first-insertion edge order (critical_path
        # breaks ties on it).
        for v in nodes:
            firsts = list(dict.fromkeys(u for u, w in edges if w == v))
            assert dag.predecessors(v) == firsts

    @given(arbitrary_dags())
    @settings(max_examples=50, deadline=None)
    def test_back_edge_is_a_cycle(self, drawn):
        nodes, edges = drawn
        if not edges:
            return
        u, v = edges[0]
        with pytest.raises(WorkflowError, match="cycle"):
            WorkflowDAG(nodes, edges + [(v, u)])


class TestDownstreamChainProperties:
    @given(layered_dags())
    @settings(max_examples=40, deadline=None)
    def test_chain_is_heaviest_path(self, dag):
        weights = {n: 10.0 + 7.0 * i for i, n in enumerate(dag.nodes)}
        for start in dag.nodes:
            chain = downstream_chain(dag, start, weights)
            assert chain[0] == start
            # It is a real path in the DAG...
            for a, b in zip(chain, chain[1:]):
                assert b in dag.successors(a)
            # ...and its weight equals the brute-force maximum.
            total = sum(weights[n] for n in chain)
            assert total == pytest.approx(
                brute_force_heaviest_path(dag, start, weights)
            )

    @given(layered_dags())
    @settings(max_examples=20, deadline=None)
    def test_sink_chains_are_singletons(self, dag):
        weights = {n: 1.0 for n in dag.nodes}
        for sink in dag.sinks():
            assert downstream_chain(dag, sink, weights) == [sink]


class TestDagExecutorProperties:
    def _workflow(self, dag):
        functions = {
            n: make_function(n, serial=20 + 5 * i, parallel=100 + 10 * i,
                             sigma=0.05, gamma=0.0)
            for i, n in enumerate(dag.nodes)
        }
        return Workflow(
            name="rand", dag=dag, functions=functions,
            slo_ms=60_000.0, limits=small_limits(),
        )

    @given(layered_dags())
    @settings(max_examples=25, deadline=None)
    def test_start_times_respect_dependencies(self, dag):
        wf = self._workflow(dag)
        request = generate_requests(wf, WorkloadConfig(n_requests=1), seed=3)[0]
        policy = DagFixedPolicy("f", {n: 1500 for n in dag.nodes})
        outcome = DagAnalyticExecutor(wf).run_request(policy, request)
        by_name = outcome.stage_map()
        for u, v in dag.edges:
            assert by_name[v].start_ms >= by_name[u].end_ms - 1e-9

    @given(layered_dags())
    @settings(max_examples=25, deadline=None)
    def test_e2e_equals_latest_sink(self, dag):
        wf = self._workflow(dag)
        request = generate_requests(wf, WorkloadConfig(n_requests=1), seed=5)[0]
        policy = DagFixedPolicy("f", {n: 2000 for n in dag.nodes})
        outcome = DagAnalyticExecutor(wf).run_request(policy, request)
        by_name = outcome.stage_map()
        latest_sink = max(by_name[s].end_ms for s in dag.sinks())
        assert outcome.e2e_ms == pytest.approx(
            latest_sink - outcome.arrival_ms
        )

    @given(layered_dags())
    @settings(max_examples=15, deadline=None)
    def test_more_cores_never_slower_on_dags(self, dag):
        wf = self._workflow(dag)
        request = generate_requests(wf, WorkloadConfig(n_requests=1), seed=7)[0]
        executor = DagAnalyticExecutor(wf)
        slow = executor.run_request(
            DagFixedPolicy("s", {n: 1000 for n in dag.nodes}), request
        )
        fast = executor.run_request(
            DagFixedPolicy("b", {n: 3000 for n in dag.nodes}), request
        )
        assert fast.e2e_ms <= slow.e2e_ms + 1e-9
