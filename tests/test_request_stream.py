"""Columnar request streams: chunked draws and :class:`RequestBlock`.

The chunked generator must reproduce the per-request scalar draw bit for
bit (kept here as ``reference_requests``); each stage's workset and noise
columns must equal one vector call and ``n`` scalar draws under any
chunking, including both generators' end state; a stream's values must
not move with the chunk size; and the column-based tenant merge and
fleet split must equal the sort-plus-``replace`` versions they replaced.
The batch path builds no rows; a rejected draw raises what building the
rows raised.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.loop as serving_loop
import repro.traces.workload as workload
from repro.api import Session
from repro.errors import FunctionModelError, TraceError, WorkflowError
from repro.fleet import fleet_requests
from repro.functions.model import FunctionModel, InvocationDynamics, check_dynamics
from repro.functions.worksets import (
    FixedWorkset,
    LogUniformWorkset,
    LognormalWorkset,
    UniformIntWorkset,
    WorksetDistribution,
)
from repro.policies.early_binding import WorstCasePolicy
from repro.policies.oracle import OraclePolicy
from repro.profiling.profiler import profile_workflow
from repro.rng import RngFactory
from repro.runtime.executor import AnalyticExecutor
from repro.scenarios import ScenarioMatrix, SweepRunner, parse_arrival, parse_fleet
from repro.scenarios.registry import scenario_workflow
from repro.scenarios.runner import _arrival_merge, merge_tenant_streams
from repro.serving import ServingConfig, ServingLoop
from repro.traces.workload import (
    ArrivalSpec,
    WorkloadConfig,
    generate_requests,
    iter_requests,
)
from repro.workflow.catalog import Workflow, intelligent_assistant, video_analytics
from repro.workflow.chain import chain_dag
from repro.workflow.request import (
    DEFAULT_STREAM_CHUNK,
    RequestBlock,
    WorkflowRequest,
)

from tests.conftest import make_function, small_limits


@dataclasses.dataclass(frozen=True)
class TriangularWorkset(WorksetDistribution):
    """A third-party distribution: only the abstract interface, drawing
    through its own ``sample(rng, size=n)``."""

    @property
    def reference(self) -> float:
        return 2.0

    def sample(self, rng, size=None):
        draw = rng.triangular(1.0, 2.0, 4.0, size=size)
        return float(draw) if size is None else draw

    def support(self) -> tuple[float, float]:
        return (1.0, 4.0)


def custom_workflow() -> Workflow:
    models = [
        make_function(f"T{i}", gamma=0.3, workset=TriangularWorkset())
        for i in range(2)
    ]
    return Workflow(
        name="triangular",
        dag=chain_dag([m.name for m in models]),
        functions={m.name: m for m in models},
        slo_ms=2000.0,
        limits=small_limits(),
    )


WORKFLOWS = {
    "IA": intelligent_assistant,
    "VA": video_analytics,
    "media": lambda: scenario_workflow("media"),
    "custom": custom_workflow,
}


def reference_requests(
    workflow: Workflow, config: WorkloadConfig, seed: int
) -> list[WorkflowRequest]:
    """The stream one request at a time: per stage, one scalar workset
    draw from its workset stream and one normal from its noise stream."""
    factory = RngFactory(seed).fork("workload", workflow.name)
    arrivals = config.arrival_spec().timestamps(
        config.n_requests, factory.stream("arrivals"), workflow=workflow.name
    )
    slo = float(config.slo_ms if config.slo_ms is not None else workflow.slo_ms)
    concurrency = int(
        config.concurrency if config.concurrency is not None
        else workflow.max_concurrency
    )
    stage_rngs = {
        name: (
            factory.stream("dynamics", name, "workset"),
            factory.stream("dynamics", name, "noise"),
        )
        for name in workflow.dag.nodes
    }
    interference_rng = factory.stream("interference")
    scale = config.workset_scale
    out = []
    for i in range(config.n_requests):
        dynamics = {}
        for name in workflow.dag.nodes:
            q = (
                config.interference(interference_rng)
                if config.interference is not None else 1.0
            )
            workset_rng, noise_rng = stage_rngs[name]
            workset = float(workflow.model(name).workset.sample(workset_rng))
            if scale != 1.0:
                if abs(workset) < math.inf and not abs(workset) * scale < math.inf:
                    raise TraceError(
                        f"WorkloadConfig.workset_scale must keep working sets "
                        f"finite, got {scale:g} (overflows {name}'s)"
                    )
                workset *= scale
            dynamics[name] = InvocationDynamics(
                workset, float(noise_rng.standard_normal()), float(q)
            )
        out.append(WorkflowRequest(
            request_id=i,
            arrival_ms=float(arrivals[i]),
            slo_ms=slo,
            stage_dynamics=dynamics,
            concurrency=concurrency,
            workflow=workflow.name,
        ))
    return out


def _same_bits(got, want) -> None:
    # Pickles compare every field's type and float bits, dict order too.
    assert len(got) == len(want)
    assert pickle.dumps(list(got)) == pickle.dumps(list(want))


def _slowdown(rng: np.random.Generator) -> float:
    return 1.0 + float(rng.exponential(0.25))


class TestStreamMatchesReferenceLoop:
    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 5000])
    def test_default_config(self, name, n):
        workflow = WORKFLOWS[name]()
        config = WorkloadConfig(n_requests=n)
        want = reference_requests(workflow, config, seed=3)
        _same_bits(generate_requests(workflow, config, seed=3), want)
        blocks = list(iter_requests(workflow, config, seed=3))
        assert len(blocks) == math.ceil(n / DEFAULT_STREAM_CHUNK)
        assert [len(b) for b in blocks] == [
            min(DEFAULT_STREAM_CHUNK, n - lo)
            for lo in range(0, n, DEFAULT_STREAM_CHUNK)
        ]
        _same_bits([row for block in blocks for row in block], want)

    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    @pytest.mark.parametrize(
        "config",
        [
            WorkloadConfig(n_requests=2049, workset_scale=2.5),
            WorkloadConfig(n_requests=2049, interference=_slowdown),
            WorkloadConfig(
                n_requests=2049,
                arrival=ArrivalSpec(kind="azure", rate_per_s=8.0),
            ),
            WorkloadConfig(
                n_requests=2049,
                arrival=ArrivalSpec(kind="constant", interval_ms=5.0),
                slo_ms=1234.5,
            ),
        ],
        ids=["workset-scale", "interference", "azure", "constant"],
    )
    def test_config_variants(self, name, config):
        workflow = WORKFLOWS[name]()
        _same_bits(
            generate_requests(workflow, config, seed=7),
            reference_requests(workflow, config, seed=7),
        )

    def test_generate_requests_returns_a_block(self):
        stream = generate_requests(
            intelligent_assistant(), WorkloadConfig(n_requests=10), seed=1
        )
        assert isinstance(stream, RequestBlock)
        assert stream.arrivals.tolist() == [r.arrival_ms for r in stream]


DISTRIBUTIONS = [
    FixedWorkset(1.5),
    UniformIntWorkset(1, 15),
    LogUniformWorkset(35.0, 641.0),
    LogUniformWorkset(5.0, 120.0),
    LognormalWorkset(1.0, 0.14, 2.0),
    LognormalWorkset(3.0, 0.9),
    TriangularWorkset(),
]


def _stage_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])


class TestBatchedDraws:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sizes=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=5),
    )
    def test_equals_scalar_calls(self, dist, seed, sizes):
        # Chunks of ``sizes``, one call of their sum, and one scalar draw
        # per invocation give the same bits and leave both generators in
        # the same state.
        model = FunctionModel("f", 10.0, 100.0, workset=dist)
        n = sum(sizes)
        chunked_rngs = _stage_rngs(seed)
        chunks = [model.sample_dynamics(*chunked_rngs, size=m) for m in sizes]
        one_rngs = _stage_rngs(seed)
        one = model.sample_dynamics(*one_rngs, size=n)
        workset_rng, noise_rng = _stage_rngs(seed)
        scalar = (
            np.array([float(dist.sample(workset_rng)) for _ in range(n)]),
            np.array([float(noise_rng.standard_normal()) for _ in range(n)]),
            np.ones(n),
        )
        for columns in (tuple(map(np.concatenate, zip(*chunks))), one):
            for got, want in zip(columns, scalar):
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes()
        for rngs in (chunked_rngs, one_rngs):
            for got, want in zip(rngs, (workset_rng, noise_rng)):
                assert got.bit_generator.state == want.bit_generator.state

    def test_interference_broadcast_and_checked(self):
        model = FunctionModel("f", 10.0, 100.0)
        rng = np.random.default_rng(0)
        _, _, q = model.sample_dynamics(
            rng, rng, size=2, interference=np.array([1.0, 2.5])
        )
        assert q.tolist() == [1.0, 2.5]
        with pytest.raises(FunctionModelError, match="interference must be >= 1"):
            model.sample_dynamics(rng, rng, size=3, interference=0.5)

    def test_one_sample_dynamics_call_per_stage_per_chunk(self, monkeypatch):
        calls = []
        original = FunctionModel.sample_dynamics

        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("size"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FunctionModel, "sample_dynamics", counted)
        workflow = intelligent_assistant()
        n = 2 * DEFAULT_STREAM_CHUNK + 5
        stream = generate_requests(workflow, WorkloadConfig(n_requests=n), seed=1)
        assert len(stream) == n
        chunks = [DEFAULT_STREAM_CHUNK, DEFAULT_STREAM_CHUNK, 5]
        assert sorted(calls) == sorted(chunks * len(workflow.dag.nodes))


def _chunked(monkeypatch, chunk: int) -> None:
    # Test-only: the chunk size is a module constant, not a knob.
    for module in (workload, serving_loop):
        monkeypatch.setattr(module, "DEFAULT_STREAM_CHUNK", chunk)


class TestChunkSizeMovesNoBit:
    """Each stage draws from streams of its own, so no value depends on
    how many requests are drawn at a time."""

    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    def test_generate_requests_columns(self, name, monkeypatch):
        workflow = WORKFLOWS[name]()
        n = 2100
        config = WorkloadConfig(
            n_requests=n, workset_scale=1.5, interference=_slowdown,
            arrival=ArrivalSpec(kind="azure", rate_per_s=8.0),
        )

        def columns(chunk: int) -> list[bytes]:
            _chunked(monkeypatch, chunk)
            block = generate_requests(workflow, config, seed=9)
            assert len(block) == n
            nodes = workflow.dag.nodes
            return [
                column.tobytes()
                for column in (block.arrivals, block.request_ids)
                + tuple(itertools.chain(*map(block.dynamics, nodes)))
            ]

        want = columns(DEFAULT_STREAM_CHUNK)
        for chunk in (1, 7, n):
            assert columns(chunk) == want, chunk

    def test_serving_rows(self, monkeypatch):
        n = 5000
        config = ServingConfig(
            workflow="IA", policy="GrandSLAM", samples=200, max_requests=n,
            workset_schedule=((1000, 2.0), (2049, 0.5)),
        )
        profiles = profile_workflow(intelligent_assistant(), samples=200)

        def rows(chunk: int) -> bytes:
            _chunked(monkeypatch, chunk)
            loop = ServingLoop(config, profiles=profiles)
            return pickle.dumps(list(itertools.islice(loop._dynamics, n)))

        want = rows(DEFAULT_STREAM_CHUNK)
        for chunk in (1, 7, n):
            assert rows(chunk) == want, chunk


def _block(n: int = 12, seed: int = 4) -> RequestBlock:
    return generate_requests(
        intelligent_assistant(), WorkloadConfig(n_requests=n), seed=seed
    )


class TestRequestBlock:
    def test_rows_and_columns_round_trip(self):
        rows = list(_block())
        block = RequestBlock.of(rows)
        assert RequestBlock.of(block) is block
        assert list(block) == rows and all(a is b for a, b in zip(block, rows))
        assert block.request_ids.tolist() == [r.request_id for r in rows]
        assert block.arrivals.tolist() == [r.arrival_ms for r in rows]
        assert block.slos.tolist() == [r.slo_ms for r in rows]
        assert block.concurrencies.tolist() == [r.concurrency for r in rows]
        for node in ("OD", "QA", "TS"):
            worksets, noise_zs, interferences = block.dynamics(node)
            dyns = [r.dynamics_for(node) for r in rows]
            assert worksets.tolist() == [d.workset for d in dyns]
            assert noise_zs.tolist() == [d.noise_z for d in dyns]
            assert interferences.tolist() == [d.interference for d in dyns]

    def test_take_renumbers_rows_and_columns(self):
        block = _block()
        picks = [7, 2, 9, 2]
        sub = block.take(picks)
        assert sub.request_ids.tolist() == [0, 1, 2, 3]
        assert sub.arrivals.tolist() == block.arrivals[picks].tolist()
        for got, want in zip(sub.dynamics("QA"), block.dynamics("QA")):
            assert got.tolist() == want[picks].tolist()
        assert list(sub) == [
            dataclasses.replace(block[i], request_id=j)
            for j, i in enumerate(picks)
        ]
        assert pickle.dumps(sub[0].stage_dynamics) == pickle.dumps(
            block[7].stage_dynamics
        )
        assert len(block.take([])) == 0

    def test_slices_are_row_lists_keeping_ids(self):
        block = _block()
        part = block[3:7]
        assert part == list(block)[3:7]
        assert [r.request_id for r in part] == [3, 4, 5, 6]
        assert block[-1].request_id == len(block) - 1

    def test_equality_and_concatenation_with_lists(self):
        block, rows = _block(), list(_block())
        assert block == rows and rows == block and block == _block()
        assert block != _block(seed=5) and block != tuple(rows)
        assert block + rows == rows + rows
        assert rows[:2] + block == rows[:2] + rows
        assert block + block == rows + rows

    def test_is_immutable(self):
        block = _block()
        with pytest.raises(TypeError):
            block[0] = block[1]
        with pytest.raises(ValueError):
            block.arrivals[0] = 1.0
        with pytest.raises(ValueError):
            block.dynamics("OD")[0][0] = 1.0
        assert not hasattr(block, "append")
        with pytest.raises(TypeError):
            hash(block)

    def test_missing_stage_names_the_request(self):
        rows = list(_block(3))
        rows[1] = dataclasses.replace(
            rows[1], stage_dynamics={"OD": rows[1].dynamics_for("OD")}
        )
        with pytest.raises(WorkflowError, match="request 1 has no dynamics for 'QA'"):
            RequestBlock.of(rows).dynamics("QA")
        workflow = intelligent_assistant()
        with pytest.raises(WorkflowError, match="request 1"):
            AnalyticExecutor(workflow).run(WorstCasePolicy(workflow), rows)


def reference_merge(streams):
    """The merge the column lexsort replaced: a tuple sort plus a
    ``replace`` per request."""
    tagged = [
        (req.arrival_ms, k, req.request_id, req)
        for k, stream in enumerate(streams)
        for req in stream
    ]
    tagged.sort(key=lambda item: item[:3])
    return (
        [dataclasses.replace(req, request_id=i) for i, (*_, req) in enumerate(tagged)],
        [k for _, k, _, _ in tagged],
    )


class TestMerges:
    @pytest.mark.parametrize(
        "arrival",
        [
            ArrivalSpec(kind="constant"),
            ArrivalSpec(kind="constant", interval_ms=40.0),
            ArrivalSpec(kind="poisson", rate_per_s=20.0),
        ],
        ids=["tied-at-zero", "tied-grid", "poisson"],
    )
    def test_merge_equals_sort_plus_replace(self, arrival):
        workflow = intelligent_assistant()
        streams = [
            generate_requests(
                workflow, WorkloadConfig(n_requests=n, arrival=arrival), seed=s
            )
            for n, s in ((30, 1), (45, 2), (12, 3))
        ]
        merged, sources = _arrival_merge(streams)
        want, want_sources = reference_merge(streams)
        _same_bits(merged, want)
        assert sources == want_sources
        assert list(merge_tenant_streams(streams)) == want
        # Hand-built row lists merge the same way.
        _same_bits(_arrival_merge([list(s) for s in streams])[0], want)

    def test_fleet_split_equals_replace_substreams(self):
        scenario = ScenarioMatrix(
            workflows=("IA",),
            arrivals=(ArrivalSpec(kind="poisson", rate_per_s=8.0),),
            fleets=(parse_fleet("regions=3,routing=spillover,capacity=2"),),
            tenant_counts=(2,),
            n_requests=40,
            samples=200,
            seed=5,
        ).expand()[0]
        workflow = scenario_workflow(scenario.workflow)
        requests, homes = fleet_requests(workflow, scenario, workflow.slo_ms)
        rows = list(requests)
        for region in range(3):
            indices = [i for i, h in enumerate(homes) if h == region]
            want = [
                dataclasses.replace(rows[i], request_id=j)
                for j, i in enumerate(indices)
            ]
            _same_bits(requests.take(indices), want)

    def test_fleet_cell_serves_every_policy_the_same_substreams(self):
        def matrix(policies):
            return ScenarioMatrix(
                workflows=("IA",),
                arrivals=(ArrivalSpec(kind="poisson", rate_per_s=8.0),),
                fleets=(parse_fleet("regions=3,routing=spillover,capacity=2"),),
                policies=policies,
                n_requests=40,
                samples=200,
                seed=5,
            )

        both = SweepRunner(max_workers=1).run(matrix(("GrandSLAM", "Janus")))
        alone = SweepRunner(max_workers=1).run(matrix(("Janus",)))
        (cell,), (solo,) = both.results, alone.results
        assert set(cell.table) == {"GrandSLAM", "Janus"}
        assert cell.extras["Janus"] == solo.extras["Janus"]
        for key in ("mean_allocated_millicores", "violation_rate"):
            assert cell.table["Janus"][key] == solo.table["Janus"][key]


class TestChecks:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_rows_and_columns_reject_the_same_worksets(self, bad):
        with pytest.raises(FunctionModelError, match="workset must be finite and > 0"):
            InvocationDynamics(workset=bad, noise_z=0.0)
        with pytest.raises(FunctionModelError, match="workset must be finite and > 0"):
            check_dynamics(np.array([1.0, bad]), np.ones(2))
        check_dynamics(np.array([1.0, 2.0]), np.ones(2))


@pytest.fixture
def built_rows(monkeypatch):
    """Every :class:`WorkflowRequest` constructed while the test runs."""
    built: list[WorkflowRequest] = []
    init = WorkflowRequest.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WorkflowRequest, "__init__", counting)
    return built


class TestNoRowsOnTheBatchPath:
    def test_streams_merges_and_takes_build_no_rows(self, built_rows):
        config = WorkloadConfig(
            n_requests=2100, arrival=ArrivalSpec(kind="azure", rate_per_s=8.0)
        )
        for name in ("IA", "VA", "media"):
            workflow = WORKFLOWS[name]()
            streams = [generate_requests(workflow, config, seed=s) for s in (1, 2)]
            merged = merge_tenant_streams(streams)
            region = merged.take(np.flatnonzero(merged.request_ids % 3 == 1))
            for block in (*streams, merged, region):
                for node in workflow.dag.nodes:
                    block.dynamics(node)
        assert built_rows == []

    def test_sweep_cells_build_no_rows(self, built_rows):
        # e2ebench's sweep-large cells, small: two tenants of IA, VA and
        # media (a DAG) across a chunk edge, and a 3-region fleet cell.
        tenants = ScenarioMatrix(
            workflows=("IA", "VA", "media"),
            arrivals=(parse_arrival("azure@8"),),
            tenant_counts=(2,),
            policies=("GrandSLAM", "ORION", "Janus"),
            n_requests=2100,
            samples=300,
            seed=1,
        )
        fleet = ScenarioMatrix(
            workflows=("IA",),
            arrivals=(parse_arrival("poisson@8"),),
            fleets=(parse_fleet("regions=3,routing=spillover,capacity=8"),),
            policies=("GrandSLAM", "Janus"),
            n_requests=200,
            samples=300,
            seed=1,
        )
        for matrix in (tenants, fleet):
            report = SweepRunner(max_workers=1).run(matrix)
            assert len(report.results) == len(matrix.expand())
        assert built_rows == []

    def test_row_consumers_get_the_reference_rows(self, monkeypatch):
        workflow = intelligent_assistant()
        config = WorkloadConfig(
            n_requests=80, arrival=ArrivalSpec(kind="poisson", rate_per_s=8.0)
        )
        merged = merge_tenant_streams(
            [generate_requests(workflow, config, seed=s) for s in (1, 2)]
        )
        want, _ = reference_merge(
            [reference_requests(workflow, config, seed=s) for s in (1, 2)]
        )
        begun: list[WorkflowRequest] = []
        begin = OraclePolicy.begin_request

        def recording(self, request):
            begun.append(request)
            begin(self, request)

        monkeypatch.setattr(OraclePolicy, "begin_request", recording)
        session = Session(workflow, samples=300)
        oracle = session.run("Optimal", merged)
        _same_bits(begun, want)
        assert oracle.outcomes == session.run("Optimal", want).outcomes
        cluster = session.run("Janus", merged, "cluster")
        assert cluster.outcomes == session.run("Janus", want, "cluster").outcomes


def _message(build) -> str:
    with pytest.raises(FunctionModelError) as info:
        build()
    return str(info.value)


class _Interference:
    """Draws ``1 + u``, except on call ``k`` in ``bad``, which returns
    ``bad[k]``: request ``k // stages``, stage ``k % stages``."""

    def __init__(self, bad: dict[int, float]) -> None:
        self.bad, self.calls = bad, 0

    def __call__(self, rng: np.random.Generator) -> float:
        q = self.bad.get(self.calls, 1.0 + float(rng.random()))
        self.calls += 1
        return q


class TestErrorParity:
    """A rejected draw raises the reference rows' first error."""

    def test_interference_below_one_in_a_later_chunk(self):
        workflow = intelligent_assistant()
        stages = len(workflow.dag.nodes)
        r = DEFAULT_STREAM_CHUNK + 52
        bad = {
            r * stages + 1: 0.75,  # request r, stage 1: the first
            r * stages + 2: 0.5,
            (r + 1) * stages: 0.25,
            (2 * DEFAULT_STREAM_CHUNK + 1) * stages: 0.125,
        }

        def config(n: int = 5000) -> WorkloadConfig:
            return WorkloadConfig(n_requests=n, interference=_Interference(bad))

        want = _message(lambda: reference_requests(workflow, config(), seed=2))
        assert want == "interference must be >= 1: 0.75"
        assert _message(lambda: generate_requests(workflow, config(), seed=2)) == want
        assert len(generate_requests(workflow, config(r), seed=2)) == r

    def test_workset_overflow_in_a_later_chunk(self):
        # Unbounded support, so no scale fails before the draw: the chunk
        # that overflows raises the knob's error, as the rows do.
        models = [
            make_function("S0"),
            make_function("S1", gamma=0.3, workset=LognormalWorkset(20.0, 0.8)),
        ]
        workflow = Workflow(
            name="overflow",
            dag=chain_dag([m.name for m in models]),
            functions={m.name: m for m in models},
            slo_ms=2000.0,
            limits=small_limits(),
        )
        n = 5000
        worksets = generate_requests(
            workflow, WorkloadConfig(n_requests=n), seed=1
        ).dynamics("S1")[0]
        # A scale that overflows exactly the stage-1 worksets above every
        # one drawn before request ``lo``: the first is past chunk 0.
        lo = DEFAULT_STREAM_CHUNK + 52
        ceiling = worksets[:lo].max()
        first = lo + int(np.argmax(worksets[lo:] > ceiling))
        assert worksets[first] > ceiling
        scale = np.finfo(float).max / math.sqrt(ceiling * worksets[first])

        def config(n: int) -> WorkloadConfig:
            return WorkloadConfig(n_requests=n, workset_scale=scale)

        def message(build) -> str:
            with pytest.raises(TraceError) as info:
                build()
            return str(info.value)

        want = message(lambda: reference_requests(workflow, config(n), seed=1))
        assert want.startswith("WorkloadConfig.workset_scale must keep working sets")
        assert want.endswith("(overflows S1's)")
        with np.errstate(all="raise"):
            got = message(lambda: generate_requests(workflow, config(n), seed=1))
            assert got == want
            assert len(generate_requests(workflow, config(first), seed=1)) == first

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_columns_check_in_row_order(self, data):
        # Workset before interference within an invocation, then stage,
        # then request: the order rows are built and checked in.
        shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4)))
        size = shape[0] * shape[1]
        worksets = np.array(data.draw(st.lists(
            st.sampled_from([1.0, 3.5, 0.0, -2.0, float("inf"), float("nan")]),
            min_size=size, max_size=size,
        ))).reshape(shape)
        interferences = np.array(data.draw(st.lists(
            st.sampled_from([1.0, 1.5, 0.5, 0.25]), min_size=size, max_size=size,
        ))).reshape(shape)
        want = None
        for w, q in zip(worksets.ravel().tolist(), interferences.ravel().tolist()):
            try:
                InvocationDynamics(w, 0.0, q)
            except FunctionModelError as exc:
                want = str(exc)
                break
        if want is None:
            check_dynamics(worksets, interferences)
        else:
            assert _message(lambda: check_dynamics(worksets, interferences)) == want
