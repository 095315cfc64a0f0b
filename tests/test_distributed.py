"""Distributed sweep fabric: wire framing, host parsing, the coordinator
backend (in-thread and real subprocess workers), worker-side cache modes,
loss re-dispatch, 4-way bit-identity, and resume-after-kill."""

from __future__ import annotations

import json
import os
import pickle
import queue as queue_mod
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import distfab_helpers as helpers
from repro.cli import main
from repro.errors import ExperimentError
from repro.scenarios import (
    DistributedBackend,
    HostSpec,
    PoolBackend,
    ScenarioMatrix,
    SweepRunner,
    get_backend,
    parse_hosts,
    scenario_digest,
)
from repro.scenarios.cache import CellCache
from repro.scenarios.matrix import parse_fault
from repro.scenarios.runner import evaluate_cell
from repro.scenarios.wire import (
    AUTH_ENV,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    auth_digest,
    connect_with_retry,
    recv_msg,
    send_msg,
)
from repro.scenarios.worker import serve
from repro.traces.workload import ArrivalSpec

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

#: PYTHONPATH subprocess worker agents need: the repro package plus this
#: directory, so pickled references to ``distfab_helpers`` resolve.
WORKER_PYTHONPATH = os.pathsep.join((SRC_DIR, TESTS_DIR))


# ---------------------------------------------------------------------------
# wire framing


class TestWire:
    def _pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_roundtrip_preserves_objects(self):
        a, b = self._pair()
        try:
            for obj in (
                ("task", 3, {"nested": [1.5, None]}),
                ("blob", b"x" * 100_000),
                ("hello", WIRE_VERSION, "local", 1234),
            ):
                send_msg(a, obj)
                assert recv_msg(b) == obj
        finally:
            a.close()
            b.close()

    def test_eof_between_frames_returns_none(self):
        a, b = self._pair()
        send_msg(a, ("one",))
        a.close()
        assert recv_msg(b) == ("one",)
        assert recv_msg(b) is None
        b.close()

    def test_torn_header_raises(self):
        a, b = self._pair()
        a.sendall(b"\x00\x00")  # half a length prefix
        a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_msg(b)
        b.close()

    def test_header_without_payload_raises(self):
        a, b = self._pair()
        a.sendall(struct.pack(">I", 10))
        a.close()
        with pytest.raises(ConnectionError, match="between header and payload"):
            recv_msg(b)
        b.close()

    def test_oversized_frame_rejected(self):
        a, b = self._pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ExperimentError, match="exceeds"):
            recv_msg(b)
        a.close()
        b.close()

    def test_connect_with_retry_gives_up(self):
        # Grab a free port, release it, and connect to the now-dead
        # address with a tiny window: refusals exhaust the deadline.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with pytest.raises(OSError):
            connect_with_retry("127.0.0.1", port, timeout=0.3, interval=0.05)
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# host specs


class TestParseHosts:
    def test_string_and_sequence_forms(self):
        assert parse_hosts("local:2") == (
            HostSpec(label="local", host="local", nproc=2),
        )
        assert parse_hosts(["alpha", "beta:3"]) == (
            HostSpec(label="alpha", host="alpha", nproc=1),
            HostSpec(label="beta", host="beta", nproc=3),
        )

    def test_duplicate_hosts_get_distinct_labels(self):
        labels = [s.label for s in parse_hosts("big:2,small,big,big:4")]
        assert labels == ["big", "small", "big#2", "big#3"]

    def test_local_aliases(self):
        for name in ("local", "localhost", "127.0.0.1"):
            (spec,) = parse_hosts(name)
            assert spec.is_local
        (remote,) = parse_hosts("rack-7:8")
        assert not remote.is_local

    @pytest.mark.parametrize(
        "bad", ["", "  , ", ":2", "host:x", "host:0", "host:-1"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ExperimentError):
            parse_hosts(bad)


# ---------------------------------------------------------------------------
# backend unit surface (no sockets)


class TestBackendUnit:
    def test_workers_for_sums_host_slots(self):
        backend = DistributedBackend(hosts="local:2,rack:3")
        assert backend.workers_for(1) == 1
        assert backend.workers_for(4) == 4
        assert backend.workers_for(100) == 5
        assert backend.workers_for(0) == 1

    def test_registered_and_constructible_through_registry(self):
        backend = get_backend(
            "distributed", hosts="local:2", max_workers=7, mp_context=object()
        )
        assert backend.name == "distributed"
        assert backend.workers_for(99) == 2  # hosts, not max_workers, cap it

    def test_launch_argv_local_vs_ssh(self):
        backend = DistributedBackend(
            hosts="local:2,rack-7:4", advertise="coord.example"
        )
        local, rack = backend.specs
        local_argv = backend.launch_argv(local, 9999)
        assert local_argv[0] == sys.executable
        assert local_argv[1:3] == ["-m", "repro.scenarios.worker"]
        assert "127.0.0.1:9999" in local_argv
        assert ["--nproc", "2"] == local_argv[
            local_argv.index("--nproc"):local_argv.index("--nproc") + 2
        ]
        rack_argv = backend.launch_argv(rack, 9999)
        assert rack_argv[:2] == ["ssh", "rack-7"]
        assert "python3" in rack_argv
        assert "coord.example:9999" in rack_argv
        assert "--label" in rack_argv and "rack-7" in rack_argv

    def test_bad_cache_mode_rejected(self):
        with pytest.raises(ExperimentError, match="cache mode"):
            DistributedBackend(hosts="local", cache_mode="nfs")

    def test_cache_mode_without_dir_rejected_at_run(self):
        backend = DistributedBackend(hosts="local", cache_mode="protocol")
        with pytest.raises(ExperimentError, match="needs a cache dir"):
            backend.run([1], helpers.double)

    def test_empty_run_is_a_no_op(self):
        backend = DistributedBackend(hosts="local:2")
        assert backend.run([], helpers.double) == []
        assert backend.stats() == {}


# ---------------------------------------------------------------------------
# in-thread workers (fast paths: ordering, stealing, errors, cache modes)


def _run_inthread(
    items,
    fn,
    *,
    hosts="alpha,beta",
    labels=None,
    backend_kwargs=None,
    **run_kwargs,
):
    """Run the coordinator against worker threads in this process.

    ``launch=False`` plus the ``on_listen`` hook stands in for an
    externally-started fleet — and keeps these tests subprocess-free.
    """
    labels = list(labels if labels is not None else
                  (spec.label for spec in parse_hosts(hosts)))
    threads: list[threading.Thread] = []

    def on_listen(host, port):
        for label in labels:
            thread = threading.Thread(
                target=serve, args=((host, port), label), daemon=True
            )
            thread.start()
            threads.append(thread)

    backend = DistributedBackend(
        hosts=hosts,
        launch=False,
        bind="127.0.0.1",
        connect_timeout=10.0,
        idle_delay=0.01,
        on_listen=on_listen,
        **(backend_kwargs or {}),
    )
    try:
        out = backend.run(items, fn, **run_kwargs)
    finally:
        for thread in threads:
            thread.join(timeout=10.0)
    return backend, out


class TestInThreadWorkers:
    def test_results_come_back_in_submission_order(self):
        items = [helpers.Costed(i, delay=0.01) for i in range(8)]
        backend, out = _run_inthread(items, helpers.eval_costed)
        assert out == list(range(8))
        stats = backend.stats()
        assert sum(h["completed"] for h in stats["hosts"].values()) == 8
        assert set(stats["hosts"]) == {"alpha", "beta"}
        assert all(h["workers"] == 1 for h in stats["hosts"].values())
        assert stats["redispatched"] == 0

    def test_on_complete_fires_once_per_cell_with_outcome(self):
        seen: list[tuple[int, int]] = []
        items = [helpers.Costed(10 + i) for i in range(6)]
        _, out = _run_inthread(
            items,
            helpers.eval_costed,
            on_complete=lambda pos, outcome: seen.append((pos, outcome)),
        )
        assert sorted(seen) == [(i, 10 + i) for i in range(6)]
        assert out == [10 + i for i in range(6)]

    def test_drained_host_steals_from_most_loaded_victim(self):
        # LPT assignment gives alpha [0, 3, 5] and beta [1, 2, 4]; item 0
        # then pins alpha's only worker for ~0.4 s while beta drains its
        # queue in ~0.03 s — beta must steal alpha's queued remainder.
        costs = [10.0, 9.0, 1.0, 1.0, 1.0, 1.0]
        items = [
            helpers.Costed(i, cost=c, delay=0.4 if i == 0 else 0.01)
            for i, c in enumerate(costs)
        ]
        backend, out = _run_inthread(items, helpers.eval_costed)
        assert out == list(range(6))
        stats = backend.stats()
        assert stats["hosts"]["beta"]["steals"] >= 1
        assert sum(h["completed"] for h in stats["hosts"].values()) == 6

    def test_externally_joined_unknown_label_is_adopted(self):
        # One declared host, but a second worker joins under a label the
        # coordinator never planned for: it gets adopted and lives off
        # stealing from the declared host's queue.
        items = [helpers.Costed(i, delay=0.02) for i in range(6)]
        backend, out = _run_inthread(
            items, helpers.eval_costed,
            hosts="alpha", labels=("alpha", "gamma"),
        )
        assert out == list(range(6))
        stats = backend.stats()
        assert stats["hosts"]["gamma"]["steals"] >= 1
        assert stats["hosts"]["gamma"]["completed"] >= 1

    def test_worker_error_fails_fast_and_stops_dispatch(self, tmp_path):
        # Poisoned first item errors almost immediately; the other nine
        # each take 50 ms on one surviving slot, so a full drain would
        # touch all of them. Fail-fast must leave most untouched.
        items = [
            helpers.Costed(
                v,
                delay=0.0 if v == 0 else 0.05,
                out_dir=str(tmp_path),
                poison=0,
            )
            for v in range(10)
        ]
        with pytest.raises(ValueError, match="poisoned item 0"):
            _run_inthread(items, helpers.eval_costed)
        touched = len(list(tmp_path.glob("*.done")))
        assert touched < 9

    def test_non_scenario_items_bypass_the_cell_cache(self, tmp_path):
        # cache_dir set, but plain items: workers must not try to digest
        # them, and no cells/ directory appears.
        items = [helpers.Costed(i) for i in range(4)]
        backend, out = _run_inthread(
            items, helpers.eval_costed,
            backend_kwargs={"cache_dir": str(tmp_path)},
        )
        assert out == list(range(4))
        assert not (tmp_path / "cells").exists()
        assert backend.stats()["cache_mode"] == "shared"


def _mini_matrix(**overrides):
    kwargs = dict(
        workflows=("IA",),
        arrivals=(ArrivalSpec("constant"),),
        slo_scales=(1.0, 1.25),
        tenant_counts=(1,),
        policies=("Janus",),
        n_requests=8,
        samples=200,
        seed=23,
    )
    kwargs.update(overrides)
    return ScenarioMatrix(**kwargs)


class TestWorkerCacheModes:
    """Workers short-circuit cells another sweep already stored — through
    the shared directory or the GET/PUT protocol — and write through
    before reporting, so no host re-runs a stored cell."""

    def test_shared_mode_short_circuits_and_writes_through(self, tmp_path):
        cells = _mini_matrix().expand()
        expected = [evaluate_cell(cell) for cell in cells]
        CellCache(tmp_path).store(cells[0], expected[0].result)
        backend, out = _run_inthread(
            cells, evaluate_cell,
            backend_kwargs={"cache_dir": str(tmp_path)},
        )
        assert out[0].result == expected[0].result
        assert out[0].wall_seconds == 0.0  # fabricated from the cache hit
        assert out[1].result == expected[1].result
        stats = backend.stats()
        assert stats["cache_mode"] == "shared"
        assert sum(h["cache_hits"] for h in stats["hosts"].values()) == 1
        # Write-through: the evaluated cell landed in the shared dir too.
        assert len(list((tmp_path / "cells").iterdir())) == 2

    def test_protocol_mode_gets_and_puts_over_the_socket(self, tmp_path):
        cells = _mini_matrix().expand()
        expected = [evaluate_cell(cell) for cell in cells]
        CellCache(tmp_path).store(cells[0], expected[0].result)
        backend, out = _run_inthread(
            cells, evaluate_cell,
            backend_kwargs={
                "cache_dir": str(tmp_path), "cache_mode": "protocol",
            },
        )
        assert out[0].result == expected[0].result
        assert out[0].wall_seconds == 0.0
        assert out[1].result == expected[1].result
        stats = backend.stats()
        assert stats["cache_mode"] == "protocol"
        assert stats["protocol_cache"] == {"gets": 2, "hits": 1, "puts": 1}
        assert len(list((tmp_path / "cells").iterdir())) == 2


# ---------------------------------------------------------------------------
# handshake authentication


class TestWireAuth:
    """Token-protected fabrics HMAC-challenge every hello; peers that
    cannot answer are rejected before the pickled setup payload ships."""

    def _run_auth(self, coord_token, worker_token, items=(-1, -2, -3)):
        worker_errors: list[Exception] = []

        def on_listen(host, port):
            def target():
                try:
                    serve(
                        (host, port),
                        "local",
                        connect_timeout=5.0,
                        auth_token=worker_token,
                    )
                except Exception as exc:  # noqa: BLE001 - captured for asserts
                    worker_errors.append(exc)

            threading.Thread(target=target, daemon=True).start()

        backend = DistributedBackend(
            hosts="local",
            launch=False,
            bind="127.0.0.1",
            connect_timeout=1.5,
            idle_delay=0.01,
            on_listen=on_listen,
            auth_token=coord_token,
        )
        out = backend.run(list(items), abs)
        return out, worker_errors

    def test_digest_is_keyed_hmac_of_the_nonce(self):
        assert auth_digest("token", "nonce") == auth_digest("token", "nonce")
        assert auth_digest("token", "nonce") != auth_digest("other", "nonce")
        assert auth_digest("token", "nonce") != auth_digest("token", "n2")

    def test_matching_tokens_serve_normally(self):
        out, errors = self._run_auth("s3cret", "s3cret")
        assert out == [1, 2, 3]
        assert errors == []

    def test_wrong_token_is_rejected_with_a_clear_error(self):
        with pytest.raises(ExperimentError, match="no worker connected"):
            self._run_auth("s3cret", "wrong")

    def test_missing_worker_token_raises_actionably(self):
        with pytest.raises(ExperimentError, match="no worker connected"):
            self._run_auth("s3cret", None)

    def test_worker_rejection_messages(self):
        # Direct socket-level check of both worker-side reject paths,
        # without the coordinator timeout: fake a coordinator per case.
        from repro.scenarios.worker import _serve_socket

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def fake_coordinator(reply_fn):
            conn, _ = listener.accept()
            hello = recv_msg(conn)
            assert hello[0] == "hello"
            reply_fn(conn)
            conn.close()

        # Missing token: the worker refuses the challenge locally.
        thread = threading.Thread(
            target=fake_coordinator,
            args=(lambda c: send_msg(c, ("challenge", "abcd")),),
            daemon=True,
        )
        thread.start()
        with pytest.raises(ExperimentError, match=AUTH_ENV):
            sock = connect_with_retry("127.0.0.1", port, timeout=5.0)
            try:
                _serve_socket(sock, "local", auth_token=None)
            finally:
                sock.close()
        thread.join(timeout=5.0)

        # Wrong token: the coordinator's reject reason reaches the worker.
        def challenge_then_reject(conn):
            send_msg(conn, ("challenge", "abcd"))
            answer = recv_msg(conn)
            assert answer[0] == "auth"
            assert answer[1] != auth_digest("right", "abcd")
            send_msg(conn, ("reject", "authentication failed: bad token"))

        thread = threading.Thread(
            target=fake_coordinator, args=(challenge_then_reject,),
            daemon=True,
        )
        thread.start()
        with pytest.raises(ExperimentError, match="authentication failed"):
            sock = connect_with_retry("127.0.0.1", port, timeout=5.0)
            try:
                _serve_socket(sock, "local", auth_token="wrong")
            finally:
                sock.close()
        thread.join(timeout=5.0)
        listener.close()

    def test_env_var_is_the_default_token(self, monkeypatch):
        monkeypatch.setenv(AUTH_ENV, "from-env")
        backend = DistributedBackend(hosts="local", launch=False)
        assert backend.auth_token == "from-env"
        monkeypatch.delenv(AUTH_ENV)
        assert DistributedBackend(
            hosts="local", launch=False
        ).auth_token is None

    def test_launch_argv_forwards_the_token(self):
        spec = parse_hosts("local")[0]
        with_auth = DistributedBackend(
            hosts="local", launch=False, auth_token="tok"
        ).launch_argv(spec, 1234)
        assert "--auth-token" in with_auth
        assert with_auth[with_auth.index("--auth-token") + 1] == "tok"
        without = DistributedBackend(hosts="local", launch=False)
        without.auth_token = None
        assert "--auth-token" not in without.launch_argv(spec, 1234)


# ---------------------------------------------------------------------------
# real subprocess workers


@pytest.fixture
def worker_env(monkeypatch):
    """Make repro and distfab_helpers importable inside launched agents."""
    monkeypatch.setenv("PYTHONPATH", WORKER_PYTHONPATH)


class TestSubprocessWorkers:
    def test_two_local_workers_end_to_end(self, worker_env, tmp_path):
        # Each cell holds until both agents have checked in: trivial cells
        # would otherwise let the first agent finish all six before the
        # second connects.
        items = [(str(tmp_path), x) for x in range(6)]
        backend = DistributedBackend(hosts="local:2", connect_timeout=60.0)
        out = backend.run(items, helpers.double_once_two_agents)
        assert out == [0, 2, 4, 6, 8, 10]
        stats = backend.stats()
        assert stats["hosts"]["local"]["workers"] == 2
        assert stats["hosts"]["local"]["completed"] == 6
        assert stats["hosts"]["local"]["lost"] == 0

    def test_worker_loss_redispatches_in_flight_cell(
        self, worker_env, tmp_path
    ):
        # The marked item hard-kills (os._exit) whichever agent draws it
        # first; the survivor must pick up the re-queued cell and finish
        # the sweep with complete results.
        marker = str(tmp_path / "died.marker")
        items = [(None, 1), (marker, 2), (None, 3), (None, 4)]
        backend = DistributedBackend(hosts="local:2", connect_timeout=60.0)
        out = backend.run(items, helpers.crash_once)
        assert out == [2, 4, 6, 8]
        assert os.path.exists(marker)
        stats = backend.stats()
        assert stats["redispatched"] == 1
        assert sum(h["lost"] for h in stats["hosts"].values()) == 1
        assert sum(h["completed"] for h in stats["hosts"].values()) == 4

    def test_cell_exhausting_redispatch_budget_fails_the_sweep(
        self, worker_env, tmp_path
    ):
        # Every dispatch of the marked item kills its agent (fresh marker
        # names), so the redispatch cap must eventually give up with a
        # task-naming error instead of spinning forever.
        backend = DistributedBackend(
            hosts="local:2", connect_timeout=60.0, max_redispatch=0
        )
        marker = str(tmp_path / "always.marker")
        with pytest.raises(ExperimentError, match="lost its worker"):
            backend.run([(marker, 1), (None, 2)], helpers.crash_once)


# ---------------------------------------------------------------------------
# sweep-level integration


class TestSweepIntegration:
    def test_runner_wires_backend_options_and_stats(self, worker_env):
        matrix = _mini_matrix(n_requests=6)
        report = SweepRunner(
            backend="distributed",
            backend_options={"hosts": "local:2", "connect_timeout": 60.0},
        ).run(matrix)
        assert report.backend == "distributed"
        assert report.max_workers == 2
        assert report.backend_stats["hosts"]["local"]["completed"] == 2
        assert "host local: 2 worker(s), 2 cell(s)" in report.render()

    def test_backend_options_are_ignored_by_non_distributed_backends(self):
        # Signature filtering: a serial run with distributed options must
        # not blow up — the options simply don't reach SerialBackend.
        report = SweepRunner(
            max_workers=1,
            backend="serial",
            backend_options={"hosts": "local:2"},
        ).run(_mini_matrix(n_requests=6))
        assert report.backend == "serial"
        assert report.backend_stats == {}


class TestThreeWayBitIdentity:
    """serial / pool / distributed on faulted and replay matrices — the
    fabric joins the byte-identity contract."""

    @pytest.fixture(scope="class")
    def replay_trace(self, tmp_path_factory):
        from repro.traces.trace_file import generate_workload_trace, save_trace

        path = tmp_path_factory.mktemp("dist-trace") / "day.jsonl"
        trace = generate_workload_trace(
            ("IA", "VA"), 80,
            arrival=ArrivalSpec(kind="diurnal", rate_per_s=10.0, period_s=5.0),
            zipf_s=1.0, seed=47, name="day",
        )
        save_trace(trace, path)
        return path

    def _matrices(self, replay_trace):
        faulted = _mini_matrix(
            arrivals=(ArrivalSpec("poisson", rate_per_s=8.0),),
            slo_scales=(1.0,),
            faults=(None, parse_fault("storm@4")),
            n_requests=10,
        )
        replay = _mini_matrix(
            slo_scales=(1.0,),
            traces=(str(replay_trace),),
            n_requests=10,
        )
        return faulted, replay

    def test_identical_json_across_all_three_backends(
        self, replay_trace, worker_env
    ):
        for matrix in self._matrices(replay_trace):
            serial = SweepRunner(max_workers=1, backend="serial").run(matrix)
            for backend, options in (
                ("pool", None),
                ("distributed", {"hosts": "local:2", "connect_timeout": 60.0}),
            ):
                other = SweepRunner(
                    max_workers=2, backend=backend, backend_options=options
                ).run(matrix)
                assert other.to_json() == serial.to_json(), (
                    f"{backend} diverged on {matrix}"
                )


# ---------------------------------------------------------------------------
# resume after kill (CLI, real coordinator + agents)


SWEEP_ARGS = [
    "--workflows", "IA",
    "--arrivals", "constant,poisson@6,poisson@12",
    "--slo-scales", "1.0,1.25",
    "--tenants", "1",
    "--policies", "Janus",
    "--requests", "10",
    "--samples", "200",
    "--seed", "33",
]
N_CELLS = 6


class TestResumeAfterKill:
    def _spawn_distributed(self, cache_dir, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = WORKER_PYTHONPATH
        argv = [
            sys.executable, "-u", "-m", "repro", "sweep", *SWEEP_ARGS,
            "--backend", "distributed", "--hosts", "local:2",
            "--cache-dir", str(cache_dir), "--progress", *extra,
        ]
        return subprocess.Popen(
            argv, env=env, cwd=os.path.dirname(TESTS_DIR),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def test_killed_sweep_resumes_without_reevaluating_cached_cells(
        self, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        serial_json = tmp_path / "serial.json"
        resumed_json = tmp_path / "resumed.json"

        # Reference: an uninterrupted serial run of the same matrix.
        rc = main(
            ["sweep", *SWEEP_ARGS, "--jobs", "1", "--no-cache",
             "--json", str(serial_json)]
        )
        assert rc == 0

        # Cold distributed run, SIGKILLed after the first evaluated cell
        # lands (workers store before reporting, so it is already cached).
        proc = self._spawn_distributed(cache_dir)
        lines: queue_mod.Queue = queue_mod.Queue()

        def _pump():
            assert proc.stdout is not None
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        threading.Thread(target=_pump, daemon=True).start()
        deadline = time.monotonic() + 120.0
        saw_completion = False
        while time.monotonic() < deadline:
            try:
                line = lines.get(timeout=5.0)
            except queue_mod.Empty:
                continue
            if line is None:
                break
            if line.startswith("[") and line.rstrip().endswith(" s"):
                saw_completion = True
                break
        proc.kill()
        proc.wait(timeout=30.0)
        assert saw_completion, "sweep never reported an evaluated cell"
        # Killing the coordinator orphans the worker agents; each finishes
        # its in-flight cell, stores it (that's the resume guarantee), and
        # exits on the dead socket. Wait for the cache to quiesce so the
        # stored count is the resume run's exact hit count.
        stored = len(list((cache_dir / "cells").iterdir()))
        stable_since = time.monotonic()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            now = len(list((cache_dir / "cells").iterdir()))
            if now != stored:
                stored = now
                stable_since = time.monotonic()
            elif time.monotonic() - stable_since > 2.0:
                break
            time.sleep(0.2)
        assert stored >= 1

        # Resume: only the uncached remainder evaluates; the report is
        # byte-identical to the uninterrupted run.
        resumed = self._spawn_distributed(
            cache_dir, extra=["--json", str(resumed_json)]
        )
        out, _ = resumed.communicate(timeout=300.0)
        assert resumed.returncode == 0, out
        hit_lines = [l for l in out.splitlines() if l.endswith("cache hit")]
        assert len(hit_lines) == stored
        assert (
            f"cell cache: {stored} hit(s), {N_CELLS - stored} miss(es)" in out
        )
        assert resumed_json.read_bytes() == serial_json.read_bytes()

        # Warm re-run: zero evaluations, still byte-identical.
        warm_json = tmp_path / "warm.json"
        warm = self._spawn_distributed(
            cache_dir, extra=["--json", str(warm_json)]
        )
        out, _ = warm.communicate(timeout=300.0)
        assert warm.returncode == 0, out
        assert f"cell cache: {N_CELLS} hit(s), 0 miss(es)" in out
        assert warm_json.read_bytes() == serial_json.read_bytes()


# ---------------------------------------------------------------------------
# CLI surface


class TestCLI:
    def test_sweep_distributed_smoke(self, capsys, worker_env):
        rc = main(
            ["sweep", "--workflows", "IA", "--arrivals", "constant",
             "--slo-scales", "1.0", "--tenants", "1", "--policies", "Janus",
             "--requests", "6", "--samples", "200", "--no-cache",
             "--backend", "distributed", "--hosts", "local:2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "distributed backend" in out
        assert "host local: 2 worker(s)" in out

    def test_hosts_flag_requires_distributed_backend(self):
        with pytest.raises(SystemExit, match="--hosts"):
            main(
                ["sweep", "--workflows", "IA", "--arrivals", "constant",
                 "--hosts", "local:2"]
            )

    def test_cache_mode_flag_requires_distributed_backend(self):
        with pytest.raises(SystemExit, match="--cache-mode"):
            main(
                ["sweep", "--workflows", "IA", "--arrivals", "constant",
                 "--backend", "pool", "--cache-mode", "shared"]
            )


# ---------------------------------------------------------------------------
# satellite: scenario_digest memoisation


class TestDigestMemo:
    def test_digest_is_memoised_per_instance(self):
        cell = _mini_matrix().expand()[0]
        first = scenario_digest(cell)
        assert cell.__dict__["_digest_memo"][2] == first
        # Same *object* back, not just an equal string: the hash ran once.
        assert scenario_digest(cell) is first

    def test_epoch_change_invalidates_the_memo(self, monkeypatch):
        cell = _mini_matrix().expand()[0]
        base = scenario_digest(cell)
        import repro.scenarios.cache as cache_mod

        monkeypatch.setattr(cache_mod, "workflow_epoch", lambda name: 10**9)
        bumped = scenario_digest(cell)
        assert bumped != base
        monkeypatch.undo()
        assert scenario_digest(cell) == base

    def test_memo_travels_through_pickle(self):
        cell = _mini_matrix().expand()[0]
        base = scenario_digest(cell)
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.__dict__["_digest_memo"] == (
            cell.__dict__["_digest_memo"]
        )
        assert scenario_digest(clone) == base

    def test_memo_does_not_affect_equality(self):
        digested = _mini_matrix().expand()[0]
        scenario_digest(digested)
        fresh = _mini_matrix().expand()[0]
        assert digested == fresh  # dataclass eq is field-based


# ---------------------------------------------------------------------------
# pool fail-fast


class TestPoolFailFast:
    def test_error_cancels_not_yet_started_cells(self, tmp_path):
        # The poisoned item carries the top cost estimate, so it is
        # dispatched first and errors within milliseconds; every other
        # item sleeps 250 ms and touches a sentinel. Before the fix the
        # pool __exit__ drained all 8 survivors; with cancellation only
        # the already-running few finish.
        items = [
            helpers.Costed(
                v,
                cost=100.0 if v == 0 else 1.0,
                delay=0.01 if v == 0 else 0.25,
                out_dir=str(tmp_path),
                poison=0,
            )
            for v in range(9)
        ]
        backend = PoolBackend(max_workers=2)
        with pytest.raises(ValueError, match="poisoned item 0"):
            backend.run(items, helpers.eval_costed)
        touched = len(list(tmp_path.glob("*.done")))
        assert touched < 8

    def test_cells_finished_before_an_error_are_all_reported(self):
        # Item 0 is the costliest and first in expansion order; it fails
        # after 0.6 s while the other worker finishes items 1-5. A map in
        # expansion order raises at item 0 and reports none of the five,
        # so the sweep runner could not cache them.
        items = [
            helpers.Costed(
                v,
                cost=100.0 if v == 0 else 1.0,
                delay=0.6 if v == 0 else 0.05,
                poison=0,
            )
            for v in range(6)
        ]
        seen: list[int] = []
        with pytest.raises(ValueError, match="poisoned item 0"):
            PoolBackend(max_workers=2).run(
                items,
                helpers.eval_costed,
                on_complete=lambda pos, value: seen.append(pos),
            )
        assert sorted(seen) == [1, 2, 3, 4, 5]
