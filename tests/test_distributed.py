"""Distributed sweep fabric: wire framing, host parsing, the coordinator
backend (in-thread and real subprocess workers), its one cost-ordered
queue, the runner as the only cell-cache writer, hostile peers, loss
re-dispatch, 3-way bit-identity, and resume-after-kill."""

from __future__ import annotations

import collections
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
from repro.scenarios import distributed
from repro.scenarios.backends import dispatch_order
from repro.scenarios.cache import CellCache
from repro.scenarios.matrix import parse_fault
from repro.scenarios.wire import (
    AUTH_ENV,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    auth_digest,
    connect_with_retry,
    recv_json,
    recv_msg,
    send_json,
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

    def test_dispatch_order_is_costliest_first_ties_by_position(self):
        # Items without an estimate weigh 1.
        items = [
            helpers.Costed(0, cost=0.5),
            "no estimate",
            helpers.Costed(2, cost=3.0),
            7,
            helpers.Costed(4, cost=1.0),
        ]
        assert dispatch_order(items) == [2, 1, 3, 4, 0]
        assert dispatch_order([]) == []

    def test_empty_run_is_a_no_op(self):
        backend = DistributedBackend(hosts="local:2")
        assert backend.run([], helpers.double) == []
        assert backend.stats() == {}


# ---------------------------------------------------------------------------
# in-thread workers (fast paths: ordering, the one queue, errors)


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

    def test_one_queue_hands_out_cells_in_dispatch_order(
        self, tmp_path, monkeypatch
    ):
        # Item 0, the costliest, holds whichever agent draws it until the
        # other five are done: the other agent must complete all five
        # from the same queue, and every next takes the queue's head.
        handed: list[int] = []
        take = distributed._RunState.take

        def recording_take(st):
            pos = take(st)
            if pos is not None:
                handed.append(pos)
            return pos

        monkeypatch.setattr(distributed._RunState, "take", recording_take)
        costs = [10.0, 9.0, 1.0, 1.0, 1.0, 1.0]
        items = [
            helpers.Costed(
                i, cost=c, delay=0.01, out_dir=str(tmp_path),
                hold_for=5 if i == 0 else 0,
            )
            for i, c in enumerate(costs)
        ]
        backend, out = _run_inthread(items, helpers.eval_costed)
        assert out == list(range(6))
        assert handed == dispatch_order(items)
        hosts = backend.stats()["hosts"].values()
        assert sorted(h["completed"] for h in hosts) == [1, 5]

    def test_pool_and_coordinator_hand_out_cells_in_one_order(self):
        # One worker each, so completion order is hand-out order.
        costs = [1.0, 5.0, 5.0, 2.0, 9.0, 1.0, 5.0]
        items = [helpers.Costed(i, cost=c) for i, c in enumerate(costs)]
        pool_seen: list[int] = []
        PoolBackend(max_workers=1).run(
            items, helpers.eval_costed,
            on_complete=lambda pos, _: pool_seen.append(pos),
        )
        fabric_seen: list[int] = []
        _run_inthread(
            items, helpers.eval_costed, hosts="alpha",
            on_complete=lambda pos, _: fabric_seen.append(pos),
        )
        assert pool_seen == fabric_seen == [4, 1, 2, 6, 3, 0, 5]

    def test_run_returns_promptly_after_the_last_result(self, monkeypatch):
        # Teardown wakes the accept thread by shutting the listener down;
        # a 0.1 s accept poll used to hold every run that long.
        returned: list[float] = []
        run = DistributedBackend.run

        def timed(self, *args, **kwargs):
            try:
                return run(self, *args, **kwargs)
            finally:
                returned.append(time.perf_counter())

        monkeypatch.setattr(DistributedBackend, "run", timed)
        completed: list[float] = []
        items = [helpers.Costed(i) for i in range(4)]
        _, out = _run_inthread(
            items, helpers.eval_costed,
            on_complete=lambda pos, outcome: completed.append(time.perf_counter()),
        )
        assert out == list(range(4))
        assert returned[0] - completed[-1] < 0.05

    def test_externally_joined_unknown_label_is_adopted(self):
        # One declared host, but a second worker joins under a label the
        # coordinator never planned for: it gets adopted and pulls from
        # the same queue.
        items = [helpers.Costed(i, delay=0.02) for i in range(6)]
        backend, out = _run_inthread(
            items, helpers.eval_costed,
            hosts="alpha", labels=("alpha", "gamma"),
        )
        assert out == list(range(6))
        stats = backend.stats()
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


# ---------------------------------------------------------------------------
# handshake authentication


class TestWireAuth:
    """Token-protected fabrics HMAC-challenge every hello; peers that
    cannot answer are rejected before any pickle crosses the wire."""

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
            hello = recv_json(conn)
            assert hello[0] == "hello"
            reply_fn(conn)
            conn.close()

        # Missing token: the worker refuses the challenge locally.
        thread = threading.Thread(
            target=fake_coordinator,
            args=(lambda c: send_json(c, ["challenge", "abcd"]),),
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
            send_json(conn, ["challenge", "abcd"])
            answer = recv_json(conn)
            assert answer[0] == "auth"
            assert answer[1] != auth_digest("right", "abcd")
            send_json(conn, ["reject", "authentication failed: bad token"])

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
# peers that are not workers


class _CreatesFile:
    """Unpickling this creates ``path``: a stand-in for code a peer could
    run on any process that unpickles its bytes."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _send_raw_frame(sock, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _non_ascii_auth(sock, marker) -> None:
    """Answer the challenge with text ``hmac.compare_digest`` refuses to
    compare (it raises on non-ASCII str)."""
    send_json(sock, ["hello", WIRE_VERSION, "intruder", 0])
    sock.settimeout(5.0)
    assert recv_json(sock)[0] == "challenge"
    send_json(sock, ["auth", "\u00e9" * 64])


#: What peers that are not workers send first, and whether the peer can
#: expect the coordinator's reject. A raw HTTP request leaves unread
#: bytes on the coordinator's side, so its close may reset the socket
#: before the reject is read.
HOSTILE_PEERS = {
    "pickled-hello": (
        lambda sock, marker: send_msg(sock, _CreatesFile(marker)), True
    ),
    "framed-http": (
        lambda sock, marker: _send_raw_frame(sock, b"GET / HTTP/1.0\r\n\r\n"),
        True,
    ),
    "raw-http": (
        lambda sock, marker: sock.sendall(b"GET / HTTP/1.0\r\n\r\n"), False
    ),
    "stale-version": (
        lambda sock, marker: send_json(sock, ["hello", 1, "old", 0]), True
    ),
    "deep-json": (
        lambda sock, marker: _send_raw_frame(sock, b"[" * 60000), True
    ),
    "silent": (lambda sock, marker: None, False),
    "non-ascii-auth": (_non_ascii_auth, True),
}

#: Every peer on a token-protected and an open fabric, except that only
#: a token-protected one sends the challenge ``non-ascii-auth`` answers.
PEER_CASES = [
    (peer, token)
    for peer in sorted(HOSTILE_PEERS)
    for token in ("s3cret", None)
    if (peer, token) != ("non-ascii-auth", None)
]


class TestHostilePeers:
    """A peer whose handshake is garbage, pickled, stale or missing costs
    only its own connection, and nothing it sends is unpickled."""

    @pytest.mark.parametrize("peer,token", PEER_CASES)
    def test_sweep_survives_the_peer(self, peer, token, tmp_path, monkeypatch):
        monkeypatch.delenv(AUTH_ENV, raising=False)
        send_first, expects_reject = HOSTILE_PEERS[peer]
        marker = str(tmp_path / "unpickled.marker")
        probe = socket.socket()
        threads: list[threading.Thread] = []
        done_at: list[float] = []

        def on_listen(host, port):
            # The peer connects and speaks before any worker exists, so
            # its connection is handled while the run is live.
            probe.connect((host, port))
            send_first(probe, marker)
            if expects_reject:
                probe.settimeout(5.0)
                assert recv_json(probe)[0] == "reject"
            thread = threading.Thread(
                target=serve,
                args=((host, port), "local"),
                kwargs={"connect_timeout": 5.0, "auth_token": token},
                daemon=True,
            )
            thread.start()
            threads.append(thread)

        backend = DistributedBackend(
            hosts="local",
            launch=False,
            bind="127.0.0.1",
            connect_timeout=10.0,
            on_listen=on_listen,
            auth_token=token,
        )
        try:
            out = backend.run(
                [-1, -2, -3, -4],
                abs,
                on_complete=lambda pos, _: done_at.append(time.monotonic()),
            )
            ended = time.monotonic()
        finally:
            probe.close()
            for thread in threads:
                thread.join(timeout=10.0)
        assert out == [1, 2, 3, 4]
        assert not os.path.exists(marker)
        # A peer still in its handshake does not hold up teardown.
        assert ended - done_at[-1] < 1.0
        stats = backend.stats()
        assert set(stats["hosts"]) == {"local"}
        assert stats["hosts"]["local"]["lost"] == 0


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

    def test_waiting_worker_gets_a_lost_workers_cell(
        self, worker_env, tmp_path
    ):
        # The costliest cell goes out first; it holds its agent until the
        # other agent has drained the five cheap cells (whose next then
        # waits on the empty queue), and 0.2 s later kills its agent. The
        # waiting agent must be handed the requeued cell.
        items = [
            helpers.Costed(
                i,
                cost=10.0 if i == 0 else 1.0,
                delay=0.2 if i == 0 else 0.0,
                out_dir=str(tmp_path),
                poison=0,
                hold_for=5 if i == 0 else 0,
            )
            for i in range(6)
        ]
        backend = DistributedBackend(hosts="local:2", connect_timeout=60.0)
        result: dict = {}

        def run():
            start = time.monotonic()
            result["out"] = backend.run(items, helpers.exit_once_costed)
            result["wall"] = time.monotonic() - start

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "the requeued cell was never handed out"
        assert result["out"] == list(range(6))
        assert os.path.exists(tmp_path / "exited.marker")
        assert result["wall"] < 60.0
        stats = backend.stats()
        assert stats["redispatched"] == 1
        assert stats["hosts"]["local"]["lost"] == 1
        assert stats["hosts"]["local"]["completed"] == 6


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

    def test_runner_is_the_only_cell_cache_reader_and_writer(
        self, tmp_path, monkeypatch
    ):
        # CI's 6-cell distributed matrix on in-thread workers: every cell
        # is looked up once before dispatch and stored once on completion,
        # and a rerun replays all six.
        calls: collections.Counter[str] = collections.Counter()
        lookup, store = CellCache.lookup, CellCache.store

        def counted_lookup(cache, scenario):
            calls["lookup"] += 1
            return lookup(cache, scenario)

        def counted_store(cache, scenario, result):
            calls["store"] += 1
            return store(cache, scenario, result)

        monkeypatch.setattr(CellCache, "lookup", counted_lookup)
        monkeypatch.setattr(CellCache, "store", counted_store)
        matrix = ScenarioMatrix(
            workflows=("IA",),
            arrivals=(
                ArrivalSpec("constant"),
                ArrivalSpec("poisson", rate_per_s=6.0),
                ArrivalSpec("poisson", rate_per_s=12.0),
            ),
            slo_scales=(1.0, 1.25),
            tenant_counts=(1,),
            policies=("Janus",),
            n_requests=20,
            samples=300,
        )

        def sweep():
            threads: list[threading.Thread] = []

            def on_listen(host, port):
                for label in ("alpha", "beta"):
                    thread = threading.Thread(
                        target=serve, args=((host, port), label), daemon=True
                    )
                    thread.start()
                    threads.append(thread)

            try:
                return SweepRunner(
                    backend="distributed",
                    cache_dir=tmp_path,
                    backend_options={
                        "hosts": "alpha,beta",
                        "launch": False,
                        "bind": "127.0.0.1",
                        "connect_timeout": 10.0,
                        "on_listen": on_listen,
                    },
                ).run(matrix)
            finally:
                for thread in threads:
                    thread.join(timeout=10.0)

        cold = sweep()
        assert calls == {"lookup": 6, "store": 6}
        assert cold.cell_cache == {"hits": 0, "misses": 6}
        warm = sweep()
        assert warm.cell_cache == {"hits": 6, "misses": 0}
        assert warm.to_json() == cold.to_json()

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

        # Cold distributed run, SIGKILLed after the first evaluated cell's
        # progress line (the coordinator stores each cell before it
        # prints that cell's line, so the cell is already cached).
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
        # Only the coordinator writes cells/, and it has been reaped, so
        # this is the resume run's exact hit count. Cells its orphaned
        # agents had in flight are evaluated again on resume. A kill in
        # the middle of a store can leave a .tmp-* file, which is no cell.
        stored = len(list((cache_dir / "cells").glob("*.json")))
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

    def test_hosts_flag_requires_distributed_backend(self, cli_error):
        assert cli_error(
            ["sweep", "--workflows", "IA", "--arrivals", "constant",
             "--hosts", "local:2"]
        ) == "--hosts requires --backend distributed"

    def test_auth_token_flag_requires_distributed_backend(self, cli_error):
        assert cli_error(
            ["sweep", "--workflows", "IA", "--backend", "pool",
             "--auth-token", "s3cret"]
        ) == "--auth-token requires --backend distributed"


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
