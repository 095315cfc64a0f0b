"""Distributed sweep fabric: a coordinator driving per-host worker agents.

The ``distributed`` execution backend scales a sweep past one machine
while keeping every contract the single-host backends pin:

* **Bit-identical reassembly.** Cells ship to workers as pickled
  :class:`~repro.scenarios.matrix.Scenario` specs over the length-prefixed
  socket protocol (:mod:`repro.scenarios.wire`), outcomes stream back in
  completion order, and the result list is reassembled in submission
  (expansion) order — so the :class:`~repro.scenarios.report.SweepReport`
  JSON matches ``serial``/``pool`` byte for byte.
* **One cost-ordered queue.** Every worker's ``next`` takes the head of
  one queue in :func:`~repro.scenarios.backends.dispatch_order`, the
  order the ``pool`` backend submits in: costliest
  :meth:`~repro.scenarios.matrix.Scenario.cost_estimate` first. A
  ``next`` that finds the queue empty while cells are still in flight
  waits for a requeued cell or the end of the run. Estimates order
  dispatch, never results.
* **The runner owns the cell cache.** The sweep runner skips cached
  cells before anything is dispatched and stores each cell as its result
  arrives here, so workers need no shared filesystem. A killed sweep
  restarts and evaluates only the cells that were not stored.
* **Loss tolerance.** A dead worker's in-flight cell goes back to the
  head of the queue (bounded by ``max_redispatch``); per-cell worker
  errors arrive as the same cell-naming
  :class:`~repro.errors.ExperimentError` chain the pool backend raises,
  and the first one fails the sweep fast — remaining workers drain to an
  orderly stop instead of chewing through the queue. A peer whose
  handshake is malformed, of another wire version, unauthenticated or
  silent past ``connect_timeout`` costs only its own connection.

Hosts are declared as ``host[:nproc]`` specs — ``local:4`` socket-launches
four slots on this machine (tests, CI, single-node speedups), anything
else is launched over SSH (``ssh HOST python3 -m repro.scenarios.worker
--connect ...``). Per-host throughput/loss counters surface in
``SweepReport.backend_stats`` via :meth:`DistributedBackend.stats`.
"""

from __future__ import annotations

import collections
import dataclasses
import hmac
import os
import queue as _queue
import socket
import subprocess
import sys
import threading
import time
import typing as _t

from ..errors import ExperimentError
from .backends import (
    CompletionCallback,
    Initializer,
    dispatch_order,
    register_backend,
)
from .wire import (
    AUTH_ENV,
    WIRE_VERSION,
    auth_digest,
    recv_json,
    recv_msg,
    send_json,
    send_msg,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .matrix import Scenario

__all__ = ["DistributedBackend", "HostSpec", "parse_hosts"]

#: Host names that mean "socket-launch on this machine" (no SSH).
LOCAL_HOSTS = ("local", "localhost", "127.0.0.1")


@dataclasses.dataclass(frozen=True)
class HostSpec:
    """One parsed ``host[:nproc]`` entry of the fleet declaration."""

    label: str
    host: str
    nproc: int = 1

    @property
    def is_local(self) -> bool:
        return self.host in LOCAL_HOSTS


def parse_hosts(hosts: "str | _t.Sequence[str]") -> tuple[HostSpec, ...]:
    """Parse a fleet declaration into :class:`HostSpec` entries.

    Accepts a comma-separated string or a sequence of ``host[:nproc]``
    tokens. ``local`` (also ``localhost``/``127.0.0.1``) launches workers
    on this machine without SSH. Repeated hosts get ``#2``, ``#3``, ...
    label suffixes so per-host stats stay distinguishable.
    """
    if isinstance(hosts, str):
        tokens = [t.strip() for t in hosts.split(",") if t.strip()]
    else:
        tokens = [str(t).strip() for t in hosts if str(t).strip()]
    if not tokens:
        raise ExperimentError("empty distributed hosts spec")
    specs: list[HostSpec] = []
    seen: collections.Counter[str] = collections.Counter()
    for token in tokens:
        host, sep, nproc_s = token.partition(":")
        if not host:
            raise ExperimentError(f"bad host spec {token!r} (want host[:nproc])")
        nproc = 1
        if sep:
            try:
                nproc = int(nproc_s)
            except ValueError:
                raise ExperimentError(
                    f"bad worker count in host spec {token!r}"
                ) from None
            if nproc < 1:
                raise ExperimentError(
                    f"host spec {token!r}: nproc must be >= 1"
                )
        seen[host] += 1
        label = host if seen[host] == 1 else f"{host}#{seen[host]}"
        specs.append(HostSpec(label=label, host=host, nproc=nproc))
    return tuple(specs)


@dataclasses.dataclass
class _HostState:
    """Coordinator-side ledger for one declared (or adopted) host label."""

    workers: int = 0
    ever_connected: int = 0
    completed: int = 0
    lost: int = 0
    wall_seconds: float = 0.0


class _RunState:
    """Everything one ``run()`` shares between handler threads."""

    def __init__(
        self,
        items: _t.Sequence[_t.Any],
        specs: _t.Sequence[HostSpec],
        setup: dict[str, _t.Any],
    ) -> None:
        self.items = items
        self.queue = collections.deque(dispatch_order(items))
        self.hosts = {spec.label: _HostState() for spec in specs}
        self.setup = setup
        self.lock = threading.Lock()
        # Wakes handlers parked in take(): notified on a requeue and on
        # stop or fail (teardown stops the run right after its last
        # result).
        self.changed = threading.Condition(self.lock)
        self.events: _queue.Queue = _queue.Queue()
        self.remaining = len(items)
        self.redispatch: collections.Counter[int] = collections.Counter()
        self.error: BaseException | None = None
        self.stop = False
        # Handlers of accepted peers: the only ones teardown waits for.
        self.handlers: list[threading.Thread] = []

    def take(self) -> int | None:
        """The queue's head for a worker's ``next`` (caller holds the lock).

        While the queue is empty but cells are in flight, wait: a lost
        worker's cell may come back. ``None`` once the run is over.
        """
        while not (self.stop or self.queue or self.remaining == 0):
            self.changed.wait()
        return None if self.stop or not self.queue else self.queue.popleft()

    def halt(self) -> None:
        """Stop dispatch, release parked handlers (caller holds the lock)."""
        self.stop = True
        self.changed.notify_all()

    def fail(self, exc: BaseException) -> None:
        # First error wins; halting gates further dispatch so workers
        # drain to ("done",) instead of evaluating the rest of the queue.
        if self.error is None:
            self.error = exc
        self.halt()
        self.events.put(("failed", None, None))


def _src_dir() -> str:
    """The directory containing the ``repro`` package, for worker PYTHONPATH."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@register_backend("distributed")
class DistributedBackend:
    """Multi-host coordinator backend (see the module docstring).

    ``hosts`` takes the fleet declaration (:func:`parse_hosts` format).
    ``launch=False`` skips launching agents: workers joined externally (a
    manually started fleet, or in-process test threads via the
    ``on_listen`` hook) are adopted by label. ``connect_timeout`` bounds
    both the wait for the first worker and each peer's handshake.

    Note the runner's ``--jobs``/``max_workers`` knob does not cap this
    backend — parallelism is the sum of ``nproc`` slots in ``hosts``.
    """

    name = "distributed"

    def __init__(
        self,
        hosts: "str | _t.Sequence[str]" = "local",
        python: str | None = None,
        ssh_command: _t.Sequence[str] = ("ssh",),
        bind: str | None = None,
        advertise: str | None = None,
        connect_timeout: float = 20.0,
        max_redispatch: int = 2,
        launch: bool = True,
        on_listen: _t.Callable[[str, int], None] | None = None,
        auth_token: str | None = None,
    ) -> None:
        self.specs = parse_hosts(hosts)
        self.python = python
        self.ssh_command = tuple(ssh_command)
        self.bind = bind
        self.advertise = advertise
        self.connect_timeout = float(connect_timeout)
        self.max_redispatch = int(max_redispatch)
        self.launch = launch
        self.on_listen = on_listen
        # A set token turns the hello handshake into an HMAC challenge:
        # every connecting worker must prove it holds the same secret
        # before any pickle crosses the wire in either direction (pickles
        # execute code on load — never deserialise for an unauthenticated
        # peer).
        if auth_token is None:
            auth_token = os.environ.get(AUTH_ENV) or None
        self.auth_token = auth_token
        self._stats: dict[str, _t.Any] = {}

    # -- registry surface ----------------------------------------------------
    def workers_for(self, n_tasks: int) -> int:
        slots = sum(spec.nproc for spec in self.specs)
        return max(1, min(slots, n_tasks)) if n_tasks else 1

    def stats(self) -> dict[str, _t.Any]:
        """Per-host throughput/loss diagnostics of the last :meth:`run`."""
        return dict(self._stats)

    # -- connection handling -------------------------------------------------
    def _requeue(self, st: _RunState, pos: int) -> None:
        """Return a dead worker's in-flight cell to the head of the queue."""
        st.redispatch[pos] += 1
        if st.redispatch[pos] > self.max_redispatch:
            name = getattr(st.items[pos], "scenario_id", None) or f"task {pos}"
            st.fail(
                ExperimentError(
                    f"{name} lost its worker {st.redispatch[pos]} time(s) "
                    f"(max_redispatch={self.max_redispatch}); giving up"
                )
            )
            return
        st.queue.appendleft(pos)
        st.changed.notify_all()

    @staticmethod
    def _authenticated(conn: socket.socket, token: str) -> bool:
        """Challenge the peer with a fresh nonce; does it hold ``token``?"""
        nonce = os.urandom(16).hex()
        send_json(conn, ["challenge", nonce])
        answer = recv_json(conn)
        return (
            isinstance(answer, list)
            and len(answer) == 2
            and answer[0] == "auth"
            and isinstance(answer[1], str)
            # Bytes, not str: compare_digest raises on non-ASCII text.
            and hmac.compare_digest(
                answer[1].encode("utf-8"),
                auth_digest(token, nonce).encode("utf-8"),
            )
        )

    def _handshake(self, conn: socket.socket) -> str | None:
        """The peer's label once its JSON handshake is accepted, else ``None``.

        Nothing from the peer is unpickled here, and ``connect_timeout``
        bounds every read, so a garbage, stale, unauthenticated or silent
        peer costs only its own connection. A rejected peer is told why
        when its socket still takes a reply.
        """
        conn.settimeout(self.connect_timeout)
        try:
            hello = recv_json(conn)
            if hello is None:
                return None
            if not (
                isinstance(hello, list)
                and len(hello) == 4
                and hello[0] == "hello"
                and isinstance(hello[2], str)
            ):
                reason = "malformed hello"
            elif hello[1] != WIRE_VERSION:
                reason = (
                    f"wire version {hello[1]!r}; coordinator speaks "
                    f"{WIRE_VERSION}"
                )
            elif self.auth_token is not None and not self._authenticated(
                conn, self.auth_token
            ):
                reason = (
                    "authentication failed: token does not match the "
                    f"coordinator's (check --auth-token / ${AUTH_ENV})"
                )
            else:
                send_json(conn, ["accept"])
                conn.settimeout(None)
                return hello[2]
        except (ValueError, RecursionError, ExperimentError) as exc:
            reason = f"malformed handshake frame ({type(exc).__name__})"
        send_json(conn, ["reject", reason])
        return None

    def _serve_connection(self, st: _RunState, conn: socket.socket) -> None:
        host: _HostState | None = None
        in_flight: int | None = None
        orderly = False
        try:
            label = self._handshake(conn)
            if label is None:
                return
            with st.lock:
                # An externally-joined worker under an undeclared label
                # (launch=False fleets) is adopted; it pulls from the same
                # queue as every declared host.
                host = st.hosts.setdefault(label, _HostState())
                host.workers += 1
                host.ever_connected += 1
                st.handlers.append(threading.current_thread())
            send_msg(conn, st.setup)
            while True:
                msg = recv_msg(conn)
                if msg is None:
                    return
                kind = msg[0]
                if kind == "next":
                    with st.lock:
                        in_flight = st.take()
                    if in_flight is None:
                        orderly = True
                        send_msg(conn, ("done",))
                        return
                    send_msg(conn, ("task", in_flight, st.items[in_flight]))
                elif kind == "result":
                    _, pos, outcome = msg
                    in_flight = None
                    with st.lock:
                        st.remaining -= 1
                        host.completed += 1
                        host.wall_seconds += float(
                            getattr(outcome, "wall_seconds", 0.0) or 0.0
                        )
                    st.events.put(("result", pos, outcome))
                elif kind == "error":
                    _, pos, exc = msg
                    in_flight = None
                    with st.lock:
                        st.fail(
                            exc
                            if isinstance(exc, BaseException)
                            else ExperimentError(str(exc))
                        )
                else:
                    send_msg(conn, ("reject", f"unknown message {kind!r}"))
                    return
        except (ConnectionError, OSError):
            pass  # worker vanished; loss accounting below
        except Exception as exc:  # defensive: a handler must never die silently
            with st.lock:
                st.fail(exc)
        finally:
            try:
                conn.close()
            except OSError:
                pass
            if host is not None:
                with st.lock:
                    host.workers -= 1
                    if not orderly and not st.stop:
                        host.lost += 1
                        if in_flight is not None:
                            self._requeue(st, in_flight)

    # -- worker launching ----------------------------------------------------
    def launch_argv(self, spec: HostSpec, port: int) -> list[str]:
        """The launch command for one host's agent (unit-testable)."""
        python = self.python or (
            sys.executable if spec.is_local else "python3"
        )
        connect_host = (
            "127.0.0.1"
            if spec.is_local
            else (self.advertise or socket.gethostname())
        )
        worker = [
            python, "-m", "repro.scenarios.worker",
            "--connect", f"{connect_host}:{port}",
            "--label", spec.label,
            "--nproc", str(spec.nproc),
            "--timeout", f"{self.connect_timeout:g}",
        ]
        if self.auth_token is not None:
            worker += ["--auth-token", self.auth_token]
        if spec.is_local:
            return worker
        return [*self.ssh_command, spec.host, *worker]

    def _launch(self, spec: HostSpec, port: int) -> subprocess.Popen:
        argv = self.launch_argv(spec, port)
        env = None
        if spec.is_local:
            # The agent must import repro even when the coordinator runs
            # from a source tree with a relative PYTHONPATH and a
            # different cwd.
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (_src_dir(), env.get("PYTHONPATH")) if p
            )
        return subprocess.Popen(argv, env=env)

    # -- health --------------------------------------------------------------
    def _check_health(
        self,
        st: _RunState,
        procs: _t.Sequence[subprocess.Popen],
        deadline: float,
    ) -> None:
        with st.lock:
            if st.remaining == 0 or st.error is not None:
                return
            live = sum(h.workers for h in st.hosts.values())
            ever = sum(h.ever_connected for h in st.hosts.values())
            if live > 0:
                return
            if ever == 0:
                if time.monotonic() < deadline:
                    return
                st.fail(
                    ExperimentError(
                        f"distributed backend: no worker connected within "
                        f"{self.connect_timeout:.0f}s "
                        f"(hosts: {[s.label for s in self.specs]})"
                    )
                )
                return
            if any(proc.poll() is None for proc in procs):
                return  # a launched agent is still alive and may (re)connect
            st.fail(
                ExperimentError(
                    f"distributed backend: all workers exited with "
                    f"{st.remaining} cell(s) unfinished"
                )
            )

    # -- the run -------------------------------------------------------------
    def run(
        self,
        scenarios: _t.Sequence["Scenario"],
        fn: _t.Callable[["Scenario"], _t.Any],
        on_complete: CompletionCallback | None = None,
        initializer: Initializer | None = None,
        initargs: tuple = (),
    ) -> list[_t.Any]:
        if not scenarios:
            return []
        items = list(scenarios)
        st = _RunState(
            items,
            self.specs,
            {
                "fn": fn,
                "initializer": initializer,
                "initargs": tuple(initargs) if initializer is not None else (),
            },
        )

        bind = self.bind or (
            "127.0.0.1"
            if all(spec.is_local for spec in self.specs)
            else "0.0.0.0"
        )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((bind, 0))
        listener.listen(128)
        # Closing a listening socket does not wake a thread already blocked
        # in accept() on Linux, so poll instead: the loop notices st.stop
        # (or the closed fd) within one timeout instead of stalling the
        # teardown join.
        listener.settimeout(0.1)
        port = listener.getsockname()[1]

        conns: list[socket.socket] = []

        def _accept_loop() -> None:
            while True:
                try:
                    conn, _addr = listener.accept()
                except TimeoutError:
                    if st.stop:
                        return
                    continue
                except OSError:
                    return  # listener closed: run is over
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with st.lock:
                    conns.append(conn)
                threading.Thread(
                    target=self._serve_connection,
                    args=(st, conn),
                    daemon=True,
                ).start()

        accept_thread = threading.Thread(target=_accept_loop, daemon=True)
        accept_thread.start()

        procs: list[subprocess.Popen] = []
        error: BaseException | None = None
        out: list[_t.Any] = [None] * len(items)
        try:
            if self.launch:
                procs = [self._launch(spec, port) for spec in self.specs]
            if self.on_listen is not None:
                self.on_listen(bind, port)
            deadline = time.monotonic() + self.connect_timeout
            completed = 0
            while completed < len(items):
                try:
                    kind, pos, outcome = st.events.get(timeout=0.25)
                except _queue.Empty:
                    self._check_health(st, procs, deadline)
                    continue
                if kind == "failed":
                    break
                out[pos] = outcome
                completed += 1
                if on_complete is not None:
                    # Fired from the coordinator thread only, in true
                    # completion order — same contract as the pool
                    # backend's parent-side callbacks.
                    on_complete(pos, outcome)
        finally:
            with st.lock:
                error = st.error
                st.halt()
                handlers = list(st.handlers)
            try:
                listener.close()
            except OSError:
                pass
            # Let accepted workers drain to their orderly ("done",); a peer
            # still in its handshake is not waited for ...
            for thread in handlers:
                thread.join(timeout=5.0)
            # ... then drop anything still wedged and reap the agents.
            with st.lock:
                pending_conns = list(conns)
            for conn in pending_conns:
                try:
                    # shutdown wakes a handler blocked in a handshake read.
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
            for proc in procs:
                if proc.poll() is None:
                    try:
                        proc.terminate()
                    except OSError:
                        pass
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            accept_thread.join(timeout=1.0)
            self._stats = {
                "hosts": {
                    label: {
                        "workers": h.ever_connected,
                        "completed": h.completed,
                        "lost": h.lost,
                        "wall_seconds": round(h.wall_seconds, 6),
                    }
                    for label, h in sorted(st.hosts.items())
                },
                "redispatched": sum(st.redispatch.values()),
            }
        if error is not None:
            raise error
        return out
