"""Distributed sweep fabric: a coordinator driving per-host worker agents.

The ``distributed`` execution backend scales a sweep past one machine
while keeping every contract the single-host backends pin:

* **Bit-identical reassembly.** Cells ship to workers as pickled
  :class:`~repro.scenarios.matrix.Scenario` specs over the length-prefixed
  socket protocol (:mod:`repro.scenarios.wire`), outcomes stream back in
  completion order, and the result list is reassembled in submission
  (expansion) order — so the :class:`~repro.scenarios.report.SweepReport`
  JSON matches ``serial``/``pool`` byte for byte.
* **Shared resume log.** The content-addressed
  :class:`~repro.scenarios.cache.CellCache` is the fabric's ledger: the
  runner skips cached cells before anything is dispatched, and workers
  look up / write through either a shared cache directory (``shared``
  mode, same filesystem on every host) or a GET/PUT exchange over the
  task socket (``protocol`` mode, no shared filesystem needed). A killed
  10k-cell sweep restarts and evaluates only the remainder, and no host
  re-runs a cell another host already stored.
* **Cost-ordered scheduling.** Each cell's
  :meth:`~repro.scenarios.matrix.Scenario.cost_estimate` orders the
  initial per-host queues (longest-processing-time assignment weighted by
  each host's slot count, most-expensive-first within a queue), and the
  pull-based loop lets a drained host *steal* from the host with the most
  remaining estimated work — estimates order dispatch, never results.
* **Loss tolerance.** A dead worker's in-flight cells are re-queued and
  re-dispatched (bounded by ``max_redispatch``); per-cell worker errors
  arrive as the same cell-naming :class:`~repro.errors.ExperimentError`
  chain the pool backends raise, and the first one fails the sweep fast
  — remaining workers drain to an orderly stop instead of chewing
  through the queue.

Hosts are declared as ``host[:nproc]`` specs — ``local:4`` socket-launches
four slots on this machine (tests, CI, single-node speedups), anything
else is launched over SSH (``ssh HOST python3 -m repro.scenarios.worker
--connect ...``). Per-host throughput/steal/loss counters surface in
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
from .backends import CompletionCallback, Initializer, register_backend
from .wire import AUTH_ENV, WIRE_VERSION, auth_digest, recv_msg, send_msg

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
    """Coordinator-side ledger for one declared host."""

    spec: HostSpec
    queue: collections.deque = dataclasses.field(
        default_factory=collections.deque
    )
    queued_cost: float = 0.0
    workers: int = 0
    ever_connected: int = 0
    completed: int = 0
    steals: int = 0
    lost: int = 0
    wall_seconds: float = 0.0
    cache_hits: int = 0


class _RunState:
    """Everything one ``run()`` shares between handler threads."""

    def __init__(
        self,
        items: _t.Sequence[_t.Any],
        costs: _t.Sequence[float],
        specs: _t.Sequence[HostSpec],
        idle_delay: float,
    ) -> None:
        self.items = items
        self.costs = costs
        self.hosts = {spec.label: _HostState(spec) for spec in specs}
        self.idle_delay = idle_delay
        self.lock = threading.Lock()
        self.events: _queue.Queue = _queue.Queue()
        self.remaining = len(items)
        self.redispatch: collections.Counter[int] = collections.Counter()
        self.redispatched = 0
        self.error: BaseException | None = None
        self.stop = False
        self.connected = threading.Event()
        self.cache: _t.Any = None
        self.cache_gets = 0
        self.cache_get_hits = 0
        self.cache_puts = 0
        self.setup: dict[str, _t.Any] = {}

    def fail(self, exc: BaseException) -> None:
        # First error wins; stopping gates further dispatch so workers
        # drain to ("done",) instead of evaluating the rest of the queue.
        if self.error is None:
            self.error = exc
        self.stop = True


def _src_dir() -> str:
    """The directory containing the ``repro`` package, for worker PYTHONPATH."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@register_backend("distributed")
class DistributedBackend:
    """Multi-host coordinator backend (see the module docstring).

    ``hosts`` takes the fleet declaration (:func:`parse_hosts` format).
    ``cache_dir``/``cache_mode`` configure the shared resume log — the
    sweep runner passes its own cache dir through automatically, and the
    mode defaults to ``shared`` whenever a cache dir exists (pass
    ``"protocol"`` when worker hosts cannot see the coordinator's
    filesystem). ``launch=False`` skips launching agents: workers joined
    externally (a manually started fleet, or in-process test threads via
    the ``on_listen`` hook) are adopted by label.

    Note the runner's ``--jobs``/``max_workers`` knob does not cap this
    backend — parallelism is the sum of ``nproc`` slots in ``hosts``.
    """

    name = "distributed"

    def __init__(
        self,
        hosts: "str | _t.Sequence[str]" = "local",
        cache_dir: "str | os.PathLike[str] | None" = None,
        cache_mode: str | None = None,
        python: str | None = None,
        ssh_command: _t.Sequence[str] = ("ssh",),
        bind: str | None = None,
        advertise: str | None = None,
        connect_timeout: float = 20.0,
        idle_delay: float = 0.05,
        max_redispatch: int = 2,
        launch: bool = True,
        on_listen: _t.Callable[[str, int], None] | None = None,
        auth_token: str | None = None,
    ) -> None:
        self.specs = parse_hosts(hosts)
        if cache_mode not in (None, "shared", "protocol"):
            raise ExperimentError(
                f"unknown distributed cache mode {cache_mode!r} "
                f"(use 'shared' or 'protocol')"
            )
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.cache_mode = cache_mode
        self.python = python
        self.ssh_command = tuple(ssh_command)
        self.bind = bind
        self.advertise = advertise
        self.connect_timeout = float(connect_timeout)
        self.idle_delay = float(idle_delay)
        self.max_redispatch = int(max_redispatch)
        self.launch = launch
        self.on_listen = on_listen
        # A set token turns the hello handshake into an HMAC challenge:
        # every connecting worker must prove it holds the same secret
        # before the pickled setup payload is sent (pickles execute code
        # on load — never deserialise for an unauthenticated peer).
        if auth_token is None:
            auth_token = os.environ.get(AUTH_ENV) or None
        self.auth_token = auth_token
        self._stats: dict[str, _t.Any] = {}

    # -- registry surface ----------------------------------------------------
    def workers_for(self, n_tasks: int) -> int:
        slots = sum(spec.nproc for spec in self.specs)
        return max(1, min(slots, n_tasks)) if n_tasks else 1

    def stats(self) -> dict[str, _t.Any]:
        """Per-host scheduling diagnostics of the last :meth:`run`."""
        return dict(self._stats)

    # -- scheduling ----------------------------------------------------------
    def _costs(self, items: _t.Sequence[_t.Any]) -> list[float]:
        out: list[float] = []
        for item in items:
            try:
                out.append(float(item.cost_estimate()))
            except Exception:
                out.append(1.0)
        return out

    def _assign(self, st: _RunState) -> None:
        """LPT assignment: costliest cells first, to the least-loaded host.

        Load is normalised by slot count so ``big:4`` absorbs four times
        the work of ``small:1``. Each host queue ends up in descending
        cost order, so ``popleft`` is most-expensive-first dispatch.
        """
        order = sorted(
            range(len(st.items)), key=lambda pos: (-st.costs[pos], pos)
        )
        loads = {label: 0.0 for label in st.hosts}
        for pos in order:
            label = min(
                st.hosts,
                key=lambda lb: (loads[lb] / st.hosts[lb].spec.nproc, lb),
            )
            host = st.hosts[label]
            host.queue.append(pos)
            host.queued_cost += st.costs[pos]
            loads[label] += st.costs[pos]

    def _pick(self, st: _RunState, host: _HostState) -> int | None:
        """Next position for a worker of ``host`` (caller holds the lock).

        Own queue first; a drained host steals from the victim with the
        most remaining estimated work, which is exactly the host whose
        straggler risk is highest.
        """
        if host.queue:
            pos = host.queue.popleft()
            host.queued_cost -= st.costs[pos]
            return pos
        victims = [h for h in st.hosts.values() if h.queue]
        if not victims:
            return None
        victim = max(victims, key=lambda h: (h.queued_cost, h.spec.label))
        pos = victim.queue.popleft()
        victim.queued_cost -= st.costs[pos]
        host.steals += 1
        return pos

    def _requeue(self, st: _RunState, host: _HostState, pos: int) -> None:
        """Return a dead worker's in-flight cell to its host queue."""
        st.redispatch[pos] += 1
        st.redispatched += 1
        if st.redispatch[pos] > self.max_redispatch:
            name = getattr(st.items[pos], "scenario_id", None) or f"task {pos}"
            st.fail(
                ExperimentError(
                    f"{name} lost its worker {st.redispatch[pos]} time(s) "
                    f"(max_redispatch={self.max_redispatch}); giving up"
                )
            )
            st.events.put(("failed", None, None))
            return
        host.queue.appendleft(pos)
        host.queued_cost += st.costs[pos]

    # -- connection handling -------------------------------------------------
    def _serve_connection(self, st: _RunState, conn: socket.socket) -> None:
        host: _HostState | None = None
        in_flight: int | None = None
        orderly = False
        try:
            hello = recv_msg(conn)
            if not (
                isinstance(hello, tuple)
                and len(hello) == 4
                and hello[0] == "hello"
            ):
                send_msg(conn, ("reject", "malformed hello"))
                return
            _, version, label, _pid = hello
            if version != WIRE_VERSION:
                send_msg(
                    conn,
                    (
                        "reject",
                        f"wire version {version!r}; coordinator speaks "
                        f"{WIRE_VERSION}",
                    ),
                )
                return
            if self.auth_token is not None:
                # Fresh nonce per connection; the worker must answer with
                # the HMAC of it under the shared secret before anything
                # else (registration, setup pickle) happens.
                nonce = os.urandom(16).hex()
                send_msg(conn, ("challenge", nonce))
                answer = recv_msg(conn)
                if not (
                    isinstance(answer, tuple)
                    and len(answer) == 2
                    and answer[0] == "auth"
                    and isinstance(answer[1], str)
                    and hmac.compare_digest(
                        answer[1], auth_digest(self.auth_token, nonce)
                    )
                ):
                    send_msg(
                        conn,
                        (
                            "reject",
                            "authentication failed: token does not match "
                            "the coordinator's (check --auth-token / "
                            f"${AUTH_ENV})",
                        ),
                    )
                    return
            with st.lock:
                host = st.hosts.get(label)
                if host is None:
                    # Externally-joined worker under an undeclared label
                    # (launch=False fleets): adopt it with an empty queue —
                    # it lives entirely off stealing.
                    host = st.hosts[label] = _HostState(
                        HostSpec(label=label, host=label, nproc=1)
                    )
                host.workers += 1
                host.ever_connected += 1
            st.connected.set()
            send_msg(conn, ("setup", st.setup))
            while True:
                msg = recv_msg(conn)
                if msg is None:
                    return
                kind = msg[0]
                if kind == "next":
                    with st.lock:
                        if st.stop or st.remaining == 0:
                            reply: tuple = ("done",)
                            orderly = True
                        else:
                            pos = self._pick(st, host)
                            if pos is None:
                                reply = ("idle", st.idle_delay)
                            else:
                                in_flight = pos
                                reply = ("task", pos, st.items[pos])
                    send_msg(conn, reply)
                    if orderly:
                        return
                elif kind == "result":
                    _, pos, outcome, was_hit = msg
                    in_flight = None
                    with st.lock:
                        st.remaining -= 1
                        host.completed += 1
                        host.wall_seconds += float(
                            getattr(outcome, "wall_seconds", 0.0) or 0.0
                        )
                        if was_hit:
                            host.cache_hits += 1
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
                    st.events.put(("failed", None, None))
                elif kind == "cache_get":
                    _, pos = msg
                    hit = (
                        st.cache.lookup(st.items[pos])
                        if st.cache is not None
                        else None
                    )
                    with st.lock:
                        st.cache_gets += 1
                        if hit is not None:
                            st.cache_get_hits += 1
                    send_msg(conn, ("cache", hit))
                elif kind == "cache_put":
                    _, pos, result = msg
                    if st.cache is not None:
                        st.cache.store(st.items[pos], result)
                    with st.lock:
                        st.cache_puts += 1
                    send_msg(conn, ("ok",))
                else:
                    send_msg(conn, ("reject", f"unknown message {kind!r}"))
                    return
        except (ConnectionError, OSError):
            pass  # worker vanished; loss accounting below
        except Exception as exc:  # defensive: a handler must never die silently
            with st.lock:
                st.fail(exc)
            st.events.put(("failed", None, None))
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
                            self._requeue(st, host, in_flight)
            # Wake the main loop so health checks / completion re-evaluate.
            st.events.put(("tick", None, None))

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
                st.events.put(("failed", None, None))
                return
            if any(proc.poll() is None for proc in procs):
                return  # a launched agent is still alive and may (re)connect
            st.fail(
                ExperimentError(
                    f"distributed backend: all workers exited with "
                    f"{st.remaining} cell(s) unfinished"
                )
            )
            st.events.put(("failed", None, None))

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
        st = _RunState(items, self._costs(items), self.specs, self.idle_delay)
        cache_mode = self.cache_mode
        if cache_mode is None and self.cache_dir:
            cache_mode = "shared"
        if cache_mode is not None and not self.cache_dir:
            raise ExperimentError(
                f"distributed cache mode {cache_mode!r} needs a cache dir"
            )
        if cache_mode == "protocol":
            from .cache import CellCache

            st.cache = CellCache(self.cache_dir)
        st.setup = {
            "fn": fn,
            "initializer": initializer,
            "initargs": tuple(initargs) if initializer is not None else (),
            # Workers open the cache dir themselves only in shared mode;
            # protocol-mode workers go through the coordinator instead.
            "cache_dir": self.cache_dir if cache_mode == "shared" else None,
            "cache_mode": cache_mode,
        }
        self._assign(st)

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
        handler_threads: list[threading.Thread] = []

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
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(st, conn),
                    daemon=True,
                )
                # Start before publishing: the teardown join snapshots this
                # list, and joining a not-yet-started thread raises.
                thread.start()
                handler_threads.append(thread)

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
                with st.lock:
                    if st.error is not None:
                        break
                try:
                    kind, pos, outcome = st.events.get(timeout=0.25)
                except _queue.Empty:
                    self._check_health(st, procs, deadline)
                    continue
                if kind == "result":
                    out[pos] = outcome
                    completed += 1
                    if on_complete is not None:
                        # Fired from the coordinator thread only, in true
                        # completion order — same contract as the pool
                        # backends' parent-side callbacks.
                        on_complete(pos, outcome)
                elif kind == "failed":
                    break
                # "tick" events just re-evaluate the loop conditions.
            with st.lock:
                error = st.error
                st.stop = True
        finally:
            with st.lock:
                st.stop = True
            try:
                listener.close()
            except OSError:
                pass
            # Let connected workers drain to their orderly ("done",) ...
            for thread in list(handler_threads):
                thread.join(timeout=5.0)
            # ... then drop anything still wedged and reap the agents.
            with st.lock:
                pending_conns = list(conns)
            for conn in pending_conns:
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
            self._finish_stats(st, cache_mode)
        if error is not None:
            raise error
        return out

    def _finish_stats(self, st: _RunState, cache_mode: str | None) -> None:
        hosts: dict[str, dict[str, _t.Any]] = {}
        for label in sorted(st.hosts):
            h = st.hosts[label]
            hosts[label] = {
                "workers": h.ever_connected,
                "completed": h.completed,
                "steals": h.steals,
                "lost": h.lost,
                "wall_seconds": round(h.wall_seconds, 6),
                "cache_hits": h.cache_hits,
            }
        stats: dict[str, _t.Any] = {
            "hosts": hosts,
            "redispatched": st.redispatched,
            "cache_mode": cache_mode or "",
        }
        if cache_mode == "protocol":
            stats["protocol_cache"] = {
                "gets": st.cache_gets,
                "hits": st.cache_get_hits,
                "puts": st.cache_puts,
            }
        self._stats = stats
