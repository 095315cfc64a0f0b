"""Worker agent for the distributed sweep fabric.

One agent serves one coordinator connection: it introduces itself with a
``hello`` frame, answers the coordinator's HMAC ``challenge`` when the
fabric is token-protected (``--auth-token`` / ``$JANUS_FABRIC_TOKEN``),
receives the pickled per-cell function (plus optional worker initializer
and cache configuration) in the ``setup`` reply, then pulls work in a
strict request/response loop::

    -> ("next",)
    <- ("task", pos, item) | ("idle", delay_s) | ("done",)
    -> ("result", pos, outcome, cache_hit) | ("error", pos, exception)

Pull-based dispatch is what makes cross-host stealing work: a drained
agent's ``next`` simply gets handed a cell from a loaded host's queue.

Cache integration mirrors the sweep runner's parent-side behaviour. In
``shared`` mode the agent opens the coordinator's cell-cache directory
itself (same filesystem, e.g. NFS) and looks up/stores cells locally; in
``protocol`` mode it asks the coordinator over the same socket::

    -> ("cache_get", pos)            <- ("cache", CachedCell | None)
    -> ("cache_put", pos, result)    <- ("ok",)

Either way a cell is stored *before* its result frame is sent, so an
agent killed right after finishing a cell still leaves it resumable.

Launched as ``python -m repro.scenarios.worker --connect HOST:PORT
--label NAME [--nproc N]`` by the coordinator (locally or over SSH);
``--nproc N`` forks N serving processes that share one label, giving the
host N true slots through one launch. :func:`serve` is importable so
tests can run in-process worker threads against a coordinator.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time
import typing as _t

from ..errors import ExperimentError
from .wire import (
    AUTH_ENV,
    WIRE_VERSION,
    auth_digest,
    connect_with_retry,
    recv_msg,
    send_msg,
)

__all__ = ["serve", "main"]


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a summarising ExperimentError.

    Worker-side failures travel back as pickled exception objects; an
    unpicklable one (e.g. carrying an open handle) is flattened to its
    type and message — :func:`~repro.scenarios.runner.evaluate_cell`
    already embedded the failing cell's name in that message.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExperimentError(f"{type(exc).__name__}: {exc}")


def _run_task(
    sock: _t.Any,
    fn: _t.Callable[[_t.Any], _t.Any],
    pos: int,
    item: _t.Any,
    cache: _t.Any,
    cache_mode: str | None,
) -> None:
    """Evaluate one dispatched item, short-circuiting through the cache."""
    from .matrix import Scenario

    cacheable = isinstance(item, Scenario)
    if cacheable:
        hit = None
        if cache is not None:
            hit = cache.lookup(item)
        elif cache_mode == "protocol":
            send_msg(sock, ("cache_get", pos))
            reply = recv_msg(sock)
            if reply is None:
                raise ConnectionError("coordinator closed during cache_get")
            hit = reply[1]
        if hit is not None:
            # Another sweep (or this one, before it was killed) already
            # evaluated this cell: fabricate the outcome the per-cell
            # function would have produced.
            from .runner import CellOutcome

            outcome = CellOutcome(
                result=hit.result, wall_seconds=0.0, cache_stats={}
            )
            send_msg(sock, ("result", pos, outcome, True))
            return
    try:
        outcome = fn(item)
    except Exception as exc:
        send_msg(sock, ("error", pos, _portable(exc)))
        return
    if cacheable and hasattr(outcome, "result"):
        # Store before reporting: a worker killed between these two frames
        # leaves the cell resumable instead of re-evaluated.
        if cache is not None:
            cache.store(item, outcome.result)
        elif cache_mode == "protocol":
            send_msg(sock, ("cache_put", pos, outcome.result))
            if recv_msg(sock) is None:
                raise ConnectionError("coordinator closed during cache_put")
    send_msg(sock, ("result", pos, outcome, False))


def _serve_socket(
    sock: _t.Any, label: str, auth_token: str | None = None
) -> None:
    send_msg(sock, ("hello", WIRE_VERSION, label, os.getpid()))
    reply = recv_msg(sock)
    if reply is None:
        return
    if reply is not None and reply[0] == "challenge":
        # Authenticated fabric: prove we hold the shared secret before
        # any work (or the pickled setup payload) crosses the wire.
        if auth_token is None:
            raise ExperimentError(
                f"worker {label!r}: coordinator requires authentication — "
                f"pass --auth-token or set ${AUTH_ENV}"
            )
        send_msg(sock, ("auth", auth_digest(auth_token, reply[1])))
        reply = recv_msg(sock)
        if reply is None:
            return
    if reply[0] == "reject":
        raise ExperimentError(
            f"coordinator rejected worker {label!r}: {reply[1]}"
        )
    if reply[0] != "setup":
        raise ExperimentError(
            f"worker {label!r}: expected setup, got {reply[0]!r}"
        )
    setup = reply[1]
    fn = setup["fn"]
    initializer = setup.get("initializer")
    if initializer is not None:
        initializer(*setup.get("initargs", ()))
    cache_mode = setup.get("cache_mode")
    cache = None
    if cache_mode == "shared" and setup.get("cache_dir"):
        from .cache import CellCache

        cache = CellCache(setup["cache_dir"])
    while True:
        send_msg(sock, ("next",))
        msg = recv_msg(sock)
        if msg is None or msg[0] == "done":
            return
        if msg[0] == "idle":
            time.sleep(float(msg[1]))
            continue
        if msg[0] != "task":
            raise ExperimentError(
                f"worker {label!r}: unexpected coordinator message {msg[0]!r}"
            )
        _, pos, item = msg
        _run_task(sock, fn, pos, item, cache, cache_mode)


def serve(
    address: tuple[str, int],
    label: str = "local",
    connect_timeout: float = 20.0,
    auth_token: str | None = None,
) -> None:
    """Connect to the coordinator at ``address`` and serve until done.

    A connection dropped *after* the handshake means the coordinator went
    away (finished, failed fast, or was killed) — that is an orderly stop
    for the agent, not an error, so it returns instead of raising; the
    coordinator's own loss accounting re-dispatches anything in flight.
    ``auth_token`` (default: ``$JANUS_FABRIC_TOKEN``) answers the
    coordinator's HMAC challenge on authenticated fabrics.
    """
    if auth_token is None:
        auth_token = os.environ.get(AUTH_ENV) or None
    host, port = address
    sock = connect_with_retry(host, int(port), timeout=connect_timeout)
    try:
        _serve_socket(sock, label, auth_token)
    except (ConnectionError, OSError):
        return
    finally:
        try:
            sock.close()
        except OSError:
            pass


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.worker",
        description="distributed-sweep worker agent (launched by the "
        "coordinator; see repro.scenarios.distributed)",
    )
    parser.add_argument(
        "--connect", required=True, help="coordinator address as HOST:PORT"
    )
    parser.add_argument(
        "--label", default="local", help="host label used in scheduling stats"
    )
    parser.add_argument(
        "--nproc", type=int, default=1,
        help="serving processes to run under this label (host slots)",
    )
    parser.add_argument(
        "--timeout", type=float, default=20.0,
        help="seconds to retry the initial connect",
    )
    parser.add_argument(
        "--auth-token", default=None,
        help=f"shared fabric secret for the coordinator's HMAC challenge "
        f"(default: ${AUTH_ENV})",
    )
    args = parser.parse_args(argv)
    host, _, port_s = args.connect.rpartition(":")
    if not host or not port_s.isdigit():
        parser.error(f"--connect wants HOST:PORT, got {args.connect!r}")
    address = (host, int(port_s))
    if args.nproc <= 1:
        serve(
            address,
            args.label,
            connect_timeout=args.timeout,
            auth_token=args.auth_token,
        )
        return 0
    # One process per slot, each with its own coordinator connection —
    # the single code path above, multiplied. Import by package name so
    # spawn-based multiprocessing can locate the target outside __main__.
    import multiprocessing

    from repro.scenarios.worker import serve as _serve

    procs = [
        multiprocessing.Process(
            target=_serve,
            args=(address, args.label),
            kwargs={
                "connect_timeout": args.timeout,
                "auth_token": args.auth_token,
            },
        )
        for _ in range(args.nproc)
    ]
    for proc in procs:
        proc.start()
    code = 0
    for proc in procs:
        proc.join()
        if proc.exitcode:
            code = 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
