"""Worker agent for the distributed sweep fabric.

One agent serves one coordinator connection: it introduces itself with a
``hello`` frame, answers the coordinator's HMAC ``challenge`` when the
fabric is token-protected (``--auth-token`` / ``$JANUS_FABRIC_TOKEN``),
and once accepted receives the pickled per-cell function (plus an
optional worker initializer) in the setup frame. The handshake frames are
JSON, so neither side unpickles anything from a peer it has not accepted::

    -> ["hello", version, label, pid]                       JSON
    <- ["challenge", nonce]              (token set only)   JSON
    -> ["auth", hmac_sha256(token, nonce)]                  JSON
    <- ["accept"] | ["reject", reason]                      JSON
    <- {"fn": ..., "initializer": ..., "initargs": ...}     pickle

It then pulls work in a strict request/response loop::

    -> ("next",)
    <- ("task", pos, item) | ("done",)
    -> ("result", pos, outcome) | ("error", pos, exception)

Every ``next`` takes the head of the coordinator's one cost-ordered
queue; when the queue is empty but cells are still in flight, the reply
waits until a lost worker's cell is requeued or the run ends. The agent
never touches the cell cache: the sweep runner looks cells up before
dispatch and stores each one as its result arrives.

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
import typing as _t

from ..errors import ExperimentError
from .wire import (
    AUTH_ENV,
    WIRE_VERSION,
    auth_digest,
    connect_with_retry,
    recv_json,
    recv_msg,
    send_json,
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


def _serve_socket(
    sock: _t.Any, label: str, auth_token: str | None = None
) -> None:
    send_json(sock, ["hello", WIRE_VERSION, label, os.getpid()])
    reply = recv_json(sock)
    if reply is None:
        return
    if reply[0] == "challenge":
        # Authenticated fabric: prove we hold the shared secret before
        # any work (or the pickled setup payload) crosses the wire.
        if auth_token is None:
            raise ExperimentError(
                f"worker {label!r}: coordinator requires authentication — "
                f"pass --auth-token or set ${AUTH_ENV}"
            )
        send_json(sock, ["auth", auth_digest(auth_token, reply[1])])
        reply = recv_json(sock)
        if reply is None:
            return
    if reply[0] == "reject":
        raise ExperimentError(
            f"coordinator rejected worker {label!r}: {reply[1]}"
        )
    if reply[0] != "accept":
        raise ExperimentError(
            f"worker {label!r}: expected accept, got {reply[0]!r}"
        )
    # The connect timeout bounds the handshake only: a ``next`` may wait
    # as long as the longest cell another agent has in flight.
    sock.settimeout(None)
    setup = recv_msg(sock)
    if setup is None:
        return
    fn = setup["fn"]
    initializer = setup.get("initializer")
    if initializer is not None:
        initializer(*setup.get("initargs", ()))
    while True:
        send_msg(sock, ("next",))
        msg = recv_msg(sock)
        if msg is None or msg[0] == "done":
            return
        if msg[0] != "task":
            raise ExperimentError(
                f"worker {label!r}: unexpected coordinator message {msg[0]!r}"
            )
        _, pos, item = msg
        try:
            outcome = fn(item)
        except Exception as exc:
            send_msg(sock, ("error", pos, _portable(exc)))
        else:
            send_msg(sock, ("result", pos, outcome))


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
