"""Length-prefixed framing for the distributed sweep fabric.

One frame is a 4-byte big-endian payload length followed by the payload.
Both sides of the coordinator/worker socket speak only whole frames, so
partial reads can never deliver a torn message, and an EOF between frames
is an unambiguous "peer is gone" signal (the receive functions return
``None``) rather than an exception mid-object.

Handshake frames (``hello``, ``challenge``, ``auth``, ``accept``,
``reject``) carry JSON (:func:`send_json`/:func:`recv_json`): decoding
one runs no code, so the coordinator reads a peer's first frames before
it knows who the peer is. Every later frame carries a pickle
(:func:`send_msg`/:func:`recv_msg`), and each side unpickles only what a
peer sends after the handshake has accepted it.

The protocol itself is a strict request/response vocabulary driven by the
worker (see :mod:`repro.scenarios.worker` and
:mod:`repro.scenarios.distributed`); this module only owns the framing,
the handshake version, and the small connect-with-retry helper the
launchers use while the coordinator's listener comes up.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import pickle
import socket
import struct
import time
import typing as _t

from ..errors import ExperimentError

__all__ = [
    "WIRE_VERSION",
    "AUTH_ENV",
    "auth_digest",
    "send_msg",
    "recv_msg",
    "send_json",
    "recv_json",
    "connect_with_retry",
]

#: Handshake version, exchanged in the worker's ``hello``. Bumped whenever
#: the message vocabulary changes shape, so a stale worker binary talking
#: to a newer coordinator fails loudly instead of mis-pickling.
WIRE_VERSION = 2

#: Environment variable both sides fall back to for the shared fabric
#: secret when no explicit ``--auth-token`` is given.
AUTH_ENV = "JANUS_FABRIC_TOKEN"


def auth_digest(token: str, nonce: str) -> str:
    """HMAC-SHA256 response to a coordinator's auth challenge.

    The coordinator sends a fresh random ``nonce`` after a
    version-matching ``hello``; the worker proves it holds the shared
    ``token`` by returning this digest. The token itself never crosses
    the wire, and a replayed response is useless against a new nonce.
    """
    return hmac.new(
        token.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256
    ).hexdigest()

_HEADER = struct.Struct(">I")

#: Frames above this are refused on receive — a corrupted length prefix
#: must not turn into a multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Handshake frames are a few dozen bytes; a peer not yet accepted may
#: not make the coordinator buffer more than this.
MAX_JSON_BYTES = 64 * 1024


def send_msg(sock: socket.socket, obj: _t.Any) -> None:
    """Send one framed, pickled object over ``sock``."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def send_json(sock: socket.socket, obj: _t.Any) -> None:
    """Send one framed JSON value (a handshake message) over ``sock``."""
    payload = json.dumps(obj).encode("utf-8")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes from ``sock``, or ``None`` on a clean EOF.

    EOF mid-buffer (after some bytes arrived) is a torn frame and raises:
    the peer died mid-message, which callers must not confuse with an
    orderly shutdown between frames.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise ConnectionError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket, limit: int) -> bytes | None:
    """One frame's payload, or ``None`` on a clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > limit:
        raise ExperimentError(
            f"wire frame of {length} bytes exceeds the "
            f"{limit}-byte limit (corrupt stream?)"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionError("peer closed between header and payload")
    return payload


def recv_msg(sock: socket.socket) -> _t.Any | None:
    """Receive one framed, pickled object, or ``None`` on a clean EOF."""
    payload = _recv_frame(sock, MAX_FRAME_BYTES)
    return None if payload is None else pickle.loads(payload)


def recv_json(sock: socket.socket) -> _t.Any | None:
    """Receive one framed JSON value, or ``None`` on a clean EOF.

    An oversized frame raises :class:`~repro.errors.ExperimentError`;
    bytes that are not UTF-8 JSON raise :class:`ValueError`, or
    :class:`RecursionError` when they nest too deeply.
    """
    payload = _recv_frame(sock, MAX_JSON_BYTES)
    return None if payload is None else json.loads(payload.decode("utf-8"))


def connect_with_retry(
    host: str, port: int, timeout: float = 10.0, interval: float = 0.05
) -> socket.socket:
    """TCP-connect to ``(host, port)``, retrying refusals until ``timeout``.

    Workers race the coordinator's ``accept`` loop at launch; a refused
    connection within the window just means the listener isn't up yet.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(interval)
