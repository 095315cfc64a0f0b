"""Pluggable sweep execution backends: how cells get scheduled, not what
they compute.

A backend receives the expanded cells and a picklable per-cell function
and returns one outcome per cell **in submission order**, whatever order
the hardware finished them in — which is why every backend produces a
bit-identical :class:`~repro.scenarios.report.SweepReport`. Two ship
here (the multi-host ``distributed`` fabric registers from
:mod:`repro.scenarios.distributed`):

* ``serial`` — in-process loop; the reference for determinism tests.
* ``pool`` — per-cell ``submit`` to a
  ``concurrent.futures.ProcessPoolExecutor``. Cells are dispatched in
  descending :meth:`~repro.scenarios.matrix.Scenario.cost_estimate`
  order so the expensive ones start first and cheap ones pack around
  them, and completion callbacks fire as cells finish, so one failing
  cell never hides the cells that finished before it.

New backends register by name::

    @register_backend("my-sched")
    class MyBackend:
        ...

and become constructible through :func:`get_backend` / the
``SweepRunner(backend=...)`` seam and ``janus-repro sweep --backend``.
"""

from __future__ import annotations

import concurrent.futures
import os
import typing as _t

from ..errors import ExperimentError

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .matrix import Scenario

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "register_backend",
    "backend_names",
    "get_backend",
    "resolve_backend",
]

#: Called in the *parent* process as each cell completes:
#: ``(position in the submitted sequence, outcome)``.
CompletionCallback = _t.Callable[[int, _t.Any], None]

#: Worker-process initializer (e.g. attaching persistent synthesis caches).
Initializer = _t.Callable[..., None]


class ExecutionBackend(_t.Protocol):
    """What the sweep runner needs from a scheduler."""

    #: Registry name, echoed into :class:`SweepReport.backend`.
    name: str

    def workers_for(self, n_tasks: int) -> int:
        """Worker processes a run over ``n_tasks`` cells would use."""
        ...

    def run(
        self,
        scenarios: _t.Sequence["Scenario"],
        fn: _t.Callable[["Scenario"], _t.Any],
        on_complete: CompletionCallback | None = None,
        initializer: Initializer | None = None,
        initargs: tuple = (),
    ) -> list[_t.Any]:
        """``[fn(s) for s in scenarios]``, scheduled the backend's way.

        Results come back in ``scenarios`` order regardless of completion
        order; ``fn`` must be a picklable top-level callable for
        process-pool backends. ``initializer``/``initargs`` run once per
        worker process (and once in-process for the serial backend).
        """
        ...


_BACKENDS: dict[str, _t.Callable[..., ExecutionBackend]] = {}


def register_backend(
    name: str,
) -> _t.Callable[[_t.Callable[..., ExecutionBackend]], _t.Callable[..., ExecutionBackend]]:
    """Class decorator registering an execution backend under ``name``."""

    def _register(factory: _t.Callable[..., ExecutionBackend]):
        _BACKENDS[name] = factory
        return factory

    return _register


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def get_backend(name: str, **kwargs: _t.Any) -> ExecutionBackend:
    """Construct the backend registered under ``name``.

    Construction options (``max_workers``, ``mp_context``) are filtered
    to what the factory's signature accepts, so a registered backend
    with a plain ``__init__`` — a custom scheduler that manages its own
    workers, say — resolves without having to declare knobs it ignores.
    """
    import inspect

    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown sweep backend {name!r}; known: {backend_names()}"
        )
    params = inspect.signature(factory).parameters
    if not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        kwargs = {k: v for k, v in kwargs.items() if k in params}
    return factory(**kwargs)


def resolve_backend(
    backend: "str | ExecutionBackend | None",
    max_workers: int = 1,
    mp_context: _t.Any = None,
    **options: _t.Any,
) -> ExecutionBackend:
    """Turn the ``SweepRunner(backend=...)`` argument into an instance.

    ``None`` keeps the historical behaviour: serial when ``max_workers``
    <= 1, the process pool otherwise. A string resolves through the
    registry; an instance passes through unchanged (its own worker
    settings win). Extra ``options`` (e.g. the runner's ``cache_dir``)
    reach the factory subject to :func:`get_backend`'s signature
    filtering, so backends that don't take them ignore them.
    """
    if backend is None:
        backend = "serial" if max_workers <= 1 else "pool"
    if isinstance(backend, str):
        return get_backend(
            backend, max_workers=max_workers, mp_context=mp_context,
            **options,
        )
    return backend


@register_backend("serial")
class SerialBackend:
    """In-process, submission-order evaluation (the determinism reference)."""

    name = "serial"

    def __init__(self, max_workers: int = 1, mp_context: _t.Any = None) -> None:
        # Accepted for registry uniformity; a serial run is one process.
        del max_workers, mp_context

    def workers_for(self, n_tasks: int) -> int:
        return 1

    def run(
        self,
        scenarios: _t.Sequence["Scenario"],
        fn: _t.Callable[["Scenario"], _t.Any],
        on_complete: CompletionCallback | None = None,
        initializer: Initializer | None = None,
        initargs: tuple = (),
    ) -> list[_t.Any]:
        if initializer is not None:
            initializer(*initargs)
        out: list[_t.Any] = []
        for pos, scenario in enumerate(scenarios):
            outcome = fn(scenario)
            out.append(outcome)
            if on_complete is not None:
                on_complete(pos, outcome)
        return out


@register_backend("pool")
class PoolBackend:
    """Per-cell submission, most expensive first, reassembled in order.

    ``submit``/``as_completed`` keeps every worker busy until the queue is
    drained; dispatching in descending cost-estimate order (ties broken by
    expansion position, so dispatch is deterministic) ensures the
    long-pole cells cannot end up straggling behind a drained queue.
    Completion callbacks fire in true completion order, so the runner
    caches every finished cell even when another cell fails.
    """

    name = "pool"

    def __init__(
        self, max_workers: int | None = None, mp_context: _t.Any = None
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers))
        self.mp_context = mp_context

    def workers_for(self, n_tasks: int) -> int:
        return max(1, min(self.max_workers, n_tasks))

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
        costs = [s.cost_estimate() for s in scenarios]
        order = sorted(
            range(len(scenarios)), key=lambda pos: (-costs[pos], pos)
        )
        out: list[_t.Any] = [None] * len(scenarios)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers_for(len(scenarios)),
            mp_context=self.mp_context,
            initializer=initializer,
            initargs=initargs if initializer is not None else (),
        ) as pool:
            futures = {
                pool.submit(fn, scenarios[pos]): pos for pos in order
            }
            for future in concurrent.futures.as_completed(futures):
                pos = futures[future]
                try:
                    outcome = future.result()
                except BaseException:
                    # Fail fast: cancel everything not yet started before
                    # the pool __exit__ blocks waiting on it — one bad
                    # cell must not keep the rest of the queue evaluating
                    # (already-running cells still finish; a process pool
                    # cannot preempt them).
                    for pending_future in futures:
                        pending_future.cancel()
                    raise
                out[pos] = outcome
                if on_complete is not None:
                    on_complete(pos, outcome)
        return out
