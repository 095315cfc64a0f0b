"""Top-level callables the distributed-fabric tests ship to worker agents.

Worker agents are fresh ``python -m repro.scenarios.worker`` processes,
so a function dispatched to them must be importable by module name —
closures and test-local defs cannot cross that boundary. Tests that
launch real subprocess workers put this directory on the workers'
``PYTHONPATH`` (see ``test_distributed.py``) and reference these helpers
instead. In-thread worker tests don't need this module: same-process
unpickling resolves the test module through ``sys.modules``.
"""

from __future__ import annotations

import glob
import os
import time

#: Upper bound on how long :func:`double_once_two_agents` (or a
#: :class:`Costed` item's ``hold_for``) holds a cell waiting for other
#: agents; past it the cell completes anyway and the caller's assertions
#: report the shortfall.
TWO_AGENT_TIMEOUT_S = 60.0


def double(x: int) -> int:
    return 2 * x


def double_once_two_agents(item: tuple[str, int]) -> int:
    """Double ``value`` once two distinct agents have checked in.

    Each call records its agent's pid in ``checkin_dir``, then holds until
    a second pid is there, so one agent cannot drain the whole queue
    before the other connects.
    """
    checkin_dir, value = item
    open(os.path.join(checkin_dir, str(os.getpid())), "w").close()
    deadline = time.monotonic() + TWO_AGENT_TIMEOUT_S
    while len(os.listdir(checkin_dir)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return 2 * value


def slow_double(item: tuple[float, float]) -> float:
    value, delay = item
    time.sleep(delay)
    return 2 * value


def crash_once(item: tuple[str | None, int]) -> int:
    """Die hard (``os._exit``, no cleanup) the first time the marked item
    runs; any re-dispatch — or any unmarked item — succeeds."""
    marker, value = item
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("died here")
        os._exit(17)
    return value * 2


class Costed:
    """Item with a declared cost estimate, for dispatch-order tests.

    ``hold_for`` > 0 makes the item wait (at most
    :data:`TWO_AGENT_TIMEOUT_S`) until that many ``.done`` sentinels are
    in ``out_dir``, i.e. until other agents have finished that many
    items, before anything else it does.
    """

    def __init__(
        self,
        value: int,
        cost: float = 1.0,
        delay: float = 0.0,
        out_dir: str | None = None,
        poison: int | None = None,
        hold_for: int = 0,
    ) -> None:
        self.value = value
        self.cost = cost
        self.delay = delay
        self.out_dir = out_dir
        self.poison = poison
        self.hold_for = hold_for

    def cost_estimate(self) -> float:
        return self.cost


def _hold(item: Costed) -> None:
    if not item.hold_for:
        return
    pattern = os.path.join(str(item.out_dir), "*.done")
    deadline = time.monotonic() + TWO_AGENT_TIMEOUT_S
    while (
        len(glob.glob(pattern)) < item.hold_for
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)


def eval_costed(item: Costed) -> int:
    """Hold, then sleep ``delay``; raise for the poisoned value, else
    touch ``<out_dir>/<value>.done`` (when configured) and return the
    value. The sentinel files let fail-fast tests count how much of the
    queue actually evaluated after the first error."""
    _hold(item)
    time.sleep(item.delay)
    if item.poison is not None and item.value == item.poison:
        raise ValueError(f"poisoned item {item.value}")
    if item.out_dir:
        path = os.path.join(item.out_dir, f"{item.value}.done")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("ok")
    return item.value


def exit_once_costed(item: Costed) -> int:
    """:func:`eval_costed`, except that the poisoned item, after its hold
    and delay, kills its agent hard (``os._exit``, no cleanup) the first
    time it runs; its re-dispatch returns the value."""
    if item.value != item.poison:
        return eval_costed(item)
    _hold(item)
    time.sleep(item.delay)
    marker = os.path.join(str(item.out_dir), "exited.marker")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(17)
    return item.value
