"""Content-addressed persistence for sweep artifacts.

Two layers live under one ``--cache-dir``:

* ``cells/`` — one JSON file per evaluated scenario cell, written by
  :class:`CellCache`. The key is a SHA-256 digest over the *canonical
  scenario spec* (every field that determines the result: workflow name +
  registration epoch, arrival shape, SLO scale, tenants, policies,
  request/sample counts, both derived seeds, baseline, pinned budget,
  executor and cluster knobs) plus the package version. The digest contains
  no timing and no host identity, so a repeated or overlapping sweep skips
  every already-computed cell and the replayed report stays byte-identical
  to a cold one.
* ``dp/``, ``hints/``, ``dag-hints/`` and ``orion/`` — the persistent
  layers behind the synthesis memos (:mod:`repro.synthesis.dp`,
  :mod:`repro.synthesis.generator`, :mod:`repro.synthesis.dag`) and the
  ORION plan memo (:mod:`repro.policies.orion`), keyed by profile content
  digests. :func:`configure_persistent_caches` points them at the cache
  dir; it doubles as the process-pool worker initializer so every worker
  shares the tables and plans instead of re-deriving them.

Invalidation is purely key-based: bumping ``repro.__version__``,
re-registering a workflow factory (epoch bump), or changing any scenario
field changes the digest and the stale entry is simply never read again.
Writes go through a temp file + :func:`os.replace` so concurrent workers
and interrupted sweeps never leave a torn entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import typing as _t

from ..persist import atomic_write_bytes
from .matrix import Scenario
from .registry import workflow_epoch
from .report import ScenarioResult

__all__ = [
    "CellCache",
    "CachedCell",
    "scenario_digest",
    "configure_persistent_caches",
    "snapshot_persistent_caches",
    "restore_persistent_caches",
    "synthesis_cache_stats",
]


def _package_version() -> str:
    # Lazy: repro/__init__ imports this package, so a module-level
    # ``from .. import __version__`` would hit the partially initialised
    # package during import.
    import repro

    return repro.__version__


def scenario_digest(scenario: Scenario) -> str:
    """SHA-256 over the canonical (timing-free) spec of one cell.

    Every input that can change the cell's :class:`ScenarioResult` is in
    the key; nothing else is. Two scenarios with equal digests produce
    byte-identical result JSON.

    Memoised per :class:`Scenario` instance (epoch- and version-guarded,
    so a workflow re-registration or version bump still invalidates):
    ``lookup`` + ``store`` hash each cell twice, and the distributed
    coordinator's skip-before-dispatch pass makes it a third time.
    Matrix expansion creates fresh instances per run, so the memo can
    never outlive the specs it describes — and it rides along when a
    cell is pickled to a worker, sparing the worker-side cache the
    re-hash too. Replay cells are deliberately never memoised: their
    digest folds in the trace file's *content*, so editing the trace
    must cold-start exactly those cells even on an already-hashed
    instance.
    """
    epoch = workflow_epoch(scenario.workflow)
    version = _package_version()
    replay = scenario.arrival.kind == "replay" and bool(scenario.arrival.trace)
    if not replay:
        memo = scenario.__dict__.get("_digest_memo")
        if memo is not None and memo[0] == epoch and memo[1] == version:
            return memo[2]
    arrival = dataclasses.asdict(scenario.arrival)
    if not arrival.get("phase"):
        # Same conditional-fold pattern as the blocks below: the phase
        # field arrived with the fleet subsystem, and popping the default
        # keeps every pre-existing cell's digest byte-identical.
        arrival.pop("phase", None)
    spec = {
        "schema": 1,
        "repro_version": version,
        "workflow": scenario.workflow,
        "workflow_epoch": epoch,
        "arrival": arrival,
        "slo_scale": scenario.slo_scale,
        "tenants": scenario.tenants,
        "policies": list(scenario.policies),
        "n_requests": scenario.n_requests,
        "samples": scenario.samples,
        "seed": scenario.seed,
        "profile_seed": scenario.profile_seed,
        "baseline": scenario.baseline,
        "budget_ms": (
            list(scenario.budget_ms) if scenario.budget_ms is not None else None
        ),
        "executor": scenario.executor,
        "cluster": (
            dataclasses.asdict(scenario.cluster)
            if scenario.cluster is not None
            else None
        ),
    }
    if scenario.streaming:
        # Folded in only when set so every pre-existing cell keeps its
        # digest (same pattern as trace_digest below).
        spec["streaming"] = True
    if scenario.faults is not None:
        # Same conditional-fold pattern: fault-free cells keep their cache
        # keys when a faults axis is added to a matrix, while any change
        # to a fault spec cold-starts exactly the faulted cells.
        spec["faults"] = dataclasses.asdict(scenario.faults)
    if scenario.fleet is not None:
        # Same conditional fold again: fleet-free cells keep their cache
        # keys when a fleets axis is added, while any change to a fleet
        # spec cold-starts exactly the fleet cells.
        spec["fleet"] = dataclasses.asdict(scenario.fleet)
    if scenario.arrival.kind == "replay" and scenario.arrival.trace:
        # Replay cells depend on the trace file's *content*, not its
        # path: editing the trace cold-starts exactly the cells that
        # replay it, while an untouched file stays a full cache hit even
        # if it was re-saved byte-identically elsewhere.
        from ..traces.trace_file import cached_trace

        spec["trace_digest"] = cached_trace(scenario.arrival.trace).digest()
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if not replay:
        # Scenario is frozen but not slotted, so the memo slips in past
        # the dataclass immutability without touching equality or the
        # pickled field payload semantics.
        object.__setattr__(scenario, "_digest_memo", (epoch, version, digest))
    return digest


@dataclasses.dataclass(frozen=True)
class CachedCell:
    """A cache hit: the stored result, or ``None`` for a cached dead cell.

    The wrapper distinguishes "cached as skipped" (``result is None``)
    from "not cached" (:meth:`CellCache.lookup` returns ``None``).
    """

    result: ScenarioResult | None


class CellCache:
    """Per-cell :class:`ScenarioResult` store under ``<root>/cells/``.

    Dead cells (no buildable policy) are cached too, so a warm re-run of a
    matrix with skipped cells still performs zero evaluations. Corrupt or
    unreadable entries count as misses and are overwritten on store.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, "cells", f"{digest}.json")

    def lookup(self, scenario: Scenario) -> CachedCell | None:
        """The stored outcome for ``scenario``, or ``None`` on a miss."""
        path = self._path(scenario_digest(scenario))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            payload = doc["result"]
            cell = CachedCell(
                result=None if payload is None else ScenarioResult(**payload)
            )
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return cell

    def store(
        self, scenario: Scenario, result: ScenarioResult | None
    ) -> None:
        """Persist one evaluated cell (or its dead-cell marker)."""
        doc = {
            "schema": 1,
            "scenario_id": scenario.scenario_id,
            "result": None if result is None else dataclasses.asdict(result),
        }
        # Insertion order preserved deliberately (no sort_keys): the
        # result's per-policy table order is evaluation order, and a warm
        # replay must reproduce the cold run's CSV/render verbatim, not
        # just its (key-sorted) JSON.
        atomic_write_bytes(
            self._path(scenario_digest(scenario)),
            json.dumps(doc).encode("utf-8"),
        )

    def stats(self) -> dict[str, int]:
        """Lookup counters since construction."""
        return {"hits": self.hits, "misses": self.misses}


#: Disk-layer subdirectories under a cache dir, in snapshot order.
_LAYERS = ("dp", "hints", "dag-hints", "orion")


def configure_persistent_caches(cache_dir: str | None) -> None:
    """Point the DP/hints/ORION memos at disk layers under ``cache_dir``.

    ``None`` detaches them all (memory-only, the default). Top-level and
    argument-picklable on purpose: the sweep backends pass it as the
    process-pool worker ``initializer`` so every worker shares the solved
    tables and plans through the filesystem.
    """
    restore_persistent_caches(tuple(
        None if cache_dir is None else os.path.join(os.fspath(cache_dir), name)
        for name in _LAYERS
    ))


def snapshot_persistent_caches() -> tuple[str | None, ...]:
    """Current (dp, hints, dag-hints, orion) disk-layer dirs, for
    :func:`restore_persistent_caches`."""
    from ..policies.orion import orion_cache_dir
    from ..synthesis.dag import dag_hints_cache_dir
    from ..synthesis.dp import dp_cache_dir
    from ..synthesis.generator import hints_cache_dir

    return (
        dp_cache_dir(), hints_cache_dir(), dag_hints_cache_dir(),
        orion_cache_dir(),
    )


def restore_persistent_caches(snapshot: tuple[str | None, ...]) -> None:
    """Re-attach the disk layers captured by :func:`snapshot_persistent_caches`.

    The sweep runner brackets its runs with snapshot/restore so pointing a
    sweep at a ``cache_dir`` never clobbers a configuration the caller
    installed directly through ``set_dp_cache_dir``/``set_hints_cache_dir``/
    ``set_dag_hints_cache_dir``/``set_orion_cache_dir``.
    """
    from ..policies.orion import set_orion_cache_dir
    from ..synthesis.dag import set_dag_hints_cache_dir
    from ..synthesis.dp import set_dp_cache_dir
    from ..synthesis.generator import set_hints_cache_dir

    dp_dir, hints_dir, dag_hints_dir, orion_dir = snapshot
    set_dp_cache_dir(dp_dir)
    set_hints_cache_dir(hints_dir)
    set_dag_hints_cache_dir(dag_hints_dir)
    set_orion_cache_dir(orion_dir)


def synthesis_cache_stats() -> dict[str, dict[str, int]]:
    """Current process's DP/hints/ORION memo counters (see the synthesis
    modules and :mod:`repro.policies.orion`)."""
    from ..policies.orion import orion_cache_stats
    from ..synthesis.dag import dag_hints_cache_stats
    from ..synthesis.dp import dp_cache_stats
    from ..synthesis.generator import hints_cache_stats

    return {
        "dp": dp_cache_stats(),
        "hints": hints_cache_stats(),
        "dag_hints": dag_hints_cache_stats(),
        "orion": orion_cache_stats(),
    }


def add_stats(
    totals: dict[str, dict[str, int]], delta: _t.Mapping[str, _t.Mapping[str, int]]
) -> None:
    """Accumulate one cell's counter delta into running totals, in place."""
    for section, counters in delta.items():
        bucket = totals.setdefault(section, {})
        for name, value in counters.items():
            bucket[name] = bucket.get(name, 0) + int(value)
