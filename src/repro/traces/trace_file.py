"""Versioned on-disk workload traces: record, validate, load, replay.

A :class:`WorkloadTrace` is the package's workload interchange format —
the bridge between real production traces (Azure-style invocation logs),
synthetically generated workloads, and sweep cells. One trace holds an
arrival-ordered record stream, each record carrying its timestamp, an
optional workflow attribution and an optional observed duration.

Two storage encodings share one logical schema (``TRACE_SCHEMA``):

* **JSONL** — a header object on the first line (schema version, name,
  workflow catalog, record count, metadata) followed by one compact JSON
  object per record. This is also the *canonical* serialisation: a
  trace's :meth:`~WorkloadTrace.digest` is the SHA-256 of these bytes
  (via :func:`repro.persist.content_digest`), so the digest names the
  content regardless of which encoding sits on disk.
* **CSV** — ``#key=value`` header comment lines, then a standard CSV
  table. Round-trips losslessly to the JSONL form (floats are written
  with ``repr``, the shortest exact representation).

Loaders validate shape invariants (sorted arrivals, attribution within
the catalog, record counts matching the header) so a torn or hand-edited
file fails at load time with a :class:`~repro.errors.TraceError` naming
the problem — never as a silent workload distortion mid-sweep.
"""

from __future__ import annotations

import collections as _collections
import csv
import io
import json
import os
import typing as _t
from dataclasses import dataclass, field

import numpy as np

from ..errors import TraceError
from ..persist import atomic_write_bytes, content_digest
from ..rng import RngFactory
from .arrivals import first_n, replayed
from .popularity import PopularityMix

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workflow.request import WorkflowRequest

__all__ = [
    "TRACE_SCHEMA",
    "WorkloadTrace",
    "save_trace",
    "load_trace",
    "cached_trace",
    "generate_workload_trace",
    "trace_from_requests",
    "replay_arrivals",
]

#: On-disk schema version; bumped on incompatible format changes. Loaders
#: reject newer schemas instead of misreading them.
TRACE_SCHEMA = 1

#: Record columns, in canonical order.
_FIELDS = ("arrival_ms", "workflow", "duration_ms")


@dataclass(frozen=True, eq=False)
class WorkloadTrace:
    """An arrival-ordered invocation trace.

    ``workflow_ids`` indexes into the ``workflows`` catalog; ``-1`` marks
    an unattributed record and is only legal when the catalog is empty
    (a pure arrival trace). ``durations_ms`` is optional — replay ignores
    it, but ingested production traces can carry observed latencies for
    analysis.
    """

    name: str
    arrival_ms: np.ndarray
    workflow_ids: np.ndarray
    workflows: tuple[str, ...] = ()
    durations_ms: np.ndarray | None = None
    metadata: dict[str, _t.Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrival_ms, dtype=np.float64)
        ids = np.asarray(self.workflow_ids, dtype=np.int64)
        object.__setattr__(self, "arrival_ms", arrivals)
        object.__setattr__(self, "workflow_ids", ids)
        if arrivals.ndim != 1 or arrivals.size == 0:
            raise TraceError("trace requires >= 1 record")
        if ids.shape != arrivals.shape:
            raise TraceError(
                f"workflow_ids shape {ids.shape} != arrivals {arrivals.shape}"
            )
        if np.any(arrivals < 0) or not np.all(np.isfinite(arrivals)):
            raise TraceError("arrival timestamps must be finite and >= 0")
        if np.any(np.diff(arrivals) < 0):
            raise TraceError("arrival timestamps must be non-decreasing")
        if len(set(self.workflows)) != len(self.workflows):
            raise TraceError(f"duplicate workflows: {list(self.workflows)}")
        if self.workflows:
            if ids.min() < 0 or ids.max() >= len(self.workflows):
                raise TraceError(
                    f"workflow ids must index the catalog "
                    f"{list(self.workflows)}"
                )
        elif np.any(ids != -1):
            raise TraceError(
                "an empty workflow catalog requires all ids to be -1"
            )
        if self.durations_ms is not None:
            durations = np.asarray(self.durations_ms, dtype=np.float64)
            object.__setattr__(self, "durations_ms", durations)
            if durations.shape != arrivals.shape:
                raise TraceError(
                    f"durations shape {durations.shape} != arrivals "
                    f"{arrivals.shape}"
                )
            if np.any(durations < 0) or not np.all(np.isfinite(durations)):
                raise TraceError("durations must be finite and >= 0")

    # -- introspection ------------------------------------------------------
    @property
    def n_records(self) -> int:
        return int(self.arrival_ms.size)

    @property
    def span_ms(self) -> float:
        """Time between the first and last arrival."""
        return float(self.arrival_ms[-1] - self.arrival_ms[0])

    def counts_by_workflow(self) -> dict[str, int]:
        """Record count per catalog workflow (popularity order as stored)."""
        if not self.workflows:
            return {}
        counts = np.bincount(self.workflow_ids, minlength=len(self.workflows))
        return {wf: int(c) for wf, c in zip(self.workflows, counts)}

    def arrivals_for(self, workflow: str | None = None) -> np.ndarray:
        """Arrival timestamps, optionally filtered to one workflow.

        ``None`` — and any ``workflow`` when the trace carries no
        attribution — returns the full stream. A named workflow absent
        from a *attributed* trace raises: silently replaying the whole
        trace would misrepresent the recorded popularity mix.
        """
        if workflow is None or not self.workflows:
            return self.arrival_ms.copy()
        try:
            rank = self.workflows.index(workflow)
        except ValueError:
            raise TraceError(
                f"trace {self.name!r} has no records for workflow "
                f"{workflow!r} (catalog: {list(self.workflows)})"
            )
        return self.arrival_ms[self.workflow_ids == rank].copy()

    # -- canonical serialisation -------------------------------------------
    def _header(self) -> dict[str, _t.Any]:
        return {
            "janus_trace": TRACE_SCHEMA,
            "name": self.name,
            "workflows": list(self.workflows),
            "n_records": self.n_records,
            "metadata": self.metadata,
        }

    def to_jsonl(self) -> str:
        """The canonical encoding: header line + one record per line."""
        lines = [json.dumps(self._header(), sort_keys=True,
                            separators=(",", ":"))]
        has_durations = self.durations_ms is not None
        for i in range(self.n_records):
            record: dict[str, _t.Any] = {
                "arrival_ms": float(self.arrival_ms[i])
            }
            if self.workflows:
                record["workflow"] = self.workflows[int(self.workflow_ids[i])]
            if has_durations:
                record["duration_ms"] = float(self.durations_ms[i])
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """CSV encoding: ``#key=value`` header block + record table."""
        for label, value in (("name", self.name), *(
            ("workflow", wf) for wf in self.workflows
        )):
            if any(ch in value for ch in (",", "\n", "=")):
                raise TraceError(
                    f"{label} {value!r} cannot be CSV-encoded "
                    f"(contains ',', '=' or a newline); use JSONL"
                )
        buf = io.StringIO()
        buf.write(f"#janus-trace={TRACE_SCHEMA}\n")
        buf.write(f"#name={self.name}\n")
        buf.write(f"#workflows={','.join(self.workflows)}\n")
        buf.write(f"#n-records={self.n_records}\n")
        buf.write(
            "#metadata="
            + json.dumps(self.metadata, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_FIELDS)
        has_durations = self.durations_ms is not None
        for i in range(self.n_records):
            writer.writerow([
                repr(float(self.arrival_ms[i])),
                self.workflows[int(self.workflow_ids[i])]
                if self.workflows else "",
                repr(float(self.durations_ms[i])) if has_durations else "",
            ])
        return buf.getvalue()

    def digest(self) -> str:
        """SHA-256 over the canonical JSONL bytes.

        Encoding-independent: a trace saved as CSV digests identically to
        its JSONL twin. The sweep cell cache folds this into its key, so
        editing a trace file cold-starts exactly the cells replaying it.
        Memoised — the instance is frozen, and cached sweeps consult the
        digest once per replay-cell lookup and store.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = content_digest(self.to_jsonl().encode("utf-8"))
            object.__setattr__(self, "_digest", cached)
        return cached


# ---------------------------------------------------------------------------
# Writers / loaders
# ---------------------------------------------------------------------------

def save_trace(trace: WorkloadTrace, path: str | os.PathLike[str]) -> str:
    """Write ``trace`` to ``path`` (CSV for ``.csv``, JSONL otherwise).

    Atomic (temp file + rename), so a concurrent reader never observes a
    torn trace. Returns the trace's content digest.
    """
    path = os.fspath(path)
    text = trace.to_csv() if path.endswith(".csv") else trace.to_jsonl()
    atomic_write_bytes(path, text.encode("utf-8"))
    return trace.digest()


def _records_to_trace(
    header: _t.Mapping[str, _t.Any],
    records: list[dict[str, _t.Any]],
    path: str,
) -> WorkloadTrace:
    schema = header.get("janus_trace")
    if schema != TRACE_SCHEMA:
        raise TraceError(
            f"{path}: unsupported trace schema {schema!r} "
            f"(this build reads schema {TRACE_SCHEMA})"
        )
    declared = header.get("n_records")
    if declared is not None and int(declared) != len(records):
        raise TraceError(
            f"{path}: header declares {declared} records, found "
            f"{len(records)} (truncated or hand-edited file?)"
        )
    workflows = tuple(header.get("workflows", ()))
    try:
        arrivals = np.array(
            [float(r["arrival_ms"]) for r in records], dtype=np.float64
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{path}: malformed arrival_ms record: {exc}")
    if workflows:
        index = {wf: i for i, wf in enumerate(workflows)}
        try:
            ids = np.array(
                [index[r["workflow"]] for r in records], dtype=np.int64
            )
        except KeyError as exc:
            raise TraceError(
                f"{path}: record names workflow {exc} outside the header "
                f"catalog {list(workflows)}"
            )
    else:
        ids = np.full(len(records), -1, dtype=np.int64)
    durations = None
    if any("duration_ms" in r and r["duration_ms"] not in ("", None)
           for r in records):
        try:
            durations = np.array(
                [float(r["duration_ms"]) for r in records], dtype=np.float64
            )
        except (KeyError, TypeError, ValueError):
            raise TraceError(
                f"{path}: duration_ms must be present on every record "
                f"or on none"
            )
    try:
        return WorkloadTrace(
            name=str(header.get("name", os.path.basename(path))),
            arrival_ms=arrivals,
            workflow_ids=ids,
            workflows=workflows,
            durations_ms=durations,
            metadata=dict(header.get("metadata", {})),
        )
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}")


def _load_jsonl(text: str, path: str) -> WorkloadTrace:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except ValueError as exc:
        raise TraceError(f"{path}: invalid JSONL: {exc}")
    if not isinstance(header, dict) or "janus_trace" not in header:
        raise TraceError(
            f"{path}: first line is not a janus_trace header object"
        )
    return _records_to_trace(header, records, path)


def _load_csv(text: str, path: str) -> WorkloadTrace:
    header: dict[str, _t.Any] = {}
    body_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise TraceError(
                    f"{path}: malformed header comment {line!r}"
                )
            header[key.strip()] = value
        elif line.strip():
            body_lines.append(line)
    try:
        doc: dict[str, _t.Any] = {
            "janus_trace": int(header["janus-trace"]),
            "name": header.get("name", os.path.basename(path)),
            "workflows": [
                wf for wf in header.get("workflows", "").split(",") if wf
            ],
            "metadata": json.loads(header.get("metadata", "{}")),
        }
        if "n-records" in header:
            doc["n_records"] = int(header["n-records"])
    except (KeyError, ValueError) as exc:
        raise TraceError(f"{path}: invalid CSV trace header: {exc}")
    rows = list(csv.reader(body_lines))
    if not rows or tuple(rows[0]) != _FIELDS:
        raise TraceError(
            f"{path}: expected CSV column header {list(_FIELDS)}"
        )
    records = [dict(zip(_FIELDS, row)) for row in rows[1:]]
    for record in records:
        if not record.get("workflow"):
            record.pop("workflow", None)
        if record.get("duration_ms", "") == "":
            record.pop("duration_ms", None)
    return _records_to_trace(doc, records, path)


def _parse_trace(text: str, path: str) -> WorkloadTrace:
    stripped = text.lstrip()
    if not stripped:
        raise TraceError(f"{path}: empty trace file")
    if stripped.startswith("{"):
        return _load_jsonl(text, path)
    return _load_csv(text, path)


def load_trace(path: str | os.PathLike[str]) -> WorkloadTrace:
    """Load a trace file, sniffing the encoding from its first byte."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path!r}: {exc}")
    except UnicodeDecodeError as exc:
        # Binary/compressed/wrong-codec input must surface as the
        # module's own error type so callers (the matrix's traces-axis
        # validation) can attribute it to the offending file.
        raise TraceError(f"{path}: not a UTF-8 text trace file ({exc})")
    return _parse_trace(text, path)


#: Parsed-trace memo behind :func:`cached_trace`, keyed by *file content*:
#: ``{abspath: (raw-bytes digest, parsed trace)}``, LRU-bounded.
_TRACE_MEMO: "_collections.OrderedDict[str, tuple[str, WorkloadTrace]]" = (
    _collections.OrderedDict()
)
_TRACE_MEMO_MAX = 32


def cached_trace(path: str | os.PathLike[str]) -> WorkloadTrace:
    """Memoised :func:`load_trace`, invalidated when the content changes.

    The file's bytes are re-read and re-hashed on every call — cheap next
    to parsing — and the parse is reused only on a digest match, so sweep
    cells replaying one trace parse it once per process while an edited
    file is *always* re-parsed, however quickly it was rewritten (an
    mtime-based key would miss same-size rewrites inside one timestamp
    tick). This is the property the cell cache's trace-digest
    invalidation rests on.
    """
    abspath = os.path.abspath(os.fspath(path))
    try:
        with open(abspath, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {abspath!r}: {exc}")
    digest = content_digest(raw)
    entry = _TRACE_MEMO.get(abspath)
    if entry is not None and entry[0] == digest:
        _TRACE_MEMO.move_to_end(abspath)
        return entry[1]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"{abspath}: not a UTF-8 text trace file ({exc})")
    trace = _parse_trace(text, abspath)
    _TRACE_MEMO[abspath] = (digest, trace)
    if len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
        _TRACE_MEMO.popitem(last=False)
    return trace


# ---------------------------------------------------------------------------
# Producers
# ---------------------------------------------------------------------------

def generate_workload_trace(
    workflows: _t.Sequence[str],
    n_records: int,
    arrival: _t.Any = None,
    zipf_s: float = 0.9,
    seed: int = 2025,
    name: str = "synthetic",
) -> WorkloadTrace:
    """Synthesise a trace: one arrival process, Zipf workflow popularity.

    ``arrival`` is an :class:`~repro.traces.workload.ArrivalSpec` (default:
    a diurnal curve at 8 req/s); each arrival is attributed to a workflow
    drawn from :class:`PopularityMix` over ``workflows`` in rank order.
    Deterministic under ``seed``.
    """
    from .workload import ArrivalSpec  # lazy: workload imports this module

    if n_records <= 0:
        raise TraceError(f"n_records must be > 0, got {n_records}")
    if arrival is None:
        arrival = ArrivalSpec(kind="diurnal", rate_per_s=8.0)
    # The name labels the trace, it does not seed it: regenerating with
    # the same parameters under a different name (or output filename)
    # must reproduce the same records.
    factory = RngFactory(seed).fork("workload-trace")
    arrivals = arrival.timestamps(n_records, factory.stream("arrivals"))
    mix = PopularityMix(tuple(workflows), zipf_s=zipf_s)
    ids = mix.assign(n_records, factory.stream("popularity"))
    return WorkloadTrace(
        name=name,
        arrival_ms=np.asarray(arrivals, dtype=np.float64),
        workflow_ids=ids,
        workflows=tuple(workflows),
        metadata={
            "arrival": arrival.label,
            "zipf_s": float(zipf_s),
            "seed": int(seed),
        },
    )


def trace_from_requests(
    requests: _t.Sequence["WorkflowRequest"],
    name: str = "recorded",
    workflow: str | None = None,
    metadata: _t.Mapping[str, _t.Any] | None = None,
) -> WorkloadTrace:
    """Record a generated request stream back out as a trace.

    Attribution comes from each request's ``workflow`` tag (streams built
    by :func:`~repro.traces.workload.generate_requests` carry it);
    ``workflow`` fills in only *untagged* requests — an existing tag
    always wins, so recording a merged multi-workflow stream can never
    silently collapse its popularity mix. The result replays the
    stream's exact arrivals — the record-then-replay loop the sweep
    cache's bit-identity tests close.
    """
    if not requests:
        raise TraceError("cannot record an empty request stream")
    names = [getattr(req, "workflow", "") or workflow or ""
             for req in requests]
    catalog: tuple[str, ...] = ()
    if all(names):
        catalog = tuple(dict.fromkeys(names))
        index = {wf: i for i, wf in enumerate(catalog)}
        ids = np.array([index[n] for n in names], dtype=np.int64)
    elif any(names):
        raise TraceError(
            "request stream mixes workflow-tagged and untagged requests; "
            "pass workflow= to attribute the untagged ones"
        )
    else:
        ids = np.full(len(requests), -1, dtype=np.int64)
    return WorkloadTrace(
        name=name,
        arrival_ms=np.array(
            [req.arrival_ms for req in requests], dtype=np.float64
        ),
        workflow_ids=ids,
        workflows=catalog,
        metadata=dict(metadata or {}),
    )


def replay_arrivals(
    trace: WorkloadTrace, n: int, workflow: str | None = None
) -> np.ndarray:
    """``n`` arrival timestamps replayed from ``trace``, wrapping around
    past the last record as replay specs do
    (:func:`repro.traces.arrivals.replayed`)."""
    return first_n(replayed(trace, n, workflow), n)
