"""Always-on serving: the live counterpart of the batch experiments.

The paper's Janus runs as a *service*: requests arrive continuously, the
adapter sizes each stage online, and a supervisor watches the miss rate
for distribution drift. The batch layers reproduce the figures; this
package closes the loop into a long-running process:

* :mod:`repro.serving.events` — a structured JSONL event log (arrivals,
  decisions, hot-swaps, snapshots) so runs are replayable and testable.
* :mod:`repro.serving.loop` — the asyncio :class:`ServingLoop`: ingest,
  size, record hit/miss, stream metrics at O(1) memory, and re-synthesize
  hints when the windowed miss rate crosses the threshold — hot-swapping
  tables without dropping in-flight requests.
"""

from .events import EventLog, read_events
from .loop import ServingConfig, ServingLoop, ServingReport, run_service

__all__ = [
    "EventLog",
    "read_events",
    "ServingConfig",
    "ServingLoop",
    "ServingReport",
    "run_service",
]
