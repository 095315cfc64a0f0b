"""Hit/miss supervision and regeneration triggering (paper §III-D).

The adapter "continuously counts the hits and misses during hint table
searches. In rare cases where the miss rate exceeds a predefined threshold,
it assumes that the execution time distribution may have changed" and
notifies the developer to regenerate the hints asynchronously.

Two accounting modes:

* **Cumulative** (default, ``window=None``) — all-time counters, matching
  the batch experiments where a run sees one stationary workload.
* **Sliding window** (``window=N``) — the miss rate is computed over the
  last ``N`` lookups only, so a long-lived serving loop reacts to *recent*
  drift instead of having the trigger diluted by hours of healthy
  history. The all-time counters are still kept for reporting.
"""

from __future__ import annotations

import typing as _t
from collections import deque

import numpy as np

from ..errors import AdapterError
from ..knobs import FRACTION, at_least, check_args

__all__ = ["HitMissSupervisor"]

RegenerationCallback = _t.Callable[["HitMissSupervisor"], None]


class HitMissSupervisor:
    """Counts lookup hits/misses and fires a regeneration callback.

    Parameters
    ----------
    miss_threshold:
        Miss-rate threshold (paper default 1%).
    min_samples:
        Lookups required before the rate is considered meaningful; avoids
        spurious triggers on the first few requests.
    window:
        When set, compute :attr:`miss_rate` over the last ``window``
        lookups (bounded deque) instead of all-time; ``min_samples`` must
        then fit inside the window.
    """

    #: Constructor knob domains (``ServingConfig`` reuses two).
    KNOBS = {
        "miss_threshold": FRACTION,
        "min_samples": at_least(1),
        "window": at_least(1).or_none,
    }

    def __init__(
        self,
        miss_threshold: float = 0.01,
        min_samples: int = 100,
        window: int | None = None,
    ) -> None:
        check_args(AdapterError, HitMissSupervisor, locals())
        if window is not None and min_samples > window:
            raise AdapterError(
                f"min_samples ({min_samples}) cannot exceed the "
                f"window ({window}): the trigger could never fire"
            )
        self.miss_threshold = float(miss_threshold)
        self.min_samples = int(min_samples)
        self.window = int(window) if window is not None else None
        self.hits = 0
        self.misses = 0
        self._recent: deque[bool] | None = (
            deque(maxlen=self.window) if self.window else None
        )
        self._recent_misses = 0
        self._callbacks: list[RegenerationCallback] = []
        self._notified = False

    # -- accounting ---------------------------------------------------------
    @property
    def total(self) -> int:
        """Total lookups observed (all-time, regardless of mode)."""
        return self.hits + self.misses

    @property
    def window_total(self) -> int:
        """Lookups currently inside the window (== total when cumulative)."""
        if self._recent is None:
            return self.total
        return len(self._recent)

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0 when no lookups yet).

        Windowed mode: over the last :attr:`window` lookups only.
        """
        if self._recent is not None:
            n = len(self._recent)
            return self._recent_misses / n if n else 0.0
        return self.misses / self.total if self.total else 0.0

    @property
    def cumulative_miss_rate(self) -> float:
        """All-time miss fraction, independent of the window."""
        return self.misses / self.total if self.total else 0.0

    @property
    def hit_rate(self) -> float:
        """Complement of :attr:`miss_rate`."""
        return 1.0 - self.miss_rate if self.window_total else 0.0

    def record(self, hit: bool) -> None:
        """Account one lookup and trigger regeneration when warranted."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if self._recent is not None:
            if len(self._recent) == self.window and not self._recent[0]:
                # The oldest outcome rolls off the window's left edge.
                self._recent_misses -= 1
            self._recent.append(hit)
            if not hit:
                self._recent_misses += 1
        if self.should_regenerate and not self._notified:
            self._notified = True
            for cb in self._callbacks:
                cb(self)

    def record_many(self, hits: "np.ndarray | _t.Sequence[bool]") -> None:
        """Account a batch of lookups (vectorised executor hot path).

        Windowed mode and registered callbacks need per-sample trigger
        evaluation, so those fall back to the scalar loop. The cumulative
        no-callback case bulk-updates the counters and still evaluates the
        threshold at every prefix, so ``_notified`` flips exactly when the
        scalar loop would have flipped it.
        """
        if self._recent is not None or self._callbacks:
            for h in hits:
                self.record(bool(h))
            return
        arr = np.asarray(hits, dtype=bool)
        n = int(arr.size)
        if n == 0:
            return
        misses = self.misses + np.cumsum(~arr)
        totals = self.total + np.arange(1, n + 1)
        self.hits += int(arr.sum())
        self.misses = int(misses[-1])
        if not self._notified:
            crossed = (totals >= self.min_samples) & (
                misses / totals > self.miss_threshold
            )
            if bool(crossed.any()):
                self._notified = True

    @property
    def should_regenerate(self) -> bool:
        """True when the miss rate exceeds the threshold over enough samples."""
        return (
            self.window_total >= self.min_samples
            and self.miss_rate > self.miss_threshold
        )

    # -- notification ------------------------------------------------------
    def on_regenerate(self, callback: RegenerationCallback) -> None:
        """Register a developer-notification callback (fires at most once
        per :meth:`reset` cycle)."""
        self._callbacks.append(callback)

    def reset(self) -> None:
        """Clear counters after a regeneration completed (new tables live)."""
        self.hits = 0
        self.misses = 0
        if self._recent is not None:
            self._recent.clear()
        self._recent_misses = 0
        self._notified = False

    def snapshot(self) -> dict[str, float]:
        """Counters as a plain dict (for reports)."""
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
        }
        if self._recent is not None:
            out["window"] = float(self.window or 0)
            out["window_total"] = float(len(self._recent))
            out["cumulative_miss_rate"] = self.cumulative_miss_rate
        return out
