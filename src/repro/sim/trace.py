"""Time-stamped signal and event traces.

Traces are the raw material for every experiment metric in this repository:
drug concentration curves, SpO2 series, alarm events, pump commands, and so
on are all recorded here and post-processed by :mod:`repro.analysis`.

Hot-path layout: each signal is a pair of growable parallel lists (times,
values) held in a ``__slots__`` buffer, so :meth:`TraceRecorder.record` is
two list appends.  The numpy conversions behind :meth:`times` /
:meth:`values` are cached per signal and invalidated on write — analysis
code calls them repeatedly per run, and rebuilding the arrays each call
dominated metric collection on large traces.

Producers write every sample straight through :meth:`TraceRecorder.record`
under a full signal name (``"<producer>:<signal>"``) they precompute once, so
a query always sees every sample recorded so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TracePoint:
    """A single ``(time, value)`` sample of a named signal."""

    time: float
    signal: str
    value: Any
    source: str = ""


class _SignalBuffer:
    """Growable per-signal sample storage with cached array conversions."""

    __slots__ = ("times", "values", "_times_arr", "_values_arr")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[Any] = []
        self._times_arr: Optional[np.ndarray] = None
        self._values_arr: Optional[np.ndarray] = None

    def times_array(self) -> np.ndarray:
        arr = self._times_arr
        if arr is None:
            arr = np.asarray(self.times, dtype=float)
            arr.flags.writeable = False  # shared cache: mutation would corrupt it
            self._times_arr = arr
        return arr

    def values_array(self) -> np.ndarray:
        arr = self._values_arr
        if arr is None:
            arr = np.asarray(self.values, dtype=float)
            arr.flags.writeable = False
            self._values_arr = arr
        return arr


_EMPTY = np.array([], dtype=float)
_EMPTY.flags.writeable = False


class TraceRecorder:
    """Collects samples and discrete events emitted during a simulation run."""

    def __init__(self) -> None:
        self._signals: Dict[str, _SignalBuffer] = {}
        self._events: List[TracePoint] = []

    # -------------------------------------------------------------- recording
    def record(self, time: float, signal: str, value: Any) -> None:  # repro-lint: hot
        """Append a sample of ``signal`` at ``time``."""
        buffer = self._signals.get(signal)
        if buffer is None:
            buffer = self._signals[signal] = _SignalBuffer()
        buffer.times.append(float(time))
        buffer.values.append(value)
        buffer._times_arr = None
        buffer._values_arr = None

    def event(self, time: float, signal: str, value: Any = None, source: str = "") -> None:
        """Record a discrete event (alarm raised, pump stopped, ...)."""
        self._events.append(TracePoint(time=float(time), signal=signal, value=value, source=source))

    # ---------------------------------------------------------------- queries
    def signals(self) -> List[str]:
        return sorted(self._signals)

    def samples(self, signal: str) -> List[Tuple[float, Any]]:
        """All samples of ``signal`` in recording order."""
        buffer = self._signals.get(signal)
        if buffer is None:
            return []
        return list(zip(buffer.times, buffer.values))

    def times(self, signal: str) -> np.ndarray:
        """Sample times as a float array (cached; treat as read-only)."""
        buffer = self._signals.get(signal)
        if buffer is None:
            return _EMPTY
        return buffer.times_array()

    def values(self, signal: str) -> np.ndarray:
        """Sample values as a float array (cached; treat as read-only)."""
        buffer = self._signals.get(signal)
        if buffer is None:
            return _EMPTY
        return buffer.values_array()

    def events(self, signal: Optional[str] = None) -> List[TracePoint]:
        if signal is None:
            return list(self._events)
        return [e for e in self._events if e.signal == signal]

    def count_events(self, signal: str) -> int:
        return sum(1 for e in self._events if e.signal == signal)

    # -------------------------------------------------------------- summaries
    def duration_below(self, signal: str, threshold: float) -> float:
        """Total simulated time the (step-interpolated) signal is below ``threshold``."""
        buffer = self._signals.get(signal)
        if buffer is None or len(buffer.times) < 2:
            return 0.0
        times = buffer.times
        values = buffer.values
        total = 0.0
        # Sequential accumulation on purpose: a vectorised sum would change
        # rounding and break byte-identical run records across versions.
        for i in range(len(times) - 1):
            if values[i] < threshold:
                total += times[i + 1] - times[i]
        return total

    def to_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot (used by EXPERIMENTS.md generation and tests)."""
        from repro.readings import Reading  # local: trace is below readings' consumers

        return {
            "signals": {
                name: list(zip(buffer.times, buffer.values))
                for name, buffer in self._signals.items()
            },
            "events": [
                {
                    "time": e.time,
                    "signal": e.signal,
                    # Readings serialise as their legacy dict payload form, so
                    # trace snapshots stay plain-JSON (and byte-identical to
                    # the dict-payload era for unchanged runs).
                    "value": e.value.as_dict() if type(e.value) is Reading else e.value,
                    "source": e.source,
                }
                for e in self._events
            ],
        }

    def __len__(self) -> int:
        return sum(len(buffer.times) for buffer in self._signals.values()) + len(self._events)
