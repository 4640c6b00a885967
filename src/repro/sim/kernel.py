"""Core discrete-event simulation kernel.

The kernel is intentionally small and deterministic: events scheduled at the
same simulated time are executed in FIFO order of their scheduling sequence
number, so a simulation run is a pure function of its inputs and seeds.

Hot-path layout: the heap holds plain ``(time, priority, sequence, event)``
tuples so every heap comparison is a C-level tuple comparison, and
:class:`Event` is a ``__slots__`` class carrying only per-event state.  The
simulator tracks the live (queued, not cancelled) event count incrementally,
which keeps :meth:`Simulator.pending` O(1) and lets :meth:`Simulator.peek`
lazily discard cancelled heads instead of scanning the queue.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import kernel_instruments


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, running twice, ...)."""


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, sequence)``.  ``priority`` lets
    callers force ordering between events scheduled for the same instant
    (lower runs first); ``sequence`` guarantees FIFO order otherwise.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "name",
                 "cancelled", "_sim", "_in_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        name: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.name = name
        self.cancelled = cancelled
        self._sim: Optional["Simulator"] = None
        self._in_queue = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._in_queue and self._sim is not None:
                sim = self._sim
                sim._live -= 1
                if sim._metrics is not None:
                    sim._metrics.events_cancelled.value += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = " cancelled" if self.cancelled else ""
        return (f"<Event t={self.time} prio={self.priority} "
                f"seq={self.sequence} {self.name!r}{state}>")


#: Heap entry layout: comparisons never reach the (incomparable) Event.
_QueueEntry = Tuple[float, int, int, Event]


class Simulator:
    """Discrete-event simulator with a floating-point clock (seconds).

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second"))
        sim.run(until=10.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[_QueueEntry] = []
        self._sequence = itertools.count()
        self._running = False
        self._stopped = False
        self._processes: List["Process"] = []
        self._event_count = 0
        self._live = 0  # queued and not cancelled; kept exact incrementally
        # Observability: None unless repro.obs is enabled at construction
        # time, so the disabled hot path pays one attribute check at most.
        self._metrics = kernel_instruments()
        self._profiler = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def running(self) -> bool:
        """True while :meth:`run` is dispatching events."""
        return self._running

    @property
    def event_count(self) -> int:
        """Number of events executed so far (useful for cost accounting)."""
        return self._event_count

    # ------------------------------------------------------------ scheduling
    # repro-lint: hot
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        # Inlined push (rather than delegating to schedule_at): this is the
        # single hottest call in every simulation.  delay >= 0 makes the
        # past-check redundant; only finiteness can still fail.
        time = self._now + delay
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        sequence = next(self._sequence)
        event = Event(time, priority, sequence, callback, name)
        event._sim = self
        event._in_queue = True
        heappush(self._queue, (time, priority, sequence, event))
        self._live += 1
        metrics = self._metrics
        if metrics is not None:
            depth = len(self._queue)
            if depth > metrics.heap_peak:
                metrics.heap_peak = depth
        return event

    # repro-lint: hot
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self._now}, requested={time})"
            )
        time = float(time)
        sequence = next(self._sequence)
        event = Event(time, priority, sequence, callback, name)
        event._sim = self
        event._in_queue = True
        heappush(self._queue, (time, priority, sequence, event))
        self._live += 1
        metrics = self._metrics
        if metrics is not None:
            depth = len(self._queue)
            if depth > metrics.heap_peak:
                metrics.heap_peak = depth
        return event

    def call_every(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        start: Optional[float] = None,
        name: str = "",
    ) -> "PeriodicTask":
        """Run ``callback`` every ``period`` seconds until cancelled."""
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        task = PeriodicTask(self, period, callback, name=name)
        first = self._now + period if start is None else start
        task.start(first)
        return task

    # --------------------------------------------------------------- running
    # repro-lint: hot
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue empties, ``until`` is reached, or stop().

        Returns the simulated time at which the run finished.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        queue = self._queue
        pop = heappop
        # Sentinel bounds keep the per-event checks to two comparisons.
        time_bound = math.inf if until is None else until
        count_bound = math.inf if max_events is None else max_events
        # Hoisted observability state: with obs disabled both are None and
        # the loop pays one local is-None check per event (profiler) plus
        # nothing at all for metrics (accounted as deltas after the loop).
        profiler = self._profiler
        metrics = self._metrics
        if metrics is not None:
            fired_before = self._event_count
            sim_before = self._now
            wall_before = perf_counter()
        try:
            while queue:
                if self._stopped:
                    break
                if self._event_count >= count_bound:
                    break
                entry = queue[0]
                time = entry[0]
                if time > time_bound:
                    self._now = until
                    break
                pop(queue)
                event = entry[3]
                event._in_queue = False
                if event.cancelled:
                    continue
                self._live -= 1
                self._now = time
                self._event_count += 1
                if profiler is None:
                    event.callback()
                else:
                    profiler.dispatch(event)
            else:
                if until is not None and self._now < until:
                    self._now = until
        finally:
            self._running = False
            if metrics is not None:
                metrics.flush_run(self._event_count - fired_before,
                                  self._now - sim_before,
                                  perf_counter() - wall_before)
        return self._now

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            event = entry[3]
            event._in_queue = False
            if event.cancelled:
                continue
            self._live -= 1
            self._now = entry[0]
            self._event_count += 1
            event.callback()
            return True
        return False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return self._live

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        Cancelled events sitting at the head are discarded lazily, so a
        scenario polling ``peek`` in a loop stays O(log n) amortised instead
        of sorting the queue on every call.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[3].cancelled:
                heappop(queue)
                entry[3]._in_queue = False
                continue
            return entry[0]
        return None

    # ---------------------------------------------------------- observability
    def attach_profiler(self, profiler) -> None:
        """Attach a :class:`repro.obs.SamplingProfiler` to the dispatch loop.

        Takes effect on the next :meth:`run` call (the loop hoists the
        profiler reference once, so attaching mid-run has no effect on the
        segment already executing).
        """
        self._profiler = profiler

    def detach_profiler(self) -> None:
        """Remove the attached profiler (next :meth:`run` is uninstrumented)."""
        self._profiler = None

    # ------------------------------------------------------------- processes
    def register(self, process: "Process") -> None:
        """Attach a process to this simulator and call its ``start`` hook."""
        self._processes.append(process)
        process.bind(self)
        process.start()

    @property
    def processes(self) -> List["Process"]:
        return list(self._processes)


class PeriodicTask:
    """A recurring callback managed by :meth:`Simulator.call_every`."""

    def __init__(
        self,
        simulator: Simulator,
        period: float,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        self._simulator = simulator
        self.period = period
        self._callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self._cancelled = False
        self.run_count = 0

    def start(self, first_time: float) -> None:
        self._event = self._simulator.schedule_at(first_time, self._tick, name=self.name)

    def _tick(self) -> None:
        if self._cancelled:
            return
        self.run_count += 1
        self._callback()
        if not self._cancelled:
            self._event = self._simulator.schedule(self.period, self._tick, name=self.name)

    def cancel(self) -> None:
        """Stop future executions; an in-flight callback is not interrupted."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Process:
    """Base class for simulation actors (devices, patients, supervisors).

    Subclasses override :meth:`start` to schedule their initial activity and
    may use :meth:`after` / :meth:`every` as convenience wrappers around the
    simulator's scheduling API.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._simulator: Optional[Simulator] = None
        self._tasks: List[PeriodicTask] = []

    # ------------------------------------------------------------- lifecycle
    def bind(self, simulator: Simulator) -> None:
        self._simulator = simulator

    def start(self) -> None:  # pragma: no cover - default hook does nothing
        """Hook called when the process is registered with a simulator."""

    # ------------------------------------------------------------ scheduling
    @property
    def simulator(self) -> Simulator:
        if self._simulator is None:
            raise SimulationError(f"process {self.name!r} is not bound to a simulator")
        return self._simulator

    @property
    def now(self) -> float:
        return self.simulator.now

    def after(self, delay: float, callback: Callable[[], None], **kwargs: Any) -> Event:
        return self.simulator.schedule(delay, callback, name=f"{self.name}:{callback.__name__}", **kwargs)

    def every(self, period: float, callback: Callable[[], None], **kwargs: Any) -> PeriodicTask:
        task = self.simulator.call_every(period, callback, name=f"{self.name}:{callback.__name__}", **kwargs)
        self._tasks.append(task)
        return task

    def cancel_all(self) -> None:
        """Cancel every periodic task this process started."""
        for task in self._tasks:
            task.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name!r}>"


def build_simulator(config: Optional[Dict[str, Any]] = None) -> Simulator:
    """Convenience factory used by scenario builders.

    ``config`` may carry a ``start_time`` key; everything else is ignored so
    callers can pass their full scenario configuration dict straight through.
    """
    config = config or {}
    return Simulator(start_time=float(config.get("start_time", 0.0)))
