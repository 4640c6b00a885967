"""Base classes shared by all virtual medical devices.

A :class:`MedicalDevice` is a simulation process with

* an operational state machine (``off -> standby -> running -> fault``),
* a :class:`DeviceDescriptor` advertising its identity, FDA-style risk class,
  published data topics, and accepted commands (this is what the middleware
  registry uses for capability matching, Section III(k) of the paper), and
* optional publish/command plumbing once the device is attached to a
  middleware bus.

Devices are deliberately defensive: commands received in the wrong state are
rejected and counted rather than raising, because in the clinical scenarios
a mis-sequenced command is an event to analyse, not a programming error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.readings import Reading
from repro.sim.kernel import Process
from repro.sim.sampler import BatchedTraceWriter, PeriodicSampler
from repro.sim.trace import TraceRecorder


def clamp(value: float, low: float, high: float) -> float:
    """``float(np.clip(value, low, high))`` for one scalar, bit for bit.

    NaN passes through and ``-0.0`` keeps its sign, exactly as ``np.clip``
    does for ``low <= high``, at a tenth of the cost of a numpy call on the
    per-sample path.
    """
    return float(min(max(value, low), high))


class DeviceState(enum.Enum):
    """Operational state of a device."""

    OFF = "off"
    STANDBY = "standby"
    RUNNING = "running"
    PAUSED = "paused"
    FAULT = "fault"


# Allowed operational-state transitions.  Anything not listed is rejected.
_ALLOWED_TRANSITIONS: Dict[DeviceState, Tuple[DeviceState, ...]] = {
    DeviceState.OFF: (DeviceState.STANDBY,),
    DeviceState.STANDBY: (DeviceState.RUNNING, DeviceState.OFF, DeviceState.FAULT),
    DeviceState.RUNNING: (DeviceState.PAUSED, DeviceState.STANDBY, DeviceState.FAULT, DeviceState.OFF),
    DeviceState.PAUSED: (DeviceState.RUNNING, DeviceState.STANDBY, DeviceState.FAULT, DeviceState.OFF),
    DeviceState.FAULT: (DeviceState.STANDBY, DeviceState.OFF),
}


@dataclass(frozen=True)
class DeviceDescriptor:
    """Self-description a device registers with the ICE middleware.

    device_id:
        Unique identifier on the medical-device network.
    device_type:
        Category string, e.g. ``"pca_pump"`` or ``"pulse_oximeter"``.
    manufacturer / model:
        Free-form provenance, used for interoperability diagnostics.
    risk_class:
        FDA device class ("I", "II", or "III"); the mixed-criticality
        scenario correlates low-risk device events with high-risk readings.
    published_topics:
        Data topics the device publishes (e.g. ``"spo2"``).
    accepted_commands:
        Commands the device accepts over the network (e.g. ``"stop"``).
        An empty tuple models the locked-down, data-only security posture
        discussed in Section III(m).
    capabilities:
        Additional capability flags used by workflow device matching.
    """

    device_id: str
    device_type: str
    manufacturer: str = "OpenMCPS"
    model: str = "sim-1"
    risk_class: str = "II"
    published_topics: Tuple[str, ...] = ()
    accepted_commands: Tuple[str, ...] = ()
    capabilities: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.risk_class not in ("I", "II", "III"):
            raise ValueError(f"risk_class must be 'I', 'II', or 'III', got {self.risk_class!r}")
        if not self.device_id:
            raise ValueError("device_id must be non-empty")

    def accepts(self, command: str) -> bool:
        return command in self.accepted_commands

    def publishes(self, topic: str) -> bool:
        return topic in self.published_topics


class MedicalDevice(Process):
    """Common behaviour of all simulated medical devices."""

    def __init__(
        self,
        descriptor: DeviceDescriptor,
        *,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(name=f"device:{descriptor.device_id}")
        self.descriptor = descriptor
        self.state = DeviceState.STANDBY
        self._publisher: Optional[Callable[[str, Any], None]] = None
        self._command_handlers: Dict[str, Callable[[Dict[str, Any]], Any]] = {}
        self.rejected_commands: List[Tuple[str, str]] = []
        self.state_history: List[Tuple[float, DeviceState]] = []
        self.crashed = False
        self._event_names: Dict[str, str] = {}
        self._declared_signals: List[str] = []
        self.trace = trace  # property: builds the batched writer

    @property
    def trace(self) -> Optional[TraceRecorder]:
        return self._trace

    @trace.setter
    def trace(self, trace: Optional[TraceRecorder]) -> None:
        # Fixed-rate sampling backbone: signal samples go through a batched
        # writer whose full names are precomputed at declare time, and event
        # names are cached — no per-sample f-strings anywhere.  Assigning
        # `trace` (at construction or later) rebuilds the writer so a trace
        # attached after __init__ records signals exactly like one passed in:
        # the old writer is flushed and unregistered from its recorder, and
        # any live sampling loops are re-pointed at the new writer.
        old_writer = getattr(self, "_writer", None)
        if old_writer is not None:
            old_writer.detach()
        self._trace = trace
        if trace is None:
            self._writer: Optional[BatchedTraceWriter] = None
        else:
            self._writer = BatchedTraceWriter(
                trace, prefix=self.descriptor.device_id, source=self.name)
            for signal in self._declared_signals:
                self._writer.declare(signal)
        for task in self._tasks:
            if isinstance(task, PeriodicSampler):
                task.writer = self._writer

    # --------------------------------------------------------------- states
    def transition(self, new_state: DeviceState) -> bool:
        """Attempt an operational state transition; returns success."""
        if new_state == self.state:
            return True
        allowed = _ALLOWED_TRANSITIONS[self.state]
        if new_state not in allowed:
            self._log_event("rejected_transition", f"{self.state.value}->{new_state.value}")
            return False
        self.state = new_state
        time = self._simulator.now if self._simulator is not None else 0.0
        self.state_history.append((time, new_state))
        self._log_event("state", new_state.value)
        return True

    @property
    def is_operational(self) -> bool:
        return self.state in (DeviceState.RUNNING, DeviceState.PAUSED) and not self.crashed

    # -------------------------------------------------------------- fault hooks
    def crash(self) -> None:
        """Fault-injection hook: the device stops responding entirely."""
        self.crashed = True
        self.transition(DeviceState.FAULT)
        self.cancel_all()

    def restart(self) -> None:
        """Fault-injection hook: bring a crashed device back to standby."""
        self.crashed = False
        if self.state == DeviceState.FAULT:
            self.transition(DeviceState.STANDBY)

    # ------------------------------------------------------------ middleware
    def attach_publisher(self, publisher: Callable[[str, Any], None]) -> None:
        """Give the device a function that publishes ``(topic, payload)``."""
        self._publisher = publisher

    def publish(self, topic: str, payload: Any) -> None:
        if self.crashed:
            return
        if not self.descriptor.publishes(topic):
            raise ValueError(
                f"device {self.descriptor.device_id!r} tried to publish undeclared topic {topic!r}"
            )
        if self._publisher is not None:
            self._publisher(topic, payload)

    def publish_reading(
        self,
        topic: str,
        value: Any,
        valid: bool = True,
        *,
        record: Optional[str] = None,
    ) -> None:
        """Publish one sensor sample on ``topic`` as a :class:`Reading`.

        The sample is stamped with the current simulated time.  ``record``
        optionally names a declared trace signal to record ``value`` under in
        the same call (the publish+record pair every sensor tick performs).
        """
        if self.crashed:
            return
        if not self.descriptor.publishes(topic):
            raise ValueError(
                f"device {self.descriptor.device_id!r} tried to publish undeclared topic {topic!r}"
            )
        now = self.now
        if self._publisher is not None:
            self._publisher(topic, Reading(value, valid, now))
        if record is not None and self._writer is not None:
            self._writer.record(now, record, value)

    def register_command(self, command: str, handler: Callable[[Dict[str, Any]], Any]) -> None:
        if not self.descriptor.accepts(command):
            raise ValueError(
                f"device {self.descriptor.device_id!r} registered handler for undeclared command {command!r}"
            )
        self._command_handlers[command] = handler

    def handle_command(self, command: str, parameters: Optional[Dict[str, Any]] = None) -> Any:
        """Process a network command; rejected commands are recorded, not raised."""
        parameters = parameters or {}
        if self.crashed:
            self.rejected_commands.append((command, "device crashed"))
            return None
        if not self.descriptor.accepts(command):
            self.rejected_commands.append((command, "command not accepted by descriptor"))
            self._log_event("rejected_command", command)
            return None
        handler = self._command_handlers.get(command)
        if handler is None:
            self.rejected_commands.append((command, "no handler registered"))
            self._log_event("rejected_command", command)
            return None
        return handler(parameters)

    # ---------------------------------------------------------------- tracing
    def sample_every(self, period: float, callback: Callable[[], None]) -> PeriodicSampler:
        """Run ``callback`` every ``period`` seconds on the sampling backbone.

        Same scheduling pattern as :meth:`Process.every` (so kernel event
        counts and ordering are unchanged), but the returned sampler also
        flushes this device's batched trace samples through ``record_many``.
        Registered with :meth:`cancel_all`, so :meth:`crash` stops it.
        """
        sampler = PeriodicSampler(
            self.simulator, period, callback,
            writer=self._writer, name=f"{self.name}:sampler",
        )
        sampler.start(self.simulator.now + period)
        self._tasks.append(sampler)
        return sampler

    def _declare_signals(self, *signals: str) -> None:
        """Precompute the full trace names of ``signals`` (attach-time cost)."""
        self._declared_signals.extend(signals)
        if self._writer is not None:
            for signal in signals:
                self._writer.declare(signal)

    def _declare_events(self, *kinds: str) -> None:
        """Pre-warm the event-name cache for the device's known event kinds."""
        device_id = self.descriptor.device_id
        for kind in kinds:
            self._event_names[kind] = f"{device_id}:{kind}"

    def _log_event(self, kind: str, value: Any) -> None:
        if self.trace is not None and self._simulator is not None:
            name = self._event_names.get(kind)
            if name is None:
                name = self._event_names[kind] = f"{self.descriptor.device_id}:{kind}"
            self.trace.event(self.now, name, value, source=self.name)

    def _record(self, signal: str, value: Any) -> None:
        writer = self._writer
        if writer is not None and self._simulator is not None:
            writer.record(self._simulator.now, signal, value)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.descriptor.device_id!r} {self.state.value}>"
