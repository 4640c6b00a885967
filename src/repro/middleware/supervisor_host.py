"""Supervisor hosting: the ICE "supervisor" component.

A :class:`SupervisorApp` is an application (the closed-loop PCA safety app,
a smart-alarm app, the X-ray coordinator) that subscribes to device topics
and issues device commands.  The :class:`SupervisorHost` is the platform it
runs on: it wires subscriptions through the device bus, enforces the
security policy on outgoing commands (Section III(m) of the paper), tracks
QoS, and gives apps a periodic execution slot with a modelled algorithm
processing delay (the "Algorithm Processing time" of Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.middleware.bus import DeviceBus
from repro.middleware.qos import QoSMonitor, TopicQoS
from repro.readings import Reading
from repro.sim.channel import Message
from repro.sim.kernel import Process
from repro.sim.trace import TraceRecorder


class SupervisorApp:
    """Base class for supervisor applications.

    Subclasses declare the topics they consume via :attr:`subscriptions` and
    the QoS contracts they need via :attr:`qos_contracts`, then implement
    :meth:`on_data` and/or :meth:`step`.
    """

    #: Topics this app subscribes to.
    subscriptions: Tuple[str, ...] = ()
    #: QoS contracts the host should monitor for this app.
    qos_contracts: Tuple[TopicQoS, ...] = ()
    #: Period of the app's control step in seconds (None = event-driven only).
    step_period_s: Optional[float] = 1.0

    def __init__(self, app_id: str) -> None:
        self.app_id = app_id
        self.host: Optional["SupervisorHost"] = None

    # ----------------------------------------------------------------- hooks
    def on_attached(self) -> None:
        """Called when the app is attached to a host."""

    def on_data(self, topic: str, payload: Any, message: Message) -> None:
        """Called for every delivery on a subscribed topic."""

    def step(self, now: float) -> None:
        """Periodic control step (after the host's algorithm delay)."""

    # ------------------------------------------------------------- utilities
    def send_command(self, device_id: str, command: str, parameters: Optional[Dict[str, Any]] = None) -> bool:
        if self.host is None:
            raise RuntimeError(f"app {self.app_id!r} is not attached to a host")
        return self.host.send_command(self, device_id, command, parameters)

    @property
    def qos(self) -> QoSMonitor:
        if self.host is None:
            raise RuntimeError(f"app {self.app_id!r} is not attached to a host")
        return self.host.qos


@dataclass
class CommandRecord:
    time: float
    app_id: str
    device_id: str
    command: str
    authorised: bool
    reason: str = ""


class SupervisorHost(Process):
    """Hosts supervisor apps on top of the device bus."""

    def __init__(
        self,
        bus: DeviceBus,
        *,
        host_id: str = "supervisor_host",
        algorithm_delay_s: float = 0.1,
        command_authoriser: Optional[Callable[[str, str, str], Tuple[bool, str]]] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(name=host_id)
        if algorithm_delay_s < 0:
            raise ValueError("algorithm_delay_s must be non-negative")
        self.bus = bus
        self.host_id = host_id
        self.algorithm_delay_s = algorithm_delay_s
        self.trace = trace
        self.qos = QoSMonitor(bus.simulator)
        self._apps: Dict[str, SupervisorApp] = {}
        self._command_authoriser = command_authoriser
        self.command_log: List[CommandRecord] = []

    # ------------------------------------------------------------------ apps
    def attach_app(self, app: SupervisorApp) -> None:
        if app.app_id in self._apps:
            raise ValueError(f"app {app.app_id!r} already attached")
        self._apps[app.app_id] = app
        app.host = self
        endpoint_id = f"{self.host_id}:{app.app_id}"
        self.bus.attach_endpoint(endpoint_id)
        for topic in app.subscriptions:
            self.bus.subscribe(endpoint_id, topic, self._make_handler(app))
        for contract in app.qos_contracts:
            self.qos.add_contract(contract)
        app.on_attached()
        if self._simulator is not None:
            self._schedule_app(app)

    def _make_handler(self, app: SupervisorApp):
        def _handler(topic: str, payload: Any, message: Message) -> None:
            # Readings carry their publish time in a slot; any other payload
            # is stamped with the instant its message was sent.
            published_at = payload.time if type(payload) is Reading else message.sent_at
            self.qos.record_delivery(topic, published_at=float(published_at), delivered_at=message.delivered_at)
            app.on_data(topic, payload, message)
        return _handler

    @property
    def apps(self) -> List[SupervisorApp]:
        return list(self._apps.values())

    # --------------------------------------------------------------- process
    def start(self) -> None:
        for app in self._apps.values():
            self._schedule_app(app)

    def _schedule_app(self, app: SupervisorApp) -> None:
        if app.step_period_s is None:
            return
        self.every(app.step_period_s, lambda app=app: self._run_step(app))

    def _run_step(self, app: SupervisorApp) -> None:
        # The algorithm's own processing time delays its effects: schedule the
        # actual decision after algorithm_delay_s so commands it issues carry
        # the Figure 1 "Algorithm Processing time" term.
        self.after(self.algorithm_delay_s, lambda: app.step(self.now))

    # -------------------------------------------------------------- commands
    def send_command(
        self,
        app: SupervisorApp,
        device_id: str,
        command: str,
        parameters: Optional[Dict[str, Any]] = None,
    ) -> bool:
        authorised, reason = True, "no policy"
        if self._command_authoriser is not None:
            authorised, reason = self._command_authoriser(app.app_id, device_id, command)
        record = CommandRecord(
            time=self.now,
            app_id=app.app_id,
            device_id=device_id,
            command=command,
            authorised=authorised,
            reason=reason,
        )
        self.command_log.append(record)
        if self.trace is not None:
            self.trace.event(self.now, f"supervisor:command:{command}",
                             {"device": device_id, "authorised": authorised}, source=app.app_id)
        if not authorised:
            return False
        return self.bus.send_command(f"{self.host_id}:{app.app_id}", device_id, command, parameters)

    # ------------------------------------------------------------- accounting
    def denied_commands(self) -> List[CommandRecord]:
        return [record for record in self.command_log if not record.authorised]
