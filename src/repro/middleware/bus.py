"""Topic-based publish/subscribe bus over simulated network channels.

The bus is the ICE "network controller": every attached device gets its own
uplink channel to the bus and the bus forwards messages to subscriber
downlink channels, so end-to-end latency is the sum of two channel delays
plus any bus processing delay.  Channels can be degraded or cut by the fault
injector to model communication failures.

Each topic's route is compiled when subscriptions are wired: the downlinks
of its subscribed endpoints, deduplicated in subscription order.
:meth:`DeviceBus.publish` resolves the whole route at publish time, so a
reading costs one kernel event per subscribed endpoint (its downlink
delivery tick, shared with other messages landing at the same instant) and
none at all on a topic nobody subscribes to:

* the uplink takes its sequence number, outage test, loss draw and jitter
  draw now (:meth:`Channel.route`) and yields the arrival ``t_up``;
* the forward instant is ``t_fwd = t_up + processing_delay_s``;
* each subscribed downlink sends the message at ``t_fwd``
  (:meth:`Channel.send_at`) into its batch at ``t_fwd + downlink latency``;
  the downlink's outage test for ``t_fwd`` runs when that batch fires and
  honours outages added at or before ``t_fwd``.

Because routes are resolved at publish time, a ``subscribe`` made mid-run
affects only later publishes, and readings published at the same instant are
forwarded in publish order, even when a command sent to a device earlier in
that instant shares the device's uplink tick.  A downlink tick still fires
when an outage has dropped every message in it, since it was scheduled
before the outage test ran.  On stochastic links every draw is taken at
publish time in this order: the uplink's loss draw (skipped during an uplink
outage) and jitter draw, then for each subscribed downlink in route order
its loss draw and jitter draw.  The statistics still read as though each hop
happened at its own instant: :attr:`DeviceBus.forwarded_count` and
:meth:`DeviceBus.stats` count a forward at ``t_fwd``, and nothing still in
flight when the simulation stops (the ``bus.forwarded`` metric, by contrast,
counts forwards when they are routed).  Commands
(:meth:`DeviceBus.send_command`) are the only traffic the uplink channels
deliver themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.devices.base import MedicalDevice
from repro.obs.metrics import bus_instruments
from repro.sim.channel import Channel, ChannelConfig, Message
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

#: Topic prefix reserved for the reverse (command) path.  Command messages
#: ride the device uplink but must never enter the pub/sub forwarding path.
COMMAND_TOPIC_PREFIX = "__command__:"


class Envelope:
    """Bus forwarding envelope: the original payload plus its publish time.

    One envelope is built per routed reading (shared by every subscriber
    copy) on the simulation's hottest messaging path; a slotted class keeps
    that cheaper than a fresh two-key dict per subscriber and makes the
    contract explicit.  Treat instances as immutable.
    """

    __slots__ = ("payload", "published_at")

    def __init__(self, payload: Any, published_at: float) -> None:
        self.payload = payload
        self.published_at = published_at

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Envelope published_at={self.published_at} {self.payload!r}>"


@dataclass
class BusConfig:
    """Network parameters for the device bus.

    uplink / downlink:
        Channel configurations for device-to-bus and bus-to-subscriber links.
    processing_delay_s:
        Fixed forwarding delay inside the bus (message validation, routing).
    """

    uplink: ChannelConfig = field(default_factory=lambda: ChannelConfig(latency_s=0.02))
    downlink: ChannelConfig = field(default_factory=lambda: ChannelConfig(latency_s=0.02))
    processing_delay_s: float = 0.005

    def validate(self) -> None:
        self.uplink.validate()
        self.downlink.validate()
        if self.processing_delay_s < 0:
            raise ValueError("processing_delay_s must be non-negative")


class DeviceBus:
    """Publish/subscribe message bus connecting devices and supervisors."""

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[BusConfig] = None,
        *,
        rng=None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config or BusConfig()
        self.config.validate()
        self._rng = rng
        self.trace = trace
        self._uplinks: Dict[str, Channel] = {}
        self._downlinks: Dict[str, Channel] = {}
        self._subscriptions: Dict[str, List[Tuple[str, Callable[[str, Any, Message], None]]]] = {}
        # Compiled routes: topic -> subscribed downlinks, deduplicated in
        # subscription order (rebuilt by subscribe()).
        self._routes: Dict[str, Tuple[Channel, ...]] = {}
        self._attached_devices: Dict[str, MedicalDevice] = {}
        self._command_routes: set = set()
        self.published_count = 0
        # Registry-backed metrics; None unless repro.obs was enabled when
        # this bus was constructed.
        self._obs = bus_instruments()

    # ------------------------------------------------------------ attachment
    def attach_device(self, device: MedicalDevice) -> Channel:
        """Attach a device: create its uplink and wire its publish method."""
        device_id = device.descriptor.device_id
        if device_id in self._attached_devices:
            raise ValueError(f"device {device_id!r} is already attached to the bus")
        uplink = self._make_uplink(device_id)
        self._attached_devices[device_id] = device
        device.attach_publisher(lambda topic, payload, d=device_id: self.publish(d, topic, payload))
        return uplink

    def attach_endpoint(self, endpoint_id: str) -> None:
        """Attach a non-device endpoint (supervisor, logger) for subscriptions."""
        if endpoint_id not in self._downlinks:
            self._downlinks[endpoint_id] = Channel(
                self.simulator,
                name=f"downlink:{endpoint_id}",
                config=self.config.downlink,
                rng=self._rng,
            )

    def _make_uplink(self, device_id: str) -> Channel:
        if device_id not in self._uplinks:
            self._uplinks[device_id] = Channel(
                self.simulator,
                name=f"uplink:{device_id}",
                config=self.config.uplink,
                rng=self._rng,
            )
        return self._uplinks[device_id]

    def uplink(self, device_id: str) -> Channel:
        return self._uplinks[device_id]

    def downlink(self, endpoint_id: str) -> Channel:
        return self._downlinks[endpoint_id]

    @property
    def devices(self) -> Dict[str, MedicalDevice]:
        return dict(self._attached_devices)

    @property
    def channels(self) -> List[Channel]:
        return list(self._uplinks.values()) + list(self._downlinks.values())

    @property
    def forwarded_count(self) -> int:
        """Forwards whose instant ``t_fwd`` the clock has reached.

        One per subscribed endpoint per routed reading, dropped or not: the
        sum of the downlinks' sends (only the bus sends on its downlinks).
        """
        return sum(downlink.sent for downlink in self._downlinks.values())

    # ------------------------------------------------------------ publishing
    def publish(self, device_id: str, topic: str, payload: Any) -> None:  # repro-lint: hot
        """Called by devices; resolves the reading's route to every subscriber."""
        uplink = self._uplinks.get(device_id)
        if uplink is None:
            uplink = self._make_uplink(device_id)
        self.published_count += 1
        obs = self._obs
        if obs is not None:
            obs.published.value += 1
        now = self.simulator.now
        if self.trace is not None:
            self.trace.event(now, f"bus:publish:{topic}", payload, source=device_id)
        arrival = uplink.route(device_id, topic, payload)
        if arrival is None:
            return
        downlinks = self._routes.get(topic)
        if downlinks is None:
            return
        # The original publish time travels in the envelope for end-to-end
        # latency accounting.
        forward_at = arrival + self.config.processing_delay_s
        envelope = Envelope(payload, now)
        for downlink in downlinks:
            downlink.send_at(forward_at, device_id, topic, envelope)
        if obs is not None:
            obs.forwarded.value += len(downlinks)

    # ---------------------------------------------------------- subscribing
    def subscribe(
        self,
        endpoint_id: str,
        topic: str,
        handler: Callable[[str, Any, Message], None],
    ) -> None:
        """Subscribe ``endpoint_id`` to ``topic``.

        ``handler(topic, payload, message)`` is called on each delivery, where
        ``message`` is the downlink delivery record (including end-to-end
        latency information).
        """
        self.attach_endpoint(endpoint_id)
        downlink = self._downlinks[endpoint_id]

        def _deliver(message: Message, topic=topic, handler=handler) -> None:
            envelope = message.payload
            handler(topic, envelope.payload, message)

        downlink.subscribe(_deliver, topic=topic)
        subscriptions = self._subscriptions.setdefault(topic, [])
        subscriptions.append((endpoint_id, handler))
        if not topic.startswith(COMMAND_TOPIC_PREFIX):
            # Dedup with an insertion-ordered dict, NOT a set: subscription
            # order makes delivery order -- and hence downlink sequence
            # numbers and kernel tiebreaks -- independent of PYTHONHASHSEED.
            endpoints = dict.fromkeys(endpoint for endpoint, _ in subscriptions)
            self._routes[topic] = tuple(self._downlinks[endpoint] for endpoint in endpoints)

    def subscribers(self, topic: str) -> List[str]:
        return [endpoint for endpoint, _ in self._subscriptions.get(topic, [])]

    # -------------------------------------------------------------- commands
    def send_command(
        self,
        sender_id: str,
        device_id: str,
        command: str,
        parameters: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Send a command to a device through its uplink channel (reverse path).

        Commands never enter the pub/sub routes: the uplink channel delivers
        them itself, one kernel event per delivery tick.

        Returns True if the command was handed to the network (delivery may
        still fail if the channel drops it or the device rejects it).
        """
        device = self._attached_devices.get(device_id)
        if device is None:
            return False
        channel = self._make_uplink(device_id)
        command_topic = f"{COMMAND_TOPIC_PREFIX}{device_id}:{command}"
        if command_topic not in self._command_routes:
            def _deliver(message: Message, device=device, command=command) -> None:
                device.handle_command(command, message.payload)

            channel.subscribe(_deliver, topic=command_topic)
            self._command_routes.add(command_topic)
        if self._obs is not None:
            self._obs.commands.value += 1
        channel.send(sender_id, command_topic, parameters or {})
        if self.trace is not None:
            self.trace.event(
                self.simulator.now,
                f"bus:command:{command}",
                {"target": device_id, "sender": sender_id},
                source=sender_id,
            )
        return True

    # ------------------------------------------------------------ statistics
    def stats(self) -> Dict[str, Any]:
        return {
            "published": self.published_count,
            "forwarded": self.forwarded_count,
            "uplinks": {name: ch.stats() for name, ch in self._uplinks.items()},
            "downlinks": {name: ch.stats() for name, ch in self._downlinks.items()},
        }
