"""Naive two-hop reference bus: the differential oracle for ``DeviceBus``.

This is the bus's forwarding path as it was before routes were resolved at
publish time, kept only as a reference.  Every hop is a real channel send
and a real kernel event:

1. the device's uplink delivers the reading to the bus at ``t_up``;
2. the bus schedules a ``bus:forward`` event ``processing_delay_s`` later;
3. that event sends one copy per subscribed endpoint on its downlink.

The public surface mirrors :class:`repro.middleware.bus.DeviceBus`, so the
same workload can drive both and their delivery logs, counters and
statistics can be compared value for value.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.devices.base import MedicalDevice
from repro.middleware.bus import COMMAND_TOPIC_PREFIX, BusConfig, Envelope
from repro.sim.channel import Channel, Message
from repro.sim.kernel import Simulator


class TwoHopBus:
    """Uplink event -> ``bus:forward`` event -> downlink send, per reading."""

    def __init__(self, simulator: Simulator, config: Optional[BusConfig] = None, *, rng=None) -> None:
        self.simulator = simulator
        self.config = config or BusConfig()
        self.config.validate()
        self._rng = rng
        self._uplinks: Dict[str, Channel] = {}
        self._downlinks: Dict[str, Channel] = {}
        self._subscriptions: Dict[str, List[Tuple[str, Callable[[str, Any, Message], None]]]] = {}
        self._attached_devices: Dict[str, MedicalDevice] = {}
        self._command_routes: set = set()
        self.published_count = 0
        self.forwarded_count = 0

    def attach_device(self, device: MedicalDevice) -> Channel:
        device_id = device.descriptor.device_id
        uplink = self._make_uplink(device_id)
        self._attached_devices[device_id] = device
        device.attach_publisher(lambda topic, payload, d=device_id: self.publish(d, topic, payload))
        return uplink

    def attach_endpoint(self, endpoint_id: str) -> None:
        if endpoint_id not in self._downlinks:
            self._downlinks[endpoint_id] = Channel(
                self.simulator, name=f"downlink:{endpoint_id}",
                config=self.config.downlink, rng=self._rng)

    def _make_uplink(self, device_id: str) -> Channel:
        if device_id not in self._uplinks:
            channel = Channel(self.simulator, name=f"uplink:{device_id}",
                              config=self.config.uplink, rng=self._rng)
            channel.subscribe(self._on_uplink_message)
            self._uplinks[device_id] = channel
        return self._uplinks[device_id]

    @property
    def channels(self) -> List[Channel]:
        return list(self._uplinks.values()) + list(self._downlinks.values())

    def publish(self, device_id: str, topic: str, payload: Any) -> None:
        self.published_count += 1
        self._make_uplink(device_id).send(device_id, topic, payload)

    def _on_uplink_message(self, message: Message) -> None:
        if message.topic.startswith(COMMAND_TOPIC_PREFIX):
            return
        self.simulator.schedule(self.config.processing_delay_s,
                                lambda: self._forward(message),
                                name=f"bus:forward:{message.topic}")

    def _forward(self, message: Message) -> None:
        # Subscriptions are read at forward time; endpoints are deduplicated
        # in subscription order.
        endpoints = dict.fromkeys(endpoint for endpoint, _ in self._subscriptions.get(message.topic, ()))
        envelope = Envelope(message.payload, message.sent_at)
        for endpoint_id in endpoints:
            self.forwarded_count += 1
            self._downlinks[endpoint_id].send(message.sender, message.topic, envelope)

    def subscribe(self, endpoint_id: str, topic: str, handler: Callable[[str, Any, Message], None]) -> None:
        self.attach_endpoint(endpoint_id)

        def _deliver(message: Message, topic=topic, handler=handler) -> None:
            handler(topic, message.payload.payload, message)

        self._downlinks[endpoint_id].subscribe(_deliver, topic=topic)
        self._subscriptions.setdefault(topic, []).append((endpoint_id, handler))

    def send_command(self, sender_id: str, device_id: str, command: str,
                     parameters: Optional[Dict[str, Any]] = None) -> bool:
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
        channel.send(sender_id, command_topic, parameters or {})
        return True

    def stats(self) -> Dict[str, Any]:
        return {
            "published": self.published_count,
            "forwarded": self.forwarded_count,
            "uplinks": {name: ch.stats() for name, ch in self._uplinks.items()},
            "downlinks": {name: ch.stats() for name, ch in self._downlinks.items()},
        }
