"""Regression tests for the deterministic, leak-free messaging layer.

Covers four fixes:

* The bus's forwarding step iterated a ``set`` of endpoint ids, making downlink
  delivery order (and hence sequence numbers and kernel tiebreaks) depend on
  ``PYTHONHASHSEED``.
* ``Channel`` retained every delivered message and latency forever — an
  O(events) memory leak at campaign scale.
* ``DeviceBus.send_command`` messages also entered the forwarding path,
  scheduling one phantom forward event per command.
* ``Channel`` silently disabled configured jitter/loss when no rng was
  provided.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import BusConfig, DeviceBus
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.kernel import Simulator

SRC = Path(__file__).resolve().parents[1] / "src"


class _Sensor(MedicalDevice):
    """Minimal publishing device accepting a 'ping' command."""

    def __init__(self, device_id="dev-1"):
        super().__init__(DeviceDescriptor(
            device_id=device_id,
            device_type="sensor",
            published_topics=("t",),
            accepted_commands=("ping",),
        ))
        self.pings = []
        self.register_command("ping", self.pings.append)

    def start(self):
        self.transition(DeviceState.RUNNING)


def _make_bus():
    simulator = Simulator()
    bus = DeviceBus(simulator)
    device = _Sensor()
    bus.attach_device(device)
    simulator.register(device)
    return simulator, bus, device


#: Endpoint ids whose string hashes scatter differently per PYTHONHASHSEED.
ENDPOINTS = ["alpha", "omega", "Z", "aa", "ab", "ba", "qq-7", "watcher-42"]

_ORDER_SCRIPT = """
import json
from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import DeviceBus
from repro.sim.kernel import Simulator

class Sensor(MedicalDevice):
    def __init__(self):
        super().__init__(DeviceDescriptor(
            device_id="dev-1", device_type="s", published_topics=("t",)))
    def start(self):
        self.transition(DeviceState.RUNNING)

sim = Simulator()
bus = DeviceBus(sim)
device = Sensor()
bus.attach_device(device)
sim.register(device)
order = []
for endpoint in {endpoints!r}:
    bus.subscribe(endpoint, "t", lambda t, p, m, e=endpoint: order.append(e))
device.publish("t", {{"v": 1}})
sim.run()
print(json.dumps(order))
"""


class TestForwardOrderDeterminism:
    def _delivery_order(self, hash_seed: str):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        script = _ORDER_SCRIPT.format(endpoints=ENDPOINTS)
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env, check=True)
        return json.loads(out.stdout)

    def test_order_identical_across_hash_seeds(self):
        # Two interpreter runs under different PYTHONHASHSEED values must
        # deliver to subscribers in the identical (subscription) order.
        assert self._delivery_order("1") == self._delivery_order("4242") == ENDPOINTS

    def test_order_follows_subscription_order(self):
        simulator, bus, device = _make_bus()
        order = []
        for endpoint in ENDPOINTS:
            bus.subscribe(endpoint, "t",
                          lambda t, p, m, e=endpoint: order.append(e))
        device.publish("t", {"v": 1})
        simulator.run()
        assert order == ENDPOINTS

    def test_duplicate_subscription_forwards_once_per_endpoint(self):
        simulator, bus, device = _make_bus()
        received = []
        bus.subscribe("listener", "t", lambda t, p, m: received.append("first"))
        bus.subscribe("listener", "t", lambda t, p, m: received.append("second"))
        device.publish("t", {"v": 1})
        simulator.run()
        # One downlink send (dedup), fanned out to both handlers.
        assert bus.forwarded_count == 1
        assert received == ["first", "second"]


class TestChannelRetention:
    def test_long_run_keeps_no_per_message_state(self):
        simulator = Simulator()
        channel = Channel(simulator, "bulk", ChannelConfig(latency_s=0.001))
        channel.subscribe(lambda m: None)
        for i in range(10_000):
            channel.send("a", "t", i)
        simulator.run()
        assert channel.delivered == 10_000

    def test_streaming_stats_match_retained_reference(self):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        config = ChannelConfig(latency_s=0.05, jitter_s=0.02)
        sim_a, sim_b = Simulator(), Simulator()
        lean = Channel(sim_a, "lean", config, rng=rng_a)
        observed = Channel(sim_b, "observed", config, rng=rng_b)
        latencies = []
        lean.subscribe(lambda m: None)
        observed.subscribe(lambda m: latencies.append(m.latency))
        for channel, simulator in ((lean, sim_a), (observed, sim_b)):
            for i in range(200):
                channel.send("a", "t", i)
            simulator.run()
        # Identical rng draws, so the streaming stats must equal the values
        # the per-message latencies produce (same floats, same order).
        assert len(latencies) == 200
        assert lean.mean_latency == sum(latencies) / len(latencies)
        assert lean.max_latency == max(latencies)
        assert lean.stats() == observed.stats()


class TestCommandPathIsolation:
    def test_commands_do_not_enter_forwarding_path(self):
        simulator, bus, device = _make_bus()
        bus.subscribe("listener", "t", lambda t, p, m: None)
        # Even an endpoint subscribed to the command topic itself must not
        # receive the command through the pub/sub routes.
        bus.subscribe("snoop", "__command__:dev-1:ping", lambda t, p, m: None)
        downlink_deliveries = []
        for endpoint in ("listener", "snoop"):
            bus.downlink(endpoint).subscribe(
                lambda m, e=endpoint: downlink_deliveries.append((e, m.topic)))
        bus.send_command("supervisor", "dev-1", "ping", {"n": 1})
        bus.send_command("supervisor", "dev-1", "ping", {"n": 2})
        device.publish("t", {"v": 1})
        simulator.run()
        # Commands reached the device...
        assert device.pings == [{"n": 1}, {"n": 2}]
        # ...but produced no downlink delivery; only the real publish did.
        assert downlink_deliveries == [("listener", "t")]
        assert bus.forwarded_count == 1
        # One uplink tick carried both pings, one downlink tick the reading.
        assert simulator.event_count == 2

    def test_command_only_traffic_forwards_nothing(self):
        simulator, bus, device = _make_bus()
        bus.send_command("supervisor", "dev-1", "ping")
        events_before = simulator.event_count
        simulator.run()
        assert device.pings == [{}]
        assert bus.forwarded_count == 0
        # Exactly one channel delivery event: no phantom forward rode along.
        assert simulator.event_count - events_before == 1


class TestChannelRngValidation:
    def test_jitter_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            Channel(Simulator(), "c", ChannelConfig(jitter_s=0.1))

    def test_loss_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            Channel(Simulator(), "c", ChannelConfig(loss_probability=0.5))

    def test_randomness_with_rng_accepted(self):
        channel = Channel(Simulator(), "c",
                          ChannelConfig(jitter_s=0.1, loss_probability=0.5),
                          rng=np.random.default_rng(0))
        assert channel.config.jitter_s == 0.1

    def test_deterministic_config_needs_no_rng(self):
        channel = Channel(Simulator(), "c", ChannelConfig(latency_s=0.1))
        assert channel._rng is None

    def test_config_mutated_after_construction_raises_not_silences(self):
        # The constructor guard can be sidestepped by mutating the config on
        # a live channel; sampling must then fail loudly, never quietly run
        # the experiment on a deterministic link.
        simulator = Simulator()
        channel = Channel(simulator, "c", ChannelConfig(latency_s=0.1))
        channel.config.loss_probability = 0.3
        with pytest.raises(ValueError, match="rng"):
            channel.send("a", "t", 1)
        channel.config.loss_probability = 0.0
        channel.config.jitter_s = 0.05
        with pytest.raises(ValueError, match="rng"):
            channel.send("a", "t", 1)
