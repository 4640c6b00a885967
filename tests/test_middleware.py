"""Tests for the ICE middleware: bus, registry, QoS, supervisor host."""

import json

import pytest

from golden_workload import GOLDEN_PATH, bus_workload

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import BusConfig, DeviceBus
from repro.middleware.qos import QoSMonitor, TopicQoS
from repro.middleware.registry import DeviceRegistry, DeviceRequirement, RegistrationError
from repro.middleware.supervisor_host import SupervisorApp, SupervisorHost
from repro.sim.channel import ChannelConfig
from repro.sim.kernel import Simulator


class _EchoDevice(MedicalDevice):
    """Minimal device that publishes a counter and accepts a 'ping' command."""

    def __init__(self, device_id="echo-1"):
        super().__init__(DeviceDescriptor(
            device_id=device_id,
            device_type="echo",
            published_topics=("tick",),
            accepted_commands=("ping",),
        ))
        self.pings = []
        self.register_command("ping", lambda params: self.pings.append(params))

    def start(self):
        self.transition(DeviceState.RUNNING)
        self.every(1.0, lambda: self.publish("tick", {"value": self.now, "time": self.now}))


@pytest.fixture
def bus_setup():
    simulator = Simulator()
    bus = DeviceBus(simulator, BusConfig(
        uplink=ChannelConfig(latency_s=0.01),
        downlink=ChannelConfig(latency_s=0.01),
        processing_delay_s=0.001,
    ))
    device = _EchoDevice()
    bus.attach_device(device)
    simulator.register(device)
    return simulator, bus, device


class TestDeviceBus:
    def test_attach_device_twice_rejected(self, bus_setup):
        simulator, bus, device = bus_setup
        with pytest.raises(ValueError):
            bus.attach_device(device)

    def test_publish_subscribe_roundtrip(self, bus_setup):
        simulator, bus, device = bus_setup
        received = []
        bus.subscribe("listener", "tick", lambda topic, payload, message: received.append(payload))
        simulator.run(until=5.5)
        assert len(received) == 5
        assert received[0]["value"] == pytest.approx(1.0)

    def test_end_to_end_latency_positive(self, bus_setup):
        simulator, bus, device = bus_setup
        latencies = []
        bus.subscribe("listener", "tick",
                      lambda topic, payload, message: latencies.append(message.delivered_at - payload["time"]))
        simulator.run(until=3.5)
        assert all(latency > 0.015 for latency in latencies)

    def test_multiple_subscribers_each_receive(self, bus_setup):
        simulator, bus, device = bus_setup
        a, b = [], []
        bus.subscribe("listener-a", "tick", lambda t, p, m: a.append(p))
        bus.subscribe("listener-b", "tick", lambda t, p, m: b.append(p))
        simulator.run(until=3.5)
        assert len(a) == len(b) == 3

    def test_unsubscribed_topic_not_delivered(self, bus_setup):
        simulator, bus, device = bus_setup
        received = []
        bus.subscribe("listener", "other_topic", lambda t, p, m: received.append(p))
        simulator.run(until=3.5)
        assert received == []

    def test_send_command_reaches_device(self, bus_setup):
        simulator, bus, device = bus_setup
        assert bus.send_command("supervisor", "echo-1", "ping", {"n": 1})
        simulator.run(until=1.0)
        assert device.pings == [{"n": 1}]

    def test_repeated_commands_delivered_once_each(self, bus_setup):
        simulator, bus, device = bus_setup
        bus.send_command("supervisor", "echo-1", "ping", {"n": 1})
        bus.send_command("supervisor", "echo-1", "ping", {"n": 2})
        simulator.run(until=1.0)
        assert device.pings == [{"n": 1}, {"n": 2}]

    def test_command_to_unknown_device_fails(self, bus_setup):
        simulator, bus, device = bus_setup
        assert not bus.send_command("supervisor", "ghost", "ping")

    def test_stats_counts(self, bus_setup):
        simulator, bus, device = bus_setup
        bus.subscribe("listener", "tick", lambda t, p, m: None)
        simulator.run(until=4.5)
        stats = bus.stats()
        assert stats["published"] == 4
        assert stats["forwarded"] == 4


class TestGoldenBusWorkload:
    """Multi-subscriber delivery order is pinned byte-for-byte.

    The digest in ``tests/data/golden_traces.json`` was captured with the
    insertion-ordered ``_forward`` dedup; CI replays this test under two
    pinned ``PYTHONHASHSEED`` values, so any hash-order dependence sneaking
    back into the delivery path fails one of the two runs.
    """

    def test_multi_subscriber_workload_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())["bus_workload"]
        assert bus_workload() == golden


class TestDeviceRegistry:
    def _descriptor(self, device_id="pump-1", **overrides):
        defaults = dict(
            device_id=device_id,
            device_type="pca_pump",
            published_topics=("pump_status",),
            accepted_commands=("stop", "resume"),
            capabilities=("infusion",),
            risk_class="II",
        )
        defaults.update(overrides)
        return DeviceDescriptor(**defaults)

    def test_register_and_lookup(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor())
        assert "pump-1" in registry
        assert registry.get("pump-1").device_type == "pca_pump"
        assert len(registry) == 1

    def test_duplicate_registration_rejected(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor())
        with pytest.raises(RegistrationError):
            registry.register(self._descriptor())

    def test_deregister(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor())
        registry.deregister("pump-1")
        assert "pump-1" not in registry
        with pytest.raises(RegistrationError):
            registry.deregister("pump-1")

    def test_find_queries(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor())
        registry.register(self._descriptor("ox-1", device_type="pulse_oximeter",
                                           published_topics=("spo2",), accepted_commands=()))
        assert len(registry.find_by_type("pca_pump")) == 1
        assert len(registry.find_publishing("spo2")) == 1
        assert len(registry.find_accepting("stop")) == 1

    def test_requirement_matching(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor())
        requirement = DeviceRequirement(role="pump", device_type="pca_pump",
                                        required_commands=("stop",))
        result = registry.match([requirement])
        assert result.complete
        assert result.assignments == {"pump": "pump-1"}

    def test_unsatisfiable_requirement_reports_reasons(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor())
        requirement = DeviceRequirement(role="imaging", device_type="xray_machine")
        result = registry.match([requirement])
        assert not result.complete
        assert "imaging" in result.unsatisfied
        assert any("type" in reason for reason in result.unsatisfied["imaging"])

    def test_devices_not_double_assigned(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor())
        requirements = [
            DeviceRequirement(role="pump_a", device_type="pca_pump"),
            DeviceRequirement(role="pump_b", device_type="pca_pump"),
        ]
        result = registry.match(requirements)
        assert len(result.assignments) == 1
        assert len(result.unsatisfied) == 1

    def test_risk_class_constraint(self):
        registry = DeviceRegistry()
        registry.register(self._descriptor(risk_class="III"))
        requirement = DeviceRequirement(role="pump", max_risk_class="II")
        assert not registry.match([requirement]).complete

    def test_capability_constraint(self):
        requirement = DeviceRequirement(role="pump", required_capabilities=("remote_stop",))
        descriptor = self._descriptor()
        assert not requirement.is_satisfied_by(descriptor)
        reasons = requirement.unmet_reasons(descriptor)
        assert any("capability" in reason for reason in reasons)


class TestQoSMonitor:
    def test_contract_validation(self):
        with pytest.raises(ValueError):
            TopicQoS(topic="spo2", max_age_s=0.0)

    def test_age_infinite_before_any_delivery(self):
        monitor = QoSMonitor(Simulator())
        monitor.add_contract(TopicQoS(topic="spo2", max_age_s=5.0))
        assert monitor.age("spo2") == float("inf")
        assert monitor.is_stale("spo2")

    def test_delivery_freshens_topic(self):
        simulator = Simulator()
        monitor = QoSMonitor(simulator)
        monitor.add_contract(TopicQoS(topic="spo2", max_age_s=5.0))
        simulator.schedule(1.0, lambda: monitor.record_delivery("spo2", published_at=0.9))
        simulator.run()
        assert not monitor.is_stale("spo2")
        assert monitor.age("spo2") == pytest.approx(0.0)

    def test_staleness_after_silence(self):
        simulator = Simulator()
        monitor = QoSMonitor(simulator)
        monitor.add_contract(TopicQoS(topic="spo2", max_age_s=5.0))
        simulator.schedule(1.0, lambda: monitor.record_delivery("spo2", published_at=1.0))
        simulator.schedule(10.0, lambda: None)
        simulator.run()
        assert monitor.is_stale("spo2")
        assert monitor.stale_topics() == ["spo2"]
        assert monitor.any_stale()

    def test_latency_deadline_violations(self):
        simulator = Simulator()
        monitor = QoSMonitor(simulator)
        monitor.add_contract(TopicQoS(topic="spo2", max_age_s=10.0, max_latency_s=0.5))
        simulator.schedule(2.0, lambda: monitor.record_delivery("spo2", published_at=1.0))
        simulator.run()
        assert monitor.stats("spo2").deadline_violations == 1
        assert monitor.max_latency("spo2") == pytest.approx(1.0)

    def test_uncontracted_topic_never_stale(self):
        monitor = QoSMonitor(Simulator())
        assert not monitor.is_stale("anything")

    def test_summary_structure(self):
        simulator = Simulator()
        monitor = QoSMonitor(simulator)
        monitor.add_contract(TopicQoS(topic="spo2", max_age_s=5.0))
        monitor.record_delivery("spo2", published_at=0.0)
        summary = monitor.summary()
        assert "spo2" in summary and summary["spo2"]["deliveries"] == 1.0


class _RecordingApp(SupervisorApp):
    subscriptions = ("tick",)
    qos_contracts = (TopicQoS(topic="tick", max_age_s=5.0),)
    step_period_s = 1.0

    def __init__(self):
        super().__init__("recorder")
        self.data = []
        self.steps = []

    def on_data(self, topic, payload, message):
        self.data.append(payload)

    def step(self, now):
        self.steps.append(now)
        if len(self.steps) == 3:
            self.send_command("echo-1", "ping", {"from": "app"})


class TestSupervisorHost:
    def _build(self, authoriser=None):
        simulator = Simulator()
        bus = DeviceBus(simulator, BusConfig())
        device = _EchoDevice()
        bus.attach_device(device)
        simulator.register(device)
        host = SupervisorHost(bus, algorithm_delay_s=0.05, command_authoriser=authoriser)
        app = _RecordingApp()
        host.attach_app(app)
        simulator.register(host)
        return simulator, host, app, device

    def test_app_receives_subscribed_data(self):
        simulator, host, app, device = self._build()
        simulator.run(until=5.0)
        assert len(app.data) >= 3

    def test_app_steps_run_with_algorithm_delay(self):
        simulator, host, app, device = self._build()
        simulator.run(until=3.5)
        assert app.steps == pytest.approx([1.05, 2.05, 3.05])

    def test_app_command_reaches_device(self):
        simulator, host, app, device = self._build()
        simulator.run(until=6.0)
        assert device.pings == [{"from": "app"}]
        assert host.command_log and host.command_log[0].authorised

    def test_command_blocked_by_authoriser(self):
        simulator, host, app, device = self._build(
            authoriser=lambda app_id, device_id, command: (False, "policy says no")
        )
        simulator.run(until=6.0)
        assert device.pings == []
        assert host.denied_commands()
        assert host.denied_commands()[0].reason == "policy says no"

    def test_duplicate_app_rejected(self):
        simulator, host, app, device = self._build()
        with pytest.raises(ValueError):
            host.attach_app(app)

    def test_qos_contract_registered(self):
        simulator, host, app, device = self._build()
        assert host.qos.contract("tick") is not None
        simulator.run(until=3.0)
        assert not host.qos.is_stale("tick")
