"""Tests for network channels (latency, loss, outages, stats)."""

import numpy as np
import pytest

from repro.sim.channel import Channel, ChannelConfig
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_channel(sim, **kwargs):
    rng = kwargs.pop("rng", None)
    return Channel(sim, "test-channel", ChannelConfig(**kwargs), rng=rng)


class TestConfigValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(latency_s=-0.1).validate()

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(jitter_s=-0.1).validate()

    def test_loss_probability_bounds(self):
        with pytest.raises(ValueError):
            ChannelConfig(loss_probability=1.5).validate()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(bandwidth_msgs_per_s=0).validate()

    def test_valid_config_passes(self):
        ChannelConfig(latency_s=0.1, jitter_s=0.01, loss_probability=0.05).validate()


class TestDelivery:
    def test_message_delivered_after_latency(self, sim):
        channel = make_channel(sim, latency_s=0.5)
        received = []
        channel.subscribe(lambda message: received.append(message))
        channel.send("a", "topic", {"x": 1})
        sim.run()
        assert len(received) == 1
        assert received[0].delivered_at == pytest.approx(0.5)
        assert received[0].latency == pytest.approx(0.5)

    def test_payload_preserved(self, sim):
        channel = make_channel(sim)
        received = []
        channel.subscribe(lambda message: received.append(message.payload))
        channel.send("a", "topic", {"value": 42})
        sim.run()
        assert received == [{"value": 42}]

    def test_topic_filtered_subscription(self, sim):
        channel = make_channel(sim)
        spo2, all_messages = [], []
        channel.subscribe(lambda m: spo2.append(m), topic="spo2")
        channel.subscribe(lambda m: all_messages.append(m))
        channel.send("ox", "spo2", 97)
        channel.send("ox", "heart_rate", 70)
        sim.run()
        assert len(spo2) == 1
        assert len(all_messages) == 2

    def test_unsubscribe(self, sim):
        channel = make_channel(sim)
        received = []
        handler = lambda m: received.append(m)  # noqa: E731
        channel.subscribe(handler)
        channel.unsubscribe(handler)
        channel.send("a", "t", 1)
        sim.run()
        assert received == []

    def test_sequence_numbers_increase(self, sim):
        channel = make_channel(sim)
        m1 = channel.send("a", "t", 1)
        m2 = channel.send("a", "t", 2)
        assert m2.sequence > m1.sequence

    def test_delivery_statistics(self, sim):
        channel = make_channel(sim, latency_s=0.1)
        channel.subscribe(lambda m: None)
        for _ in range(5):
            channel.send("a", "t", 0)
        sim.run()
        assert channel.sent == 5
        assert channel.delivered == 5
        assert channel.dropped == 0
        assert channel.mean_latency == pytest.approx(0.1)
        assert channel.stats()["loss_rate"] == 0.0


class TestLossAndOutages:
    def test_full_loss_drops_everything(self, sim):
        channel = make_channel(sim, loss_probability=1.0, rng=np.random.default_rng(0))
        received = []
        channel.subscribe(lambda m: received.append(m))
        for _ in range(10):
            channel.send("a", "t", 0)
        sim.run()
        assert received == []
        assert channel.dropped == 10
        assert channel.loss_rate == 1.0

    def test_partial_loss_rate_roughly_matches(self, sim):
        channel = make_channel(sim, loss_probability=0.3, rng=np.random.default_rng(1))
        for _ in range(500):
            channel.send("a", "t", 0)
        sim.run()
        assert 0.2 < channel.loss_rate < 0.4

    def test_lossy_config_without_rng_rejected(self, sim):
        # Silently disabling configured loss would invalidate the experiment;
        # the channel refuses to be built in that state.
        with pytest.raises(ValueError, match="rng"):
            make_channel(sim, loss_probability=0.9)

    def test_outage_drops_messages_in_window(self, sim):
        channel = make_channel(sim)
        received = []
        channel.subscribe(lambda m: received.append(m))
        channel.add_outage(1.0, 2.0)
        sim.schedule(0.5, lambda: channel.send("a", "t", "before"))
        sim.schedule(1.5, lambda: channel.send("a", "t", "during"))
        sim.schedule(2.5, lambda: channel.send("a", "t", "after"))
        sim.run()
        assert [m.payload for m in received] == ["before", "after"]

    def test_invalid_outage_rejected(self, sim):
        channel = make_channel(sim)
        with pytest.raises(ValueError):
            channel.add_outage(2.0, 1.0)

    def test_in_outage_query(self, sim):
        channel = make_channel(sim)
        channel.add_outage(1.0, 2.0)
        assert channel.in_outage(1.5)
        assert not channel.in_outage(2.5)


class TestJitterAndBandwidth:
    def test_jitter_varies_latency(self, sim):
        channel = Channel(sim, "jitter-channel",
                          ChannelConfig(latency_s=0.5, jitter_s=0.2),
                          rng=np.random.default_rng(2))
        latencies = []
        channel.subscribe(lambda m: latencies.append(m.latency))
        for _ in range(50):
            channel.send("a", "t", 0)
        sim.run()
        assert len(latencies) == 50
        assert min(latencies) >= 0.3 - 1e-9
        assert max(latencies) <= 0.7 + 1e-9
        assert max(latencies) - min(latencies) > 0.05

    def test_bandwidth_serialises_messages(self, sim):
        channel = make_channel(sim, latency_s=0.0, bandwidth_msgs_per_s=1.0)
        received = []
        channel.subscribe(lambda m: received.append(m.delivered_at))
        for _ in range(3):
            channel.send("a", "t", 0)
        sim.run()
        assert received == pytest.approx([1.0, 2.0, 3.0])
