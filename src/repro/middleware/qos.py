"""Quality-of-service monitoring: topic freshness and deadline violations.

The closed-loop supervisor's fail-safe behaviour hinges on *knowing* when its
inputs have gone stale -- "the supervisor also needs to be tolerant to faults
that interfere with the control loop, in particular communication failures
between the devices" (Section II(c)).  :class:`QoSMonitor` tracks, per topic,
the time since the last delivery and the distribution of end-to-end
latencies, and reports deadline violations that a supervisor can use to fall
back to a safe state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.kernel import Simulator


@dataclass
class TopicQoS:
    """QoS contract for a topic.

    max_age_s:
        Data older than this is considered stale (freshness deadline).
    max_latency_s:
        End-to-end latency above this counts as a deadline violation.
    """

    topic: str
    max_age_s: float
    max_latency_s: float = float("inf")

    def __post_init__(self) -> None:
        if self.max_age_s <= 0:
            raise ValueError("max_age_s must be positive")
        if self.max_latency_s <= 0:
            raise ValueError("max_latency_s must be positive")


#: From CPython 3.12 on, ``sum()`` of floats compensates rounding
#: (Neumaier); earlier versions add left to right.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


@dataclass
class TopicStats:
    """Per-topic delivery statistics.

    Latencies stream into a count (``deliveries``), a sum and a maximum,
    updated in delivery order the way this interpreter's ``sum()`` and
    ``max()`` fold a list, so :attr:`mean_latency` and :attr:`max_latency`
    equal ``sum(latencies) / len(latencies)`` and ``max(latencies)`` bit for
    bit without keeping the list.
    """

    deliveries: int = 0
    deadline_violations: int = 0
    last_delivery_time: Optional[float] = None
    last_published_time: Optional[float] = None
    latency_sum: float = 0.0
    latency_compensation: float = 0.0
    max_latency: float = 0.0

    def add_latency(self, latency: float) -> None:
        """Count one delivery with this (non-negative) latency."""
        self.deliveries += 1
        total = self.latency_sum + latency
        if _COMPENSATED_SUM:
            if abs(self.latency_sum) >= abs(latency):
                self.latency_compensation += (self.latency_sum - total) + latency
            else:
                self.latency_compensation += (latency - total) + self.latency_sum
        self.latency_sum = total
        if latency > self.max_latency:
            self.max_latency = latency

    @property
    def mean_latency(self) -> float:
        if self.deliveries == 0:
            return 0.0
        total = self.latency_sum
        compensation = self.latency_compensation
        if compensation and math.isfinite(compensation):
            total += compensation
        return total / self.deliveries


class QoSMonitor:
    """Tracks per-topic delivery freshness against QoS contracts."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._contracts: Dict[str, TopicQoS] = {}
        self._stats: Dict[str, TopicStats] = {}
        self.stale_checks: int = 0

    # --------------------------------------------------------------- contracts
    def add_contract(self, contract: TopicQoS) -> None:
        self._contracts[contract.topic] = contract
        self._stats.setdefault(contract.topic, TopicStats())

    def contract(self, topic: str) -> Optional[TopicQoS]:
        return self._contracts.get(topic)

    # -------------------------------------------------------------- recording
    def record_delivery(self, topic: str, published_at: float, delivered_at: Optional[float] = None) -> None:
        """Record a delivery; called by supervisors from their subscription handlers."""
        delivered_at = self.simulator.now if delivered_at is None else delivered_at
        stats = self._stats.setdefault(topic, TopicStats())
        stats.last_delivery_time = delivered_at
        stats.last_published_time = published_at
        latency = max(0.0, delivered_at - published_at)
        stats.add_latency(latency)
        contract = self._contracts.get(topic)
        if contract is not None and latency > contract.max_latency_s:
            stats.deadline_violations += 1

    # ---------------------------------------------------------------- queries
    def age(self, topic: str) -> float:
        """Seconds since the last delivery on ``topic`` (infinity if never)."""
        stats = self._stats.get(topic)
        if stats is None or stats.last_delivery_time is None:
            return float("inf")
        return self.simulator.now - stats.last_delivery_time

    def is_stale(self, topic: str) -> bool:
        """True if the topic has violated its freshness deadline."""
        self.stale_checks += 1
        contract = self._contracts.get(topic)
        if contract is None:
            return False
        return self.age(topic) > contract.max_age_s

    def stale_topics(self) -> List[str]:
        return [topic for topic in self._contracts if self.is_stale(topic)]

    def any_stale(self) -> bool:
        return bool(self.stale_topics())

    def stats(self, topic: str) -> TopicStats:
        return self._stats.setdefault(topic, TopicStats())

    def mean_latency(self, topic: str) -> float:
        stats = self._stats.get(topic)
        return 0.0 if stats is None else stats.mean_latency

    def max_latency(self, topic: str) -> float:
        stats = self._stats.get(topic)
        return 0.0 if stats is None else stats.max_latency

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            topic: {
                "deliveries": float(stats.deliveries),
                "deadline_violations": float(stats.deadline_violations),
                "mean_latency": self.mean_latency(topic),
                "max_latency": self.max_latency(topic),
                "age": self.age(topic),
            }
            for topic, stats in self._stats.items()
        }
