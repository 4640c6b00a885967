"""Network channels between medical devices.

The paper's closed-loop scenarios hinge on communication timing: the
supervisor must account for transmission delays and tolerate communication
failures (Section II(c)), and the X-ray/ventilator scenario requires the
X-ray machine to reason about "enough time -- taking transmission delays into
account" (Section II(b)).  :class:`Channel` models a point-to-point or
broadcast link with configurable latency, jitter, loss probability, and
scripted outages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import channel_instruments
from repro.sim.kernel import Simulator


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """A datagram exchanged between devices or middleware components.

    Slotted but not frozen: two Message objects are created per delivered
    datagram on the simulation's hottest path, and a frozen dataclass pays
    ``object.__setattr__`` per field on every construction.  Treat
    instances as immutable regardless.
    """

    sender: str
    topic: str
    payload: Any
    sent_at: float
    sequence: int
    delivered_at: Optional[float] = None

    def with_delivery(self, time: float) -> "Message":
        return Message(self.sender, self.topic, self.payload,
                       self.sent_at, self.sequence, time)

    @property
    def latency(self) -> Optional[float]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at


@dataclass
class ChannelConfig:
    """Timing and reliability parameters of a network link.

    latency_s:
        Fixed propagation plus processing delay in seconds.
    jitter_s:
        Half-width of a uniform jitter added to the latency.
    loss_probability:
        Probability that an individual message is silently dropped.
    bandwidth_msgs_per_s:
        If set, messages are additionally serialised at this rate
        (models a shared low-bandwidth medical device bus).
    """

    latency_s: float = 0.05
    jitter_s: float = 0.0
    loss_probability: float = 0.0
    bandwidth_msgs_per_s: Optional[float] = None

    def validate(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.jitter_s < 0:
            raise ValueError("jitter_s must be non-negative")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be within [0, 1]")
        if self.bandwidth_msgs_per_s is not None and self.bandwidth_msgs_per_s <= 0:
            raise ValueError("bandwidth_msgs_per_s must be positive when set")


class Channel:
    """A lossy, delaying message channel.

    Receivers subscribe with :meth:`subscribe`; senders call :meth:`send`.
    Delivery is simulated by scheduling a kernel event after the sampled
    latency.  Messages that land on the same ``(channel, delivery-time)``
    share ONE kernel event: the first message schedules it, later ones join
    its per-tick queue, and the event drains the queue in FIFO send order.
    On the zero-jitter fast path (fixed latency, multi-topic device ticks)
    this halves-or-better the kernel events per sample without reordering
    any deliveries within a channel; :attr:`coalesced_ticks` and
    :attr:`max_batch` stream how often and how large those shared ticks
    are.  Streaming statistics (sent/delivered/dropped counts, mean/max
    latency) are kept for the delay-budget analyses in
    :mod:`repro.core.delays`; no per-message history is retained.

    Two more entry points let a router (the device bus) resolve a
    multi-hop path when the message is first sent:

    * :meth:`route` accounts a message as sent now and delivered at its
      arrival instant, but schedules nothing and calls no handler; the
      router carries the message on from the returned arrival time.
    * :meth:`send_at` sends a message at a later instant.  Its sequence
      number, loss/jitter draws and bandwidth slot are taken now and it joins
      the same-tick batch of its delivery time; it is counted as sent (or
      dropped) at its send instant, and its outage test runs when that batch
      fires.

    Both keep the statistics reading as though each hop happened at its own
    instant: counts and latency sums settle in ``(instant, sequence)`` order
    once the clock has reached the instant, and an instant still in flight
    when :meth:`Simulator.run` stops is not counted.

    A config that demands randomness (jitter or loss) without an ``rng`` is
    rejected at construction time: silently degrading to a deterministic
    channel would invalidate any loss/jitter experiment built on it.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        config: Optional[ChannelConfig] = None,
        rng=None,
    ) -> None:
        config = config or ChannelConfig()
        config.validate()
        if rng is None and (config.jitter_s > 0 or config.loss_probability > 0):
            raise ValueError(
                f"channel {name!r} is configured with randomness "
                f"(jitter_s={config.jitter_s}, loss_probability="
                f"{config.loss_probability}) but no rng was provided; "
                "pass rng= or zero the stochastic parameters"
            )
        self.simulator = simulator
        self.name = name
        self.config = config
        self._rng = rng
        self._subscribers: List[Tuple[Optional[str], Callable[[Message], None]]] = []
        self._snapshot: Tuple[Tuple[Optional[str], Callable[[Message], None]], ...] = ()
        self._sequence = itertools.count()
        # (start, end, instant the outage was added).
        self._outages: List[Tuple[float, float, float]] = []
        self._busy_until = 0.0
        self._deliver_name = f"channel:{name}:deliver"
        # Same-tick coalescing: delivery-time -> FIFO queue of in-flight
        # messages sharing one kernel event.  Keyed by exact float time, so
        # only bit-identical delivery times ever share an event; entries are
        # popped when their event fires (bounded by in-flight messages).
        self._pending: Dict[float, List[Message]] = {}
        # Hoisted once: scheduling the bound method directly (the kernel
        # fires it at exactly the pending key's time) avoids allocating a
        # closure per scheduled delivery tick on the hot send path.
        self._deliver_batch_cb = self._deliver_batch
        # Not yet settled, as heaps (bounded by in-flight messages):
        # route() arrivals as (arrival, sequence, latency) and send_at()
        # sends as (send instant, sequence, message, delivery time or None
        # if the loss draw dropped it).
        self._routed: List[Tuple[float, int, float]] = []
        self._scheduled: List[Tuple[float, int, Message, Optional[float]]] = []
        self._sent = 0
        self._delivered = 0
        self._dropped = 0
        # Streaming coalescing counters (always on — they cost one compare
        # per *kernel event*, not per message): how many delivery ticks
        # carried more than one message, and the largest such batch.
        self._coalesced_ticks = 0
        self._max_batch = 0
        # Registry-backed metrics; None unless repro.obs was enabled when
        # this channel was constructed.
        self._obs = channel_instruments()
        # Latency statistics stream (count is `delivered`).
        self._latency_sum = 0.0
        self._latency_max = 0.0

    # ----------------------------------------------------------- subscription
    def subscribe(self, handler: Callable[[Message], None], topic: Optional[str] = None) -> None:
        """Register ``handler`` for every message (or only ``topic`` if given)."""
        self._subscribers.append((topic, handler))
        self._snapshot = tuple(self._subscribers)

    def unsubscribe(self, handler: Callable[[Message], None]) -> None:
        self._subscribers = [(t, h) for t, h in self._subscribers if h is not handler]
        self._snapshot = tuple(self._subscribers)

    # ---------------------------------------------------------------- outages
    def add_outage(self, start: float, end: float) -> None:
        """Drop every message sent while ``start <= now < end`` (scripted fault).

        The outage is stamped with the instant it is added: a send resolved
        ahead of time by :meth:`send_at` honours it only if it was added at
        or before that send's instant.
        """
        if end <= start:
            raise ValueError("outage end must be after start")
        self._outages.append((start, end, self.simulator.now))

    def in_outage(self, time: float) -> bool:
        """True if an outage added at or before ``time`` covers ``time``."""
        if not self._outages:
            return False
        return any(start <= time < end and added <= time for start, end, added in self._outages)

    # ---------------------------------------------------------------- sending
    def send(self, sender: str, topic: str, payload: Any) -> Message:  # repro-lint: hot
        """Send a message; returns the (pre-delivery) message record."""
        now = self.simulator.now
        message = Message(sender, topic, payload, now, next(self._sequence))
        delivery_time = self._admit(now)
        if delivery_time is not None:
            self._enqueue(delivery_time, message)
        return message

    def route(self, sender: str, topic: str, payload: Any) -> Optional[float]:  # repro-lint: hot
        """Send a message whose delivery the caller takes over.

        The sequence number, outage test, loss draw, jitter draw and
        bandwidth slot are exactly those of :meth:`send`, but no kernel event
        is scheduled and no handler runs.  Returns the arrival time, or None
        if the message was dropped.  The arrival counts as a delivery of
        this channel once the clock reaches it.
        """
        now = self.simulator.now
        sequence = next(self._sequence)
        routed = self._routed
        if routed and routed[0][0] < now:
            self._settle_routed(now, False)
        arrival = self._admit(now)
        if arrival is not None:
            heappush(routed, (arrival, sequence, arrival - now))
        return arrival

    def send_at(self, time: float, sender: str, topic: str, payload: Any) -> Message:  # repro-lint: hot
        """Send a message at instant ``time`` (not before now), resolved now.

        Draw order on a stochastic link: the loss draw, then the jitter
        draw, both taken now (an outage cannot be known yet, so unlike
        :meth:`send` the loss draw is never skipped).  The message then
        joins the same-tick batch at ``time + latency``.  It counts as sent
        once the clock reaches ``time``; when its batch fires it is dropped
        if an outage added at or before ``time`` covers ``time``.
        """
        message = Message(sender, topic, payload, time, next(self._sequence))
        delivery_time = None
        if not (self.config.loss_probability > 0.0 and self._sample_loss()):
            delivery_time = self._arrival(time)
            self._enqueue(delivery_time, message)
        heappush(self._scheduled, (time, message.sequence, message, delivery_time))
        return message

    def _admit(self, now: float) -> Optional[float]:  # repro-lint: hot
        """Count a send at ``now``; returns its delivery time, None if dropped."""
        self._sent += 1
        # The common case (no outages, no loss) costs two attribute checks.
        # The drop causes are tested in a fixed short-circuit order (loss is
        # only sampled outside an outage), which fixes the rng draw sequence.
        obs = self._obs
        if obs is not None:
            obs.sent.value += 1
        if self._outages and self.in_outage(now):
            self._dropped += 1
            if obs is not None:
                obs.outage_hits.value += 1
                obs.dropped.value += 1
            return None
        if self.config.loss_probability > 0.0 and self._sample_loss():
            self._dropped += 1
            if obs is not None:
                obs.dropped.value += 1
            return None
        return self._arrival(now)

    def _arrival(self, time: float) -> float:  # repro-lint: hot
        """Delivery time of a message sent at ``time`` (the only latency sampler)."""
        config = self.config
        latency = config.latency_s
        if config.jitter_s > 0.0:
            latency += self._require_rng().uniform(-config.jitter_s, config.jitter_s)
            if latency < 0.0:
                latency = 0.0
        delivery_time = time + latency
        if config.bandwidth_msgs_per_s is not None:
            service_time = 1.0 / config.bandwidth_msgs_per_s
            start_service = max(delivery_time, self._busy_until)
            delivery_time = start_service + service_time
            self._busy_until = delivery_time
        return delivery_time

    def _enqueue(self, delivery_time: float, message: Message) -> None:  # repro-lint: hot
        batch = self._pending.get(delivery_time)
        if batch is not None:
            # Another message is already in flight for this exact instant:
            # ride its kernel event instead of scheduling a second one.
            batch.append(message)
        else:
            self._pending[delivery_time] = [message]
            self.simulator.schedule_at(
                delivery_time,
                self._deliver_batch_cb,
                name=self._deliver_name,
            )

    def _sample_loss(self) -> bool:
        if self.config.loss_probability <= 0:
            return False
        return bool(self._require_rng().random() < self.config.loss_probability)

    def _require_rng(self):
        # The constructor rejects random configs without an rng; this can
        # only trip if the config was mutated after construction.  Raising
        # beats the old silent fallback, which quietly ran loss/jitter
        # experiments on a deterministic link.
        rng = self._rng
        if rng is None:
            raise ValueError(
                f"channel {self.name!r} config now demands randomness "
                "(mutated after construction?) but the channel has no rng"
            )
        return rng

    def _deliver_batch(self) -> None:  # repro-lint: hot
        # The kernel fires this event at exactly the pending key's time (the
        # queue entry and the key are the same float object), so `now` IS the
        # batch key — no per-schedule closure needed to carry it.  Pop before
        # draining: a handler that sends another zero-remaining-latency
        # message for this same instant must get a fresh kernel event
        # (scheduled at now, running after this one), exactly as it did when
        # every message had its own event.  send_at() messages are settled
        # first, so an outage drops them out of the batch before it drains.
        now = self.simulator.now
        if self._scheduled:
            self._settle_scheduled(now, True)
        batch = self._pending.pop(now)
        routed = self._routed
        if routed and routed[0][0] <= now:
            self._deliver_with_routed(now, batch)
            return
        size = len(batch)
        if size == 0:
            return
        self._count_tick(size)
        deliver = self._deliver
        for message in batch:
            deliver(message)

    def _deliver_with_routed(self, now: float, batch: List[Message]) -> None:
        """Drain ``batch`` with the routed arrivals due now as one tick.

        Both are in sequence order; merging them keeps the latency sum in
        the order a single batch of both would have accumulated it.
        """
        self._settle_routed(now, False)
        routed = self._routed
        arrivals = []
        while routed and routed[0][0] == now:
            arrivals.append(heappop(routed))
        size = len(batch) + len(arrivals)
        if size == 0:
            return
        self._count_tick(size)
        index = 0
        for message in batch:
            while index < len(arrivals) and arrivals[index][1] < message.sequence:
                self._arrive(arrivals[index])
                index += 1
            self._deliver(message)
        for entry in arrivals[index:]:
            self._arrive(entry)

    def _deliver(self, message: Message) -> None:  # repro-lint: hot
        delivered = message.with_delivery(self.simulator.now)
        self._count_delivery(delivered.latency or 0.0)
        # Iterate a pre-built snapshot (updated on (un)subscribe) so handlers
        # mutating subscriptions cannot disturb the in-flight delivery.
        for topic, handler in self._snapshot:
            if topic is None or topic == message.topic:
                handler(delivered)

    def _count_tick(self, size: int) -> None:
        if size > self._max_batch:
            self._max_batch = size
        if size > 1:
            self._coalesced_ticks += 1
            obs = self._obs
            if obs is not None:
                obs.coalesced_ticks.value += 1
                obs.max_batch.set_max(size)

    def _count_delivery(self, latency: float) -> None:  # repro-lint: hot
        self._delivered += 1
        self._latency_sum += latency
        if latency > self._latency_max:
            self._latency_max = latency
        obs = self._obs
        if obs is not None:
            obs.delivered.value += 1
            obs.latency.observe(latency)

    # ------------------------------------------------------------- settlement
    def _arrive(self, entry: Tuple[float, int, float]) -> None:
        """Count one routed arrival as a delivery (no handler runs)."""
        self._count_delivery(entry[2])

    def _settle_routed(self, limit: float, inclusive: bool) -> None:
        """Count routed arrivals before ``limit`` (or at it), one tick per instant."""
        routed = self._routed
        while routed:
            arrival = routed[0][0]
            if arrival > limit or (arrival == limit and not inclusive):
                return
            size = 0
            while routed and routed[0][0] == arrival:
                self._arrive(heappop(routed))
                size += 1
            self._count_tick(size)

    def _settle_scheduled(self, limit: float, inclusive: bool) -> None:
        """Count send_at() sends before ``limit`` (or at it) and run their outage test."""
        scheduled = self._scheduled
        obs = self._obs
        while scheduled:
            time = scheduled[0][0]
            if time > limit or (time == limit and not inclusive):
                return
            _, _, message, delivery_time = heappop(scheduled)
            self._sent += 1
            if obs is not None:
                obs.sent.value += 1
            if delivery_time is not None:
                # It survived the loss draw; the outage test decides.
                if not (self._outages and self.in_outage(time)):
                    continue
                if obs is not None:
                    obs.outage_hits.value += 1
                # Its batch has not fired yet: that fire settles it first.
                batch = self._pending[delivery_time]
                for index in range(len(batch)):
                    if batch[index] is message:
                        del batch[index]
                        break
            self._dropped += 1
            if obs is not None:
                obs.dropped.value += 1

    def _catch_up(self) -> None:
        """Settle what the clock has reached before statistics are read.

        While the kernel is dispatching, arrivals and sends due at the
        current instant stay pending (other events of that instant may still
        run); once :meth:`Simulator.run` has returned they count.
        """
        if self._routed or self._scheduled:
            now = self.simulator.now
            inclusive = not self.simulator.running
            self._settle_scheduled(now, inclusive)
            self._settle_routed(now, inclusive)

    # ------------------------------------------------------------- statistics
    @property
    def sent(self) -> int:
        self._catch_up()
        return self._sent

    @property
    def delivered(self) -> int:
        self._catch_up()
        return self._delivered

    @property
    def dropped(self) -> int:
        self._catch_up()
        return self._dropped

    @property
    def coalesced_ticks(self) -> int:
        self._catch_up()
        return self._coalesced_ticks

    @property
    def max_batch(self) -> int:
        self._catch_up()
        return self._max_batch

    @property
    def loss_rate(self) -> float:
        sent = self.sent
        if sent == 0:
            return 0.0
        return self._dropped / sent

    @property
    def mean_latency(self) -> float:
        delivered = self.delivered
        if delivered == 0:
            return 0.0
        return self._latency_sum / delivered

    @property
    def max_latency(self) -> float:
        self._catch_up()
        return self._latency_max

    def stats(self) -> Dict[str, float]:
        self._catch_up()
        return {
            "sent": float(self._sent),
            "delivered": float(self._delivered),
            "dropped": float(self._dropped),
            "loss_rate": self.loss_rate,
            "mean_latency": self.mean_latency,
            "max_latency": self._latency_max,
            "coalesced_ticks": float(self._coalesced_ticks),
            "max_batch": float(self._max_batch),
        }
