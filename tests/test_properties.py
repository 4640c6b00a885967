"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
import struct
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_bus import TwoHopBus
from reference_patient import ReferencePatient, model_state

from repro.analysis.metrics import classify_alarms
from repro.analysis.tables import format_table
from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.devices.capnograph import MAX_ETCO2_MMHG
from repro.devices.pulse_oximeter import _RollingMean
from repro.middleware.bus import BusConfig, DeviceBus
from repro.middleware.qos import QoSMonitor
from repro.patient.map_model import ArterialPressureModel
from repro.patient.model import PatientModel
from repro.patient.pharmacodynamics import PDParameters, RespiratoryDepressionPD, hill
from repro.patient.pharmacokinetics import PKParameters, TwoCompartmentPK
from repro.patient.population import DEFAULT_PATIENT, PatientPopulation
from repro.patient.vitals import VitalSignsModel
from repro.readings import clamp
from repro.sim.channel import ChannelConfig
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.verification.reachability import check_invariant
from repro.verification.transition_system import Rule, TransitionSystem


positive_floats = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


class TestPKProperties:
    @given(boluses=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=10),
           dt=st.floats(min_value=0.1, max_value=120.0))
    @settings(max_examples=50, deadline=None)
    def test_drug_amounts_never_negative(self, boluses, dt):
        pk = TwoCompartmentPK(PKParameters())
        for bolus in boluses:
            pk.add_bolus(bolus)
            pk.advance(dt)
        assert pk.central_amount_mg >= 0.0
        assert pk.peripheral_amount_mg >= 0.0

    @given(dose=st.floats(min_value=0.1, max_value=50.0),
           dt=st.floats(min_value=1.0, max_value=60.0))
    @settings(max_examples=50, deadline=None)
    def test_total_drug_decreases_without_infusion(self, dose, dt):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(dose)
        previous = pk.total_amount_mg
        for _ in range(5):
            pk.advance(dt)
            assert pk.total_amount_mg <= previous + 1e-9
            previous = pk.total_amount_mg

    @given(rate=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_concentration_bounded_by_steady_state(self, rate):
        pk = TwoCompartmentPK(PKParameters())
        steady = pk.steady_state_concentration(rate)
        for _ in range(50):
            pk.advance(5.0, infusion_rate_mg_per_min=rate)
            assert pk.plasma_concentration_mg_per_l <= steady + 1e-9


class TestPDProperties:
    @given(concentration=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_hill_bounded(self, concentration):
        value = hill(concentration, 0.05, 2.5)
        assert 0.0 <= value <= 1.0

    @given(c1=st.floats(min_value=0.0, max_value=1.0), c2=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_depression_monotone_in_concentration(self, c1, c2):
        pd = RespiratoryDepressionPD(PDParameters())
        low, high = sorted((c1, c2))
        assert pd.respiratory_depression(low) <= pd.respiratory_depression(high) + 1e-12

    @given(steps=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_effect_site_stays_between_zero_and_max_plasma(self, steps):
        pd = RespiratoryDepressionPD(PDParameters())
        max_plasma = max(steps) if steps else 0.0
        for plasma in steps:
            effect = pd.advance(1.0, plasma)
            assert -1e-12 <= effect <= max_plasma + 1e-9


class TestVitalsProperties:
    @given(drives=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_vitals_remain_physiological(self, drives):
        model = VitalSignsModel()
        for drive in drives:
            state = model.advance(1.0, drive, analgesia=0.0)
            assert 0.0 <= state.spo2_percent <= 100.0
            assert state.respiratory_rate_bpm >= 0.0
            assert state.heart_rate_bpm > 0.0
            assert 0.0 <= state.pain_level <= 10.0


class TestKernelProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_events_execute_in_nondecreasing_time_order(self, delays):
        simulator = Simulator()
        times = []
        for delay in delays:
            simulator.schedule(delay, lambda: times.append(simulator.now))
        simulator.run()
        assert times == sorted(times)
        assert len(times) == len(delays)

    @given(seed=st.integers(min_value=0, max_value=2**20), name=st.text(min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_random_streams_deterministic(self, seed, name):
        a = RandomStreams(seed).stream(name).random(3)
        b = RandomStreams(seed).stream(name).random(3)
        assert list(a) == list(b)


class TestAlarmClassificationProperties:
    @given(alarms=st.lists(st.floats(min_value=0.0, max_value=1000.0), max_size=20),
           episodes=st.lists(st.tuples(st.floats(min_value=0.0, max_value=500.0),
                                       st.floats(min_value=0.0, max_value=500.0)), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_confusion_counts_consistent(self, alarms, episodes):
        intervals = [(min(a, b), max(a, b) + 1.0) for a, b in episodes]
        confusion = classify_alarms(alarms, intervals)
        assert confusion.true_positives + confusion.false_positives == len(alarms)
        assert 0 <= confusion.false_negatives <= len(intervals)
        assert 0.0 <= confusion.precision <= 1.0
        assert 0.0 <= confusion.sensitivity <= 1.0


class TestTableProperties:
    @given(rows=st.lists(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                                            st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                                                    max_size=5),
                                            st.booleans()),
                                  min_size=2, max_size=2), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_format_table_never_crashes_and_aligns(self, rows):
        rendered = format_table("t", ["a", "b"], rows)
        lines = rendered.splitlines()
        assert lines[0] == "== t =="
        assert len(lines) == 3 + len(rows)


class TestVerificationProperties:
    @given(limit=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_counter_invariant_always_proved(self, limit):
        system = TransitionSystem(
            "counter",
            variables={"value": tuple(range(limit + 1))},
            initial_states=[{"value": 0}],
            rules=[
                Rule(guard=lambda s, limit=limit: s["value"] < limit,
                     update=lambda s: {"value": s["value"] + 1}, name="inc"),
                Rule(guard=lambda s, limit=limit: s["value"] == limit,
                     update=lambda s: {"value": 0}, name="wrap"),
            ],
        )
        result = check_invariant(system, lambda s, limit=limit: 0 <= s["value"] <= limit)
        assert result.holds
        assert result.states_explored == limit + 1


def _bits(value):
    return struct.pack("<d", value)


class TestScalarClamp:
    @given(value=st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, 100.0, math.inf, -math.inf, math.nan, -math.nan]),
           bounds=st.sampled_from([(0.0, 100.0), (0.0, MAX_ETCO2_MMHG)])
           | st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)).map(sorted))
    @settings(max_examples=500, deadline=None)
    def test_clamp_is_bit_identical_to_np_clip(self, value, bounds):
        low, high = bounds
        assert _bits(clamp(value, low, high)) == _bits(float(np.clip(value, low, high)))


MIN_NORMAL = 2.2250738585072014e-308

#: Oximeter samples: signed zeros, subnormals, and magnitudes 1e-3 .. 1e3.
window_values = st.one_of(
    st.sampled_from([-0.0, 0.0]),
    st.floats(min_value=-MIN_NORMAL, max_value=MIN_NORMAL, allow_subnormal=True),
    st.builds(math.copysign, st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([1.0, -1.0])),
)


class TestRollingMeanMatchesNumpy:
    """The pure-Python oximeter window against ``np.mean`` over a deque."""

    @staticmethod
    def _assert_same_mean(window, reference):
        assert len(window) == len(reference)
        if not reference:
            assert math.isnan(window.mean)
        else:
            assert _bits(window.mean) == _bits(float(np.mean(np.array(reference))))

    @given(size=st.integers(min_value=1, max_value=20) | st.just(137),
           ops=st.lists(st.one_of(
               st.tuples(st.just("append"), st.lists(window_values, min_size=1, max_size=24),
                         st.integers(min_value=1, max_value=12)),
               st.tuples(st.just("bias"), window_values, st.just(1)),
               st.tuples(st.just("clear"), st.none(), st.just(1)),
           ), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_mean_is_bit_identical_to_np_mean_over_deque(self, size, ops):
        window = _RollingMean(size)
        reference = deque(maxlen=size)
        for op, argument, repeat in ops:
            if op == "append":
                # Repeated bursts fill windows past 128 samples.
                for value in argument * repeat:
                    window.append(value)
                    reference.append(value)
                    self._assert_same_mean(window, reference)
            elif op == "bias":
                window.bias(argument)
                reference = deque((value + argument for value in reference), maxlen=size)
            else:
                window.clear()
                reference.clear()
            self._assert_same_mean(window, reference)


_PATIENTS = [DEFAULT_PATIENT] + [
    PatientPopulation(seed=seed).sample_one(f"p{seed}", sensitive=sensitive, athlete=athlete)
    for seed, sensitive, athlete in ((1, False, False), (2, True, False), (3, False, True))
]

#: Step lengths in minutes: zero, the periodic steps a run repeats, irregular
#: steps, and outage-length gaps.
step_lengths = st.one_of(
    st.just(0.0),
    st.sampled_from([5.0 / 60.0, 2.0 / 60.0, 1.0]),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=10.0, max_value=240.0),
)


def _state_bits(state):
    return [_bits(value) for value in state]


class TestPatientStepMatchesReference:
    """``PatientModel.advance_by`` against a fresh-numpy step per call."""

    @given(patient=st.sampled_from(_PATIENTS),
           loading_dose=st.floats(min_value=0.0, max_value=10.0),
           ops=st.lists(st.one_of(
               st.tuples(st.just("advance"), step_lengths),
               st.tuples(st.just("advance"), step_lengths),
               st.tuples(st.just("bolus"), st.floats(min_value=0.0, max_value=10.0)),
               st.tuples(st.just("rate"), st.floats(min_value=0.0, max_value=0.5)),
               st.tuples(st.just("map_target"), st.floats(min_value=40.0, max_value=120.0)),
               st.tuples(st.just("pain"), st.floats(min_value=0.0, max_value=5.0)),
           ), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_states_bit_identical_to_reference(self, patient, loading_dose, ops):
        model = PatientModel(patient)
        model.infuse_bolus(loading_dose)  # most runs then pass through hypoventilation
        reference = ReferencePatient(model)
        for op, value in ops:
            if op == "advance":
                model.advance_by(value)
                reference.advance_by(value)
            elif op == "bolus":
                model.infuse_bolus(value)
                reference.central_mg += value
            elif op == "rate":
                model.set_infusion_rate(value)
                reference.infusion_rate = value
            elif op == "map_target":
                model.map_model.set_target_map(value)
                reference.target_map = value
            else:
                model.vitals_model.add_pain_stimulus(value)
                reference.pain = float(np.clip(reference.pain + value, 0.0, 10.0))
            assert _state_bits(model_state(model)) == _state_bits(reference.state())

    def test_decay_caches_stay_bounded_and_correct_past_the_limit(self):
        model = PatientModel(DEFAULT_PATIENT)
        model.infuse_bolus(10.0)
        model.set_infusion_rate(0.5)
        model.map_model.set_target_map(60.0)
        reference = ReferencePatient(model)
        caches = [
            (model.pk._propagators, TwoCompartmentPK._PROPAGATOR_CACHE_LIMIT),
            (model.pd._decays, RespiratoryDepressionPD._DECAY_CACHE_LIMIT),
            (model.vitals_model._decays, VitalSignsModel._DECAY_CACHE_LIMIT),
            (model.map_model._decays, ArterialPressureModel._DECAY_CACHE_LIMIT),
        ]
        steps = [0.01 * (i + 1) for i in range(max(bound for _, bound in caches) + 16)]
        # Forward fills every cache past its bound; backward replays the
        # uncached step lengths first, then the cached ones.
        for dt_min in steps + steps[::-1]:
            model.advance_by(dt_min)
            reference.advance_by(dt_min)
            assert _state_bits(model_state(model)) == _state_bits(reference.state())
        for cache, bound in caches:
            assert list(cache) == steps[:bound]


class _ListQoS:
    """The QoS latency statistics as they were: a list per topic."""

    def __init__(self):
        self.latencies = {}

    def record_delivery(self, topic, published_at, delivered_at):
        self.latencies.setdefault(topic, []).append(max(0.0, delivered_at - published_at))

    def summary(self, topic):
        values = self.latencies[topic]
        return len(values), sum(values) / len(values), max(values)


class TestQoSStreamingStatistics:
    @given(deliveries=st.lists(st.tuples(
        st.sampled_from(["spo2", "etco2"]),
        st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6)),
        min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_streaming_matches_list_reference_bit_for_bit(self, deliveries):
        monitor, reference = QoSMonitor(Simulator()), _ListQoS()
        for topic, published_at, delivered_at in deliveries:
            monitor.record_delivery(topic, published_at, delivered_at)
            reference.record_delivery(topic, published_at, delivered_at)
        for topic in reference.latencies:
            summary = monitor.summary()[topic]
            streamed = (int(summary["deliveries"]), summary["mean_latency"], summary["max_latency"])
            # repr() is exact for floats, so this compares bit patterns.
            assert repr(streamed) == repr(reference.summary(topic))
            assert monitor.mean_latency(topic) == streamed[1]
            assert monitor.max_latency(topic) == streamed[2]


# ------------------------------------------------------------ bus oracle
#: Every instant and latency below is a multiple of 1/64 s, so sums are
#: exact in binary floating point: two hops land on the same instant only
#: when they really coincide, never through rounding.
TICK = 1.0 / 64.0
TOPICS = ("vitals", "status", "alarm", "orphan")
ENDPOINT_IDS = ("alpha", "omega", "Z", "aa")


def ticks(low, high):
    return st.integers(min_value=low, max_value=high).map(lambda n: n * TICK)


class _OracleDevice(MedicalDevice):
    """Publishes every topic it owns once per period; logs ping commands."""

    def __init__(self, device_id, topics, period, phase):
        super().__init__(DeviceDescriptor(
            device_id=device_id, device_type="oracle",
            published_topics=tuple(topics), accepted_commands=("ping",)))
        self._topics, self._period, self._phase = topics, period, phase
        self.pings = []
        self.register_command("ping", lambda parameters: self.pings.append((self.now, parameters)))

    def start(self):
        self.transition(DeviceState.RUNNING)
        self.simulator.call_every(self._period, self._tick, start=self._phase)

    def _tick(self):
        for topic in self._topics:
            self.publish(topic, {"device": self.descriptor.device_id, "value": self.now})


@st.composite
def bus_workloads(draw):
    devices = [
        (f"dev-{index}",
         draw(st.lists(st.sampled_from(TOPICS), min_size=1, max_size=3, unique=True)),
         draw(ticks(8, 96)), draw(ticks(0, 64)))
        for index in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    endpoints = ENDPOINT_IDS[:draw(st.integers(min_value=1, max_value=len(ENDPOINT_IDS)))]
    # Nobody ever subscribes to "orphan"; duplicates exercise the dedup.
    subscriptions = draw(st.lists(
        st.tuples(st.sampled_from(endpoints), st.sampled_from(TOPICS[:-1])), max_size=10))
    channels = [f"uplink:{device[0]}" for device in devices] + [f"downlink:{e}" for e in endpoints]
    # (added at, channel, start offset from the add instant, duration): a
    # negative offset is a stale start, added after the outage began.
    outages = draw(st.lists(st.tuples(
        ticks(0, 640), st.sampled_from(channels), ticks(-64, 64), ticks(1, 192)), max_size=5))
    # A command shares its device's uplink tick with readings published at
    # the same instant.  The two-hop bus forwarded a tick's readings when
    # the tick fired, so a command sent first at a shared publish instant
    # moved that device's readings ahead of other devices' readings of the
    # instant; routes keep publish order (documented in repro.middleware.
    # bus).  With one device both orders agree, so commands may land on
    # publish instants; with several they are sent between them (an odd
    # multiple of half a tick).
    on_grid = len(devices) == 1
    commands = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=1280).map(
            lambda n: (n if on_grid else 2 * (n // 2) + 1) * TICK / 2),
        st.sampled_from([device[0] for device in devices])), max_size=4))
    config = BusConfig(uplink=ChannelConfig(latency_s=draw(ticks(1, 16))),
                       downlink=ChannelConfig(latency_s=draw(ticks(1, 16))),
                       processing_delay_s=draw(ticks(0, 8)))
    # Two run segments; either may stop with messages in flight.
    first = draw(ticks(64, 640))
    stops = (first, first + draw(ticks(0, 320)))
    return devices, endpoints, subscriptions, outages, commands, config, stops


def drive_bus(bus_class, workload):
    """Run one workload on ``bus_class``; returns everything observable."""
    devices, endpoints, subscriptions, outages, commands, config, stops = workload
    sim = Simulator()
    bus = bus_class(sim, config)
    attached = [_OracleDevice(*device) for device in devices]
    for device in attached:
        bus.attach_device(device)
        sim.register(device)
    for endpoint in endpoints:
        bus.attach_endpoint(endpoint)
    log = []
    for index, (endpoint, topic) in enumerate(subscriptions):
        bus.subscribe(endpoint, topic, lambda t, p, m, label=f"{endpoint}#{index}": log.append(
            (sim.now, label, t, p, m.sequence, m.sent_at)))
    channels = {channel.name: channel for channel in bus.channels}
    for added_at, name, offset, duration in outages:
        start = max(0.0, added_at + offset)
        sim.schedule_at(added_at, lambda c=channels[name], s=start, d=duration: c.add_outage(s, s + d))
    for number, (sent_at, device_id) in enumerate(commands):
        sim.schedule_at(sent_at, lambda d=device_id, n=number: bus.send_command("sup", d, "ping", {"n": n}))
    snapshots = []
    for stop in stops:
        sim.run(until=stop)
        snapshots.append((bus.published_count, bus.forwarded_count, bus.stats()))
    return log, [device.pings for device in attached], snapshots


class TestBusMatchesTwoHopReference:
    """Routes resolved at publish time are indistinguishable from two hops.

    Deterministic links with positive latencies; the stochastic draw order
    differs between the two by design (every draw now happens at publish
    time), so it is out of scope here.
    """

    @given(workload=bus_workloads())
    @settings(max_examples=80, deadline=None)
    def test_delivery_log_counters_and_stats_identical(self, workload):
        log, pings, snapshots = drive_bus(DeviceBus, workload)
        ref_log, ref_pings, ref_snapshots = drive_bus(TwoHopBus, workload)
        assert log == ref_log
        assert pings == ref_pings
        assert snapshots == ref_snapshots
