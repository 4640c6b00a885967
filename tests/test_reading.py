"""Tests for the slotted Reading payload type and its decoder."""

import json

import pytest

from repro.readings import Reading, coerce_reading


class TestReadingBasics:
    def test_field_access(self):
        reading = Reading(97.2, True, 12.5)
        assert reading.value == 97.2
        assert reading.valid is True
        assert reading.time == 12.5

    def test_defaults(self):
        reading = Reading(3.0)
        assert reading.valid is True
        assert reading.time == 0.0

    def test_slots_no_dict(self):
        assert not hasattr(Reading(1.0), "__dict__")

    def test_immutable_assignment_raises(self):
        reading = Reading(1.0)
        with pytest.raises(AttributeError, match="immutable"):
            reading.value = 2.0
        with pytest.raises(AttributeError, match="immutable"):
            reading.extra = "nope"
        with pytest.raises(AttributeError, match="immutable"):
            del reading.valid

    def test_hashable(self):
        assert Reading(1.0, True, 2.0) in {Reading(1.0, True, 2.0)}

    def test_pickle_round_trip(self):
        # Campaign workers move payloads across processes; the immutable
        # __setattr__ must not break unpickling.
        import pickle

        reading = Reading(97.0, False, 3.5)
        clone = pickle.loads(pickle.dumps(reading))
        assert clone == reading and type(clone) is Reading

    def test_repr(self):
        assert repr(Reading(1.0, False, 3.0)) == "Reading(value=1.0, valid=False, time=3.0)"

    def test_as_dict_json_matches_legacy_payload_bytes(self):
        # The trace serialisation path depends on this: a Reading rendered
        # through as_dict() must produce the same JSON as the old dict
        # literal the devices built, key order included.
        legacy = {"value": 97.0, "valid": True, "time": 8.0}
        reading = Reading(97.0, True, 8.0)
        assert json.dumps(reading.as_dict()) == json.dumps(legacy)
        assert Reading(**reading.as_dict()) == reading
        # A Reading equals only Readings, never its dict form or its value.
        assert reading != legacy
        assert reading != 97.0


class TestCoerceReading:
    def test_reading_passthrough_identity(self):
        reading = Reading(1.0)
        assert coerce_reading(reading) is reading

    def test_legacy_dict_full(self):
        reading = coerce_reading({"value": 2.0, "valid": False, "time": 9.0})
        assert reading == Reading(2.0, False, 9.0)

    def test_legacy_dict_partial_uses_defaults(self):
        reading = coerce_reading({"value": 2.0}, default_time=7.0)
        assert reading == Reading(2.0, True, 7.0)

    def test_bare_numbers(self):
        assert coerce_reading(42, default_time=1.0) == Reading(42.0, True, 1.0)
        assert coerce_reading(3.5) == Reading(3.5, True, 0.0)

    def test_non_reading_payloads_rejected(self):
        assert coerce_reading({"height_cm": 30.0, "time": 5.0}) is None  # status dict
        assert coerce_reading({"attached": False}) is None
        assert coerce_reading("stop") is None
        assert coerce_reading(None) is None
        assert coerce_reading(True) is None  # bools are not measurements
        assert coerce_reading([1.0]) is None


class TestDeviceProducesReadings:
    def test_sensor_publishes_reading_stamped_with_sim_time(self):
        from repro.devices.pulse_oximeter import PulseOximeter
        from repro.patient.model import PatientModel
        from repro.sim.kernel import Simulator

        simulator = Simulator()
        patient = PatientModel()
        simulator.register(patient)
        oximeter = PulseOximeter("ox-1", patient)
        published = []
        oximeter.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(oximeter)
        simulator.run(until=4.1)

        spo2 = [p for t, p in published if t == "spo2"]
        assert spo2, "oximeter published no spo2 readings"
        for reading in spo2:
            assert type(reading) is Reading
            assert reading.valid is True
        assert [r.time for r in spo2] == [pytest.approx(2.0), pytest.approx(4.0)]
        assert 0.0 <= spo2[0].value <= 100.0

    def test_publish_reading_records_trace_signal_in_same_call(self):
        from repro.devices.bp_monitor import BloodPressureMonitor
        from repro.patient.model import PatientModel
        from repro.sim.kernel import Simulator
        from repro.sim.trace import TraceRecorder

        simulator = Simulator()
        patient = PatientModel()
        simulator.register(patient)
        trace = TraceRecorder()
        monitor = BloodPressureMonitor("bp-1", patient, trace=trace)
        monitor.attach_publisher(lambda topic, payload: None)
        simulator.register(monitor)
        simulator.run(until=130.0)
        samples = trace.samples("bp-1:map_reading")
        assert len(samples) == monitor.readings_published
        assert samples, "publish_reading(record=...) recorded nothing"
