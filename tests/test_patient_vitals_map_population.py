"""Tests for vital-sign dynamics, MAP model, and patient populations."""

import numpy as np
import pytest

from repro.patient.map_model import ArterialPressureModel, ArterialPressureParameters, MMHG_PER_CM_HEIGHT
from repro.patient.population import DEFAULT_PATIENT, PatientParameters, PatientPopulation
from repro.patient.vitals import VitalSignsModel, VitalSignsParameters


class TestVitalSignsParameters:
    def test_defaults_validate(self):
        VitalSignsParameters().validate()

    def test_min_spo2_above_baseline_rejected(self):
        with pytest.raises(ValueError):
            VitalSignsParameters(min_spo2=99.0, baseline_spo2=98.0).validate()

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            VitalSignsParameters(hypoventilation_threshold=0.0).validate()


class TestVitalSignsModel:
    def test_initial_state_matches_baseline(self):
        model = VitalSignsModel()
        state = model.state
        assert state.spo2_percent == VitalSignsParameters().baseline_spo2
        assert state.respiratory_rate_bpm == VitalSignsParameters().baseline_respiratory_rate_bpm
        assert state.pain_level == VitalSignsParameters().initial_pain_level

    def test_full_drive_keeps_spo2_at_baseline(self):
        model = VitalSignsModel()
        for _ in range(100):
            model.advance(1.0, respiratory_drive=1.0, analgesia=0.0)
        assert model.state.spo2_percent == pytest.approx(VitalSignsParameters().baseline_spo2, abs=0.1)

    def test_low_drive_causes_desaturation(self):
        model = VitalSignsModel()
        for _ in range(30):
            model.advance(1.0, respiratory_drive=0.2, analgesia=0.0)
        assert model.state.spo2_percent < 90.0

    def test_spo2_recovers_after_drive_restored(self):
        model = VitalSignsModel()
        for _ in range(30):
            model.advance(1.0, respiratory_drive=0.2, analgesia=0.0)
        low = model.state.spo2_percent
        for _ in range(30):
            model.advance(1.0, respiratory_drive=1.0, analgesia=0.0)
        assert model.state.spo2_percent > low + 5.0

    def test_spo2_never_below_floor(self):
        model = VitalSignsModel()
        for _ in range(500):
            model.advance(1.0, respiratory_drive=0.0, analgesia=0.0)
        assert model.state.spo2_percent >= VitalSignsParameters().min_spo2

    def test_respiratory_rate_tracks_drive(self):
        model = VitalSignsModel()
        state = model.advance(1.0, respiratory_drive=0.5, analgesia=0.0)
        assert state.respiratory_rate_bpm == pytest.approx(
            0.5 * VitalSignsParameters().baseline_respiratory_rate_bpm
        )

    def test_analgesia_reduces_pain(self):
        with_analgesia = VitalSignsModel()
        without = VitalSignsModel()
        with_analgesia.advance(10.0, 1.0, analgesia=0.8)
        without.advance(10.0, 1.0, analgesia=0.0)
        assert with_analgesia.state.pain_level < without.state.pain_level

    def test_hypoxia_raises_heart_rate(self):
        model = VitalSignsModel()
        baseline_hr = model.state.heart_rate_bpm
        for _ in range(30):
            model.advance(1.0, respiratory_drive=0.1, analgesia=1.0)
        assert model.state.heart_rate_bpm > baseline_hr

    def test_respiratory_failure_detection(self):
        model = VitalSignsModel()
        assert not model.is_in_respiratory_failure()
        for _ in range(60):
            model.advance(1.0, respiratory_drive=0.1, analgesia=0.0)
        assert model.is_in_respiratory_failure()

    def test_pain_stimulus(self):
        model = VitalSignsModel()
        before = model.state.pain_level
        model.add_pain_stimulus(2.0)
        assert model.state.pain_level == pytest.approx(min(10.0, before + 2.0))

    def test_invalid_inputs_rejected(self):
        model = VitalSignsModel()
        with pytest.raises(ValueError):
            model.advance(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            model.advance(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            model.advance(1.0, 1.0, 2.0)

    def test_reset(self):
        model = VitalSignsModel()
        model.advance(30.0, 0.1, 0.0)
        model.reset()
        assert model.state.spo2_percent == VitalSignsParameters().baseline_spo2


class TestArterialPressureModel:
    def test_initial_reading_matches_baseline(self):
        model = ArterialPressureModel()
        assert model.measured_map_mmhg == pytest.approx(90.0)

    def test_bed_height_offsets_reading_not_true_map(self):
        model = ArterialPressureModel()
        model.set_bed_height_offset(40.0)
        assert model.true_map_mmhg == pytest.approx(90.0)
        assert model.measured_map_mmhg == pytest.approx(90.0 - 40.0 * MMHG_PER_CM_HEIGHT)

    def test_drift_toward_target(self):
        model = ArterialPressureModel()
        model.set_target_map(60.0)
        model.advance(60.0)
        assert model.true_map_mmhg < 65.0

    def test_hypotension_detection(self):
        model = ArterialPressureModel()
        assert not model.is_truly_hypotensive()
        model.set_target_map(50.0)
        model.advance(200.0)
        assert model.is_truly_hypotensive()

    def test_reading_hypotension_from_artifact(self):
        model = ArterialPressureModel()
        model.set_bed_height_offset(45.0)
        assert model.reading_is_hypotensive()
        assert not model.is_truly_hypotensive()

    def test_noise_applied_with_rng(self):
        model = ArterialPressureModel(rng=np.random.default_rng(0))
        readings = {round(model.measured_map_mmhg, 6) for _ in range(10)}
        assert len(readings) > 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ArterialPressureParameters(baseline_map_mmhg=0.0).validate()
        with pytest.raises(ValueError):
            ArterialPressureModel().set_target_map(0.0)
        with pytest.raises(ValueError):
            ArterialPressureModel().advance(-1.0)


class TestPatientParameters:
    def test_default_patient_validates(self):
        DEFAULT_PATIENT.validate()

    def test_invalid_weight_rejected(self):
        import dataclasses
        bad = dataclasses.replace(DEFAULT_PATIENT, weight_kg=0.0)
        with pytest.raises(ValueError):
            bad.validate()

    def test_pk_parameters_scaled_by_weight(self):
        import dataclasses
        heavy = dataclasses.replace(DEFAULT_PATIENT, weight_kg=120.0)
        assert heavy.pk_parameters().central_volume_l > DEFAULT_PATIENT.pk_parameters().central_volume_l

    def test_pd_parameters_scaled_by_sensitivity(self):
        import dataclasses
        sensitive = dataclasses.replace(DEFAULT_PATIENT, opioid_sensitivity=2.0)
        assert (
            sensitive.pd_parameters().ec50_respiratory_mg_per_l
            < DEFAULT_PATIENT.pd_parameters().ec50_respiratory_mg_per_l
        )

    def test_vitals_parameters_carry_baselines(self):
        vitals = DEFAULT_PATIENT.vitals_parameters()
        assert vitals.baseline_heart_rate_bpm == DEFAULT_PATIENT.baseline_heart_rate_bpm

    def test_as_record_round_trip(self):
        record = DEFAULT_PATIENT.as_record()
        assert record["patient_id"] == DEFAULT_PATIENT.patient_id
        assert record["weight_kg"] == DEFAULT_PATIENT.weight_kg


class TestPatientPopulation:
    def test_sample_count(self, population):
        assert len(population.sample(10)) == 10

    def test_sample_zero(self, population):
        assert population.sample(0) == []

    def test_negative_count_rejected(self, population):
        with pytest.raises(ValueError):
            population.sample(-1)

    def test_all_sampled_patients_valid(self, population):
        for patient in population.sample(50):
            patient.validate()

    def test_unique_ids(self, population):
        patients = population.sample(20)
        assert len({p.patient_id for p in patients}) == 20

    def test_reproducible_with_same_seed(self):
        a = PatientPopulation(seed=3).sample(5)
        b = PatientPopulation(seed=3).sample(5)
        assert [p.weight_kg for p in a] == [p.weight_kg for p in b]

    def test_sensitive_patient_has_higher_sensitivity(self, population):
        normal = population.sample_one("n", sensitive=False)
        sensitive = population.sample_one("s", sensitive=True)
        assert sensitive.opioid_sensitivity >= 1.6
        assert sensitive.opioid_sensitivity > normal.opioid_sensitivity or normal.opioid_sensitivity > 1.6

    def test_athlete_has_low_heart_rate(self, population):
        athlete = population.sample_one("a", athlete=True)
        assert athlete.is_athlete
        assert athlete.baseline_heart_rate_bpm < 60.0
        assert "athlete" in athlete.tags

    def test_fraction_arguments_validated(self, population):
        with pytest.raises(ValueError):
            population.sample(5, sensitive_fraction=1.5)
