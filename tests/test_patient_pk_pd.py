"""Tests for the pharmacokinetic and pharmacodynamic models."""

import numpy as np
import pytest
from reference_patient import euler_pk_step

from repro.patient.pharmacodynamics import PDParameters, RespiratoryDepressionPD, hill
from repro.patient.pharmacokinetics import PKParameters, TwoCompartmentPK


class TestPKParameters:
    def test_defaults_validate(self):
        PKParameters().validate()

    @pytest.mark.parametrize("field", [
        "central_volume_l", "peripheral_volume_l", "clearance_l_per_min",
        "distribution_clearance_l_per_min",
    ])
    def test_non_positive_rejected(self, field):
        with pytest.raises(ValueError):
            PKParameters(**{field: 0.0}).validate()

    def test_rate_constants_positive(self):
        p = PKParameters()
        assert p.k10 > 0 and p.k12 > 0 and p.k21 > 0

    def test_weight_scaling(self):
        base = PKParameters()
        heavy = base.scaled_for_weight(140.0)
        light = base.scaled_for_weight(50.0)
        assert heavy.central_volume_l > base.central_volume_l > light.central_volume_l
        assert heavy.clearance_l_per_min > light.clearance_l_per_min

    def test_clearance_multiplier(self):
        base = PKParameters()
        slow = base.scaled_for_weight(70.0, clearance_multiplier=0.5)
        assert slow.clearance_l_per_min == pytest.approx(base.clearance_l_per_min * 0.5, rel=0.05)

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            PKParameters().scaled_for_weight(0.0)


class TestTwoCompartmentPK:
    def test_initially_empty(self):
        pk = TwoCompartmentPK(PKParameters())
        assert pk.total_amount_mg == 0.0
        assert pk.plasma_concentration_mg_per_l == 0.0

    def test_bolus_raises_concentration(self):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(10.0)
        assert pk.plasma_concentration_mg_per_l == pytest.approx(
            10.0 / PKParameters().central_volume_l
        )

    def test_negative_bolus_rejected(self):
        with pytest.raises(ValueError):
            TwoCompartmentPK(PKParameters()).add_bolus(-1.0)

    def test_elimination_decreases_total_drug(self):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(10.0)
        before = pk.total_amount_mg
        pk.advance(30.0)
        assert pk.total_amount_mg < before

    def test_drug_never_negative(self):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(1.0)
        pk.advance(10000.0)
        assert pk.central_amount_mg >= 0.0
        assert pk.peripheral_amount_mg >= 0.0

    def test_infusion_approaches_steady_state(self):
        pk = TwoCompartmentPK(PKParameters())
        rate = 0.1  # mg/min
        for _ in range(200):
            pk.advance(10.0, infusion_rate_mg_per_min=rate)
        expected = pk.steady_state_concentration(rate)
        assert pk.plasma_concentration_mg_per_l == pytest.approx(expected, rel=0.05)

    def test_steady_state_formula(self):
        pk = TwoCompartmentPK(PKParameters(clearance_l_per_min=2.0))
        assert pk.steady_state_concentration(1.0) == pytest.approx(0.5)

    def test_zero_dt_is_noop(self):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(5.0)
        before = pk.plasma_concentration_mg_per_l
        assert pk.advance(0.0) == before

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            TwoCompartmentPK(PKParameters()).advance(-1.0)

    def test_negative_infusion_rejected(self):
        with pytest.raises(ValueError):
            TwoCompartmentPK(PKParameters()).advance(1.0, infusion_rate_mg_per_min=-1.0)

    def test_matrix_exponential_matches_euler(self):
        parameters = PKParameters()
        exact = TwoCompartmentPK(parameters)
        exact.add_bolus(5.0)
        central, peripheral = 5.0, 0.0
        for _ in range(20):
            exact.advance(2.0, 0.05)
            central, peripheral = euler_pk_step(parameters, central, peripheral,
                                                2.0, 0.05, substeps=2000)
        assert exact.plasma_concentration_mg_per_l == pytest.approx(
            central / parameters.central_volume_l, rel=1e-3
        )

    def test_large_step_stable(self):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(10.0)
        pk.advance(100000.0)
        assert pk.total_amount_mg == pytest.approx(0.0, abs=1e-6)

    def test_mass_conservation_without_elimination_shortstep(self):
        # Over a very short step elimination is negligible; total mass stays close.
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(10.0)
        pk.advance(0.001)
        assert pk.total_amount_mg == pytest.approx(10.0, rel=1e-3)

    def test_half_lives_ordered(self):
        distribution, elimination = TwoCompartmentPK(PKParameters()).half_life_min()
        assert 0 < distribution < elimination

    def test_reset(self):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(5.0)
        pk.reset()
        assert pk.total_amount_mg == 0.0


class TestHillFunction:
    def test_zero_concentration(self):
        assert hill(0.0, 1.0, 2.0) == 0.0

    def test_at_ec50_is_half(self):
        assert hill(1.0, 1.0, 3.0) == pytest.approx(0.5)

    def test_monotone_increasing(self):
        values = [hill(c, 1.0, 2.0) for c in np.linspace(0.1, 10, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bounded_by_one(self):
        assert hill(100.0, 1.0, 2.0) < 1.0
        assert hill(1e9, 1.0, 2.0) <= 1.0


class TestPDParameters:
    def test_defaults_validate(self):
        PDParameters().validate()

    def test_invalid_ec50_rejected(self):
        with pytest.raises(ValueError):
            PDParameters(ec50_respiratory_mg_per_l=0.0).validate()

    def test_invalid_ke0_rejected(self):
        with pytest.raises(ValueError):
            PDParameters(ke0_per_min=0.0).validate()

    def test_sensitivity_lowers_ec50(self):
        base = PDParameters()
        sensitive = base.with_sensitivity(2.0)
        assert sensitive.ec50_respiratory_mg_per_l == pytest.approx(base.ec50_respiratory_mg_per_l / 2.0)
        assert sensitive.ec50_analgesia_mg_per_l == pytest.approx(base.ec50_analgesia_mg_per_l / 2.0)

    def test_invalid_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            PDParameters().with_sensitivity(0.0)


class TestRespiratoryDepressionPD:
    def test_initial_state(self):
        pd = RespiratoryDepressionPD(PDParameters())
        assert pd.effect_site_concentration_mg_per_l == 0.0
        assert pd.respiratory_depression() == 0.0
        assert pd.respiratory_drive() == 1.0
        assert pd.analgesia() == 0.0

    def test_effect_site_lags_plasma(self):
        pd = RespiratoryDepressionPD(PDParameters())
        effect = pd.advance(1.0, plasma_concentration_mg_per_l=0.1)
        assert 0.0 < effect < 0.1

    def test_effect_site_converges_to_constant_plasma(self):
        pd = RespiratoryDepressionPD(PDParameters())
        for _ in range(500):
            pd.advance(1.0, 0.05)
        assert pd.effect_site_concentration_mg_per_l == pytest.approx(0.05, rel=1e-3)

    def test_depression_increases_with_concentration(self):
        pd = RespiratoryDepressionPD(PDParameters())
        low = pd.respiratory_depression(0.01)
        high = pd.respiratory_depression(0.2)
        assert high > low

    def test_depression_bounded_by_max(self):
        parameters = PDParameters()
        pd = RespiratoryDepressionPD(parameters)
        assert pd.respiratory_depression(1000.0) <= parameters.max_respiratory_depression

    def test_drive_is_complement_of_depression(self):
        pd = RespiratoryDepressionPD(PDParameters())
        assert pd.respiratory_drive(0.1) == pytest.approx(1.0 - pd.respiratory_depression(0.1))

    def test_analgesia_saturates_before_respiratory_depression(self):
        # At a mid-range analgesic concentration, pain relief should exceed
        # respiratory depression: the therapeutic window that makes PCA usable.
        pd = RespiratoryDepressionPD(PDParameters())
        concentration = PDParameters().ec50_analgesia_mg_per_l * 1.5
        assert pd.analgesia(concentration) > pd.respiratory_depression(concentration)

    def test_negative_inputs_rejected(self):
        pd = RespiratoryDepressionPD(PDParameters())
        with pytest.raises(ValueError):
            pd.advance(-1.0, 0.1)
        with pytest.raises(ValueError):
            pd.advance(1.0, -0.1)

    def test_reset(self):
        pd = RespiratoryDepressionPD(PDParameters())
        pd.advance(10.0, 0.1)
        pd.reset()
        assert pd.effect_site_concentration_mg_per_l == 0.0
