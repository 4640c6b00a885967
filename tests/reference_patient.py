"""Naive reference patient step: the differential oracle for ``PatientModel``.

This is the physiology step as it was before the scalar fast path, kept only
as a reference.  :func:`euler_pk_step` is a second, independent PK oracle: a
sub-stepped Euler integration of the same two-compartment system.  Every step recomputes everything with numpy:

* the PK propagators (matrix exponential and inverse) for the step length,
  with no per-``dt`` cache;
* the PD equilibration, SpO2, pain and MAP decays with a fresh ``np.exp``;
* the SpO2 and pain bounds with ``np.clip``.

The values flow as numpy scalars where the old code let them (the PD
effect-site concentration and everything derived from it), so the oracle
also pins that plain Python floats give the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.patient.model import PatientModel
from repro.patient.pharmacodynamics import hill
from repro.patient.pharmacokinetics import PKParameters, _matrix_exponential


class ReferencePatient:
    """PK -> PD -> vitals -> MAP, one fresh numpy computation per step."""

    def __init__(self, patient: PatientModel) -> None:
        # Parameters are shared with the model under test; the state is a
        # copy of the model's current state.
        self.pk = patient.pk.parameters
        self.pd = patient.pd.parameters
        self.vitals = patient.vitals_model.parameters
        self.map = patient.map_model.parameters
        self.central_mg = patient.pk.central_amount_mg
        self.peripheral_mg = patient.pk.peripheral_amount_mg
        self.effect_site = patient.pd.effect_site_concentration_mg_per_l
        vitals = patient.vital_signs
        self.respiratory_rate = vitals.respiratory_rate_bpm
        self.spo2 = vitals.spo2_percent
        self.heart_rate = vitals.heart_rate_bpm
        self.pain = vitals.pain_level
        self.true_map = patient.map_model.true_map_mmhg
        self.target_map = patient.map_model._target_map
        self.infusion_rate = patient.infusion_rate_mg_per_min

    def state(self) -> tuple:
        """Every physiological state variable, in ``model_state`` order."""
        return (self.central_mg, self.peripheral_mg, self.effect_site,
                self.respiratory_rate, self.spo2, self.heart_rate, self.pain,
                self.true_map)

    def advance_by(self, dt_min: float) -> None:
        self._advance_pk(dt_min)
        plasma = self.central_mg / self.pk.central_volume_l
        if dt_min > 0:
            decay = np.exp(-self.pd.ke0_per_min * dt_min)
            self.effect_site = plasma + (self.effect_site - plasma) * decay
        drive = 1.0 - self.pd.max_respiratory_depression * hill(
            self.effect_site, self.pd.ec50_respiratory_mg_per_l, self.pd.hill_respiratory)
        analgesia = hill(self.effect_site, self.pd.ec50_analgesia_mg_per_l, self.pd.hill_analgesia)
        if dt_min > 0:
            self._advance_vitals(dt_min, drive, analgesia)
        decay = np.exp(-dt_min / self.map.drift_time_constant_min)
        self.true_map = float(self.target_map + (self.true_map - self.target_map) * decay)

    def _advance_pk(self, dt_min: float) -> None:
        if dt_min == 0:
            return
        p = self.pk
        system = np.array([[-(p.k10 + p.k12), p.k21], [p.k12, -p.k21]])
        exp_at = _matrix_exponential(system * dt_min)
        forced_response = np.linalg.inv(system) @ (exp_at - np.eye(2))
        new_state = (exp_at @ np.array([self.central_mg, self.peripheral_mg])
                     + forced_response @ np.array([self.infusion_rate, 0.0]))
        self.central_mg = max(0.0, float(new_state[0]))
        self.peripheral_mg = max(0.0, float(new_state[1]))

    def _advance_vitals(self, dt_min: float, drive: float, analgesia: float) -> None:
        p = self.vitals
        self.respiratory_rate = p.baseline_respiratory_rate_bpm * drive
        if drive >= p.hypoventilation_threshold:
            spo2_target = p.baseline_spo2
        else:
            deficit = (p.hypoventilation_threshold - drive) / p.hypoventilation_threshold
            spo2_target = p.baseline_spo2 - deficit * (p.baseline_spo2 - p.min_spo2)
        decay = np.exp(-dt_min / p.spo2_time_constant_min)
        self.spo2 = float(spo2_target + (self.spo2 - spo2_target) * decay)
        self.spo2 = float(np.clip(self.spo2, p.min_spo2, 100.0))
        natural_pain = self.pain * np.exp(-p.pain_decay_per_min * dt_min)
        self.pain = float(np.clip(natural_pain * (1.0 - analgesia), 0.0, 10.0))
        hypoxia = max(0.0, p.baseline_spo2 - self.spo2)
        self.heart_rate = float(
            p.baseline_heart_rate_bpm
            + p.heart_rate_pain_gain * self.pain
            + p.heart_rate_hypoxia_gain * hypoxia
        )


def model_state(patient: PatientModel) -> tuple:
    """The production model's state in :meth:`ReferencePatient.state` order."""
    vitals = patient.vital_signs
    return (patient.pk.central_amount_mg, patient.pk.peripheral_amount_mg,
            patient.pd.effect_site_concentration_mg_per_l,
            vitals.respiratory_rate_bpm, vitals.spo2_percent, vitals.heart_rate_bpm,
            vitals.pain_level, patient.map_model.true_map_mmhg)


def euler_pk_step(parameters: PKParameters, central_mg: float, peripheral_mg: float,
                  dt_min: float, infusion_rate_mg_per_min: float = 0.0,
                  substeps: int = 100) -> tuple:
    """``(central_mg, peripheral_mg)`` after ``dt_min`` minutes of sub-stepped Euler.

    Clamped at zero like ``TwoCompartmentPK.advance``, so the two agree to
    the Euler truncation error for fine enough ``substeps``.
    """
    p = parameters
    h = dt_min / substeps
    for _ in range(substeps):
        d_central = (
            infusion_rate_mg_per_min
            - p.k10 * central_mg
            - p.k12 * central_mg
            + p.k21 * peripheral_mg
        )
        d_peripheral = p.k12 * central_mg - p.k21 * peripheral_mg
        central_mg += h * d_central
        peripheral_mg += h * d_peripheral
    return max(0.0, central_mg), max(0.0, peripheral_mg)
