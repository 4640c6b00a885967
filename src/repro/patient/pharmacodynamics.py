"""Pharmacodynamic (PD) model: opioid effect on respiratory drive and pain.

The PD stage converts the plasma concentration computed by
:class:`repro.patient.pharmacokinetics.TwoCompartmentPK` into clinical
effects.  Two effects matter for the closed-loop PCA scenario of the paper:

* *Analgesia* -- pain relief, the therapeutic goal, modelled as a Hill
  (sigmoid Emax) function of effect-site concentration.
* *Respiratory depression* -- the hazard the supervisor must prevent,
  modelled as a Hill function that scales down the patient's respiratory
  drive; a sufficiently depressed drive drags down respiratory rate and,
  with a lag, SpO2.

An effect-site compartment with first-order equilibration (rate ``ke0``)
introduces the clinically important delay between plasma concentration and
effect, which is one of the timing terms the supervisor's delay budget must
cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass
class PDParameters:
    """Hill-model pharmacodynamic parameters.

    ec50_respiratory_mg_per_l:
        Effect-site concentration producing 50% of maximal respiratory
        depression.  Lower values mean a more opioid-sensitive patient.
    hill_respiratory:
        Steepness of the respiratory depression curve.
    ec50_analgesia_mg_per_l / hill_analgesia:
        Same for pain relief; analgesia saturates at lower concentrations
        than dangerous respiratory depression in a typical patient, which is
        exactly why PCA dosing works at all.
    ke0_per_min:
        Plasma <-> effect-site equilibration rate constant.
    max_respiratory_depression:
        Fraction of respiratory drive removed at infinite concentration
        (kept slightly below 1 so the ODEs remain well behaved).
    """

    ec50_respiratory_mg_per_l: float = 0.045
    hill_respiratory: float = 2.5
    ec50_analgesia_mg_per_l: float = 0.018
    hill_analgesia: float = 2.0
    ke0_per_min: float = 0.07
    max_respiratory_depression: float = 0.98

    def validate(self) -> None:
        if self.ec50_respiratory_mg_per_l <= 0:
            raise ValueError("ec50_respiratory_mg_per_l must be positive")
        if self.ec50_analgesia_mg_per_l <= 0:
            raise ValueError("ec50_analgesia_mg_per_l must be positive")
        if self.hill_respiratory <= 0 or self.hill_analgesia <= 0:
            raise ValueError("Hill coefficients must be positive")
        if self.ke0_per_min <= 0:
            raise ValueError("ke0_per_min must be positive")
        if not 0 < self.max_respiratory_depression <= 1:
            raise ValueError("max_respiratory_depression must be in (0, 1]")

    def with_sensitivity(self, sensitivity: float) -> "PDParameters":
        """Scale EC50s for a patient ``sensitivity`` (>1 means more sensitive)."""
        if sensitivity <= 0:
            raise ValueError("sensitivity must be positive")
        return PDParameters(
            ec50_respiratory_mg_per_l=self.ec50_respiratory_mg_per_l / sensitivity,
            hill_respiratory=self.hill_respiratory,
            ec50_analgesia_mg_per_l=self.ec50_analgesia_mg_per_l / sensitivity,
            hill_analgesia=self.hill_analgesia,
            ke0_per_min=self.ke0_per_min,
            max_respiratory_depression=self.max_respiratory_depression,
        )


def hill(concentration: float, ec50: float, coefficient: float) -> float:
    """Sigmoid Emax (Hill) response in [0, 1)."""
    if concentration <= 0:
        return 0.0
    ratio = (concentration / ec50) ** coefficient
    return ratio / (1.0 + ratio)


class RespiratoryDepressionPD:
    """Effect-site PD model for respiratory depression and analgesia.

    The equilibration decay over a step depends only on ``dt_min`` and is
    cached per exact step length, so set ``parameters`` before the model
    first advances.
    """

    #: Bound on cached per-``dt`` decays, as for the PK propagators.
    _DECAY_CACHE_LIMIT = 64

    def __init__(self, parameters: PDParameters) -> None:
        parameters.validate()
        self.parameters = parameters
        self._effect_site_mg_per_l = 0.0
        self._decays: Dict[float, float] = {}

    @property
    def effect_site_concentration_mg_per_l(self) -> float:
        return self._effect_site_mg_per_l

    def reset(self) -> None:
        self._effect_site_mg_per_l = 0.0

    def _decay(self, dt_min: float) -> float:
        """Equilibration decay over ``dt_min``, as ``np.exp`` gives it."""
        decay = float(np.exp(-self.parameters.ke0_per_min * dt_min))
        if len(self._decays) < self._DECAY_CACHE_LIMIT:
            self._decays[dt_min] = decay
        return decay

    def advance(self, dt_min: float, plasma_concentration_mg_per_l: float) -> float:  # repro-lint: hot
        """Advance the effect-site compartment ``dt_min`` minutes.

        Uses the exact solution of the first-order equilibration ODE for a
        plasma concentration held constant over the step, and returns the new
        effect-site concentration.
        """
        if dt_min < 0:
            raise ValueError("dt_min must be non-negative")
        if plasma_concentration_mg_per_l < 0:
            raise ValueError("plasma concentration must be non-negative")
        if dt_min == 0:
            return self._effect_site_mg_per_l
        decay = self._decays.get(dt_min)
        if decay is None:
            decay = self._decay(dt_min)
        self._effect_site_mg_per_l = (
            plasma_concentration_mg_per_l
            + (self._effect_site_mg_per_l - plasma_concentration_mg_per_l) * decay
        )
        return self._effect_site_mg_per_l

    # ---------------------------------------------------------------- effects
    def respiratory_depression(self, effect_site: float = None) -> float:
        """Fraction of respiratory drive suppressed, in [0, max_depression]."""
        concentration = self._effect_site_mg_per_l if effect_site is None else effect_site
        return self.parameters.max_respiratory_depression * hill(
            concentration,
            self.parameters.ec50_respiratory_mg_per_l,
            self.parameters.hill_respiratory,
        )

    def respiratory_drive(self, effect_site: float = None) -> float:
        """Remaining respiratory drive in [1 - max_depression, 1]."""
        return 1.0 - self.respiratory_depression(effect_site)

    def analgesia(self, effect_site: float = None) -> float:
        """Fraction of pain relieved, in [0, 1)."""
        concentration = self._effect_site_mg_per_l if effect_site is None else effect_site
        return hill(
            concentration,
            self.parameters.ec50_analgesia_mg_per_l,
            self.parameters.hill_analgesia,
        )
