"""Capnograph: respiratory rate and end-tidal CO2 monitoring.

Capnography is the most direct early indicator of opioid-induced respiratory
depression (respiratory rate falls before SpO2 does, because oxygen reserves
delay desaturation).  The smart-alarm and supervisor-ablation experiments use
the capnograph as a second, faster signal to fuse with pulse oximetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice, clamp
from repro.patient.model import PatientModel
from repro.sim.trace import TraceRecorder

# Normal end-tidal CO2 is about 38 mmHg; hypoventilation raises it roughly in
# proportion to the drop in alveolar ventilation.
BASELINE_ETCO2_MMHG = 38.0
MAX_ETCO2_MMHG = 90.0


@dataclass
class CapnographConfig:
    sample_period_s: float = 5.0
    respiratory_rate_noise_sd: float = 0.5
    etco2_noise_sd: float = 1.0

    def validate(self) -> None:
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.respiratory_rate_noise_sd < 0 or self.etco2_noise_sd < 0:
            raise ValueError("noise standard deviations must be non-negative")


class Capnograph(MedicalDevice):
    """Respiratory-rate / EtCO2 monitor."""

    def __init__(
        self,
        device_id: str,
        patient: PatientModel,
        config: Optional[CapnographConfig] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="capnograph",
            risk_class="II",
            published_topics=("respiratory_rate", "etco2"),
            accepted_commands=(),
            capabilities=("respiratory_monitoring",),
        )
        super().__init__(descriptor, trace=trace)
        self.config = config or CapnographConfig()
        self.config.validate()
        self.patient = patient
        self._rng = rng
        self._frozen = False
        self._frozen_rr: Optional[float] = None
        self.readings_published = 0
        self._declare_signals("respiratory_rate_reading", "etco2_reading")
        self._declare_events("sensor_frozen")

    def start(self) -> None:
        self.transition(DeviceState.RUNNING)
        self.sample_every(self.config.sample_period_s, self._sample)

    def _sample(self) -> None:
        if not self.is_operational:
            return
        vitals = self.patient.vital_signs
        rr = vitals.respiratory_rate_bpm
        if self._rng is not None:
            rr += float(self._rng.normal(0.0, self.config.respiratory_rate_noise_sd))
        rr = max(0.0, rr)

        baseline_rr = self.patient.parameters.baseline_respiratory_rate_bpm
        ventilation_fraction = min(1.0, rr / baseline_rr) if baseline_rr > 0 else 1.0
        etco2 = BASELINE_ETCO2_MMHG / max(ventilation_fraction, BASELINE_ETCO2_MMHG / MAX_ETCO2_MMHG)
        if self._rng is not None:
            etco2 += float(self._rng.normal(0.0, self.config.etco2_noise_sd))
        etco2 = clamp(etco2, 0.0, MAX_ETCO2_MMHG)

        if self._frozen:
            if self._frozen_rr is None:
                self._frozen_rr = rr
            rr = self._frozen_rr

        self.readings_published += 1
        self.publish_reading("respiratory_rate", rr, record="respiratory_rate_reading")
        self.publish_reading("etco2", etco2, record="etco2_reading")

    # ----------------------------------------------------------- fault hooks
    def freeze(self) -> None:
        self._frozen = True
        self._frozen_rr = None
        self._log_event("sensor_frozen", True)

    def unfreeze(self) -> None:
        self._frozen = False
        self._frozen_rr = None
        self._log_event("sensor_frozen", False)
