"""Pulse oximeter: SpO2 and heart-rate sensing with signal-processing delay.

Figure 1 of the paper identifies "Signal Processing time" as one of the delay
sources the supervisor must account for.  The simulated pulse oximeter
samples the patient's true vital signs periodically, applies a moving-average
signal-processing window (which both smooths noise and introduces the
reporting delay), adds measurement noise, and publishes ``spo2`` and
``heart_rate`` readings on the device network.  Probe-off and frozen-output
artefacts are available for the fault-injection and smart-alarm experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice, clamp
from repro.patient.model import PatientModel
from repro.sim.trace import TraceRecorder


class _RollingMean:
    """Fixed-size chronological sample window with a cached numpy mean.

    Replaces the ``deque`` + ``np.mean(deque)`` pair: converting the deque
    to an array on every read dominated the oximeter's sample cost.  Samples
    live in a preallocated float64 array kept in chronological order (the
    shift is a C-level memmove over a handful of elements), so the mean is
    bit-identical to ``np.mean`` over the equivalent deque, and it is
    computed at most once per appended sample.
    """

    __slots__ = ("_buffer", "_count", "_mean")

    def __init__(self, size: int) -> None:
        self._buffer = np.empty(size, dtype=float)
        self._count = 0
        self._mean: Optional[float] = None

    def __len__(self) -> int:
        return self._count

    def append(self, value: float) -> None:
        buffer = self._buffer
        if self._count < buffer.shape[0]:
            buffer[self._count] = value
            self._count += 1
        else:
            buffer[:-1] = buffer[1:]
            buffer[-1] = value
        self._mean = None

    @property
    def mean(self) -> float:
        if self._count == 0:
            return float("nan")
        mean = self._mean
        if mean is None:
            mean = self._mean = float(self._buffer[:self._count].mean())
        return mean

    def clear(self) -> None:
        self._count = 0
        self._mean = None

    def bias(self, offset: float) -> None:
        """Add ``offset`` to every held sample (value-corruption faults)."""
        self._buffer[:self._count] += offset
        self._mean = None


@dataclass
class PulseOximeterConfig:
    """Sampling and artefact parameters.

    sample_period_s:
        How often the device samples the patient.
    averaging_window_samples:
        Moving-average window; the effective signal-processing delay is about
        half the window times the sample period.
    spo2_noise_sd / heart_rate_noise_sd:
        Gaussian measurement noise.
    """

    sample_period_s: float = 2.0
    averaging_window_samples: int = 4
    spo2_noise_sd: float = 0.6
    heart_rate_noise_sd: float = 1.5

    def validate(self) -> None:
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.averaging_window_samples < 1:
            raise ValueError("averaging_window_samples must be >= 1")
        if self.spo2_noise_sd < 0 or self.heart_rate_noise_sd < 0:
            raise ValueError("noise standard deviations must be non-negative")

    @property
    def signal_processing_delay_s(self) -> float:
        """Approximate group delay introduced by the averaging window."""
        return 0.5 * (self.averaging_window_samples - 1) * self.sample_period_s


class PulseOximeter(MedicalDevice):
    """SpO2 / heart-rate monitor publishing to the device network."""

    def __init__(
        self,
        device_id: str,
        patient: PatientModel,
        config: Optional[PulseOximeterConfig] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="pulse_oximeter",
            risk_class="II",
            published_topics=("spo2", "heart_rate", "probe_status"),
            accepted_commands=(),
            capabilities=("spo2_monitoring", "heart_rate_monitoring"),
        )
        super().__init__(descriptor, trace=trace)
        self.config = config or PulseOximeterConfig()
        self.config.validate()
        self.patient = patient
        self._rng = rng
        self._spo2_window = _RollingMean(self.config.averaging_window_samples)
        self._hr_window = _RollingMean(self.config.averaging_window_samples)
        self._frozen = False
        self._probe_off = False
        self._frozen_values: Optional[Tuple[float, float]] = None
        self.readings_published = 0
        self._declare_signals("spo2_reading", "heart_rate_reading")
        self._declare_events("sensor_frozen", "probe_off")

    # --------------------------------------------------------------- process
    def start(self) -> None:
        self.transition(DeviceState.RUNNING)
        self.sample_every(self.config.sample_period_s, self._sample)

    def _sample(self) -> None:
        if not self.is_operational:
            return
        if self._probe_off:
            # A detached probe reads nonsense near zero; the smart-alarm
            # experiment relies on this signature being distinguishable from
            # true desaturation by its abruptness and by other vitals.
            self.publish("probe_status", {"attached": False})
            self.publish_reading("spo2", 0.0, valid=False, record="spo2_reading")
            self.publish_reading("heart_rate", 0.0, valid=False)
            return

        vitals = self.patient.vital_signs
        spo2 = vitals.spo2_percent
        heart_rate = vitals.heart_rate_bpm
        if self._rng is not None:
            spo2 += float(self._rng.normal(0.0, self.config.spo2_noise_sd))
            heart_rate += float(self._rng.normal(0.0, self.config.heart_rate_noise_sd))
        self._spo2_window.append(clamp(spo2, 0.0, 100.0))
        self._hr_window.append(max(0.0, heart_rate))

        if self._frozen:
            if self._frozen_values is None:
                self._frozen_values = (self.current_spo2, self.current_heart_rate)
            reported_spo2, reported_hr = self._frozen_values
        else:
            reported_spo2, reported_hr = self.current_spo2, self.current_heart_rate

        self.readings_published += 1
        self.publish_reading("spo2", reported_spo2, record="spo2_reading")
        self.publish_reading("heart_rate", reported_hr, record="heart_rate_reading")

    # ---------------------------------------------------------------- values
    @property
    def current_spo2(self) -> float:
        """Moving-average SpO2 as the device would display it."""
        return self._spo2_window.mean

    @property
    def current_heart_rate(self) -> float:
        return self._hr_window.mean

    # ----------------------------------------------------------- fault hooks
    def freeze(self) -> None:
        """Stuck-sensor fault: keep publishing the last value."""
        self._frozen = True
        self._frozen_values = None
        self._log_event("sensor_frozen", True)

    def unfreeze(self) -> None:
        self._frozen = False
        self._frozen_values = None
        self._log_event("sensor_frozen", False)

    def detach_probe(self) -> None:
        """Probe-off artefact (finger clip falls off)."""
        self._probe_off = True
        self._log_event("probe_off", True)

    def reattach_probe(self) -> None:
        self._probe_off = False
        self._spo2_window.clear()
        self._hr_window.clear()
        self._log_event("probe_off", False)

    def corrupt(self, spo2_offset: float = 0.0, heart_rate_offset: float = 0.0, **_ignored) -> None:
        """Value-corruption fault hook: bias the averaging windows."""
        self._spo2_window.bias(spo2_offset)
        self._hr_window.bias(heart_rate_offset)
