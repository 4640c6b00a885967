"""The slotted, immutable per-sample sensor reading carried end-to-end.

Every sensor sample in the system used to travel as a fresh three-key dict
(``{"value": ..., "valid": ..., "time": ...}``) allocated per published
reading — multiplied by devices x sample rate x campaign size, that dict was
the last per-reading allocation on the messaging hot path.  :class:`Reading`
replaces it: a ``__slots__`` value type produced by the device publish
helpers, carried opaquely through :class:`repro.sim.channel.Channel` messages
and :class:`repro.middleware.bus.Envelope` envelopes, and consumed natively
(attribute access, no string-keyed lookups) by the supervisor, workflow,
EHR, and alarm layers.

Payloads that are not Readings (legacy ``{"value": ...}`` dicts, bare
numbers) are decoded by :func:`coerce_reading`, the only decoder.
"""

from __future__ import annotations

from typing import Any, Optional

_FIELDS = ("value", "valid", "time")
_set = object.__setattr__


class Reading:
    """One sensor sample: ``value`` measured at ``time``, flagged ``valid``.

    Instances are immutable (assignment raises), hashable, and compare equal
    only to other Readings with the same three fields.
    """

    __slots__ = _FIELDS

    value: Any
    valid: bool
    time: float

    def __init__(self, value: Any, valid: bool = True, time: float = 0.0) -> None:
        _set(self, "value", value)
        _set(self, "valid", valid)
        _set(self, "time", time)

    # ---------------------------------------------------------- immutability
    def __setattr__(self, name: str, _value: Any) -> None:
        raise AttributeError(f"Reading is immutable (tried to set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Reading is immutable (tried to delete {name!r})")

    # ----------------------------------------------------------- conversion
    def as_dict(self) -> dict[str, Any]:
        """The legacy dict payload form (same key order the devices used)."""
        return {"value": self.value, "valid": self.valid, "time": self.time}

    # ------------------------------------------------------------ comparison
    def __eq__(self, other: object) -> bool:
        if type(other) is Reading:
            return (self.value == other.value and self.valid == other.valid
                    and self.time == other.time)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Reading, self.value, self.valid, self.time))

    def __reduce__(self) -> tuple[type, tuple[Any, bool, float]]:
        # Default slot pickling restores state via setattr, which immutability
        # blocks; rebuild through the constructor instead (campaign workers
        # move objects across processes).
        return (Reading, (self.value, self.valid, self.time))

    def __repr__(self) -> str:
        return f"Reading(value={self.value!r}, valid={self.valid!r}, time={self.time!r})"


def coerce_reading(payload: Any, default_time: float = 0.0) -> Optional[Reading]:
    """View an arbitrary topic payload as a :class:`Reading`, if it is one.

    Accepts the three shapes a data topic has ever carried — a ``Reading``,
    a legacy ``{"value": ...}`` dict (``valid``/``time`` optional), or a bare
    number — and returns ``None`` for anything else (command parameters,
    status dicts like ``bed_height``/``pump_status``, strings).  Consumers
    that track latest values should route every payload through this shim
    instead of ``isinstance(payload, dict)`` checks, which silently drop
    Readings and bare numbers.
    """
    if type(payload) is Reading:
        return payload
    if isinstance(payload, dict):
        if "value" not in payload:
            return None
        return Reading(
            payload["value"],
            bool(payload.get("valid", True)),
            float(payload.get("time", default_time)),
        )
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return Reading(float(payload), True, default_time)
    return None
