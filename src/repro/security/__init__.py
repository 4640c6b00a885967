"""Security for networked medical devices.

Section III(m) of the paper: an attacker who penetrates an MCPS network "has
the potential to harm and even kill patients by reprogramming devices"; most
manufacturers respond by restricting the network interface to data-out only,
which "severely limits the ability to deploy closed-loop scenarios".  Finding
the balance between flexibility and security is the tradeoff experiment E7
quantifies.  This package provides:

* :class:`~repro.security.policy.CommandAuthorizationPolicy` -- per-device
  command allowlists (open / allowlisted / data-only postures) evaluated by
  the supervisor host on every outgoing command.
* :class:`~repro.security.auth.DeviceAuthenticator` -- shared-key device
  identity with nonce-based challenge response (anti-replay).
* :mod:`~repro.security.attacks` -- attack campaign models (reprogramming,
  replay, command flooding) run against a policy to measure which attacks
  get through.
"""

from repro.security.policy import CommandAuthorizationPolicy, SecurityPosture
from repro.security.auth import AuthenticationError, DeviceAuthenticator, DeviceCredential
from repro.security.attacks import Attack, AttackCampaign, AttackOutcome, AttackResult

__all__ = [
    "CommandAuthorizationPolicy",
    "SecurityPosture",
    "AuthenticationError",
    "DeviceAuthenticator",
    "DeviceCredential",
    "Attack",
    "AttackCampaign",
    "AttackOutcome",
    "AttackResult",
]
