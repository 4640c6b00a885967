"""Baseline files: accepted pre-existing violations, and nothing else.

A baseline is a JSON map of violation fingerprints to occurrence counts.
Matching is strict in both directions:

* a violation whose fingerprint is in the baseline (within its count) is
  reported as *baselined*, not failing;
* a baseline entry that no longer matches any current violation is *stale*
  and fails the run — a baseline may only ever shrink toward empty, never
  silently rot.

Fingerprints hash the violating line's content, not its number, so
unrelated edits above a baselined violation do not churn the file.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.lint.violations import Violation

BASELINE_VERSION = 1


@dataclass
class BaselineMatch:
    """Outcome of folding a baseline into a violation list."""

    failing: List[Violation] = field(default_factory=list)
    baselined: List[Violation] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)


def load_baseline(path: Path) -> Dict[str, int]:
    """Read ``{fingerprint: count}`` from a baseline file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    version = data.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {version!r}; "
            f"this analyzer writes version {BASELINE_VERSION}"
        )
    fingerprints = data.get("fingerprints", {})
    if not isinstance(fingerprints, dict):
        raise ValueError(f"baseline {path} 'fingerprints' must be an object")
    return {str(key): int(value) for key, value in fingerprints.items()}


def write_baseline(path: Path, violations: List[Violation]) -> int:
    """Write the current violations as the accepted baseline."""
    counts = Counter(violation.fingerprint for violation in violations)
    payload = {
        "version": BASELINE_VERSION,
        "fingerprints": {key: counts[key] for key in sorted(counts)},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return sum(counts.values())


def apply_baseline(
    violations: List[Violation], baseline: Dict[str, int]
) -> BaselineMatch:
    """Split violations into failing vs baselined; surface stale entries."""
    remaining = Counter(baseline)
    match = BaselineMatch()
    for violation in violations:
        fingerprint = violation.fingerprint
        if remaining.get(fingerprint, 0) > 0:
            remaining[fingerprint] -= 1
            match.baselined.append(violation)
        else:
            match.failing.append(violation)
    match.stale = sorted(
        fingerprint for fingerprint, count in remaining.items() if count > 0
    )
    return match
