"""Rule registry: every shipped rule, in a stable reporting order."""

from __future__ import annotations

from typing import Dict, List

from repro.lint.rules.base import (
    ClassInfo,
    ProjectContext,
    Rule,
    SuppressionReasonRule,
    build_class_index,
)
from repro.lint.rules.det import (
    IdentityOrderingRule,
    SetIterationRule,
    UnseededRandomnessRule,
    WallClockRule,
)
from repro.lint.rules.hot import (
    HotClosureRule,
    HotDictLiteralRule,
    HotNumpyCallRule,
    UnslottedHotClassRule,
)
from repro.lint.rules.layer import (
    ConsumerLayeringRule,
    ObsLeafRule,
    SimPurityRule,
)

__all__ = [
    "ClassInfo",
    "ProjectContext",
    "Rule",
    "build_class_index",
    "all_rules",
    "rule_catalog",
]


def all_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in catalog order."""
    return [
        SetIterationRule(),
        UnseededRandomnessRule(),
        WallClockRule(),
        IdentityOrderingRule(),
        UnslottedHotClassRule(),
        HotDictLiteralRule(),
        HotClosureRule(),
        HotNumpyCallRule(),
        SimPurityRule(),
        ObsLeafRule(),
        ConsumerLayeringRule(),
        SuppressionReasonRule(),
    ]


def rule_catalog() -> Dict[str, str]:
    """``rule id -> one-line summary`` for ``--list-rules`` and docs.

    GOLD01 is listed for discoverability but is not an AST rule: it is a
    *diff* property checked by ``python -m repro.lint.gold`` against a git
    revision range (see :mod:`repro.lint.gold`).
    """
    from repro.lint import gold

    catalog = {rule.id: rule.summary for rule in all_rules()}
    catalog[gold.RULE_ID] = gold.RULE_SUMMARY
    return catalog
