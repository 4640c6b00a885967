"""Experiment analysis: metrics, statistics, and report-table formatting."""

from repro.analysis.metrics import (
    AlarmConfusion,
    SafetyOutcome,
    aggregate_outcomes,
    classify_alarms,
)
from repro.analysis.stats import bootstrap_ci, summarise
from repro.analysis.tables import Table, format_table

__all__ = [
    "AlarmConfusion",
    "SafetyOutcome",
    "aggregate_outcomes",
    "classify_alarms",
    "bootstrap_ci",
    "summarise",
    "Table",
    "format_table",
]
