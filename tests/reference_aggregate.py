"""Materialised campaign aggregation: the differential oracle for streaming.

``repro.campaign.aggregate.streaming_campaign_table`` is the only summary
table in ``src``.  This module keeps the straightforward implementation it
replaced: group every record in memory, collect each metric's values, and
summarise them with :func:`repro.analysis.stats.summarise`.  While every
group is below the streaming sketch's capacity the two must agree row for
row, bit for bit (``tests/test_campaign_sharding.py`` drives both with
generated records).
"""

from typing import Any, Iterable, List, Mapping, Optional, Sequence

from repro.analysis.stats import summarise
from repro.analysis.tables import Table
from repro.campaign.aggregate import STATISTICS, group_records
from repro.campaign.registry import CampaignError


def metric_values(records: Iterable[Mapping[str, Any]], metric: str) -> List[float]:
    """The numeric values of one result metric across records (None skipped)."""
    values = []
    for record in records:
        value = record["result"].get(metric)
        if value is None:
            continue
        if isinstance(value, bool):
            value = 1.0 if value else 0.0
        if not isinstance(value, (int, float)):
            raise CampaignError(f"result field {metric!r} is not numeric: {value!r}")
        values.append(float(value))
    return values


def campaign_table(
    records: Sequence[Mapping[str, Any]],
    *,
    group_by: Sequence[str],
    metrics: Sequence[str],
    title: str = "campaign summary",
    statistic: str = "mean",
    notes: Optional[str] = None,
) -> Table:
    """Summary table: one row per group, one column per metric statistic."""
    if statistic not in STATISTICS:
        raise CampaignError(f"unknown statistic {statistic!r}")
    columns = list(group_by) + ["runs"] + [f"{statistic}_{metric}" for metric in metrics]
    table = Table(title, columns, notes=notes)
    for key, group in group_records(records, group_by).items():
        row: List[Any] = list(key) + [len(group)]
        for metric in metrics:
            values = metric_values(group, metric)
            if not values:
                row.append(float("nan"))
                continue
            summary = summarise(values)
            row.append(
                {
                    "mean": summary.mean,
                    "median": summary.median,
                    "min": summary.minimum,
                    "max": summary.maximum,
                    "std": summary.std,
                }[statistic]
            )
        table.add_row(*row)
    return table
