"""Execution statistics: breakdown components, charts and reports."""

from repro.stats.breakdown import COMPONENTS, Breakdown
from repro.stats.charts import breakdown_chart, line_plot
from repro.stats.report import format_breakdown_table, format_table

__all__ = [
    "Breakdown",
    "COMPONENTS",
    "breakdown_chart",
    "format_breakdown_table",
    "format_table",
    "line_plot",
]
