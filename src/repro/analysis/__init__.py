"""Analysis and reporting utilities: ASCII maps, per-net reports."""

from repro.analysis.maps import (
    buffer_usage_map,
    site_distribution_map,
    wire_congestion_map,
)
from repro.analysis.report import DesignReport, NetReport, design_report
from repro.analysis.svg import (
    SvgCanvas,
    floorplan_svg,
    scatter_svg,
)
from repro.analysis.failures import (
    FailureCause,
    FailureDiagnosis,
    diagnose_failure,
    diagnose_failures,
    failure_summary,
)

__all__ = [
    "FailureCause",
    "FailureDiagnosis",
    "diagnose_failure",
    "diagnose_failures",
    "failure_summary",
    "SvgCanvas",
    "floorplan_svg",
    "scatter_svg",
    "wire_congestion_map",
    "buffer_usage_map",
    "site_distribution_map",
    "DesignReport",
    "NetReport",
    "design_report",
]
