"""Certified lower bounds for buffered global routing.

RABID is fast but heuristic; this package answers "how far from
optimal?" with a buffered multicommodity-flow oracle
(:mod:`repro.bounds.oracle`): per net, the larger of its cheapest
buffered path, priced by a resource-constrained Dijkstra
(:mod:`repro.bounds.pricing`), and its length-rule floor; Garg-Konemann
length updates for the capacity certificate; a serializable dual
certificate anyone can re-verify (:mod:`repro.bounds.certificate`),
and per-scenario ``optimality_gap`` metrics for the explore subsystem
(:mod:`repro.bounds.gap`). The bound certifies plans; it makes none.

Entry points: ``repro bound`` on the CLI, ``RabidConfig(bound="gk")``
for sweeps, :func:`bound_scenario` / :func:`compute_bound` in code. See
``docs/ALGORITHMS.md`` for the math.
"""

from repro.bounds.certificate import (
    BOUND_CERT_SCHEMA_VERSION,
    BoundCertificate,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from repro.bounds.gap import gap_metrics, plan_surrogate_cost
from repro.bounds.oracle import (
    BOUND_MODES,
    BoundOptions,
    BoundResult,
    bound_scenario,
    compute_bound,
)
from repro.bounds.pricing import NetPricing, PathPricer, PricedPath

__all__ = [
    "BOUND_CERT_SCHEMA_VERSION",
    "BOUND_MODES",
    "BoundCertificate",
    "BoundOptions",
    "BoundResult",
    "NetPricing",
    "PathPricer",
    "PricedPath",
    "bound_scenario",
    "compute_bound",
    "gap_metrics",
    "load_certificate",
    "plan_surrogate_cost",
    "save_certificate",
    "verify_certificate",
]
