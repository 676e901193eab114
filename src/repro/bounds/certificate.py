"""Serializable dual certificates for the lower-bound oracle.

A :class:`BoundCertificate` is the self-contained proof object behind a
:class:`~repro.bounds.oracle.BoundResult`: the final dual lengths
(sparse, finite entries only), the per-net dual values ``u_i``, and the
claimed bound. Anyone holding the certificate and the workload can
re-check the claim without trusting the oracle:

* *dual feasibility*: each stored ``u_i`` must not exceed the larger of
  the max-over-sinks cheapest buffered path price at ``theta = 0``
  (re-priced independently by :class:`~repro.bounds.pricing.PathPricer`)
  and the length-rule floor on the net's pins
  (:func:`~repro.core.length_rule.length_rule_floor`);
* *arithmetic*: ``lower_bound <= sum_i u_i``, and the claimed
  ``dual_load`` equal to ``D`` recomputed from the lengths and the
  graph's capacities;
* *infeasibility*: claimed structural nets must be unreachable when
  priced again, and a capacity claim needs ``lambda_lb`` derived again
  above 1.

Certificates serialize to versioned JSON (:data:`BOUND_CERT_SCHEMA_VERSION`)
following the same conventions as :mod:`repro.io.serialize`. Version 2
dropped ``theta`` and ``unconstrained_bound`` and admits floor-raised
duals, which a version-1 verifier rejects, so version 1 is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bounds.pricing import INF, PathPricer, reachability
from repro.core.length_rule import length_rule_floor
from repro.errors import ConfigurationError

Tile = Tuple[int, int]

BOUND_CERT_SCHEMA_VERSION = 2

#: Numeric slack for the verifier's comparisons (re-pricing reproduces
#: the oracle's floats, so only representation noise needs absorbing).
VERIFY_TOLERANCE = 1e-6


@dataclass
class BoundCertificate:
    """A dual-feasible length assignment plus the bound it certifies."""

    mode: str
    epsilon: float
    iterations: int
    lower_bound: Optional[float]
    lambda_lb: float
    certified_infeasible: bool
    infeasible_reason: str
    wire_cost: float
    buffer_cost: float
    dual_load: float
    edge_lengths: Dict[int, float] = field(repr=False)
    site_lengths: Dict[int, float] = field(repr=False)
    net_duals: Dict[str, float] = field(repr=False)
    structural_nets: List[str] = field(default_factory=list)

    # -- JSON ---------------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": BOUND_CERT_SCHEMA_VERSION,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "iterations": self.iterations,
            "lower_bound": self.lower_bound,
            "lambda_lb": self.lambda_lb,
            "certified_infeasible": self.certified_infeasible,
            "infeasible_reason": self.infeasible_reason,
            "wire_cost": self.wire_cost,
            "buffer_cost": self.buffer_cost,
            "dual_load": self.dual_load,
            "edge_lengths": {
                str(eid): value for eid, value in self.edge_lengths.items()
            },
            "site_lengths": {
                str(idx): value for idx, value in self.site_lengths.items()
            },
            "net_duals": dict(self.net_duals),
            "structural_nets": list(self.structural_nets),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BoundCertificate":
        version = d.get("version")
        if version != BOUND_CERT_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported bound certificate version {version!r} "
                f"(expected {BOUND_CERT_SCHEMA_VERSION})"
            )
        return cls(
            mode=d["mode"],
            epsilon=d["epsilon"],
            iterations=d["iterations"],
            lower_bound=d["lower_bound"],
            lambda_lb=d["lambda_lb"],
            certified_infeasible=d["certified_infeasible"],
            infeasible_reason=d["infeasible_reason"],
            wire_cost=d["wire_cost"],
            buffer_cost=d["buffer_cost"],
            dual_load=d["dual_load"],
            edge_lengths={
                int(eid): value for eid, value in d["edge_lengths"].items()
            },
            site_lengths={
                int(idx): value for idx, value in d["site_lengths"].items()
            },
            net_duals=dict(d["net_duals"]),
            structural_nets=list(d.get("structural_nets", [])),
        )


def save_certificate(certificate: BoundCertificate, path: str) -> None:
    """Write the certificate as canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_certificate(path: str) -> BoundCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        return BoundCertificate.from_dict(json.load(fh))


def verify_certificate(
    certificate: BoundCertificate,
    graph,
    nets: Dict[str, Tuple[Tile, Sequence[Tile]]],
    limits: Dict[str, int],
    window_margin: int = 10,
    tolerance: float = VERIFY_TOLERANCE,
) -> Dict[str, Any]:
    """Independently re-check a certificate against its workload.

    Returns a report dict with ``ok`` (bool), the recomputed dual load,
    the worst per-net dual violation, and the re-derived bound; a
    rejected claim adds an ``error`` line. Each net's claimed dual may
    reach the larger of its ``theta = 0`` path price and its length-rule
    floor, both derived again here. Every other claim the certificate
    makes is derived again too:

    * every edge with ``W(e) > 0`` and every tile with ``B(v) > 0``
      carries a finite length (a missing one would hide a resource from
      the re-pricing and from ``D``);
    * the claimed ``dual_load`` equals the recomputed ``D``;
    * ``certified_infeasible`` agrees with ``infeasible_reason``, and
      ``structural_nets`` is non-empty exactly for ``"structural"``;
    * each net in ``structural_nets`` is priced again and must be
      unreachable (:meth:`PathPricer.price` widens its window to the
      whole grid before it reports that);
    * a ``"capacity"`` reason needs ``lambda_lb`` derived again (one
      sweep at zero base costs) above 1 and at least the claimed value.

    The check is one pricing sweep — the same cost as a single oracle
    iteration — plus one more for a capacity claim, and never trusts
    the certificate's own arithmetic. ``triage-*`` results carry no
    duals and are not re-checked: their verdict comes from the
    routability triage, not from dual lengths, so they verify vacuously.
    """
    pricer = PathPricer(graph, window_margin)
    capacities = graph.edge_capacity.tolist()
    site_caps = graph.sites_flat.tolist()
    edge_lengths = [INF] * len(capacities)
    for eid, value in certificate.edge_lengths.items():
        if not 0 <= eid < len(capacities):
            return {"ok": False, "error": f"edge id {eid} out of range"}
        edge_lengths[eid] = value
    site_lengths = [INF] * len(site_caps)
    for idx, value in certificate.site_lengths.items():
        if not 0 <= idx < len(site_caps):
            return {"ok": False, "error": f"tile {idx} out of range"}
        site_lengths[idx] = value
    if any(v < 0 for v in certificate.edge_lengths.values()) or any(
        v < 0 for v in certificate.site_lengths.values()
    ):
        return {"ok": False, "error": "negative dual length"}
    triage = certificate.infeasible_reason.startswith("triage-")
    if not triage and any(
        cap > 0 and length >= INF
        for caps, lengths in ((capacities, edge_lengths),
                              (site_caps, site_lengths))
        for cap, length in zip(caps, lengths)
    ):
        return {
            "ok": False,
            "error": "missing dual length on an edge or site with capacity",
        }

    dual_load = sum(
        cap * length
        for cap, length in zip(capacities, edge_lengths)
        if length < INF
    ) + sum(
        cap * length
        for cap, length in zip(site_caps, site_lengths)
        if length < INF
    )

    worst_violation = 0.0
    total_duals = 0.0
    checked = 0
    reach_edges = reachability(edge_lengths)
    reach_sites = reachability(site_lengths)
    for name, claimed in sorted(certificate.net_duals.items()):
        if name not in nets:
            return {"ok": False, "error": f"unknown net {name!r}"}
        source, sinks = nets[name]
        true_value = max(
            pricer.price(
                source, list(sinks), limits[name],
                reach_edges, reach_sites,
                certificate.wire_cost, certificate.buffer_cost,
            ).dual_value(),
            length_rule_floor(
                [source, *sinks], limits[name],
                certificate.wire_cost, certificate.buffer_cost,
            ),
        )
        # Dual feasibility: the claimed u_i may not exceed the true
        # bound (claiming less only weakens the bound).
        worst_violation = max(worst_violation, claimed - true_value)
        total_duals += claimed
        checked += 1

    derived_bound = total_duals
    ok = worst_violation <= tolerance
    if certificate.lower_bound is not None:
        ok = ok and certificate.lower_bound <= derived_bound + tolerance
    report: Dict[str, Any] = {
        "ok": ok,
        "nets_checked": checked,
        "worst_dual_violation": worst_violation,
        "dual_load": dual_load,
        "derived_bound": derived_bound,
        "claimed_bound": certificate.lower_bound,
    }
    error = _claim_error(
        certificate, pricer, nets, limits, edge_lengths, site_lengths,
        dual_load, tolerance,
    )
    if error:
        report["ok"] = False
        report["error"] = error
    return report


def _claim_error(
    certificate: BoundCertificate,
    pricer: PathPricer,
    nets: Dict[str, Tuple[Tile, Sequence[Tile]]],
    limits: Dict[str, int],
    edge_lengths: List[float],
    site_lengths: List[float],
    dual_load: float,
    tolerance: float,
) -> str:
    """Why the certificate's dual load or infeasibility claim fails ("" if
    it holds); see :func:`verify_certificate`."""
    slack = tolerance * max(1.0, dual_load)
    if abs(certificate.dual_load - dual_load) > slack:
        return (
            f"claimed dual_load {certificate.dual_load!r} is not the "
            f"recomputed {dual_load!r}"
        )
    reason = certificate.infeasible_reason
    if reason not in ("", "structural", "capacity") and not reason.startswith(
        "triage-"
    ):
        return f"unknown infeasible_reason {reason!r}"
    if certificate.certified_infeasible != bool(reason):
        return "certified_infeasible disagrees with infeasible_reason"
    if bool(certificate.structural_nets) != (reason == "structural"):
        return "structural_nets disagree with infeasible_reason"
    for name in certificate.structural_nets:
        if name not in nets:
            return f"unknown structural net {name!r}"
        source, sinks = nets[name]
        priced = pricer.price(
            source, list(sinks), limits[name], edge_lengths, site_lengths
        )
        if priced.reachable:
            return f"structural net {name!r} has a buffered path"
    if reason == "capacity":
        numerator = 0.0
        for name in sorted(nets):
            source, sinks = nets[name]
            value = pricer.price(
                source, list(sinks), limits[name],
                edge_lengths, site_lengths,
                wire_cost=0.0, buffer_cost=0.0,
            ).dual_value()
            if value < INF:
                numerator += value
        derived = numerator / dual_load if dual_load > 0 else 0.0
        claimed = certificate.lambda_lb
        if not (derived > 1.0 and claimed <= derived + tolerance):
            return (
                f"capacity claim lambda_lb={claimed!r} not backed: "
                f"derived lambda_lb is {derived!r}"
            )
    return ""
