"""Pareto frontier and sensitivity analysis over sweep results.

The exploration question is "which resource budgets are worth
considering": a scenario is on the frontier when no other evaluated
scenario is at least as good on every objective and strictly better on
one. All objectives are minimized — feasibility is the
``unassigned_nets`` axis, so a cheap-but-infeasible scenario and an
expensive-but-clean one can both survive; the report makes the trade
explicit rather than hiding infeasible points.

Reports are canonical: entries are sorted by objective vector, then by
the scenario's canonical JSON, then by key, and only deterministic fields
(metrics, keys, assignments) appear — no timings, attempt counts, or
timestamps. For a fixed seed the rendered report is therefore
byte-identical no matter how many workers evaluated the sweep, which the
test suite asserts.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.explore.store import EvalRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.explore.executor import ExploreResult

#: Minimized objective axes, in report order. ``unassigned_nets`` first:
#: it is the feasibility axis the paper's budget question hinges on.
OBJECTIVES = (
    "unassigned_nets",
    "site_budget",
    "wire_budget",
    "wirelength_tiles",
    "max_delay_ps",
)

FRONTIER_SCHEMA_VERSION = 1


def objective_vector(record: EvalRecord) -> Tuple[float, ...]:
    """The record's minimized objective tuple (requires ``status == ok``)."""
    return tuple(record.metrics[name] for name in OBJECTIVES)


def _scenario_order(record: EvalRecord) -> str:
    """The record's canonical scenario JSON, which breaks ties between
    equal figures. ``record.key`` comes last: it also hashes the planner
    config, so a change to the config's fields alone would re-pick a
    tied scenario."""
    return json.dumps(record.scenario, sort_keys=True)


def dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """True when ``a`` is no worse on every axis and better on one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_frontier(
    records: "Iterable[EvalRecord] | Dict[str, EvalRecord]",
) -> List[EvalRecord]:
    """Non-dominated ``ok`` records, canonically ordered.

    Duplicate objective vectors all survive (they are genuinely tied);
    order is by objective vector, then :func:`_scenario_order`, then key,
    so the result is deterministic regardless of input order.
    """
    if isinstance(records, dict):
        records = records.values()
    ok = sorted(
        (r for r in records if r.status == "ok"),
        key=lambda r: (objective_vector(r), _scenario_order(r), r.key),
    )
    vectors = [objective_vector(r) for r in ok]
    frontier = []
    for i, candidate in enumerate(vectors):
        if not any(
            dominates(other, candidate)
            for j, other in enumerate(vectors)
            if j != i
        ):
            frontier.append(ok[i])
    return frontier


def frontier_report(
    records: "Iterable[EvalRecord] | Dict[str, EvalRecord]",
    assignments: "Dict[str, Dict[str, Any]] | None" = None,
) -> Dict[str, Any]:
    """Canonical JSON-able summary of a sweep's outcome.

    ``assignments`` (scenario key -> parameter assignment, as produced by
    :meth:`ParameterSpace.assignment`) annotates frontier entries with
    the swept parameter values that produced them.
    """
    if isinstance(records, dict):
        records = list(records.values())
    else:
        records = list(records)
    by_status: Dict[str, int] = {
        "ok": 0, "crashed": 0, "timeout": 0, "pruned": 0,
    }
    for record in records:
        by_status[record.status] = by_status.get(record.status, 0) + 1
    frontier = pareto_frontier(records)
    feasible = [
        r for r in records
        if r.status == "ok" and r.metrics["unassigned_nets"] == 0
    ]
    cheapest = min(
        feasible,
        key=lambda r: (
            r.metrics["site_budget"],
            r.metrics["wire_budget"],
            _scenario_order(r),
            r.key,
        ),
        default=None,
    )
    entries = []
    for record in frontier:
        entry: Dict[str, Any] = {"key": record.key}
        for name in OBJECTIVES:
            entry[name] = record.metrics[name]
        entry["buffers"] = record.metrics.get("buffers")
        entry["cost"] = record.metrics.get("cost")
        entry["feasible"] = record.metrics["unassigned_nets"] == 0
        if "optimality_gap" in record.metrics:
            # Bound-oracle sweeps report how far each point is from the
            # certified optimum, not just whether it planned.
            entry["lower_bound"] = record.metrics.get("lower_bound")
            entry["optimality_gap"] = record.metrics.get("optimality_gap")
            entry["certified_infeasible"] = record.metrics.get(
                "certified_infeasible", False
            )
        if assignments and record.key in assignments:
            entry["assignment"] = dict(
                sorted(assignments[record.key].items())
            )
        entries.append(entry)
    return {
        "version": FRONTIER_SCHEMA_VERSION,
        "objectives": list(OBJECTIVES),
        "evaluated": len(records),
        "by_status": by_status,
        "feasible": len(feasible),
        "frontier_size": len(entries),
        "frontier": entries,
        "no_feasible": (
            None if feasible else _no_feasible_record(records, assignments)
        ),
        "cheapest_feasible": (
            {
                "key": cheapest.key,
                "site_budget": cheapest.metrics["site_budget"],
                "wire_budget": cheapest.metrics["wire_budget"],
                **(
                    {"assignment": dict(
                        sorted(assignments[cheapest.key].items())
                    )}
                    if assignments and cheapest.key in assignments
                    else {}
                ),
            }
            if cheapest is not None
            else None
        ),
    }


def _gap_sort_value(record: EvalRecord) -> float:
    gap = record.metrics.get("optimality_gap")
    return gap if isinstance(gap, (int, float)) else float("inf")


def _no_feasible_record(
    records: List[EvalRecord],
    assignments: "Dict[str, Dict[str, Any]] | None" = None,
) -> Dict[str, Any]:
    """Explicit verdict for an all-infeasible sweep.

    Instead of a silently empty ``cheapest_feasible``, the report says
    so outright and points at the *nearest* evaluated scenario to the
    feasibility boundary: fewest unassigned nets, then (when the bound
    oracle ran) smallest optimality gap, then :func:`_scenario_order`.
    ``certified_infeasible`` counts scenarios the dual certificate
    *proved* unroutable — those are not "the heuristic gave up", they
    are impossible at any effort.
    """
    ok = [r for r in records if r.status == "ok"]
    certified = sum(
        1 for r in ok if r.metrics.get("certified_infeasible")
    )
    nearest = min(
        ok,
        key=lambda r: (
            r.metrics["unassigned_nets"],
            _gap_sort_value(r),
            _scenario_order(r),
            r.key,
        ),
        default=None,
    )
    nearest_entry: "Dict[str, Any] | None" = None
    if nearest is not None:
        nearest_entry = {
            "key": nearest.key,
            "unassigned_nets": nearest.metrics["unassigned_nets"],
            "site_budget": nearest.metrics["site_budget"],
            "wire_budget": nearest.metrics["wire_budget"],
        }
        if "optimality_gap" in nearest.metrics:
            nearest_entry["optimality_gap"] = nearest.metrics[
                "optimality_gap"
            ]
            nearest_entry["certified_infeasible"] = nearest.metrics.get(
                "certified_infeasible", False
            )
        if assignments and nearest.key in assignments:
            nearest_entry["assignment"] = dict(
                sorted(assignments[nearest.key].items())
            )
    return {
        "message": "no feasible scenario",
        "evaluated_ok": len(ok),
        "certified_infeasible": certified,
        "nearest": nearest_entry,
    }


def report_bytes(report: Dict[str, Any]) -> bytes:
    """The report's canonical serialized form (the byte-identity contract)."""
    return (
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")


# --------------------------------------------------------------------- #
# Sensitivity                                                           #
# --------------------------------------------------------------------- #


def sensitivity_report(result: "ExploreResult") -> Dict[str, Any]:
    """One-at-a-time sensitivity of each objective to each dimension.

    For every swept dimension, the analysis holds the *other* dimensions
    at their most frequently sampled combination (for a grid sweep that
    is simply the largest slice), orders the remaining points by the
    dimension's value, and reports each objective's response over that
    slice: the sampled values, the objective series, and the total range
    (max - min). Dimensions whose slice has fewer than two evaluated
    points report ``insufficient: true``.
    """
    dims = result.space.dimensions
    rows: List[Tuple[Tuple[Any, ...], EvalRecord]] = []
    for point, key in zip(result.points, result.keys):
        record = result.records.get(key)
        if record is not None and record.status == "ok":
            rows.append((point.values, record))
    out: Dict[str, Any] = {}
    for axis, dim in enumerate(dims):
        others: Dict[Tuple[Any, ...], List[Tuple[Any, EvalRecord]]] = {}
        for values, record in rows:
            combo = tuple(v for i, v in enumerate(values) if i != axis)
            others.setdefault(combo, []).append((values[axis], record))
        if not others:
            out[dim.label] = {"insufficient": True}
            continue
        combo = max(
            others, key=lambda c: (len(others[c]), tuple(map(repr, c)))
        )
        slice_rows: Dict[Any, EvalRecord] = {}
        for value, record in others[combo]:
            slice_rows.setdefault(value, record)
        if len(slice_rows) < 2:
            out[dim.label] = {"insufficient": True}
            continue
        ordered = sorted(slice_rows)
        series = {
            name: [slice_rows[v].metrics[name] for v in ordered]
            for name in OBJECTIVES
        }
        out[dim.label] = {
            "values": list(ordered),
            "held": {
                other.label: combo[i]
                for i, other in enumerate(
                    d for j, d in enumerate(dims) if j != axis
                )
            },
            "series": series,
            "range": {
                name: round(max(vals) - min(vals), 6)
                for name, vals in series.items()
            },
        }
    return out


# --------------------------------------------------------------------- #
# Rendering                                                             #
# --------------------------------------------------------------------- #


def render_frontier_table(
    report: Dict[str, Any], limit: "int | None" = None
) -> str:
    """Fixed-width text table of the frontier (CLI output)."""
    headers = ["feasible", *OBJECTIVES, "buffers", "assignment"]
    rows = []
    entries = report["frontier"][:limit] if limit else report["frontier"]
    for entry in entries:
        assignment = entry.get("assignment")
        rows.append(
            [
                "yes" if entry["feasible"] else "NO",
                *(str(entry[name]) for name in OBJECTIVES),
                str(entry.get("buffers", "")),
                (
                    " ".join(f"{k}={v}" for k, v in assignment.items())
                    if assignment
                    else "-"
                ),
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    summary = (
        f"{report['evaluated']} evaluated "
        f"({report['by_status'].get('ok', 0)} ok, "
        f"{report['by_status'].get('crashed', 0)} crashed, "
        f"{report['by_status'].get('timeout', 0)} timeout, "
        f"{report['by_status'].get('pruned', 0)} pruned), "
        f"{report['feasible']} feasible, "
        f"frontier {report['frontier_size']}"
    )
    cheapest = report.get("cheapest_feasible")
    if cheapest:
        budget = (
            f"cheapest feasible: sites={cheapest['site_budget']} "
            f"wire={cheapest['wire_budget']}"
        )
        if "assignment" in cheapest:
            budget += " (" + " ".join(
                f"{k}={v}" for k, v in cheapest["assignment"].items()
            ) + ")"
        summary += "\n" + budget
    no_feasible = report.get("no_feasible")
    if no_feasible:
        line = (
            f"no feasible scenario "
            f"({no_feasible['certified_infeasible']} certified infeasible)"
        )
        nearest = no_feasible.get("nearest")
        if nearest:
            line += (
                f"; nearest: unassigned={nearest['unassigned_nets']} "
                f"sites={nearest['site_budget']} "
                f"wire={nearest['wire_budget']}"
            )
            if nearest.get("optimality_gap") is not None:
                line += f" gap={nearest['optimality_gap']}"
            if "assignment" in nearest:
                line += " (" + " ".join(
                    f"{k}={v}" for k, v in nearest["assignment"].items()
                ) + ")"
        summary += "\n" + line
    return "\n".join(lines) + "\n\n" + summary


def render_sensitivity(report: Dict[str, Any]) -> str:
    """Text rendering of :func:`sensitivity_report` (CLI output)."""
    lines = []
    for label, info in report.items():
        if info.get("insufficient"):
            lines.append(f"{label}: insufficient samples")
            continue
        held = info.get("held") or {}
        held_txt = (
            " (holding " + " ".join(f"{k}={v}" for k, v in sorted(held.items())) + ")"
            if held
            else ""
        )
        lines.append(f"{label}: values {info['values']}{held_txt}")
        for name in OBJECTIVES:
            series = info["series"][name]
            lines.append(
                f"  {name}: {series}  (range {info['range'][name]})"
            )
    return "\n".join(lines)
