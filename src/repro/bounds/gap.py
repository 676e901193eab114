"""Per-scenario optimality-gap metrics for the explore subsystem.

The sweep executor calls :func:`gap_metrics` once per evaluated
scenario (when ``RabidConfig.bound`` is set) and merges the returned
keys into the scenario's metrics dict, so frontier reports and
``repro explore --metrics`` rows gain:

* ``lower_bound`` — the certified bound on ``wirelength_tiles +
  buffers`` (the linear surrogate both sides share);
* ``optimality_gap`` — ``(plan - bound) / bound``, i.e. "the plan is
  within X of optimal"; ``None`` when no bound exists. The plan is the
  one the sweep evaluated: :func:`repro.service.engine.full_plan`, a
  maze route plus the Stage-3 walk with no Stage 2 or 4;
* ``certified_infeasible`` + ``infeasible_reason`` — the dual proof
  that no fractional (hence no integral) plan fits the capacities, the
  triage signal for all-infeasible sweeps;
* ``bound_lambda`` / ``bound_iterations`` — oracle telemetry.

The oracle is single-threaded and deterministic, so these metrics are
byte-identical no matter how many sweep workers evaluated the scenario.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.bounds.oracle import BoundOptions, bound_scenario
from repro.obs import NULL_TRACER


def plan_surrogate_cost(metrics: Dict[str, Any]) -> float:
    """The plan-side value the bound is compared against."""
    return float(metrics["wirelength_tiles"]) + float(metrics["buffers"])


def gap_metrics(
    scenario,
    config,
    plan_metrics: Dict[str, Any],
    tracer=None,
) -> Dict[str, Any]:
    """Bound one scenario and derive its gap against the planned metrics."""
    tracer = tracer if tracer is not None else NULL_TRACER
    options = BoundOptions(
        mode=config.bound,
        epsilon=config.bound_epsilon,
        window_margin=max(config.window_margin, 6),
    )
    result = bound_scenario(scenario, options, tracer=tracer)
    bound = result.lower_bound
    gap: Optional[float] = None
    if bound is not None:
        plan = plan_surrogate_cost(plan_metrics)
        gap = round((plan - bound) / max(bound, 1.0), 6)
        if tracer.enabled:
            tracer.observe("bound.gap", gap)
    return {
        "lower_bound": None if bound is None else round(bound, 6),
        "optimality_gap": gap,
        "certified_infeasible": result.certified_infeasible,
        "infeasible_reason": result.infeasible_reason,
        "bound_lambda": round(result.lambda_lb, 6),
        "bound_iterations": result.iterations,
    }
