"""Design-space exploration: budget sweeps over planning scenarios.

The subsystem answers the paper's companion question to "does this
budget route and buffer": *what is the cheapest budget that still
does?* A :class:`ParameterSpace` enumerates scenario variants (buffer
site density, wire capacity, length limits, macro placements, net
count), :func:`run_sweep` / :func:`explore_space` evaluate them — in
process or on forked workers, reusing the incremental planner when a
variant is a delta of the sweep baseline — into a resumable
content-addressed :class:`ResultStore`, and :mod:`repro.explore.frontier`
reduces the results to a Pareto frontier plus per-dimension sensitivity.

See ``docs/EXPLORE.md`` for the full tour, or ``repro explore`` for the
command-line front end.
"""

from repro.explore.executor import (
    ExploreResult,
    SweepOptions,
    evaluate_scenario,
    explore_space,
    is_feasible,
    metrics_from_state,
    run_sweep,
)
from repro.explore.frontier import (
    OBJECTIVES,
    frontier_report,
    pareto_frontier,
    render_frontier_table,
    render_sensitivity,
    report_bytes,
    sensitivity_report,
)
from repro.explore.space import (
    AdaptiveBisection,
    Dimension,
    ParameterSpace,
    SamplePoint,
    delta_between,
)
from repro.explore.store import (
    EvalRecord,
    ResultStore,
    scenario_key,
)

__all__ = [
    "AdaptiveBisection",
    "Dimension",
    "EvalRecord",
    "ExploreResult",
    "OBJECTIVES",
    "ParameterSpace",
    "ResultStore",
    "SamplePoint",
    "SweepOptions",
    "delta_between",
    "evaluate_scenario",
    "explore_space",
    "frontier_report",
    "is_feasible",
    "metrics_from_state",
    "pareto_frontier",
    "render_frontier_table",
    "render_sensitivity",
    "report_bytes",
    "run_sweep",
    "scenario_key",
    "sensitivity_report",
]
