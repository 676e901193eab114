"""Sweep execution: evaluate many scenarios, in-process or on forked workers.

The unit of work is one scenario -> one :class:`EvalRecord`. Evaluation
is a full :func:`repro.service.engine.full_plan` — except when the
scenario is a pure delta of the sweep's base scenario
(:func:`repro.explore.space.delta_between`), in which case the worker
replays a shared baseline plan incrementally, which is several times
faster and provably the same plan (the service's byte-identical replay
property). The parent plans the baseline once before any evaluation;
under the ``fork`` start method every worker inherits it for free.

Every attempt is one ``call`` on a worker (:mod:`repro.parallel.pool`):
in-process at one worker, forked above it. Failure policy is graceful
degradation: a scenario that overruns its deadline stops (a forked
worker that does not is killed) and records ``timeout``; a worker that
crashes, or an evaluation that raises, records ``crashed`` — after
``retries`` extra attempts — and the sweep always continues to the next
scenario. Records land in the :class:`ResultStore` as they finish, so
killing the sweep loses at most the in-flight scenarios; a re-run
resumes from the store and re-evaluates nothing that finished
(``explore.cache_hits``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.candidates import INF
from repro.core.rabid import RabidConfig
from repro.errors import ConfigurationError, DeadlineError, ReproError
from repro.explore.space import (
    AdaptiveBisection,
    ParameterSpace,
    SamplePoint,
    delta_between,
)
from repro.explore.store import EvalRecord, ResultStore, scenario_key
from repro.obs import NULL_TRACER
from repro.parallel.pool import InlineWorker, PoolWorker
from repro.service.engine import PlanState, full_plan
from repro.service.incremental import incremental_replan
from repro.service.jobs import ScenarioSpec
from repro.technology import resolve_library
from repro.timing.elmore import net_delay

#: Baseline plans cached per process (inherited by forked workers).
_BASELINE_CACHE: Dict[str, PlanState] = {}
#: Per-net delay reports of each cached baseline, computed once: a net
#: the replay did not re-solve keeps its exact topology and buffer
#: specs, so its Elmore delay is the baseline's.
_BASELINE_DELAYS: Dict[str, Dict[str, Any]] = {}


def metrics_from_state(state: PlanState, reuse_delays=None) -> Dict[str, Any]:
    """The objective vector the frontier consumes, from a planned state.

    Identical whether the state came from a scratch plan or an
    incremental replay (the replay reproduces the full plan's routes and
    buffers byte for byte, and the signature is recorded to prove it).
    ``reuse_delays`` maps net names to precomputed
    :class:`~repro.timing.elmore.DelayReport` objects known to still be
    valid — only nets absent from it are recomputed.
    """
    graph = state.graph
    failed = state.failed_nets
    tech = state.config.technology
    library = resolve_library(state.config.buffer_library, tech)
    max_delay = 0.0
    delay_total = 0.0
    delay_count = 0
    for name, tree in state.routes.items():
        report = reuse_delays.get(name) if reuse_delays else None
        if report is None:
            report = net_delay(tree, graph, tech, library)
        max_delay = max(max_delay, report.max_delay)
        for value in report.sink_delays.values():
            delay_total += value
            delay_count += 1
    return {
        "site_budget": int(graph.sites.sum()),
        "wire_budget": int(graph.edge_capacity.sum()),
        "unassigned_nets": len(failed),
        "failed_nets": list(failed),
        "buffers": sum(len(o.specs) for o in state.outcomes.values()),
        "wirelength_tiles": sum(
            t.wirelength_tiles() for t in state.routes.values()
        ),
        "max_delay_ps": round(max_delay * 1e12, 3),
        "avg_delay_ps": round(
            (delay_total / delay_count * 1e12) if delay_count else 0.0, 3
        ),
        "cost": round(
            sum(o.cost for o in state.outcomes.values() if o.cost != INF), 6
        ),
        "signature": state.signature,
    }


def _baseline_for(base: ScenarioSpec, config: RabidConfig) -> PlanState:
    key = scenario_key(base, config)
    state = _BASELINE_CACHE.get(key)
    if state is None:
        state = _BASELINE_CACHE[key] = full_plan(base, config)
    if key not in _BASELINE_DELAYS:
        tech = state.config.technology
        library = resolve_library(state.config.buffer_library, tech)
        _BASELINE_DELAYS[key] = {
            name: net_delay(tree, state.graph, tech, library)
            for name, tree in state.routes.items()
        }
    return state


def evaluate_scenario(
    scenario: ScenarioSpec,
    config: "RabidConfig | None" = None,
    base: "ScenarioSpec | None" = None,
    abort_check: "Callable[[], bool] | None" = None,
) -> Tuple[Dict[str, Any], str]:
    """Evaluate one scenario; returns ``(metrics, via)``.

    ``via`` is ``"incremental"`` when the scenario was a recognized delta
    of ``base`` and the replay succeeded, else ``"full"``. The planner
    polls ``abort_check`` between nets and raises
    :class:`~repro.errors.DeadlineError` once it fires.

    When ``config.bound`` is set, the certified lower-bound oracle runs
    after the plan and merges its per-scenario metrics
    (``lower_bound``, ``optimality_gap``, ``certified_infeasible``; see
    :func:`repro.bounds.gap.gap_metrics`) into the result. The oracle is
    deterministic and single-threaded, so the added metrics keep the
    sweep's byte-identity across worker counts. It does not poll
    ``abort_check``.
    """
    config = config or RabidConfig()
    metrics, via = _plan_metrics(scenario, config, base, abort_check)
    if config.bound:
        from repro.bounds.gap import gap_metrics

        metrics.update(gap_metrics(scenario, config, metrics))
    return metrics, via


def _plan_metrics(
    scenario: ScenarioSpec,
    config: RabidConfig,
    base: "ScenarioSpec | None",
    abort_check,
) -> Tuple[Dict[str, Any], str]:
    """The plan-side evaluation (incremental replay or scratch plan)."""
    if base is not None and base != scenario:
        delta = delta_between(base, scenario)
        if delta is not None:
            baseline = _baseline_for(base, config)
            baseline_delays = _BASELINE_DELAYS[scenario_key(base, config)]
            backup = baseline.backup()
            try:
                stats = incremental_replan(baseline, delta, abort_check=abort_check)
                fresh = set(stats.resolved_nets)
                metrics = metrics_from_state(
                    baseline,
                    reuse_delays={
                        name: report
                        for name, report in baseline_delays.items()
                        if name not in fresh
                    },
                )
                return metrics, "incremental"
            except DeadlineError:
                raise
            except ReproError:
                pass  # fall through to the scratch plan
            finally:
                baseline.restore(backup)
    state = full_plan(scenario, config, abort_check=abort_check)
    return metrics_from_state(state), "full"


@dataclass
class SweepOptions:
    """Execution knobs for :func:`run_sweep`.

    Attributes:
        workers: 1 evaluates in-process; more fork that many worker
            processes, at most one per pending scenario. Results are
            identical at every count.
        timeout_s: per-attempt wall-clock budget. The planner stops
            itself at the next net once it has passed, and a forked
            worker that overruns it is killed and re-forked; either way
            the attempt ends ``timeout``.
        retries: extra attempts granted to crashed/timed-out scenarios.
        max_scenarios: stop the sweep after this many evaluations —
            remaining scenarios stay pending in the store for a resume.
        triage: routability triage gate mode (``"off"``, ``"certified"``,
            ``"estimate"`` — see :mod:`repro.workloads.triage`). A
            scenario the gate prunes is recorded as a ``pruned`` record
            (milliseconds) instead of being planned (seconds+), and a
            pruned record observes as *infeasible* in the bisect sampler.
            ``certified`` prunes only on proofs; ``estimate`` also prunes
            on the calibrated site-pressure heuristic.
    """

    workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = 1
    max_scenarios: Optional[int] = None
    triage: str = "off"

    def __post_init__(self) -> None:
        from repro.workloads.triage import TRIAGE_MODES

        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be > 0")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.max_scenarios is not None and self.max_scenarios < 0:
            raise ConfigurationError("max_scenarios must be >= 0")
        if self.triage not in TRIAGE_MODES:
            raise ConfigurationError(
                f"unknown triage mode {self.triage!r}; expected one of "
                f"{TRIAGE_MODES}"
            )


# --------------------------------------------------------------------- #
# The worker's handler                                                  #
# --------------------------------------------------------------------- #

#: Handler spec for sweep evaluation attempts.
_EVAL_HANDLER = "repro.explore.executor:_evaluate_task"


def _evaluate_task(payload, ctx):
    """Handler: one attempt at one ``(scenario, deadline)``.

    The worker's ``context`` is the sweep's ``(base, config)``. Replies
    ``{"status": "ok", "metrics", "via", "seconds"}``, or ``{"status":
    "timeout"}`` when the planner stopped at ``deadline`` (a
    :func:`time.monotonic` instant, or ``None``). Raises on any other
    evaluation failure (the worker turns that into ``"error"``).
    """
    base, config = ctx.context
    scenario, deadline = payload
    abort_check = None
    if deadline is not None:
        abort_check = lambda: time.monotonic() > deadline  # noqa: E731
    start = time.perf_counter()
    try:
        metrics, via = evaluate_scenario(
            scenario, config, base=base, abort_check=abort_check
        )
    except DeadlineError:
        return {"status": "timeout"}
    return {
        "status": "ok",
        "metrics": metrics,
        "via": via,
        "seconds": time.perf_counter() - start,
    }


# --------------------------------------------------------------------- #
# The sweep                                                             #
# --------------------------------------------------------------------- #


def run_sweep(
    scenarios: List[ScenarioSpec],
    base: "ScenarioSpec | None" = None,
    config: "RabidConfig | None" = None,
    store: "ResultStore | None" = None,
    options: "SweepOptions | None" = None,
    tracer=None,
) -> Dict[str, EvalRecord]:
    """Evaluate ``scenarios`` and return ``{scenario_key: record}``.

    Scenarios already finished in ``store`` are returned from it without
    re-evaluation (counted as ``explore.cache_hits``); stored ``crashed``
    and ``timeout`` records are evaluated again. Duplicates within
    ``scenarios`` are evaluated once. New records are appended to the
    store as they complete, so the sweep can be killed and resumed.
    """
    options = options or SweepOptions()
    config = config or RabidConfig()
    store = store if store is not None else ResultStore()
    tracer = tracer if tracer is not None else NULL_TRACER

    keyed: Dict[str, ScenarioSpec] = {}
    for scenario in scenarios:
        keyed.setdefault(scenario_key(scenario, config), scenario)
    pending: List[Tuple[str, ScenarioSpec]] = []
    results: Dict[str, EvalRecord] = {}
    for key, scenario in keyed.items():
        record = store.get(key)
        if record is not None and record.finished:
            results[key] = record
            if tracer.enabled:
                tracer.count("explore.cache_hits")
            continue
        if options.triage != "off":
            pruned = _triage_prune(key, scenario, options.triage, tracer)
            if pruned is not None:
                store.append(pruned)
                results[key] = pruned
                continue
        pending.append((key, scenario))
    if options.max_scenarios is not None:
        pending = pending[: options.max_scenarios]
    if pending:
        _run_pending(pending, base, config, store, options, tracer, results)
    return results


def _triage_prune(
    key: str, scenario: ScenarioSpec, mode: str, tracer
) -> Optional[EvalRecord]:
    """Run the triage gate on one scenario; a record means *prune it*.

    The verdict is deterministic (pure NumPy over the scenario's demand
    boxes), so the gate keeps the sweep's byte-identity across worker
    counts — it runs in the parent before any dispatch.
    """
    from repro.workloads.triage import triage_scenario

    verdict = triage_scenario(scenario, tracer=tracer)
    if not verdict.should_prune(mode):
        return None
    if tracer.enabled:
        tracer.count("explore.triage_pruned")
    return EvalRecord(
        key=key,
        scenario=scenario.to_dict(),
        status="pruned",
        error=(
            f"triage[{mode}] {verdict.verdict}: "
            f"site_pressure={verdict.site_pressure:.3f}, "
            f"cut_slack={verdict.cut_slack}, "
            f"reason={verdict.infeasible_reason or 'estimate'}"
        ),
        seconds=verdict.seconds,
        via="triage",
    )


def _run_pending(
    pending, base, config, store, options, tracer, results
) -> None:
    """Evaluate ``pending``, one thread per worker.

    At one worker an :class:`InlineWorker` evaluates in-process. Above
    one, up to ``options.workers`` :class:`PoolWorker` processes fork
    after the shared baseline is planned, so every worker inherits it
    instead of planning its own copy. The caller's thread drives the
    first worker and one thread each the rest: it pulls the next
    scenario and blocks in the worker's ``call``. Records reach the
    store under one lock, in completion order.
    """
    if base is not None and any(
        delta_between(base, scenario) is not None for _, scenario in pending
    ):
        _baseline_for(base, config)
    context = (base, config)
    if options.workers == 1:
        workers = [InlineWorker(context)]
    else:
        workers = [
            PoolWorker(context) for _ in range(min(options.workers, len(pending)))
        ]
    lock = threading.Lock()
    todo = iter(pending)
    stop = threading.Event()
    failures: List[Exception] = []

    def drain(worker) -> None:
        while not stop.is_set():
            with lock:
                task = next(todo, None)
            if task is None:
                return
            record = _evaluate(worker, *task, options, tracer, lock)
            with lock:
                store.append(record)
                results[record.key] = record
                if tracer.enabled:
                    tracer.count("explore.scenarios")

    def guarded(worker) -> None:
        try:
            drain(worker)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)
            stop.set()

    threads = [threading.Thread(target=guarded, args=(w,)) for w in workers[1:]]
    try:
        for thread in threads:
            thread.start()
        drain(workers[0])
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        for worker in workers:
            worker.shutdown()
    if failures:
        raise failures[0]


def _evaluate(worker, key, scenario, options, tracer, lock) -> EvalRecord:
    """One scenario's attempts on ``worker``; the record of the last.

    Every failure is retried up to ``options.retries`` times: a handler
    error and a crashed or timed-out worker alike.
    """
    for attempt in range(1, options.retries + 2):
        deadline = None
        if options.timeout_s is not None:
            deadline = time.monotonic() + options.timeout_s
        start = time.perf_counter()
        status, value = worker.call(_EVAL_HANDLER, (scenario, deadline), deadline)
        with lock:
            if tracer.enabled:
                tracer.count("pool.dispatches")
                if status in ("crashed", "timeout"):  # the worker was re-forked
                    tracer.count("pool.respawns")
        if status == "ok":
            status = value["status"]
        if status == "ok":
            return EvalRecord(
                key=key,
                scenario=scenario.to_dict(),
                status="ok",
                metrics=value["metrics"],
                seconds=value["seconds"],
                attempts=attempt,
                via=value["via"],
            )
        if attempt > options.retries:
            break
        with lock:
            if tracer.enabled:
                tracer.count("explore.retries")
    if status == "timeout":
        error = f"scenario exceeded {options.timeout_s}s"
    else:  # a crashed worker, or the evaluation raised
        status, error = "crashed", value
    return EvalRecord(
        key=key,
        scenario=scenario.to_dict(),
        status=status,
        error=error,
        seconds=time.perf_counter() - start,
        attempts=attempt,
    )


# --------------------------------------------------------------------- #
# High-level drivers                                                    #
# --------------------------------------------------------------------- #


@dataclass
class ExploreResult:
    """A finished exploration: sampled points and their records."""

    space: ParameterSpace
    points: List[SamplePoint]
    #: scenario key per point (aligned with ``points``).
    keys: List[str]
    records: Dict[str, EvalRecord]
    #: cheapest-feasible boundaries per combination (bisect sampler only).
    boundaries: Optional[Dict[Tuple, Optional[int]]] = None
    seconds: float = 0.0

    def record_for(self, point: SamplePoint) -> Optional[EvalRecord]:
        return self.records.get(self.keys[self.points.index(point)])

    def rows(self) -> List[Dict[str, Any]]:
        """One flat dict per point: assignment + record summary."""
        out = []
        for point, key in zip(self.points, self.keys):
            record = self.records.get(key)
            row: Dict[str, Any] = dict(self.space.assignment(point))
            row["key"] = key
            if record is None:
                row["status"] = "pending"
            else:
                row["status"] = record.status
                row["via"] = record.via
                row["seconds"] = record.seconds
                if record.metrics:
                    row.update(
                        {
                            k: v
                            for k, v in record.metrics.items()
                            if k != "failed_nets"
                        }
                    )
            out.append(row)
        return out


def is_feasible(record: "EvalRecord | None") -> bool:
    """A scenario is feasible when it planned with zero unassigned nets."""
    return (
        record is not None
        and record.status == "ok"
        and record.metrics["unassigned_nets"] == 0
    )


def _seed_bisection_from_store(
    search: AdaptiveBisection,
    space: ParameterSpace,
    config: RabidConfig,
    store: ResultStore,
) -> list:
    """Narrow the bisection brackets with verdicts already in the store.

    Probes every (combination, axis value) point of the space against the
    store and feeds finished records to :meth:`AdaptiveBisection.seed`.
    When the store already holds a feasible point (the frontier's
    ``cheapest_feasible``), its value becomes the bracket's ``hi`` and
    the search bisects from it outward — a budget-capped resume can no
    longer burn its whole budget on infeasible endpoint probes and report
    zero feasible scenarios despite one being on record.

    Returns the seeded points (already observed; the search will not
    re-propose them).
    """
    axis_dim = space.dimensions[search.axis]
    seeds = []
    for combo in sorted(search.brackets):
        for x in axis_dim.values:
            values = search._values_for(combo, x)
            record = store.get(
                scenario_key(space.scenario_for(values), config)
            )
            if record is not None and record.finished:
                seeds.append((values, is_feasible(record)))
    search.seed(seeds)
    return [space.point(values) for values, _ in seeds]


def explore_space(
    space: ParameterSpace,
    sampler: str = "grid",
    samples: int = 32,
    seed: int = 0,
    bisect_dim: "str | None" = None,
    config: "RabidConfig | None" = None,
    store: "ResultStore | None" = None,
    options: "SweepOptions | None" = None,
    tracer=None,
) -> ExploreResult:
    """Sample a parameter space and evaluate every sampled scenario.

    ``sampler`` is ``"grid"``, ``"random"`` (Latin hypercube, needs
    ``samples``/``seed``), or ``"bisect"`` (adaptive boundary refinement,
    needs ``bisect_dim``). The bisect sampler runs propose/evaluate
    rounds until every bracket converges, so its point list grows with
    the search; grid and random evaluate one fixed batch.
    """
    options = options or SweepOptions()
    store = store if store is not None else ResultStore()
    start = time.perf_counter()
    boundaries = None
    if sampler == "grid":
        points = space.grid()
    elif sampler == "random":
        points = space.sample_random(samples, seed=seed)
    elif sampler == "bisect":
        if not bisect_dim:
            raise ConfigurationError("the bisect sampler needs bisect_dim")
        search = AdaptiveBisection(space, bisect_dim)
        points = _seed_bisection_from_store(
            search, space, config or RabidConfig(), store
        )
        if tracer is not None and tracer.enabled and points:
            tracer.count("explore.bisect_seeded", len(points))
        budget = options.max_scenarios
        while True:
            batch = search.propose()
            if not batch:
                break
            if budget is not None:
                batch = batch[:budget]
                if not batch:
                    break
            records = run_sweep(
                [p.scenario for p in batch],
                base=space.base,
                config=config,
                store=store,
                options=options,
                tracer=tracer,
            )
            points.extend(batch)
            evaluated = 0
            for point in batch:
                record = records.get(scenario_key(point.scenario, config or RabidConfig()))
                if record is None:
                    continue
                evaluated += 1
                if record.status == "ok":
                    search.observe(point.values, is_feasible(record))
                else:
                    # Treat a crashed/timed-out budget probe as infeasible
                    # so the bracket still converges.
                    search.observe(point.values, False)
            if budget is not None:
                budget = max(0, budget - evaluated)
        boundaries = search.boundaries()
        keys = [
            scenario_key(p.scenario, config or RabidConfig()) for p in points
        ]
        return ExploreResult(
            space=space,
            points=points,
            keys=keys,
            records={k: store.get(k) for k in keys if store.get(k) is not None},
            boundaries=boundaries,
            seconds=time.perf_counter() - start,
        )
    else:
        raise ConfigurationError(
            f"unknown sampler {sampler!r}; expected grid, random, or bisect"
        )
    records = run_sweep(
        [p.scenario for p in points],
        base=space.base,
        config=config,
        store=store,
        options=options,
        tracer=tracer,
    )
    keys = [scenario_key(p.scenario, config or RabidConfig()) for p in points]
    return ExploreResult(
        space=space,
        points=points,
        keys=keys,
        records=records,
        boundaries=boundaries,
        seconds=time.perf_counter() - start,
    )
