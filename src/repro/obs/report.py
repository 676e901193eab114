"""Human-readable summary of a collected trace.

``render_summary(tracer)`` prints the span tree with wall-clock timings,
the metrics snapshot, and the event-stream totals — the quick look a
``--metrics`` CLI run gives after a plan finishes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.tracer import SpanRecord, Tracer

#: Buffering-engine counters pulled into their own report section (they
#: also appear in the full metrics snapshot).
BUFFERING_COUNTERS = (
    "dp_candidates",
    "dp.candidates_pruned",
    "buffer_sites_used",
    "stage3.ledger_rollbacks",
    "stage3.nets_solved",
    "stage3.nets_replayed",
)

#: Design-space-exploration counters (``repro explore``), sectioned like
#: the buffering ones.
EXPLORE_COUNTERS = (
    "explore.scenarios",
    "explore.cache_hits",
    "explore.retries",
    "explore.triage_pruned",
)

#: Workload-subsystem counters: streaming ECO traces and the routability
#: triage gate (:mod:`repro.workloads`).
WORKLOAD_COUNTERS = (
    "workload.trace_events",
    "workload.checkpoints",
    "workload.divergences",
    "triage.runs",
    "triage.skips",
)

#: The sweep executor's worker counters (:mod:`repro.explore`).
POOL_COUNTERS = (
    "pool.dispatches",
    "pool.respawns",
)

#: Planning-service scheduler counters (at every worker count).
SERVICE_COUNTERS = (
    "service.jobs_submitted",
    "service.jobs_shed",
    "service.jobs_timeout",
    "service.jobs_failed",
    "service.jobs_retried",
    "service.jobs_verified",
    "service.verify_mismatches",
    "service.nets_searched",
    "service.nets_rerouted",
    "fleet.dispatches",
    "fleet.preemptions",
    "fleet.rebuilds",
    "fleet.respawns",
)

#: Per-stage scheduler latency histograms (queue wait and service time,
#: the latter split by execution mode).
SERVICE_HISTOGRAMS = (
    "service.queue_wait_seconds",
    "service.exec_seconds",
    "service.exec_seconds.baseline",
    "service.exec_seconds.incremental",
    "service.exec_seconds.full",
)


def _span_tree_lines(tracer: Tracer) -> List[str]:
    children: Dict[int, List[SpanRecord]] = {}
    roots: List[SpanRecord] = []
    for span in tracer.spans:
        if span.parent is None:
            roots.append(span)
        else:
            children.setdefault(span.parent, []).append(span)

    lines: List[str] = []

    def emit(span: SpanRecord, indent: int) -> None:
        timing = (
            f"{span.duration_s * 1e3:9.1f} ms" if span.closed else "   (open)  "
        )
        attrs = ""
        if span.attrs:
            attrs = " " + " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        lines.append(f"{timing}  {'  ' * indent}{span.name}{attrs}")
        for child in children.get(span.index, []):
            emit(child, indent + 1)

    for root in roots:
        emit(root, 0)
    return lines


def render_summary(tracer: Tracer) -> str:
    """The full text report: spans, metrics, event totals."""
    sections: List[str] = []
    if tracer.spans:
        sections.append("== spans ==")
        sections.extend(_span_tree_lines(tracer))
    if len(tracer.metrics):
        sections.append("== metrics ==")
        sections.append(tracer.metrics.render())
    buffering = [
        (name, tracer.metrics.get(name))
        for name in BUFFERING_COUNTERS
        if tracer.metrics.get(name) is not None
    ]
    if buffering:
        sections.append("== buffering ==")
        for name, metric in buffering:
            sections.append(f"{name:24s} {metric.value}")
    explore = [
        (name, tracer.metrics.get(name))
        for name in EXPLORE_COUNTERS
        if tracer.metrics.get(name) is not None
    ]
    if explore:
        sections.append("== explore ==")
        for name, metric in explore:
            sections.append(f"{name:24s} {metric.value}")
    workload = [
        (name, tracer.metrics.get(name))
        for name in WORKLOAD_COUNTERS
        if tracer.metrics.get(name) is not None
    ]
    if workload:
        sections.append("== workload ==")
        for name, metric in workload:
            sections.append(f"{name:24s} {metric.value}")
    pool = [
        (name, tracer.metrics.get(name))
        for name in POOL_COUNTERS
        if tracer.metrics.get(name) is not None
    ]
    if pool:
        sections.append("== pool ==")
        for name, metric in pool:
            sections.append(f"{name:24s} {metric.value}")
    service = [
        (name, tracer.metrics.get(name))
        for name in SERVICE_COUNTERS
        if tracer.metrics.get(name) is not None
    ]
    service_hist = [
        (name, tracer.metrics.get(name))
        for name in SERVICE_HISTOGRAMS
        if tracer.metrics.get(name) is not None
    ]
    if service or service_hist:
        sections.append("== service ==")
        for name, metric in service:
            sections.append(f"{name:32s} {metric.value}")
        for name, metric in service_hist:
            peak = metric.maximum if metric.count else 0.0
            sections.append(
                f"{name:32s} n={metric.count} "
                f"mean={metric.mean * 1e3:.2f}ms max={peak * 1e3:.2f}ms"
            )
    counts = tracer.events.counts_by_kind()
    if counts:
        sections.append("== events ==")
        for kind in sorted(counts):
            sections.append(f"{kind:10s} {counts[kind]}")
    return "\n".join(sections) if sections else "(empty trace)"
