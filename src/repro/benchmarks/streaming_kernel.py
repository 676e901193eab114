"""The streaming-ECO benchmark feeding ``BENCH_streaming.json``.

Each run replays a seeded ECO trace against one registered workload
tier through the incremental planning service and records what the
workload subsystem measures: steady-state incremental speedup versus
per-event full re-planning, per-event latency percentiles, the
divergence count at the full-replan checkpoints, and the trace's
signature digest (the determinism fingerprint — the same tier, trace
seed, and worker count must reproduce it byte for byte).

The acceptance workload is the ``ladder-64`` tier (64x64, 2k nets);
``--fast`` runs the ``smoke-16`` tier for CI. The recorded
``steady_speedup`` is gated as a higher-is-better metric and
``event_p95`` as a lower-is-better one by
:mod:`repro.benchmarks.perf_gate`.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict, Optional

from repro.benchmarks.emit import append_trajectory_entry
from repro.workloads import TraceOptions, run_workload_trace

#: Default location of the trajectory file, relative to the repo root.
DEFAULT_TRAJECTORY = os.path.join("benchmarks", "BENCH_streaming.json")

#: Acceptance tier and trace shape (the ROADMAP's streaming target).
DEFAULT_WORKLOAD = "ladder-64"
DEFAULT_EVENTS = 40
DEFAULT_CHECKPOINT = 10


def run_streaming_kernel(
    workload: str = DEFAULT_WORKLOAD,
    events: int = DEFAULT_EVENTS,
    seed: int = 0,
    checkpoint_every: int = DEFAULT_CHECKPOINT,
    workers: int = 1,
) -> Dict[str, Any]:
    """Replay one tier's trace and reduce the report to trajectory values.

    Returns ``{"params": ..., "values": ...}`` ready for
    :func:`append_streaming_entry`. The values carry the full quality
    contract: a nonzero ``divergences`` means the incremental engine
    drifted from scratch re-planning and the kernel's exit code flags
    it.
    """
    options = TraceOptions(
        events=events,
        seed=seed,
        checkpoint_every=checkpoint_every,
        workers=workers,
    )
    report = run_workload_trace(workload, options)
    pct = report.latency_percentiles()
    speedup = report.steady_speedup()
    return {
        "params": {
            "workload": workload,
            "events": events,
            "seed": seed,
            "checkpoint_every": checkpoint_every,
        },
        "values": {
            "steady_speedup": (
                round(speedup, 4) if speedup is not None else None
            ),
            "event_p50": round(pct["event_p50"], 6),
            "event_p95": round(pct["event_p95"], 6),
            "event_p99": round(pct["event_p99"], 6),
            "divergences": report.divergences,
            "checkpoints": len(report.checkpoints),
            "signature_digest": report.signature_digest(),
            "baseline_seconds_full": round(
                float(report.baseline.get("seconds_full") or 0.0), 4
            ),
            "baseline_buffers": report.baseline.get("buffers"),
            "wall_seconds": round(report.wall_seconds, 4),
        },
    }


def append_streaming_entry(
    path: str,
    label: str,
    measurement: Dict[str, Any],
    workers: int = 1,
    extra: Optional[dict] = None,
) -> dict:
    """Record one streaming measurement; same (params, workers) replaces."""
    return append_trajectory_entry(
        path,
        label,
        measurement["params"],
        measurement["values"],
        workers=workers,
        extra=extra,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.benchmarks.streaming_kernel",
        description="Replay a streaming ECO trace against a workload tier "
        "and append the measurement to the BENCH_streaming.json "
        "trajectory.",
    )
    parser.add_argument("--label", required=True, help="entry label")
    parser.add_argument("--out", default=DEFAULT_TRAJECTORY)
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke-16 tier with a short trace for CI",
    )
    args = parser.parse_args(argv)
    workload = args.workload
    events = args.events
    checkpoint_every = args.checkpoint_every
    if args.fast:
        workload, events, checkpoint_every = "smoke-16", 20, 10
    measurement = run_streaming_kernel(
        workload=workload,
        events=events,
        seed=args.seed,
        checkpoint_every=checkpoint_every,
        workers=args.workers,
    )
    entry = append_streaming_entry(
        args.out, args.label, measurement, workers=args.workers
    )
    print(json.dumps(entry, indent=2))
    values = measurement["values"]
    print(
        f"{workload}: steady_speedup={values['steady_speedup']}x "
        f"p50={values['event_p50']:.3f}s p95={values['event_p95']:.3f}s "
        f"divergences={values['divergences']}/{values['checkpoints']}"
    )
    return 0 if values["divergences"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
