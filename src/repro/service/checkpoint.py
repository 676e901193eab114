"""Checkpointing: persist service baselines, restore them warm.

A checkpoint is the :mod:`repro.io.serialize` plan payload (graph state,
routes with buffer annotations, full config) plus the service-level
context the plan schema doesn't carry: the scenario that produced the
plan, each net's replayable :class:`NetOutcome`, and the buffering
signature. Loading rebuilds a :class:`PlanState` and *recomputes* the
signature from the restored plan — a mismatch against the stored one
means the payload is corrupt or from an incompatible engine, and raises
:class:`repro.errors.CheckpointError` rather than resuming from a wrong
plan.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.core.assignment import NetOutcome, buffering_signature
from repro.core.candidates import INF
from repro.errors import CheckpointError
from repro.io.serialize import PLAN_SCHEMA_VERSION, plan_from_dict, plan_to_dict
from repro.service.engine import PlanState
from repro.service.jobs import ScenarioSpec

CHECKPOINT_SCHEMA = 1


def checkpoint_to_dict(baseline_id: str, state: PlanState) -> Dict[str, Any]:
    return {
        "version": CHECKPOINT_SCHEMA,
        "plan_schema": PLAN_SCHEMA_VERSION,
        "baseline_id": baseline_id,
        "scenario": state.scenario.to_dict(),
        "plan": plan_to_dict(state.graph, state.routes, state.config),
        "outcomes": {
            name: {
                "meets": o.meets,
                "dp_ok": o.dp_ok,
                "cost": None if o.cost == INF else o.cost,
            }
            for name, o in state.outcomes.items()
        },
        "signature": state.signature,
        "seconds_full": state.seconds_full,
    }


def checkpoint_from_dict(d: Dict[str, Any]) -> "tuple[str, PlanState]":
    if d.get("version") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {d.get('version')!r}"
        )
    try:
        graph, routes, config = plan_from_dict(d["plan"])
        scenario = ScenarioSpec.from_dict(d["scenario"])
        outcomes = {}
        for name, od in d["outcomes"].items():
            if name not in routes:
                raise CheckpointError(f"outcome for unknown net {name!r}")
            outcomes[name] = NetOutcome(
                # The specs live on the serialized trees; re-read them so
                # replay uses exactly what the plan payload restored.
                specs=tuple(routes[name].buffer_specs()),
                meets=od["meets"],
                dp_ok=od["dp_ok"],
                cost=INF if od["cost"] is None else od["cost"],
            )
        if set(outcomes) != set(routes):
            raise CheckpointError("outcomes do not cover every routed net")
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    state = PlanState(
        scenario=scenario,
        config=config,
        graph=graph,
        routes=routes,
        outcomes=outcomes,
        signature=d["signature"],
        seconds_full=d.get("seconds_full", 0.0),
    )
    failed = [n for n in state.order if not outcomes[n].meets]
    recomputed = buffering_signature(routes, graph, failed)
    if recomputed != d["signature"]:
        raise CheckpointError(
            "checkpoint signature mismatch: stored "
            f"{d['signature'][:12]}..., recomputed {recomputed[:12]}..."
        )
    return d["baseline_id"], state


def save_checkpoint(path: "str | Path", baseline_id: str, state: PlanState) -> None:
    Path(path).write_text(json.dumps(checkpoint_to_dict(baseline_id, state)))


def load_checkpoint(path: "str | Path") -> "tuple[str, PlanState]":
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return checkpoint_from_dict(payload)


def load_service_checkpoints(directory: "str | Path", service) -> "list[str]":
    """Install every checkpoint under ``directory``; returns baseline ids."""
    directory = Path(directory)
    loaded = []
    for path in sorted(directory.glob("*.ckpt.json")):
        baseline_id, state = load_checkpoint(path)
        service.install_baseline(baseline_id, state)
        loaded.append(baseline_id)
    return loaded
