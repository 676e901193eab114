"""Checkpoint round-trips, tamper detection, and snapshot quiescence."""

import asyncio
import json
import threading

import pytest

from repro.errors import CheckpointError
from repro.service import (
    DeltaSpec,
    Job,
    JobStatus,
    PlanningService,
    ScenarioSpec,
    apply_delta,
    full_plan,
    incremental_replan,
    move_macro,
    set_capacity,
)
from repro.service.checkpoint import (
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    load_service_checkpoints,
    save_checkpoint,
)
from repro.service.jobs import MacroSpec

SPEC = ScenarioSpec(
    grid=8, num_nets=12, total_sites=120, macros=(MacroSpec(1, 1, 2, 2),)
)
DELTA = DeltaSpec((move_macro(0, 4, 4),))


@pytest.fixture(scope="module")
def baseline():
    return full_plan(SPEC)


def test_round_trip_preserves_signature(baseline, tmp_path):
    path = tmp_path / "b0.ckpt.json"
    save_checkpoint(path, "b0", baseline)
    baseline_id, restored = load_checkpoint(path)
    assert baseline_id == "b0"
    assert restored.signature == baseline.signature
    assert restored.scenario == SPEC
    assert set(restored.routes) == set(baseline.routes)
    assert set(restored.outcomes) == set(baseline.outcomes)


def test_checkpoint_with_retired_router_loads(baseline, tmp_path):
    # Checkpoints written while Stage 1 had a router choice carry
    # ``"router": "pd"`` in the plan's config; they restore as before.
    payload = checkpoint_to_dict("b0", baseline)
    payload["plan"]["config"]["config"]["router"] = "pd"
    path = tmp_path / "legacy.ckpt.json"
    path.write_text(json.dumps(payload))
    baseline_id, restored = load_checkpoint(path)
    assert baseline_id == "b0"
    assert restored.signature == baseline.signature
    assert restored.config == baseline.config


def test_restored_plan_supports_incremental_replan(baseline, tmp_path):
    path = tmp_path / "b0.ckpt.json"
    save_checkpoint(path, "b0", baseline)
    _, restored = load_checkpoint(path)
    stats = incremental_replan(restored, DELTA)
    assert stats.signature == full_plan(apply_delta(SPEC, DELTA)).signature


def _without_read_boxes(payload):
    for route in payload["plan"]["routes"]["routes"].values():
        del route["read_box"]
    return payload


def test_restored_routes_count_as_reading_the_whole_grid(baseline):
    # A tree loaded from a payload without recorded search windows (an
    # older checkpoint) reads the whole grid, so any route-dirty edge
    # re-searches it; the replay stays exact.
    payload = _without_read_boxes(checkpoint_to_dict("b0", baseline))
    _, restored = checkpoint_from_dict(payload)
    assert all(tree.read_box is None for tree in restored.routes.values())
    delta = DeltaSpec((set_capacity([(3, 3, 4, 3, 1)]),))
    stats = incremental_replan(restored, delta)
    assert stats.nets_searched == stats.nets_total
    assert stats.signature == full_plan(apply_delta(SPEC, delta)).signature


def test_round_trip_keeps_read_windows():
    # A restored plan re-searches exactly the nets the warm plan does.
    spec = ScenarioSpec(grid=16, num_nets=60, total_sites=400)
    delta = DeltaSpec((set_capacity([(5, 5, 6, 5, 1)]),))
    warm = full_plan(spec)
    _, restored = checkpoint_from_dict(
        json.loads(json.dumps(checkpoint_to_dict("b0", warm)))
    )
    assert [t.read_box for t in restored.routes.values()] == [
        t.read_box for t in warm.routes.values()
    ]
    cold = incremental_replan(restored, delta)
    hot = incremental_replan(warm, delta)
    assert cold.nets_searched == hot.nets_searched < hot.nets_total
    assert cold.signature == hot.signature


@pytest.mark.parametrize(
    "box",
    [[0, 0, 7], [0, 0, 7, 7.0], [0, 0, 7, True], [0, 0, 8, 7], [-1, 0, 7, 7]],
    ids=["three", "float", "bool", "off-grid", "negative"],
)
def test_malformed_read_box_rejected(baseline, box):
    payload = checkpoint_to_dict("b0", baseline)
    next(iter(payload["plan"]["routes"]["routes"].values()))["read_box"] = box
    with pytest.raises(CheckpointError, match="read_box"):
        checkpoint_from_dict(payload)


def test_read_box_must_cover_its_tree(baseline):
    payload = checkpoint_to_dict("b0", baseline)
    name, route = next(
        (n, r)
        for n, r in payload["plan"]["routes"]["routes"].items()
        if r["edges"]
    )
    x, y = route["source"]
    route["read_box"] = [x, y, x, y]
    with pytest.raises(CheckpointError, match="does not cover"):
        checkpoint_from_dict(payload)


def test_dict_round_trip(baseline):
    payload = checkpoint_to_dict("b0", baseline)
    # JSON round-trip, as the wire/file layer would do it.
    payload = json.loads(json.dumps(payload))
    baseline_id, restored = checkpoint_from_dict(payload)
    assert baseline_id == "b0"
    assert restored.signature == baseline.signature


def test_bad_schema_rejected(baseline):
    payload = checkpoint_to_dict("b0", baseline)
    payload["version"] = 99
    with pytest.raises(CheckpointError, match="schema"):
        checkpoint_from_dict(payload)


def test_tampered_signature_rejected(baseline):
    payload = checkpoint_to_dict("b0", baseline)
    payload["signature"] = "0" * 64
    with pytest.raises(CheckpointError, match="signature mismatch"):
        checkpoint_from_dict(payload)


def test_tampered_plan_rejected(baseline, tmp_path):
    payload = checkpoint_to_dict("b0", baseline)
    # Drop a net from the plan but not from the outcomes: coverage check.
    name = next(iter(payload["outcomes"]))
    del payload["plan"]["routes"]["routes"][name]
    with pytest.raises(CheckpointError):
        checkpoint_from_dict(payload)


def test_malformed_payload_wrapped(baseline):
    payload = checkpoint_to_dict("b0", baseline)
    del payload["plan"]
    with pytest.raises(CheckpointError, match="malformed"):
        checkpoint_from_dict(payload)


def test_unreadable_file_raises(tmp_path):
    path = tmp_path / "nope.ckpt.json"
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(path)
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(path)


def test_service_checkpoint_waits_for_running_job(tmp_path):
    # The baseline's shard serializes it between jobs: a checkpoint asked
    # for while a delta runs holds the plan that delta commits, never a
    # torn one.
    entered = threading.Event()
    release = threading.Event()

    def gated_replan(state, delta, tracer=None, abort_check=None):
        entered.set()
        release.wait(5.0)
        return incremental_replan(state, delta, tracer=tracer)

    async def body():
        service = PlanningService(replan_fn=gated_replan)
        service.install_baseline("b0", full_plan(SPEC))
        await service.start()
        try:
            service.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
            while not entered.is_set():
                await asyncio.sleep(0.01)
            saving = asyncio.ensure_future(
                asyncio.to_thread(service.checkpoint_to, tmp_path)
            )
            await asyncio.sleep(0.2)
            assert not saving.done()
            release.set()
            written = await saving
            record = await service.wait("d0")
            return written, record
        finally:
            release.set()
            await service.stop()

    written, record = asyncio.run(body())
    assert record.status is JobStatus.DONE, record.error
    _, restored = load_checkpoint(written[0])
    assert restored.signature == record.result["signature"]
    assert restored.signature == full_plan(apply_delta(SPEC, DELTA)).signature


def test_service_checkpoint_cycle(baseline, tmp_path):
    async def save():
        service = PlanningService()
        service.install_baseline("b0", baseline)
        await service.start()
        try:
            return service.checkpoint_to(tmp_path)
        finally:
            await service.stop()

    written = asyncio.run(save())
    assert [p.endswith("b0.ckpt.json") for p in written] == [True]

    fresh = PlanningService()
    loaded = load_service_checkpoints(tmp_path, fresh)
    assert loaded == ["b0"]
    assert fresh.baseline("b0").signature == baseline.signature
