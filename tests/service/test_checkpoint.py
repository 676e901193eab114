"""Checkpoint round-trips, tamper detection, and snapshot quiescence."""

import json
import threading
import time

import pytest

from repro.errors import CheckpointError
from repro.service import (
    DeltaSpec,
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
    save_service_checkpoints,
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


def test_restored_plan_supports_incremental_replan(baseline, tmp_path):
    path = tmp_path / "b0.ckpt.json"
    save_checkpoint(path, "b0", baseline)
    _, restored = load_checkpoint(path)
    stats = incremental_replan(restored, DELTA)
    assert stats.signature == full_plan(apply_delta(SPEC, DELTA)).signature


def test_restored_routes_count_as_reading_the_whole_grid(baseline):
    # A loaded tree has no recorded search window, so any route-dirty
    # edge re-searches it; the replay stays exact.
    _, restored = checkpoint_from_dict(checkpoint_to_dict("b0", baseline))
    assert all(tree.read_box is None for tree in restored.routes.values())
    delta = DeltaSpec((set_capacity([(3, 3, 4, 3, 1)]),))
    stats = incremental_replan(restored, delta)
    assert stats.nets_searched == stats.nets_total
    assert stats.signature == full_plan(apply_delta(SPEC, delta)).signature


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


def test_service_checkpoint_waits_for_baseline_lock(tmp_path):
    # A thread holding the baseline lock (a mid-replan job) leaves the
    # plan torn; save_service_checkpoints must block until it is whole
    # again rather than serialize the torn state.
    service = PlanningService()
    state = full_plan(SPEC)
    service.install_baseline("b0", state)
    original = state.signature
    mutating = threading.Event()

    def mutator():
        with service.locked_baseline("b0") as locked:
            locked.signature = "torn-mid-replan"
            mutating.set()
            time.sleep(0.3)
            locked.signature = original

    thread = threading.Thread(target=mutator)
    thread.start()
    assert mutating.wait(5.0)
    written = save_service_checkpoints(tmp_path, service)
    thread.join()
    # Without the lock the snapshot would carry the torn signature and
    # fail the restore-time recompute check.
    _, restored = load_checkpoint(written[0])
    assert restored.signature == original


def test_service_checkpoint_cycle(baseline, tmp_path):
    service = PlanningService()
    service.install_baseline("b0", baseline)
    written = save_service_checkpoints(tmp_path, service)
    assert [p.endswith("b0.ckpt.json") for p in written] == [True]

    fresh = PlanningService()
    loaded = load_service_checkpoints(tmp_path, fresh)
    assert loaded == ["b0"]
    assert fresh.baseline("b0").signature == baseline.signature
