"""Graceful shutdown: drain, typed rejection, dirty checkpoints.

Covered for both shard modes of ``PlanningService`` ("classic" runs the
one shard in-process, "fleet" forks it) plus the protocol layer that
fronts them: once shutdown begins, new submissions fail with
``ShuttingDownError`` (``SHUTTING_DOWN`` on the wire), in-flight jobs
drain bounded by the deadline, and dirty baselines are checkpointed
before exit. No pytest-asyncio in the environment — tests drive the
loop via ``asyncio.run``.
"""

import asyncio
import json
import os

import pytest

from repro.errors import ShuttingDownError
from repro.service import (
    DeltaSpec,
    Job,
    JobStatus,
    MacroSpec,
    PlanningService,
    ScenarioSpec,
    SchedulerOptions,
    move_macro,
)
from repro.service.protocol import ProtocolServer, request_over_stream

SPEC = ScenarioSpec(
    grid=8, num_nets=24, total_sites=160, macros=(MacroSpec(1, 1, 2, 2),)
)
DELTA = DeltaSpec((move_macro(0, 4, 4),))


def run(coro):
    return asyncio.run(coro)


def make_classic():
    return PlanningService(
        options=SchedulerOptions(workers=1, max_queue=32)
    )


def make_fleet():
    return PlanningService(
        options=SchedulerOptions(workers=2, max_queue=32, job_timeout=60.0)
    )


@pytest.fixture(params=["classic", "fleet"])
def make_service(request):
    return make_classic if request.param == "classic" else make_fleet


class TestSchedulerShutdown:
    def test_submit_rejected_after_begin_shutdown(self, make_service):
        async def body():
            service = make_service()
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                record = await service.wait("b0")
                assert record.status is JobStatus.DONE, record.error
                assert not service.shutting_down
                service.begin_shutdown()
                assert service.shutting_down
                with pytest.raises(ShuttingDownError):
                    service.submit(
                        Job("late", "delta", baseline_id="b0", delta=DELTA)
                    )
            finally:
                await service.stop()

        run(body())

    def test_drain_until_completes_in_flight(self, make_service):
        async def body():
            service = make_service()
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                for i in range(3):
                    service.submit(
                        Job(f"d{i}", "delta", baseline_id="b0", delta=DELTA)
                    )
                service.begin_shutdown()
                report = await service.drain_until(30.0)
                assert report == {"drained": True, "pending": 0}
                for i in range(3):
                    assert service.record(f"d{i}").status is JobStatus.DONE
            finally:
                await service.stop()

        run(body())

    def test_drain_until_bounded_by_deadline(self, make_service):
        async def body():
            service = make_service()
            await service.start()
            try:
                # A grid this size takes well over the 0-second budget.
                big = ScenarioSpec(
                    grid=24,
                    num_nets=260,
                    total_sites=1400,
                    macros=(MacroSpec(3, 3, 6, 6),),
                )
                service.submit(Job("b0", "baseline", scenario=big))
                report = await service.drain_until(0.0)
                assert not report["drained"]
                assert report["pending"] >= 1
                # The bound rejects waiting, not the work: a later
                # unbounded drain still finishes the job.
                report = await service.drain_until(60.0)
                assert report["drained"]
                assert service.record("b0").status is JobStatus.DONE
            finally:
                await service.stop()

        run(body())

    def test_checkpoint_to_writes_only_dirty(self, make_service, tmp_path):
        async def body():
            service = make_service()
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                service.submit(Job("b1", "baseline", scenario=SPEC))
                await service.wait("b0")
                await service.wait("b1")
                assert service.dirty_baseline_ids == ["b0", "b1"]
                first = tmp_path / "first"
                written = service.checkpoint_to(str(first), True)
                assert sorted(os.path.basename(p) for p in written) == [
                    "b0.ckpt.json",
                    "b1.ckpt.json",
                ]
                assert sorted(p.name for p in first.iterdir()) == [
                    "b0.ckpt.json",
                    "b1.ckpt.json",
                ]
                # Checkpointing marked them clean; only new mutations
                # re-dirty.
                assert service.dirty_baseline_ids == []
                service.submit(
                    Job("d0", "delta", baseline_id="b1", delta=DELTA)
                )
                await service.wait("d0")
                assert service.dirty_baseline_ids == ["b1"]
                second = tmp_path / "second"
                written = service.checkpoint_to(str(second), True)
                assert [os.path.basename(p) for p in written] == [
                    "b1.ckpt.json"
                ]
                assert [p.name for p in second.iterdir()] == ["b1.ckpt.json"]
            finally:
                await service.stop()

        run(body())


class TestProtocolShutdown:
    def test_wire_level_graceful_shutdown(self, make_service, tmp_path):
        async def body():
            service = make_service()
            ckpt = tmp_path / "ckpt"
            server = ProtocolServer(
                service,
                checkpoint_dir=str(ckpt),
                shutdown_deadline=30.0,
            )
            await server.start("127.0.0.1", 0)
            serving = asyncio.ensure_future(server.serve_until_shutdown())
            responses = await request_over_stream(
                "127.0.0.1",
                server.port,
                [
                    {
                        "op": "submit",
                        "job": {
                            "job_id": "b0",
                            "kind": "baseline",
                            "scenario": SPEC.to_dict(),
                        },
                    },
                    {"op": "wait", "job_id": "b0"},
                    {"op": "shutdown", "deadline": 30.0},
                ],
            )
            assert responses[0]["ok"]
            assert responses[1]["status"] == "done"
            assert responses[2] == {"ok": True, "shutting_down": True}
            # Submissions racing the shutdown get the typed error (the
            # service object rejects even though the socket is gone).
            with pytest.raises(ShuttingDownError):
                service.submit(
                    Job("late", "delta", baseline_id="b0", delta=DELTA)
                )
            await asyncio.wait_for(serving, timeout=60.0)
            assert server.drain_report == {"drained": True, "pending": 0}
            # The dirty baseline was checkpointed on the way out.
            assert sorted(os.listdir(ckpt)) == ["b0.ckpt.json"]
            payload = json.loads((ckpt / "b0.ckpt.json").read_text())
            assert payload["baseline_id"] == "b0"

        run(body())

    def test_shutdown_error_is_typed_on_the_wire(self):
        async def body():
            service = make_classic()
            server = ProtocolServer(service, shutdown_deadline=5.0)
            await server.start("127.0.0.1", 0)
            serving = asyncio.ensure_future(server.serve_until_shutdown())
            # Reject-after-shutdown over a fresh connection: dispatch
            # directly so the test does not race the socket closing.
            server.request_shutdown()
            response = await server._dispatch_line(
                json.dumps(
                    {
                        "op": "submit",
                        "job": {
                            "job_id": "b0",
                            "kind": "baseline",
                            "scenario": SPEC.to_dict(),
                        },
                    }
                ).encode()
            )
            assert response["ok"] is False
            assert response["error"] == "ShuttingDownError"
            await asyncio.wait_for(serving, timeout=30.0)

        run(body())
