"""JSON-lines protocol: wire round-trips, ops end-to-end, typed errors."""

import asyncio
import json
import threading

import pytest

from repro.errors import ProtocolError
from repro.service import (
    DeltaSpec,
    Job,
    JobStatus,
    PlanningService,
    ScenarioSpec,
    SchedulerOptions,
    full_plan,
    incremental_replan,
    move_macro,
)
from repro.service.jobs import MacroSpec
from repro.service.protocol import (
    ProtocolServer,
    job_from_dict,
    job_to_dict,
    request_over_stream,
)

SPEC = ScenarioSpec(
    grid=8, num_nets=12, total_sites=120, macros=(MacroSpec(1, 1, 2, 2),)
)
DELTA = DeltaSpec((move_macro(0, 4, 4),))


class TestJobWire:
    def test_baseline_round_trip(self):
        job = Job("b0", "baseline", scenario=SPEC, config={"length_limit": 5})
        assert job_to_dict(job_from_dict(job_to_dict(job))) == job_to_dict(job)

    def test_delta_round_trip(self):
        job = Job("d0", "delta", baseline_id="b0", delta=DELTA, mode="full")
        restored = job_from_dict(job_to_dict(job))
        assert restored.mode == "full"
        assert restored.delta == DELTA
        assert job_to_dict(restored) == job_to_dict(job)

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"kind": "baseline"},
            {"job_id": "b0"},
            {"job_id": 7, "kind": "baseline"},
        ],
    )
    def test_bad_wire_jobs_rejected(self, payload):
        with pytest.raises(ProtocolError):
            job_from_dict(payload)


def serve_and_request(requests, options=None):
    """Spin a real server on a loopback port, run requests, tear down."""

    async def scenario():
        service = PlanningService(
            options=options or SchedulerOptions(workers=1)
        )
        server = ProtocolServer(service)
        await server.start("127.0.0.1", 0)
        try:
            return await request_over_stream("127.0.0.1", server.port, requests)
        finally:
            await server.close()

    return asyncio.run(scenario())


class TestServerOps:
    def test_submit_wait_baselines_stats(self, tmp_path):
        responses = serve_and_request(
            [
                {"op": "submit",
                 "job": {"job_id": "b0", "kind": "baseline",
                         "scenario": SPEC.to_dict()}},
                {"op": "wait", "job_id": "b0"},
                {"op": "submit",
                 "job": {"job_id": "d0", "kind": "delta",
                         "baseline_id": "b0", "delta": DELTA.to_dict()}},
                {"op": "wait", "job_id": "d0"},
                {"op": "status", "job_id": "d0"},
                {"op": "baselines"},
                {"op": "stats"},
                {"op": "checkpoint", "directory": str(tmp_path)},
            ]
        )
        submit_b0, wait_b0, submit_d0, wait_d0, status, bases, stats, ckpt = (
            responses
        )
        assert submit_b0["ok"] and submit_b0["status"] == "queued"
        assert wait_b0["ok"] and wait_b0["status"] == "done"
        assert wait_d0["ok"] and wait_d0["status"] == "done"
        assert wait_d0["result"]["mode"] == "incremental"
        assert status["status"] == "done"
        assert list(bases["baselines"]) == ["b0"]
        assert stats["done"] == 2 and stats["baselines"] == 1
        assert ckpt["ok"] and len(ckpt["written"]) == 1
        assert (tmp_path / "b0.ckpt.json").exists()

    def test_error_responses_are_typed(self):
        responses = serve_and_request(
            [
                {"op": "status", "job_id": "ghost"},
                {"op": "warp"},
                {"op": "submit", "job": {"job_id": "x"}},
                {"op": "checkpoint"},
            ]
        )
        unknown, bad_op, bad_job, bad_ckpt = responses
        assert unknown == {
            "ok": False,
            "error": "UnknownJobError",
            "message": "unknown job 'ghost'",
        }
        assert not bad_op["ok"] and bad_op["error"] == "ProtocolError"
        assert not bad_job["ok"] and bad_job["error"] == "ProtocolError"
        assert not bad_ckpt["ok"] and bad_ckpt["error"] == "ProtocolError"

    def test_duplicate_submit_and_shed_are_distinct(self):
        job = {"job_id": "d0", "kind": "delta", "baseline_id": "b0",
               "delta": DELTA.to_dict()}
        gate = threading.Event()

        def gated_replan(state, delta, tracer=None, abort_check=None):
            gate.wait(5.0)
            return incremental_replan(state, delta, tracer=tracer)

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, max_queue=1),
                replan_fn=gated_replan,
            )
            service.install_baseline("b0", full_plan(SPEC))
            server = ProtocolServer(service)
            await server.start("127.0.0.1", 0)
            try:
                # A gated job holds the shard, so d0 fills the one-job
                # queue and d1's shed is deterministic.
                service.submit(
                    Job("hold", "delta", baseline_id="b0", delta=DELTA)
                )
                while service.record("hold").status is JobStatus.QUEUED:
                    await asyncio.sleep(0.01)
                return await request_over_stream(
                    "127.0.0.1",
                    server.port,
                    [
                        {"op": "submit", "job": job},
                        {"op": "submit", "job": job},
                        {"op": "submit", "job": {**job, "job_id": "d1"}},
                    ],
                )
            finally:
                gate.set()
                await server.close()

        first, dup, shed = asyncio.run(scenario())
        assert first["ok"]
        assert not dup["ok"] and dup["error"] == "ServiceError"
        assert not shed["ok"] and shed["error"] == "QueueFullError"

    def test_unknown_baseline_and_negative_count_are_typed(self):
        bad_scenario = SPEC.to_dict()
        bad_scenario["site_overrides"] = [[[1, 1], -2]]
        responses = serve_and_request(
            [
                {"op": "submit",
                 "job": {"job_id": "d0", "kind": "delta",
                         "baseline_id": "nope", "delta": DELTA.to_dict()}},
                {"op": "submit",
                 "job": {"job_id": "b0", "kind": "baseline",
                         "scenario": bad_scenario}},
                {"op": "stats"},
            ]
        )
        unknown, negative, stats = responses
        assert unknown["error"] == "UnknownJobError"
        assert negative["error"] == "ConfigurationError"
        assert ">= 0" in negative["message"]
        assert stats["submitted"] == 0

    def test_bad_json_line(self):
        async def scenario():
            service = PlanningService(options=SchedulerOptions(workers=1))
            server = ProtocolServer(service)
            await server.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"{this is not json\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return json.loads(line)
            finally:
                await server.close()

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"] == "ProtocolError"
        assert "bad JSON" in response["message"]

    def test_shutdown_op(self):
        async def scenario():
            service = PlanningService(options=SchedulerOptions(workers=1))
            server = ProtocolServer(service)
            await server.start("127.0.0.1", 0)
            waiter = asyncio.create_task(server.serve_until_shutdown())
            responses = await request_over_stream(
                "127.0.0.1", server.port, [{"op": "shutdown"}]
            )
            await asyncio.wait_for(waiter, timeout=5.0)
            return responses

        responses = asyncio.run(scenario())
        assert responses == [{"ok": True, "shutting_down": True}]


class TestRequestSizeLimit:
    def test_oversized_line_gets_typed_error_and_drop(self):
        async def scenario():
            service = PlanningService(options=SchedulerOptions(workers=1))
            server = ProtocolServer(service, max_request_bytes=4096)
            await server.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b'{"op": "status", "job_id": "'
                    + b"x" * 10_000
                    + b'"}\n'
                )
                await writer.drain()
                line = await reader.readline()
                after = await reader.readline()  # connection dropped
                writer.close()
                await writer.wait_closed()

                # A fresh connection still works after the oversized one.
                fresh = await request_over_stream(
                    "127.0.0.1", server.port, [{"op": "stats"}]
                )
                return json.loads(line), after, fresh
            finally:
                await server.close()

        response, after, fresh = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"] == "ProtocolError"
        assert "4096" in response["message"]
        assert after == b""
        assert fresh[0]["ok"]

    def test_normal_request_fits_under_limit(self):
        async def scenario():
            service = PlanningService(options=SchedulerOptions(workers=1))
            server = ProtocolServer(service, max_request_bytes=4096)
            await server.start("127.0.0.1", 0)
            try:
                return await request_over_stream(
                    "127.0.0.1", server.port, [{"op": "stats"}]
                )
            finally:
                await server.close()

        assert asyncio.run(scenario())[0]["ok"]

    def test_limit_validated(self):
        service = PlanningService(options=SchedulerOptions(workers=1))
        with pytest.raises(ProtocolError):
            ProtocolServer(service, max_request_bytes=1)
