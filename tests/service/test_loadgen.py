"""Load generation: deterministic traces and the run_load report.

Trace generation must be a pure function of its options — the
determinism gate depends on driving the *same* trace through the
scheduler at every worker count. Driving uses a tiny grid so the full
report path (warmup exclusion, percentiles, per-tenant stats,
signatures) runs in seconds against the real scheduler, its shard
in-process ("classic") or forked ("fleet").
"""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    JobStatus,
    LoadgenOptions,
    PlanningService,
    SchedulerOptions,
    make_load_trace,
    run_load,
)

SMALL = LoadgenOptions(
    tenants=2,
    jobs=12,
    rate=200.0,
    seed=7,
    grid=8,
    num_nets=30,
    total_sites=160,
)


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenants": 0},
            {"jobs": 0},
            {"rate": 0.0},
            {"mix": (0.5, 0.5)},
            {"mix": (-0.1, 0.5, 0.6)},
            {"mix": (0.0, 0.0, 0.0)},
            {"warmup_fraction": 1.0},
            {"warmup_fraction": -0.1},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadgenOptions(**kwargs)


class TestTrace:
    def test_trace_is_deterministic(self):
        a = make_load_trace(SMALL)
        b = make_load_trace(SMALL)
        assert a == b
        assert [e.offset for e in a.events] == [e.offset for e in b.events]
        assert [e.job.job_id for e in a.events] == [
            e.job.job_id for e in b.events
        ]

    def test_seed_changes_trace(self):
        a = make_load_trace(SMALL)
        b = make_load_trace(
            LoadgenOptions(
                tenants=2,
                jobs=12,
                rate=200.0,
                seed=8,
                grid=8,
                num_nets=30,
                total_sites=160,
            )
        )
        assert [e.offset for e in a.events] != [e.offset for e in b.events]

    def test_structure(self):
        trace = make_load_trace(SMALL)
        assert len(trace.baselines) == 2
        assert len(trace.events) == 12
        assert trace.warmup_count == 1
        # Baselines differ per tenant (distinct site scatter) so a
        # shard mix-up cannot cancel out in the signature comparison.
        scenarios = {b.scenario.site_seed for b in trace.baselines}
        assert len(scenarios) == 2
        # Arrival offsets are nondecreasing; every job targets its own
        # tenant's baseline.
        offsets = [e.offset for e in trace.events]
        assert offsets == sorted(offsets)
        for event in trace.events:
            job = event.job
            assert job.kind == "delta"
            assert job.baseline_id == f"lg-{job.tenant}-b"
            assert job.mode in ("full", "incremental")
            if job.mode == "full":
                # Full-mode jobs are macro perturbations re-planned
                # from scratch; churn ops stay incremental.
                assert job.delta.ops[0].kind == "move_macro"

    def test_mix_selects_kinds(self):
        churn_only = make_load_trace(
            LoadgenOptions(
                tenants=1,
                jobs=10,
                rate=100.0,
                seed=0,
                mix=(0.0, 0.0, 1.0),
                grid=8,
                num_nets=30,
                total_sites=160,
            )
        )
        kinds = {
            e.job.delta.ops[0].kind for e in churn_only.events
        }
        assert kinds <= {"add_net", "remove_net"}
        full_only = make_load_trace(
            LoadgenOptions(
                tenants=1,
                jobs=5,
                rate=100.0,
                seed=0,
                mix=(1.0, 0.0, 0.0),
                grid=8,
                num_nets=30,
                total_sites=160,
            )
        )
        assert all(e.job.mode == "full" for e in full_only.events)


class TestRunLoad:
    def _drive(self, service_factory):
        trace = make_load_trace(SMALL)

        async def body():
            service = service_factory()
            await service.start()
            try:
                return await run_load(service, trace), service
            finally:
                await service.stop()

        return asyncio.run(body())

    def test_report_against_classic_scheduler(self):
        report, _ = self._drive(
            lambda: PlanningService(
                options=SchedulerOptions(workers=1, max_queue=64)
            )
        )
        assert report.jobs_submitted == 12
        assert report.jobs_failed == 0
        assert report.jobs_shed == 0
        # One warmup job is excluded from the measured set.
        assert report.jobs_measured == 11
        assert report.jobs_done == 12
        assert report.jobs_per_sec > 0
        assert report.wall_seconds > 0
        assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
        assert set(report.signatures) == {"lg-t0-b", "lg-t1-b"}
        assert all(report.signatures.values())
        assert set(report.per_tenant) <= {"t0", "t1"}
        for stats in report.per_tenant.values():
            assert stats["jobs"] >= 1
        as_dict = report.as_dict()
        assert as_dict["jobs_measured"] == 11
        assert as_dict["signatures"] == report.signatures

    def test_fleet_matches_classic_signatures(self):
        # In-process shard ("classic") against two forked shards.
        classic, _ = self._drive(
            lambda: PlanningService(
                options=SchedulerOptions(workers=1, max_queue=64)
            )
        )
        fleet, _ = self._drive(
            lambda: PlanningService(
                options=SchedulerOptions(workers=2, job_timeout=60.0)
            )
        )
        assert fleet.jobs_failed == 0
        assert fleet.signatures == classic.signatures
