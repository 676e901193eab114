"""Determinism matrix: forked shards at every worker count must
reproduce the in-process shard's baseline signatures byte for byte.

Shard workers are *replays* of the sequential planner against the
committed chain, not approximations of it. One seeded load trace —
multiple tenants, Poisson arrivals, a full/macro-move/net-churn mix —
is driven through ``PlanningService`` with its one shard in-process
(``workers=1``) and with increasingly many forked shards; the final
signature map of every arm must be identical and complete. The widest
arm carries the ``slow`` marker.
"""

import asyncio

import pytest

from repro.service import (
    LoadgenOptions,
    PlanningService,
    SchedulerOptions,
    make_load_trace,
    run_load,
)

TRACE_OPTIONS = LoadgenOptions(
    tenants=3,
    jobs=18,
    rate=150.0,
    seed=11,
    grid=8,
    num_nets=30,
    total_sites=160,
)


def signatures(trace, **options):
    async def body():
        service = PlanningService(
            options=SchedulerOptions(max_queue=64, job_timeout=60.0, **options)
        )
        await service.start()
        try:
            return await run_load(service, trace)
        finally:
            await service.stop()

    report = asyncio.run(body())
    assert report.jobs_failed == 0
    assert len(report.signatures) == len(trace.baselines)
    return report.signatures


class TestFleetMatchesSingleProcess:
    def test_two_workers(self):
        trace = make_load_trace(TRACE_OPTIONS)
        assert signatures(trace, workers=2) == signatures(trace, workers=1)

    @pytest.mark.slow
    def test_four_workers(self):
        trace = make_load_trace(TRACE_OPTIONS)
        assert signatures(trace, workers=4) == signatures(trace, workers=1)

    @pytest.mark.slow
    def test_full_mode_heavy_trace(self):
        """A trace weighted towards full-mode jobs matches at 2 workers.

        Full plans are the long jobs that cheap deltas on other
        baselines queue behind; the committed signatures still have to
        match the in-process arm.
        """
        trace = make_load_trace(
            LoadgenOptions(
                tenants=3,
                jobs=18,
                rate=150.0,
                seed=11,
                mix=(0.5, 0.3, 0.2),
                grid=8,
                num_nets=30,
                total_sites=160,
            )
        )
        assert signatures(trace, workers=2) == signatures(trace, workers=1)
