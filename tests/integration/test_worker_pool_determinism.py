"""Worker-pool determinism: the sequential Stage-2 and Stage-3 kernels
reproduce their 32x32 goldens byte for byte inside a forked
:class:`repro.parallel.WorkerPool` worker.

The planning fleet and the sweep executor plan on that pool, so a
kernel run in a worker must not drift from the same run in the parent:
the fork, the handler dispatch and the pickled reply are the only
differences. The ids name the pool size and where the kernel runs.
"""

import json
import os

import pytest

from repro.benchmarks.buffering_kernel import (
    make_buffering_scenario,
    run_buffering_kernel,
)
from repro.benchmarks.routing_kernel import (
    make_routing_scenario,
    run_routing_kernel,
)
from repro.parallel import WorkerPool

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def route_golden(name, ctx):
    """Pool handler: run the routing golden's scenario, reply its figures."""
    spec = load_golden(name)["scenario"]
    scenario = make_routing_scenario(
        grid=spec["grid"],
        num_nets=spec["num_nets"],
        capacity=spec["capacity"],
        seed=spec["seed"],
    )
    result = run_routing_kernel(
        scenario,
        passes=spec["passes"],
        radius_weight=spec["radius_weight"],
        window_margin=spec["window_margin"],
    )
    return {
        "signature": result.signature,
        "wirelength_tiles": result.wirelength_tiles,
        "overflow": result.overflow,
    }


def buffer_golden(name, ctx):
    """Pool handler: run the buffering golden's scenario, reply its figures."""
    spec = load_golden(name)["scenario"]
    instance = make_buffering_scenario(
        grid=spec["grid"],
        num_nets=spec["num_nets"],
        capacity=spec["capacity"],
        seed=spec["seed"],
        length_limit=spec["length_limit"],
        total_sites=spec["total_sites"],
        site_seed=spec["site_seed"],
    )
    result = run_buffering_kernel(instance)
    return {
        "signature": result.signature,
        "buffers_inserted": result.buffers_inserted,
        "num_fails": result.num_fails,
    }


def run_in_pool(handler, golden_name, workers):
    """Run ``handler`` once per worker; every reply comes from a fork."""
    spec = f"{__name__}:{handler.__name__}"
    with WorkerPool(workers) as pool:
        results = pool.run_tasks([(spec, golden_name)] * workers)
    assert [r.status for r in results] == ["ok"] * workers
    return [r.value for r in results]


class TestRouting32:
    @pytest.mark.parametrize("workers", [pytest.param(1, id="1-pool")])
    def test_matches_golden(self, workers):
        name = "routing_kernel_32x32_seed0.json"
        golden = load_golden(name)
        for reply in run_in_pool(route_golden, name, workers):
            assert reply["signature"] == golden["signature"]
            assert reply["wirelength_tiles"] == golden["wirelength_tiles"]
            assert reply["overflow"] == golden["overflow"]


class TestBuffering32:
    @pytest.mark.parametrize("workers", [pytest.param(1, id="1-pool")])
    def test_matches_golden(self, workers):
        name = "buffering_kernel_32x32_seed0.json"
        golden = load_golden(name)
        for reply in run_in_pool(buffer_golden, name, workers):
            assert reply["signature"] == golden["signature"]
            assert reply["buffers_inserted"] == golden["buffers_inserted"]
            assert reply["num_fails"] == golden["num_fails"]
