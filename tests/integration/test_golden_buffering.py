"""Golden pin: Stage-3 buffering output is byte-identical to the capture
taken before the unified solver engine landed."""

import json
import os

import pytest

from repro.benchmarks.buffering_kernel import (
    make_buffering_scenario,
    run_buffering_kernel,
)
from repro.core.assignment import buffers_as_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "buffering_kernel_32x32_seed0.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.slow
class TestGoldenBuffering:
    def test_sequential_signature(self, golden):
        instance = make_buffering_scenario()
        result = run_buffering_kernel(instance)
        assert result.signature == golden["signature"]
        assert result.buffers_inserted == golden["buffers_inserted"]
        assert result.num_fails == golden["num_fails"]
        assert result.dp_infeasible == golden["dp_infeasible"]
        assert buffers_as_json(instance.routes) == golden["buffers"]
        assert instance.graph.used_sites.tolist() == golden["used_sites"]


class TestGoldenBuffering64:
    def test_sequential_signature(self):
        """The larger, sparser 64x64 golden."""
        with open(
            os.path.join(GOLDEN_DIR, "buffering_kernel_64x64_seed0.json"),
            encoding="utf-8",
        ) as fh:
            golden = json.load(fh)
        spec = golden["scenario"]
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
        assert result.signature == golden["signature"]
        assert result.buffers_inserted == golden["buffers_inserted"]
        assert result.num_fails == golden["num_fails"]
        assert result.dp_infeasible == golden["dp_infeasible"]
        assert sorted(result.failed_nets) == golden["failed_nets"]
