"""Multi-kind golden pin.

The Stage-3 walk with the 3-kind ``tech`` library is pinned by its own
golden (kinded specs, signature, per-kind bookings): kind assignment is
deterministic. With the one-kind default library the same walk is the
plain Fig. 9 DP, pinned by ``test_golden_buffering``'s 32x32 and 64x64
goldens.
"""

import json
import os

from repro.benchmarks.buffering_kernel import (
    make_buffering_scenario,
    run_buffering_kernel,
)
from repro.core.assignment import buffers_as_json
from repro.obs import Tracer

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_golden(golden, library, tracer=None):
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
    result = run_buffering_kernel(instance, tracer=tracer, library=library)
    return instance, result


class TestTechLibraryGolden:
    GOLDEN = "buffering_multitype_tech_16x16_seed0.json"

    def test_matches_golden(self):
        golden = load_golden(self.GOLDEN)
        instance, result = run_golden(golden, library="tech")
        assert result.signature == golden["signature"]
        assert result.buffers_inserted == golden["buffers_inserted"]
        assert result.num_fails == golden["num_fails"]
        assert sorted(result.failed_nets) == golden["failed_nets"]
        assert instance.graph.used_sites.tolist() == golden["used_sites"]

    def test_per_net_kinded_specs_match(self):
        """Not just the hash: a failure names the first differing net, and
        the golden demonstrably exercises non-default kinds."""
        golden = load_golden(self.GOLDEN)
        instance, _ = run_golden(golden, library="tech")
        got = json.loads(json.dumps(buffers_as_json(instance.routes)))
        want = golden["buffers"]
        assert set(got) == set(want)
        for name in sorted(want):
            assert got[name] == want[name], f"net {name} buffered differently"
        kinded = sum(
            1 for specs in want.values() for s in specs if len(s) == 3
        )
        assert kinded > 0

    def test_kind_bookings_sum_to_kinded_buffers(self):
        golden = load_golden(self.GOLDEN)
        instance, _ = run_golden(golden, library="tech")
        kinded = sum(
            1
            for specs in golden["buffers"].values()
            for s in specs
            if len(s) == 3
        )
        assert sum(instance.graph.kind_used.values()) == kinded

    def test_kind_list_witness_within_library_size(self):
        """The Li-Shi O(bn^2) witness on the traced walk.

        ``dp.kind_list_max`` is a last-write gauge: it holds the largest
        surviving candidate list of the last net the walk sized.
        """
        golden = load_golden(self.GOLDEN)
        tracer = Tracer()
        _, result = run_golden(golden, library="tech", tracer=tracer)
        assert result.signature == golden["signature"]
        kinds = tracer.metrics.value("dp.kinds")
        assert kinds == 3
        assert 1 <= tracer.metrics.value("dp.kind_list_max") <= kinds
