"""Golden certificates: the lower-bound oracle's output, pinned to the byte.

Each golden records one oracle run: the SHA-256 of the canonical
certificate JSON and the headline numbers (bound, lambda, dual load,
pricing calls). The certificate carries every dual length, and each
length records how often its edge or site lay on a priced path, so any
change to the pricing search that moves a single dual length or a
tie-broken path shows here.

* ``bound_scenario12_seed0.json``: the 12x12 / 40-net ``SCENARIO`` of
  ``test_oracle.py`` at two iterations (fast, tier 1);
* ``bound_ladder32_seed0.json``: the ``ladder-32`` tier at seed 0 with
  the options ``rabidbench``'s ``bound-ladder32`` workload uses
  (epsilon 0.5, one iteration; slow).

Both were first recorded before the pricing search settled sinks at
their first pop. They were recorded again when the bound became one
``theta = 0`` sweep with the length-rule floor under every net's dual,
in certificate version 2 (no ``theta`` or ``unconstrained_bound``).
The bound rose from 374 to 527 (scenario12) and from 6,146 to 8,722
(ladder-32); the pricing calls fell from 520 to 160 and from 6,000 to
1,500. Lambda, the dual load and the columns did not move. They lost
their column digest when the oracle stopped collecting candidate
columns; every other field stayed. To record them again from a
checkout's own sources::

    PYTHONPATH=src python tests/bounds/test_bound_golden.py
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.bounds import BoundOptions, bound_scenario, compute_bound
from repro.service.engine import build_graph
from repro.service.jobs import ScenarioSpec
from repro.workloads import get_workload

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")

SCENARIO12 = ScenarioSpec(
    grid=12, num_nets=40, total_sites=300, seed=0, site_seed=0
)


def _sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def golden_payload(result) -> dict:
    """The pinned digest of one :class:`~repro.bounds.BoundResult`."""
    return {
        "certificate_sha256": _sha256(result.certificate().to_dict()),
        "lower_bound": result.lower_bound,
        "lambda_lb": result.lambda_lb,
        "dual_load": result.dual_load,
        "pricing_calls": result.pricing_calls,
    }


def scenario12_bound():
    return bound_scenario(SCENARIO12, BoundOptions(iterations=2))


def ladder32_bound():
    scenario = dataclasses.replace(
        get_workload("ladder-32").scenario(), seed=0, site_seed=0
    )
    nets = scenario.nets()
    return compute_bound(
        build_graph(scenario), nets, scenario.limits(sorted(nets)),
        BoundOptions(epsilon=0.5, iterations=1),
    )


GOLDENS = {
    "bound_scenario12_seed0.json": scenario12_bound,
    "bound_ladder32_seed0.json": ladder32_bound,
}


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_scenario12_matches_golden():
    assert golden_payload(scenario12_bound()) == load_golden(
        "bound_scenario12_seed0.json"
    )


@pytest.mark.slow
def test_ladder32_matches_golden():
    assert golden_payload(ladder32_bound()) == load_golden(
        "bound_ladder32_seed0.json"
    )


if __name__ == "__main__":
    for name, run in GOLDENS.items():
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden_payload(run()), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print("wrote", path)
