"""Property: job input parsers raise only typed errors, whatever the JSON.

Jobs reach the service from protocol clients, checkpoints and plan
files. ``DeltaSpec.from_dict`` (then ``apply_delta``),
``ScenarioSpec.from_dict``, ``RabidConfig.from_dict`` and
``job_from_dict`` must each return or raise a :class:`ReproError`, never
a bare exception, and every protocol reply is ``ok`` or names a
:class:`ReproError` subclass. The tests only parse and apply: nothing
calls ``nets()``, ``build_graph`` or a planner, so a fuzzed ``grid`` of
10**9 allocates nothing.
"""

import asyncio
import json
from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.errors
from repro.core.rabid import RabidConfig
from repro.errors import ReproError
from repro.service.jobs import (
    DELTA_KINDS,
    DeltaSpec,
    MacroSpec,
    ScenarioSpec,
    apply_delta,
)
from repro.service.protocol import ProtocolServer, job_from_dict
from repro.service.scheduler import PlanningService
from repro.technology import Technology

SPEC = ScenarioSpec(
    grid=8, num_nets=10, total_sites=50, macros=(MacroSpec(1, 1, 2, 2),)
)

DELTA_FIELDS = sorted({f for names in DELTA_KINDS.values() for f in names})
SCENARIO_FIELDS = sorted(set(SPEC.to_dict()) - {"version"})
CONFIG_FIELDS = [f.name for f in fields(RabidConfig)]
TECH_FIELDS = [f.name for f in fields(Technology)]
WORDS = [
    *DELTA_KINDS, "baseline", "delta", "incremental", "full", "single",
    "tech", "pd", "mcf", "dp", "net1",
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 9)  # in and around the 8x8 grid
    | st.integers()  # huge and negative
    | st.floats()
    | st.sampled_from(WORDS)
    | st.text(max_size=6)
)
keys = st.sampled_from(
    DELTA_FIELDS + SCENARIO_FIELDS + CONFIG_FIELDS + ["version"]
) | st.text(max_size=6)


def json_values(depth: int = 4):
    """Any JSON value nested at most ``depth`` lists or objects deep."""
    if depth == 0:
        return scalars
    inner = json_values(depth - 1)
    return (
        scalars
        | st.lists(inner, max_size=4)
        | st.dictionaries(keys, inner, max_size=4)
    )


JSON = json_values()


def objects(names, values=JSON):
    """Objects whose keys are mostly ``names`` (any subset), sometimes any."""
    return st.fixed_dictionaries(
        {}, optional={name: values for name in names}
    ) | st.dictionaries(keys, values, max_size=4)


SCENARIO_INTS = [
    "grid", "num_nets", "capacity", "seed", "length_limit", "total_sites",
    "site_seed",
]

delta_ops = st.fixed_dictionaries(
    {"kind": st.sampled_from(sorted(DELTA_KINDS)) | JSON},
    optional={name: JSON for name in DELTA_FIELDS},
)
scenario_fields = st.fixed_dictionaries(
    {name: st.integers() | JSON for name in SCENARIO_INTS},
    optional={
        name: JSON for name in SCENARIO_FIELDS if name not in SCENARIO_INTS
    },
) | objects(SCENARIO_FIELDS)
configs = JSON | objects(
    CONFIG_FIELDS,
    JSON | objects(TECH_FIELDS, st.floats() | st.integers() | JSON),
)
jobs = JSON | st.fixed_dictionaries(
    {},
    optional={
        "job_id": st.text(max_size=4) | JSON,
        "kind": st.sampled_from(["baseline", "delta"]) | JSON,
        "scenario": scenario_fields.map(lambda f: {"version": 1, **f}) | JSON,
        "baseline_id": st.text(max_size=4) | JSON,
        "delta": st.lists(delta_ops, max_size=2).map(
            lambda ops: {"version": 1, "ops": ops}
        ) | JSON,
        "mode": st.sampled_from(["incremental", "full"]) | JSON,
        "config": configs,
        "tenant": st.text(max_size=4) | JSON,
    },
)


def returns_or_raises_typed(call) -> None:
    try:
        call()
    except ReproError:
        pass


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(delta_ops, max_size=4) | JSON)
def test_delta_from_dict_then_apply(ops):
    returns_or_raises_typed(
        lambda: apply_delta(
            SPEC, DeltaSpec.from_dict({"version": 1, "ops": ops})
        )
    )


@settings(max_examples=200, deadline=None)
@given(fields_=scenario_fields)
def test_scenario_from_dict(fields_):
    returns_or_raises_typed(
        lambda: ScenarioSpec.from_dict({"version": 1, **fields_})
    )


@settings(max_examples=200, deadline=None)
@given(config=configs)
def test_config_from_dict(config):
    returns_or_raises_typed(lambda: RabidConfig.from_dict(config))


@settings(max_examples=200, deadline=None)
@given(job=jobs)
def test_job_from_dict(job):
    returns_or_raises_typed(lambda: job_from_dict(job))


PROTOCOL_OPS = [
    "submit", "status", "wait", "baselines", "stats", "checkpoint", "shutdown",
]
requests = st.fixed_dictionaries(
    {"op": st.sampled_from(PROTOCOL_OPS) | JSON},
    optional={
        "job": jobs,
        "job_id": st.text(max_size=4) | JSON,
        "directory": JSON,
        "only_dirty": JSON,
        "deadline": st.floats() | st.integers() | JSON,
    },
) | st.dictionaries(keys, JSON, max_size=4)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(request=requests)
@example(request={"op": "shutdown", "deadline": "abc"})
@example(request={"op": "shutdown", "deadline": [1]})
@example(request={"op": "shutdown", "deadline": -1})
@example(request={"op": "shutdown", "deadline": True})
@example(request={"op": "shutdown", "deadline": float("inf")})
def test_protocol_replies_ok_or_typed(request, tmp_path):
    """The service is never started, so a submit that parses is refused
    with ``ServiceError`` and nothing plans; a string ``directory`` is
    pointed at ``tmp_path`` so a checkpoint writes nowhere else."""
    if isinstance(request.get("directory"), str):
        request["directory"] = str(tmp_path)
    server = ProtocolServer(PlanningService())
    reply = asyncio.run(server._dispatch_line(json.dumps(request).encode()))
    if reply["ok"]:
        return
    error = getattr(repro.errors, reply["error"], None)
    assert isinstance(error, type) and issubclass(error, ReproError), reply
    if request.get("op") == "shutdown":
        assert error is repro.errors.ProtocolError, reply
        assert server.shutdown_deadline == 30.0
