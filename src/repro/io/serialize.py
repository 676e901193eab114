"""JSON serialization for netlists, tile graphs, and planning results.

The paper's flow hands results between tools (floorplanner -> planner ->
timing); this module provides the interchange layer: a versioned JSON
schema covering the benchmark instance (die, blocks, pins, sites,
capacities) and the planning result (per-net tile trees plus buffer
annotations), with exact round-tripping.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigurationError, UnknownBufferKindError
from repro.floorplan import Block, Floorplan
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.routing.tree import BufferSpec, RouteTree
from repro.tilegraph import CapacityModel, TileGraph

SCHEMA_VERSION = 1

#: Schema of the per-buffer entries inside a routes payload. Version 1
#: (implicit — legacy payloads carry no ``buffer_schema`` key) knows only
#: the singleton planning repeater; version 2 adds an optional ``kind``
#: field naming the library cell, omitted when it is the library default
#: so default-kind payloads stay byte-identical to version 1.
BUFFER_SCHEMA_VERSION = 2

#: Schema of the config / ledger / whole-plan payloads (added with the
#: planning service; independent of the instance schema above).
PLAN_SCHEMA_VERSION = 1


# --------------------------------------------------------------------- #
# Netlists                                                              #
# --------------------------------------------------------------------- #

def _pin_to_dict(pin: Pin) -> Dict[str, Any]:
    return {
        "name": pin.name,
        "x": pin.location.x,
        "y": pin.location.y,
        "owner": pin.owner,
    }


def _pin_from_dict(d: Dict[str, Any]) -> Pin:
    return Pin(name=d["name"], location=Point(d["x"], d["y"]), owner=d["owner"])


def netlist_to_dict(netlist: Netlist) -> Dict[str, Any]:
    return {
        "version": SCHEMA_VERSION,
        "nets": [
            {
                "name": net.name,
                "source": _pin_to_dict(net.source),
                "sinks": [_pin_to_dict(s) for s in net.sinks],
            }
            for net in netlist
        ],
    }


def netlist_from_dict(d: Dict[str, Any]) -> Netlist:
    if d.get("version") != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported netlist schema {d.get('version')!r}")
    out = Netlist()
    for nd in d["nets"]:
        out.add(
            Net(
                name=nd["name"],
                source=_pin_from_dict(nd["source"]),
                sinks=[_pin_from_dict(s) for s in nd["sinks"]],
            )
        )
    return out


# --------------------------------------------------------------------- #
# Routes                                                                #
# --------------------------------------------------------------------- #

def _buffer_to_dict(spec: BufferSpec) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "tile": list(spec.tile),
        "drives_child": list(spec.drives_child) if spec.drives_child else None,
    }
    if spec.kind:
        out["kind"] = spec.kind
    return out


def routes_to_dict(routes: Dict[str, RouteTree]) -> Dict[str, Any]:
    """Serialize per-net routes: parent edges, sinks, buffers, read box.

    Buffer entries follow :data:`BUFFER_SCHEMA_VERSION`: a ``kind`` key is
    present only on buffers assigned a non-default library kind. A
    ``read_box`` key (the maze search's window, see
    :attr:`RouteTree.read_box`) is present only on trees that have one.
    """
    payload = {}
    for name in sorted(routes):
        tree = routes[name]
        payload[name] = {
            "source": list(tree.source),
            "edges": [
                [list(parent), list(child)] for parent, child in tree.edges()
            ],
            "sinks": [list(t) for t in tree.sink_tiles],
            "buffers": [
                _buffer_to_dict(spec) for spec in tree.buffer_specs()
            ],
        }
        if tree.read_box is not None:
            payload[name]["read_box"] = [int(v) for v in tree.read_box]
    return {
        "version": SCHEMA_VERSION,
        "buffer_schema": BUFFER_SCHEMA_VERSION,
        "routes": payload,
    }


def _buffer_from_dict(bd: Dict[str, Any], library) -> BufferSpec:
    kind = bd.get("kind", "")
    if kind and library is not None:
        try:
            library.get(kind)
        except ConfigurationError:
            known = sorted(k.name for k in library.kinds)
            raise UnknownBufferKindError(
                f"buffer payload names kind {kind!r}, not in the active "
                f"library (knows {known})"
            ) from None
    return BufferSpec(
        tuple(bd["tile"]),
        tuple(bd["drives_child"]) if bd["drives_child"] else None,
        kind,
    )


def _read_box_from(value: Any, tree: RouteTree, grid) -> Tuple[int, int, int, int]:
    """Validate a payload's read box: four integers, inside ``grid`` when
    given, covering every tile of ``tree``."""
    if not (
        isinstance(value, list)
        and len(value) == 4
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigurationError(
            f"net {tree.net_name!r} read_box {value!r} is not four integers"
        )
    x0, y0, x1, y1 = value
    if grid is not None and not (0 <= x0 <= x1 < grid[0] and 0 <= y0 <= y1 < grid[1]):
        raise ConfigurationError(
            f"net {tree.net_name!r} read_box {value} is outside the "
            f"{grid[0]}x{grid[1]} grid"
        )
    if not all(x0 <= x <= x1 and y0 <= y <= y1 for x, y in tree.nodes):
        raise ConfigurationError(
            f"net {tree.net_name!r} read_box {value} does not cover its tree"
        )
    return x0, y0, x1, y1


def routes_from_dict(
    d: Dict[str, Any], library=None, grid: "Tuple[int, int] | None" = None
) -> Dict[str, RouteTree]:
    """Inverse of :func:`routes_to_dict`.

    Legacy payloads (no ``buffer_schema`` key, buffers without ``kind``)
    load with every buffer as the library default (``""``). When
    ``library`` (a :class:`repro.technology.BufferLibrary`) is given,
    named kinds are validated against it and an unknown name raises
    :class:`repro.errors.UnknownBufferKindError`. A tree without a
    ``read_box`` key loads with ``read_box = None`` (the whole grid); a
    box that is not four integers inside ``grid`` (when given) covering
    the tree raises :class:`repro.errors.ConfigurationError`.
    """
    if d.get("version") != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported routes schema {d.get('version')!r}")
    buffer_schema = d.get("buffer_schema", 1)
    if buffer_schema not in (1, BUFFER_SCHEMA_VERSION):
        raise ConfigurationError(
            f"unsupported buffer schema {buffer_schema!r}"
        )
    out: Dict[str, RouteTree] = {}
    for name, rd in d["routes"].items():
        source: Tuple[int, int] = tuple(rd["source"])  # type: ignore[assignment]
        parent = {tuple(child): tuple(par) for par, child in rd["edges"]}
        sinks = [tuple(t) for t in rd["sinks"]]
        tree = RouteTree.from_parent_map(source, parent, sinks, net_name=name)
        tree.apply_buffers(
            [_buffer_from_dict(bd, library) for bd in rd["buffers"]]
        )
        if "read_box" in rd:
            tree.read_box = _read_box_from(rd["read_box"], tree, grid)
        out[name] = tree
    return out


# --------------------------------------------------------------------- #
# Whole instances                                                       #
# --------------------------------------------------------------------- #

def instance_to_dict(
    die: Rect,
    floorplan: Floorplan,
    netlist: Netlist,
    graph: TileGraph,
) -> Dict[str, Any]:
    return {
        "version": SCHEMA_VERSION,
        "die": [die.x0, die.y0, die.x1, die.y1],
        "blocks": [
            {
                "name": b.name,
                "x": b.x,
                "y": b.y,
                "width": b.width,
                "height": b.height,
                "allows_buffer_sites": b.allows_buffer_sites,
            }
            for b in floorplan.blocks
        ],
        "netlist": netlist_to_dict(netlist),
        "grid": [graph.nx, graph.ny],
        "sites": graph.sites.tolist(),
        "h_capacity": graph.h_capacity.tolist(),
        "v_capacity": graph.v_capacity.tolist(),
    }


def _instance_from_dict(d: Dict[str, Any]):
    if d.get("version") != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported instance schema {d.get('version')!r}")
    die = Rect(*d["die"])
    blocks = [
        Block(
            name=bd["name"],
            width=bd["width"],
            height=bd["height"],
            x=bd["x"],
            y=bd["y"],
            allows_buffer_sites=bd["allows_buffer_sites"],
        )
        for bd in d["blocks"]
    ]
    floorplan = Floorplan(die=die, blocks=blocks)
    netlist = netlist_from_dict(d["netlist"])
    nx, ny = d["grid"]
    graph = TileGraph(die, nx, ny, CapacityModel.uniform(0))
    import numpy as np

    graph.sites[:] = np.asarray(d["sites"], dtype=np.int64)
    graph._notify_all_sites_changed()
    graph.h_capacity[:] = np.asarray(d["h_capacity"], dtype=np.int64)
    graph.v_capacity[:] = np.asarray(d["v_capacity"], dtype=np.int64)
    return die, floorplan, netlist, graph


# --------------------------------------------------------------------- #
# Configs, ledger state, whole plans                                    #
# --------------------------------------------------------------------- #

def config_to_dict(config) -> Dict[str, Any]:
    """Serialize a full :class:`repro.core.RabidConfig`.

    Every field round-trips — per-net length limits, the buffer library
    and the expanded technology parameters. Loading goes through
    :meth:`RabidConfig.from_dict`, which drops or refuses the keys of
    retired fields.
    """
    return {"version": PLAN_SCHEMA_VERSION, "config": config.as_dict()}


def config_from_dict(d: Dict[str, Any]):
    if d.get("version") != PLAN_SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported config schema {d.get('version')!r}")
    from repro.core.rabid import RabidConfig

    return RabidConfig.from_dict(d["config"])


def ledger_state_to_dict(ledger) -> Dict[str, Any]:
    """Serialize a :class:`SiteLedger`'s used/capacity vectors."""
    state = ledger.snapshot_state()
    return {"version": PLAN_SCHEMA_VERSION, **state}


def ledger_state_from_dict(d: Dict[str, Any], ledger) -> None:
    """Install a serialized ledger state onto ``ledger``'s graph."""
    if d.get("version") != PLAN_SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported ledger schema {d.get('version')!r}")
    state = {"used": d["used"], "capacity": d["capacity"]}
    if "kinds" in d:
        state["kinds"] = d["kinds"]
    ledger.restore_state(state)


def plan_to_dict(graph: TileGraph, routes: Dict[str, RouteTree], config) -> Dict[str, Any]:
    """Serialize a complete plan: graph state + routes + config.

    The payload captures everything needed to resume planning warm —
    ``B(v)``/``b(v)`` through the ledger, wire capacity/usage, every
    net's tree with buffer annotations, and the full planner config.
    """
    return {
        "version": PLAN_SCHEMA_VERSION,
        "die": [graph.die.x0, graph.die.y0, graph.die.x1, graph.die.y1],
        "grid": [graph.nx, graph.ny],
        "ledger": ledger_state_to_dict(graph.ledger()),
        "edge_capacity": graph.edge_capacity.tolist(),
        "edge_usage": graph.edge_usage.tolist(),
        "routes": routes_to_dict(routes),
        "config": config_to_dict(config),
    }


def plan_from_dict(d: Dict[str, Any]):
    """Inverse of :func:`plan_to_dict`.

    Returns ``(graph, routes, config)`` with all usage state installed.
    """
    if d.get("version") != PLAN_SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported plan schema {d.get('version')!r}")
    import numpy as np

    die = Rect(*d["die"])
    nx, ny = d["grid"]
    graph = TileGraph(die, nx, ny, CapacityModel.uniform(0))
    graph.edge_capacity[:] = np.asarray(d["edge_capacity"], dtype=np.int64)
    graph.edge_usage[:] = np.asarray(d["edge_usage"], dtype=np.int64)
    graph._notify_all_usage_changed()
    ledger_state_from_dict(d["ledger"], graph.ledger())
    config = config_from_dict(d["config"])
    from repro.technology import resolve_library

    library = resolve_library(config.buffer_library, config.technology)
    routes = routes_from_dict(d["routes"], library=library, grid=(nx, ny))
    return graph, routes, config


def save_plan_json(path: "str | Path", graph, routes, config) -> None:
    """Write a complete plan (graph state + routes + config) to JSON."""
    Path(path).write_text(json.dumps(plan_to_dict(graph, routes, config)))


def load_plan_json(path: "str | Path"):
    """Read a plan written by :func:`save_plan_json`."""
    return plan_from_dict(json.loads(Path(path).read_text()))


def save_instance_json(
    path: "str | Path",
    die: Rect,
    floorplan: Floorplan,
    netlist: Netlist,
    graph: TileGraph,
) -> None:
    """Write a complete planning instance to a JSON file."""
    Path(path).write_text(
        json.dumps(instance_to_dict(die, floorplan, netlist, graph))
    )


def load_instance_json(path: "str | Path"):
    """Read an instance written by :func:`save_instance_json`.

    Returns ``(die, floorplan, netlist, graph)``.
    """
    return _instance_from_dict(json.loads(Path(path).read_text()))
