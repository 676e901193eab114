"""Typed job model for the planning service.

A *scenario* describes a complete, reproducible planning instance: the
tile grid, a generated netlist (:func:`generate_nets`), a buffer
site scatter, and a set of *macros* — rectangular blocked regions that
host no buffer sites (the paper's 9x9 cache stand-in). A *delta* is a
list of typed operations perturbing a scenario: move a macro, override
``B(v)`` or ``W(e)``, add or remove a net, change a net's ``L``.

Both halves are plain dataclasses with versioned JSON round-trips, so
they travel over the ``repro serve`` JSON-lines protocol and into
checkpoints unchanged. Scenario evolution is pure: applying a delta
yields a *new* :class:`ScenarioSpec`, and a scenario fully determines
the plan a full re-plan would produce — the property the incremental
engine's sampled verification relies on.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.utils.rng import make_rng

JOB_SCHEMA_VERSION = 1

Tile = Tuple[int, int]


#: Each generated net has 1 to ``MAX_SINKS`` sinks.
MAX_SINKS = 4

#: A local net's sinks lie within ``SPAN`` tiles of its source.
SPAN = 8


def generate_nets(
    grid: int, num_nets: int, seed: int
) -> "Dict[str, Tuple[Tile, List[Tile]]]":
    """The seeded netlist recipe behind every generated scenario.

    Nets are local: each net's sinks lie within :data:`SPAN` tiles of its
    source, except every 25th net, whose sinks may land anywhere on the
    die. That matches placed-netlist locality and keeps maze windows
    meaningful. One ``np.random.default_rng(seed)`` stream draws every
    pin, so the netlist is deterministic in ``(grid, num_nets, seed)``.
    Net names are ``net<i>``, zero-padded to a common width.
    """
    rng = np.random.default_rng(seed)
    nets: Dict[str, Tuple[Tile, List[Tile]]] = {}
    width = len(str(num_nets - 1))
    for i in range(num_nets):
        sx, sy = (int(v) for v in rng.integers(0, grid, size=2))
        k = int(rng.integers(1, MAX_SINKS + 1))
        if i % 25 == 0:
            # A chip-crossing net: sinks anywhere on the die.
            offsets = rng.integers(0, grid, size=(k, 2))
            sinks = [(int(x), int(y)) for x, y in offsets]
        else:
            offsets = rng.integers(-SPAN, SPAN + 1, size=(k, 2))
            sinks = [
                (
                    min(grid - 1, max(0, sx + int(dx))),
                    min(grid - 1, max(0, sy + int(dy))),
                )
                for dx, dy in offsets
            ]
        nets[f"net{i:0{width}d}"] = ((sx, sy), sinks)
    return nets


@lru_cache(maxsize=64)
def _generated_nets(
    grid: int, num_nets: int, seed: int
) -> "Dict[str, Tuple[Tile, Tuple[Tile, ...]]]":
    """:func:`generate_nets` for a scenario's identity fields, memoized.

    Regenerating the netlist costs tens of milliseconds at the 500-net
    scale and every plan/replay/sweep evaluation needs it, so scenarios
    sharing (grid, num_nets, seed) — e.g. every point of a budget sweep
    — generate once per process. Values are stored as immutable tuples;
    :meth:`ScenarioSpec.nets` hands out fresh sink lists so callers
    can't corrupt the cache.
    """
    return {
        name: (source, tuple(sinks))
        for name, (source, sinks) in generate_nets(grid, num_nets, seed).items()
    }


# --------------------------------------------------------------------- #
# Scenario                                                              #
# --------------------------------------------------------------------- #


def _is_int(value: Any) -> bool:
    """An integer (numpy integers included); ``True`` is not tile 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class MacroSpec:
    """A blocked rectangle of tiles (no buffer sites inside)."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("macro dimensions must be >= 1")
        if self.x < 0 or self.y < 0:
            raise ConfigurationError("macro origin must be >= 0")

    def tiles(self, nx: int, ny: int) -> "frozenset[Tile]":
        """The macro's tiles, clipped to an ``nx`` x ``ny`` grid."""
        return frozenset(
            (x, y)
            for x in range(self.x, min(self.x + self.width, nx))
            for y in range(self.y, min(self.y + self.height, ny))
        )

    def as_list(self) -> List[int]:
        return [self.x, self.y, self.width, self.height]


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, reproducible planning instance.

    Attributes:
        grid: the die is ``grid`` x ``grid`` tiles (1mm tiles).
        num_nets: generated net count (:func:`generate_nets`,
            deterministic in ``grid`` and ``seed``).
        capacity: uniform wire capacity ``W(e)``.
        seed: net-generation seed.
        length_limit: default ``L`` for every net.
        total_sites: buffer sites scattered uniformly (before blocking).
        site_seed: scatter seed.
        macros: blocked regions; sites inside are zeroed.
        added_nets: explicit extra nets, name -> (source, sinks).
        removed_nets: generated/added net names excluded from the plan.
        length_limits: per-net ``L`` overrides.
        site_overrides: per-tile ``B(v)`` overrides (applied after macros).
        capacity_overrides: per-edge ``W(e)`` overrides, keyed by the
            canonical ``(u, v)`` tile pair (``u < v``).
        buffer_library: named buffer library
            (:data:`repro.technology.LIBRARY_NAMES`) Stage 3 sizes over
            with the ``multi_type`` strategy; ``""`` keeps the config's
            library (and solver) untouched. Omitted from the JSON form
            when empty so legacy scenario keys are unchanged.
    """

    grid: int = 16
    num_nets: int = 120
    capacity: int = 8
    seed: int = 0
    length_limit: int = 5
    total_sites: int = 600
    site_seed: int = 0
    macros: Tuple[MacroSpec, ...] = ()
    added_nets: "Tuple[Tuple[str, Tile, Tuple[Tile, ...]], ...]" = ()
    removed_nets: "Tuple[str, ...]" = ()
    length_limits: "Tuple[Tuple[str, int], ...]" = ()
    site_overrides: "Tuple[Tuple[Tile, int], ...]" = ()
    capacity_overrides: "Tuple[Tuple[Tile, Tile, int], ...]" = ()
    buffer_library: str = ""

    def __post_init__(self) -> None:
        if self.grid < 2:
            raise ConfigurationError("grid must be >= 2")
        if self.num_nets < 0:
            raise ConfigurationError("num_nets must be >= 0")
        if self.capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        if self.length_limit < 1:
            raise ConfigurationError("length_limit must be >= 1")
        if self.total_sites < 0:
            raise ConfigurationError("total_sites must be >= 0")
        # Tiles arrive from outside (deltas, JSON, the protocol); numpy
        # would read a negative index as a tile on the far side, and a
        # float or bool one as some other tile or an IndexError.
        for tile, count in self.site_overrides:
            self._check_tile(tile, "site override")
            if not _is_int(count) or count < 0:
                raise ConfigurationError(
                    f"site override count {count!r} at {tuple(tile)} "
                    "is not an integer >= 0"
                )
        for u, v, cap in self.capacity_overrides:
            self._check_tile(u, "capacity override")
            self._check_tile(v, "capacity override")
            if not _is_int(cap) or cap < 0:
                raise ConfigurationError(
                    f"capacity override {cap!r} on {tuple(u)}-{tuple(v)} "
                    "is not an integer >= 0"
                )
            if abs(u[0] - v[0]) + abs(u[1] - v[1]) != 1:
                raise ConfigurationError(
                    f"capacity override tiles {tuple(u)} and {tuple(v)} "
                    "are not adjacent"
                )
        for name, source, sinks in self.added_nets:
            for pin in (source, *sinks):
                self._check_tile(pin, f"net {name!r} pin")
        if self.buffer_library:
            from repro.technology import LIBRARY_NAMES

            if self.buffer_library not in LIBRARY_NAMES:
                raise ConfigurationError(
                    f"unknown buffer library {self.buffer_library!r}; "
                    f"expected one of {LIBRARY_NAMES}"
                )

    def _check_tile(self, tile: Tile, what: str) -> None:
        if not (_is_int(tile[0]) and _is_int(tile[1])):
            raise ConfigurationError(
                f"{what} {tuple(tile)} needs integer coordinates"
            )
        if not (0 <= tile[0] < self.grid and 0 <= tile[1] < self.grid):
            raise ConfigurationError(
                f"{what} {tuple(tile)} is outside the "
                f"{self.grid}x{self.grid} grid"
            )

    # -- derived content ------------------------------------------------ #

    def base_sites(self) -> np.ndarray:
        """The ``(grid, grid)`` site scatter before macro blocking.

        Deterministic in ``site_seed``; macros and overrides are applied
        on top by :meth:`effective_sites`, so moving a macro restores the
        sites its old footprint was hiding.
        """
        rng = make_rng(self.site_seed)
        n = self.grid * self.grid
        counts = np.zeros(n, dtype=np.int64)
        if self.total_sites:
            picks = rng.integers(0, n, size=self.total_sites)
            counts += np.bincount(picks, minlength=n)
        return counts.reshape(self.grid, self.grid)

    def effective_sites(self) -> np.ndarray:
        """``B(v)`` for every tile: scatter, minus macros, plus overrides."""
        sites = self.base_sites().copy()
        for macro in self.macros:
            for (x, y) in macro.tiles(self.grid, self.grid):
                sites[x, y] = 0
        for (tile, count) in self.site_overrides:
            sites[tile[0], tile[1]] = count
        return sites

    def nets(self) -> "Dict[str, Tuple[Tile, List[Tile]]]":
        """Net name -> (source, sinks), after adds and removals."""
        generated = _generated_nets(self.grid, self.num_nets, self.seed)
        out: Dict[str, Tuple[Tile, List[Tile]]] = {
            name: (source, list(sinks))
            for name, (source, sinks) in generated.items()
        }
        for name, source, sinks in self.added_nets:
            out[name] = (tuple(source), [tuple(s) for s in sinks])
        for name in self.removed_nets:
            out.pop(name, None)
        return out

    def limits(self, names) -> Dict[str, int]:
        """Per-net length limits for ``names`` (overrides over the default)."""
        overrides = dict(self.length_limits)
        return {n: overrides.get(n, self.length_limit) for n in names}

    # -- JSON ------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": JOB_SCHEMA_VERSION,
            "grid": self.grid,
            "num_nets": self.num_nets,
            "capacity": self.capacity,
            "seed": self.seed,
            "length_limit": self.length_limit,
            "total_sites": self.total_sites,
            "site_seed": self.site_seed,
            "macros": [m.as_list() for m in self.macros],
            "added_nets": [
                [name, list(source), [list(s) for s in sinks]]
                for name, source, sinks in self.added_nets
            ],
            "removed_nets": list(self.removed_nets),
            "length_limits": [[n, l] for n, l in self.length_limits],
            "site_overrides": [
                [list(tile), count] for tile, count in self.site_overrides
            ],
            "capacity_overrides": [
                [list(u), list(v), cap] for u, v, cap in self.capacity_overrides
            ],
            # Only non-empty values are serialized: legacy scenarios keep
            # their payload bytes (and scenario keys) exactly.
            **({"buffer_library": self.buffer_library} if self.buffer_library else {}),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ScenarioSpec":
        if d.get("version") != JOB_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported scenario schema {d.get('version')!r}"
            )
        return cls(
            grid=d["grid"],
            num_nets=d["num_nets"],
            capacity=d["capacity"],
            seed=d["seed"],
            length_limit=d["length_limit"],
            total_sites=d["total_sites"],
            site_seed=d["site_seed"],
            macros=tuple(MacroSpec(*m) for m in d.get("macros", ())),
            added_nets=tuple(
                (name, tuple(source), tuple(tuple(s) for s in sinks))
                for name, source, sinks in d.get("added_nets", ())
            ),
            removed_nets=tuple(d.get("removed_nets", ())),
            length_limits=tuple(
                (n, l) for n, l in d.get("length_limits", ())
            ),
            site_overrides=tuple(
                (tuple(tile), count) for tile, count in d.get("site_overrides", ())
            ),
            capacity_overrides=tuple(
                (tuple(u), tuple(v), cap)
                for u, v, cap in d.get("capacity_overrides", ())
            ),
            buffer_library=d.get("buffer_library", ""),
        )


# --------------------------------------------------------------------- #
# Deltas                                                                #
# --------------------------------------------------------------------- #

#: Delta operation kinds and their required JSON fields.
DELTA_KINDS = {
    "move_macro": ("index", "x", "y"),
    "set_sites": ("tiles",),
    "set_capacity": ("edges",),
    "add_net": ("name", "source", "sinks"),
    "remove_net": ("name",),
    "set_length_limit": ("name", "limit"),
}


@dataclass(frozen=True)
class DeltaOp:
    """One perturbation of a scenario (see :data:`DELTA_KINDS`)."""

    kind: str
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in DELTA_KINDS:
            raise ConfigurationError(
                f"unknown delta kind {self.kind!r}; expected one of "
                f"{sorted(DELTA_KINDS)}"
            )
        missing = [k for k in DELTA_KINDS[self.kind] if k not in self.args]
        if missing:
            raise ConfigurationError(
                f"delta op {self.kind!r} is missing fields {missing}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.args}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "DeltaOp":
        d = dict(d)
        kind = d.pop("kind", None)
        if not isinstance(kind, str):
            raise ConfigurationError("delta op needs a string 'kind'")
        return cls(kind=kind, args=d)


def move_macro(index: int, x: int, y: int) -> DeltaOp:
    """Move macro ``index`` so its lower-left tile is ``(x, y)``."""
    return DeltaOp("move_macro", {"index": index, "x": x, "y": y})


def set_sites(tiles: "List[Tuple[int, int, int]]") -> DeltaOp:
    """Override ``B(v)``: ``tiles`` is a list of ``(x, y, count)``."""
    return DeltaOp("set_sites", {"tiles": [list(t) for t in tiles]})


def set_capacity(edges: "List[Tuple[int, int, int, int, int]]") -> DeltaOp:
    """Override ``W(e)``: entries are ``(ux, uy, vx, vy, capacity)``."""
    return DeltaOp("set_capacity", {"edges": [list(e) for e in edges]})


def add_net(name: str, source: Tile, sinks: "List[Tile]") -> DeltaOp:
    return DeltaOp(
        "add_net",
        {"name": name, "source": list(source), "sinks": [list(s) for s in sinks]},
    )


def remove_net(name: str) -> DeltaOp:
    return DeltaOp("remove_net", {"name": name})


def set_length_limit(name: str, limit: int) -> DeltaOp:
    return DeltaOp("set_length_limit", {"name": name, "limit": limit})


@dataclass(frozen=True)
class DeltaSpec:
    """An ordered list of delta operations against a baseline scenario."""

    ops: Tuple[DeltaOp, ...] = ()

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigurationError("a delta needs at least one operation")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": JOB_SCHEMA_VERSION,
            "ops": [op.to_dict() for op in self.ops],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "DeltaSpec":
        if d.get("version") != JOB_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported delta schema {d.get('version')!r}"
            )
        return cls(ops=tuple(DeltaOp.from_dict(op) for op in d.get("ops", ())))


def _canonical_edge(u: Tile, v: Tile) -> Tuple[Tile, Tile]:
    return (u, v) if u <= v else (v, u)


def apply_delta(spec: ScenarioSpec, delta: DeltaSpec) -> ScenarioSpec:
    """Pure scenario evolution: ``spec`` + ``delta`` -> new spec.

    The result is what a *full* re-plan of the perturbed design would be
    built from; the incremental engine must converge to the same plan.
    """
    macros = list(spec.macros)
    added = dict(
        (name, (source, sinks)) for name, source, sinks in spec.added_nets
    )
    removed = set(spec.removed_nets)
    limits = dict(spec.length_limits)
    site_over = dict(spec.site_overrides)
    cap_over = {
        _canonical_edge(u, v): cap for u, v, cap in spec.capacity_overrides
    }
    for op in delta.ops:
        a = op.args
        if op.kind == "move_macro":
            idx = a["index"]
            if not 0 <= idx < len(macros):
                raise ConfigurationError(
                    f"move_macro index {idx} out of range ({len(macros)} macros)"
                )
            macros[idx] = replace(macros[idx], x=a["x"], y=a["y"])
        elif op.kind == "set_sites":
            for x, y, count in a["tiles"]:
                site_over[(x, y)] = count
        elif op.kind == "set_capacity":
            for ux, uy, vx, vy, cap in a["edges"]:
                cap_over[_canonical_edge((ux, uy), (vx, vy))] = cap
        elif op.kind == "add_net":
            name = a["name"]
            removed.discard(name)
            added[name] = (
                tuple(a["source"]),
                tuple(tuple(s) for s in a["sinks"]),
            )
        elif op.kind == "remove_net":
            name = a["name"]
            added.pop(name, None)
            removed.add(name)
            limits.pop(name, None)
        elif op.kind == "set_length_limit":
            if a["limit"] < 1:
                raise ConfigurationError("length limit must be >= 1")
            limits[a["name"]] = a["limit"]
    return replace(
        spec,
        macros=tuple(macros),
        added_nets=tuple(
            (name, source, sinks) for name, (source, sinks) in sorted(added.items())
        ),
        removed_nets=tuple(sorted(removed)),
        length_limits=tuple(sorted(limits.items())),
        site_overrides=tuple(sorted(site_over.items())),
        capacity_overrides=tuple(
            (u, v, cap) for (u, v), cap in sorted(cap_over.items())
        ),
    )


# --------------------------------------------------------------------- #
# Jobs                                                                  #
# --------------------------------------------------------------------- #


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    SHED = "shed"


#: Job kinds the scheduler understands.
JOB_KINDS = ("baseline", "delta")


@dataclass
class Job:
    """One unit of planning work.

    ``kind == "baseline"`` carries a scenario (and optionally a config
    dict); ``kind == "delta"`` carries a baseline id plus a delta, with
    ``mode`` choosing ``"incremental"`` (dirty-region replay, the
    default) or ``"full"`` (scratch re-plan of the evolved scenario).
    ``tenant`` names the submitting client: the scheduler queues each
    tenant's jobs separately and serves the tenants at equal rates.
    """

    job_id: str
    kind: str
    scenario: Optional[ScenarioSpec] = None
    baseline_id: Optional[str] = None
    delta: Optional[DeltaSpec] = None
    mode: str = "incremental"
    config: Optional[Dict[str, Any]] = None
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ProtocolError(f"unknown job kind {self.kind!r}")
        if self.kind == "baseline" and self.scenario is None:
            raise ProtocolError("baseline job needs a scenario")
        if self.kind == "delta":
            if not self.baseline_id or self.delta is None:
                raise ProtocolError("delta job needs baseline_id and delta")
            if not isinstance(self.delta, DeltaSpec):
                raise ProtocolError(
                    "job delta must be a DeltaSpec (wrap single ops in "
                    "DeltaSpec(ops=(op,)))"
                )
            if self.mode not in ("incremental", "full"):
                raise ProtocolError(f"unknown delta mode {self.mode!r}")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ProtocolError("job tenant must be a non-empty string")


@dataclass
class JobRecord:
    """Mutable job lifecycle state kept by the scheduler.

    ``shard`` is the shard of the job's baseline, ``preemptions`` counts
    the attempts a cheap job preempted, and ``rebuilt`` says whether the
    committed attempt first rebuilt the baseline's plan from its chain.
    """

    job: Job
    status: JobStatus = JobStatus.QUEUED
    attempts: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    shard: int = 0
    preemptions: int = 0
    rebuilt: bool = False

    @property
    def queue_wait(self) -> float:
        """Seconds spent queued before the first execution attempt."""
        if self.started_at <= 0.0 or self.submitted_at <= 0.0:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job_id": self.job.job_id,
            "kind": self.job.kind,
            "status": self.status.value,
            "attempts": self.attempts,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        out["tenant"] = self.job.tenant
        out["shard"] = self.shard
        if self.preemptions:
            out["preemptions"] = self.preemptions
        return out
