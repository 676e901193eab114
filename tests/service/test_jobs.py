"""Scenario/delta/job model: round-trips, validation, pure evolution."""

import numpy as np
import pytest

from repro.core.rabid import RabidConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.service.jobs import (
    DeltaOp,
    DeltaSpec,
    Job,
    MacroSpec,
    ScenarioSpec,
    add_net,
    apply_delta,
    move_macro,
    remove_net,
    set_capacity,
    set_length_limit,
    set_sites,
)


def small_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        grid=10, num_nets=20, total_sites=200, macros=(MacroSpec(2, 2, 3, 3),)
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestScenarioSpec:
    def test_round_trip(self):
        spec = small_spec(
            added_nets=((("extra"), (0, 0), ((5, 5), (2, 7))),),
            removed_nets=("net03",),
            length_limits=(("net01", 7),),
            site_overrides=(((4, 4), 9),),
            capacity_overrides=(((0, 0), (1, 0), 3),),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_bad_version_rejected(self):
        d = small_spec().to_dict()
        d["version"] = 99
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(d)

    def test_macro_blocks_sites(self):
        spec = small_spec()
        sites = spec.effective_sites()
        for x, y in spec.macros[0].tiles(10, 10):
            assert sites[x, y] == 0

    def test_moving_macro_restores_old_footprint(self):
        spec = small_spec()
        moved = apply_delta(spec, DeltaSpec((move_macro(0, 6, 6),)))
        base = spec.base_sites()
        sites = moved.effective_sites()
        for x, y in spec.macros[0].tiles(10, 10):
            if (x, y) not in moved.macros[0].tiles(10, 10):
                assert sites[x, y] == base[x, y]

    def test_site_override_beats_macro(self):
        spec = small_spec(site_overrides=(((2, 2), 5),))
        assert spec.effective_sites()[2, 2] == 5

    def test_base_sites_deterministic_and_conserved(self):
        spec = small_spec()
        a, b = spec.base_sites(), spec.base_sites()
        assert np.array_equal(a, b)
        assert int(a.sum()) == spec.total_sites

    def test_nets_add_remove(self):
        spec = small_spec(
            added_nets=(("extra", (0, 0), ((5, 5),)),),
            removed_nets=("net00",),
        )
        nets = spec.nets()
        assert "extra" in nets and "net00" not in nets

    def test_limits_with_overrides(self):
        spec = small_spec(length_limits=(("net01", 9),))
        limits = spec.limits(["net00", "net01"])
        assert limits == {"net00": spec.length_limit, "net01": 9}

    @pytest.mark.parametrize("limit", [0, -3])
    def test_per_net_limit_below_one_refused(self, limit):
        """As ``apply_delta`` refuses ``set_length_limit`` with it, so the
        spec itself refuses a per-net limit below 1, from any source."""
        with pytest.raises(ConfigurationError, match="net1"):
            ScenarioSpec(
                grid=8, num_nets=10, total_sites=50,
                length_limits=(("net1", limit),),
            )
        d = ScenarioSpec(grid=8, num_nets=10, total_sites=50).to_dict()
        d["length_limits"] = [["net1", limit]]
        with pytest.raises(ConfigurationError, match="net1"):
            ScenarioSpec.from_dict(d)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(grid=1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(capacity=0)
        with pytest.raises(ConfigurationError):
            MacroSpec(0, 0, 0, 3)


class TestDeltas:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown delta kind"):
            DeltaOp("teleport_macro", {})

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="missing fields"):
            DeltaOp("move_macro", {"index": 0})

    def test_empty_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            DeltaSpec(ops=())

    def test_round_trip(self):
        delta = DeltaSpec(
            ops=(
                move_macro(0, 5, 5),
                set_sites([(1, 1, 4)]),
                set_capacity([(0, 0, 1, 0, 2)]),
                add_net("x", (0, 0), [(3, 3)]),
                remove_net("net01"),
                set_length_limit("net02", 8),
            )
        )
        assert DeltaSpec.from_dict(delta.to_dict()) == delta

    def test_apply_is_pure(self):
        spec = small_spec()
        before = spec.to_dict()
        apply_delta(spec, DeltaSpec((move_macro(0, 6, 6),)))
        assert spec.to_dict() == before

    def test_apply_each_kind(self):
        spec = small_spec()
        out = apply_delta(
            spec,
            DeltaSpec(
                ops=(
                    move_macro(0, 6, 6),
                    set_sites([(1, 1, 4)]),
                    set_capacity([(0, 0, 0, 1, 2)]),
                    add_net("x", (0, 0), [(3, 3)]),
                    remove_net("net01"),
                    set_length_limit("net02", 8),
                )
            ),
        )
        assert out.macros[0] == MacroSpec(6, 6, 3, 3)
        assert ((1, 1), 4) in out.site_overrides
        assert ((0, 0), (0, 1), 2) in out.capacity_overrides
        assert "x" in out.nets() and "net01" not in out.nets()
        assert out.limits(["net02"])["net02"] == 8

    def test_remove_then_add_back(self):
        spec = small_spec()
        out = apply_delta(spec, DeltaSpec((remove_net("net01"),)))
        out = apply_delta(out, DeltaSpec((add_net("net01", (0, 0), [(2, 2)]),)))
        assert out.nets()["net01"] == ((0, 0), [(2, 2)])

    def test_move_macro_bad_index(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            apply_delta(small_spec(), DeltaSpec((move_macro(3, 0, 0),)))

    def test_bad_length_limit(self):
        with pytest.raises(ConfigurationError):
            apply_delta(small_spec(), DeltaSpec((set_length_limit("n", 0),)))


class TestOffGridTiles:
    """Tiles outside the grid are refused, not wrapped onto other tiles."""

    SPEC = ScenarioSpec(grid=8, num_nets=10, total_sites=50)

    @pytest.mark.parametrize(
        "op",
        [
            set_sites([(-1, 0, 7)]),  # once set B(7, 0) = 7
            set_sites([(9, 0, 7)]),  # once a bare IndexError
            set_capacity([(7, 0, 8, 0, 3)]),  # once edge ((0, 0), (0, 1))
            set_capacity([(0, 0, -1, 0, 3)]),  # once edge ((6, 6), (6, 7))
            set_capacity([(0, 0, 2, 0, 3)]),  # not adjacent
            add_net("x", (-1, 2), [(3, 3)]),
            add_net("x", (0, 0), [(9, 3)]),
        ],
        ids=[
            "sites-negative", "sites-beyond", "capacity-beyond",
            "capacity-negative", "capacity-not-adjacent", "net-source",
            "net-sink",
        ],
    )
    def test_delta_rejected(self, op):
        with pytest.raises(ConfigurationError):
            apply_delta(self.SPEC, DeltaSpec((op,)))

    def test_from_dict_rejects_off_grid_site_override(self):
        payload = self.SPEC.to_dict()
        payload["site_overrides"] = [[[0, -1], 4]]  # once landed on (0, 7)
        with pytest.raises(ConfigurationError, match="outside"):
            ScenarioSpec.from_dict(payload)

    def test_in_grid_edits_still_apply(self):
        out = apply_delta(self.SPEC, DeltaSpec((
            set_sites([(7, 7, 2)]),
            set_capacity([(6, 7, 7, 7, 1)]),
            add_net("x", (0, 0), [(7, 7)]),
        )))
        assert out.effective_sites()[7, 7] == 2
        assert ((6, 7), (7, 7), 1) in out.capacity_overrides


class TestTypedTiles:
    """Tile coordinates, site counts and capacities must be integers."""

    SPEC = ScenarioSpec(grid=8, num_nets=10, total_sites=50)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: set_sites([(1.5, 0, 3)]),  # once a bare IndexError in build_graph
            lambda: set_sites([("a", 0, 3)]),  # once a bare TypeError
            lambda: set_sites([(True, 0, 3)]),  # once read as tile (1, 0)
            lambda: set_sites([(1, 0, 2.5)]),
            lambda: set_capacity([(0, 0, 1, 0, 2.5)]),  # once stored as 2
            lambda: add_net("x", (0, 0.5), [(3, 3)]),
        ],
        ids=[
            "sites-float-tile", "sites-str-tile", "sites-bool-tile",
            "sites-float-count", "capacity-float", "net-float-pin",
        ],
    )
    def test_delta_rejected(self, build):
        # Built inside the check: the op itself refuses these fields.
        with pytest.raises(ConfigurationError):
            apply_delta(self.SPEC, DeltaSpec((build(),)))

    def test_numpy_integers_accepted(self):
        x, count = np.int64(3), np.int32(4)
        out = apply_delta(self.SPEC, DeltaSpec((
            set_sites([(x, 0, count)]),
            set_capacity([(x, 0, x + 1, 0, count)]),
        )))
        assert out.effective_sites()[3, 0] == 4


class TestNegativeCounts:
    """Site counts and capacities are refused below 0 at the input
    boundary; both once passed ``apply_delta`` and failed only when the
    plan was built."""

    SPEC = ScenarioSpec(grid=8, num_nets=10, total_sites=50)

    @pytest.mark.parametrize(
        "op",
        [set_sites([(1, 1, -2)]), set_capacity([(1, 1, 2, 1, -1)])],
        ids=["sites", "capacity"],
    )
    def test_delta_rejected(self, op):
        with pytest.raises(ConfigurationError, match=">= 0"):
            apply_delta(self.SPEC, DeltaSpec((op,)))

    @pytest.mark.parametrize(
        "key, entry",
        [("site_overrides", [[1, 1], -2]), ("capacity_overrides", [[1, 1], [2, 1], -1])],
        ids=["sites", "capacity"],
    )
    def test_from_dict_rejected(self, key, entry):
        payload = self.SPEC.to_dict()
        payload[key] = [entry]
        with pytest.raises(ConfigurationError, match=">= 0"):
            ScenarioSpec.from_dict(payload)

    def test_zero_stays_legal(self):
        out = apply_delta(self.SPEC, DeltaSpec((
            set_sites([(1, 1, 0)]),
            set_capacity([(1, 1, 2, 1, 0)]),
        )))
        assert out.effective_sites()[1, 1] == 0
        assert ((1, 1), (2, 1), 0) in out.capacity_overrides


PROBE_SPEC = ScenarioSpec(
    grid=8, num_nets=10, total_sites=50, macros=(MacroSpec(1, 1, 2, 2),)
)


def _delta_probe(ops):
    return lambda: apply_delta(
        PROBE_SPEC, DeltaSpec.from_dict({"version": 1, "ops": ops})
    )


def _scenario_probe(**fields):
    return lambda: ScenarioSpec.from_dict({**PROBE_SPEC.to_dict(), **fields})


#: Malformed job input, each once a bare exception (named) or accepted.
PROBES = {
    "sites-str": _delta_probe([{"kind": "set_sites", "tiles": "abc"}]),  # ValueError
    "sites-short": _delta_probe([{"kind": "set_sites", "tiles": [[1, 1]]}]),  # ValueError
    "capacity-short": _delta_probe(
        [{"kind": "set_capacity", "edges": [[0, 0, 1, 0]]}]
    ),  # ValueError
    "limit-str": _delta_probe(
        [{"kind": "set_length_limit", "name": "net1", "limit": "x"}]
    ),  # TypeError
    "macro-index-str": _delta_probe(
        [{"kind": "move_macro", "index": "z", "x": 0, "y": 0}]
    ),  # TypeError
    "net-sinks-int": _delta_probe(
        [{"kind": "add_net", "name": "x", "source": [0, 0], "sinks": 7}]
    ),  # TypeError
    "op-int": _delta_probe([5]),  # TypeError
    "ops-str": _delta_probe("nope"),  # ValueError
    "remove-name-list": _delta_probe(
        [{"kind": "remove_net", "name": ["a"]}]
    ),  # TypeError
    "net-name-int": _delta_probe(
        [{"kind": "add_net", "name": 5, "source": [0, 0], "sinks": [[1, 1]]}]
    ),  # accepted
    "delta-list": lambda: DeltaSpec.from_dict([]),  # AttributeError
    "scenario-list": lambda: ScenarioSpec.from_dict([]),  # AttributeError
    "scenario-no-grid": lambda: ScenarioSpec.from_dict({"version": 1}),  # KeyError
    "scenario-macro-short": _scenario_probe(macros=[[1]]),  # TypeError
    "config-list": lambda: RabidConfig.from_dict([]),  # AttributeError
    "config-limits-int": lambda: RabidConfig.from_dict(
        {"length_limits": 5}
    ),  # AttributeError
    "config-limit-str": lambda: RabidConfig.from_dict(
        {"length_limit": "a"}
    ),  # TypeError
    "config-technology-int": lambda: RabidConfig.from_dict(
        {"technology": 5}
    ),  # accepted
}


class TestTypedJobInput:
    """Malformed job input raises ConfigurationError at parse time."""

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_refused(self, probe):
        with pytest.raises(ConfigurationError):
            PROBES[probe]()


class TestJobs:
    def test_baseline_needs_scenario(self):
        with pytest.raises(ProtocolError):
            Job("j0", "baseline")

    def test_delta_needs_baseline_and_delta(self):
        with pytest.raises(ProtocolError):
            Job("j0", "delta", baseline_id="b0")

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError):
            Job("j0", "mystery", scenario=small_spec())

    def test_unknown_mode(self):
        with pytest.raises(ProtocolError):
            Job(
                "j0",
                "delta",
                baseline_id="b0",
                delta=DeltaSpec((remove_net("n"),)),
                mode="psychic",
            )
