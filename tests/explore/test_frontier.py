"""Pareto dominance, canonical reports, and sensitivity analysis."""

from dataclasses import replace

from repro.core import RabidConfig
from repro.explore import (
    Dimension,
    OBJECTIVES,
    ParameterSpace,
    frontier_report,
    pareto_frontier,
    render_frontier_table,
    render_sensitivity,
    report_bytes,
    sensitivity_report,
)
from repro.explore.executor import ExploreResult
from repro.explore.frontier import dominates, objective_vector
from repro.explore.space import SamplePoint
from repro.explore.store import EvalRecord, scenario_key
from repro.service.jobs import ScenarioSpec


def record(key, unassigned=0, sites=100, wire=50, wl=20, delay=10.0, **extra):
    metrics = {
        "unassigned_nets": unassigned,
        "site_budget": sites,
        "wire_budget": wire,
        "wirelength_tiles": wl,
        "max_delay_ps": delay,
        "buffers": extra.pop("buffers", 3),
        "cost": extra.pop("cost", 1.0),
        "signature": "s",
    }
    return EvalRecord(
        key=key, scenario={}, status="ok", metrics=metrics, **extra
    )


def crashed(key):
    return EvalRecord(key=key, scenario={}, status="crashed", error="x")


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates((0, 1, 1, 1, 1), (0, 2, 1, 1, 1))

    def test_equal_does_not_dominate(self):
        assert not dominates((0, 1, 1, 1, 1), (0, 1, 1, 1, 1))

    def test_tradeoff_does_not_dominate(self):
        assert not dominates((0, 1, 2, 1, 1), (0, 2, 1, 1, 1))

    def test_objective_vector_order(self):
        vec = objective_vector(record("a", unassigned=2, sites=7))
        assert vec[0] == 2  # feasibility axis first
        assert vec[1] == 7
        assert len(vec) == len(OBJECTIVES)


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        records = [
            record("cheap", sites=50),
            record("dominated", sites=80),  # worse sites, same elsewhere
        ]
        frontier = pareto_frontier(records)
        assert [r.key for r in frontier] == ["cheap"]

    def test_tradeoffs_both_survive(self):
        records = [
            record("low-site", sites=50, wire=90),
            record("low-wire", sites=90, wire=40),
        ]
        assert len(pareto_frontier(records)) == 2

    def test_ties_all_survive(self):
        records = [record("a"), record("b")]
        assert [r.key for r in pareto_frontier(records)] == ["a", "b"]

    def test_crashed_records_excluded(self):
        assert pareto_frontier([crashed("x"), record("a")]) != []
        assert [r.key for r in pareto_frontier([crashed("x")])] == []

    def test_order_independent_of_input_order(self):
        records = [
            record("b", sites=50, wire=90),
            record("a", sites=90, wire=40),
        ]
        forward = [r.key for r in pareto_frontier(records)]
        backward = [r.key for r in pareto_frontier(records[::-1])]
        assert forward == backward

    def test_infeasible_but_cheap_survives(self):
        # Infeasible points are kept on the frontier (feasibility is an
        # axis, not a filter) so the cost of feasibility stays visible.
        records = [
            record("infeasible-cheap", unassigned=3, sites=10),
            record("feasible-costly", unassigned=0, sites=500),
        ]
        assert len(pareto_frontier(records)) == 2


class TestFrontierReport:
    def test_counts_and_cheapest(self):
        records = {
            "a": record("a", sites=50, wire=90),
            "b": record("b", sites=90, wire=40),
            "c": crashed("c"),
            "d": record("d", unassigned=2, sites=10),
        }
        report = frontier_report(records)
        assert report["evaluated"] == 4
        assert report["by_status"]["ok"] == 3
        assert report["by_status"]["crashed"] == 1
        assert report["feasible"] == 2
        assert report["cheapest_feasible"]["key"] == "a"
        assert report["cheapest_feasible"]["site_budget"] == 50

    def test_no_feasible_scenario(self):
        report = frontier_report([record("a", unassigned=5)])
        assert report["feasible"] == 0
        assert report["cheapest_feasible"] is None

    def test_assignments_annotate_entries(self):
        report = frontier_report(
            [record("a")], assignments={"a": {"total_sites": 100}}
        )
        assert report["frontier"][0]["assignment"] == {"total_sites": 100}
        assert report["cheapest_feasible"]["assignment"] == {
            "total_sites": 100
        }

    def test_report_bytes_canonical(self):
        records = [
            record("b", sites=50, wire=90, seconds=1.23, attempts=2),
            record("a", sites=90, wire=40, seconds=9.99, attempts=1),
        ]
        one = report_bytes(frontier_report(records))
        # Different nondeterministic fields, different input order.
        other = report_bytes(
            frontier_report(
                [
                    record("a", sites=90, wire=40, seconds=0.01),
                    record("b", sites=50, wire=90, seconds=7.5),
                ]
            )
        )
        assert one == other
        assert one.endswith(b"\n")
        assert b"seconds" not in one
        assert b"attempts" not in one


class _ConfigDict:
    """A config as :func:`scenario_key` sees it: only its ``as_dict()``."""

    def __init__(self, payload):
        self.payload = payload

    def as_dict(self):
        return self.payload


class TestTieBreak:
    """Equal figures are ordered by the scenario's canonical JSON, not by
    the key, which also hashes the planner config: a change to the
    config's fields alone must not re-pick a tied scenario."""

    # The two scenarios of ``--dim 'buffer_library=single,tech'``.
    SINGLE = ScenarioSpec(
        grid=16, num_nets=120, total_sites=600, buffer_library="single"
    )
    TECH = replace(SINGLE, buffer_library="tech")

    def picks(self, single_key, tech_key, unassigned):
        records = [
            replace(record(key, unassigned=unassigned), scenario=spec.to_dict())
            for key, spec in ((single_key, self.SINGLE), (tech_key, self.TECH))
        ]
        report = frontier_report(records)
        nearest = (report["no_feasible"] or {}).get("nearest") or {}
        cheapest = report["cheapest_feasible"] or {}
        return (
            [r.key for r in pareto_frontier(records[::-1])],
            cheapest.get("key"),
            nearest.get("key"),
        )

    def test_scenario_order_beats_key_order(self):
        # "k1" < "k2": the keys put the tech scenario first, while the
        # canonical JSON puts "single" before "tech".
        assert self.picks("k2", "k1", unassigned=0) == (["k2", "k1"], "k2", None)
        assert self.picks("k2", "k1", unassigned=3) == (["k2", "k1"], None, "k2")

    def test_picks_hold_when_keys_are_recomputed(self):
        # A config dict without and with the retired ``router`` field
        # hashes the two scenarios in opposite key orders; every pick
        # stays the "single" scenario.
        without = RabidConfig().as_dict()
        without.pop("router", None)
        orders = set()
        for payload in (without, {**without, "router": "pd"}):
            config = _ConfigDict(payload)
            single = scenario_key(self.SINGLE, config)
            tech = scenario_key(self.TECH, config)
            orders.add(single < tech)
            for unassigned in (0, 3):
                frontier, cheapest, nearest = self.picks(single, tech, unassigned)
                assert frontier == [single, tech]
                assert (cheapest or nearest) == single
        assert orders == {True, False}


def fake_result():
    """A 3x2 grid of fake records over (total_sites, length_limit)."""
    base = ScenarioSpec(grid=12, num_nets=30, total_sites=300)
    space = ParameterSpace(
        base,
        (
            Dimension("total_sites", (100, 200, 300)),
            Dimension("length_limit", (4, 6)),
        ),
    )
    points, keys, records = [], [], {}
    for sites in (100, 200, 300):
        for limit in (4, 6):
            key = f"k{sites}-{limit}"
            points.append(
                SamplePoint((sites, limit), space.scenario_for((sites, limit)))
            )
            keys.append(key)
            records[key] = record(
                key,
                sites=sites,
                unassigned=0 if sites >= 200 else 2,
                delay=1000.0 / sites + limit,
            )
    return ExploreResult(space=space, points=points, keys=keys, records=records)


class TestSensitivity:
    def test_series_and_held_combo(self):
        report = sensitivity_report(fake_result())
        sites = report["total_sites"]
        assert sites["values"] == [100, 200, 300]
        assert sites["held"] == {"length_limit": 6}
        assert sites["series"]["site_budget"] == [100, 200, 300]
        assert sites["range"]["site_budget"] == 200
        assert sites["series"]["unassigned_nets"] == [2, 0, 0]

    def test_insufficient_slice(self):
        result = fake_result()
        # Drop every point except one: no dimension has a 2-point slice.
        result.points = result.points[:1]
        result.keys = result.keys[:1]
        report = sensitivity_report(result)
        assert report["total_sites"] == {"insufficient": True}
        assert report["length_limit"] == {"insufficient": True}

    def test_render_smoke(self):
        result = fake_result()
        text = render_sensitivity(sensitivity_report(result))
        assert "total_sites" in text
        assert "range" in text


class TestRenderTable:
    def test_render_contains_summary_and_rows(self):
        records = [
            record("a", sites=50, wire=90),
            record("b", unassigned=1, sites=20),
            crashed("c"),
        ]
        text = render_frontier_table(frontier_report(records))
        assert "3 evaluated" in text
        assert "1 crashed" in text
        assert "cheapest feasible: sites=50" in text
        assert "NO" in text  # the infeasible frontier row

    def test_limit_truncates_rows(self):
        records = [
            record("a", sites=50, wire=90),
            record("b", sites=90, wire=40),
        ]
        full = render_frontier_table(frontier_report(records))
        cut = render_frontier_table(frontier_report(records), limit=1)
        assert len(cut.splitlines()) < len(full.splitlines())
