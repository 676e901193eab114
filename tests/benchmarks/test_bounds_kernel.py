"""The gap-vs-epsilon benchmark kernel behind BENCH_bounds.json."""

import json

from repro.benchmarks.bounds_kernel import (
    append_bounds_entry,
    main,
    run_bounds_kernel,
)
from repro.benchmarks.emit import load_trajectory


class TestKernel:
    def test_small_workload_invariants(self):
        results = run_bounds_kernel(
            grid=8, num_nets=10, total_sites=120,
            epsilons=(0.5, 0.25), iterations=2,
        )
        assert len(results) == 2
        for result in results:
            assert result.certificate_ok
            assert result.gap is not None and result.gap >= 0.0
            assert result.lower_bound <= result.plan_cost
            assert result.invariants_ok
        # Same workload, different epsilon: params must differ so both
        # rows coexist in the trajectory.
        assert results[0].params != results[1].params

    def test_entries_keyed_per_epsilon(self, tmp_path):
        out = str(tmp_path / "BENCH_bounds.json")
        results = run_bounds_kernel(
            grid=8, num_nets=10, total_sites=120,
            epsilons=(0.5, 0.25), iterations=2,
        )
        for result in results:
            append_bounds_entry(out, "t", result)
        data = load_trajectory(out)
        assert len(data["entries"]) == 2
        labels = {e["label"] for e in data["entries"]}
        assert labels == {"t-eps0.5", "t-eps0.25"}

    def test_cli_smoke(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_bounds.json")
        code = main([
            "--label", "ci", "--out", out,
            "--grid", "8", "--nets", "10", "--total-sites", "120",
            "--iterations", "2", "--epsilon", "0.5",
        ])
        assert code == 0
        assert "certificate_ok=True" in capsys.readouterr().out
        data = json.loads(open(out).read())
        (entry,) = data["entries"]
        assert entry["gap"] >= 0.0
        assert entry["certificate_ok"] is True
        assert not [key for key in entry if key.startswith("rounded_")]
        assert entry["params"]["seed"] == 0


class TestRecordedTrajectory:
    def test_shipped_file_has_gap_vs_epsilon(self):
        data = load_trajectory("benchmarks/BENCH_bounds.json")
        entries = data["entries"]
        epsilons = {e["params"]["epsilon"] for e in entries}
        assert len(epsilons) >= 2
        for entry in entries:
            assert entry["certificate_ok"] is True
            assert entry["gap"] is None or entry["gap"] >= 0.0
