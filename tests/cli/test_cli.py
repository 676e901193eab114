"""Command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "apte" in out and "playout" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "circuit" in out and "27550" in out

    def test_run_small(self, capsys):
        assert main(["run", "apte", "--stage4-iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert out.count("\n") >= 5

    def test_run_with_maps(self, capsys):
        assert main(["run", "apte", "--stage4-iterations", "1", "--maps"]) == 0
        out = capsys.readouterr().out
        assert "wire congestion" in out
        assert "buffer usage" in out

    def test_run_with_diagnose(self, capsys):
        assert main(["run", "apte", "--stage4-iterations", "0", "--diagnose"]) == 0
        out = capsys.readouterr().out
        # Stage 4 disabled leaves failures to diagnose.
        assert "failure diagnosis" in out
        assert "summary:" in out

    def test_buffer_library_alone_sizes(self, capsys):
        """The library is the one sizing knob: ``--buffer-library tech``
        sizes every placed buffer over its three kinds."""
        assert main(["run", "apte", "--buffer-library", "tech", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "dp.kinds = 3\n" in out

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonesuch"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_seed_flag(self, capsys):
        assert main(["--seed", "3", "table1"]) == 0
        assert "apte" in capsys.readouterr().out


class TestVersionAndJson:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_list_json(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list)
        names = {r["name"] for r in rows}
        assert "apte" in names
        for row in rows:
            assert {"name", "kind", "nets", "sinks"} <= set(row)


class TestExplore:
    BASE = [
        "explore",
        "--grid", "12", "--nets", "30", "--total-sites", "300",
    ]

    def test_grid_sweep_table(self, capsys):
        assert main([*self.BASE, "--dim", "total_sites=200,300,400"]) == 0
        out = capsys.readouterr().out
        assert "evaluated" in out
        assert "site_budget" in out

    def test_json_report(self, capsys):
        import json

        assert (
            main([*self.BASE, "--dim", "total_sites=250,350", "--json"]) == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["evaluated"] == 2
        assert report["objectives"][0] == "unassigned_nets"

    def test_store_resume(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        args = [*self.BASE, "--dim", "total_sites=250,350",
                "--store", store, "--metrics"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "explore.scenarios" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        # Second run answers fully from the store.
        assert "explore.cache_hits" in second

    def test_metrics_print_pool_counters(self, capsys):
        assert main([
            *self.BASE, "--dim", "total_sites=250,350",
            "--workers", "1", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "  pool.dispatches: 2\n" in out
        assert "  pool.respawns: 0\n" in out

    def test_region_dim_and_svg(self, capsys, tmp_path):
        svg = tmp_path / "sweep.svg"
        assert main([
            *self.BASE,
            "--dim", "region_sites@4:4:5:5=0,3",
            "--svg", str(svg),
        ]) == 0
        assert svg.exists()
        assert b"<svg" in svg.read_bytes()

    def test_sensitivity_output(self, capsys):
        assert main([
            *self.BASE, "--dim", "total_sites=250,350", "--sensitivity",
        ]) == 0
        assert "total_sites" in capsys.readouterr().out

    def test_bad_dim_spec_rejected(self):
        with pytest.raises(SystemExit):
            main([*self.BASE, "--dim", "wirelength=1,2"])
