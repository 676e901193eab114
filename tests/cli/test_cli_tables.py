"""CLI table commands, with the heavy harnesses stubbed out."""

import pytest

import repro.cli as cli
from repro.core import StageMetrics


def _metrics(stage=4):
    return StageMetrics(
        stage=stage,
        wire_congestion_max=0.5,
        wire_congestion_avg=0.2,
        overflows=0,
        buffer_density_max=0.9,
        buffer_density_avg=0.3,
        num_buffers=123,
        num_fails=2,
        wirelength_mm=1000.0,
        max_delay_ps=2000.0,
        avg_delay_ps=900.0,
        cpu_seconds=1.5,
    )


class TestTableCommands:
    def test_table2_uses_harness(self, monkeypatch, capsys):
        from repro.experiments.table2 import Table2Row

        def fake(name, experiment):
            assert name == "apte"
            return [Table2Row("apte", "1-4", _metrics())]

        monkeypatch.setattr(cli, "run_table2_circuit", fake)
        assert cli.main(["table2", "apte"]) == 0
        out = capsys.readouterr().out
        assert "apte" in out and "123" in out

    def test_table3(self, monkeypatch, capsys):
        from repro.experiments.table3 import Table3Row

        monkeypatch.setattr(
            cli,
            "run_table3_circuit",
            lambda name, experiment: [Table3Row(name, 700, _metrics())],
        )
        assert cli.main(["table3", "apte"]) == 0
        assert "700" in capsys.readouterr().out

    def test_table4(self, monkeypatch, capsys):
        from repro.experiments.table4 import Table4Row

        monkeypatch.setattr(
            cli,
            "run_table4_circuit",
            lambda name, experiment: [Table4Row(name, (10, 11), _metrics())],
        )
        assert cli.main(["table4", "apte"]) == 0
        assert "10x11" in capsys.readouterr().out

    def test_table5(self, monkeypatch, capsys):
        from repro.experiments.table5 import Table5Row

        def row(alg):
            return Table5Row(
                circuit="apte", algorithm=alg, wire_congestion_max=1.0,
                wire_congestion_avg=0.2, overflows=0, num_buffers=10,
                mtap_pct=1.0, wirelength_mm=100.0, max_delay_ps=1.0,
                avg_delay_ps=1.0, cpu_seconds=0.1,
            )

        monkeypatch.setattr(
            cli,
            "run_table5_circuit",
            lambda name, experiment: [row("BBP/FR"), row("RABID")],
        )
        assert cli.main(["table5", "apte"]) == 0
        out = capsys.readouterr().out
        assert "BBP/FR" in out and "RABID" in out

    def test_seed_threaded_to_experiment(self, monkeypatch):
        seen = {}

        def fake(name, experiment):
            seen["seed"] = experiment.seed
            from repro.experiments.table2 import Table2Row

            return [Table2Row(name, "1-4", _metrics())]

        monkeypatch.setattr(cli, "run_table2_circuit", fake)
        cli.main(["--seed", "17", "table2", "apte"])
        assert seen["seed"] == 17


class TestTableText:
    """The exact text of Tables II-V for fixed rows."""

    FIRST = StageMetrics(
        stage=1, wire_congestion_max=1.25, wire_congestion_avg=0.171,
        overflows=15, buffer_density_max=0.0, buffer_density_avg=0.0,
        num_buffers=0, num_fails=75, wirelength_mm=1549.2,
        max_delay_ps=5982.0, avg_delay_ps=2149.4, cpu_seconds=0.04,
    )
    FINAL = StageMetrics(
        stage=4, wire_congestion_max=0.5, wire_congestion_avg=0.18,
        overflows=0, buffer_density_max=1.0, buffer_density_avg=0.4,
        num_buffers=476, num_fails=4, wirelength_mm=1692.6,
        max_delay_ps=1771.4, avg_delay_ps=776.6, cpu_seconds=0.75,
    )
    CELLS = [
        "      1.25      0.17         15     0.00     0.00      0      75"
        "        1549       5982       2149     0.0",
        "      0.50      0.18          0     1.00     0.40    476       4"
        "        1693       1771        777     0.8",
    ]
    COLUMNS = (
        "  wire max  wire avg  overflows  buf max  buf avg  #bufs  #fails"
        "  wirelength  delay max  delay avg  CPU(s)"
    )

    def test_table2(self):
        from repro.experiments import format_table2
        from repro.experiments.table2 import Table2Row

        out = format_table2(
            [Table2Row("apte", "1", self.FIRST), Table2Row("apte", "4", self.FINAL)]
        )
        assert out == "\n".join([
            "circuit  stage" + self.COLUMNS,
            "-" * 120,
            "   apte      1" + self.CELLS[0],
            "   apte      4" + self.CELLS[1],
        ])

    def test_table3(self):
        from repro.experiments import format_table3
        from repro.experiments.table3 import Table3Row

        out = format_table3(
            [Table3Row("apte", 280, self.FIRST), Table3Row("apte", 3200, self.FINAL)]
        )
        assert out == "\n".join([
            "circuit  buffer sites" + self.COLUMNS,
            "-" * 127,
            "   apte           280" + self.CELLS[0],
            "   apte          3200" + self.CELLS[1],
        ])

    def test_table4(self):
        from repro.experiments import format_table4
        from repro.experiments.table4 import Table4Row

        out = format_table4([
            Table4Row("apte", (10, 11), self.FIRST),
            Table4Row("apte", (30, 33), self.FINAL),
        ])
        assert out == "\n".join([
            "circuit   grid" + self.COLUMNS,
            "-" * 120,
            "   apte  10x11" + self.CELLS[0],
            "   apte  30x33" + self.CELLS[1],
        ])

    def test_table5(self):
        from repro.experiments import format_table5
        from repro.experiments.table5 import Table5Row

        bbp = Table5Row(
            circuit="apte", algorithm="BBP/FR", wire_congestion_max=0.67,
            wire_congestion_avg=0.151, overflows=0, num_buffers=498,
            mtap_pct=1.333, wirelength_mm=2064.4, max_delay_ps=1671.2,
            avg_delay_ps=708.3, cpu_seconds=1.06,
        )
        rabid = Table5Row(
            circuit="apte", algorithm="RABID", wire_congestion_max=0.33,
            wire_congestion_avg=0.16, overflows=0, num_buffers=562,
            mtap_pct=0.333, wirelength_mm=2140.0, max_delay_ps=1597.0,
            avg_delay_ps=707.0, cpu_seconds=1.5,
        )
        assert format_table5([bbp, rabid]) == "\n".join([
            "circuit  algorithm  wire max  wire avg  overflows  #bufs  MTAP%"
            "  wirelength  delay max  delay avg  CPU(s)",
            "-" * 105,
            "   apte     BBP/FR      0.67      0.15          0    498   1.33"
            "        2064       1671        708     1.1",
            "   apte      RABID      0.33      0.16          0    562   0.33"
            "        2140       1597        707     1.5",
        ])
