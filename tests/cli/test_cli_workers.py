"""CLI --workers clamping, --seed validation, and the retired
--stage3-solver flag."""

import pytest

from repro.cli import main


class TestStage3SolverFlag:
    def test_unknown_stage3_solver_exits_2(self, capsys):
        """Stage 3 has one solver, so the flag is gone: even the old
        default is an unrecognized argument."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "apte", "--stage3-solver", "dp"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stage3-solver" in (
            capsys.readouterr().err
        )


class TestWorkerClamping:
    """``repro workload --workers`` past os.cpu_count() clamps (with a
    warning) instead of dying."""

    def test_workers_clamped_to_cpu_count(self, capsys, monkeypatch):
        from repro.cli import _check_worker_flags

        monkeypatch.setattr("repro.cli.os.cpu_count", lambda: 2)

        class Args:
            workers = 64

        _check_worker_flags(Args)
        assert Args.workers == 2
        assert "warning: clamping --workers=64 to 2" in capsys.readouterr().err

    def test_in_range_values_not_clamped(self, capsys, monkeypatch):
        from repro.cli import _check_worker_flags

        monkeypatch.setattr("repro.cli.os.cpu_count", lambda: 4)

        class Args:
            workers = 4

        _check_worker_flags(Args)
        assert Args.workers == 4
        assert capsys.readouterr().err == ""

    def test_unknown_cpu_count_clamps_to_one(self, capsys, monkeypatch):
        from repro.cli import _check_worker_flags

        monkeypatch.setattr("repro.cli.os.cpu_count", lambda: None)

        class Args:
            workers = 8

        _check_worker_flags(Args)
        assert Args.workers == 1
        assert "clamping --workers=8 to 1" in capsys.readouterr().err

    def test_sub_one_values_left_for_config_validation(self, monkeypatch):
        from repro.cli import _check_worker_flags

        monkeypatch.setattr("repro.cli.os.cpu_count", lambda: 2)

        class Args:
            workers = 0

        _check_worker_flags(Args)
        # Untouched: TraceOptions owns the "must be >= 1" rejection.
        assert Args.workers == 0


class TestSeedValidation:
    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", "run", "apte"])
        assert exc.value.code == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_rejected_for_tables_too(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-7", "table1"])
        assert exc.value.code == 2
        assert "seed" in capsys.readouterr().err
