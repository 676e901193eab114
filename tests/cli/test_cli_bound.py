"""The `repro bound` command and bound-mode capability listings."""

import json

import pytest

from repro.cli import main


ARGS = [
    "bound", "--grid", "8", "--nets", "10", "--total-sites", "120",
    "--iterations", "2",
]


class TestBoundCommand:
    def test_basic_run(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        assert "lower_bound" in out

    def test_json_payload(self, capsys):
        assert main(ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "gk"
        assert payload["lower_bound"] > 0
        assert payload["certified_infeasible"] is False
        assert payload["pricing_calls"] >= 10

    def test_compare_reports_nonnegative_gap(self, capsys):
        assert main(ARGS + ["--compare", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan_cost"] >= payload["lower_bound"]
        assert payload["optimality_gap"] >= 0.0

    def test_round_flag_refused(self, capsys):
        """The bound certifies plans; it has no rounded arm to ask for."""
        with pytest.raises(SystemExit) as exc:
            main(ARGS + ["--round", "--json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --round" in capsys.readouterr().err

    def test_cert_save_and_verify(self, capsys, tmp_path):
        cert = str(tmp_path / "cert.json")
        assert main(ARGS + ["--cert", cert, "--verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verify"]["ok"] is True
        saved = json.loads(open(cert).read())
        assert saved["version"] == 2

    def test_epsilon_flag_validated(self):
        with pytest.raises(SystemExit):
            main(ARGS + ["--epsilon", "7.0"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(ARGS + ["--mode", "simplex"])


class TestCapabilities:
    def test_list_json_capability_row(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        meta = next(r for r in rows if r["kind"] == "meta")
        assert "gk" in meta["bound_modes"]
        assert "routers" not in meta
        assert meta["buffer_libraries"] == ["single", "tech"]

    def test_list_text_mentions_bound_modes(self, capsys):
        assert main(["list"]) == 0
        assert "bound_modes: gk" in capsys.readouterr().out

    def test_version_details_include_bound_modes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "bound_modes" in out and "gk" in out
        assert "routers" not in out
