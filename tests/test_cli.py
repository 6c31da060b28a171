import json

import numpy as np
import pytest

from cvcat.analysis import SweepRow, rows_to_csv
from cvcat.cli import main
from cvcat.states import wavefunction_from_json


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 64
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["gate", "--frobnicate"]) == 64
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 64
        capsys.readouterr()

    def test_domain_error(self, capsys):
        assert main(["gate", "--gamma", "-1", "--ym", "3", "--db", "5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_success(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        assert main(["state", "--kind", "vacuum", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()


class TestStateCommand:
    def test_json_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cubic.json"
        assert main(["state", "--kind", "cubic", "--gamma", "0.1",
                     "--db", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        wf = wavefunction_from_json(out.read_text())
        assert abs(wf.norm_squared() - 1.0) < 1e-6

    def test_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "vac.csv"
        assert main(["state", "--kind", "vacuum", "--format", "csv",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines[1].split(",")) == 3


class TestWignerCommand:
    def test_cat_interference_is_negative(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        assert main(["wigner", "--gamma", "0.5", "--ym", "15", "--db", "14",
                     "--nx", "96", "--np", "96", "--out", str(out)]) == 0
        capsys.readouterr()
        values = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert values.shape == (96, 96)
        assert values.min() < 0.0

    def test_header_carries_bounds(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        main(["wigner", "--gamma", "0.5", "--ym", "15", "--db", "14",
              "--nx", "64", "--np", "64", "--out", str(out)])
        capsys.readouterr()
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 6
        assert header[4] == "64" and header[5] == "64"

    def test_bad_bounds_flag(self, capsys):
        assert main(["wigner", "--bounds", "1:2:3"]) == 1
        capsys.readouterr()

    def test_non_finite_bounds_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(["wigner", "--source", "vacuum", "--bounds=-6:6:-6:inf",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_axis_points_below_two_is_usage_error(self, capsys):
        for flag in ("--nx", "--np"):
            for value in ("1", "0", "-3"):
                assert main(["wigner", flag, value]) == 64
                assert "at least 2" in capsys.readouterr().err

    def test_axis_points_below_two_from_config_is_domain_error(self, tmp_path,
                                                               capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nx": 1}))
        assert main(["wigner", "--config", str(cfg)]) == 1
        assert "n_x, n_p >= 2" in capsys.readouterr().err


class TestSweepCommands:
    def test_infidelity_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-infidelity", "--ym", "3", "--db-range", "0:20:8",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == ("variable_value,infidelity,probability_density,"
                            "wln,efficiency,error")
        assert len(lines) == 9
        infid = [float(l.split(",")[1]) for l in lines[1:]]
        assert infid[-1] < infid[0]

    def test_probability_only(self, tmp_path, capsys):
        out = tmp_path / "prob.csv"
        assert main(["sweep-probability", "--ym", "3", "--db-range", "0:20:6",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert all(r[1] == "" and r[2] != "" for r in rows)

    def test_byte_identical_runs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep-infidelity", "--ym", "3", "--db-range", "0:20:6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self, capsys):
        assert main(["sweep-infidelity", "--ym", "3",
                     "--db-range", "20:0"]) == 1
        capsys.readouterr()

    def test_all_rows_failed_exits_domain(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-infidelity", "--ym", "0", "--db-range", "0:20:3",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "sweep: 0 rows ok, 3 failed (DomainError 3)\n"
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 and all(r.endswith("to derive cat parameters")
                                      for r in rows)

    def test_partial_failure_summary_leaves_stdout_alone(self, monkeypatch,
                                                         capsys):
        import cvcat.cli as cli_mod
        rows = [SweepRow(1.0, probability_density=0.5),
                SweepRow(2.0, error="DomainError: a"),
                SweepRow(3.0, error="ZeroProbabilityOutcomeError: b"),
                SweepRow(4.0, error="DomainError: c")]
        monkeypatch.setattr(cli_mod, "run_sweep", lambda spec: rows)
        assert main(["sweep-probability", "--ym", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == rows_to_csv(rows)
        assert captured.err == ("sweep: 1 rows ok, 3 failed "
                                "(DomainError 2, ZeroProbabilityOutcomeError 1)\n")

    def test_fixed_rule_requires_gamma(self, capsys):
        assert main(["sweep-infidelity", "--ym", "3",
                     "--gamma-rule", "fixed"]) == 1
        capsys.readouterr()


class TestConfigHandling:
    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5, "ym": 15.0, "db": 5.0}))
        out = tmp_path / "g.json"
        # --db on the command line overrides the config value
        assert main(["gate", "--config", str(cfg), "--db", "14",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rec = json.loads(out.read_text())
        assert rec["gamma"] == 0.5 and rec["y_m"] == 15.0
        assert abs(rec["s"] - 10.0 ** (-14.0 / 20.0)) < 1e-12

    def test_dump_config_round_trip(self, tmp_path, capsys):
        eff = tmp_path / "eff.json"
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["gate", "--gamma", "0.2", "--ym", "6", "--db", "9",
                     "--out", str(out1), "--dump-config", str(eff)]) == 0
        dumped = json.loads(eff.read_text())
        dumped["out"] = str(out2)
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(dumped))
        assert main(["gate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a == b

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamme": 0.5}))
        assert main(["gate", "--config", str(cfg)]) == 1
        capsys.readouterr()


class TestVerifyCommand:
    def test_fast_verification_passes(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "max relative deviation" in out
