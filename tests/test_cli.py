import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import cvcat.analysis
import cvcat.gate
from cvcat.analysis import VERIFY_ABS_FLOOR, VERIFY_GRID, VERIFY_TOLERANCE, \
    SweepRow, SweepSpec, db_to_s, run_sweep, run_verification
from cvcat.cli import _COMMANDS, _FLAGS, _rows_csv, build_parser, main
from cvcat.gate import added_factor, apply_gate
from cvcat.oracle import oracle_added_factor
from cvcat.phase_space import build_support_region
from cvcat.states import MAX_GRID_POINTS, GateParams, GridSpec, \
    cat_params_from_gate, default_grid, make_cubic_phase_state, \
    make_squeezed_vacuum


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

    @pytest.mark.parametrize("outputs", ["", ","])
    def test_sweep_with_no_outputs(self, outputs, tmp_path, capsys):
        # refused by name before the gate runs; no file is written
        out = tmp_path / "rows.csv"
        assert main(["sweep-infidelity", f"--outputs={outputs}",
                     "--out", str(out)]) == 1
        assert "sweep outputs must name" in capsys.readouterr().err
        assert not out.exists()

    def test_success(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        assert main(["state", "--kind", "vacuum", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()


class TestStateCommand:
    def test_json_round_trip(self, tmp_path, capsys, state_from_record):
        out = tmp_path / "cubic.json"
        assert main(["state", "--kind", "cubic", "--gamma", "0.1",
                     "--db", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        wf = state_from_record(json.loads(out.read_text()))
        s = db_to_s(5.0)
        want = make_cubic_phase_state(0.1, s, GridSpec(-10.0 / s, 10.0 / s, 2048))
        assert wf.grid == want.grid and wf.label == want.label
        assert np.array_equal(wf.amplitudes, want.amplitudes)
        assert abs(np.trapezoid(wf.density(), dx=wf.dx) - 1.0) < 1e-6

    def test_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "vac.csv"
        assert main(["state", "--kind", "vacuum", "--format", "csv",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines[1].split(",")) == 3

    @pytest.mark.parametrize("argv", [
        ["state", "--kind", "vacuum", "--gamma", "0"],
        ["state", "--kind", "vacuum", "--ym", "-1"],
        ["state", "--kind", "squeezed", "--gamma", "0"],
        ["state", "--kind", "squeezed", "--ym", "-1"],
        ["state", "--kind", "cubic", "--ym", "-1"],
        ["wigner", "--source", "vacuum", "--gamma", "0", "--nx", "96",
         "--np", "80"],
        ["wigner", "--source", "cubic", "--ym", "-1", "--nx", "96",
         "--np", "80"]])
    def test_non_cat_states_ignore_gate_settings(self, argv, tmp_path, capsys):
        out = tmp_path / "state.out"
        assert main(argv + ["--grid-points", "256", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.stat().st_size > 0

    def test_csv_bytes_match_per_sample_format(self, tmp_path, capsys):
        out = tmp_path / "cubic.csv"
        assert main(["state", "--kind", "cubic", "--format", "csv",
                     "--grid-points", "64", "--out", str(out)]) == 0
        capsys.readouterr()
        s = db_to_s(5.0)
        wf = make_cubic_phase_state(0.1, s, GridSpec(-10.0 / s, 10.0 / s, 64))
        # reference: each sample formatted on its own
        want = "".join(f"{x:.17g},{a.real:.17g},{a.imag:.17g}\n"
                       for x, a in zip(wf.x, wf.amplitudes))
        assert out.read_text() == "x,re,im\n" + want

    def test_coarse_grid_is_named(self, capsys):
        # 16 points on [-8, 8] keep 0.99966 of the vacuum's norm
        assert main(["state", "--kind", "vacuum", "--grid-points", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: norm^2 = 0.99965")
        assert "on the grid [-8.0, 8.0] with n_points=16" in captured.err
        assert "too coarse or too narrow" in captured.err


class TestGateCommand:
    def test_csv_stdout_is_the_state_and_p_goes_to_stderr(
            self, tmp_path, capsys, state_from_record):
        argv = ["gate", "--gamma", "0.2", "--grid-points", "256"]
        out = tmp_path / "gate.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        rec = json.loads(out.read_text())
        wf = state_from_record(rec["state"])
        assert main(argv + ["--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "x,re,im\n" + "".join(
            f"{x:.17g},{a.real:.17g},{a.imag:.17g}\n"
            for x, a in zip(wf.x, wf.amplitudes))
        assert captured.err == (
            f"probability_density {rec['probability_density']:.17g}\n")

    def test_negative_db_is_anti_squeezing(self, capsys):
        assert main(["gate", "--db", "-3", "--format", "csv"]) == 0
        params = GateParams(gamma=0.1, s=10.0 ** 0.15, y_m=3.0)
        grid = default_grid(cat_params_from_gate(params).p_plus, 2048)
        want = apply_gate(make_squeezed_vacuum(1.0, grid), params)
        assert capsys.readouterr().err == (
            f"probability_density {want.probability_density:.17g}\n")

    def test_small_normal_probability_is_a_state(self, capsys):
        # at s = 1e305 the wide vacuum gives the exact P = pi^(-1/2) / s,
        # 5.6e-306: small but normal, so the output state is defined
        assert main(["gate", "--db", "-6100", "--format", "csv"]) == 0
        captured = capsys.readouterr()
        p = float(captured.err.removeprefix("probability_density "))
        want = math.pi ** -0.5 / db_to_s(-6100.0)
        assert abs(p - want) <= 1e-12 * want
        assert len(captured.out.splitlines()) == 2049

    def test_subnormal_probability_is_refused(self, capsys):
        assert main(["gate", "--db", "-6150", "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: outcome y_m=3.0 has probability density "
            "1.784124116152771e-308; the conditional state is undefined\n")


class TestSupportRegionCommand:
    def test_json_carries_the_boundary(self, tmp_path, capsys):
        out = tmp_path / "region.json"
        assert main(["support-region", "--gamma", "0.2", "--db", "9",
                     "--n-boundary", "40", "--format", "json",
                     "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        doc = json.loads(out.read_text())
        assert list(doc) == ["sigma_level", "version", "boundary"]
        region = build_support_region(db_to_s(9.0), 0.2, 2.0, 40)
        assert doc["sigma_level"] == 2.0
        assert doc["boundary"] == region.boundary.tolist()

    @pytest.mark.parametrize("level", ["0", "-2", "nan", "inf"])
    def test_sigma_level_must_be_finite_and_positive(self, level, tmp_path,
                                                     capsys):
        # 0 would give a one-point region and -2 the +2 ellipse
        out = tmp_path / "region.csv"
        assert main(["support-region", "--sigma-level", level,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: sigma_level must be finite and > 0, got {float(level)!r}\n")
        assert not out.exists()

    def test_n_boundary_over_the_cap(self, capsys):
        # refused before np.linspace allocates the boundary
        assert main(["support-region", "--n-boundary", "2000000000"]) == 1
        assert capsys.readouterr().err == (
            f"error: n_boundary must be 32 to {MAX_GRID_POINTS}, "
            "got 2000000000\n")

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_gamma_must_be_finite(self, gamma, capsys):
        # refused as such, not as a boundary that overflows
        assert main(["support-region", "--gamma", gamma]) == 1
        assert capsys.readouterr() == (
            "", f"error: gamma must be finite, got {float(gamma)!r}\n")

    # -6160 dB: the p semi-axis sigma s / sqrt(2) overflows; 3100 dB: the
    # shear 3 gamma x^2 overflows on the x semi-axis of about 1.4e155
    @pytest.mark.parametrize("db", ["-6160", "3100"])
    def test_overflow_names_the_setting(self, db, capsys):
        assert main(["support-region", "--db", db]) == 1
        assert capsys.readouterr() == ("", (
            f"error: support region overflows at s={db_to_s(float(db))!r}, "
            "gamma=0.1, sigma_level=2.0: its boundary is not finite\n"))


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

    def test_mass_error_names_the_axes_and_both_remedies(self, capsys):
        # on the same automatic bounds, 32 x points fail the mass check and
        # 256 pass: the message must not blame the bounds alone
        assert main(["wigner", "--nx", "32", "--np", "32"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Wigner mass ") and err.count("\n") == 1
        assert "n_x=32, n_p=32" in err
        assert "more points" in err and "wider bounds" in err
        assert main(["wigner", "--nx", "256", "--np", "32"]) == 0
        capsys.readouterr()

    def test_json_holds_the_csv_values(self, capsys):
        argv = ["wigner", "--source", "vacuum", "--nx", "32", "--np", "40"]
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[:7] == ["x_min", "x_max", "p_min", "p_max", "n_x",
                                 "n_p", "version"]
        assert len(doc["values"]) == 32
        assert all(len(row) == 40 for row in doc["values"])
        assert main(argv) == 0
        head, *rows = capsys.readouterr().out.splitlines()
        assert head.split(",") == [repr(doc[k]) for k in
                                   ("x_min", "x_max", "p_min", "p_max",
                                    "n_x", "n_p")]
        assert [[float(v) for v in row.split(",")] for row in rows] \
            == doc["values"]

    def test_axis_points_below_two_from_config_is_domain_error(self, tmp_path,
                                                               capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nx": 1}))
        assert main(["wigner", "--config", str(cfg)]) == 1
        assert "n_x, n_p >= 2" in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("argv, form", [
        (["wigner", "--bounds", "a:b:c:d"], "xmin:xmax:pmin:pmax"),
        (["sweep-probability", "--db-range", "a:b"], "lo:hi or lo:hi:n"),
        (["sweep-probability", "--db-range", "0:1:x"], "lo:hi or lo:hi:n"),
        (["sweep-probability", "--db-range", "0:20:5:7"], "lo:hi or lo:hi:n")])
    def test_malformed_number_list_shows_its_form(self, argv, form, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert form in err and repr(argv[-1]) in err

    @pytest.mark.parametrize("flag", ["--out", "--dump-config"])
    def test_missing_directory_names_the_path(self, flag, tmp_path, capsys):
        path = tmp_path / "missing" / "x"
        assert main(["state", "--kind", "vacuum", flag, str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {path}: No such file or directory\n")

    @pytest.mark.parametrize("flag, err", [
        ("--out", "cannot write : No such file or directory"),
        ("--dump-config", "cannot write : No such file or directory"),
        ("--config", "cannot read config : No such file or directory"),
        ("--bounds", "--bounds must be xmin:xmax:pmin:pmax, got ''")])
    def test_an_empty_string_is_a_value(self, flag, err, capsys):
        # an empty string is a value, not an absent flag
        assert main(["wigner", "--source", "vacuum", "--nx", "96", "--np",
                     "80", "--grid-points", "256", flag, ""]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("command", [["state", "--kind", "vacuum"],
                                         ["state"], ["gate"], ["wigner"]])
    @pytest.mark.parametrize("half_width", ["0", "-5"])
    def test_grid_half_width_must_be_positive(self, command, half_width,
                                              tmp_path, capsys):
        # the grids are sized from --grid-points alone, so no half-width,
        # 0 and negative ones included, gets past the parser
        out = tmp_path / "out"
        assert main(command + ["--grid-half-width=" + half_width,
                               "--out", str(out)]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_wigner_map_over_the_entry_cap(self, tmp_path, capsys):
        # refused before any array is made; the tight bounds would fail next
        out = tmp_path / "w.csv"
        assert main(["wigner", "--source", "vacuum", "--nx", "65536",
                     "--bounds=-1:1:-6:6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "n_x=65536, n_p=256 on n_points=2048" in err
        assert not out.exists()

    def test_grid_points_over_the_cap(self, capsys):
        # GridSpec refuses the count before any array is made
        assert main(["gate", "--grid-points", "100000000000"]) == 1
        assert str(MAX_GRID_POINTS) in capsys.readouterr().err


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

    @pytest.mark.parametrize("db_range", ["-400:0:3", "-310:-300:3"])
    def test_sweep_shares_the_db_domain(self, db_range, tmp_path, capsys):
        # 1/s below 5e-16 is no longer rounded to 0 or onto its neighbour
        out = tmp_path / "prob.csv"
        assert main(["sweep-probability", f"--db-range={db_range}",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        lo, hi, n = map(float, db_range.split(":"))
        assert [float(r[0]) for r in rows] == [
            1.0 / db_to_s(db) for db in np.linspace(lo, hi, int(n)).tolist()]
        assert all(float(r[2]) > 0 and r[5] == "" for r in rows)

    @pytest.mark.parametrize("db_range", ["0:inf:2", "-inf:0:3", "nan:5:3",
                                          "0:nan"])
    def test_db_range_bounds_must_be_finite(self, db_range, capsys):
        assert main(["sweep-probability", f"--db-range={db_range}"]) == 1
        assert capsys.readouterr() == ("", (
            f"error: --db-range needs finite lo and hi, got {db_range!r}\n"))

    def test_db_range_top_past_the_1_over_s_overflow(self, capsys):
        # s at 6,170 dB is subnormal, so 1/s is inf: refused by the top dB
        assert main(["sweep-probability", "--db-range=6100:6170:3"]) == 1
        assert capsys.readouterr() == ("", (
            "error: --db-range top 6170.0 dB overflows 1/s; "
            "a sweep reaches about 6,165 dB\n"))

    def test_db_range_top_under_the_1_over_s_overflow(self, tmp_path, capsys):
        # 6,160 dB keeps 1/s = 1e308; that row alone meets the probability floor
        out = tmp_path / "prob.csv"
        assert main(["sweep-probability", "--db-range=6100:6160:3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", (
            "sweep: 2 rows ok, 1 failed (ZeroProbabilityOutcomeError 1)\n"))
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [
            1.0 / db_to_s(db) for db in (6100.0, 6130.0, 6160.0)]
        assert [r[5] != "" for r in rows] == [False, False, True]

    def test_db_range_top_past_the_s_underflow(self, capsys):
        # s itself underflows to 0 before 1/s is formed: db_to_s names the dB
        assert main(["sweep-probability", "--db-range=6100:6500:3"]) == 1
        assert capsys.readouterr() == ("", (
            "error: squeezing of 6500.0 dB underflows s to 0\n"))

    def test_db_range_n_over_the_cap(self, capsys):
        # refused before np.linspace allocates the values
        n = MAX_GRID_POINTS + 1
        assert main(["sweep-probability", f"--db-range=0:20:{n}"]) == 1
        assert capsys.readouterr() == ("", (
            f"error: --db-range n must be at most {MAX_GRID_POINTS}, "
            f"got {n}\n"))

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
        assert captured.out == _rows_csv(rows)
        assert captured.err == ("sweep: 1 rows ok, 3 failed "
                                "(DomainError 2, ZeroProbabilityOutcomeError 1)\n")

    def test_json_writes_null_not_nan(self, tmp_path, capsys):
        out = tmp_path / "prob.json"
        assert main(["sweep-probability", "--ym", "3", "--db-range", "0:20:3",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["infidelity"] is None and row["wln"] is None
            assert row["efficiency"] is None and row["probability_density"] > 0

    def test_negative_db_matches_the_oracle(self, tmp_path, capsys):
        """Anti-squeezing down to -60 dB: every row succeeds, and each P is
        within 1e-12 of the trapezoid P of the quadrature oracle's factor on
        the sweep's own grid and vacuum."""
        out = tmp_path / "prob.csv"
        assert main(["sweep-probability", "--db-range=-60:0:7",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 7 and all(r[5] == "" for r in rows)
        grid = SweepSpec(values=(1.0,), y_m=3.0,
                         outputs=frozenset({"probability"})).grid
        vacuum = make_squeezed_vacuum(1.0, grid)
        for r in rows:
            s = 1.0 / float(r[0])
            factor = oracle_added_factor(
                grid.x, GateParams(gamma=0.1, s=s, y_m=3.0))
            want = np.trapezoid(np.abs(vacuum.amplitudes * factor) ** 2,
                                dx=grid.dx)
            assert abs(float(r[2]) - want) <= 1e-12 * want, s

    def test_coarse_grid_rows_name_the_grid(self, tmp_path, capsys):
        # +-(p_plus + 8) = +-44.5 in 64 points under-resolves the vacuum;
        # the CSV writes the message's commas as ";"
        out = tmp_path / "prob.csv"
        assert main(["sweep-probability", "--ym", "40", "--gamma", "0.01",
                     "--db-range=0:20:3", "--grid-points", "64",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "sweep: 0 rows ok, 3 failed (DomainError 3)\n"
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            error = row.split(",")[5]
            assert error.startswith("DomainError: norm^2 = 0.98572")
            assert "[-44.51483716701107; 44.51483716701107] with " \
                "n_points=64" in error
            assert "too coarse or too narrow" in error

    def test_gamma_rule_flag_is_a_usage_error(self, capsys):
        assert main(["sweep-infidelity", "--ym", "3",
                     "--gamma-rule", "fixed"]) == 64
        assert "unrecognized arguments: --gamma-rule" in capsys.readouterr().err

    def test_gamma_rule_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.2, "gamma_rule": "fixed"}))
        out = tmp_path / "prob.csv"
        assert main(["sweep-probability", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown config keys: ['gamma_rule']\n")
        assert not out.exists()

    @pytest.mark.parametrize("gamma, rule", [
        (["--gamma", "0.2"], "fixed"), ({"gamma": 0.2}, "fixed"),
        ([], "ym/30")], ids=["flag", "config", "absent"])
    def test_gamma_alone_picks_the_rule(self, gamma, rule, tmp_path, capsys):
        """--gamma, as a flag or a config key, scans at that fixed gamma;
        without it gamma is y_m/30, SweepSpec's gamma=None."""
        if isinstance(gamma, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(gamma))
            gamma = ["--config", str(cfg)]
        out = tmp_path / "prob.json"
        assert main(["sweep-probability", "--db-range", "0:20:5", "--format",
                     "json", "--out", str(out)] + gamma) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["spec"]["gamma_rule"] == rule
        spec = SweepSpec(values=[row["variable_value"] for row in doc["rows"]],
                         y_m=3.0, gamma=0.2 if rule == "fixed" else None,
                         outputs=frozenset({"probability"}))
        want = [{k: None if isinstance(v, float) and math.isnan(v) else v
                 for k, v in vars(r).items()} for r in run_sweep(spec)]
        assert repr(doc["rows"]) == repr(want)


@pytest.mark.parametrize("argv", [
    ["sweep-infidelity", "--db", "99"], ["sweep-probability", "--db", "99"],
    ["support-region", "--ym", "3"],
    # the grid commands build their grids from --grid-points alone
    ["gate", "--grid-half-width", "5"], ["wigner", "--grid-half-width", "5"]])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    assert main(argv) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["state", "gate", "wigner"])
def test_grid_half_width_config_key_is_unknown(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_half_width": 5.0}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: unknown config keys: ['grid_half_width']\n")
    assert not out.exists()


# one small run per command; each dumped config must replay it byte for byte
REPLAY_ARGV = {
    "state": ["state", "--kind", "cat", "--grid-points", "256"],
    "gate": ["gate", "--gamma", "0.2", "--ym", "6", "--db", "9"],
    "wigner": ["wigner", "--source", "vacuum", "--nx", "96", "--np", "80",
               "--grid-points", "256"],
    "sweep-infidelity": ["sweep-infidelity", "--db-range", "0:20:3",
                         "--format", "json"],
    "sweep-probability": ["sweep-probability", "--gamma", "0.2",
                          "--db-range", "0:10:3"],
    "support-region": ["support-region", "--n-boundary", "40"],
    "verify": ["verify"],
}


class TestConfigHandling:
    def test_dump_config_bytes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        assert main(["verify", "--dump-config", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == '{\n  "out": null\n}\n'

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

    @pytest.mark.parametrize("command", REPLAY_ARGV)
    def test_dump_config_round_trip(self, command, tmp_path, capsys):
        eff = tmp_path / "eff.json"
        out1 = tmp_path / "a.out"
        out2 = tmp_path / "b.out"
        assert main(REPLAY_ARGV[command] + ["--out", str(out1),
                                            "--dump-config", str(eff)]) == 0
        dumped = json.loads(eff.read_text())
        dumped["out"] = str(out2)
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(dumped))
        assert main([command, "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamme": 0.5}))
        assert main(["gate", "--config", str(cfg)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name, content", [
        ("missing.json", None), ("a-directory", "mkdir"),
        ("bad.json", b"{not json"), ("binary.json", b"\xff\xfe{}"),
        ("list.json", b"[1, 2]")])
    def test_config_file_problems_name_the_file(self, name, content, tmp_path,
                                                capsys):
        path = tmp_path / name
        if content == "mkdir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert main(["gate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("command, config", [
        ("state", {"kind": "bogus"}), ("state", {"format": "xml"}),
        ("gate", {"db": True}), ("gate", {"ym": None}),
        ("state", {"grid_points": 64.5}), ("wigner", {"nx": 96.0}),
        ("verify", {"out": 5}), ("sweep-probability", {"db_range": 20})])
    def test_config_values_are_checked_like_flags(self, command, config,
                                                  tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        [key] = config
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_numbers_read_as_their_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1, "ym": 30, "grid_points": 256}))
        by_config, by_flags = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gate", "--config", str(cfg), "--out", str(by_config)]) == 0
        assert main(["gate", "--gamma", "1", "--ym", "30", "--grid-points",
                     "256", "--out", str(by_flags)]) == 0
        capsys.readouterr()
        assert by_config.read_bytes() == by_flags.read_bytes()


@pytest.mark.parametrize("command, example", [
    ("wigner", "--bounds=-6:6:-6:6"),
    ("sweep-probability", "--db-range=-10:0:3")])
def test_help_names_the_equals_form_of_a_leading_minus(
        command, example, monkeypatch, capsys):
    """argparse reads a value that starts with a minus as a flag, so such a
    colon list is a usage error in the space form; --help shows the = form."""
    monkeypatch.setenv("COLUMNS", "1000")   # no line breaks in the help
    assert main([command, "--help"]) == 0
    assert example in capsys.readouterr().out
    assert main([command, *example.split("=", 1)]) == 64
    assert "expected one argument" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verification_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "max relative deviation" in out

    def test_out_writes_the_stdout_line(self, tmp_path, capsys):
        assert main(["verify"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "verify.txt"
        assert main(["verify", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    def test_blocks_match_the_per_point_route(self):
        """The parent route: one scalar closed-form call per point, each
        against the oracle value at the same offset."""
        gammas, dbs, y_ms, deltas = VERIFY_GRID
        worst = 0.0
        for gamma in gammas:
            for db in dbs:
                s = db_to_s(db)
                for y_m in y_ms:
                    params = GateParams(gamma=gamma, s=s, y_m=y_m)
                    for delta in deltas:
                        a = added_factor(y_m + delta, params)
                        o = oracle_added_factor(
                            delta, GateParams(gamma=gamma, s=s, y_m=0.0))
                        worst = max(worst, abs(a - o) / max(
                            abs(o), VERIFY_ABS_FLOOR / VERIFY_TOLERANCE))
        assert run_verification() == pytest.approx(worst, rel=1e-12, abs=0)

    def test_run_makes_one_block_call_with_at_most_one_airy_call(
            self, monkeypatch, capsys):
        """One factor call over every setting and offset, 1,476 points, and
        at most one Airy call under it, for the points below z = 9."""
        factor_calls, airy_calls = [], []
        for module, name, calls in (
                (cvcat.analysis, "_factor_rows", factor_calls),
                (cvcat.gate, "airy_ai", airy_calls),
                (cvcat.gate, "airy_ai_scaled", airy_calls)):
            def counted(x, *args, fn=getattr(module, name), calls=calls):
                calls.append(np.size(x))
                return fn(x, *args)
            monkeypatch.setattr(module, name, counted)
        assert main(["verify"]) == 0
        capsys.readouterr()
        gammas, dbs, y_ms, deltas = VERIFY_GRID
        assert factor_calls == [len(gammas) * len(dbs) * len(y_ms)
                                * len(deltas)] == [1476]
        assert len(airy_calls) <= 1

    def test_a_nan_deviation_fails(self, monkeypatch, capsys):
        """A NaN anywhere, here one oracle value of the first block, fails
        verify and is printed, though every later block passes."""
        def first_block_nan(x, params, fn=cvcat.analysis.oracle_added_factor):
            out = fn(x, params)
            if not calls:
                out[3] = math.nan
            calls.append(params)
            return out

        calls = []
        monkeypatch.setattr(cvcat.analysis, "oracle_added_factor",
                            first_block_nan)
        assert main(["verify"]) == 1
        assert capsys.readouterr().out == \
            "max relative deviation nan (tolerance 1e-08)\n"
        assert len(calls) == 12

    def test_a_nan_closed_form_value_fails_the_same_way(self, monkeypatch,
                                                        capsys):
        """A NaN in the closed-form block, here one point of its first
        setting, takes the oracle's one failure path: a NaN deviation,
        printed, and a domain exit, not an error message."""
        def first_point_nan(x, rows, fn=cvcat.analysis._factor_rows):
            out = fn(x, rows)
            out[0, 3] = math.nan
            return out

        monkeypatch.setattr(cvcat.analysis, "_factor_rows", first_point_nan)
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "max relative deviation nan (tolerance 1e-08)\n"
        assert captured.err == ""

    @pytest.mark.parametrize("flag", [["--gamma", "5"], ["--ym", "3"],
                                      ["--db", "99"], ["--format", "json"]])
    def test_physics_flags_are_usage_errors(self, flag, capsys):
        assert main(["verify", *flag]) == 64
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_fast_flag_is_a_usage_error(self, capsys):
        assert main(["verify", "--fast"]) == 64
        assert "unrecognized arguments: --fast" in capsys.readouterr().err

    def test_fast_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fast": True}))
        out = tmp_path / "verify.txt"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown config keys: ['fast']\n")
        assert not out.exists()


def readme_cli_examples():
    """The cvcat lines of the README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cvcat ")]


def test_readme_cli_block_has_every_example():
    commands = {line.split()[1] for line in readme_cli_examples()}
    assert commands == {"gate", "wigner", "sweep-infidelity",
                        "sweep-probability", "support-region", "verify"}


@pytest.mark.parametrize("line", readme_cli_examples(),
                         ids=lambda line: line.split()[1])
def test_readme_cli_example_runs(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    out = str(tmp_path / "out")
    if "--out" in argv:
        argv[argv.index("--out") + 1] = out
    else:
        argv += ["--out", out]
    assert main(argv) == 0
    capsys.readouterr()
    assert Path(out).stat().st_size > 0


def readme_flag_table():
    """command -> the flags the README's flag table lists for it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | flags |\n| --- | --- |\n", 1)[1]
    listed = {}
    for line in table.split("\n\n", 1)[0].splitlines():
        commands, flags = line.strip("|").split("|")
        for command in re.findall(r"`([a-z-]+)`", commands):
            listed[command] = set(re.findall(r"`(--[a-z-]+)`", flags))
    return listed


def test_readme_flag_table_lists_each_commands_flags():
    """The table lists every flag a command's parser takes but --out,
    --config and --dump-config, and no other; every flag spec is read by
    some command."""
    subs = next(action.choices for action in build_parser()._actions
                if action.dest == "command")
    common = {"-h", "--help", "--out", "--config", "--dump-config"}
    taken = {name: {flag for action in sub._actions
                    for flag in action.option_strings} - common
             for name, sub in subs.items()}
    assert readme_flag_table() == taken
    assert set(_FLAGS) == {key for *_, defaults in _COMMANDS.values()
                           for key in defaults}
