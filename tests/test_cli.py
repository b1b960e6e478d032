import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import numpy as np

from disthyp import bottleneck, bounds, cli, dist, simulate

import oracles

README = Path(__file__).resolve().parents[1] / "README.md"


def run(args):
    return cli.main([str(a) for a in args])


def make_model(tmp_path, rho=0.6, grid=12, name="model.json"):
    assert run(["model", "--rho", rho, "--grid", grid,
                "--out-dir", tmp_path, "--out", name]) == 0
    return tmp_path / name


class TestModelCommand:
    def test_writes_model_and_sidecar(self, tmp_path):
        path = make_model(tmp_path)
        assert path.exists()
        blob = json.loads(path.read_text())
        assert len(blob["x_labels"]) == 12
        meta = json.loads((tmp_path / "model.meta.json").read_text())
        assert meta["rho"] == 0.6 and meta["grid"] == 12
        assert meta["seed"] == 0
        assert "gaussian" not in meta

    def test_sidecar_locates_c(self, tmp_path):
        # on the README model c is attained at a corner of the 4-sigma grid
        assert run(["model", "--target-mi-nats", 0.08, "--grid", 32,
                    "--out-dir", tmp_path, "--out", "model.json"]) == 0
        meta = json.loads((tmp_path / "model.meta.json").read_text())
        p = dist.JointPmf.from_json((tmp_path / "model.json").read_text())
        lr = np.abs(dist.log_ratio_matrix(p))
        c = meta["c_nats"]
        i, j = divmod(int(np.argmax(lr)), p.ny)
        assert meta["c_cell"] == [p.x_labels[i], p.y_labels[j]]
        assert lr[i, j] == c and i in (0, p.nx - 1) and j in (0, p.ny - 1)
        assert meta["c_cell_mass"] == p.probs[i, j]
        assert meta["c_ties"] == np.count_nonzero(lr >= c * (1 - 1e-12)) >= 1
        assert meta["mass_above_half_c"] == pytest.approx(p.probs[lr > c / 2].sum(),
                                                          rel=1e-15)

    def test_target_mi_calibration(self, tmp_path, capsys):
        assert run(["model", "--target-mi-nats", 0.08,
                    "--grid", 24, "--out-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "mi=0.08" in out

    def test_nan_target_is_an_error(self, tmp_path, capsys):
        assert run(["model", "--target-mi-nats", "nan", "--grid", 8,
                    "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: target_mi must be finite") and "nan" in err
        assert not (tmp_path / "model.json").exists()

    def test_zero_rho_is_independent(self, tmp_path, capsys):
        make_model(tmp_path, rho=0.0)
        out = capsys.readouterr().out
        assert "mi=0" in out

    def test_grid_of_one_rejected_by_the_library(self, tmp_path, capsys):
        # the grid rule has one owner, dist's grid check, not the parser
        assert run(["model", "--rho", 0.5, "--grid", 1, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "error: grid needs at least 2 points per axis and at most 4194304 cells, "
            "got 1 x 1\n")
        assert not list(tmp_path.iterdir())

    def test_rho_and_target_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["model", "--rho", 0.5, "--target-mi-nats", 0.1,
                 "--grid", 8, "--out-dir", tmp_path])
        assert exc.value.code == 2


class TestExponentCommand:
    def test_curve_csv_shape(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1,0.2",
                    "--out-dir", tmp_path, "--out", "curve.csv"]) == 0
        lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert lines[0] == "R_nats,xi_nats,D_nats,dD_dR"
        assert len(lines) == 4

    def test_units_equivalence(self, tmp_path):
        model = make_model(tmp_path)
        bits = [0.06, 0.12, 0.24]
        assert run(["exponent", "--model", model,
                    "--rates", ",".join(map(repr, bits)), "--units", "bits",
                    "--out-dir", tmp_path, "--out", "bits.csv"]) == 0
        nats = [r * math.log(2) for r in bits]
        assert run(["exponent", "--model", model,
                    "--rates", ",".join(map(repr, nats)), "--units", "nats",
                    "--out-dir", tmp_path, "--out", "nats.csv"]) == 0
        row_b = (tmp_path / "bits.csv").read_text().strip().split("\n")[2]
        row_n = (tmp_path / "nats.csv").read_text().strip().split("\n")[2]
        xi_b = float(row_b.split(",")[1])
        xi_n = float(row_n.split(",")[1])
        assert xi_b == pytest.approx(xi_n, rel=1e-7)

    def test_model_over_the_solver_cap_fails_cleanly(self, tmp_path, capsys):
        # 2048 x 2049 entries exceed bottleneck.MAX_STACK_ENTRIES
        model = tmp_path / "wide.json"
        model.write_text(dist.JointPmf.from_probs(np.full((2048, 2), 1 / 4096)).to_json())
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1,0.2",
                    "--out-dir", tmp_path, "--out", "curve.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("*.csv"))

    def test_seed_moves_no_curve_byte(self, tmp_path):
        # only simulate draws from the seed
        model = make_model(tmp_path)
        for seed in (1, 2):
            assert run(["exponent", "--model", model, "--rates", "0.05,0.1,0.2",
                        "--out-dir", tmp_path, "--out", f"s{seed}.csv",
                        "--seed", seed]) == 0
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    def test_one_rate_runs(self, tmp_path):
        # the slope comes from the solver at the rate, so one point is a curve
        model = make_model(tmp_path)
        assert run(["exponent", "--model", model, "--rates", "0.1",
                    "--out-dir", tmp_path]) == 0
        header, row = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert float(row.split(",")[3]) < 0.0

    def test_nan_rate_rejected(self, tmp_path, capsys):
        model = make_model(tmp_path, grid=8)
        capsys.readouterr()
        assert run(["exponent", "--model", model, "--rates", "0.1,nan,0.3",
                    "--out-dir", tmp_path, "--out", "curve.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "curve.csv").exists()

    def test_missing_model_fails_cleanly(self, tmp_path, capsys):
        code = run(["exponent", "--model", tmp_path / "nope.json",
                    "--rates", "0.05,0.1,0.2", "--out-dir", tmp_path])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_sidecar_echoes_config(self, tmp_path, capsys):
        model = make_model(tmp_path)
        capsys.readouterr()
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1,0.2",
                    "--out-dir", tmp_path, "--out", "c.csv", "--seed", 9]) == 0
        meta = json.loads((tmp_path / "c.meta.json").read_text())
        assert meta["seed"] == 9 and meta["units"] == "bits"
        diag = meta["diagnostics"]
        # the solver's counters, and nothing constant by construction
        assert set(diag) == {"beta_solves", "iterations", "unconverged", "rate_solves"}
        summary = capsys.readouterr().out.strip().split("\n")[-1]
        assert summary.endswith(f"unconverged {diag['unconverged']}/{diag['beta_solves']}")
        # the curve's sidecar names the model it was solved on, as the model's own does
        model_meta = json.loads((tmp_path / "model.meta.json").read_text())
        fingerprint = dist.JointPmf.from_json(model.read_text()).fingerprint()
        assert meta["fingerprint"] == fingerprint == model_meta["fingerprint"]


class TestBoundsCommand:
    def test_bounds_table(self, tmp_path):
        assert run(["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "poly:1",
                    "--n-grid", "50,100,200", "--out-dir", tmp_path,
                    "--out", "b.csv"]) == 0
        lines = (tmp_path / "b.csv").read_text().strip().split("\n")
        assert lines[0].startswith("n,eps_n,l,h_n,delta_tilde")
        assert len(lines) == 4

    def test_inadmissible_ns_are_skipped_with_note(self, tmp_path, capsys):
        assert run(["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "log",
                    "--n-grid", "2,50", "--out-dir", tmp_path,
                    "--out", "b.csv"]) == 0
        assert "skip" in capsys.readouterr().err.lower()
        assert len((tmp_path / "b.csv").read_text().strip().split("\n")) == 2

    def test_all_inadmissible_is_an_error(self, tmp_path):
        assert run(["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "log",
                    "--n-grid", "1,2", "--out-dir", tmp_path]) == 1

    def test_malformed_regime(self, tmp_path, capsys):
        assert run(["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "exp:1",
                    "--n-grid", "50", "--out-dir", tmp_path]) == 1
        # only the short spellings of the command line are regimes
        assert run(["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "polynomial:2",
                    "--n-grid", "50", "--out-dir", tmp_path]) == 1
        assert "error: unknown regime 'polynomial'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, args", [
        ("bounds", ["--regime", "superpoly:0.5", "--n-grid", "5,100000000000000000000"]),
        ("cns", ["--regimes", "superpoly:0.5"]),
    ])
    def test_c_whose_converse_slack_overflows(self, tmp_path, capsys, command, args):
        # 4c overflows: refused before any row, where the bounds table used to
        # end in "invariant violated" with lb_prob NaN at the larger size
        assert run([command, "--xi", 0.02, "--c", 4.5e307, *args,
                    "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err == ("error: concentration constant must be positive with 4c finite, "
                       "got 4.5e+307\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, args", [
        ("bounds", ["--regime", "poly:1", "--n-grid", "100"]),
        ("cns", ["--regimes", "poly:1"]),
    ])
    def test_positive_d_slope_is_an_error(self, tmp_path, capsys, command, args):
        assert run([command, "--xi", 0.02, "--c", 9.9, "--d-slope", 1e-7, *args,
                    "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "error: d_slope must be finite and nonpositive, got 1e-07\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("grid, rows", [(f"100,{10 ** 400}", 1), (f"{10 ** 400}", 0)],
                             ids=["one-admissible", "none-admissible"])
    def test_size_beyond_float64_is_skipped(self, tmp_path, capsys, grid, rows):
        code = run(["bounds", "--xi", 0.02, "--c", 9.9, "--regime", "poly:1",
                    "--n-grid", grid, "--out-dir", tmp_path, "--out", "b.csv"])
        err = capsys.readouterr().err
        assert err.startswith(f"skipping n={10 ** 400}: n may not exceed "
                              f"{sys.float_info.max!r}, the float64 range\n")
        if rows:
            assert code == 0
            assert len((tmp_path / "b.csv").read_text().splitlines()) == 1 + rows
        else:
            assert code == 1 and err.endswith("error: no sample size in --n-grid is admissible\n")
            assert not list(tmp_path.iterdir())

    def test_xi_requires_c(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--xi", 0.7, "--regime", "poly:1",
                 "--n-grid", "50", "--out-dir", tmp_path])
        assert exc.value.code == 2

    def test_overflowing_upper_exponent(self, tmp_path):
        xi, slope = oracles.README_CURVE[0]
        assert run(["bounds", "--xi", repr(xi), "--c", oracles.README_C, "--d-slope", repr(slope),
                    "--regime", "superpoly:0.5", "--n-grid", 383,
                    "--out-dir", tmp_path, "--out", "b.csv"]) == 0
        row = (tmp_path / "b.csv").read_text().strip().split("\n")[1].split(",")
        assert row[0] == "383" and float(row[7]) == 1.0  # ub_prob


class TestCnsCommand:
    def test_table_and_recheck(self, tmp_path):
        assert run(["cns", "--xi", 3.0, "--c", 2.47,
                    "--regimes", "poly:0.01,log,const:0.1", "--delta", 1e-5,
                    "--out-dir", tmp_path, "--out", "cns.csv"]) == 0
        lines = (tmp_path / "cns.csv").read_text().strip().split("\n")
        assert lines[0] == "regime,delta,cns"
        assert len(lines) == 4
        for line in lines[1:]:
            assert int(line.split(",")[2]) <= 22

    def test_readme_point_all_regimes(self, tmp_path):
        xi, slope = oracles.README_CURVE[0]
        assert run(["cns", "--xi", repr(xi), "--c", oracles.README_C, "--d-slope", repr(slope),
                    "--regimes", ",".join(oracles.README_REGIMES), "--delta", 1e-5,
                    "--out-dir", tmp_path, "--out", "c.csv"]) == 0
        rows = (tmp_path / "c.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == list(oracles.README_REGIMES)
        assert all(row.endswith(",none") for row in rows)

    def test_sidecar_says_what_set_the_gap(self, tmp_path):
        # at the README point the criterion reduces to ub_prob <= delta
        xi, slope = oracles.README_CURVE[-1]
        assert run(["cns", "--xi", repr(xi), "--c", oracles.README_C, "--d-slope", repr(slope),
                    "--regimes", "const:0.1,log,poly:0.5",
                    "--out-dir", tmp_path, "--out", "a.csv"]) == 0
        at_cns = json.loads((tmp_path / "a.meta.json").read_text())["at_cns"]
        assert at_cns == [{"regime": spec, "gap_side": "upper", "nominal_le_delta": True,
                           "lb_prob_le_delta": True} for spec in ("const:0.1", "log", "poly:0.5")]
        # the converse end binds at n = 14 (test_lower_side_binds); log's cns is 15
        reg = bounds.TypeIRegime("const", 0.05)
        delta = oracles.cns_gap((0.35, 0.0), 0.05, reg, 14)
        rep = bounds.feasibility_interval((0.35, 0.0), 0.05, reg, 14)
        assert run(["cns", "--xi", 0.35, "--c", 0.05, "--regimes", "const:0.05,log",
                    "--delta", repr(delta), "--cap", 14,
                    "--out-dir", tmp_path, "--out", "b.csv"]) == 0
        at_cns = json.loads((tmp_path / "b.meta.json").read_text())["at_cns"]
        assert at_cns == [
            {"regime": "const:0.05", "gap_side": "lower",
             "nominal_le_delta": rep.nominal <= delta, "lb_prob_le_delta": rep.lb_prob <= delta},
            {"regime": "log", "gap_side": None, "nominal_le_delta": None,
             "lb_prob_le_delta": None}]

    def test_unsatisfiable_cap(self, tmp_path):
        assert run(["cns", "--xi", 0.01, "--c", 5.0, "--regimes", "poly:0.1",
                    "--delta", 1e-12, "--cap", 50,
                    "--out-dir", tmp_path, "--out", "c.csv"]) == 0
        row = (tmp_path / "c.csv").read_text().strip().split("\n")[1]
        assert row.endswith(",none")

    @pytest.mark.parametrize("flag,value", [("--delta", "nan"), ("--regimes", "poly:nan")])
    def test_non_finite_input_is_an_error(self, tmp_path, capsys, flag, value):
        args = {"--xi": 0.7, "--c": 1.92, "--regimes": "log", "--delta": 1e-5,
                "--cap": 2000, "--out-dir": tmp_path}
        args[flag] = value
        assert run(["cns", *(item for pair in args.items() for item in pair)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "cns.csv").exists()

    def test_empty_regime_parts_are_skipped(self, tmp_path):
        # as --rates and --n-grid skip theirs; the sidecar echoes the flag as given
        written = []
        for sub, regimes in (("a", "log"), ("b", ",log,")):
            assert run(["cns", "--xi", 0.7, "--c", 1.92, "--regimes", regimes, "--cap", 30,
                        "--out-dir", tmp_path / sub]) == 0
            written.append((tmp_path / sub / "cns.csv").read_bytes())
            assert json.loads((tmp_path / sub / "cns.meta.json").read_text())["regimes"] == regimes
        assert written[0] == written[1] == b"regime,delta,cns\nlog,1e-05,28\n"

    def test_regimes_naming_none_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["cns", "--xi", 0.7, "--c", 1.92, "--regimes", ",", "--out-dir", out]) == 1
        assert capsys.readouterr().err == "error: --regimes names no regime: ','\n"
        assert not out.exists()


class TestSignedFlagValues:
    """A value that starts with "-" and is not a plain decimal parses after
    --d-slope and --force-threshold in both spellings."""

    @pytest.mark.parametrize("slope", ["-1.5e-05", "-1e-05", "-0.5"])
    def test_d_slope(self, tmp_path, slope):
        csvs = []
        for spelling in (["--d-slope", slope], [f"--d-slope={slope}"]):
            assert run(["cns", "--xi", 0.02, "--c", 9.92, *spelling, "--regimes", "log",
                        "--out-dir", tmp_path, "--out", "cns.csv"]) == 0
            meta = json.loads((tmp_path / "cns.meta.json").read_text())
            assert meta["d_slope"] == float(slope)
            csvs.append((tmp_path / "cns.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_force_threshold(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        csvs = []
        for spelling in (["--force-threshold", "-inf"], ["--force-threshold=-inf"]):
            assert run(["simulate", "--model", model, "--identity-encoder", "--n", 4,
                        "--regime", "const:0.1", "--trials", 200, *spelling,
                        "--out-dir", tmp_path, "--out", "f.csv"]) == 0
            csvs.append((tmp_path / "f.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].split(b"\n")[1].split(b",")[2] == b"-inf"

    def test_a_flag_is_not_taken_for_a_value(self, capsys):
        # only numbers are joined: a missing value is still an error
        with pytest.raises(SystemExit) as exc:
            run(["cns", "--xi", 0.02, "--c", 9.92, "--d-slope", "--regimes", "log"])
        assert exc.value.code == 2
        assert "--d-slope" in capsys.readouterr().err


class TestCurveWorkflow:
    def test_curve_row_and_sidecar_feed_bounds_and_cns(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1,0.2",
                    "--out-dir", tmp_path, "--out", "curve.csv"]) == 0
        header, *rows = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert header == "R_nats,xi_nats,D_nats,dD_dR"
        _, xi_text, _, slope_text = rows[-1].split(",")
        c = json.loads((tmp_path / "curve.meta.json").read_text())["c_nats"]
        assert c == json.loads((tmp_path / "model.meta.json").read_text())["c_nats"]
        xi, slope = float(xi_text), float(slope_text)
        assert slope < 0.0
        point = ["--xi", xi_text, "--d-slope", slope_text, "--c", repr(c)]

        specs = ["const:0.1", "log", "poly:1"]
        assert run(["cns", *point, "--regimes", ",".join(specs),
                    "--out-dir", tmp_path, "--out", "cns.csv"]) == 0
        want = "regime,delta,cns\n"
        for spec in specs:
            cns = bounds.critical_sample_size((xi, slope), c, bounds.TypeIRegime.parse(spec), 1e-5)
            want += f"{spec},{1e-5!r},{'none' if cns is None else cns}\n"
        assert (tmp_path / "cns.csv").read_bytes() == want.encode()
        assert not want.split("\n")[1].endswith(",none")  # const:0.1 finds a size

        sizes = [50, 1000, 60000]
        assert run(["bounds", *point, "--regime", "poly:1",
                    "--n-grid", ",".join(map(str, sizes)),
                    "--out-dir", tmp_path, "--out", "bounds.csv"]) == 0
        want = "n,eps_n,l,h_n,delta_tilde,lb_prob,nominal,ub_prob,gap_lower,gap_upper,valid_lb\n"
        for n in sizes:
            rep = bounds.feasibility_interval((xi, slope), c, bounds.TypeIRegime("poly", 1.0), n)
            want += ",".join([str(n), repr(rep.eps_n), str(rep.block_l), repr(rep.h_n),
                              repr(rep.delta_tilde), repr(rep.lb_prob), repr(rep.nominal),
                              repr(rep.ub_prob), repr(rep.gap_lower), repr(rep.gap_upper),
                              str(int(rep.valid_lb))]) + "\n"
        assert (tmp_path / "bounds.csv").read_bytes() == want.encode()

        for stem in ("cns", "bounds"):
            meta = json.loads((tmp_path / f"{stem}.meta.json").read_text())
            assert (meta["xi"], meta["d_slope"], meta["c"]) == (xi, slope, c)
            assert not {"xi_nats", "c_nats"} & meta.keys()  # no second copy of the point


class TestRemovedFlags:
    BASE = {
        "bounds": ["--xi", 0.7, "--c", 1.92, "--regime", "poly:1", "--n-grid", 50],
        "cns": ["--xi", 0.7, "--c", 1.92, "--regimes", "log"],
        "model": ["--rho", 0.5, "--grid", 8],
        "exponent": ["--model", "model.json", "--rates", "0.05,0.1,0.2"],
        "simulate": ["--model", "model.json", "--identity-encoder", "--n", 8,
                     "--regime", "const:0.2"],
    }

    @pytest.mark.parametrize("command,flag,value", [
        ("bounds", "--model", "m.json"), ("cns", "--rate", 0.1), ("bounds", "--restarts", 2),
        ("cns", "--units", "nats"), ("model", "--workers", 2), ("exponent", "--workers", 2),
        ("simulate", "--units", "bits"), ("model", "--gaussian", None),
        ("simulate", "--preset", "smoke"), ("exponent", "--rate-min", 0.01),
        ("exponent", "--rate-max", 0.25), ("exponent", "--rate-points", 7),
        ("simulate", "--eps", 0.2), ("simulate", "--workers", 2),
        ("exponent", "--restarts", 4),
        # each flag has one spelling: a unique prefix is not an alias of it
        ("cns", "--regime", "log"), ("model", "--gr", 8), ("bounds", "--n-gr", 50),
        ("simulate", "--tri", 200), ("cns", "--out-d", "."),
    ])
    def test_rejected_and_not_echoed(self, tmp_path, capsys, command, flag, value):
        extra = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as exc:
            run([command, *self.BASE[command], *extra, "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert run(["cns", *self.BASE["cns"], "--out-dir", tmp_path]) == 0
        meta = json.loads((tmp_path / "cns.meta.json").read_text())
        assert not {"model", "rate", "restarts", "units", "workers"} & meta.keys()

    def test_simulate_sidecar_has_no_removed_keys(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--identity-encoder", "--n", 8,
                    "--regime", "const:0.2", "--trials", 200, "--force-threshold", "inf",
                    "--out-dir", tmp_path]) == 0
        meta = json.loads((tmp_path / "sim.meta.json").read_text())
        assert meta["regime"] == "const:0.2" and meta["eps_n"] == 0.2
        assert not {"eps", "workers", "units", "preset", "block_len"} & meta.keys()

    def test_block_len_is_refused_before_any_output(self, tmp_path, capsys):
        # the scalar encoder is the only one the command line builds
        model = make_model(tmp_path, grid=8)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", model, "--levels", 2, "--block-len", 2, "--n", 8,
                 "--regime", "const:0.2", "--trials", 200, "--force-threshold", "inf",
                 "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert "unrecognized arguments: --block-len 2" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("command", ["exponent", "simulate"])
    def test_grid_and_budget_are_required(self, tmp_path, capsys, command):
        # the one spelling of each is --rates and --regime
        flag = {"exponent": "--rates", "simulate": "--regime"}[command]
        base = self.BASE[command]
        at = base.index(flag)
        with pytest.raises(SystemExit) as exc:
            run([command, *base[:at], *base[at + 2:], "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert f"the following arguments are required: {flag}" in capsys.readouterr().err


class TestSimulateCommand:
    def test_identity_encoder_run(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 8, "--regime", "const:0.2", "--trials", 4000,
                    "--cal-trials", 4000, "--out-dir", tmp_path,
                    "--out", "sim.csv"]) == 0
        lines = (tmp_path / "sim.csv").read_text().strip().split("\n")
        assert lines[0] == "n,eps_n,t,type1_hat,type2_hat,ci_lo,ci_hi,seed"
        assert len(lines) == 2
        meta = json.loads((tmp_path / "sim.meta.json").read_text())
        assert meta["trials"] == 4000
        assert meta["eps_n"] == 0.2
        assert "model_fingerprint" in meta
        assert "preset" not in meta
        # the 12 x 12 Gaussian is symmetric under x <-> y and under negating
        # both, so its 144 cells tie in orbits of up to four: 42 classes
        assert meta["sampler_version"] == simulate.SAMPLER_VERSION == 5
        assert meta["table_cells"] == 144
        assert meta["sampled_classes"] == 42
        # one chunk for calibration and one for the evaluation stream
        assert meta["chunks"] == 2
        assert ((meta["count_block_rows"], meta["count_block_bytes"])
                == simulate.count_block(42) == (390, 390 * 42 * 8))

    def test_levels_with_regime(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["simulate", "--model", model, "--levels", 3,
                    "--n", 32, "--regime", "poly:0.5",
                    "--trials", 3000, "--cal-trials", 3000,
                    "--out-dir", tmp_path, "--out", "s.csv"]) == 0
        row = (tmp_path / "s.csv").read_text().strip().split("\n")[1]
        eps = float(row.split(",")[1])
        assert eps == pytest.approx(32 ** -0.5)

    @pytest.mark.parametrize("encoder, codebook, reduced", [
        (["--levels", 3], 3, False), (["--levels", 8], 8, False),
        (["--levels", 20], 8, True), (["--identity-encoder"], 8, False)])
    def test_sidecar_codebook(self, tmp_path, encoder, codebook, reduced):
        # the codes of the table, and whether --levels asked for more than |X|
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, *encoder, "--n", 4, "--regime", "const:0.1",
                    "--trials", 200, "--force-threshold", 0, "--out-dir", tmp_path]) == 0
        meta = json.loads((tmp_path / "sim.meta.json").read_text())
        assert (meta["codebook_size"], meta["levels_reduced"]) == (codebook, reduced)
        assert meta["table_cells"] == codebook * 8

    @pytest.mark.parametrize("labels, named", [
        (["a", "b", "c"], "got 'a'"), ([0, None, 1], "got None"), ([0, math.nan, 1], "finite")])
    def test_levels_need_finite_numeric_labels(self, tmp_path, capsys, labels, named):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"x_labels": labels, "y_labels": [0, 1],
                                     "probs": [[0.2, 0.1], [0.1, 0.2], [0.3, 0.1]]}))
        args = ["simulate", "--model", model, "--n", 4, "--regime", "const:0.2", "--trials", 200,
                "--cal-trials", 2000, "--out-dir", tmp_path]
        assert run([*args, "--levels", 2]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "sim.csv").exists()
        assert run([*args, "--identity-encoder"]) == 0

    def test_force_threshold_skips_calibration(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 4, "--regime", "const:0.1", "--trials", 2000,
                    "--force-threshold", "inf",
                    "--out-dir", tmp_path, "--out", "f.csv"]) == 0
        row = (tmp_path / "f.csv").read_text().strip().split("\n")[1]
        cells = row.split(",")
        assert cells[2] == "inf"
        assert float(cells[3]) == 1.0 and float(cells[4]) == 0.0
        # strict JSON: the infinite threshold is spelled as in the CSV
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        meta = json.loads((tmp_path / "f.meta.json").read_text(), parse_constant=refuse)
        assert meta["force_threshold"] == meta["threshold_t"] == "inf"
        assert meta["chunks"] == 1

    @pytest.mark.parametrize("threshold, stream, kinds", [
        ("0", "h0", ("wilson", "empirical_bernstein")),
        ("-0.5", "h1", ("empirical_bernstein", "wilson"))])
    def test_sidecar_names_stream_and_interval_kinds(self, tmp_path, threshold, stream, kinds):
        # the drawn stream counts its own error (Wilson) and weighs the other
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--identity-encoder", "--n", 4,
                    "--regime", "const:0.1", "--trials", 200, "--force-threshold", threshold,
                    "--out-dir", tmp_path]) == 0
        meta = json.loads((tmp_path / "sim.meta.json").read_text())
        assert meta["evaluation_stream"] == stream
        assert (meta["type1_interval"], meta["type2_interval"]) == kinds

    def test_cal_trials_follow_trials(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 4, "--regime", "const:0.2", "--trials", 2000,
                    "--out-dir", tmp_path, "--out", "p.csv"]) == 0
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        assert meta["trials"] == 2000 and meta["cal_trials"] == 2000

    def test_levels_and_identity_encoder_are_exclusive(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        for encoder in (["--levels", 3, "--identity-encoder"], []):
            with pytest.raises(SystemExit) as exc:
                run(["simulate", "--model", model, *encoder,
                     "--n", 4, "--regime", "const:0.2", "--out-dir", tmp_path])
            assert exc.value.code == 2
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("regime,n,message", [
        # eps_1 = 1.0 lies outside poly's domain
        ("poly:1", 1, "eps_n of the poly regime is undefined at n = 1 (needs n >= 2)"),
        ("superpoly:0.9", 2000, "eps must lie in (0, 1)"),  # eps_n underflows to 0.0
        ("const:7", 10, "const regime needs a parameter in (0, 1)"),
    ], ids=["poly:1", "superpoly:0.9", "const:7"])
    def test_eps_outside_unit_interval_rejected(self, tmp_path, capsys, regime, n, message):
        # --force-threshold skips calibration, which checks eps too
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", n, "--regime", regime, "--force-threshold", 0,
                    "--trials", 100, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("n, message", [
        (10 ** 400, "n may not exceed 1.7976931348623157e+308, the float64 range"),
        (10 ** 20, "n = 100000000000000000000 must be a positive multiple of block length 1, "
                   "in at most 2^63 - 1 blocks"),
    ], ids=["beyond-float64", "beyond-int64-blocks"])
    @pytest.mark.parametrize("threshold", [[], ["--force-threshold", 0]], ids=["", "forced"])
    def test_huge_n_is_an_error(self, tmp_path, capsys, n, message, threshold):
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--levels", 2, "--n", n,
                    "--regime", "const:0.1", "--trials", 10, *threshold,
                    "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sim.csv").exists()

    def test_certain_type2_prints_zero_exponent(self, tmp_path, capsys):
        # t = -inf accepts every H1 trial, so type2_hat is 1 and -ln(1)/n,
        # which is -0.0, must print as 0.0000
        model = make_model(tmp_path, rho=-0.5, grid=3, name="neg.json")
        capsys.readouterr()
        assert run(["simulate", "--model", model, "--levels", 9, "--n", 2,
                    "--regime", "const:0.5", "--trials", 100, "--force-threshold", "-inf",
                    "--out-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "type2=1 " in out
        assert "per-sample exponent 0.0000 nats" in out

    def test_nan_threshold_rejected(self, tmp_path, capsys):
        # every comparison with NaN is false, so it would report no errors
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 4, "--regime", "const:0.1", "--force-threshold", "nan",
                    "--trials", 100, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "sim.csv").exists()

    def test_library_warning_is_one_line(self, tmp_path, capsys):
        # pytest's filterwarnings = error would raise it; main prints it instead
        model = make_model(tmp_path, grid=8)
        capsys.readouterr()
        assert run(["simulate", "--model", model, "--levels", 2, "--n", 8,
                    "--regime", "const:0.1", "--trials", 100, "--out-dir", tmp_path]) == 0
        assert capsys.readouterr().err == (
            "warning: cal_trials = 100 is small for eps = 0.1; recommend at least 1000\n")
        assert (tmp_path / "sim.csv").exists() and (tmp_path / "sim.meta.json").exists()


class TestMalformedInput:
    """Malformed inputs end in an error line, never a traceback, and
    before any artifact is written."""

    @pytest.mark.parametrize("command", ["exponent", "simulate"])
    @pytest.mark.parametrize("text,named", [
        (b"null", "must be an object, got NoneType"),
        (b'{"x_labels": [0, 1], "y_labels": [0, 1], "probs": [[0.5], [0.25, 0.25]]}',
         "'probs' is not a matrix of numbers"),
        (b'{"x_labels": [0, 1], "y_labels": [0, 1], "probs": "ab"}',
         "'probs' is not a matrix of numbers"),
        (b'{"x_labels": 5, "y_labels": [0, 1], "probs": [[0.25, 0.25], [0.25, 0.25]]}',
         "'x_labels' must be a list, got int"),
        (b"[" * 100_000, "unparseable: maximum recursion depth exceeded"),
        (b"\xff\xfe", "is not UTF-8 text"),
    ], ids=["null", "ragged-probs", "string-probs", "number-labels", "deep-nesting",
            "not-utf8"])
    def test_model_json(self, tmp_path, capsys, command, text, named):
        model = tmp_path / "m.json"
        model.write_bytes(text)
        args = {"exponent": ["--rates", "0.05,0.1,0.2"],
                "simulate": ["--identity-encoder", "--n", 4, "--regime", "const:0.1",
                             "--trials", 200]}[command]
        out = tmp_path / "out"
        assert run([command, "--model", model, *args, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model JSON ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag,kind", [
        (["exponent", "--model", "m.json", "--rates", "0.1,x"], "--rates", "floats"),
        (["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "log", "--n-grid", "5,x"],
         "--n-grid", "integers"),
    ], ids=["rates", "n-grid"])
    def test_list_flag(self, tmp_path, capsys, argv, flag, kind):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out-dir", tmp_path])
        assert exc.value.code == 2
        value = argv[-1]
        assert (f"argument {flag}: expected comma-separated {kind}, got {value!r}"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())


def _feasibility_with(**fields):
    real = bounds.feasibility_interval
    return lambda *args: dataclasses.replace(real(*args), **fields)


class TestInvariantChecks:
    """Each command's invariant checks, failed by breaking the library call
    under them: the run exits 1 and names the check on stderr."""

    BOUNDS = ["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "const:0.1", "--n-grid", 50]

    @pytest.mark.parametrize("argv,module,name,fake,check", [
        (["model", "--target-mi-nats", 0.08, "--grid", 8], dist, "calibrate_correlation",
         lambda *_: (0.1, dist.discretized_gaussian(0.1, 8, 8)),
         "calibrated mutual information within 1e-4 of target"),
        (BOUNDS, bounds, "feasibility_interval",
         _feasibility_with(valid_lb=True, lb_prob=0.5, ub_prob=0.25),
         "lb_prob <= ub_prob when valid_lb"),
        (BOUNDS, bounds, "feasibility_interval", _feasibility_with(ub_prob=1.5),
         "probabilities clamped to [0, 1]"),
        (["cns", "--xi", 0.7, "--c", 1.92, "--regimes", "const:0.1"], bounds,
         "critical_sample_size", lambda *_, **__: 1,  # far from feasible at n = 1
         "feasibility condition holds at the reported cns"),
        (["cns", "--xi", 0.7, "--c", 1.92, "--regimes", "const:0.1"], bounds,
         "feasibility_interval", _feasibility_with(ub_prob=math.nan),
         "feasibility condition holds at the reported cns"),
        (["cns", "--xi", 0.7, "--c", 1.92, "--regimes", "const:0.1"], bounds,
         "feasibility_interval", _feasibility_with(lb_prob=math.nan),
         "feasibility condition holds at the reported cns"),
        (["simulate", "--identity-encoder", "--n", 4, "--regime", "const:0.1",
          "--trials", 200, "--force-threshold", 0], simulate, "wilson_interval",
         lambda *_: (2.0, 3.0), "type1 estimate inside its wilson interval"),
        (["simulate", "--identity-encoder", "--n", 4, "--regime", "const:0.1",
          "--trials", 200, "--force-threshold", 0], simulate, "empirical_bernstein_interval",
         lambda *_: (2.0, 3.0), "type2 estimate inside its empirical_bernstein interval"),
    ], ids=["model", "bounds-order", "bounds-clamp", "cns", "cns-nan-ub", "cns-nan-lb",
            "simulate", "simulate-bernstein"])
    def test_violation_exits_1(self, tmp_path, capsys, monkeypatch,
                               argv, module, name, fake, check):
        if argv[0] == "simulate":
            argv = [*argv, "--model", make_model(tmp_path, grid=8)]
        monkeypatch.setattr(module, name, fake)
        capsys.readouterr()
        assert run([*argv, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == f"invariant violated: {check}\n"


class TestInputCaps:
    """Inputs whose memory would grow with their value fail with an error
    before anything of that size is allocated."""

    HUGE = 10 ** 12

    @pytest.mark.parametrize("command,args", [
        ("model", ["--rho", 0.5, "--grid", 1_000_000]),
        ("model", ["--target-mi-nats", 0.08, "--grid", 1_000_000]),
        ("simulate", ["--cal-trials", HUGE]),
        ("simulate", ["--trials", HUGE]),
        ("simulate", ["--trials", HUGE, "--cal-trials", 1000]),
        ("simulate", ["--trials", HUGE, "--force-threshold", 0]),
        ("cns", ["--xi", 0.001, "--c", 9.9, "--regimes", "const:0.1", "--cap", HUGE]),
    ], ids=["rho-grid", "target-grid", "cal-trials", "trials", "trials-after-calibration",
            "trials-forced-threshold", "cns-cap"])
    def test_refused_before_allocation(self, tmp_path, capsys, monkeypatch, command, args):
        out = tmp_path / "out"
        if command == "simulate":
            args = ["--model", make_model(tmp_path, grid=8), "--identity-encoder",
                    "--n", 8, "--regime", "const:0.2", *args]

            def sampled(*_):  # neither phase samples before both counts are checked
                raise AssertionError("a chunk was sampled")
            monkeypatch.setattr(simulate, "_chunk_stats", sampled)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run([command, *args, "--out-dir", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        cap = {"model": dist.MAX_GRID_CELLS, "simulate": simulate.MAX_TRIALS,
               "cns": bounds.MAX_CAP}[command]
        assert err.startswith("error:") and str(cap) in err
        assert peak < 1 << 20
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("encoder", [["--levels", 100], ["--levels", 1000],
                                         ["--identity-encoder"]])
    def test_table_cap_before_the_quantizer(self, tmp_path, capsys, monkeypatch, encoder):
        # min(levels, |X|) = 100 or 200 codes x 200 y values exceed the table
        # cap: refused before the quantizer's search or any channel is built
        model = make_model(tmp_path, grid=200)
        monkeypatch.setattr(simulate, "_optimal_split_cells", None)
        monkeypatch.setattr(bottleneck.TestChannel, "identity", None)
        assert run(["simulate", "--model", model, *encoder, "--n", 4, "--regime", "const:0.1",
                    "--trials", 200, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quantized table") and str(simulate.MAX_TABLE_CELLS) in err
        assert not (tmp_path / "out").exists()

    def test_dense_channel_cap(self, tmp_path, capsys):
        # 4096 x 2: the identity table fits (8192 cells), but its channel
        # would be 4096 x 4096 float64 entries, 128 MiB
        model = tmp_path / "tall.json"
        model.write_text(json.dumps({"x_labels": list(range(4096)), "y_labels": [0, 1],
                                     "probs": [[1 / 8192] * 2] * 4096}))
        args = ["simulate", "--model", model, "--n", 4, "--regime", "const:0.1",
                "--trials", 200, "--force-threshold", 0]
        tracemalloc.start()
        try:
            code = run([*args, "--identity-encoder", "--out-dir", tmp_path / "id"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 8 << 20
        err = capsys.readouterr().err
        assert err.startswith("error: channel") and str(bottleneck.MAX_STACK_ENTRIES) in err
        assert not (tmp_path / "id").exists()
        # a 4-level quantizer's channel is 4096 x 4
        assert run([*args, "--levels", 4, "--out-dir", tmp_path / "lm"]) == 0


class TestArtifactFormat:
    """Each subcommand's CSV: its exact header, as many cells in every row
    as the header names, and the spelling of one telling column."""

    CASES = {
        "exponent": (["--rates", "0.05,0.1,0.2", "--units", "nats"],
                     "R_nats,xi_nats,D_nats,dD_dR", "R_nats", ["0.05", "0.1", "0.2"]),
        # the converse degenerates at n = 1 and holds at n = 2
        "bounds": (["--xi", 0.05, "--c", 1.3, "--regime", "const:0.1", "--n-grid", "1,2"],
                   "n,eps_n,l,h_n,delta_tilde,lb_prob,nominal,ub_prob,gap_lower,gap_upper,"
                   "valid_lb", "valid_lb", ["0", "1"]),
        "cns": (["--xi", 0.7, "--c", 1.92, "--regimes", "log,poly:1", "--cap", 30],
                "regime,delta,cns", "cns", ["28", "none"]),
        "simulate": (["--identity-encoder", "--n", 4, "--regime", "const:0.1", "--trials", 200,
                      "--force-threshold", "inf"],
                     "n,eps_n,t,type1_hat,type2_hat,ci_lo,ci_hi,seed", "t", ["inf"]),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_header_and_cells(self, tmp_path, command):
        args, header, column, want = self.CASES[command]
        if command in ("exponent", "simulate"):
            args = ["--model", make_model(tmp_path, grid=8), *args]
        assert run([command, *args, "--out-dir", tmp_path, "--out", "a.csv"]) == 0
        lines = (tmp_path / "a.csv").read_text(encoding="utf-8").split("\n")
        assert lines[0] == header and lines[-1] == ""
        names = header.split(",")
        rows = [line.split(",") for line in lines[1:-1]]
        assert all(len(row) == len(names) for row in rows)
        assert [row[names.index(column)] for row in rows] == want


class TestSidecarFormat:
    """Every subcommand's sidecar is <stem>.meta.json beside its artifact:
    the flags but func in sorted order, then the command's facts in order; a
    fact named like a flag (model's rho, bounds' regime, simulate's
    cal_trials) holds the flag's place."""

    CASES = {
        "model": (["--target-mi-nats", 0.05, "--grid", 6], "m.json",
                  ["rho", "mi_nats", "mi_bits", "entropy_x_nats", "entropy_y_nats", "c_nats",
                   "c_cell", "c_cell_mass", "c_ties", "mass_above_half_c", "var_div",
                   "fingerprint"]),
        "exponent": (["--rates", "0.05,0.1"], "c.csv", ["c_nats", "fingerprint", "diagnostics"]),
        "bounds": (["--xi", 0.05, "--c", 1.3, "--regime", "const:0.1", "--n-grid", "2"],
                   "b.csv", ["regime"]),
        "cns": (["--xi", 0.7, "--c", 1.92, "--regimes", "log", "--cap", 30], "c.csv",
                ["at_cns"]),
        "simulate": (["--levels", 2, "--n", 4, "--regime", "const:0.1", "--trials", 1000],
                     "run.sim.csv",
                     ["eps_n", "threshold_t", "saturated", "cal_trials", "sampler_version",
                      "evaluation_stream", "type1_interval", "type2_interval", "table_cells",
                      "sampled_classes", "chunks", "count_block_rows", "count_block_bytes",
                      "codebook_size", "levels_reduced", "model_fingerprint"]),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_keys_are_sorted_flags_then_facts(self, tmp_path, command):
        args, name, facts = self.CASES[command]
        if command in ("exponent", "simulate"):
            args = ["--model", make_model(tmp_path / "in", grid=8), *args]
        out = tmp_path / "out"
        argv = [str(a) for a in [command, *args, "--out-dir", out, "--out", name]]
        assert cli.main(argv) == 0
        stem = name.rsplit(".", 1)[0]
        assert sorted(os.listdir(out)) == sorted([name, stem + ".meta.json"])
        meta = json.loads((out / (stem + ".meta.json")).read_text(encoding="utf-8"))
        flags = sorted(set(vars(cli.build_parser().parse_args(argv))) - {"func"})
        assert list(meta) == flags + [fact for fact in facts if fact not in flags]
        if command == "simulate":
            # the effective count, where the flag's None would be
            assert flags.index("cal_trials") == list(meta).index("cal_trials")
            assert meta["cal_trials"] == meta["trials"] == 1000

    def test_out_names_a_subdirectory(self, tmp_path):
        out = tmp_path / "o"
        assert run(["cns", "--xi", 0.7, "--c", 1.92, "--regimes", "log", "--cap", 30,
                    "--out", Path("sub") / "cns.csv", "--out-dir", out]) == 0
        assert sorted(os.listdir(out / "sub")) == ["cns.csv", "cns.meta.json"]
        assert (out / "sub" / "cns.csv").read_bytes() == b"regime,delta,cns\nlog,1e-05,28\n"


class TestDeterminism:
    def test_byte_identical_reruns_and_worker_invariance(self, tmp_path, monkeypatch):
        # 40,000 trials are 3 chunks per phase, so 4 threads run chunks at once
        model = make_model(tmp_path, grid=8)
        texts = []
        for sub, workers in (("a", 1), ("b", 1), ("c", 4)):
            monkeypatch.setattr(simulate, "_sampling_threads", lambda: workers)
            out = tmp_path / sub
            assert run(["simulate", "--model", model, "--identity-encoder",
                        "--n", 8, "--regime", "const:0.2", "--trials", 40_000,
                        "--cal-trials", 40_000, "--seed", 3,
                        "--out-dir", out,
                        "--out", "sim.csv"]) == 0
            assert json.loads((out / "sim.meta.json").read_text())["chunks"] >= 2 * 3
            texts.append((out / "sim.csv").read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_exponent_rerun_identical(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        for sub in ("a", "b"):
            assert run(["exponent", "--model", model,
                        "--rates", "0.05,0.1,0.2",
                        "--out-dir", tmp_path / sub, "--out", "c.csv"]) == 0
        assert ((tmp_path / "a" / "c.csv").read_bytes()
                == (tmp_path / "b" / "c.csv").read_bytes())


class TestArtifactRewrite:
    """Artifacts are rewritten in place: a run over a longer earlier run's
    files leaves the bytes that the same run writes into an empty directory."""

    CASES = {
        "model": (["--target-mi-nats", 0.08, "--grid", 12], ["--rho", 0.6, "--grid", 4],
                  "model.json"),
        "exponent": (["--rates", "0.05,0.1,0.2", "--units", "nats"],
                     ["--rates", "0.05", "--units", "nats"], "curve.csv"),
        "bounds": (["--xi", 0.05, "--c", 1.3, "--regime", "const:0.1", "--n-grid", "2,10,100"],
                   ["--xi", 0.05, "--c", 1.3, "--regime", "const:0.1", "--n-grid", "2"],
                   "bounds.csv"),
        "cns": (["--xi", 0.7, "--c", 1.92, "--regimes", "log,poly:1", "--cap", 30],
                ["--xi", 0.7, "--c", 1.92, "--regimes", "log", "--cap", 30], "cns.csv"),
        "simulate": (["--identity-encoder", "--n", 4, "--regime", "const:0.1", "--trials", 200,
                      "--force-threshold", 0.123456789],
                     ["--identity-encoder", "--n", 4, "--regime", "const:0.1", "--trials", 200,
                      "--force-threshold", "inf"], "sim.csv"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_shorter_rewrite_equals_a_fresh_write(self, tmp_path, command):
        longer, shorter, name = self.CASES[command]
        if command in ("exponent", "simulate"):
            model = ["--model", make_model(tmp_path / "in", grid=8)]
            longer, shorter = model + longer, model + shorter
        out = tmp_path / "out"
        paths = (out / name, out / (Path(name).stem + ".meta.json"))

        def written(args):
            assert run([command, *args, "--out-dir", out]) == 0
            return [path.read_bytes() for path in paths]

        first = written(longer)
        second = written(shorter)
        assert all(len(new) < len(old) for old, new in zip(first, second))
        for path in paths:
            path.unlink()
        assert written(shorter) == second

    def test_writes_onto_a_device(self):
        cli._write_text(Path(os.devnull), "regime,delta,cns\n")

    def test_symlink_rewrites_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("a longer earlier artifact\n", encoding="utf-8")
        link.symlink_to(target)
        cli._write_text(link, "n\n1\n")
        assert link.is_symlink() and target.read_bytes() == b"n\n1\n"

    def test_modes_match_path_write_text(self, tmp_path):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        cli._write_text(ours, "n\n")
        theirs.write_text("n\n", encoding="utf-8")
        assert ours.stat().st_mode == theirs.stat().st_mode
        ours.chmod(0o600)
        cli._write_text(ours, "n\n1\n")
        assert stat.S_IMODE(ours.stat().st_mode) == 0o600


class TestReadmeExamples:
    @staticmethod
    def transcripts():
        """(argv, shown lines) for each `$ ` line of the README's sh blocks."""
        out = []
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
            current = None
            for line in block.splitlines():
                if line.startswith("$ "):
                    current = (shlex.split(line[2:]), [])
                    out.append(current)
                elif current is not None:
                    current[1].append(line)
        return out

    def test_shown_output_is_printed(self, tmp_path, monkeypatch, capsys):
        # each command runs in order in one directory; every line the README
        # shows under it must be printed, in order ("..." stands for lines
        # it leaves out)
        monkeypatch.chdir(tmp_path)
        transcripts = self.transcripts()
        assert [argv[1] if argv[0] == "disthyp" else argv[0] for argv, _ in transcripts] == [
            "model", "exponent", "head", "bounds", "cns", "tail", "grep", "cns", "simulate"]
        for argv, shown in transcripts:
            if argv[0] == "disthyp":
                assert cli.main(argv[1:]) == 0
                printed = capsys.readouterr().out.splitlines()
            else:
                tool, arg, name = argv  # head -k, tail -k or grep <word>
                lines = Path(name).read_text(encoding="utf-8").splitlines()
                if tool == "grep":
                    printed = [line for line in lines if arg in line]
                else:
                    k = -int(arg)
                    printed = lines[:k] if tool == "head" else lines[-k:]
            rest = iter(printed)
            for line in shown:
                if line != "...":
                    assert line in rest, f"$ {shlex.join(argv)}: README shows {line!r}"

    def test_library_block_runs(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README Library block", "exec"), {})


class TestRangeFlags:
    """Each integer flag's range is checked once, by the library, before any
    work: 0 exits 1 with its error, as a value above the range does."""

    @pytest.mark.parametrize("argv, message", [
        (["cns", "--xi", 3.0, "--c", 2.47, "--regimes", "log", "--cap", 0],
         "error: cap = 0 must lie in [1, "),
        (["simulate", "--levels", 0, "--n", 8, "--regime", "const:0.2"],
         "error: levels must be >= 1"),
        (["simulate", "--levels", 2, "--n", 0, "--regime", "const:0.2"],
         "error: eps_n of the const regime is undefined at n = 0"),
        (["simulate", "--levels", 2, "--n", 8, "--regime", "const:0.2", "--trials", 0],
         "error: trials = 0 must lie in [1, "),
        (["simulate", "--levels", 2, "--n", 8, "--regime", "const:0.2", "--cal-trials", 0],
         "error: cal_trials = 0 must lie in [1, "),
        (["simulate", "--levels", 2, "--n", 8, "--regime", "const:0.2", "--cal-trials", 0,
          "--force-threshold", 0.5],
         "error: cal_trials = 0 must lie in [1, "),
    ], ids=["cap", "levels", "n", "trials", "cal-trials", "cal-trials-forced"])
    def test_zero_is_an_error(self, tmp_path, capsys, argv, message):
        if argv[0] == "simulate":
            argv = [*argv, "--model", make_model(tmp_path, grid=8)]
        out = tmp_path / "out"
        assert run([*argv, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("forced", [[], ["--force-threshold", 0.5]],
                             ids=["calibrated", "forced"])
    def test_negative_seed_is_an_error(self, tmp_path, capsys, forced):
        out = tmp_path / "out"
        argv = ["simulate", "--model", make_model(tmp_path, grid=8), "--levels", 2,
                "--n", 8, "--regime", "const:0.2", "--trials", 200, "--seed", -1]
        assert run([*argv, *forced, "--out-dir", out]) == 1
        assert capsys.readouterr().err == "error: seed = -1 must be >= 0\n"
        assert not out.exists()


class TestTopLevel:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "disthyp: error: the following arguments are required: command\n")

    def test_unknown_flag_is_named(self, capsys):
        # also without a subcommand, whose absence argparse would report first
        with pytest.raises(SystemExit) as exc:
            cli.main(["--vers"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "disthyp: error: unrecognized arguments: --vers\n")

    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


class TestParserReuse:
    """main parses with one parser per process; no call may see another's."""

    CNS = ["cns", "--xi", 3.0, "--c", 2.47, "--regimes", "log"]

    def echo(self, tmp_path, *extra):
        assert run([*self.CNS, *extra, "--out-dir", tmp_path, "--out", "r.csv"]) == 0
        return json.loads((tmp_path / "r.meta.json").read_text())

    def test_built_once(self, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        self.echo(tmp_path)
        self.echo(tmp_path, "--delta", 1e-3)
        assert built == []

    def test_defaults_return_after_overrides(self, tmp_path):
        meta = self.echo(tmp_path, "--delta", 1e-3, "--cap", 500)
        assert (meta["delta"], meta["cap"]) == (1e-3, 500)
        meta = self.echo(tmp_path)
        assert (meta["delta"], meta["cap"]) == (1e-5, 100_000)

    @pytest.mark.parametrize("bad,code", [
        (["cns", "--xi", "3.0", "--c", "2.47", "--regimes", "log", "--delta", "1e-3",
          "--cap", "x"], 2),
        (["cns", "--delta", "1e-3", "--bogus"], 2),
        (["--version"], 0),
        (["--vers"], 2)])
    def test_valid_call_after_an_exit(self, tmp_path, capsys, bad, code):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == code
        capsys.readouterr()
        meta = self.echo(tmp_path)
        assert (meta["delta"], meta["cap"]) == (1e-5, 100_000)
        assert capsys.readouterr().out.startswith("log: cns=6\n")

    def test_fresh_process_writes_the_same_bytes(self, tmp_path):
        # the README cns example whose rows are 46518, 46657 and 84782
        argv = [argv for argv, _ in TestReadmeExamples.transcripts() if argv[1:2] == ["cns"]][-1]
        argv = [*argv[1:], "--out-dir", str(tmp_path)]
        src_dir = str(Path(cli.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-m", "disthyp.cli", *argv], check=True,
                       capture_output=True, env={**os.environ, "PYTHONPATH": src_dir})
        names = ("cns.csv", "cns.meta.json")
        fresh = [(tmp_path / name).read_bytes() for name in names]
        assert [row.split(b",")[2] for row in fresh[0].splitlines()[1:]] == [
            b"46518", b"46657", b"84782"]
        for _ in range(2):
            for name in names:
                (tmp_path / name).unlink()
            assert cli.main(argv) == 0
            assert [(tmp_path / name).read_bytes() for name in names] == fresh
