import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

import numpy as np

from disthyp import bounds, cli, dist, simulate

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

    def test_grid_of_one_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["model", "--rho", 0.5, "--grid", 1,
                 "--out-dir", tmp_path])
        assert exc.value.code == 2

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
        # 5 chains x 1024 x 1025 entries exceed bottleneck.MAX_STACK_ENTRIES
        model = tmp_path / "wide.json"
        model.write_text(dist.JointPmf.from_probs(np.full((1024, 2), 1 / 2048)).to_json())
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1,0.2",
                    "--out-dir", tmp_path, "--out", "curve.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("*.csv"))

    def test_two_rates_rejected(self, tmp_path, capsys):
        model = make_model(tmp_path)
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1",
                    "--out-dir", tmp_path]) == 1
        assert "3 points" in capsys.readouterr().err

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
        summary = capsys.readouterr().out.strip().split("\n")[-1]
        assert summary.endswith(f"unconverged {diag['unconverged']}/{diag['beta_solves']}")


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
    ])
    def test_rejected_and_not_echoed(self, tmp_path, capsys, command, flag, value):
        extra = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as exc:
            run([command, *self.BASE[command], *extra, "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
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
        assert meta["sampler_version"] == simulate.SAMPLER_VERSION == 3
        assert meta["table_cells"] == 144
        assert meta["sampled_classes"] == 42
        # one chunk each for calibration and both hypotheses
        assert meta["chunks"] == 3
        assert ((meta["count_block_rows"], meta["count_block_bytes"])
                == simulate.count_block(42) == (1560, 1560 * 42 * 8))

    def test_levels_with_regime(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["simulate", "--model", model, "--levels", 3,
                    "--n", 32, "--regime", "poly:0.5",
                    "--trials", 3000, "--cal-trials", 3000,
                    "--out-dir", tmp_path, "--out", "s.csv"]) == 0
        row = (tmp_path / "s.csv").read_text().strip().split("\n")[1]
        eps = float(row.split(",")[1])
        assert eps == pytest.approx(32 ** -0.5)

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
        assert meta["chunks"] == 2

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
        ("poly:1", 1, "eps must lie in (0, 1)"),  # eps_n = 1.0
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

    def test_nan_threshold_rejected(self, tmp_path, capsys):
        # every comparison with NaN is false, so it would report no errors
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 4, "--regime", "const:0.1", "--force-threshold", "nan",
                    "--trials", 100, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "sim.csv").exists()


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


class TestTopLevel:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
