import json
import math

import pytest

from disthyp import cli

import oracles


def run(args):
    return cli.main([str(a) for a in args])


def make_model(tmp_path, rho=0.6, grid=12, name="model.json"):
    assert run(["model", "--gaussian", "--rho", rho, "--grid", grid,
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

    def test_target_mi_calibration(self, tmp_path, capsys):
        assert run(["model", "--gaussian", "--target-mi-nats", 0.08,
                    "--grid", 24, "--out-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "mi=0.08" in out

    def test_zero_rho_is_independent(self, tmp_path, capsys):
        make_model(tmp_path, rho=0.0)
        out = capsys.readouterr().out
        assert "mi=0" in out

    def test_grid_of_one_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["model", "--gaussian", "--rho", 0.5, "--grid", 1,
                 "--out-dir", tmp_path])
        assert exc.value.code == 2

    def test_rho_and_target_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["model", "--gaussian", "--rho", 0.5, "--target-mi-nats", 0.1,
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

    def test_linear_grid_flags(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["exponent", "--model", model, "--rate-min", 0.02,
                    "--rate-max", 0.3, "--rate-points", 5,
                    "--out-dir", tmp_path, "--out", "grid.csv"]) == 0
        lines = (tmp_path / "grid.csv").read_text().strip().split("\n")
        assert len(lines) == 6

    def test_two_rates_rejected(self, tmp_path, capsys):
        model = make_model(tmp_path)
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1",
                    "--out-dir", tmp_path]) == 1
        assert "3 points" in capsys.readouterr().err

    def test_missing_model_fails_cleanly(self, tmp_path, capsys):
        code = run(["exponent", "--model", tmp_path / "nope.json",
                    "--rates", "0.05,0.1,0.2", "--out-dir", tmp_path])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_sidecar_echoes_config(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["exponent", "--model", model, "--rates", "0.05,0.1,0.2",
                    "--out-dir", tmp_path, "--out", "c.csv", "--seed", 9]) == 0
        meta = json.loads((tmp_path / "c.meta.json").read_text())
        assert meta["seed"] == 9 and meta["units"] == "bits"


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

    def test_malformed_regime(self, tmp_path):
        assert run(["bounds", "--xi", 0.7, "--c", 1.92, "--regime", "exp:1",
                    "--n-grid", "50", "--out-dir", tmp_path]) == 1

    def test_xi_requires_c(self, tmp_path):
        assert run(["bounds", "--xi", 0.7, "--regime", "poly:1",
                    "--n-grid", "50", "--out-dir", tmp_path]) == 1

    def test_overflowing_upper_exponent(self, tmp_path):
        xi, slope = oracles.README_CURVE[0]
        assert run(["bounds", "--xi", repr(xi), "--c", oracles.README_C, "--d-slope", repr(slope),
                    "--regime", "superpoly:0.5", "--n-grid", 383,
                    "--out-dir", tmp_path, "--out", "b.csv"]) == 0
        row = (tmp_path / "b.csv").read_text().strip().split("\n")[1].split(",")
        assert row[0] == "383" and float(row[7]) == 1.0  # ub_prob

    def test_model_driven_point(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["bounds", "--model", model, "--rate", 0.1,
                    "--regime", "poly:1", "--n-grid", "50,100",
                    "--out-dir", tmp_path, "--out", "mb.csv"]) == 0
        assert (tmp_path / "mb.csv").exists()


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


class TestSimulateCommand:
    def test_identity_encoder_run(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 8, "--eps", 0.2, "--trials", 4000,
                    "--cal-trials", 4000, "--out-dir", tmp_path,
                    "--out", "sim.csv"]) == 0
        lines = (tmp_path / "sim.csv").read_text().strip().split("\n")
        assert lines[0] == "n,eps_n,t,type1_hat,type2_hat,ci_lo,ci_hi,seed"
        assert len(lines) == 2
        meta = json.loads((tmp_path / "sim.meta.json").read_text())
        assert meta["trials"] == 4000
        assert meta["eps_n"] == 0.2
        assert "model_fingerprint" in meta

    def test_levels_with_blocks_and_regime(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["simulate", "--model", model, "--levels", 3,
                    "--block-len", 2, "--n", 32, "--regime", "poly:0.5",
                    "--trials", 3000, "--cal-trials", 3000,
                    "--out-dir", tmp_path, "--out", "s.csv"]) == 0
        row = (tmp_path / "s.csv").read_text().strip().split("\n")[1]
        eps = float(row.split(",")[1])
        assert eps == pytest.approx(32 ** -0.5)

    def test_force_threshold_skips_calibration(self, tmp_path):
        model = make_model(tmp_path)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 4, "--eps", 0.1, "--trials", 2000,
                    "--force-threshold", "inf",
                    "--out-dir", tmp_path, "--out", "f.csv"]) == 0
        row = (tmp_path / "f.csv").read_text().strip().split("\n")[1]
        cells = row.split(",")
        assert cells[2] == "inf"
        assert float(cells[3]) == 1.0 and float(cells[4]) == 0.0

    def test_smoke_preset_fills_trials(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        assert run(["simulate", "--model", model, "--identity-encoder",
                    "--n", 4, "--eps", 0.2, "--preset", "smoke",
                    "--out-dir", tmp_path, "--out", "p.csv"]) == 0
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        assert meta["trials"] == 20_000 and meta["cal_trials"] == 20_000

    def test_eps_and_regime_are_exclusive(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", model, "--identity-encoder",
                 "--n", 4, "--eps", 0.2, "--regime", "log",
                 "--out-dir", tmp_path])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", model, "--identity-encoder",
                 "--n", 4, "--out-dir", tmp_path])
        assert exc.value.code == 2


class TestDeterminism:
    def test_byte_identical_reruns_and_worker_invariance(self, tmp_path):
        model = make_model(tmp_path, grid=8)
        texts = []
        for sub, workers in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / sub
            assert run(["simulate", "--model", model, "--identity-encoder",
                        "--n", 8, "--eps", 0.2, "--trials", 6000,
                        "--cal-trials", 6000, "--seed", 3,
                        "--workers", workers, "--out-dir", out,
                        "--out", "sim.csv"]) == 0
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


class TestTopLevel:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
