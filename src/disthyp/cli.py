"""Command-line front end.

Subcommands build a model, trace its exponent curve, evaluate the
finite-length feasibility bounds and critical sample sizes, and run the
Monte Carlo validation, writing UTF-8 CSV tables plus JSON sidecars that
echo the full configuration (seed included).  This module alone formats
the CSVs: each subcommand names its columns next to their values, and
_cell spells every cell.  Each input has one flag: `exponent` reads its
rate grid from --rates, in bits per sample unless --units nats is given,
and `simulate` its Type I budget from --regime (const:<eps> is a fixed
one).  The curve point that `bounds` and `cns` take (--xi, --d-slope, --c)
and all CSV columns are always in nats.  No flag sets the sampling
threads: the sampler picks them, and they move no output byte.  Every
command is deterministic given its arguments, and the exit code is 0 only
when the run's invariant checks pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bottleneck, bounds, dist, rngstreams, simulate

LN2 = math.log(2.0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _grid_size(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"grid needs at least 2 points per axis, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _cell(value) -> str:
    """One CSV cell: none, 0/1 for flags, ints and labels as they are,
    and the shortest round-tripping repr of every other number."""
    if value is None:
        return "none"
    if isinstance(value, bool):  # before int: a bool is an int
        return str(int(value))
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _write_csv(path: Path, rows: list[dict]) -> None:
    """A CSV table whose header is the first row's keys."""
    lines = [",".join(rows[0])]
    lines.extend(",".join(_cell(value) for value in row.values()) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _strict_json(value):
    """A sidecar value with every non-finite float spelled as its CSV cell
    (inf, -inf, nan), which strict JSON has no number for."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return _cell(value)
    return value


def _write_sidecar(out_path: Path, payload: dict) -> Path:
    sidecar = out_path.parent / (out_path.stem + ".meta.json")
    _write_text(sidecar, json.dumps(_strict_json(payload), indent=2, allow_nan=False) + "\n")
    return sidecar


def _config_echo(args, **extra) -> dict:
    skip = {"func"}
    config = {key: value for key, value in sorted(vars(args).items()) if key not in skip}
    config.update(extra)
    return config


def _load_model(path: str) -> dist.JointPmf:
    return dist.JointPmf.from_json(Path(path).read_text(encoding="utf-8"))


def _fail_invariant(name: str) -> int:
    print(f"invariant violated: {name}", file=sys.stderr)
    return 1


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

def _c_attainment(p: dist.JointPmf, c: float) -> dict:
    """Where c = max |log P/(P_X P_Y)| is attained: the labels and mass of
    the first such cell in row-major order, the cells within a relative
    1e-12 of c, and the mass of the cells above c/2."""
    lr = np.abs(dist.log_ratio_matrix(p))
    i, j = np.unravel_index(int(np.argmax(lr)), lr.shape)
    return {"c_cell": [p.x_labels[i], p.y_labels[j]],
            "c_cell_mass": float(p.probs[i, j]),
            "c_ties": int(np.count_nonzero(lr >= c * (1.0 - 1e-12))),
            "mass_above_half_c": float(p.probs[lr > c / 2.0].sum())}


def cmd_model(args) -> int:
    if args.target_mi_nats is not None:
        rho, p = dist.calibrate_correlation(args.target_mi_nats, args.grid, args.grid)
    else:
        rho = args.rho
        p = dist.discretized_gaussian(rho, args.grid, args.grid)
    stats = dist.divergence_stats(p)
    path = _out_path(args, args.out)
    _write_text(path, p.to_json() + "\n")
    _write_sidecar(path, _config_echo(
        args, rho=rho, mi_nats=stats.mi, mi_bits=stats.mi / LN2,
        entropy_x_nats=p.entropy_x, entropy_y_nats=p.entropy_y,
        c_nats=stats.c_const, **_c_attainment(p, stats.c_const), var_div=stats.var_div,
        fingerprint=p.fingerprint()))
    print(f"model {path}: rho={rho:.6f} mi={stats.mi:.6f} nats "
          f"({stats.mi / LN2:.6f} bits) hx={p.entropy_x:.6f} hy={p.entropy_y:.6f} "
          f"c={stats.c_const:.6f}")
    if args.target_mi_nats is not None and abs(stats.mi - args.target_mi_nats) > 1e-4:
        return _fail_invariant("calibrated mutual information within 1e-4 of target")
    return 0


# --------------------------------------------------------------------------
# exponent
# --------------------------------------------------------------------------

def cmd_exponent(args) -> int:
    p = _load_model(args.model)
    per_unit = LN2 if args.units == "bits" else 1.0  # nats per unit of --rates
    curve = bottleneck.build_curve(p, np.array(args.rates) * per_unit, restarts=args.restarts,
                                   master_seed=args.seed)
    path = _out_path(args, args.out)
    _write_csv(path, [{"R_nats": r, "xi_nats": xi, "D_nats": d, "dD_dR": slope}
                      for r, xi, d, slope in zip(curve.r, curve.xi, curve.d, curve.d_slope)])
    c = dist.c_constant(p)
    _write_sidecar(path, _config_echo(args, c_nats=c, fingerprint=curve.fingerprint,
                                      diagnostics=curve.diagnostics))
    mi = dist.mutual_information(p)
    for i in range(len(curve.r)):
        print(f"R={float(curve.r[i]) / per_unit:.6f} {args.units}: "
              f"xi={float(curve.xi[i]):.6f} D={float(curve.d[i]):.6f} nats")
    diag = curve.diagnostics
    print(f"curve {path}: {len(curve.r)} points, I(X;Y)={mi:.6f} nats, c={c:.6f}, "
          f"unconverged {diag['unconverged']}/{diag['beta_solves']}")
    return 0


# --------------------------------------------------------------------------
# bounds / cns
# --------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    xi, d_slope, c = args.xi, args.d_slope, args.c
    regime = bounds.TypeIRegime.parse(args.regime)
    reports = []
    for n in args.n_grid:
        try:
            reports.append(bounds.feasibility_interval((xi, d_slope), c, regime, n))
        except bounds.RegimeDomainError as exc:
            print(f"skipping n={n}: {exc}", file=sys.stderr)
    if not reports:
        raise bounds.RegimeDomainError("no sample size in --n-grid is admissible")
    path = _out_path(args, args.out)
    _write_csv(path, [{"n": rep.n, "eps_n": rep.eps_n, "l": rep.block_l, "h_n": rep.h_n,
                       "delta_tilde": rep.delta_tilde, "lb_prob": rep.lb_prob,
                       "nominal": rep.nominal, "ub_prob": rep.ub_prob,
                       "gap_lower": rep.gap_lower, "gap_upper": rep.gap_upper,
                       "valid_lb": rep.valid_lb} for rep in reports])
    _write_sidecar(path, _config_echo(args, regime=regime.label))
    for rep in reports:
        print(f"n={rep.n}: lb={rep.lb_prob:.3e} nominal={rep.nominal:.3e} "
              f"ub={rep.ub_prob:.3e} valid_lb={rep.valid_lb}")
    print(f"bounds {path}: {len(reports)} rows")
    for rep in reports:
        if rep.valid_lb and rep.lb_prob > rep.ub_prob + 1e-15:
            return _fail_invariant("lb_prob <= ub_prob when valid_lb")
        if not (0.0 <= rep.lb_prob <= 1.0 and 0.0 <= rep.ub_prob <= 1.0):
            return _fail_invariant("probabilities clamped to [0, 1]")
    return 0


def _at_cns(report: bounds.BoundReport | None, delta: float) -> dict:
    """Which end set the gap at the cns (upper on a tie), and whether nominal
    and lb_prob lie within delta of 0 there; all None without a cns."""
    if report is None:
        return {"gap_side": None, "nominal_le_delta": None, "lb_prob_le_delta": None}
    upper = report.ub_prob - report.nominal >= report.nominal - report.lb_prob
    return {"gap_side": "upper" if upper else "lower",
            "nominal_le_delta": report.nominal <= delta,
            "lb_prob_le_delta": report.lb_prob <= delta}


def cmd_cns(args) -> int:
    xi, d_slope, c = args.xi, args.d_slope, args.c
    regimes = [bounds.TypeIRegime.parse(token) for token in args.regimes.split(",")]
    sizes = [bounds.critical_sample_size((xi, d_slope), c, regime, args.delta, cap=args.cap)
             for regime in regimes]
    reports = [None if cns is None else bounds.feasibility_interval((xi, d_slope), c, regime, cns)
               for regime, cns in zip(regimes, sizes)]
    path = _out_path(args, args.out)
    _write_csv(path, [{"regime": regime.label, "delta": args.delta, "cns": cns}
                      for regime, cns in zip(regimes, sizes)])
    _write_sidecar(path, _config_echo(args, at_cns=[
        {"regime": regime.label, **_at_cns(report, args.delta)}
        for regime, report in zip(regimes, reports)]))
    for regime, cns in zip(regimes, sizes):
        shown = cns if cns is not None else f"not found below {args.cap}"
        print(f"{regime.label}: cns={shown}")
    print(f"cns {path}: {len(sizes)} rows")
    for report in reports:
        if report is not None:
            gap = max(report.ub_prob - report.nominal, report.nominal - report.lb_prob)
            if gap > args.delta:
                return _fail_invariant("feasibility condition holds at the reported cns")
    return 0


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    p = _load_model(args.model)
    cal_trials = args.cal_trials if args.cal_trials is not None else args.trials
    eps = bounds.eps_at(bounds.TypeIRegime.parse(args.regime), args.n)
    # calibration checks eps and its trials too, but --force-threshold skips
    # it, and neither phase may sample before both counts are known to fit
    if not (0.0 < eps < 1.0):
        raise simulate.SimulationError(f"eps must lie in (0, 1), got {eps!r}")
    if args.force_threshold is None:
        simulate.check_trials("cal_trials", cal_trials)
    simulate.check_trials("trials", args.trials)

    if args.identity_encoder:
        enc = simulate.Encoder.identity(p.nx)
    else:
        points = []
        for label in p.x_labels:
            try:
                points.append(float(label))
            except (TypeError, ValueError):
                raise simulate.SimulationError(
                    f"--levels needs numeric x labels, got {label!r}") from None
        enc = simulate.lloyd_max(points, p.x_marginal, args.levels)
    qm = simulate.quantized_model(p, enc)

    saturated, cal_chunks = False, 0
    if args.force_threshold is not None:
        t = args.force_threshold
    else:
        cal = simulate.calibrate_threshold(qm, args.n, eps, cal_trials, args.seed)
        t, saturated = cal.t, cal.saturated
        cal_chunks = len(rngstreams.chunk_spans(cal_trials))
    result = simulate.estimate_errors(qm, args.n, t, args.trials, args.seed)
    chunks = cal_chunks + 2 * len(rngstreams.chunk_spans(args.trials))

    block_rows, block_bytes = simulate.count_block(qm.class_lr.size)
    path = _out_path(args, args.out)
    _write_csv(path, [{"n": args.n, "eps_n": eps, "t": t, "type1_hat": result.type1_hat,
                       "type2_hat": result.type2_hat, "ci_lo": result.type2_ci[0],
                       "ci_hi": result.type2_ci[1], "seed": args.seed}])
    _write_sidecar(path, _config_echo(
        args, eps_n=eps, threshold_t=t, saturated=saturated,
        cal_trials=cal_trials, sampler_version=simulate.SAMPLER_VERSION,
        table_cells=qm.h0.size, sampled_classes=qm.class_lr.size, chunks=chunks,
        count_block_rows=block_rows, count_block_bytes=block_bytes,
        codebook_size=enc.codebook_size, levels_reduced=enc.levels_reduced,
        model_fingerprint=p.fingerprint()))
    exponent = -math.log(result.type2_hat) / args.n if result.type2_hat > 0 else math.inf
    print(f"simulate {path}: n={args.n} eps={eps:.4g} t={t:.6g} "
          f"type1={result.type1_hat:.4g} type2={result.type2_hat:.4g} "
          f"CI=[{result.type2_ci[0]:.4g}, {result.type2_ci[1]:.4g}] "
          f"per-sample exponent {exponent:.4f} nats"
          + (" [threshold saturated]" if saturated else ""))
    for name, hat, ci in (("type1", result.type1_hat, result.type1_ci),
                          ("type2", result.type2_hat, result.type2_ci)):
        if not (ci[0] <= hat <= ci[1]):
            return _fail_invariant(f"{name} estimate inside its Wilson interval")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed; echoed into all outputs (default 0)")
    common.add_argument("--out-dir", default=".", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="disthyp",
        description="Error exponents and finite-length Type II error bounds for "
                    "distributed tests of independence under a rate constraint.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("model", parents=[common],
                        help="build a discretized standard bivariate Gaussian model file")
    group = pm.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-mi-nats", type=float,
                       help="calibrate the correlation to this mutual information (nats)")
    group.add_argument("--rho", type=float, help="use this correlation directly")
    pm.add_argument("--grid", type=_grid_size, required=True,
                    help="points per axis (>= 2)")
    pm.add_argument("--out", default="model.json", help="model filename (default model.json)")
    pm.set_defaults(func=cmd_model)

    pe = sub.add_parser("exponent", parents=[common],
                        help="trace the exponent curve xi(R) on a rate grid")
    pe.add_argument("--model", required=True, help="model JSON path")
    pe.add_argument("--rates", type=_float_list, required=True,
                    help="comma-separated rate grid (in --units), at least 3 points")
    pe.add_argument("--units", choices=("bits", "nats"), default="bits",
                    help="unit of the rate grid and the printed rates (default bits)")
    pe.add_argument("--restarts", type=_positive_int, default=4,
                    help="random solver restarts (default 4)")
    pe.add_argument("--out", default="curve.csv", help="curve filename (default curve.csv)")
    pe.set_defaults(func=cmd_exponent)

    for name, fn in (("bounds", cmd_bounds), ("cns", cmd_cns)):
        px = sub.add_parser(name, parents=[common],
                            help=f"evaluate {'feasibility intervals' if name == 'bounds' else 'critical sample sizes'}")
        px.add_argument("--xi", type=float, required=True,
                        help="exponent xi(R) at the operating rate (nats): "
                             "the xi_nats column of an exponent curve")
        px.add_argument("--c", type=float, required=True,
                        help="concentration constant (nats): c_nats in the "
                             "exponent or model sidecar")
        px.add_argument("--d-slope", type=float, default=0.0,
                        help="distortion slope dD/dR at the rate, <= 0: the dD_dR "
                             "column of an exponent curve (default 0)")
        if name == "bounds":
            px.add_argument("--regime", required=True,
                            help="const:<eps> | log | poly:<p> | superpoly:<p>")
            px.add_argument("--n-grid", type=_int_list, required=True,
                            help="comma-separated sample sizes")
            px.add_argument("--out", default="bounds.csv")
        else:
            px.add_argument("--regimes", required=True,
                            help="comma-separated regime specs")
            px.add_argument("--delta", type=float, default=1e-5,
                            help="interval tolerance (default 1e-5)")
            px.add_argument("--cap", type=_positive_int, default=100_000,
                            help="largest n to scan (default 100000)")
            px.add_argument("--out", default="cns.csv")
        px.set_defaults(func=fn)

    ps = sub.add_parser("simulate", parents=[common],
                        help="Monte Carlo run of a quantize-then-test scheme")
    ps.add_argument("--model", required=True, help="model JSON path")
    encoder = ps.add_mutually_exclusive_group(required=True)
    encoder.add_argument("--levels", type=_positive_int,
                         help="scalar quantizer levels (Lloyd-Max on the X grid)")
    encoder.add_argument("--identity-encoder", action="store_true",
                         help="no compression: the detector sees X exactly")
    ps.add_argument("--n", type=_positive_int, required=True, help="samples per trial")
    ps.add_argument("--regime", required=True,
                    help="Type I regime spec, const:<eps> for a fixed budget; "
                         "eps = eps_n(--n)")
    ps.add_argument("--trials", type=_positive_int, default=100_000,
                    help="evaluation trials (default 100000)")
    ps.add_argument("--cal-trials", type=_positive_int,
                    help="calibration trials (default: same as --trials)")
    ps.add_argument("--force-threshold", type=float,
                    help="skip calibration and use this threshold (inf/-inf allowed)")
    ps.add_argument("--out", default="sim.csv")
    ps.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (dist.DistributionError, bottleneck.SolverError, simulate.SimulationError,
            bounds.RegimeSpecError, bounds.RegimeDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
