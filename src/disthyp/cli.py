"""Command-line front end.

Subcommands build a model, trace its exponent curve, evaluate the
finite-length feasibility bounds and critical sample sizes, and run the
Monte Carlo validation, writing UTF-8 CSV tables plus JSON sidecars that
echo the full configuration (seed included).  Rates on the command line
are in bits per sample unless --units nats is given; exponent-like inputs
(xi, c, d_slope) and all CSV columns are always in nats.  Every command is
deterministic given its arguments, and the exit code is 0 only when the
run's invariant checks pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bottleneck, bounds, dist, simulate

LN2 = math.log(2.0)

SIM_PRESETS = {
    # full-scale profile: 2.5e6 evaluation and calibration trials
    "full": {"trials": 2_500_000, "cal_trials": 2_500_000},
    "smoke": {"trials": 20_000, "cal_trials": 20_000},
}


def _to_nats(rate: float, units: str) -> float:
    return rate * LN2 if units == "bits" else rate


def _from_nats(rate: float, units: str) -> float:
    return rate / LN2 if units == "bits" else rate


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


def _write_sidecar(out_path: Path, payload: dict) -> Path:
    sidecar = out_path.parent / (out_path.stem + ".meta.json")
    _write_text(sidecar, json.dumps(payload, indent=2) + "\n")
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

def cmd_model(args) -> int:
    if args.target_mi_nats is not None:
        rho, p = dist.calibrate_correlation(args.target_mi_nats, args.grid, args.grid,
                                            span_sigmas=args.span_sigmas)
    else:
        rho = args.rho
        p = dist.discretized_gaussian(rho, args.grid, args.grid,
                                      span_sigmas=args.span_sigmas)
    stats = dist.divergence_stats(p)
    path = _out_path(args, args.out)
    _write_text(path, p.to_json() + "\n")
    _write_sidecar(path, _config_echo(
        args, rho=rho, mi_nats=stats.mi, mi_bits=stats.mi / LN2,
        entropy_x_nats=p.entropy_x, entropy_y_nats=p.entropy_y,
        c_nats=stats.c_const, var_div=stats.var_div,
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

def _resolve_rate_grid(args) -> np.ndarray:
    if args.rates is not None:
        grid = np.array([_to_nats(r, args.units) for r in args.rates])
    else:
        if None in (args.rate_min, args.rate_max, args.rate_points):
            raise bottleneck.SolverError(
                "give either --rates or all of --rate-min/--rate-max/--rate-points")
        grid = np.linspace(_to_nats(args.rate_min, args.units),
                           _to_nats(args.rate_max, args.units),
                           args.rate_points)
    return grid


def cmd_exponent(args) -> int:
    p = _load_model(args.model)
    grid = _resolve_rate_grid(args)
    curve = bottleneck.build_curve(p, grid, restarts=args.restarts,
                                   master_seed=args.seed)
    path = _out_path(args, args.out)
    _write_text(path, curve.to_csv())
    sidecar = json.loads(curve.sidecar_json())
    _write_sidecar(path, _config_echo(args, **sidecar))
    mi = dist.mutual_information(p)
    for i in range(len(curve.r)):
        print(f"R={_from_nats(float(curve.r[i]), args.units):.6f} {args.units}: "
              f"xi={float(curve.xi[i]):.6f} D={float(curve.d[i]):.6f} nats")
    residual = curve.diagnostics.get("concavity_residual", 0.0)
    print(f"curve {path}: {len(curve.r)} points, I(X;Y)={mi:.6f} nats, "
          f"concavity residual {residual:.2e}")
    if np.any(curve.xi > np.minimum(curve.r, mi) + 1e-9):
        return _fail_invariant("xi <= min(R, I(X;Y))")
    return 0


# --------------------------------------------------------------------------
# bounds / cns
# --------------------------------------------------------------------------

def _resolve_curve_point(args) -> tuple[float, float, float]:
    """Returns (xi, d_slope, c) in nats from direct flags or a model + rate."""
    if args.xi is not None:
        if args.c is None:
            raise bounds.RegimeSpecError("--xi needs --c (both in nats)")
        return args.xi, args.d_slope, args.c
    if args.model is None or args.rate is None:
        raise bounds.RegimeSpecError("give either --xi/--c or --model/--rate")
    p = _load_model(args.model)
    rate = _to_nats(args.rate, args.units)
    xi, _ = bottleneck.exponent_at_rate(p, rate, restarts=args.restarts,
                                        master_seed=args.seed)
    c = args.c if args.c is not None else dist.c_constant(p)
    return xi, args.d_slope, c


def cmd_bounds(args) -> int:
    xi, d_slope, c = _resolve_curve_point(args)
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
    _write_text(path, bounds.bounds_csv(reports))
    _write_sidecar(path, _config_echo(args, xi_nats=xi, d_slope=d_slope, c_nats=c,
                                      regime=regime.label))
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


def cmd_cns(args) -> int:
    xi, d_slope, c = _resolve_curve_point(args)
    regimes = [bounds.TypeIRegime.parse(token) for token in args.regimes.split(",")]
    results = [bounds.critical_sample_size((xi, d_slope), c, regime, args.delta,
                                           cap=args.cap)
               for regime in regimes]
    path = _out_path(args, args.out)
    _write_text(path, bounds.cns_csv(results))
    _write_sidecar(path, _config_echo(args, xi_nats=xi, d_slope=d_slope, c_nats=c))
    for res in results:
        shown = res.cns if res.cns is not None else f"not found below {res.cap}"
        print(f"{res.regime.label}: cns={shown}")
    print(f"cns {path}: {len(results)} rows")
    for res in results:
        if res.cns is not None:
            report = bounds.feasibility_interval((xi, d_slope), c, res.regime, res.cns)
            gap = max(report.ub_prob - report.nominal, report.nominal - report.lb_prob)
            if gap > args.delta:
                return _fail_invariant("feasibility condition holds at the reported cns")
    return 0


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    p = _load_model(args.model)
    preset = SIM_PRESETS[args.preset] if args.preset else {}
    trials = args.trials if args.trials is not None else preset.get("trials", 100_000)
    cal_trials = (args.cal_trials if args.cal_trials is not None
                  else preset.get("cal_trials", trials))

    if args.identity_encoder:
        scalar = simulate.Encoder.identity(p.nx)
    else:
        if args.levels is None:
            raise simulate.SimulationError("give --levels or --identity-encoder")
        points = np.array([float(label) for label in p.x_labels])
        scalar = simulate.lloyd_max(points, p.x_marginal, args.levels)
    enc = scalar.blockwise(args.block_len)
    qm = simulate.quantized_model(p, enc)

    if args.eps is not None:
        eps = args.eps
    elif args.regime is not None:
        eps = bounds.eps_at(bounds.TypeIRegime.parse(args.regime), args.n)
    else:
        raise simulate.SimulationError("give --eps or --regime")

    saturated = False
    if args.force_threshold is not None:
        t = args.force_threshold
    else:
        cal = simulate.calibrate_threshold(qm, args.n, eps, cal_trials,
                                           args.seed, workers=args.workers)
        t, saturated = cal.t, cal.saturated
    result = simulate.estimate_errors(qm, args.n, t, trials, args.seed,
                                      workers=args.workers).with_eps(eps)

    path = _out_path(args, args.out)
    _write_text(path, simulate.SimResult.CSV_HEADER + "\n" + result.csv_row() + "\n")
    _write_sidecar(path, _config_echo(
        args, eps_n=eps, threshold_t=t, saturated=saturated,
        trials=trials, cal_trials=cal_trials,
        codebook_size=enc.codebook_size, block_len=enc.block_len,
        levels_reduced=enc.levels_reduced, model_fingerprint=p.fingerprint()))
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
    common.add_argument("--units", choices=("bits", "nats"), default="bits",
                        help="unit for rates given on the command line (default bits)")
    common.add_argument("--workers", type=_positive_int, default=1,
                        help="worker threads for simulate; results are identical "
                             "for any count")

    parser = argparse.ArgumentParser(
        prog="disthyp",
        description="Error exponents and finite-length Type II error bounds for "
                    "distributed tests of independence under a rate constraint.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("model", parents=[common],
                        help="build a discretized Gaussian model file")
    pm.add_argument("--gaussian", action="store_true", required=True,
                    help="discretized standard bivariate Gaussian (the only family)")
    group = pm.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-mi-nats", type=float,
                       help="calibrate the correlation to this mutual information (nats)")
    group.add_argument("--rho", type=float, help="use this correlation directly")
    pm.add_argument("--grid", type=_grid_size, required=True,
                    help="points per axis (>= 2)")
    pm.add_argument("--span-sigmas", type=float, default=4.0,
                    help="half-width of the grid in standard deviations (default 4)")
    pm.add_argument("--out", default="model.json", help="model filename (default model.json)")
    pm.set_defaults(func=cmd_model)

    pe = sub.add_parser("exponent", parents=[common],
                        help="trace the exponent curve xi(R) on a rate grid")
    pe.add_argument("--model", required=True, help="model JSON path")
    pe.add_argument("--rates", type=_float_list,
                    help="comma-separated rate grid (in --units)")
    pe.add_argument("--rate-min", type=float, help="linear grid start (in --units)")
    pe.add_argument("--rate-max", type=float, help="linear grid end (in --units)")
    pe.add_argument("--rate-points", type=_positive_int, help="linear grid size (>= 3)")
    pe.add_argument("--restarts", type=_positive_int, default=4,
                    help="random solver restarts (default 4)")
    pe.add_argument("--out", default="curve.csv", help="curve filename (default curve.csv)")
    pe.set_defaults(func=cmd_exponent)

    point_help = "curve point: either --xi/--c (nats) or --model/--rate"
    for name, fn in (("bounds", cmd_bounds), ("cns", cmd_cns)):
        px = sub.add_parser(name, parents=[common],
                            help=f"evaluate {'feasibility intervals' if name == 'bounds' else 'critical sample sizes'}")
        px.add_argument("--xi", type=float, help=f"exponent at the operating rate; {point_help}")
        px.add_argument("--c", type=float, help="concentration constant (nats)")
        px.add_argument("--d-slope", type=float, default=0.0,
                        help="distortion slope dD/dR at the rate, <= 0 (default 0)")
        px.add_argument("--model", help="model JSON path (alternative to --xi)")
        px.add_argument("--rate", type=float, help="operating rate (in --units)")
        px.add_argument("--restarts", type=_positive_int, default=4)
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
    ps.add_argument("--levels", type=_positive_int,
                    help="scalar quantizer levels (Lloyd-Max on the X grid)")
    ps.add_argument("--identity-encoder", action="store_true",
                    help="no compression: the detector sees X exactly")
    ps.add_argument("--block-len", type=_positive_int, default=1,
                    help="encoder block length (default 1; exact tables need <= 3)")
    ps.add_argument("--n", type=_positive_int, required=True, help="samples per trial")
    budget = ps.add_mutually_exclusive_group(required=True)
    budget.add_argument("--eps", type=float, help="Type I budget")
    budget.add_argument("--regime", help="Type I regime spec; eps = eps_n(--n)")
    ps.add_argument("--trials", type=_positive_int, help="evaluation trials (default 100000)")
    ps.add_argument("--cal-trials", type=_positive_int,
                    help="calibration trials (default: same as --trials)")
    ps.add_argument("--preset", choices=sorted(SIM_PRESETS),
                    help="named trial profile; explicit --trials overrides")
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
