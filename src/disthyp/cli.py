"""Command-line front end.

Subcommands build a model, trace its exponent curve, evaluate the
finite-length feasibility bounds and critical sample sizes, and run the
Monte Carlo validation, writing UTF-8 CSV tables plus JSON sidecars that
echo the full configuration (seed included).  This module alone formats
the CSVs: each subcommand names its columns next to their values, and
_cell spells every cell.  _write_artifact is the one writer of every
artifact and its <stem>.meta.json sidecar; each subcommand calls it
once.  Each input has one flag: `exponent` reads its rate grid from
--rates, in bits per sample unless --units nats is given, and `simulate`
its Type I budget from --regime (const:<eps> is a fixed one).  The curve
point that `bounds` and `cns` take (--xi, --d-slope, --c) and all CSV
columns are always in nats.  A token that starts with one `-` after
--d-slope or --force-threshold is that flag's value, so -1e-05 and -inf
need no `=`.  No flag sets the sampling threads: the sampler picks them,
and they move no output byte.  Every command is deterministic given its
arguments, and the exit code is 0 only when the run's invariant checks
pass; a library warning is printed as one `warning:` line and changes
neither.  The parser is built once per process, on the first call of
main; later calls only parse, since each parse starts from a fresh
namespace.  An artifact that exists already is overwritten in place and
cut at its new length, so it holds the bytes a fresh file would, with no
stale tail; no file is fsynced.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, bottleneck, bounds, dist, rngstreams, simulate

LN2 = math.log(2.0)


def _list_of(kind, noun: str):
    """An argparse type for a comma-separated list of kind (empty parts
    skipped); a bad part is refused as `expected comma-separated <noun>`."""
    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}") from exc
    return parse


def _write_text(path: Path, text: str) -> None:
    """Write text as UTF-8 over the file at path, in place: open without
    truncating, write, then cut a longer old file at the new length, so the
    bytes equal a fresh file's.  Truncating a non-empty file to zero first,
    as Path.write_text does, costs 80-240 us per rewrite on ext4 (it frees
    the old blocks and, by default, starts writeback on close), against
    14-50 us in place (2-CPU VM).  Only a regular file is cut: truncating
    /dev/null raises EINVAL.  As with open, symlinks are followed and a new
    file gets mode 0o666 less the umask; nothing is fsynced."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate(len(data))


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


def _csv(rows: list[dict]) -> str:
    """A CSV table whose header is the first row's keys."""
    lines = [",".join(rows[0])]
    lines.extend(",".join(_cell(value) for value in row.values()) for row in rows)
    return "\n".join(lines) + "\n"


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


def _write_artifact(args, text: str, **facts) -> Path:
    """Write text to --out under --out-dir, creating the artifact's
    directory, and beside it the sidecar <stem>.meta.json: every flag but
    func in sorted order, then the command's facts in order, where a fact
    named like a flag takes that flag's place.  Returns the artifact's path."""
    path = Path(args.out_dir) / args.out
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_text(path, text)
    flags = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    meta = json.dumps(_strict_json({**flags, **facts}), indent=2, allow_nan=False)
    _write_text(path.parent / (path.stem + ".meta.json"), meta + "\n")
    return path


def _load_model(path: str) -> dist.JointPmf:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise dist.DistributionError(f"model JSON is not UTF-8 text: {exc}") from exc
    return dist.JointPmf.from_json(text)


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
    path = _write_artifact(
        args, p.to_json() + "\n", rho=rho, mi_nats=stats.mi, mi_bits=stats.mi / LN2,
        entropy_x_nats=p.entropy_x, entropy_y_nats=p.entropy_y, c_nats=stats.c_const,
        **_c_attainment(p, stats.c_const), var_div=stats.var_div, fingerprint=p.fingerprint())
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
    curve = bottleneck.build_curve(p, np.array(args.rates) * per_unit)
    stats = dist.divergence_stats(p)
    path = _write_artifact(
        args, _csv([{"R_nats": r, "xi_nats": xi, "D_nats": d, "dD_dR": slope}
                    for r, xi, d, slope in zip(curve.r, curve.xi, curve.d, curve.d_slope)]),
        c_nats=stats.c_const, fingerprint=p.fingerprint(), diagnostics=curve.diagnostics)
    for i in range(len(curve.r)):
        print(f"R={float(curve.r[i]) / per_unit:.6f} {args.units}: "
              f"xi={float(curve.xi[i]):.6f} D={float(curve.d[i]):.6f} nats")
    diag = curve.diagnostics
    print(f"curve {path}: {len(curve.r)} points, I(X;Y)={stats.mi:.6f} nats, "
          f"c={stats.c_const:.6f}, unconverged {diag['unconverged']}/{diag['beta_solves']}")
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
    path = _write_artifact(
        args, _csv([{"n": rep.n, "eps_n": rep.eps_n, "l": rep.block_l, "h_n": rep.h_n,
                     "delta_tilde": rep.delta_tilde, "lb_prob": rep.lb_prob,
                     "nominal": rep.nominal, "ub_prob": rep.ub_prob,
                     "gap_lower": rep.gap_lower, "gap_upper": rep.gap_upper,
                     "valid_lb": rep.valid_lb} for rep in reports]), regime=regime.label)
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
    # --regimes stays a string, so the sidecar echoes it as given; its empty
    # parts are skipped as _list_of skips them in the other list flags
    specs = [token for token in args.regimes.split(",") if token.strip()]
    if not specs:
        raise bounds.RegimeSpecError(f"--regimes names no regime: {args.regimes!r}")
    regimes = [bounds.TypeIRegime.parse(token) for token in specs]
    sizes = [bounds.critical_sample_size((xi, d_slope), c, regime, args.delta, cap=args.cap)
             for regime in regimes]
    reports = [None if cns is None else bounds.feasibility_interval((xi, d_slope), c, regime, cns)
               for regime, cns in zip(regimes, sizes)]
    path = _write_artifact(
        args, _csv([{"regime": regime.label, "delta": args.delta, "cns": cns}
                    for regime, cns in zip(regimes, sizes)]),
        at_cns=[{"regime": regime.label, **_at_cns(report, args.delta)}
                for regime, report in zip(regimes, reports)])
    for regime, cns in zip(regimes, sizes):
        shown = cns if cns is not None else f"not found below {args.cap}"
        print(f"{regime.label}: cns={shown}")
    print(f"cns {path}: {len(sizes)} rows")
    for report in reports:
        # the scan's rule: each side within delta, and a NaN side fails
        if report is not None and not (report.ub_prob - report.nominal <= args.delta
                                       and report.nominal - report.lb_prob <= args.delta):
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
    # it; both counts are checked either way, before either phase samples
    if not (0.0 < eps < 1.0):
        raise simulate.SimulationError(f"eps must lie in (0, 1), got {eps!r}")
    simulate.check_trials("trials", args.trials)
    simulate.check_trials("cal_trials", cal_trials)

    # the scheme's size is known from the flags: refuse it before the
    # quantizer's O(levels |X|^2) search or any channel is built
    simulate.check_scheme(p, p.nx if args.identity_encoder else min(args.levels, p.nx), 1)
    if args.identity_encoder:
        enc = simulate.Encoder(bottleneck.TestChannel.identity(p.nx, p.nx))
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
    chunks = cal_chunks + len(rngstreams.chunk_spans(args.trials))

    block_rows, block_bytes = simulate.count_block(qm.class_lr.size)
    path = _write_artifact(
        args, _csv([{"n": args.n, "eps_n": eps, "t": t, "type1_hat": result.type1_hat,
                     "type2_hat": result.type2_hat, "ci_lo": result.type2_ci[0],
                     "ci_hi": result.type2_ci[1], "seed": args.seed}]),
        eps_n=eps, threshold_t=t, saturated=saturated, cal_trials=cal_trials,
        sampler_version=simulate.SAMPLER_VERSION, evaluation_stream=result.evaluation_stream,
        type1_interval=result.interval_kinds[0], type2_interval=result.interval_kinds[1],
        table_cells=qm.h0.size, sampled_classes=qm.class_lr.size, chunks=chunks,
        count_block_rows=block_rows, count_block_bytes=block_bytes,
        codebook_size=qm.h0.shape[0],
        levels_reduced=args.levels is not None and args.levels > p.nx,
        model_fingerprint=p.fingerprint())
    # type2_hat <= 1, so -ln is abs(ln), which reads 0.0 rather than -0.0 at type2_hat = 1
    exponent = abs(math.log(result.type2_hat)) / args.n if result.type2_hat > 0 else math.inf
    print(f"simulate {path}: n={args.n} eps={eps:.4g} t={t:.6g} "
          f"type1={result.type1_hat:.4g} type2={result.type2_hat:.4g} "
          f"CI=[{result.type2_ci[0]:.4g}, {result.type2_ci[1]:.4g}] "
          f"per-sample exponent {exponent:.4f} nats"
          + (" [threshold saturated]" if saturated else ""))
    for name, hat, ci, kind in zip(("type1", "type2"), (result.type1_hat, result.type2_hat),
                                   (result.type1_ci, result.type2_ci), result.interval_kinds):
        if not (ci[0] <= hat <= ci[1]):
            return _fail_invariant(f"{name} estimate inside its {kind} interval")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed; only simulate draws from it, every "
                             "command echoes it into its sidecar (default 0)")
    common.add_argument("--out-dir", default=".", help="output directory (default .)")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--xi", type=float, required=True,
                       help="exponent xi(R) at the operating rate (nats): "
                            "the xi_nats column of an exponent curve")
    point.add_argument("--c", type=float, required=True,
                       help="concentration constant (nats): c_nats in the "
                            "exponent or model sidecar")
    point.add_argument("--d-slope", type=float, default=0.0,
                       help="distortion slope dD/dR at the rate, <= 0: the dD_dR "
                            "column of an exponent curve (default 0)")

    parser = argparse.ArgumentParser(
        prog="disthyp", allow_abbrev=False,
        description="Error exponents and finite-length Type II error bounds for "
                    "distributed tests of independence under a rate constraint.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    # not required here: argparse would report a missing command before an
    # unknown flag, so `disthyp --vers` would never name --vers (see main)
    sub = parser.add_subparsers(dest="command")

    pm = sub.add_parser("model", allow_abbrev=False, parents=[common],
                        help="build a discretized standard bivariate Gaussian model file")
    group = pm.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-mi-nats", type=float,
                       help="calibrate the correlation to this mutual information (nats)")
    group.add_argument("--rho", type=float, help="use this correlation directly")
    pm.add_argument("--grid", type=int, required=True,
                    help="points per axis (>= 2)")
    pm.add_argument("--out", default="model.json", help="model filename (default model.json)")
    pm.set_defaults(func=cmd_model)

    pe = sub.add_parser("exponent", allow_abbrev=False, parents=[common],
                        help="trace the exponent curve xi(R) on a rate grid")
    pe.add_argument("--model", required=True, help="model JSON path")
    pe.add_argument("--rates", type=_list_of(float, "floats"), required=True,
                    help="comma-separated rate grid (in --units), strictly increasing")
    pe.add_argument("--units", choices=("bits", "nats"), default="bits",
                    help="unit of the rate grid and the printed rates (default bits)")
    pe.add_argument("--out", default="curve.csv", help="curve filename (default curve.csv)")
    pe.set_defaults(func=cmd_exponent)

    pb = sub.add_parser("bounds", allow_abbrev=False, parents=[common, point],
                        help="evaluate feasibility intervals")
    pb.add_argument("--regime", required=True,
                    help="const:<eps> | log | poly:<p> | superpoly:<p>")
    pb.add_argument("--n-grid", type=_list_of(int, "integers"), required=True,
                    help="comma-separated sample sizes")
    pb.add_argument("--out", default="bounds.csv")
    pb.set_defaults(func=cmd_bounds)

    pc = sub.add_parser("cns", allow_abbrev=False, parents=[common, point],
                        help="evaluate critical sample sizes")
    pc.add_argument("--regimes", required=True,
                    help="comma-separated regime specs")
    pc.add_argument("--delta", type=float, default=1e-5,
                    help="interval tolerance (default 1e-5)")
    pc.add_argument("--cap", type=int, default=100_000,
                    help="largest n to scan (default 100000)")
    pc.add_argument("--out", default="cns.csv")
    pc.set_defaults(func=cmd_cns)

    ps = sub.add_parser("simulate", allow_abbrev=False, parents=[common],
                        help="Monte Carlo run of a quantize-then-test scheme")
    ps.add_argument("--model", required=True, help="model JSON path")
    encoder = ps.add_mutually_exclusive_group(required=True)
    encoder.add_argument("--levels", type=int,
                         help="scalar quantizer levels (Lloyd-Max on the X grid)")
    encoder.add_argument("--identity-encoder", action="store_true",
                         help="no compression: the detector sees X exactly")
    ps.add_argument("--n", type=int, required=True, help="samples per trial")
    ps.add_argument("--regime", required=True,
                    help="Type I regime spec, const:<eps> for a fixed budget; "
                         "eps = eps_n(--n)")
    ps.add_argument("--trials", type=int, default=100_000,
                    help="evaluation trials (default 100000)")
    ps.add_argument("--cal-trials", type=int,
                    help="calibration trials (default: same as --trials)")
    ps.add_argument("--force-threshold", type=float,
                    help="skip calibration and use this threshold (inf/-inf allowed)")
    ps.add_argument("--out", default="sim.csv")
    ps.set_defaults(func=cmd_simulate)
    return parser


# flags whose value may be a negative number that argparse would read as an
# option: it takes only plain decimals such as -0.5 for values, not -1e-05
# (an exponent curve's small slopes) or -inf
_SIGNED_FLAGS = ("--d-slope", "--force-threshold")


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with every token that starts with a single - and follows a
    _SIGNED_FLAGS flag joined to it as --flag=value, so `--d-slope -1e-05`
    parses as `--d-slope=-1e-05`; the flag's type=float then judges it."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in _SIGNED_FLAGS and token.startswith("-")
                and not token.startswith("--")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(list(argv)))
    if args.command is None:
        parser.error("the following arguments are required: command")
    # a library warning is one `warning:` line, whatever the -W filters say
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (dist.DistributionError, bottleneck.SolverError, simulate.SimulationError,
                bounds.RegimeSpecError, bounds.RegimeDomainError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
