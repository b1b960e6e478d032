"""The benchmark's four workloads.

Each workload has three parts:

* ``build(seed)`` makes the inputs: models, encoders and tables.  This is
  the set-up that ``setup_s`` times.
* ``run_pass(state, ops)`` makes one timed pass over the library, runs the
  output checks on what the pass returned and gives back the pass's
  measurements as a dict.
* ``once(state, ops)`` holds the checks that run once per invocation,
  outside the timed passes.

Every library call goes through a module attribute (``bottleneck.build_curve``
and so on), so a tracer that patches those attributes sees it.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from disthyp import bottleneck, bounds, cli, dist, rngstreams, simulate

LN2 = math.log(2.0)


class Ops:
    """Operations attempted and failed, with the cause of every failure.

    A cause is an exception type name, or ``check:<name>`` for a failed
    output check.  Only failed checks make the run's outputs incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: Counter = Counter()
        self.failed_checks = 0

    def record(self, cause: str | None) -> None:
        self.attempted += 1
        if cause is not None:
            self.failed += 1
            self.causes[cause] += 1
            if cause.startswith("check:"):
                self.failed_checks += 1

    def check(self, ok: bool, name: str) -> bool:
        self.record(None if ok else f"check:{name}")
        return ok


def attempt(fn, *args, **kwargs):
    """Run one library call; return (result, None) or (None, exception type)."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # a failed op is counted, and the run goes on
        return None, type(exc).__name__


# --------------------------------------------------------------------------
# solver_sweep: the bottleneck layer
# --------------------------------------------------------------------------

README_MI_NATS = 0.08
README_GRID = 32
README_RATES = np.linspace(0.01, 0.25, 7) * LN2  # the README exponent config, in nats
GAUSS8_RHO = 0.5
GAUSS8_RATE = 0.1
DSBS = [[0.4, 0.1], [0.1, 0.4]]
DSBS_CROSSOVER = 0.2
DSBS_RATES = (0.05, 0.1, 0.2, 0.3, 0.4)
SOLVER_QUERIES = len(README_RATES) + 1 + len(DSBS_RATES)


def _binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log(1.0 - q)


def _binary_entropy_inverse(v: float) -> float:
    """The q in [0, 1/2] with h(q) = v, by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _binary_entropy(mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dsbs_exponent(r: float, crossover: float = DSBS_CROSSOVER) -> float:
    """Mrs. Gerber's lemma: xi(R) = ln2 - h(a * h^-1(ln2 - R)) for a DSBS."""
    q = _binary_entropy_inverse(max(LN2 - r, 0.0))
    mixed = crossover * (1.0 - q) + q * (1.0 - crossover)
    return LN2 - _binary_entropy(mixed)


def gaussian_exponent(rho: float, r: float) -> float:
    """xi(R) = -1/2 ln(1 - rho^2 (1 - e^{-2R})) for jointly Gaussian pairs."""
    return -0.5 * math.log(1.0 - rho * rho * (1.0 - math.exp(-2.0 * r)))


class SolverSweep:
    """The README exponent curve, an escalating 8x8 query and five DSBS queries."""

    # one pass takes 15-22 s on a 2-core Xeon VM; a run's median needs two
    min_passes = 2

    def build(self, seed: int):
        rho, readme = dist.calibrate_correlation(README_MI_NATS, README_GRID, README_GRID)
        return SimpleNamespace(
            seed=seed, rho=rho, readme=readme,
            gauss8=dist.discretized_gaussian(GAUSS8_RHO, 8, 8),
            dsbs=dist.JointPmf.from_probs(DSBS))

    def run_pass(self, st, ops: Ops) -> dict:
        t0 = time.perf_counter()
        curve, err = attempt(bottleneck.build_curve, st.readme, README_RATES,
                             master_seed=st.seed)
        t1 = time.perf_counter()
        ops.record(err)
        g8, err = attempt(bottleneck.exponent_at_rate, st.gauss8, GAUSS8_RATE,
                          master_seed=st.seed)
        ops.record(err)
        dsbs = []
        for r in DSBS_RATES:
            point, err = attempt(bottleneck.exponent_at_rate, st.dsbs, r,
                                 master_seed=st.seed)
            ops.record(err)
            dsbs.append(point)
        t2 = time.perf_counter()

        out = {"pass_s": t2 - t0, "curve_s": t1 - t0, "point_s": t2 - t1,
               "item_us_samples": [(t2 - t0) / SOLVER_QUERIES * 1e6]}
        if curve is not None:
            readme_mi = dist.mutual_information(st.readme)
            ops.check(_nondecreasing_below_cap(curve.r, curve.xi, readme_mi),
                      "readme_curve_shape")
            out["readme_rel_shortfall"] = max(
                (gaussian_exponent(st.rho, float(r)) - float(x)) / gaussian_exponent(st.rho, float(r))
                for r, x in zip(curve.r, curve.xi))
        if g8 is not None:
            xi = g8[0]
            ops.check(xi <= min(GAUSS8_RATE, dist.mutual_information(st.gauss8)) + 1e-9,
                      "gauss8_cap")
            exact = gaussian_exponent(GAUSS8_RHO, GAUSS8_RATE)
            out["gauss8_rel_shortfall"] = (exact - xi) / exact
        if all(point is not None for point in dsbs):
            xis = [point[0] for point in dsbs]
            ops.check(_nondecreasing_below_cap(DSBS_RATES, xis, dist.mutual_information(st.dsbs)),
                      "dsbs_curve_shape")
            gaps = [dsbs_exponent(r) - xi for r, xi in zip(DSBS_RATES, xis)]
            for gap in gaps:  # the envelope is certified: never above the truth
                ops.check(gap >= -1e-12, "dsbs_certified_side")
            out["dsbs_shortfall_nats"] = max(gaps)
        shortfalls = [out[k] for k in ("readme_rel_shortfall", "gauss8_rel_shortfall") if k in out]
        if shortfalls:
            out["gauss_rel_shortfall"] = max(shortfalls)
        return out

    def once(self, st, ops: Ops) -> None:
        pass


def _nondecreasing_below_cap(rates, xis, mi: float) -> bool:
    xis = np.asarray(xis, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    return bool(np.all(np.diff(xis) >= -1e-12)
                and np.all(xis <= np.minimum(rates, mi) + 1e-9))


# --------------------------------------------------------------------------
# mc_few_cells / mc_many_cells: the simulate and rngstreams layers
# --------------------------------------------------------------------------

MC_LEVELS = 4
MC_WORKERS = 2
MC_REGIME = "log"
TYPE1_Z = 4.0


@dataclass(frozen=True)
class MonteCarlo:
    """Calibrate a threshold, then estimate both error rates, at workers=2."""

    grid: int
    block_len: int
    n: int
    trials: int  # per phase: calibration, H0 and H1 each draw this many
    min_passes: int

    def build(self, seed: int):
        _, p = dist.calibrate_correlation(README_MI_NATS, self.grid, self.grid)
        points = np.array([float(label) for label in p.x_labels])
        scalar = simulate.lloyd_max(points, p.x_marginal, MC_LEVELS)
        qm = simulate.quantized_model(p, scalar.blockwise(self.block_len))
        eps = bounds.eps_at(bounds.TypeIRegime.parse(MC_REGIME), self.n)
        return SimpleNamespace(seed=seed, qm=qm, eps=eps, threshold=None)

    def run_pass(self, st, ops: Ops, workers: int = MC_WORKERS) -> dict:
        t0 = time.perf_counter()
        cal, err = attempt(simulate.calibrate_threshold, st.qm, self.n, st.eps,
                           self.trials, st.seed, workers=workers)
        t1 = time.perf_counter()
        ops.record(err)
        res = None
        if cal is not None:
            st.threshold = cal.t
            res, err = attempt(simulate.estimate_errors, st.qm, self.n, cal.t,
                               self.trials, st.seed, workers=workers)
            ops.record(err)
        t2 = time.perf_counter()
        out = {"pass_s": t2 - t0}
        if res is not None:
            # calibration and evaluation draw from disjoint streams, so the
            # evaluated Type I rate misses eps by both samples' errors
            sigma = math.sqrt(st.eps * (1.0 - st.eps) * 2.0 / self.trials)
            ops.check(abs(res.type1_hat - st.eps) <= TYPE1_Z * sigma + 1.0 / self.trials,
                      "type1_matches_eps")
            out["trials_per_s"] = 3 * self.trials / (t2 - t0)
            # one sample per call: the calibration, then both hypotheses
            out["item_us_samples"] = [(t1 - t0) / self.trials * 1e6,
                                      (t2 - t1) / (2 * self.trials) * 1e6]
        return out

    def once(self, st, ops: Ops) -> None:
        """SimResults must not depend on the worker count."""
        if st.threshold is None:
            return
        trials = rngstreams.CHUNK_TRIALS + 1024  # two chunks, so two workers share them
        results = []
        for workers in (1, MC_WORKERS):
            res, err = attempt(simulate.estimate_errors, st.qm, self.n, st.threshold,
                               trials, st.seed, workers=workers)
            ops.record(err)
            results.append(res)
        if None not in results:
            ops.check(results[0] == results[1], "workers_determinism")

    @property
    def blocks_per_trial(self) -> int:
        return self.n // self.block_len


# --------------------------------------------------------------------------
# cns_table: the bounds and cli layers
# --------------------------------------------------------------------------

# (xi, dD/dR) at the README curve's 7 rates, as `disthyp exponent` printed
# them.  Recorded as constants so that solver changes cannot move this
# workload.
README_CURVE = (
    (0.0010155115720374504, -0.14215782956652182),
    (0.0049569635223797965, -0.13913353788129765),
    (0.008730713132337566, -0.13293232434003693),
    (0.012328296788105614, -0.12683829586791803),
    (0.01576412170576766, -0.11978012602867746),
    (0.018970317319617392, -0.11488924612607361),
    (0.022134934268083304, -0.11413942944662794),
)
README_C = 9.919821
CNS_REGIMES = ("const:0.1", "log", "poly:0.5", "poly:2", "superpoly:0.5")
CNS_DELTA = "1e-5"
CNS_CAP = 100_000


class CnsTable:
    """`disthyp cns` in-process, one call per (curve point, regime) cell."""

    min_passes = 3  # one pass takes 9-15 s on a 2-core Xeon VM

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def build(self, seed: int):
        cells = [(xi, slope, regime) for xi, slope in README_CURVE for regime in CNS_REGIMES]
        order = np.random.default_rng(seed).permutation(len(cells))
        return SimpleNamespace(seed=seed, cells=[cells[i] for i in order])

    def run_pass(self, st, ops: Ops) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = self.out_dir / "cns.csv"
        sidecar = self.out_dir / "cns.meta.json"
        scanned = 0
        scan_s = 0.0
        written = 0
        t0 = time.perf_counter()
        for xi, slope, regime in st.cells:
            argv = ["cns", "--xi", repr(xi), "--c", repr(README_C), "--d-slope", repr(slope),
                    "--regimes", regime, "--delta", CNS_DELTA, "--cap", str(CNS_CAP),
                    "--seed", str(st.seed), "--out-dir", str(self.out_dir), "--out", csv_path.name]
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, err = attempt(cli.main, argv)
            took = time.perf_counter() - start
            # one op per cell: the call, its exit code and its CSV
            if err is not None:
                ops.record(err)
                continue
            written += csv_path.stat().st_size + sidecar.stat().st_size
            cns = _read_cns(csv_path, regime) if code == 0 else None
            if code != 0:
                ops.record("check:cns_exit_code")
            elif cns is None:
                ops.record("check:cns_csv")
            else:
                ops.record(None)
                # a completed scan evaluated every n from 1 to the cns, or to the cap
                scanned += CNS_CAP if cns == "none" else cns
                scan_s += took
        out = {"pass_s": time.perf_counter() - t0, "cli_bytes_written": written}
        if scanned:
            out["scan_n_per_s"] = scanned / scan_s
            out["item_us_samples"] = [scan_s / scanned * 1e6]
        return out

    def once(self, st, ops: Ops) -> None:
        pass


def _read_cns(path: Path, regime: str):
    """The cns cell of a one-row cns CSV: an int, "none", or None if malformed."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != 2 or lines[0] != "regime,delta,cns":
        return None
    fields = lines[1].split(",")
    if len(fields) != 3:
        return None
    label, delta, cns = fields
    if label != bounds.TypeIRegime.parse(regime).label or float(delta) != float(CNS_DELTA):
        return None
    if cns == "none":
        return cns
    return int(cns) if cns.isdigit() and 1 <= int(cns) <= CNS_CAP else None


def make_workloads(out_dir: Path) -> dict:
    """The workloads by name; ``out_dir`` receives the CLI's output files."""
    return {
        "solver_sweep": SolverSweep(),
        # README model, 4 levels, block length 1: 4 x 32 = 128 table cells,
        # 400 blocks per trial
        "mc_few_cells": MonteCarlo(grid=32, block_len=1, n=400,
                                   trials=4 * rngstreams.CHUNK_TRIALS, min_passes=2),
        # 16x16 grid, 4 levels, block length 2: 16 x 256 = 4096 cells, 50
        # blocks per trial.  Passes take 8-11 s on a 2-core Xeon VM, and
        # item_us is the median of their six calls.
        "mc_many_cells": MonteCarlo(grid=16, block_len=2, n=100,
                                    trials=2 * rngstreams.CHUNK_TRIALS, min_passes=3),
        "cns_table": CnsTable(out_dir),
    }
