"""Monte Carlo validation of quantize-then-test schemes.

The simulated scheme mirrors the achievability construction: the X side is
compressed by a deterministic per-letter encoder (a scalar code map, such
as Lloyd-Max, applied to each symbol of a block), the detector sees (code,
Y-block) pairs, and decides via the per-sample log-likelihood ratio statistic

    S = (1/n) * sum_blocks log( P_quant(u, y-block) / Q_quant(u, y-block) ),

accepting the dependent hypothesis on {S > t}.  The quantized pair
(P_quant, Q_quant) is the Kronecker power of the exact scalar laws pushed
through the code map, so simulation error is purely statistical.

S depends only on how many blocks fall in each log-ratio class, not on
which cell holds them, so the sampler draws class counts: cells whose
log-ratios tie (up to rounding) are merged once, when the model is built,
into classes that carry the summed masses of both hypotheses.  One atom of
S then comes out as one float.  A table without ties has one class per
cell, in cell order, and samples exactly as a cell-level draw would.

Trials are driven by fixed-size chunks of counter-based random streams
(see rngstreams), making every estimate a pure function of (seed, config)
regardless of worker count.  Calibration and evaluation use disjoint
streams.  Each chunk draws its class counts in row blocks of about
COUNT_BLOCK_BYTES (see count_block), in trial order from the chunk's one
stream, so a sampling worker holds one block, not a chunk's count matrix.
Each trial's S is a row sum over its own counts, so its bits depend on
neither the block split nor the BLAS thread count.  Evaluation keeps one
error count per chunk; only calibration holds its whole sample, in one
array that it sorts in place.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .dist import JointPmf, divergence_stats, product_model
from . import rngstreams

# The cell cap alone would not bound the Kronecker power of a one-cell table.
MAX_BLOCK_LEN = 3
# Bounds the table build and the per-trial cost of sampling, which grows
# with the number of classes (at most one per cell).  Sampling memory is
# bounded by COUNT_BLOCK_BYTES.
MAX_TABLE_CELLS = 16_384
# Most trials per calibration or evaluation: a 1 GiB calibration sample.
MAX_TRIALS = 1 << 27
# Bytes of int64 class counts one sampling worker draws at a time.
COUNT_BLOCK_BYTES = 1 << 19
# Relative gap between sorted log-ratios above which a new class starts.
# Ties in the README tables differ by at most 4 ulp; distinct values by at
# least 1.8e-6.
CLASS_RTOL = 1e-12
# Bumped whenever the same (seed, config) can draw different statistics;
# version 2 samples log-ratio classes instead of table cells, version 3
# sums S per row and builds block tables as Kronecker powers.
SAMPLER_VERSION = 3
# Normal quantiles at 0.975 and 0.995, kept as literals: NormalDist().inv_cdf
# gives Z95 one ulp away, which would move the Wilson interval bytes.
WILSON_Z95 = 1.959963984540054
WILSON_Z99 = 2.5758293035489004


class SimulationError(ValueError):
    """Invalid simulator input."""


@dataclass(frozen=True)
class Encoder:
    """Per-letter block map: the scalar code map ``table`` (one code in
    [0, |X|) per x) applied to each of the ``block_len`` symbols of a block.
    ``levels_reduced`` flags a quantizer request that asked for more levels
    than there are source points.
    """

    table: np.ndarray
    block_len: int = 1
    levels_reduced: bool = False

    def __post_init__(self):
        table = np.array(self.table, dtype=np.int64)
        if table.ndim != 1 or table.size < 1 or self.block_len < 1:
            raise SimulationError("an encoder needs a non-empty 1-d table and block_len >= 1")
        if np.any(table < 0) or np.any(table >= table.size):
            raise SimulationError(f"table entries must lie in [0, {table.size})")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def nx(self) -> int:
        return self.table.size

    @property
    def codebook_size(self) -> int:
        """Number of code blocks: the scalar codes used, to the block length."""
        return int(np.count_nonzero(np.bincount(self.table))) ** self.block_len

    @classmethod
    def identity(cls, nx: int) -> "Encoder":
        return cls(np.arange(nx))

    def blockwise(self, block_len: int) -> "Encoder":
        """Apply this scalar encoder independently to each symbol of a block."""
        if self.block_len != 1:
            raise SimulationError("blockwise composition needs a scalar encoder")
        return replace(self, block_len=block_len)


def _optimal_split_cells(pts: np.ndarray, wts: np.ndarray, levels: int) -> np.ndarray:
    """Globally optimal contiguous partition by dynamic programming.

    cost(i, j) is the weighted squared deviation of points i..j-1 about
    their centroid, expressed through prefix sums so each transition is
    O(1).  dp[k, j] = best cost of cutting the first j points into k cells.
    """
    npts = len(pts)
    w0 = np.concatenate(([0.0], np.cumsum(wts)))
    w1 = np.concatenate(([0.0], np.cumsum(wts * pts)))
    w2 = np.concatenate(([0.0], np.cumsum(wts * pts * pts)))

    def seg_cost(i: np.ndarray, j: int) -> np.ndarray:
        dw = w0[j] - w0[i]
        return (w2[j] - w2[i]) - (w1[j] - w1[i]) ** 2 / dw

    dp = np.full(npts + 1, np.inf)
    for j in range(1, npts + 1):
        dp[j] = seg_cost(np.array([0]), j)[0]
    back = np.zeros((levels + 1, npts + 1), dtype=np.int64)
    for k in range(2, levels + 1):
        new = np.full(npts + 1, np.inf)
        for j in range(k, npts + 1):
            i = np.arange(k - 1, j)
            cand = dp[i] + seg_cost(i, j)
            pick = int(np.argmin(cand))
            new[j] = cand[pick]
            back[k, j] = i[pick]
        dp = new
    cells = np.zeros(npts, dtype=np.int64)
    j = npts
    for k in range(levels, 1, -1):
        i = back[k, j]
        cells[i:j] = k - 1
        j = int(i)
    return cells


def lloyd_max(points, weights, levels: int) -> Encoder:
    """Scalar minimum-MSE quantizer on a weighted real grid.

    The globally optimal contiguous split is found exactly by dynamic
    programming, with cells numbered 0..levels-1 from the left and none
    empty.  A global optimum already meets the nearest-neighbour and
    centroid conditions, so a Lloyd iteration after it would not move a
    point.  Requests for more levels than grid points are reduced to one
    cell per point and flagged.
    """
    pts = np.asarray(points, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    if pts.ndim != 1 or pts.shape != wts.shape or len(pts) < 1:
        raise SimulationError("points and weights must be matching 1-d arrays")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
        raise SimulationError("points and weights must be finite")
    if np.any(np.diff(pts) <= 0):
        raise SimulationError("points must be strictly increasing")
    if np.any(wts <= 0) or abs(wts.sum() - 1.0) > 1e-9:
        raise SimulationError("weights must be positive and sum to 1")
    if levels < 1:
        raise SimulationError("levels must be >= 1")
    npts = len(pts)
    if levels >= npts:
        return Encoder(np.arange(npts), levels_reduced=levels > npts)
    return Encoder(_optimal_split_cells(pts, wts, levels))


@dataclass(frozen=True)
class QuantizedModel:
    """Exact block laws of (code, Y-block) under both hypotheses.

    ``class_h0``, ``class_h1`` and ``class_lr`` are the same law merged over
    cells with tied log-ratios: per class, the summed masses and the
    log-ratio of its first cell, with classes in the order of their first
    cell.  The sampler draws from them; ``flat()`` keeps the cell-level law.
    """

    h0: np.ndarray
    h1: np.ndarray
    log_ratios: np.ndarray
    block_len: int
    class_h0: np.ndarray
    class_h1: np.ndarray
    class_lr: np.ndarray

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.h0.ravel(), self.h1.ravel(), self.log_ratios.ravel()


def _merge_tied_cells(h0: np.ndarray, h1: np.ndarray, lr: np.ndarray):
    """Class masses and log-ratios of flat cell arrays.

    Sorted log-ratios start a new class wherever the gap exceeds
    CLASS_RTOL * max|lr|.  Each class keeps its first cell's log-ratio, and
    classes keep the order of their first cell, so a table without ties
    returns its arrays unchanged, bit for bit.
    """
    order = np.argsort(lr, kind="stable")
    gaps = np.diff(lr[order]) > CLASS_RTOL * np.abs(lr).max()
    group = np.empty(lr.size, dtype=np.int64)
    group[order] = np.concatenate(([0], np.cumsum(gaps)))
    # renumber the groups (0..g-1 by value) in the order of their first cell
    _, first = np.unique(group, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    cls = rank[group]
    return (np.bincount(cls, weights=h0, minlength=first.size),
            np.bincount(cls, weights=h1, minlength=first.size),
            lr[np.sort(first)])


def quantized_model(p: JointPmf, enc: Encoder) -> QuantizedModel:
    """Push the exact laws P and Q through the scalar code map, then take
    the ``block_len``-th Kronecker power of both tables (first symbol most
    significant).

    The alternative table pushes the product model through the same map
    (not re-multiplied quantized marginals, though the two agree for
    deterministic encoders; tests assert that identity).  Codes never
    produced by the encoder are dropped from both tables.
    """
    if enc.nx != p.nx:
        raise SimulationError(f"encoder expects |X| = {enc.nx}, model has {p.nx}")
    if enc.block_len > MAX_BLOCK_LEN:
        raise SimulationError(
            f"block length {enc.block_len} exceeds the cap {MAX_BLOCK_LEN}")
    l = enc.block_len
    cells = enc.codebook_size * p.ny ** l
    if cells > MAX_TABLE_CELLS:
        raise SimulationError(
            f"quantized table of {cells} cells exceeds the cap of {MAX_TABLE_CELLS}")
    s0 = np.zeros((enc.nx, p.ny))
    s1 = np.zeros((enc.nx, p.ny))
    np.add.at(s0, enc.table, p.probs)  # rows summed per code, in x order
    np.add.at(s1, enc.table, product_model(p).probs)
    used = s0.sum(axis=1) > 0
    s0, s1 = s0[used], s1[used]
    h0, h1 = s0, s1
    for _ in range(l - 1):
        h0, h1 = np.kron(h0, s0), np.kron(h1, s1)
    for name, table in (("H0", h0), ("H1", h1)):
        if abs(table.sum() - 1.0) > 1e-9:
            raise SimulationError(f"{name} quantized table sums to {table.sum()!r}")
    log_ratios = np.log(h0) - np.log(h1)
    classes = _merge_tied_cells(h0.ravel(), h1.ravel(), log_ratios.ravel())
    for arr in (h0, h1, log_ratios) + classes:
        arr.setflags(write=False)
    return QuantizedModel(h0, h1, log_ratios, l, *classes)


# --------------------------------------------------------------------------
# Sampling machinery
# --------------------------------------------------------------------------

def count_block(classes: int) -> tuple[int, int]:
    """Rows (trials) per multinomial draw over ``classes`` classes, and the
    bytes of that int64 count block: as many rows as fit in
    COUNT_BLOCK_BYTES, but at least one, and no more than the
    rngstreams.CHUNK_TRIALS rows of a chunk."""
    rows = min(rngstreams.CHUNK_TRIALS, max(1, COUNT_BLOCK_BYTES // (8 * classes)))
    return rows, rows * classes * 8


def _chunk_stats(pmf: np.ndarray, lr: np.ndarray, k_blocks: int, n: int,
                 seed: int, purpose: int, span: tuple[int, int]) -> np.ndarray:
    """S for one chunk of trials: multinomial counts of k_blocks blocks over
    the log-ratio classes (``pmf``, ``lr``), weighted by the class
    log-ratios and summed per row.  Drawing classes rather than cells moves
    no atom of S by more than the merge tolerance, and gives each atom a
    single float.

    The counts are drawn in blocks of ``count_block`` rows, one after the
    other from the chunk's stream.  Each row reduces on its own, so S is
    the same as from one draw of the whole chunk.
    """
    idx, count = span
    rng = rngstreams.stream(seed, purpose, idx)
    rows, _ = count_block(lr.size)
    stats = np.empty(count)
    for start in range(0, count, rows):
        size = min(rows, count - start)
        counts = rng.multinomial(k_blocks, pmf, size=size)
        stats[start:start + size] = (counts * lr).sum(axis=1) / n
    return stats


def check_trials(name: str, trials: int) -> None:
    """Refuse a trial count outside [1, MAX_TRIALS], before anything is sampled."""
    if not 1 <= trials <= MAX_TRIALS:
        raise SimulationError(f"{name} = {trials} must lie in [1, {MAX_TRIALS}]")


def _sampling_threads() -> int:
    """The default number of sampling threads: the CPUs the process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(summary, pmf: np.ndarray, lr: np.ndarray, k_blocks: int, n: int,
                trials: int, seed: int, purpose: int, workers: int | None) -> list:
    """summary(span, S) of each chunk of trials, in chunk order, on at most
    ``workers`` threads (default _sampling_threads()), which the pool starts
    only as chunks need them.  A chunk's statistics are dropped once summarized."""
    threads = _sampling_threads() if workers is None else workers
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(
            lambda span: summary(span, _chunk_stats(pmf, lr, k_blocks, n, seed,
                                                    purpose, span)),
            rngstreams.chunk_spans(trials)))


@dataclass(frozen=True)
class ThresholdCalibration:
    t: float
    saturated: bool


def calibrate_threshold(qm: QuantizedModel, n: int, eps: float, cal_trials: int,
                        seed: int, workers: int | None = None) -> ThresholdCalibration:
    """Empirical eps-quantile from below of the statistic under the null.

    With m = cal_trials and a = floor(eps * m), the returned t is the
    largest calibration sample value whose count of samples <= t is at
    most a, found in one search of the sorted sample: the region {S > t}
    then has empirical Type I error at most eps, and the next larger
    sample value would exceed it.  If even the smallest sample value
    overshoots the budget, t is placed one ulp below the minimum and
    flagged as saturated.
    """
    if not (0.0 < eps < 1.0):
        raise SimulationError(f"eps must lie in (0, 1), got {eps!r}")
    check_trials("cal_trials", cal_trials)
    if n < 1 or n % qm.block_len:
        raise SimulationError(f"n = {n} must be a positive multiple of block "
                              f"length {qm.block_len}")
    if cal_trials < 100.0 / eps:
        warnings.warn(
            f"cal_trials = {cal_trials} is small for eps = {eps}; "
            f"recommend at least {math.ceil(100.0 / eps)}",
            stacklevel=2)
    stats = np.empty(cal_trials)

    def keep(span, chunk):  # each chunk fills its slice of the one sample
        start = span[0] * rngstreams.CHUNK_TRIALS
        stats[start:start + span[1]] = chunk

    _map_chunks(keep, qm.class_h0, qm.class_lr, n // qm.block_len, n, cal_trials,
                seed, rngstreams.PURPOSE_CALIBRATE, workers)
    stats.sort()
    allowed = int(math.floor(eps * cal_trials + 1e-9))
    # {S <= t} may hold at most `allowed` samples; stats[allowed] is the first
    # that does not fit, so t is the largest sample below all of its copies
    k = (cal_trials if allowed == cal_trials
         else int(np.searchsorted(stats, stats[allowed], side="left")))
    if k == 0:
        return ThresholdCalibration(float(np.nextafter(stats[0], -np.inf)), True)
    return ThresholdCalibration(float(stats[k - 1]), False)


def wilson_interval(successes: int, trials: int,
                    z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval; zero and full counts use the rule of three."""
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise SimulationError("successes must lie in [0, trials]")
    if successes == 0:
        return 0.0, min(1.0, 3.0 / trials)
    if successes == trials:
        return max(0.0, 1.0 - 3.0 / trials), 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class SimResult:
    """Estimated error rates of one simulated test, with Wilson intervals."""

    type1_hat: float
    type2_hat: float
    type1_ci: tuple[float, float]
    type2_ci: tuple[float, float]


def estimate_errors(qm: QuantizedModel, n: int, t: float, trials: int,
                    seed: int, workers: int | None = None) -> SimResult:
    """Monte Carlo Type I / Type II estimates for the region {S > t}.

    Type I counts null trials with S <= t; Type II counts alternative
    trials with S > t.  Both get Wilson 95% intervals.  Degenerate
    thresholds behave as expected: t = -inf accepts always (type2 = 1,
    type1 = 0), t = +inf never.  A NaN t is rejected: every comparison
    with it is false, so both error counts would read 0.
    """
    if math.isnan(t):
        raise SimulationError("threshold t must not be NaN")
    check_trials("trials", trials)
    if n < 1 or n % qm.block_len:
        raise SimulationError(f"n = {n} must be a positive multiple of block "
                              f"length {qm.block_len}")
    k = n // qm.block_len
    k1 = sum(_map_chunks(lambda _, s0: int((s0 <= t).sum()), qm.class_h0, qm.class_lr,
                         k, n, trials, seed, rngstreams.PURPOSE_H0, workers))
    k2 = sum(_map_chunks(lambda _, s1: int((s1 > t).sum()), qm.class_h1, qm.class_lr,
                         k, n, trials, seed, rngstreams.PURPOSE_H1, workers))
    return SimResult(k1 / trials, k2 / trials,
                     wilson_interval(k1, trials), wilson_interval(k2, trials))


# --------------------------------------------------------------------------
# Second-order (centralized) reference
# --------------------------------------------------------------------------

def centralized_second_order(p: JointPmf, eps: float, n: int) -> float:
    """Normal approximation of the optimal per-sample Type II exponent when
    the detector sees X losslessly: D + sqrt(V/n) * ppf(eps) + ln(n)/(2n),
    with ppf the standard normal quantile.
    """
    if not (0.0 < eps < 1.0):
        raise SimulationError(f"eps must lie in (0, 1), got {eps!r}")
    if n < 1:
        raise SimulationError(f"n must be >= 1, got {n}")
    stats = divergence_stats(p)
    return (stats.mi + math.sqrt(stats.var_div / n) * NormalDist().inv_cdf(eps)
            + math.log(n) / (2.0 * n))
