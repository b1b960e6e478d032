"""Monte Carlo validation of quantize-then-test schemes.

The simulated scheme mirrors the achievability construction: the X side is
described through a per-letter test channel p(u|x) (any row-stochastic
bottleneck.TestChannel, applied to each symbol of a block: a Lloyd-Max
quantizer's one-hot rows, the identity, or a solver witness), the detector
sees (code-block, Y-block) pairs, and decides via the per-sample
log-likelihood ratio statistic

    S = (1/n) * sum_blocks log( P_quant(u, y-block) / Q_quant(u, y-block) ),

accepting the dependent hypothesis on {S > t}.  The quantized pair
(P_quant, Q_quant) is the Kronecker power of the exact scalar laws pushed
through the channel, so simulation error is purely statistical.

S depends only on how many blocks fall in each log-ratio class, not on
which cell holds them, so the sampler draws class counts: cells whose
log-ratios tie (up to rounding) are merged once, when the model is built,
into classes that carry the summed masses of both hypotheses.  One atom of
S then comes out as one float.  The classes are stored heavy first, by
descending null mass with ties in the order of their first cell, and drawn
as stored.  A table without ties has one class per cell, so it samples
exactly as a cell-level draw in that order would.

Trials are driven by fixed-size chunks of counter-based random streams
(see rngstreams), making every estimate a pure function of (seed, config)
regardless of worker count.  Calibration and evaluation use disjoint
streams.  Each chunk draws its class counts in row blocks of about
COUNT_BLOCK_BYTES, 128 KiB (see count_block), in trial order from the
chunk's one stream, so a sampling worker holds one block and its weighted
copy, not a chunk's count matrix.  numpy's multinomial draws one
conditional binomial per class and stops once a trial's blocks are used
up, so storing the classes heavy first spares binomials on both streams
(see _merge_tied_cells).  Each trial's S is a row sum over its own counts
in that one order, so its bits depend on neither the block split, the BLAS
thread count nor the stream drawn.  Evaluation keeps three sums per chunk;
only calibration holds its whole sample, in one array that it sorts in
place.

Evaluation draws one stream, not one per hypothesis.  A trial's likelihood
ratio is dP1/dP0 = e^{-nS}, so the null's trials also carry the Type II
error, P1(S > t) = E0[1{S > t} e^{-nS}] (a change of measure; Siegmund
1976), and the alternative's the Type I error, P0(S <= t) =
E1[1{S <= t} e^{nS}].  The stream drawn is the one whose weights on the
far side of t are at most 1: the null's when t >= 0, the alternative's
when t < 0 (see estimate_errors).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bottleneck import MAX_STACK_ENTRIES, TestChannel
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
COUNT_BLOCK_BYTES = 1 << 17
# Gap between sorted log-ratios above which a new class starts, relative
# to max(1, max|lr|): the floor keeps rounding-level log-ratios near 0 in
# one class.  Ties in the README tables differ by at most 4 ulp; distinct
# values by at least 1.8e-6.
CLASS_RTOL = 1e-12
# Bumped whenever the same (seed, config) can draw different statistics;
# version 2 samples log-ratio classes instead of table cells, version 3
# sums S per row and builds block tables as Kronecker powers, version 4
# evaluates both errors on one stream, weighting the far side of t,
# version 5 draws the classes heavy first.
SAMPLER_VERSION = 5
# Normal quantiles at 0.975 and 0.995, kept as literals: NormalDist().inv_cdf
# gives Z95 one ulp away, which would move the Wilson interval bytes.
WILSON_Z95 = 1.959963984540054
WILSON_Z99 = 2.5758293035489004


class SimulationError(ValueError):
    """Invalid simulator input."""


@dataclass(frozen=True)
class Encoder:
    """Per-letter scheme: the test channel p(u|x) applied to each of the
    ``block_len`` symbols of a block.
    """

    channel: TestChannel
    block_len: int = 1

    def __post_init__(self):
        if self.block_len < 1:
            raise SimulationError("an encoder needs block_len >= 1")

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

    def seg_cost(i: np.ndarray | int, j: np.ndarray | int) -> np.ndarray:
        dw = w0[j] - w0[i]
        return (w2[j] - w2[i]) - (w1[j] - w1[i]) ** 2 / dw

    dp = np.full(npts + 1, np.inf)
    dp[1:] = seg_cost(0, np.arange(1, npts + 1))
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
    point.  The encoder's channel has one-hot rows: x -> its cell.
    Requests for more levels than grid points are reduced to one cell per
    point.
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
    cells = np.arange(npts) if levels >= npts else _optimal_split_cells(pts, wts, levels)
    one_hot = np.zeros((npts, int(cells[-1]) + 1))
    one_hot[np.arange(npts), cells] = 1.0
    return Encoder(TestChannel(one_hot))


@dataclass(frozen=True)
class QuantizedModel:
    """Exact block law of (code, Y-block) under both hypotheses, as the
    sampler draws it.

    ``h0`` is the null table, kept for its shape and size: the ``simulate``
    sidecar reports its cells and codes.  ``class_h0``, ``class_h1`` and
    ``class_lr`` are the law merged over cells with tied log-ratios: per
    class, the summed masses under each hypothesis and the log-ratio of
    its first cell.  The classes are stored heavy first, by descending null
    mass with ties in the order of their first cell, and both streams draw
    them as stored.
    """

    h0: np.ndarray
    block_len: int
    class_h0: np.ndarray
    class_h1: np.ndarray
    class_lr: np.ndarray


def _merge_tied_cells(h0: np.ndarray, h1: np.ndarray, lr: np.ndarray):
    """Class masses and log-ratios of flat cell arrays, stored in the
    order both streams draw them.

    Sorted log-ratios start a new class wherever the gap exceeds
    CLASS_RTOL * max(1, max|lr|).  Each class keeps its first cell's
    log-ratio and sums its masses in cell order.  Classes come heavy first,
    by descending null mass, tied masses in the order of their first cell,
    so a table without ties returns its cell arrays permuted that way, bit
    for bit.
    """
    order = np.argsort(lr, kind="stable")
    gaps = np.diff(lr[order]) > CLASS_RTOL * max(1.0, np.abs(lr).max())
    group = np.empty(lr.size, dtype=np.int64)
    group[order] = np.concatenate(([0], np.cumsum(gaps)))
    mass0, mass1 = np.bincount(group, weights=h0), np.bincount(group, weights=h1)
    _, first = np.unique(group, return_index=True)
    # A multinomial row stops at its last nonzero class, so heavy first draws
    # fewer binomials: 46 instead of 58 per trial on the README 4-level table
    # at n = 400.  The alternative's stream keeps the null's order, so a count
    # vector sums to one float of S on either stream: calibration's t is such
    # a float, and evaluation for t < 0 draws the alternative's stream.
    heavy = np.lexsort((first, -mass0))
    return mass0[heavy], mass1[heavy], lr[first[heavy]]


def check_scheme(p: JointPmf, codes: int, block_len: int) -> None:
    """Refuse a scheme on ``codes`` scalar codes before its channel or table
    is built: a block length over MAX_BLOCK_LEN, an |X| x codes channel of
    more than MAX_STACK_ENTRIES entries, or a table of more than
    MAX_TABLE_CELLS (codes * |Y|)^block_len cells."""
    if block_len > MAX_BLOCK_LEN:
        raise SimulationError(f"block length {block_len} exceeds the cap {MAX_BLOCK_LEN}")
    if p.nx * codes > MAX_STACK_ENTRIES:
        raise SimulationError(
            f"channel of {p.nx} x {codes} entries exceeds the cap of {MAX_STACK_ENTRIES}")
    cells = (codes * p.ny) ** block_len
    if cells > MAX_TABLE_CELLS:
        raise SimulationError(
            f"quantized table of {cells} cells exceeds the cap of {MAX_TABLE_CELLS}")


def quantized_model(p: JointPmf, enc: Encoder) -> QuantizedModel:
    """Push the exact laws P and Q = P_X x P_Y through the channel
    W = p(u|x), giving W^T P and W^T Q, then take the ``block_len``-th
    Kronecker power of both tables (first symbol most significant).

    Codes that W never produces carry no mass and are dropped first.  The
    alternative table is pushed, not re-multiplied from the null table's
    marginals; the two agree up to rounding for every W.  Tests compare the
    null table and the classes with those merged from oracles.block_tables,
    which sums every (x-block, code-block) pair.
    The push sums over x in x order (einsum), so a one-hot W adds each
    code's rows exactly as a loop over x would; a BLAS product W^T P
    rounds differently on large grids.
    """
    w = enc.channel.cond_probs
    if w.shape[0] != p.nx:
        raise SimulationError(f"encoder expects |X| = {w.shape[0]}, model has {p.nx}")
    w = w[:, w.any(axis=0)]
    check_scheme(p, w.shape[1], enc.block_len)
    s0 = np.einsum("xu,xy->uy", w, p.probs)
    s1 = np.einsum("xu,xy->uy", w, product_model(p).probs)
    h0, h1 = s0, s1
    for _ in range(enc.block_len - 1):
        h0, h1 = np.kron(h0, s0), np.kron(h1, s1)
    for name, table in (("H0", h0), ("H1", h1)):
        if abs(table.sum() - 1.0) > 1e-9:
            raise SimulationError(f"{name} quantized table sums to {float(table.sum())!r}")
    lr = np.log(h0) - np.log(h1)
    classes = _merge_tied_cells(h0.ravel(), h1.ravel(), lr.ravel())
    for arr in (h0,) + classes:
        arr.setflags(write=False)
    return QuantizedModel(h0, enc.block_len, *classes)


# --------------------------------------------------------------------------
# Sampling machinery
# --------------------------------------------------------------------------

def count_block(classes: int) -> tuple[int, int]:
    """Rows (trials) per multinomial draw over ``classes`` classes, and the
    bytes of that int64 count block: as many rows as fit in
    COUNT_BLOCK_BYTES, but at least one.  COUNT_BLOCK_BYTES // 8 is at most
    rngstreams.CHUNK_TRIALS, so a block never holds more than a chunk."""
    rows = max(1, COUNT_BLOCK_BYTES // (8 * classes))
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


def _check_seed(seed: int) -> None:
    """Refuse a negative master seed, which numpy's SeedSequence rejects
    from inside a sampling thread, before anything is sampled."""
    if seed < 0:
        raise SimulationError(f"seed = {seed} must be >= 0")


def blocks_per_trial(n: int, block_len: int) -> int:
    """n // block_len, refused before anything is sampled unless n is a positive
    multiple of block_len in at most 2^63 - 1 blocks, the most numpy's multinomial draws."""
    if n < 1 or n % block_len or n // block_len > np.iinfo(np.int64).max:
        raise SimulationError(f"n = {n} must be a positive multiple of block length "
                              f"{block_len}, in at most 2^63 - 1 blocks")
    return n // block_len


def _sampling_threads() -> int:
    """The default number of sampling threads: the CPUs the process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(summary, pmf: np.ndarray, lr: np.ndarray, k_blocks: int, n: int,
                trials: int, seed: int, purpose: int, workers: int | None) -> list:
    """summary(span, S) of each chunk of trials drawn from the class law
    (``pmf``, ``lr``), in chunk order, on at most ``workers`` threads
    (default _sampling_threads()), which the pool starts only as chunks
    need them.  A chunk's statistics are dropped once summarized."""
    # on first call, not on import: it loads logging, +0.3 MB peak RSS
    from concurrent.futures import ThreadPoolExecutor
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
    _check_seed(seed)
    k = blocks_per_trial(n, qm.block_len)
    if cal_trials < 100.0 / eps:
        warnings.warn(
            f"cal_trials = {cal_trials} is small for eps = {eps}; "
            f"recommend at least {math.ceil(100.0 / eps)}",
            stacklevel=2)
    stats = np.empty(cal_trials)

    def keep(span, chunk):  # each chunk fills its slice of the one sample
        start = span[0] * rngstreams.CHUNK_TRIALS
        stats[start:start + span[1]] = chunk

    _map_chunks(keep, qm.class_h0, qm.class_lr, k, n, cal_trials,
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


def empirical_bernstein_interval(total: float, total_sq: float,
                                 trials: int) -> tuple[float, float]:
    """Two-sided 95% empirical-Bernstein interval on the mean of ``trials``
    iid draws in [0, 1], from their sum and sum of squares (Maurer & Pontil
    2009, Thm 4, at delta/2 = 0.025 per side): with L = ln(4/delta) and V
    the unbiased sample variance, mean -+ (sqrt(2 V L / m) + 7 L / (3 (m - 1))),
    clipped to [0, 1].  It covers the mean with probability at least 0.95
    at every m; one draw bounds nothing, so m = 1 gives [0, 1]."""
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    if not 0.0 <= total <= trials:
        raise SimulationError("total must lie in [0, trials]")
    if trials == 1:
        return 0.0, 1.0
    mean = total / trials
    # a sum of squares below total * mean is rounding: the variance is then 0
    var = max(0.0, (total_sq - total * mean) / (trials - 1))
    log_term = math.log(4.0 / 0.05)
    half = (math.sqrt(2.0 * var * log_term / trials)
            + 7.0 * log_term / (3.0 * (trials - 1)))
    return max(0.0, mean - half), min(1.0, mean + half)


@dataclass(frozen=True)
class SimResult:
    """Estimated error rates of one simulated test, with their intervals.

    ``evaluation_stream`` names the hypothesis whose trials were drawn,
    ``"h0"`` or ``"h1"``.  The error counted on that stream (Type I on the
    null's, Type II on the alternative's) has a Wilson interval; the other
    error is weighted by the likelihood ratio and has an empirical-Bernstein
    interval (see estimate_errors).
    """

    type1_hat: float
    type2_hat: float
    type1_ci: tuple[float, float]
    type2_ci: tuple[float, float]
    evaluation_stream: str

    @property
    def interval_kinds(self) -> tuple[str, str]:
        """The kinds of the Type I and Type II intervals, in that order."""
        counted, weighted = "wilson", "empirical_bernstein"
        return (counted, weighted) if self.evaluation_stream == "h0" else (weighted, counted)


def estimate_errors(qm: QuantizedModel, n: int, t: float, trials: int,
                    seed: int, workers: int | None = None) -> SimResult:
    """Monte Carlo Type I / Type II estimates for the region {S > t}, from
    one stream of ``trials`` trials.

    A trial's likelihood ratio is dP1/dP0 = e^{-nS}.  So for t >= 0 the
    null's stream gives both errors: Type I counts its trials with S <= t,
    and Type II = P1(S > t) = E0[1{S > t} e^{-nS}] = e^{-nt} E0[u], with
    u = e^{-n(S - t)} where S > t and u = 0 elsewhere.  For t < 0 the
    alternative's stream swaps the roles: Type II counts its trials with
    S > t, and Type I = e^{nt} E1[u], with u = e^{n(S - t)} where S <= t.
    Either way u lies in [0, 1], so its sums never underflow.  Nor is the
    weighted estimate noisier than a plain count: a weight w = e^{-+nt} u
    lies in [0, e^{-+nt}], so with mean b, E[w^2] <= e^{-+nt} b and
    Var w <= b (e^{-+nt} - b) <= b (1 - b).

    The counted error gets a Wilson 95% interval, the weighted one the
    empirical-Bernstein 95% interval on u, scaled by e^{-+nt} <= 1.  Each
    chunk returns (count, sum u, sum u^2), and the chunks are combined in
    chunk order, so no result depends on the worker count.

    Two limits.  The weight is exact up to CLASS_RTOL, as S's atoms are.
    And the weighted estimate underflows to 0.0 where e^{-+nt} does, once
    |nt| exceeds about 745.

    Degenerate thresholds behave as expected: t = -inf accepts always
    (type2 = 1, type1 = 0), t = +inf never (type1 = 1, type2 = 0).  A NaN
    t is rejected: every comparison with it is false, so both error counts
    would read 0.
    """
    if math.isnan(t):
        raise SimulationError("threshold t must not be NaN")
    check_trials("trials", trials)
    _check_seed(seed)
    k = blocks_per_trial(n, qm.block_len)
    null = t >= 0
    # u = e^{sign n (S - t)} on the far side of t; the weighted error is e^{sign n t} E[u]
    sign = -1.0 if null else 1.0

    def summary(_, stats):
        counted = stats <= t if null else stats > t
        u = np.exp(sign * n * (stats[~counted] - t))
        return int(counted.sum()), float(u.sum()), float((u * u).sum())

    pmf, purpose = ((qm.class_h0, rngstreams.PURPOSE_H0) if null
                    else (qm.class_h1, rngstreams.PURPOSE_H1))
    # summed in chunk order, whichever thread drew each chunk
    count, total, total_sq = map(sum, zip(*_map_chunks(
        summary, pmf, qm.class_lr, k, n, trials, seed, purpose, workers)))
    scale = math.exp(sign * n * t)
    lo, hi = empirical_bernstein_interval(total, total_sq, trials)
    counted = count / trials, wilson_interval(count, trials)
    weighted = scale * total / trials, (scale * lo, scale * hi)
    (type1, ci1), (type2, ci2) = (counted, weighted) if null else (weighted, counted)
    return SimResult(type1, type2, ci1, ci2, "h0" if null else "h1")


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
    from statistics import NormalDist  # on first call, not on import: +0.5 MB peak RSS
    stats = divergence_stats(p)
    return (stats.mi + math.sqrt(stats.var_div / n) * NormalDist().inv_cdf(eps)
            + math.log(n) / (2.0 * n))
