"""Independent oracles for cross-checking the package.

Everything here is deliberately written from scratch against the defining
formulas, using different algorithms than the package where possible
(exhaustive grids instead of alternating minimization, multiset enumeration
instead of sampling, greedy hull instead of monotone chain), so agreement
is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def xlogx_sum(a: np.ndarray, axis=None) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        term = a * np.log(a)
    return np.where(a > 0, term, 0.0).sum(axis=axis)


def simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All probability vectors of length dim with entries k/steps."""
    rows = []
    for cuts in itertools.combinations(range(steps + dim - 1), dim - 1):
        prev = -1
        counts = []
        for cut in cuts:
            counts.append(cut - prev - 1)
            prev = cut
        counts.append(steps + dim - 2 - prev)
        rows.append(counts)
    return np.array(rows, dtype=np.float64) / steps


def channel_frontier_2rows(probs: np.ndarray, steps: int = 50,
                           chunk: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Pareto frontier of (I(U;X), I(U;Y)) over all channels p(u|x) with
    |X| = 2, |U| = 3, rows drawn from the step-1/steps simplex grid.

    probs is the 2-by-ny joint matrix.  Returns (rates, relevances) sorted
    by rate with relevance strictly improving.
    """
    assert probs.shape[0] == 2
    rows = simplex_grid(3, steps)
    m = len(rows)
    px = probs.sum(axis=1)
    py = probs.sum(axis=0)
    hy = -xlogx_sum(py)
    hrow = -xlogx_sum(rows, axis=1)
    best_rate, best_rel = [], []
    for start in range(0, m, chunk):
        block = rows[start:start + chunk]
        hb = hrow[start:start + chunk]
        pu = px[0] * block[:, None, :] + px[1] * rows[None, :, :]
        hu = -xlogx_sum(pu, axis=-1)
        rate = hu - (px[0] * hb[:, None] + px[1] * hrow[None, :])
        puy = (block[:, None, :, None] * probs[0][None, None, None, :]
               + rows[None, :, :, None] * probs[1][None, None, None, :])
        huy = -xlogx_sum(puy.reshape(puy.shape[0], puy.shape[1], -1), axis=-1)
        rel = hu + hy - huy
        best_rate.append(rate.ravel())
        best_rel.append(rel.ravel())
    rates = np.concatenate(best_rate)
    rels = np.concatenate(best_rel)
    order = np.argsort(rates, kind="stable")
    rates, rels = rates[order], rels[order]
    keep_r, keep_v = [], []
    running = -np.inf
    for r, v in zip(rates, rels):
        if v > running + 1e-15:
            keep_r.append(r)
            keep_v.append(v)
            running = v
    return np.array(keep_r), np.array(keep_v)


def greedy_upper_hull(rates: np.ndarray, rels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper concave hull by repeated steepest-segment selection."""
    hx = [float(rates[0])]
    hv = [float(rels[0])]
    idx = 0
    while idx < len(rates) - 1:
        dx = rates[idx + 1:] - rates[idx]
        dv = rels[idx + 1:] - rels[idx]
        slopes = dv / dx
        best = np.max(slopes)
        nxt = idx + 1 + np.max(np.nonzero(slopes >= best - 1e-15)[0])
        hx.append(float(rates[nxt]))
        hv.append(float(rels[nxt]))
        idx = nxt
    return np.array(hx), np.array(hv)


def brute_force_exponent(probs: np.ndarray, rate_points, steps: int = 50) -> np.ndarray:
    """Exhaustive-grid exponent values at the given rate budgets (nats)."""
    rates, rels = channel_frontier_2rows(np.asarray(probs, dtype=np.float64), steps)
    if rates[0] > 0:
        rates = np.concatenate([[0.0], rates])
        rels = np.concatenate([[0.0], rels])
    hx, hv = greedy_upper_hull(rates, rels)
    return np.interp(np.asarray(rate_points, dtype=np.float64), hx, hv)


def _binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log(1.0 - q)


def mrs_gerber(r: float, crossover: float = 0.2) -> float:
    """Exact xi(R) in nats for a doubly symmetric binary source.

    Mrs. Gerber's lemma (Wyner & Ziv 1973): xi(R) = ln2 - h(a * h^-1(ln2 - R)),
    where a * q = a(1-q) + q(1-a) and h^-1 maps onto [0, 1/2] (bisection).
    """
    target = max(math.log(2.0) - r, 0.0)
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    return math.log(2.0) - _binary_entropy(crossover * (1.0 - q) + q * (1.0 - crossover))


# --------------------------------------------------------------------------
# Exhaustive Neyman-Pearson enumeration for count-based statistics
# --------------------------------------------------------------------------

def statistic_atoms(pmf0: np.ndarray, pmf1: np.ndarray, lr: np.ndarray,
                    n_blocks: int, n_samples: int):
    """Exact law of S = counts @ lr / n under both hypotheses.

    Enumerates every count vector of n_blocks blocks over the cells.
    Returns (values, p0, p1) with values sorted ascending and masses
    aggregated over ties.
    """
    ncells = len(pmf0)
    atoms: dict[float, list[float]] = {}
    log_fact = [math.lgamma(k + 1) for k in range(n_blocks + 1)]
    for combo in itertools.combinations_with_replacement(range(ncells), n_blocks):
        counts = np.bincount(np.array(combo, dtype=np.int64), minlength=ncells)
        log_coef = log_fact[n_blocks] - sum(log_fact[k] for k in counts)
        mass0 = math.exp(log_coef + float((counts * np.log(pmf0)).sum()))
        mass1 = math.exp(log_coef + float((counts * np.log(pmf1)).sum()))
        s = float(counts.astype(np.float64) @ lr / n_samples)
        entry = atoms.setdefault(s, [0.0, 0.0])
        entry[0] += mass0
        entry[1] += mass1
    values = np.array(sorted(atoms))
    p0 = np.array([atoms[v][0] for v in values])
    p1 = np.array([atoms[v][1] for v in values])
    return values, p0, p1


def exact_error_probs(values: np.ndarray, p0: np.ndarray, p1: np.ndarray,
                      t: float) -> tuple[float, float]:
    """Exact (Type I, Type II) of the acceptance region {S > t}.

    Sums are clamped to [0, 1]; accumulating many atoms can overshoot by
    an ulp, which matters when comparing against intervals capped at 1.
    """
    below = values <= t
    e1 = min(1.0, max(0.0, float(p0[below].sum())))
    e2 = min(1.0, max(0.0, float(p1[~below].sum())))
    return e1, e2


def exact_threshold(values: np.ndarray, p0: np.ndarray, eps: float) -> float:
    """Largest t with P0(S <= t) <= eps, placed safely between atoms."""
    cum = np.cumsum(p0)
    admissible = np.nonzero(cum <= eps + 1e-12)[0]
    if len(admissible) == 0:
        return float(values[0] - 1.0)
    k = admissible[-1]
    if k + 1 < len(values):
        return float(0.5 * (values[k] + values[k + 1]))
    return float(values[k] + 1.0)


# --------------------------------------------------------------------------
# Independent transcription of the four-regime gap bounds
# --------------------------------------------------------------------------

def gap_bounds_reference(kind: str, param, n: int, d_slope: float,
                         c: float) -> tuple[float, float]:
    """Second transcription of the closed-form gap bounds, math-module only."""
    L = math.log(n)
    if kind == "logarithmic":
        LL = math.log(L)
        low = (d_slope / 6 - c * math.sqrt(2 * LL) / L) * L / pow(n, 1 / 3)
        up = (16 * c + LL * math.sqrt(L) / n) / math.sqrt(L)
        return low, up
    if kind == "polynomial" and param < 2:
        low = (d_slope / 6 - c * math.sqrt(2 * param * L) / L) * L / pow(n, 1 / 3)
        up = (16 * c + param * L / pow(n, 1 - param / 2)) / pow(n, param / 2)
        return low, up
    if kind == "polynomial":
        low = (d_slope / 6 - c * math.sqrt(2 * param * L) / L) * L / pow(n, 1 / 3)
        up = (8 * math.sqrt(2) * c * math.sqrt(pow(n, 2 - param) + 1) / L + 2) * L / n
        return low, up
    if kind == "superpolynomial":
        low = ((1 - param) * d_slope / 6 - c * math.sqrt(2) / L) * L / pow(n, (1 - param) / 3)
        up = (8 * math.sqrt(2) * c * math.sqrt(math.exp(-pow(n, param)) * n ** 2 + 1) / L
              + 2) * L / n
        return low, up
    raise ValueError(kind)


def interval_reference(xi: float, d_slope: float, c: float, eps: float,
                       n: int, block_l: int, h: float) -> tuple[float, float]:
    """Second transcription of the probability interval endpoints."""
    dtilde = c * math.sqrt(2 * math.log(1 / eps) / (n * block_l))
    ub = math.exp(-n * (xi + d_slope * math.log(block_l) / (2 * block_l) - dtilde))
    slack = 1 - eps - h
    if slack <= 0:
        return 0.0, min(1.0, ub)
    lb = math.exp(-n * (xi + 4 * c * math.sqrt(2 * math.log(1 / slack))
                        + math.log(1 / h) / n))
    return min(1.0, lb), min(1.0, ub)


def best_contiguous_mse(points, weights, levels: int) -> float:
    """Exhaustive minimum weighted MSE over contiguous partitions.

    A scalar minimum-MSE quantizer always induces contiguous cells, so the
    global optimum is the best choice of levels-1 split positions.
    """
    pts = np.asarray(points, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    npts = len(pts)

    def cell_cost(i, j):
        w = wts[i:j]
        x = pts[i:j]
        mu = float(np.average(x, weights=w))
        return float((w * (x - mu) ** 2).sum())

    best = math.inf
    for splits in itertools.combinations(range(1, npts), levels - 1):
        edges = (0, *splits, npts)
        cost = sum(cell_cost(i, j) for i, j in zip(edges, edges[1:]))
        best = min(best, cost)
    return best
