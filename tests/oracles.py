"""Independent oracles for cross-checking the package.

Everything here is deliberately written from scratch against the defining
formulas, using different algorithms than the package where possible
(exhaustive grids instead of alternating minimization, multiset enumeration
instead of sampling, greedy hull instead of monotone chain), so agreement
is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from disthyp import bounds, dist, simulate


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
    # a point is kept when it beats the last kept one by more than 1e-15;
    # every such point beats all earlier points, so the running maximum
    # screens the 1.76M points down to the few thousand strict new maxima
    earlier = np.maximum.accumulate(np.concatenate([[-np.inf], rels[:-1]]))
    new_max = np.flatnonzero(rels > earlier)
    keep = []
    running = -np.inf
    for i, v in zip(new_max.tolist(), rels[new_max].tolist()):
        if v > running + 1e-15:
            keep.append(i)
            running = v
    return rates[keep], rels[keep]


def ib_objective(probs: np.ndarray, w: np.ndarray, beta: float) -> tuple[float, float, float]:
    """(I(U;X), I(U;Y), I(U;X) - beta I(U;Y)) of channel w, from entropies."""
    px = probs.sum(axis=1)
    hu = -xlogx_sum(px @ w)
    rate = hu + float(px @ xlogx_sum(w, axis=1))
    relevance = hu - xlogx_sum(probs.sum(axis=0)) + xlogx_sum(w.T @ probs)
    return rate, relevance, rate - beta * relevance


def plain_ib(probs: np.ndarray, beta: float, w: np.ndarray, iters: int,
             tol: float | None = None) -> np.ndarray:
    """The plain information-bottleneck map (Tishby, Pereira & Bialek 1999).

    Repeats w(u|x) <- p(u) exp(-beta KL(p(y|x) || p(y|u))) / Z(x) from the
    channel w, for ``iters`` steps, or until the objective changes by less
    than ``tol`` between consecutive iterates.  A cluster with p(u) = 0
    stays empty.  No extrapolation: this is what acceleration must match.
    """
    px = probs.sum(axis=1)
    pyx = probs / px[:, None]
    neg_hyx = xlogx_sum(pyx, axis=1)
    prev = math.inf
    for _ in range(iters):
        pu = px @ w
        live = pu > 0
        pyu = (w[:, live].T @ probs) / pu[live][:, None]
        kl = neg_hyx[:, None] - pyx @ np.log(pyu).T
        logits = np.log(pu[live])[None, :] - beta * kl
        logits -= logits.max(axis=1, keepdims=True)
        new = np.zeros_like(w)
        new[:, live] = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        if np.array_equal(new, w):  # an exact fixed point: every further step is the same
            break
        w = new
        if tol is not None:
            obj = ib_objective(probs, w, beta)[2]
            if abs(prev - obj) < tol:
                break
            prev = obj
    return w


def plain_ib_points(probs: np.ndarray, starts, betas, iters: int,
                    tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rate, relevance) of every plain-map solution of a descending sweep.

    Each start is warm-started from beta to beta down the grid, as the
    solver's chains are; the corners (0, 0) and (H(X), I(X;Y)) of the
    constant and identity channels are included.
    """
    probs = np.asarray(probs, dtype=np.float64)
    points = [(0.0, 0.0), ib_objective(probs, np.eye(probs.shape[0]), 0.0)[:2]]
    for w in starts:
        for beta in sorted(betas, reverse=True):
            w = plain_ib(probs, beta, w, iters, tol)
            points.append(ib_objective(probs, w, beta)[:2])
    rates, rels = np.array(points).T
    return rates, rels


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


def _binomial_log_pmf(n: int, q: float) -> np.ndarray:
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                           for k in range(n + 1)])
    k = np.arange(n + 1)
    return log_choose + k * math.log(q) + (n - k) * math.log1p(-q)


def dsbs_np_optimum(n: int, eps: float, crossover: float = 0.2) -> float:
    """ln beta*(n, eps): the exact optimal Type II error on the DSBS.

    Under P, X is a uniform bit and Y is X flipped with probability
    crossover; Q is the product of its uniform marginals.  The likelihood
    ratio of a sample depends only on whether X == Y, so the randomized
    Neyman-Pearson test is a test on the agreement count K, which is
    Bin(n, 1 - crossover) under P and Bin(n, 1/2) under Q.  It decides P
    when K > k, and with probability gamma when K == k, where k and gamma
    make its Type I error exactly eps.  Works in log space at any n.
    """
    log_p = _binomial_log_pmf(n, 1.0 - crossover)
    log_q = _binomial_log_pmf(n, 0.5)
    log_cdf_p = np.logaddexp.accumulate(log_p)
    k = int(np.argmax(log_cdf_p > math.log(eps)))  # first k with P(K <= k) > eps
    below = math.exp(log_cdf_p[k - 1]) if k > 0 else 0.0
    gamma = 1.0 - (eps - below) / math.exp(log_p[k])
    terms = list(log_q[k + 1:])
    if gamma > 0.0:
        terms.append(math.log(gamma) + log_q[k])
    return float(np.logaddexp.reduce(terms)) if terms else -math.inf


def np_optimum_from_atoms(p0: np.ndarray, p1: np.ndarray, eps: float) -> float:
    """Randomized Neyman-Pearson Type II error on an enumerated law of S.

    p0 and p1 are the atom masses under both hypotheses, in ascending order
    of S.  The test decides the null above the cut atom, and at the cut
    atom with the probability that spends the Type I budget eps exactly.
    """
    cum = np.cumsum(p0)
    k = int(np.argmax(cum > eps))
    below = float(cum[k - 1]) if k > 0 else 0.0
    gamma = 1.0 - (eps - below) / float(p0[k])
    return float(p1[k + 1:].sum()) + gamma * float(p1[k])


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
    if kind == "log":
        LL = math.log(L)
        low = (d_slope / 6 - c * math.sqrt(2 * LL) / L) * L / pow(n, 1 / 3)
        up = (16 * c + LL * math.sqrt(L) / n) / math.sqrt(L)
        return low, up
    if kind == "poly" and param < 2:
        low = (d_slope / 6 - c * math.sqrt(2 * param * L) / L) * L / pow(n, 1 / 3)
        up = (16 * c + param * L / pow(n, 1 - param / 2)) / pow(n, param / 2)
        return low, up
    if kind == "poly":
        low = (d_slope / 6 - c * math.sqrt(2 * param * L) / L) * L / pow(n, 1 / 3)
        up = (8 * math.sqrt(2) * c * math.sqrt(pow(n, 2 - param) + 1) / L + 2) * L / n
        return low, up
    if kind == "superpoly":
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


# --------------------------------------------------------------------------
# Critical sample size, one scalar interval per n
# --------------------------------------------------------------------------

# (xi, dD/dR) at the README curve's 7 rates, with the README model's
# concentration constant.  These are recorded inputs, printed by an earlier
# solver; `disthyp exponent` now prints slightly different digits, and the
# cns of every README cell is the same for both.
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
README_REGIMES = ("const:0.1", "log", "poly:0.5", "poly:2", "superpoly:0.5")


def cns_gap(curve_point, c: float, regime, n: int) -> float:
    """max(ub_prob - nominal, nominal - lb_prob) at n, from feasibility_interval."""
    report = bounds.feasibility_interval(curve_point, c, regime, n)
    return max(report.ub_prob - report.nominal, report.nominal - report.lb_prob)


def cns_reference(curve_point, c: float, regime, delta: float,
                  cap: int = 100_000) -> int | None:
    """First n <= cap whose gap is <= delta, from one evaluation of every n.

    The unchunked, unscreened scan that critical_sample_size must agree
    with: the first admissible n is the first at which feasibility_interval
    raises no RegimeDomainError, and one bounds._interval call then covers
    every admissible n <= cap.  A NaN gap fails the condition.
    """
    first = 1
    while first <= cap:
        try:
            bounds.feasibility_interval(curve_point, c, regime, first)
            break
        except bounds.RegimeDomainError:
            first += 1
    n = np.arange(first, cap + 1, dtype=np.float64)
    at = bounds._interval(*curve_point, c, regime, n)
    ok = np.flatnonzero(np.maximum(at["ub_prob"] - at["nominal"],
                                   at["nominal"] - at["lb_prob"]) <= delta)
    return int(n[ok[0]]) if ok.size else None


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


# --------------------------------------------------------------------------
# Quantized tables
# --------------------------------------------------------------------------

def random_map(nx: int, block_len: int, codes: int,
               rng: np.random.Generator) -> simulate.Encoder:
    """Per-letter encoder sending each x to one of ``codes`` codes drawn
    uniformly at random."""
    return simulate.Encoder(rng.integers(0, codes, size=nx)).blockwise(block_len)


def block_tables(p, enc: simulate.Encoder) -> tuple[np.ndarray, np.ndarray]:
    """(code-block, Y-block) tables under P^l and Q^l by enumerating every
    x-block: its Kronecker product of rows is added to its code block, the
    mixed-radix number of its scalar codes (first symbol most significant).
    Code blocks that no x-block reaches are dropped."""
    l, radix = enc.block_len, int(enc.table.max()) + 1
    q = dist.product_model(p)
    h0 = np.zeros((radix ** l, p.ny ** l))
    h1 = np.zeros((radix ** l, p.ny ** l))
    for xblock in itertools.product(range(p.nx), repeat=l):
        code = 0
        for x in xblock:
            code = code * radix + enc.table[x]
        h0[code] += functools.reduce(np.kron, (p.probs[x] for x in xblock))
        h1[code] += functools.reduce(np.kron, (q.probs[x] for x in xblock))
    used = h0.sum(axis=1) > 0
    return h0[used], h1[used]


def table_mutual_information(table: np.ndarray) -> float:
    """I between the row and column variables of a 2-d joint table (nats)."""
    rows = table.sum(axis=1, keepdims=True)
    cols = table.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = table * (np.log(table) - np.log(rows) - np.log(cols))
    return float(np.where(np.isfinite(term), term, 0.0).sum())
