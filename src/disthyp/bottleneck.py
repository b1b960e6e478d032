"""Error-exponent curve via an information-bottleneck solver.

The quantity of interest is

    xi(R) = max I(U;Y)  over channels p(u|x) with I(U;X) <= R,

with U ranging over an alphabet of size |X|+1 (enough to attain the
optimum) and U-X-Y a Markov chain.  Equivalently D(R) = H(Y) - xi(R) is a
noisy distortion-rate function under log-loss.

The solver is the standard alternating minimization of
I(U;X) - beta*I(U;Y): a geometric sweep over beta with warm starts traces
out the (rate, relevance) trade-off, a fixed number of random restarts
guards against local optima, and the reported curve is the upper concave
envelope of every solution found.  Chord points on the envelope are
achievable by time sharing between the two endpoint channels, so the
envelope is a certified lower bound on xi.

Two exact channels are always injected as anchor solutions: the constant
channel at (0, 0) and the identity channel at (H(X), I(X;Y)).  They pin the
ends of the envelope without relying on solver convergence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dist import INFO_ATOL, PROB_ATOL, JointPmf, entropy, mutual_information
from . import rngstreams

DEFAULT_BETA_GRID = tuple(np.geomspace(0.1, 100.0, 40))
PRUNE_EPS = 1e-12


class SolverError(ValueError):
    """Invalid solver input."""


@dataclass(frozen=True)
class TestChannel:
    """Row-stochastic conditional pmf p(u|x), shape (|X|, |U|).

    Entries may be zero (deterministic channels are legitimate); rows must
    sum to one within tolerance.
    """

    cond_probs: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.cond_probs, dtype=np.float64)
        if mat.ndim != 2:
            raise SolverError(f"channel must be 2-d, got shape {mat.shape}")
        if np.any(mat < 0) or not np.all(np.isfinite(mat)):
            raise SolverError("channel entries must be finite and nonnegative")
        rows = mat.sum(axis=1)
        bad = np.argwhere(np.abs(rows - 1.0) > PROB_ATOL)
        if bad.size:
            raise SolverError(
                f"channel row {bad[0][0]} sums to {rows[bad[0][0]]!r}, not 1"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "cond_probs", mat)

    @property
    def nx(self) -> int:
        return self.cond_probs.shape[0]

    @property
    def nu(self) -> int:
        return self.cond_probs.shape[1]

    @classmethod
    def identity_plus_noise(cls, nx: int, nu: int, diag: float = 0.9) -> "TestChannel":
        """Rows concentrated on distinct clusters with the rest spread uniformly."""
        mat = np.full((nx, nu), (1.0 - diag) / (nu - 1)) if nu > 1 else np.ones((nx, 1))
        if nu > 1:
            for x in range(nx):
                mat[x, x % nu] = diag
            mat /= mat.sum(axis=1, keepdims=True)
        return cls(mat)

    @classmethod
    def random(cls, nx: int, nu: int, rng: np.random.Generator) -> "TestChannel":
        mat = rng.random((nx, nu)) + 1e-3
        mat /= mat.sum(axis=1, keepdims=True)
        return cls(mat)

    @classmethod
    def identity(cls, nx: int, nu: int) -> "TestChannel":
        mat = np.zeros((nx, nu))
        mat[np.arange(nx), np.arange(nx) % nu] = 1.0
        return cls(mat)

    @classmethod
    def constant(cls, nx: int, nu: int) -> "TestChannel":
        mat = np.zeros((nx, nu))
        mat[:, 0] = 1.0
        return cls(mat)


@dataclass(frozen=True)
class IbSolution:
    """One solver output: a channel with its exact (rate, relevance) pair."""

    channel: TestChannel
    rate: float
    relevance: float
    beta: float
    iterations: int
    converged: bool
    pruned_clusters: int = 0


def channel_information(p: JointPmf, channel: TestChannel) -> tuple[float, float]:
    """Exact (I(U;X), I(U;Y)) for a channel applied to the model's X."""
    w = channel.cond_probs
    if w.shape[0] != p.nx:
        raise SolverError(f"channel has {w.shape[0]} rows, model has |X| = {p.nx}")
    px = p.x_marginal
    pu = w.T @ px
    with np.errstate(divide="ignore", invalid="ignore"):
        term = w * (np.log(w) - np.log(pu)[None, :])
    term[~np.isfinite(term)] = 0.0
    rate = float((px[:, None] * term).sum())
    puy = w.T @ p.probs
    denom = np.outer(pu, p.y_marginal)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = puy * (np.log(puy) - np.log(denom))
    term[~np.isfinite(term)] = 0.0
    relevance = float(term.sum())
    return max(rate, 0.0), max(relevance, 0.0)


def _iterate(p: JointPmf, beta: float, w: np.ndarray,
             max_iters: int, tol: float) -> tuple[np.ndarray, int, bool]:
    """Alternating-minimization loop; returns the full-width channel.

    One pass per iteration: the marginals pu = w^T p(x) and p(u,y) = w^T P
    of each new channel give both its objective and the next update, so no
    channel is validated or re-measured inside the loop.  A non-finite
    iterate makes the objective non-finite, which raises SolverError.
    """
    if max_iters < 1:
        raise SolverError("max_iters must be at least 1")
    px = p.x_marginal
    pyx = p.probs / px[:, None]
    neg_hyx = (pyx * np.log(pyx)).sum(axis=1)  # row-wise -H(Y|X=x)
    log_py = np.log(p.y_marginal)
    pu = w.T @ px
    puy = w.T @ p.probs
    prev_obj = np.inf
    converged = False
    iters = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pu = np.log(pu)
        for iters in range(1, max_iters + 1):
            # KL(p(y|x) || p(y|u)) with p(y|u) = p(u,y)/pu.  A dead cluster
            # (pu = 0) gets NaN here, and every non-finite divergence becomes
            # an infinite penalty, so dead clusters stay dead even at beta = 0
            div = neg_hyx[:, None] - pyx @ np.log(puy / pu[:, None]).T
            penalty = np.where(np.isfinite(div), beta * div, np.inf)
            logw = log_pu[None, :] - penalty
            logw -= logw.max(axis=1, keepdims=True)
            w = np.exp(logw)
            z = w.sum(axis=1, keepdims=True)
            w /= z
            pu = w.T @ px
            puy = w.T @ p.probs
            log_pu = np.log(pu)
            # exact zeros contribute nothing; a NaN entry stays NaN
            rate_terms = w * (logw - np.log(z) - log_pu[None, :])
            rel_terms = puy * (np.log(puy) - log_pu[:, None] - log_py[None, :])
            rate = float(px @ np.where(w == 0, 0.0, rate_terms).sum(axis=1))
            relevance = float(np.where(puy == 0, 0.0, rel_terms).sum())
            obj = rate - beta * relevance
            if not math.isfinite(obj):
                raise SolverError(
                    f"iterate went non-finite at beta={beta!r}, iteration {iters}")
            if abs(prev_obj - obj) < tol:
                converged = True
                break
            prev_obj = obj
    return w, iters, converged


def ib_fixed_point(p: JointPmf, beta: float, init: TestChannel | None = None,
                   max_iters: int = 1000, tol: float = 1e-10) -> IbSolution:
    """Run the alternating minimization from one starting channel.

    The starting channel must have |X|+1 clusters; clusters whose mass
    collapses to zero during the iteration are pruned from the returned
    channel and counted in ``pruned_clusters``.
    """
    if beta < 0:
        raise SolverError(f"beta must be nonnegative, got {beta!r}")
    if init is None:
        init = TestChannel.identity_plus_noise(p.nx, p.nx + 1)
    if init.nx != p.nx or init.nu != p.nx + 1:
        raise SolverError(
            f"init must have shape ({p.nx}, {p.nx + 1}), got ({init.nx}, {init.nu})"
        )
    w, iters, converged = _iterate(p, float(beta), init.cond_probs.copy(), max_iters, tol)
    return _wrap_solution(p, w, float(beta), iters, converged)


def _wrap_solution(p: JointPmf, w: np.ndarray, beta: float,
                   iters: int, converged: bool) -> IbSolution:
    pu = w.T @ p.x_marginal
    keep = pu > PRUNE_EPS
    pruned = int((~keep).sum())
    if pruned and keep.any():
        w = w[:, keep]
        w = w / w.sum(axis=1, keepdims=True)
    channel = TestChannel(w)
    rate, relevance = channel_information(p, channel)
    return IbSolution(channel, rate, relevance, beta, iters, converged, pruned)


def _anchor_solutions(p: JointPmf) -> list[IbSolution]:
    nu = p.nx + 1
    out = []
    for maker in (TestChannel.constant, TestChannel.identity):
        ch = maker(p.nx, nu)
        rate, relevance = channel_information(p, ch)
        out.append(IbSolution(ch, rate, relevance, math.inf, 0, True, 0))
    return out


def _run_chain(p: JointPmf, beta_grid, master_seed: int, chain_id: int,
               max_iters: int, tol: float) -> list[IbSolution]:
    """One warm-started sweep down the beta grid from a single init.

    Sweeping from large beta to small tracks the nontrivial solution branch
    from its stable side: ascending sweeps collapse to the trivial fixed
    point below the critical beta and cannot leave it afterwards, losing
    the whole small-rate part of the curve.
    """
    if chain_id == 0:
        w = TestChannel.identity_plus_noise(p.nx, p.nx + 1).cond_probs.copy()
    else:
        rng = rngstreams.stream(master_seed, rngstreams.PURPOSE_SOLVER, chain_id)
        w = TestChannel.random(p.nx, p.nx + 1, rng).cond_probs.copy()
    out = []
    for beta in sorted(beta_grid, reverse=True):
        w, iters, converged = _iterate(p, float(beta), w, max_iters, tol)
        out.append(_wrap_solution(p, w.copy(), float(beta), iters, converged))
    return out


def _pareto_frontier(solutions: list[IbSolution]) -> tuple[np.ndarray, np.ndarray]:
    """Max relevance achieved at rate <= r, as step-function vertices."""
    rates = np.array([s.rate for s in solutions])
    rels = np.array([s.relevance for s in solutions])
    order = np.lexsort((-rels, rates))
    best_rates, best_rels = [], []
    running = -np.inf
    for idx in order:
        if rels[idx] > running + 1e-15:
            running = rels[idx]
            best_rates.append(rates[idx])
            best_rels.append(rels[idx])
    return np.array(best_rates), np.array(best_rels)


def _upper_hull(rates: np.ndarray, rels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper concave majorant of an increasing point set (monotone chain)."""
    hull: list[tuple[float, float]] = []
    for x, y in zip(rates, rels):
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append((float(x), float(y)))
    arr = np.array(hull)
    return arr[:, 0], arr[:, 1]


@dataclass
class EnvelopePool:
    """All solutions gathered for one model, with envelope evaluation.

    ``concavity_residual`` is a diagnostic: the largest gap between the
    concave hull and the Pareto frontier beneath it.  It measures dominated
    fixed points lying under the hull, not solutions the sweep missed.
    """

    p: JointPmf
    solutions: list[IbSolution]
    concavity_residual: float = 0.0
    restarts_used: int = 0

    def refresh(self) -> None:
        pr, pv = _pareto_frontier(self.solutions)
        hr, hv = _upper_hull(pr, pv)
        self._pareto = (pr, pv)
        self._hull = (hr, hv)
        self.concavity_residual = float(np.max(np.interp(pr, hr, hv) - pv, initial=0.0))

    def value_at(self, r: float) -> float:
        hr, hv = self._hull
        return float(np.interp(r, hr, hv))

    def hull_slope_at(self, r: float) -> float | None:
        hr, hv = self._hull
        if r >= hr[-1] or len(hr) < 2:
            return None
        j = int(np.searchsorted(hr, r, side="right"))
        j = min(max(j, 1), len(hr) - 1)
        dr = hr[j] - hr[j - 1]
        if dr <= 0:
            return None
        return float((hv[j] - hv[j - 1]) / dr)

    def witness_at(self, r: float) -> IbSolution:
        best = None
        for sol in self.solutions:
            if sol.rate <= r + 1e-12 and (best is None or sol.relevance > best.relevance):
                best = sol
        if best is None:  # r < 0 is rejected upstream; rate-0 anchor always qualifies
            best = self.solutions[0]
        return best

    def witness_above(self, r: float) -> IbSolution | None:
        """Solution sitting at the right end of the hull chord containing r."""
        hr, hv = self._hull
        j = int(np.searchsorted(hr, r, side="right"))
        if j >= len(hr):
            return None
        best = None
        for sol in self.solutions:
            if (abs(sol.rate - hr[j]) <= 1e-9 and sol.relevance >= hv[j] - 1e-9
                    and (best is None or sol.relevance > best.relevance)):
                best = sol
        return best


def solve_envelope(p: JointPmf, restarts: int = 4, master_seed: int = 0,
                   beta_grid=None, max_iters: int = 1000,
                   tol: float = 1e-10) -> EnvelopePool:
    """Sweep the trade-off curve and return the solution pool.

    Chain 0 starts from a near-identity channel and chains 1..restarts from
    random channels; each runs once, and the number of restarts is fixed:
    it never escalates.  The pool's ``concavity_residual`` is reported, not
    acted on: it measures dominated fixed points lying under the hull, which
    more restarts cannot remove.
    """
    if restarts < 0:
        raise SolverError("restarts must be nonnegative")
    beta_grid = tuple(DEFAULT_BETA_GRID if beta_grid is None else beta_grid)
    pool = EnvelopePool(p, _anchor_solutions(p), restarts_used=restarts)
    for chain_id in range(restarts + 1):
        pool.solutions.extend(_run_chain(p, beta_grid, master_seed, chain_id, max_iters, tol))
    pool.refresh()
    return pool


def _refine_at(pool: EnvelopePool, r: float, rounds: int = 3,
               max_iters: int = 1000, tol: float = 1e-10) -> None:
    """Sharpen the envelope near one rate by solving at the supporting beta.

    Each round solves at beta = 1/(chord slope) warm-started from the
    nontrivial right end of the chord.  Starting from the left end would be
    useless: below the query rate the best known channel is often the
    trivial one, which is an exact fixed point of the iteration at every
    beta.  A solution strictly inside the chord splits it; if the iterate
    falls back onto an endpoint the chord is genuinely optimal
    (time-sharing region) and refinement stops.
    """
    for _ in range(rounds):
        slope = pool.hull_slope_at(r)
        if slope is None or slope <= 1e-9:
            return
        beta = min(max(1.0 / slope, 1e-3), 1e6)
        seed = pool.witness_above(r)
        if seed is None:
            return
        w = seed.channel.cond_probs
        if w.shape[1] < pool.p.nx + 1:  # re-pad pruned channels for the iteration
            pad = np.zeros((pool.p.nx, pool.p.nx + 1 - w.shape[1]))
            w = np.hstack([w, pad])
        w, iters, converged = _iterate(pool.p, beta, w.copy(), max_iters, tol)
        sol = _wrap_solution(pool.p, w, beta, iters, converged)
        before = pool.value_at(r)
        pool.solutions.append(sol)
        pool.refresh()
        if pool.value_at(r) <= before + 1e-12:
            return


def exponent_at_rate(p: JointPmf, r: float, restarts: int = 4,
                     master_seed: int = 0) -> tuple[float, IbSolution]:
    """Best exponent at rate budget r (nats) and the channel witnessing it.

    The value is read off the concave envelope of all solutions, so it is a
    certified lower bound on the true curve: envelope vertices are actual
    channels and chord points are time-sharing combinations of the two
    endpoint channels.  The witness is the best single channel with
    rate <= r; its (rate, relevance) can be reproduced exactly via
    channel_information.
    """
    if r < 0:
        raise SolverError(f"rate budget must be nonnegative, got {r!r}")
    pool = solve_envelope(p, restarts=restarts, master_seed=master_seed)
    _refine_at(pool, r)
    return pool.value_at(r), pool.witness_at(r)


@dataclass(frozen=True)
class ExponentCurve:
    """Rate grid with exponent, distortion, and distortion slope columns."""

    r: np.ndarray
    xi: np.ndarray
    d: np.ndarray
    d_slope: np.ndarray
    fingerprint: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        if r.ndim != 1 or len(r) < 3:
            raise SolverError("curve needs a 1-d rate grid with at least 3 points")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise SolverError("rate grid must be nonnegative and strictly increasing")
        xi = np.asarray(self.xi, dtype=np.float64)
        if np.any(np.diff(xi) < -1e-12):
            raise SolverError("xi must be nondecreasing along the grid")
        if np.any(self.d_slope > 1e-6):
            raise SolverError("distortion slope must be nonpositive (within 1e-6)")
        for name in ("r", "xi", "d", "d_slope"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_csv(self) -> str:
        lines = ["R_nats,xi_nats,D_nats,dD_dR"]
        for i in range(len(self.r)):
            lines.append(",".join(repr(float(v)) for v in
                                  (self.r[i], self.xi[i], self.d[i], self.d_slope[i])))
        return "\n".join(lines) + "\n"

    def sidecar_json(self) -> str:
        return json.dumps({"fingerprint": self.fingerprint,
                           "diagnostics": self.diagnostics}, indent=2)


def build_curve(p: JointPmf, r_grid, restarts: int = 4,
                master_seed: int = 0) -> ExponentCurve:
    """Evaluate the exponent curve on a rate grid (nats).

    One envelope solve is shared by all grid points; each point then gets a
    local refinement at its supporting beta.  The upper hull of the Pareto
    frontier is nondecreasing, so xi is too.  D is defined as H(Y) - xi, so
    the log-loss identity holds by construction, and dD/dR comes from
    central differences on the grid.
    """
    r = np.asarray(r_grid, dtype=np.float64)
    if r.ndim != 1 or len(r) < 3:
        raise SolverError("rate grid must be 1-d with at least 3 points "
                          "(slope estimation needs them)")
    if r[0] < 0 or np.any(np.diff(r) <= 0):
        raise SolverError("rate grid must be nonnegative and strictly increasing")
    pool = solve_envelope(p, restarts=restarts, master_seed=master_seed)
    for point in r:
        _refine_at(pool, float(point), rounds=1)
    xi = np.array([pool.value_at(float(point)) for point in r])
    mi = mutual_information(p)
    if np.any(xi > np.minimum(r, mi) + 1e-9):
        raise SolverError("solver produced xi above min(R, I(X;Y)); model or solver is broken")
    hy = p.entropy_y
    d = hy - xi
    d_slope = np.empty_like(d)
    d_slope[1:-1] = (d[2:] - d[:-2]) / (r[2:] - r[:-2])
    d_slope[0] = (d[1] - d[0]) / (r[1] - r[0])
    d_slope[-1] = (d[-1] - d[-2]) / (r[-1] - r[-2])
    diagnostics = {
        "concavity_residual": pool.concavity_residual,
        "restarts_used": pool.restarts_used,
        "solutions": len(pool.solutions),
        "master_seed": master_seed,
    }
    return ExponentCurve(r, xi, d, d_slope, p.fingerprint(), diagnostics)
