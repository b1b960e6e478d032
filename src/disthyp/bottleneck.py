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
envelope of every solution found.  The restart chains run in lockstep as
one stacked iterate, each with its own stopping rule.  The iteration is
accelerated by SQUAREM (Varadhan & Roland 2008): every third step
extrapolates the last three iterates in log space, and the result is kept
only if one map step from it does not raise the objective, so the objective
still falls monotonically.  The stopping rule (the objective changes by less
than OBJ_TOL between consecutive iterates) and the 1000-evaluation cap are
those of the plain iteration.  Each map evaluation works from the logs of
p(u) and p(u,y) that the previous one kept, and takes the objective from
entropies (see _iterate).  A stack larger than MAX_STACK_ENTRIES is refused
before it is built.  Chord points on the envelope are achievable
by time sharing between the two endpoint channels, so the envelope is a
certified lower bound on xi.

Two exact channels are always injected as anchor solutions: the constant
channel at (0, 0) and the identity channel at (H(X), I(X;Y)).  They pin the
ends of the envelope without relying on solver convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import PROB_ATOL, JointPmf, mutual_information
from . import rngstreams

DEFAULT_BETA_GRID = tuple(np.geomspace(0.1, 100.0, 40))
# A chain stops once its objective changes by less than this between
# consecutive iterates.
OBJ_TOL = 1e-10
# The largest solver stack, in float64 entries: chains x max(|X|, |Y|) x
# (|X|+1), the size of every whole-stack temporary (32 MiB each).
MAX_STACK_ENTRIES = 1 << 22


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
    def identity_plus_noise(cls, nx: int, nu: int) -> "TestChannel":
        """Rows with mass 0.9 on distinct clusters and the rest spread uniformly."""
        diag = 0.9
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


def _chain_sumsq(a: np.ndarray) -> np.ndarray:
    """Sum of squares of each chain of a stack, one dot per chain: a single
    product over the stack may round a chain differently depending on how
    many chains it holds."""
    flat = a.reshape(len(a), 1, -1)
    return (flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def _xlogx(x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """x log x from x and its log: 0 where x = 0 (log x = -inf is clipped
    to the most negative float, whose product with 0 is 0), NaN where
    either is NaN."""
    out = np.maximum(log_x, np.finfo(np.float64).min)
    out *= x
    return out


def _iterate(p: JointPmf, beta: float, w: np.ndarray,
             max_iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating minimization of a stack of chains run in lockstep,
    accelerated by SQUAREM extrapolation (Varadhan & Roland 2008).

    ``w`` has shape (chains, |X|, |U|).  Returns the final stack with each
    chain's iteration count and converged flag.  Every chain keeps its own
    stopping rule |prev_obj - obj| < OBJ_TOL between consecutive iterates: a
    chain that meets it is written back and dropped from the active stack,
    so its channel is frozen while the others go on.  No operation mixes
    chains (each norm and sum is one reduction per chain), so a chain's
    iterates are the same whichever stack it runs in.

    Every third step is extrapolated.  From the chain's last three iterates
    w0, w1, w2 it takes, in log space, r = log w1 - log w0 and
    v = log w2 - 2 log w1 + log w0, and steps to
    log w0 + 2 alpha r + alpha^2 v = log w2 + (alpha - 1)(2 r + (alpha + 1) v),
    renormalized per row, with alpha = |r| / |v| clamped to [1, step_max];
    alpha = 1 lands on w2.  An entry that is zero in any of the three
    iterates takes no part and stays at log w2.  One plain map step from
    there gives the candidate, which is kept only if its objective is not
    above the current one; otherwise the chain stays at w2 and its next
    step is the plain one, so the objective never rises.  Each chain's
    step_max starts at 1, grows 4-fold when an accepted step was clamped to
    it and shrinks 4-fold (not below 1) on a rejection.  ``iters`` and
    ``max_iters`` count map evaluations, rejected candidates included.

    One map evaluation reads only the logs of the marginals p(u) and
    p(u,y) = sum_x P(x,y) w(u|x) of its source channel.  Since
    sum_y p(y|x) = 1, the update w'(u|x) ~ p(u) exp(-beta KL(p(y|x)||p(y|u)))
    is

        log w'(u|x) = (1 - beta) log p(u) + beta sum_y p(y|x) log p(u,y) - log Z(x):

    the row constant -beta H(Y|X=x) and the log p(u) inside the KL cancel in
    the per-row normalization.  With p(u,y) held as (chains, |Y|, |U|) the
    sum over y is one batched matrix product.  A NaN or -inf entry of the
    sum (0 * -inf, inf - inf) becomes -inf, so a dead cluster (p(u) = 0)
    stays exactly zero at every beta, 0 and 1 included.

    The objective I(U;X) - beta I(U;Y) comes from the same logs, as
    entropies: I(U;X) = sum_x p(x) sum_u w log w - sum_u p(u) log p(u) and
    I(U;Y) = sum p(u,y) log p(u,y) - sum_u p(u) log p(u) + H(Y), with exact
    zeros contributing nothing and a NaN staying NaN.  The cancellation
    between the entropies grows with beta: on the README model at beta = 100
    it moves the objective by about 1e-13 (2e-13 at most), some 500 times
    below OBJ_TOL.  The new iterate's logs are carried into its
    own update, so no channel is validated or re-measured inside the loop.
    A non-finite plain iterate makes its chain's objective non-finite,
    which raises SolverError; a non-finite extrapolated candidate is
    rejected.
    """
    if max_iters < 1:
        raise SolverError("max_iters must be at least 1")
    px = p.x_marginal
    beta_pyx = beta * (p.probs / px[:, None])
    pyx_t = np.ascontiguousarray(p.probs.T)
    hy = p.entropy_y
    out = np.empty_like(w)
    iters = np.full(len(w), max_iters)
    converged = np.zeros(len(w), dtype=bool)
    active = np.arange(len(w))
    step_max = np.ones(len(w))
    history: list[np.ndarray] = []  # log-channels of this cycle's earlier iterates
    prev_obj = [math.inf] * len(w)
    # an overflowing extrapolation yields a non-finite candidate, which is rejected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logw = np.log(w)
        log_pu = np.log(px @ w)
        log_puy = np.log(pyx_t @ w)
        for it in range(1, max_iters + 1):
            extrapolate = len(history) == 2
            if extrapolate:
                l0, l1 = history
                r = l1 - l0
                v = logw - l1
                v -= r
                # v is finite only where all three iterates are
                dead = ~np.isfinite(v)
                r[dead] = 0.0
                v[dead] = 0.0
                alpha = np.clip(np.sqrt(_chain_sumsq(r)) / np.sqrt(_chain_sumsq(v)),
                                1.0, step_max)
                # log w2 + (alpha - 1)(2 r + (alpha + 1) v), built in place in
                # v: exactly log w2 where r = v = 0
                v *= (alpha + 1.0)[:, None, None]
                v += r
                v += r
                v *= (alpha - 1.0)[:, None, None]
                v += logw
                start = v
                start -= start.max(axis=2, keepdims=True)
                np.exp(start, out=start)
                start /= start.sum(axis=2, keepdims=True)
                src_log_pu = np.log(px @ start)
                src_log_puy = np.log(pyx_t @ start)
            else:
                src_log_pu, src_log_puy = log_pu, log_puy
            new_logw = beta_pyx @ src_log_puy
            new_logw += ((1.0 - beta) * src_log_pu)[:, None, :]
            # a dead cluster's 0 * -inf or inf - inf is NaN: make it -inf
            np.fmax(new_logw, -np.inf, out=new_logw)
            new_logw -= new_logw.max(axis=2, keepdims=True)
            new_w = np.exp(new_logw)
            z = new_w.sum(axis=2, keepdims=True)
            new_w /= z
            new_logw -= np.log(z)
            new_pu = px @ new_w
            new_puy = pyx_t @ new_w
            new_log_pu = np.log(new_pu)
            new_log_puy = np.log(new_puy)
            neg_hux = (px @ _xlogx(new_w, new_logw)).sum(axis=1)
            neg_hu = _xlogx(new_pu, new_log_pu).sum(axis=1)
            neg_huy = _xlogx(new_puy, new_log_puy).reshape(len(new_puy), -1).sum(axis=1)
            # I(U;X) - beta I(U;Y); a handful of chains: the stopping rule
            # is cheaper on floats
            obj = (neg_hux - beta * (neg_huy + hy) + (beta - 1.0) * neg_hu).tolist()
            if extrapolate:
                # NaN compares False, so a non-finite candidate is rejected
                moved = [o <= q for o, q in zip(obj, prev_obj)]
                keep = np.array(moved)
                step_max = np.where(keep, np.where(alpha == step_max, 4.0 * step_max, step_max),
                                    np.maximum(step_max / 4.0, 1.0))
                if not all(moved):
                    back = ~keep
                    for new, old in ((new_w, w), (new_logw, logw),
                                     (new_log_pu, log_pu), (new_log_puy, log_puy)):
                        new[back] = old[back]
                    obj = [o if m else q for o, q, m in zip(obj, prev_obj, moved)]
                history = []
            else:
                if not all(map(math.isfinite, obj)):
                    chain = active[list(map(math.isfinite, obj)).index(False)]
                    raise SolverError(f"iterate went non-finite at beta={beta!r}, "
                                      f"iteration {it}, chain {chain}")
                moved = [True] * len(obj)
                history.append(logw)
            w, logw, log_pu, log_puy = new_w, new_logw, new_log_pu, new_log_puy
            done = [m and abs(a - b) < OBJ_TOL for m, a, b in zip(moved, prev_obj, obj)]
            if any(done):
                done = np.array(done)
                stopped = active[done]
                out[stopped] = w[done]
                iters[stopped] = it
                converged[stopped] = True
                if done.all():
                    return out, iters, converged
                go = ~done
                active, w, logw, log_pu, log_puy = (
                    active[go], w[go], logw[go], log_pu[go], log_puy[go])
                step_max = step_max[go]
                history = [h[go] for h in history]
                obj = [o for o, stop in zip(obj, done) if not stop]
            prev_obj = obj
    out[active] = w
    return out, iters, converged


def _check_stack_size(p: JointPmf, chains: int) -> None:
    """Refuse a solve whose stack would exceed MAX_STACK_ENTRIES."""
    entries = chains * max(p.nx, p.ny) * (p.nx + 1)
    if entries > MAX_STACK_ENTRIES:
        raise SolverError(
            f"{chains} chain(s) on a {p.nx}x{p.ny} model need {entries} entries per "
            f"solver array, more than the cap of {MAX_STACK_ENTRIES}")


def ib_fixed_point(p: JointPmf, beta: float, init: TestChannel | None = None,
                   max_iters: int = 1000) -> IbSolution:
    """Run the alternating minimization from one starting channel.

    The starting channel must have |X|+1 clusters, and so does the returned
    one: a cluster whose mass collapses to zero keeps its all-zero column.
    A model too large for MAX_STACK_ENTRIES is refused before any channel
    is built.
    """
    if beta < 0:
        raise SolverError(f"beta must be nonnegative, got {beta!r}")
    _check_stack_size(p, 1)
    if init is None:
        init = TestChannel.identity_plus_noise(p.nx, p.nx + 1)
    if init.nx != p.nx or init.nu != p.nx + 1:
        raise SolverError(
            f"init must have shape ({p.nx}, {p.nx + 1}), got ({init.nx}, {init.nu})"
        )
    w, iters, converged = _iterate(p, float(beta), init.cond_probs[None], max_iters)
    return _wrap_solution(p, w[0], float(beta), int(iters[0]), bool(converged[0]))


def _wrap_solution(p: JointPmf, w: np.ndarray, beta: float,
                   iters: int, converged: bool) -> IbSolution:
    channel = TestChannel(w)
    rate, relevance = channel_information(p, channel)
    return IbSolution(channel, rate, relevance, beta, iters, converged)


def _anchor_solutions(p: JointPmf) -> list[IbSolution]:
    nu = p.nx + 1
    out = []
    for maker in (TestChannel.constant, TestChannel.identity):
        ch = maker(p.nx, nu)
        rate, relevance = channel_information(p, ch)
        out.append(IbSolution(ch, rate, relevance, math.inf, 0, True))
    return out


@dataclass
class EnvelopePool:
    """All solutions gathered for one model, with envelope evaluation.

    ``refresh`` builds the upper concave envelope of the solutions'
    (rate, relevance) points in one pass.  ``hull`` holds the indices of the
    solutions at its vertices and ``hull_rates``/``hull_rels`` their
    coordinates: the first vertex is at rate 0 (the constant anchor), rates
    strictly increase and chord slopes strictly decrease.  Every vertex is a
    solution in the pool, so every envelope point is attained by one channel
    or by time sharing between the two channels at the ends of its chord.
    """

    p: JointPmf
    solutions: list[IbSolution]
    restarts_used: int = 0
    hull: list[int] = field(init=False, repr=False)
    hull_rates: np.ndarray = field(init=False, repr=False)
    hull_rels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.refresh()

    def refresh(self) -> None:
        rates = [s.rate for s in self.solutions]
        rels = [s.relevance for s in self.solutions]
        hull: list[int] = []
        # by rate, ties by relevance descending.  A point enters only above
        # the last vertex, which always holds the running maximum, so no
        # dominated point becomes a vertex
        for i in np.lexsort((-np.array(rels), rates)).tolist():
            x, y = rates[i], rels[i]
            if hull and y <= rels[hull[-1]] + 1e-15:
                continue
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                if (rates[a] - rates[o]) * (y - rels[o]) - (rels[a] - rels[o]) * (x - rates[o]) < 0:
                    break
                hull.pop()
            hull.append(i)
        self.hull = hull
        self.hull_rates = np.array([rates[i] for i in hull])
        self.hull_rels = np.array([rels[i] for i in hull])

    def value_at(self, r: float) -> float:
        return float(np.interp(r, self.hull_rates, self.hull_rels))

    def solver_counters(self) -> dict:
        """Beta-solves, their map evaluations and how many stopped at the cap.

        The two anchors, which carry beta = inf, are not solves.
        """
        solves = [s for s in self.solutions if math.isfinite(s.beta)]
        return {"beta_solves": len(solves),
                "iterations": sum(s.iterations for s in solves),
                "unconverged": sum(not s.converged for s in solves)}

    def witness_at(self, r: float) -> IbSolution:
        best = None
        for sol in self.solutions:
            if sol.rate <= r + 1e-12 and (best is None or sol.relevance > best.relevance):
                best = sol
        if best is None:  # r < 0 is rejected upstream; rate-0 anchor always qualifies
            best = self.solutions[0]
        return best


def solve_envelope(p: JointPmf, restarts: int = 4, master_seed: int = 0,
                   max_iters: int = 1000) -> EnvelopePool:
    """Sweep the trade-off curve and return the solution pool.

    Chain 0 starts from a near-identity channel and chains 1..restarts from
    random channels.  The chains run in lockstep as one stacked iterate,
    each with its own stopping rule, through a single sweep down the beta
    grid; every beta is warm-started from the stack the previous one
    returned.  Sweeping from large beta to small tracks the nontrivial
    solution branch from its stable side: ascending sweeps collapse to the
    trivial fixed point below the critical beta and cannot leave it
    afterwards, losing the whole small-rate part of the curve.

    The pool holds the two anchors, then the solutions chain by chain, each
    chain in sweep order; every solution keeps its |X|+1 clusters.  The
    number of restarts is fixed: it never escalates.  A stack of
    restarts + 1 chains larger than MAX_STACK_ENTRIES is refused before any
    start channel is built.
    """
    if restarts < 0:
        raise SolverError("restarts must be nonnegative")
    _check_stack_size(p, restarts + 1)
    starts = [TestChannel.identity_plus_noise(p.nx, p.nx + 1)]
    for chain_id in range(1, restarts + 1):
        rng = rngstreams.stream(master_seed, rngstreams.PURPOSE_SOLVER, chain_id)
        starts.append(TestChannel.random(p.nx, p.nx + 1, rng))
    w = np.stack([start.cond_probs for start in starts])
    chains: list[list[IbSolution]] = [[] for _ in starts]
    for beta in sorted(DEFAULT_BETA_GRID, reverse=True):
        w, iters, converged = _iterate(p, float(beta), w, max_iters)
        for chain, wk, n, ok in zip(chains, w, iters, converged):
            chain.append(_wrap_solution(p, wk, float(beta), int(n), bool(ok)))
    solutions = _anchor_solutions(p)
    for chain in chains:
        solutions.extend(chain)
    return EnvelopePool(p, solutions, restarts_used=restarts)


def _refine_at(pool: EnvelopePool, r: float, rounds: int = 3) -> None:
    """Sharpen the envelope near one rate by solving at the supporting beta.

    Each round takes the hull chord over r (r >= 0 and the first vertex is
    at rate 0, so the chord has a left end) and runs ib_fixed_point at
    beta = 1/(chord slope), warm-started from the solution at the chord's
    right end.  Starting from the left end would be useless: below the
    query rate the best known channel is often the trivial one, which is an
    exact fixed point of the iteration at every beta.  A solution strictly
    inside the chord splits it; if the iterate falls back onto an endpoint
    the chord is genuinely optimal (time-sharing region) and refinement
    stops.  It stops too when r is at or past the last vertex, or the chord
    is flat.
    """
    for _ in range(rounds):
        hr, hv = pool.hull_rates, pool.hull_rels
        j = int(np.searchsorted(hr, r, side="right"))
        if j == len(hr):
            return
        slope = float((hv[j] - hv[j - 1]) / (hr[j] - hr[j - 1]))
        if slope <= 1e-9:
            return
        beta = min(max(1.0 / slope, 1e-3), 1e6)
        seed = pool.solutions[pool.hull[j]]
        before = pool.value_at(r)
        pool.solutions.append(ib_fixed_point(pool.p, beta, seed.channel))
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
    if not (math.isfinite(r) and r >= 0):
        raise SolverError(f"rate budget must be finite and nonnegative, got {r!r}")
    pool = solve_envelope(p, restarts=restarts, master_seed=master_seed)
    _refine_at(pool, r)
    return pool.value_at(r), pool.witness_at(r)


def _check_rate_grid(r_grid) -> np.ndarray:
    """The rate grid as a float array, if it is 1-d with at least 3 points
    (slope estimation needs them), finite, nonnegative and strictly
    increasing."""
    r = np.asarray(r_grid, dtype=np.float64)
    if r.ndim != 1 or len(r) < 3:
        raise SolverError("rate grid must be 1-d with at least 3 points "
                          "(slope estimation needs them)")
    if not (np.all(np.isfinite(r)) and r[0] >= 0 and np.all(np.diff(r) > 0)):
        raise SolverError("rate grid must be finite, nonnegative and strictly increasing")
    return r


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
        _check_rate_grid(self.r)
        xi = np.asarray(self.xi, dtype=np.float64)
        if np.any(np.diff(xi) < -1e-12):
            raise SolverError("xi must be nondecreasing along the grid")
        if np.any(self.d_slope > 1e-6):
            raise SolverError("distortion slope must be nonpositive (within 1e-6)")
        for name in ("r", "xi", "d", "d_slope"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_curve(p: JointPmf, r_grid, restarts: int = 4,
                master_seed: int = 0) -> ExponentCurve:
    """Evaluate the exponent curve on a rate grid (nats).

    One envelope solve is shared by all grid points; each point then gets a
    local refinement at its supporting beta.  The envelope's vertices rise
    with rate, so xi is nondecreasing.  D is defined as H(Y) - xi, so
    the log-loss identity holds by construction, and dD/dR comes from
    central differences on the grid.
    """
    r = _check_rate_grid(r_grid)
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
    diagnostics = {"solutions": len(pool.solutions), **pool.solver_counters()}
    return ExponentCurve(r, xi, d, d_slope, p.fingerprint(), diagnostics)
