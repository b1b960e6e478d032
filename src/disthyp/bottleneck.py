"""Error-exponent curve via an information-bottleneck solver.

The quantity of interest is

    xi(R) = max I(U;Y)  over channels p(u|x) with I(U;X) <= R,

with U ranging over an alphabet of size |X|+1 (enough to attain the
optimum) and U-X-Y a Markov chain.  Equivalently D(R) = H(Y) - xi(R) is a
noisy distortion-rate function under log-loss.

The solver is the standard alternating minimization of
I(U;X) - beta*I(U;Y).  At an optimum dxi/dR = 1/beta, so each rate has its
own beta, and every beta <= 1 gives the trivial channel: the strong
data-processing constant of (X, Y) is at most 1 (Anantharam, Gohari, Kamath
& Nair 2013).  solve_envelope grows beta from 2 until a solution's rate
passes the largest query rate, then sweeps SWEEP_POINTS betas down to 1
with warm starts; each query rate is then found in log beta between the
solutions that bracket it, to BISECT_RTOL, by a regula falsi with the
Illinois rule whose steps never fall below the bracket's midpoint
(_bisect).  Once every rate has its search, one more solve per rate, at
the slope of the envelope's chord over it, can only raise the envelope
there (_solve_on_chord).  _solve_rates runs these steps for both
build_curve and exponent_at_rate.  Every beta-solve iterates one channel,
from a near-identity start or warm-started from an earlier solution, so xi
and dD/dR are a pure function of the model and the query rates; the
reported curve is the upper concave envelope of every solution found.  The
iteration is accelerated by SQUAREM (Varadhan & Roland 2008): every third
step extrapolates the last three iterates in log space, and the result is
kept only if one map step from it does not raise the objective, so the
objective still falls monotonically.  The stopping rule (a plain step
changes the objective by less than OBJ_TOL) and the cap of MAX_ITERS
(1000) map evaluations per beta-solve are those of the plain iteration.
These constants are the whole solver configuration; they are no
parameters, and each solve reads them when it is called.  Each map
evaluation works from the logs of p(u) and p(u,y) that the previous one
kept, and takes the objective from entropies (see _iterate).  A model
whose solver arrays would exceed MAX_STACK_ENTRIES is refused before any
is built.  Chord points on the envelope are achievable by time sharing
between the two endpoint channels, so the envelope is a certified lower
bound on xi.

Two exact channels are always injected as anchor solutions: the constant
channel at (0, 0) and the identity channel at (H(X), I(X;Y)).  They pin the
ends of the envelope without relying on solver convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import PROB_ATOL, JointPmf, mutual_information

# A beta-solve stops once its objective changes by less than this between
# consecutive iterates.
OBJ_TOL = 1e-10
# Map evaluations allowed per beta-solve.
MAX_ITERS = 1000
# Betas in the descending sweep, from the grown beta down to 1.
SWEEP_POINTS = 8
# The search at a query rate stops once its bracket's betas are within
# this ratio of 1.
BISECT_RTOL = 1e-5
# The largest beta the growth reaches.  The cancellation in the objective
# grows with beta (see _iterate): at 2^14 it is some 240 times that at
# beta = 100, still below OBJ_TOL.
BETA_MAX = 2.0 ** 14
# The largest solver array, in float64 entries: max(|X|, |Y|+1) x (|X|+1),
# the size of the largest temporary (32 MiB each), so |X| = |Y| <= 2047.
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
                f"channel row {bad[0][0]} sums to {float(rows[bad[0][0]])!r}, not 1"
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
            mat[np.arange(nx), np.arange(nx) % nu] = diag
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


_MOST_NEGATIVE = np.finfo(np.float64).min


def _xlogx(x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """x log x from x and its log: 0 where x = 0 (log x = -inf is clipped
    to the most negative float, whose product with 0 is 0), NaN where
    either is NaN."""
    out = np.maximum(log_x, _MOST_NEGATIVE)
    out *= x
    return out


def _iterate(p: JointPmf, beta: float, w: np.ndarray,
             max_iters: int) -> tuple[np.ndarray, int, bool]:
    """Alternating minimization from the channel ``w`` of shape (|X|, |U|),
    accelerated by SQUAREM extrapolation (Varadhan & Roland 2008).

    Returns the final channel, the number of map evaluations and whether
    the stopping rule |prev_obj - obj| < OBJ_TOL across a plain step was
    met within ``max_iters``.  An accepted candidate's change measures its
    extrapolation, not one map step, so it never stops the iteration.

    Every third step is extrapolated.  From the last three iterates
    w0, w1, w2 it takes, in log space, r = log w1 - log w0 and
    v = log w2 - 2 log w1 + log w0, and steps to
    log w0 + 2 alpha r + alpha^2 v = log w2 + 2 (alpha - 1) r + (alpha^2 - 1) v,
    renormalized per row, with alpha = |r| / |v| clamped to [1, step_max];
    alpha = 1 lands on w2, and 0/0 gives NaN, whose candidate is rejected.
    An entry that is zero in any of the three iterates takes no part and
    stays at log w2.  One plain map step from there gives the candidate,
    which is kept only if its objective is not above the current one;
    otherwise the iteration stays at w2 and its next step is the plain one,
    so the objective never rises.  step_max starts at 1, grows 4-fold when
    an accepted step was clamped to it and shrinks 4-fold (not below 1) on
    a rejection; rejections count as evaluations.

    One map evaluation reads only log m, the logs of the stacked marginals
    m = [p(u); p(u,y)] of its source channel: one product of the
    (|Y|+1) x |X| operator [p(x); P(x,y)^T] with the channel.  As
    sum_y p(y|x) = 1, the update w'(u|x) ~ p(u) exp(-beta KL(p(y|x)||p(y|u))) is

        log w'(u|x) = (1 - beta) log p(u) + beta sum_y p(y|x) log p(u,y) - log Z(x):

    the row constant -beta H(Y|X=x) and the log p(u) inside the KL cancel in
    the per-row normalization.  Its first two terms are one product of the
    |X| x (|Y|+1) operator [1 - beta, beta p(y|x)] with log m, and row sums
    are products with a ones vector.  A NaN or -inf entry of the product
    (0 * -inf, inf - inf) becomes -inf, so a dead cluster (p(u) = 0) stays
    exactly zero at every beta, 0 and 1 included.

    The objective I(U;X) - beta I(U;Y) comes from the same logs, as
    entropies: I(U;X) = sum_x p(x) sum_u w log w - sum_u p(u) log p(u) and
    I(U;Y) = sum p(u,y) log p(u,y) - sum_u p(u) log p(u) + H(Y).  That is
    one weighted sum of w log w, one of m log m and -beta H(Y), with exact
    zeros contributing nothing and a NaN staying NaN.  The cancellation
    between the terms grows with beta: on the README model it moves the
    objective by at most 7e-14 at beta = 100 and 1.7e-11 at BETA_MAX, 6
    times below OBJ_TOL.  No channel is validated or re-measured inside the
    loop.  A non-finite plain iterate makes the objective non-finite, which
    raises SolverError; a non-finite extrapolated candidate is rejected.
    """
    if max_iters < 1:
        raise SolverError("max_iters must be at least 1")
    px = p.x_marginal
    nx, nu = w.shape
    marg = np.vstack((px, p.probs.T))
    update = np.hstack((np.full((nx, 1), 1.0 - beta), beta * (p.probs / px[:, None])))
    ones = np.ones((nu, 1))
    # the objective's weights on w log w and on m log m
    w_weights = np.repeat(px[:, None], nu, axis=1)
    m_weights = np.full((p.ny + 1, nu), -beta)
    m_weights[0] = beta - 1.0
    beta_hy = beta * p.entropy_y
    step_max = 1.0
    history: list[np.ndarray] = []  # log-channels of this cycle's earlier iterates
    prev_obj = math.inf
    # an overflowing extrapolation yields a non-finite candidate, which is rejected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logw = np.log(w)
        log_m = np.log(marg @ w)
        for it in range(1, max_iters + 1):
            extrapolate = len(history) == 2
            if extrapolate:
                l0, l1 = history
                history = []
                r = l1 - l0
                v = logw - l1
                v -= r
                vv = np.vdot(v, v)
                if not math.isfinite(vv):  # v is finite only where all three iterates are
                    dead = ~np.isfinite(v)
                    r[dead] = v[dead] = 0.0
                    vv = np.vdot(v, v)
                alpha = min(max(np.sqrt(np.vdot(r, r)) / np.sqrt(vv), 1.0), step_max)
                # built in place in v: exactly log w2 where r = v = 0
                v *= alpha * alpha - 1.0
                r *= 2.0 * (alpha - 1.0)
                v += r
                v += logw
                start = v
                start -= start.max(axis=1, keepdims=True)
                np.exp(start, out=start)
                start /= start @ ones
                src_log_m = np.log(marg @ start)
            else:
                src_log_m = log_m
            new_logw = update @ src_log_m
            # a dead cluster's 0 * -inf or inf - inf is NaN: make it -inf
            np.fmax(new_logw, -np.inf, out=new_logw)
            new_logw -= new_logw.max(axis=1, keepdims=True)
            new_w = np.exp(new_logw)
            z = new_w @ ones
            new_w /= z
            new_logw -= np.log(z)
            new_m = marg @ new_w
            new_log_m = np.log(new_m)
            # I(U;X) - beta I(U;Y)
            obj = float(np.vdot(w_weights, _xlogx(new_w, new_logw))
                        + np.vdot(m_weights, _xlogx(new_m, new_log_m)) - beta_hy)
            if extrapolate:
                # NaN compares False, so a non-finite candidate is rejected
                if not obj <= prev_obj:
                    step_max = max(step_max / 4.0, 1.0)
                    continue
                if alpha == step_max:
                    step_max *= 4.0
            elif not math.isfinite(obj):
                raise SolverError(f"iterate went non-finite at beta={beta!r}, "
                                  f"iteration {it}")
            else:
                history.append(logw)
            w, logw, log_m = new_w, new_logw, new_log_m
            if not extrapolate and abs(prev_obj - obj) < OBJ_TOL:
                return w, it, True
            prev_obj = obj
    return w, max_iters, False


def _check_stack_size(p: JointPmf) -> None:
    """Refuse a model whose solver arrays would exceed MAX_STACK_ENTRIES."""
    entries = max(p.nx, p.ny + 1) * (p.nx + 1)
    if entries > MAX_STACK_ENTRIES:
        raise SolverError(
            f"a {p.nx}x{p.ny} model needs {entries} entries per solver array, "
            f"more than the cap of {MAX_STACK_ENTRIES}")


def ib_fixed_point(p: JointPmf, beta: float, init: TestChannel | None = None) -> IbSolution:
    """Run the alternating minimization from one starting channel, for at
    most MAX_ITERS map evaluations.

    The starting channel must have |X|+1 clusters, and so does the returned
    one: a cluster whose mass collapses to zero keeps its all-zero column.
    A model too large for MAX_STACK_ENTRIES is refused before any channel
    is built.
    """
    if beta < 0:
        raise SolverError(f"beta must be nonnegative, got {beta!r}")
    _check_stack_size(p)
    if init is None:
        init = TestChannel.identity_plus_noise(p.nx, p.nx + 1)
    if init.nx != p.nx or init.nu != p.nx + 1:
        raise SolverError(
            f"init must have shape ({p.nx}, {p.nx + 1}), got ({init.nx}, {init.nu})"
        )
    w, iters, converged = _iterate(p, float(beta), init.cond_probs, MAX_ITERS)
    channel = TestChannel(w)
    rate, relevance = channel_information(p, channel)
    return IbSolution(channel, rate, relevance, float(beta), iters, converged)


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

    ``hull`` and ``rate_solves`` are read off the list ``solutions`` each
    time: a solution appended to it is in the envelope and counted from
    then on.  ``rate_solves`` is the number of solutions added after
    construction, the solves spent on query rates (_bisect's and
    _solve_on_chord's).
    """

    p: JointPmf
    solutions: list[IbSolution]
    # the solver runs no restarts.  Kept for perfbench's ``--trace 1``
    # layer report, which reads it
    restarts_used = 0
    _built_with: int = field(init=False, repr=False)

    def __post_init__(self):
        self._built_with = len(self.solutions)

    @property
    def rate_solves(self) -> int:
        return len(self.solutions) - self._built_with

    def hull(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The upper concave envelope of the solutions' (rate, relevance)
        points, built in one pass: the indices of the solutions at its
        vertices, and their rates and relevances.  The first vertex is at
        rate 0 (the constant anchor), rates strictly increase and chord
        slopes strictly decrease.  Every vertex is a solution in the pool,
        so every envelope point is attained by one channel or by time
        sharing between the two channels at the ends of its chord."""
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
        return hull, np.array([rates[i] for i in hull]), np.array([rels[i] for i in hull])

    def value_at(self, r: float) -> float:
        _, rates, rels = self.hull()
        return float(np.interp(r, rates, rels))

    def solver_counters(self) -> dict:
        """Beta-solves, their map evaluations, how many stopped at the cap
        and how many of them were spent on query rates.

        The two anchors, which carry beta = inf, are not solves.
        """
        solves = [s for s in self.solutions if math.isfinite(s.beta)]
        return {"beta_solves": len(solves),
                "iterations": sum(s.iterations for s in solves),
                "unconverged": sum(not s.converged for s in solves),
                "rate_solves": self.rate_solves}

    def witness_at(self, r: float) -> IbSolution:
        """The most relevant solution of rate <= r (+1e-12): at r >= 0 the
        constant anchor, of rate 0, always qualifies."""
        return max((sol for sol in self.solutions if sol.rate <= r + 1e-12),
                   key=lambda sol: sol.relevance)


def solve_envelope(p: JointPmf, r_max: float = math.inf) -> EnvelopePool:
    """Sweep the trade-off curve up to rate r_max and return the solution pool.

    Each beta-solve is one ib_fixed_point call.  Beta first grows, by
    doubling from 2, each solve from the near-identity channel, until a
    solution's rate passes min(r_max, H(X)) (by more than 1e-12, the witness
    slack), or its relevance comes within OBJ_TOL of I(X;Y), or beta reaches
    BETA_MAX.  From that beta_hi a single sweep runs down SWEEP_POINTS
    geometric betas to 1, every beta warm-started from the solution the
    previous one returned.  Sweeping from large beta to small tracks the
    nontrivial solution branch from its stable side: ascending sweeps
    collapse to the trivial fixed point below the critical beta and cannot
    leave it afterwards, losing the whole small-rate part of the curve.

    The pool holds the two anchors, then the solutions in solve order;
    every solution keeps its |X|+1 clusters.  A model too large for
    MAX_STACK_ENTRIES is refused before the start channel is built.
    """
    _check_stack_size(p)
    start = TestChannel.identity_plus_noise(p.nx, p.nx + 1)
    solutions = _anchor_solutions(p)
    target = min(r_max, p.entropy_x) + 1e-12
    mi = mutual_information(p)
    beta = 2.0
    while True:
        sol = ib_fixed_point(p, beta, start)
        solutions.append(sol)
        if beta >= BETA_MAX or sol.rate > target or sol.relevance >= mi - OBJ_TOL:
            break
        beta *= 2.0
    for beta in np.geomspace(beta, 1.0, SWEEP_POINTS)[1:].tolist():
        sol = ib_fixed_point(p, beta, sol.channel)
        solutions.append(sol)
    return EnvelopePool(p, solutions)


def _next_log_beta(x_lo: float, x_hi: float, f_lo: float, f_hi: float) -> float:
    """The next log beta inside the bracket (x_lo, x_hi), whose ends carry
    f = rate - r: the regula falsi point, raised to the midpoint if it lies
    below it, so no step lands farther from the upper end than bisection's.
    A secant that is undefined (f_hi == f_lo, a NaN) or not strictly inside
    the bracket gives the midpoint."""
    mid = 0.5 * (x_lo + x_hi)
    try:
        x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo)
    except ZeroDivisionError:
        return mid
    # NaN compares False
    return max(x, mid) if x_lo < x < x_hi else mid


def _bisect(pool: EnvelopePool, r: float) -> float:
    """Solve at rate r by a safeguarded secant in log beta; return dD/dR there.

    At any beta the pool's solution with the least objective
    I(U;X) - beta I(U;Y) stands for that beta, and beta is above r if that
    solution's rate passes r by more than 1e-12, the witness slack.  The
    bracket is the least pool beta above r and the largest pool beta below
    it, or 1 if there is none: every beta <= 1 gives the trivial channel,
    of rate 0.  Each end carries f = (rate of its standing solution) - r.
    Each step solves at the point _next_log_beta gives, the regula falsi
    point in log beta but never below the log-midpoint, with
    ib_fixed_point, warm-started from the solution standing for the
    bracket's upper end, the stable side (see solve_envelope), and moves
    the end on its side of r.  When the same end moves twice in a row the
    other end's f is halved (the Illinois rule, Dowell & Jarratt 1971), so
    neither end sticks.  It stops once the ends are within a ratio
    1 + BISECT_RTOL.  Near the critical beta, where the map contracts
    slowly, a solve that starts close to its fixed point meets the
    stopping rule some 1e-4 nats of rate away from it (on the DSBS at
    R = 0.01), so no late step lands near r; one last solve, at the final
    bracket's geometric mean and from the bracket's first upper solution,
    starts far enough away to get there.  Every solution is appended to
    the pool, so it counts in ``rate_solves`` and the hull.  The slope
    is -1/beta at the final bracket's geometric mean.  If no pool beta is
    above r, r lies where the relevance has reached I(X;Y) or past the
    rates of beta <= BETA_MAX, and the slope is 0.
    """
    sols = pool.solutions
    betas = sorted({sol.beta for sol in sols if 1.0 < sol.beta < math.inf})
    rates, rels = np.array([(sol.rate, sol.relevance) for sol in sols]).T
    # the solution standing for each pool beta
    held = np.argmin(rates - np.array(betas)[:, None] * rels, axis=1)
    above = np.flatnonzero(rates[held] > r + 1e-12).tolist()
    if not above:
        return 0.0
    k = above[0]
    hi, lo = betas[k], (betas[k - 1] if k else 1.0)
    seed = first = sols[held[k]]
    f_hi, f_lo = seed.rate - r, (sols[held[k - 1]].rate if k else 0.0) - r
    moved = 0  # the end the last step moved: +1 upper, -1 lower
    while hi > lo * (1.0 + BISECT_RTOL):
        beta = math.exp(_next_log_beta(math.log(lo), math.log(hi), f_lo, f_hi))
        sols.append(ib_fixed_point(pool.p, beta, seed.channel))
        rates, rels = np.append(rates, sols[-1].rate), np.append(rels, sols[-1].relevance)
        held = sols[int(np.argmin(rates - beta * rels))]
        if held.rate > r + 1e-12:
            hi, seed, f_hi = beta, held, held.rate - r
            if moved == 1:
                f_lo /= 2.0
            moved = 1
        else:
            lo, f_lo = beta, held.rate - r
            if moved == -1:
                f_hi /= 2.0
            moved = -1
    sols.append(ib_fixed_point(pool.p, math.sqrt(lo * hi), first.channel))
    return -1.0 / math.sqrt(lo * hi)


def _solve_on_chord(pool: EnvelopePool, r: float) -> None:
    """One solve at the slope of the envelope's chord over r, from a vertex.

    It comes after _bisect, once the pool holds the solutions near r.  The
    chord's two vertices share the objective I(U;X) - beta_c I(U;Y) at
    beta_c = 1/slope.  The iteration never raises the objective, so a solve
    at beta_c warm-started from a vertex ends on or above the chord's line,
    and the envelope at r can only rise.  It rises where r lies inside a
    jump of the solution branch, on a long chord whose lower vertex the
    warm starts near r do not reach.  The start is the lower vertex, or the
    upper one if the lower is the constant anchor, a fixed point at every
    beta; none if r is a vertex, or if both are anchors.  The chord is read
    off the pool's hull, and the solve is appended to the pool.
    """
    hull, rates, _ = pool.hull()
    i = int(np.searchsorted(rates, r))
    if not 0 < i < len(hull) or rates[i] == r:
        return
    lower, upper = (pool.solutions[j] for j in hull[i - 1:i + 1])
    start = lower if math.isfinite(lower.beta) else upper
    # positive: each vertex lies above the one before (see hull)
    slope = (upper.relevance - lower.relevance) / (upper.rate - lower.rate)
    if math.isfinite(start.beta) and 1.0 / slope <= BETA_MAX:
        pool.solutions.append(ib_fixed_point(pool.p, 1.0 / slope, start.channel))


def _check_rate_grid(r_grid) -> np.ndarray:
    """The rate grid as a float array, if it is 1-d and nonempty, finite,
    nonnegative and strictly increasing."""
    r = np.asarray(r_grid, dtype=np.float64)
    if r.ndim != 1 or len(r) == 0:
        raise SolverError("rate grid must be 1-d and nonempty")
    if not (np.all(np.isfinite(r)) and r[0] >= 0 and np.all(np.diff(r) > 0)):
        raise SolverError("rate grid must be finite, nonnegative and strictly increasing")
    return r


def _solve_rates(p: JointPmf, r_grid) -> tuple[EnvelopePool, np.ndarray, np.ndarray]:
    """The solution pool, xi and dD/dR at each rate of a grid (nats).

    One envelope solve up to the grid's last rate below H(X) is shared by
    all rates: a rate at or above H(X) reads the top of the envelope, which
    the identity anchor reaches.  Each rate is then found at its own beta
    (_bisect), which also gives dD/dR there, and then gets its chord solve
    (_solve_on_chord), after every search, since a later rate's solves can
    open a chord over an earlier one.  An xi above min(R, I(X;Y)) + 1e-9
    breaks the certified direction and raises SolverError.
    """
    r = _check_rate_grid(r_grid)
    below = r[r < p.entropy_x]
    pool = solve_envelope(p, float(below[-1]) if below.size else 0.0)
    d_slope = np.array([_bisect(pool, float(point)) for point in r])
    for point in r:
        _solve_on_chord(pool, float(point))
    xi = np.array([pool.value_at(float(point)) for point in r])
    if np.any(xi > np.minimum(r, mutual_information(p)) + 1e-9):
        raise SolverError("solver produced xi above min(R, I(X;Y)); model or solver is broken")
    return pool, xi, d_slope


def exponent_at_rate(p: JointPmf, r: float, master_seed: int = 0) -> tuple[float, IbSolution]:
    """Best exponent at rate budget r (nats) and the channel witnessing it.

    The value is build_curve's xi on the grid [r], from the same solves
    (_solve_rates): a certified lower bound on the true curve, as envelope
    vertices are actual channels and chord points time-sharing
    combinations of the two endpoint channels.  The witness is the best
    single channel with rate <= r; channel_information reproduces its
    (rate, relevance) exactly.  ``master_seed`` is unused, as the solver
    draws no random numbers; it stays because perfbench's workloads pass it.
    """
    pool, xi, _ = _solve_rates(p, [r])
    return float(xi[0]), pool.witness_at(r)


@dataclass(frozen=True)
class ExponentCurve:
    """Rate grid with exponent, distortion, and distortion slope columns.

    build_curve fills ``diagnostics`` with its solution pool's counters:
    ``beta_solves``, their ``iterations`` (map evaluations), the
    ``unconverged`` ones, stopped at MAX_ITERS, and the ``rate_solves``
    spent on the grid's rates.
    """

    r: np.ndarray
    xi: np.ndarray
    d: np.ndarray
    d_slope: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_rate_grid(self.r)
        xi = np.asarray(self.xi, dtype=np.float64)
        if np.any(np.diff(xi) < -1e-12):
            raise SolverError("xi must be nondecreasing along the grid")
        if np.any(self.d_slope > 0.0):
            raise SolverError("distortion slope must be nonpositive")
        for name in ("r", "xi", "d", "d_slope"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_curve(p: JointPmf, r_grid, master_seed: int = 0) -> ExponentCurve:
    """Evaluate the exponent curve on a rate grid (nats).

    xi and dD/dR come from _solve_rates, the solves exponent_at_rate also
    runs, and the curve's diagnostics from its pool.  The envelope's
    vertices rise with rate, so xi is nondecreasing.  D is defined as
    H(Y) - xi, so the log-loss identity holds by construction.
    ``master_seed`` is unused, as the solver draws no random numbers; it
    stays because perfbench's workloads pass it.
    """
    pool, xi, d_slope = _solve_rates(p, r_grid)
    return ExponentCurve(r_grid, xi, p.entropy_y - xi, d_slope, pool.solver_counters())
