"""Finite-length feasibility bounds for the Type II error probability.

Given a curve point (xi, d_slope) = (xi(R), dD/dR at R) and the model's
concentration constant c, this module evaluates, for a Type I budget
sequence eps_n:

* the closed-form four-regime gap bounds on  -(1/n) log beta_n - xi(R),
* an explicit probability interval [lb_prob, ub_prob] bracketing the
  optimal Type II error around its nominal value exp(-n*xi),
* the critical number of samples: the first n at which the interval
  collapses onto the nominal value within a tolerance delta, found by an
  array screen over chunks of n whose candidates the scalar interval confirms.

All asymptotically vanishing residual terms in the closed forms are set to
zero; every report carries a dropped-residuals marker to make that visible.
All logarithms are natural; rates and exponents are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_E = math.e
# Regime-1 threshold constant in the h-selection rule sqrt(2 eps) >= K ln(1/eps)/n.
K_REGIME = 1.0
# The CNS screen evaluates n in chunks that double from _CHUNK_MIN to
# _CHUNK_MAX: scans that stop early stay cheap and memory stays bounded.
_CHUNK_MIN = 64
_CHUNK_MAX = 2048
# Relative difference allowed per elementary operation between the screen's
# numpy arithmetic and the scalar math-module path (32 ulp), and an absolute
# allowance for probabilities in the subnormal range.
_SCREEN_REL = 2.0 ** -48
_SCREEN_TINY = 2.0 ** -1000


class RegimeDomainError(ValueError):
    """The requested quantity is undefined at this sample size."""


class RegimeSpecError(ValueError):
    """Malformed Type I regime specification."""


_KINDS = ("constant", "logarithmic", "polynomial", "superpolynomial")


@dataclass(frozen=True)
class TypeIRegime:
    """Type I error budget sequence eps_n.

    constant:        eps_n = param, param in (0, 1)
    logarithmic:     eps_n = 1 / ln(n)
    polynomial:      eps_n = n ** -param, param > 0
    superpolynomial: eps_n = exp(-n ** param), param in (0, 1)
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise RegimeSpecError(f"unknown regime kind {self.kind!r}")
        if self.kind == "constant":
            if self.param is None or not (0.0 < self.param < 1.0):
                raise RegimeSpecError(
                    f"constant regime needs a level in (0, 1), got {self.param!r}")
        elif self.kind == "logarithmic":
            if self.param is not None:
                raise RegimeSpecError("logarithmic regime takes no parameter")
        elif self.kind == "polynomial":
            if self.param is None or self.param <= 0:
                raise RegimeSpecError(
                    f"polynomial regime needs exponent > 0, got {self.param!r}")
        else:
            if self.param is None or not (0.0 < self.param < 1.0):
                raise RegimeSpecError(
                    f"superpolynomial regime needs exponent in (0, 1), got {self.param!r}")

    @classmethod
    def constant(cls, eps: float) -> "TypeIRegime":
        return cls("constant", float(eps))

    @classmethod
    def logarithmic(cls) -> "TypeIRegime":
        return cls("logarithmic", None)

    @classmethod
    def polynomial(cls, p: float) -> "TypeIRegime":
        return cls("polynomial", float(p))

    @classmethod
    def superpolynomial(cls, p: float) -> "TypeIRegime":
        return cls("superpolynomial", float(p))

    @classmethod
    def parse(cls, text: str) -> "TypeIRegime":
        """Parse 'const:0.1', 'log', 'poly:0.5', 'superpoly:0.5'."""
        head, sep, tail = text.strip().partition(":")
        names = {"const": "constant", "log": "logarithmic",
                 "poly": "polynomial", "superpoly": "superpolynomial"}
        for alias, kind in list(names.items()):
            names.setdefault(kind, kind)
        if head not in names:
            raise RegimeSpecError(f"unknown regime {head!r}; "
                                  "expected const:<eps>|log|poly:<p>|superpoly:<p>")
        kind = names[head]
        if kind == "logarithmic":
            if sep:
                raise RegimeSpecError("logarithmic regime takes no parameter")
            return cls(kind, None)
        if not sep:
            raise RegimeSpecError(f"regime {head!r} needs a parameter, e.g. {head}:0.1")
        try:
            value = float(tail)
        except ValueError as exc:
            raise RegimeSpecError(f"bad regime parameter {tail!r}") from exc
        return cls(kind, value)

    @property
    def label(self) -> str:
        short = {"constant": "const", "logarithmic": "log",
                 "polynomial": "poly", "superpolynomial": "superpoly"}[self.kind]
        if self.kind == "logarithmic":
            return short
        return f"{short}:{self.param:g}"

    @property
    def gap_case(self) -> str | None:
        """Which closed-form gap case applies, if any."""
        if self.kind == "logarithmic":
            return "i"
        if self.kind == "polynomial":
            return "ii" if self.param < 2.0 else "iii"
        if self.kind == "superpolynomial":
            return "iv"
        return None


def eps_at(regime: TypeIRegime, n: int) -> float:
    """Type I budget at sample size n."""
    if n < 1:
        raise RegimeDomainError(f"sample size must be >= 1, got {n}")
    if regime.kind == "constant":
        return regime.param
    if regime.kind == "logarithmic":
        if n <= _E:
            raise RegimeDomainError(
                f"1/ln(n) is not a valid error level at n = {n} (needs n >= 3)")
        return 1.0 / math.log(n)
    if regime.kind == "polynomial":
        return float(n) ** (-regime.param)
    return math.exp(-(float(n) ** regime.param))


def select_block_length(regime: TypeIRegime, n: int) -> int:
    """Quantizer block length for the achievability construction at size n.

    ceil(n^(1/3)) except in the superpolynomial regime, where the budget
    decays fast enough that the block must grow as n^((1-p)/3).
    """
    if n < 1:
        raise RegimeDomainError(f"sample size must be >= 1, got {n}")
    if regime.kind == "superpolynomial":
        alpha = (1.0 - regime.param) / 3.0
    else:
        alpha = 1.0 / 3.0
    return max(1, math.ceil(float(n) ** alpha - 1e-12))


def _log_inv_eps(regime: TypeIRegime, n: int, eps: float) -> float:
    """ln(1/eps_n), exact where eps_n = eps_at(regime, n) is too small to invert.

    Polynomial and superpolynomial budgets underflow float64 at large n;
    their logarithms p ln(n) and n^p stay finite.
    """
    if eps > 0.0 and 1.0 / eps < math.inf:
        return math.log(1.0 / eps)
    if regime.kind == "polynomial":
        return regime.param * math.log(n)
    return float(n) ** regime.param


def select_h(regime: TypeIRegime, n: int) -> float:
    """Slack mass h_n splitting the Type I budget in the converse bound.

    Regime 1 (sqrt(2 eps_n) >= K ln(1/eps_n)/n): take h = eps_n.
    Otherwise (budgets decaying too fast): take h = n^-2.
    """
    eps = eps_at(regime, n)
    if math.sqrt(2.0 * eps) >= K_REGIME * _log_inv_eps(regime, n, eps) / n:
        return eps
    return float(n) ** -2.0


def gap_bounds(regime: TypeIRegime, n: int, d_slope: float, c: float) -> tuple[float, float]:
    """Closed-form (lower, upper) bounds on -(1/n) log beta_n - xi(R).

    Four cases keyed by the budget sequence; residual o(1) terms are set to
    zero, so the lower bound can be negative at small n and is reported as
    written.  Constant budgets are not covered (use feasibility_interval).
    """
    if c <= 0:
        raise RegimeSpecError(f"concentration constant must be positive, got {c!r}")
    if d_slope > 1e-6:
        raise RegimeSpecError(f"d_slope must be nonpositive, got {d_slope!r}")
    case = regime.gap_case
    if case is None:
        raise RegimeSpecError(
            "gap bounds cover logarithmic/polynomial/superpolynomial budgets only; "
            "use feasibility_interval for constant budgets")
    if case == "i":
        if n <= math.ceil(_E ** _E) - 1:
            raise RegimeDomainError(
                f"logarithmic gap bounds need ln(ln(n)) > 0, i.e. n >= 16; got {n}")
        ln_n = math.log(n)
        lnln_n = math.log(ln_n)
        lower = (d_slope / 6.0 - math.sqrt(2.0 * lnln_n) * c / ln_n) * (ln_n / n ** (1.0 / 3.0))
        upper = (16.0 * c + lnln_n * math.sqrt(ln_n) / n) / math.sqrt(ln_n)
        return lower, upper
    if n < 2:
        raise RegimeDomainError(f"gap bounds need ln(n) > 0, i.e. n >= 2; got {n}")
    ln_n = math.log(n)
    p = regime.param
    if case == "ii":
        lower = (d_slope / 6.0 - math.sqrt(2.0 * p * ln_n) * c / ln_n) * (ln_n / n ** (1.0 / 3.0))
        upper = (16.0 * c + p * ln_n / n ** (1.0 - p / 2.0)) / n ** (p / 2.0)
        return lower, upper
    if case == "iii":
        lower = (d_slope / 6.0 - math.sqrt(2.0 * p * ln_n) * c / ln_n) * (ln_n / n ** (1.0 / 3.0))
        upper = (8.0 * math.sqrt(2.0) * c * math.sqrt(n ** (2.0 - p) + 1.0) / ln_n + 2.0) * (ln_n / n)
        return lower, upper
    lower = ((1.0 - p) / 6.0 * d_slope - math.sqrt(2.0) * c / ln_n) * (ln_n / n ** ((1.0 - p) / 3.0))
    upper = (8.0 * math.sqrt(2.0) * c * math.sqrt(math.exp(-(float(n) ** p)) * n * n + 1.0) / ln_n
             + 2.0) * (ln_n / n)
    return lower, upper


def _clamp_prob(x: float) -> float:
    return min(max(x, 0.0), 1.0)


@dataclass(frozen=True)
class BoundReport:
    """Feasibility interval and diagnostics at one sample size.

    ``ub_exponent`` and ``lb_exponent`` are the per-sample exponents
    -(1/n) ln of each bound before clamping; they stay finite where the
    probabilities themselves underflow float64 (lb_exponent is +inf when
    the converse degenerates).  ``residuals_dropped`` records that every
    o(1) residual in the closed forms was evaluated as zero.
    """

    n: int
    eps_n: float
    gap_lower: float
    gap_upper: float
    lb_prob: float
    ub_prob: float
    nominal: float
    block_l: int
    h_n: float
    s_n: float
    delta_tilde: float
    valid_lb: bool
    ub_exponent: float = math.nan
    lb_exponent: float = math.nan
    residuals_dropped: bool = True

    CSV_HEADER = "n,eps_n,l,h_n,delta_tilde,lb_prob,nominal,ub_prob,gap_lower,gap_upper,valid_lb"

    @property
    def log_gap_per_sample(self) -> float:
        """(1/n) ln(ub_prob - lb_prob), evaluated in log space.

        Works far below the float64 probability floor; uses the clamped
        upper bound (probability capped at 1) so the value never exceeds 0.
        """
        log_ub = min(0.0, -self.n * self.ub_exponent)
        if not self.valid_lb:
            return log_ub / self.n
        log_lb = min(0.0, -self.n * self.lb_exponent)
        if log_lb >= log_ub:
            return -math.inf
        return (log_ub + math.log1p(-math.exp(log_lb - log_ub))) / self.n

    def csv_row(self) -> str:
        cells = [str(self.n), repr(float(self.eps_n)), str(self.block_l),
                 repr(float(self.h_n)), repr(float(self.delta_tilde)),
                 repr(float(self.lb_prob)), repr(float(self.nominal)),
                 repr(float(self.ub_prob)), repr(float(self.gap_lower)),
                 repr(float(self.gap_upper)), str(int(self.valid_lb))]
        return ",".join(cells)


def _check_point(curve_point: tuple[float, float], c: float) -> tuple[float, float]:
    """(xi, d_slope) as floats, after checking the curve point and c."""
    xi, d_slope = float(curve_point[0]), float(curve_point[1])
    if xi < 0:
        raise RegimeSpecError(f"xi must be nonnegative, got {xi!r}")
    if d_slope > 1e-6:
        raise RegimeSpecError(f"d_slope must be nonpositive, got {d_slope!r}")
    if c <= 0:
        raise RegimeSpecError(f"concentration constant must be positive, got {c!r}")
    return xi, d_slope


def feasibility_interval(curve_point: tuple[float, float], c: float,
                         regime: TypeIRegime, n: int) -> BoundReport:
    """Bracket the optimal Type II error at sample size n.

    curve_point is (xi, d_slope) at the operating rate.  The upper bound is
    the achievability of a block-quantized scheme with block length l and
    concentration slack delta_tilde = c * sqrt(2 ln(1/eps_n) / (n l)); the
    lower bound is the change-of-measure converse with slack mass h_n.
    When 1 - eps_n - h_n <= 0 the converse degenerates and lb_prob is
    reported as 0 with valid_lb = False.
    """
    xi, d_slope = _check_point(curve_point, c)
    eps = eps_at(regime, n)
    block_l = select_block_length(regime, n)
    h = select_h(regime, n)
    log_inv_eps = _log_inv_eps(regime, n, eps)
    delta_tilde = c * math.sqrt(2.0 * log_inv_eps / (n * block_l))
    ub_exponent = xi + d_slope * math.log(block_l) / (2.0 * block_l) - delta_tilde
    # exp(-n * ub_exponent) >= 1 clamps to 1; skipping it avoids overflow
    ub_prob = 1.0 if ub_exponent <= 0.0 else _clamp_prob(math.exp(-n * ub_exponent))
    nominal = math.exp(-n * xi)
    slack = 1.0 - eps - h
    valid_lb = slack > 0.0
    if valid_lb:
        s_n = 4.0 * math.sqrt(2.0) * c * math.sqrt(math.log(1.0 / slack))
        lb_exponent = xi + 4.0 * c * math.sqrt(2.0 * math.log(1.0 / slack)) + math.log(1.0 / h) / n
        lb_prob = _clamp_prob(math.exp(-n * lb_exponent))
    else:
        s_n = math.nan
        lb_exponent = math.inf
        lb_prob = 0.0
    try:
        gap_lower, gap_upper = gap_bounds(regime, n, d_slope, c)
    except (RegimeSpecError, RegimeDomainError):
        gap_lower, gap_upper = math.nan, math.nan
    return BoundReport(n=n, eps_n=eps, gap_lower=gap_lower, gap_upper=gap_upper,
                       lb_prob=lb_prob, ub_prob=ub_prob, nominal=nominal,
                       block_l=block_l, h_n=h, s_n=s_n, delta_tilde=delta_tilde,
                       valid_lb=valid_lb, ub_exponent=ub_exponent,
                       lb_exponent=lb_exponent)


@dataclass(frozen=True)
class CnsResult:
    """Critical number of samples for one (regime, delta)."""

    regime: TypeIRegime
    delta: float
    cns: int | None
    cap: int
    trace: tuple = field(default_factory=tuple)

    CSV_HEADER = "regime,delta,cns"

    def csv_row(self) -> str:
        cns = "none" if self.cns is None else str(self.cns)
        return f"{self.regime.label},{repr(float(self.delta))},{cns}"


def _sqrt_spread(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Bound on |sqrt(x') - sqrt(x)| over x' >= 0 with |x' - x| <= dx."""
    return np.fmin(np.sqrt(dx), dx / (np.sqrt(x) + np.sqrt(np.maximum(x - dx, 0.0))))


def _screen(xi: float, d_slope: float, c: float, regime: TypeIRegime,
            delta: float, ns: np.ndarray) -> np.ndarray:
    """The sample sizes in ns at which the CNS condition may hold.

    Evaluates feasibility_interval's arithmetic on arrays and carries, with
    each quantity, a bound on its absolute difference from the scalar value
    (_SCREEN_REL per operation, propagated).  An n is kept when its gap can
    be <= delta within those bounds, or when a discrete choice is too close
    to call: the block length's ceiling, the regime-1 test of select_h, or
    the sign of the converse slack.  Every n dropped fails the condition.
    """
    n = ns.astype(np.float64)
    rel = 4.0 * _SCREEN_REL
    kind, p = regime.kind, regime.param
    with np.errstate(all="ignore"):
        if kind == "constant":
            eps, rel_eps = np.full_like(n, p), 0.0
        elif kind == "logarithmic":
            eps, rel_eps = 1.0 / np.log(n), rel
        elif kind == "polynomial":
            eps, rel_eps = n ** -p, rel
        else:
            power = n ** p
            eps, rel_eps = np.exp(-power), rel * (1.0 + power)
        log_inv_eps = np.log(1.0 / eps)
        if kind in ("polynomial", "superpolynomial"):
            # as _log_inv_eps: the exact logarithm where eps_n underflowed
            exact = p * np.log(n) if kind == "polynomial" else power
            log_inv_eps = np.where(np.isfinite(log_inv_eps), log_inv_eps, exact)
        d_log_inv_eps = 2.0 * rel_eps + rel * (1.0 + log_inv_eps)

        # select_block_length
        alpha = (1.0 - p) / 3.0 if kind == "superpolynomial" else 1.0 / 3.0
        root = n ** alpha - 1e-12
        block_l = np.maximum(1.0, np.ceil(root))
        unsure = np.abs(root - np.rint(root)) <= rel * np.maximum(1.0, root)

        # select_h
        lhs = np.sqrt(2.0 * eps)
        rhs = K_REGIME * log_inv_eps / n
        regime1 = lhs >= rhs
        unsure |= (np.abs(lhs - rhs)
                   <= lhs * (rel_eps + rel) + K_REGIME * d_log_inv_eps / n + rel * rhs)
        h = np.where(regime1, eps, n ** -2.0)
        rel_h = np.where(regime1, rel_eps, rel)

        # achievability exponent
        scale = c * np.sqrt(2.0 / (n * block_l))
        delta_tilde = scale * np.sqrt(log_inv_eps)
        slope = d_slope * np.log(block_l) / (2.0 * block_l)
        ub_exponent = xi + slope - delta_tilde
        d_ub = (scale * _sqrt_spread(log_inv_eps, d_log_inv_eps)
                + rel * (xi + np.abs(slope) + 2.0 * delta_tilde))

        # converse exponent; an invalid converse has lb_prob = 0 exactly
        slack = 1.0 - eps - h
        d_slack = rel_eps * eps + rel_h * h
        d_slack += rel * (d_slack > 0.0)  # differing inputs may round 1 - eps - h apart
        unsure |= np.abs(slack) < 2.0 * d_slack
        valid_lb = slack > 0.0
        log_inv_slack = np.log(1.0 / slack)
        d_log_inv_slack = 2.0 * d_slack / slack + rel * (1.0 + log_inv_slack)
        converse = 4.0 * math.sqrt(2.0) * c * np.sqrt(log_inv_slack)
        log_inv_h = np.log(1.0 / h)
        lb_exponent = xi + converse + log_inv_h / n
        d_lb = (4.0 * math.sqrt(2.0) * c * _sqrt_spread(log_inv_slack, d_log_inv_slack)
                + (2.0 * rel_h + rel * (1.0 + log_inv_h)) / n
                + rel * (converse + lb_exponent))

        def prob(exponent, err, side):
            """clamp(exp(-n exponent)) pushed down (side 1) or up (side -1) by err."""
            return np.clip(np.exp(-n * (exponent + side * err)) * (1.0 - side * 2.0 * rel),
                           0.0, 1.0)

        gap = np.maximum(prob(ub_exponent, d_ub, 1.0) - prob(xi, rel * xi, -1.0),
                         prob(xi, rel * xi, 1.0)
                         - np.where(valid_lb, prob(lb_exponent, d_lb, -1.0), 0.0))
    # a NaN gap (an overflowed error bound) keeps its n
    return ns[unsure | ~(gap > delta + _SCREEN_TINY)]


def critical_sample_size(curve_point: tuple[float, float], c: float,
                         regime: TypeIRegime, delta: float,
                         cap: int = 100_000, keep_trace: bool = False) -> CnsResult:
    """First n <= cap where the feasibility interval hugs the nominal value.

    The condition is max(ub_prob - nominal, nominal - lb_prob) <= delta.
    Sample sizes where the regime is undefined (tiny n) simply fail the
    condition.  Returns cns = None if no n <= cap qualifies.

    The scan screens n in chunks (64 sizes, doubling up to 2048) with an
    array evaluation of the interval that keeps every n whose gap may be
    within delta, allowing for rounding differences from the scalar path
    and for near-ties in the discrete choices.  Each kept n, in order, is
    confirmed with feasibility_interval; the first that meets the condition
    is the cns.  The screen therefore never changes the answer, only how
    many sizes get the scalar evaluation.  With keep_trace, the result
    carries the feasibility_interval report of every admissible n up to the
    cns (or the cap).
    """
    if delta <= 0:
        raise RegimeSpecError(f"delta must be positive, got {delta!r}")
    if cap < 1:
        raise RegimeSpecError(f"cap must be >= 1, got {cap}")
    xi, d_slope = _check_point(curve_point, c)
    first = 1
    while first <= cap:
        try:
            eps_at(regime, first)
            break
        except RegimeDomainError:
            first += 1
    cns = None
    lo, size = first, _CHUNK_MIN
    while cns is None and lo <= cap:
        hi = min(lo + size, cap + 1)
        for n in _screen(xi, d_slope, c, regime, delta, np.arange(lo, hi)).tolist():
            report = feasibility_interval(curve_point, c, regime, n)
            if max(report.ub_prob - report.nominal, report.nominal - report.lb_prob) <= delta:
                cns = n
                break
        lo, size = hi, min(2 * size, _CHUNK_MAX)
    trace = ()
    if keep_trace:
        last = cap if cns is None else cns
        trace = tuple(feasibility_interval(curve_point, c, regime, n)
                      for n in range(first, last + 1))
    return CnsResult(regime, delta, cns, cap, trace)


def bounds_csv(reports: list[BoundReport]) -> str:
    lines = [BoundReport.CSV_HEADER]
    lines.extend(report.csv_row() for report in reports)
    return "\n".join(lines) + "\n"


def cns_csv(results: list[CnsResult]) -> str:
    lines = [CnsResult.CSV_HEADER]
    lines.extend(result.csv_row() for result in results)
    return "\n".join(lines) + "\n"
