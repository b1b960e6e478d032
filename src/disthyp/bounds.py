"""Finite-length feasibility bounds for the Type II error probability.

Given a curve point (xi, d_slope) = (xi(R), dD/dR at R) and the model's
concentration constant c, this module evaluates, for a Type I budget
sequence eps_n:

* the closed-form four-regime gap bounds on  -(1/n) log beta_n - xi(R),
* an explicit probability interval [lb_prob, ub_prob] around the nominal
  value exp(-n*xi) of the optimal Type II error: lb_prob is a converse
  bound, ub_prob the achievability formula without its residual terms,
* the critical number of samples: the first n at which the interval
  collapses onto the nominal value within a tolerance delta, found by
  evaluating the interval over chunks of n at once.

The interval arithmetic is written once, on numpy arrays of sample sizes
(_budget, _interval); the scalar functions evaluate it at a single n, so a
report and a scan see the same numbers.

All asymptotically vanishing residual terms in the closed forms are set to
zero.
All logarithms are natural; rates and exponents are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_E = math.e
# Regime-1 threshold constant in the h-selection rule sqrt(2 eps) >= K ln(1/eps)/n.
K_REGIME = 1.0
# The CNS scan evaluates n in chunks that double from _CHUNK_MIN to
# _CHUNK_MAX: scans that stop early stay cheap and memory stays bounded.
_CHUNK_MIN = 64
_CHUNK_MAX = 2048


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
            if self.param is None or not (0.0 < self.param < math.inf):
                raise RegimeSpecError(
                    f"polynomial regime needs a finite exponent > 0, got {self.param!r}")
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


def _check_size(regime: TypeIRegime, n: int) -> None:
    """Raise RegimeDomainError where eps_n is undefined."""
    if n < 1:
        raise RegimeDomainError(f"sample size must be >= 1, got {n}")
    if regime.kind == "logarithmic" and n <= _E:
        raise RegimeDomainError(
            f"1/ln(n) is not a valid error level at n = {n} (needs n >= 3)")


def _check_slope_and_c(d_slope: float, c: float) -> None:
    if not (math.isfinite(d_slope) and d_slope <= 1e-6):
        raise RegimeSpecError(f"d_slope must be finite and nonpositive, got {d_slope!r}")
    if not (math.isfinite(c) and c > 0):
        raise RegimeSpecError(
            f"concentration constant must be finite and positive, got {c!r}")


def _check_point(curve_point: tuple[float, float], c: float) -> tuple[float, float]:
    """(xi, d_slope) as floats, after checking the curve point and c."""
    xi, d_slope = float(curve_point[0]), float(curve_point[1])
    if not (math.isfinite(xi) and xi >= 0):
        raise RegimeSpecError(f"xi must be finite and nonnegative, got {xi!r}")
    _check_slope_and_c(d_slope, c)
    return xi, d_slope


def _budget(regime: TypeIRegime, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """eps_n, ln(1/eps_n), block length l and slack mass h_n at the sizes n.

    n is a float64 array.  Callers hold np.errstate(all="ignore"): eps_n
    underflows and 1/eps_n overflows at large n, and polynomial and
    superpolynomial budgets then take the exact logarithms p ln(n) and n^p.
    """
    kind, p = regime.kind, regime.param
    if kind == "constant":
        eps = np.full_like(n, p)
    elif kind == "logarithmic":
        eps = 1.0 / np.log(n)
    elif kind == "polynomial":
        eps = n ** -p
    else:
        eps = np.exp(-(n ** p))
    log_inv_eps = np.log(1.0 / eps)
    if kind == "polynomial":
        log_inv_eps = np.where(np.isfinite(log_inv_eps), log_inv_eps, p * np.log(n))
    elif kind == "superpolynomial":
        log_inv_eps = np.where(np.isfinite(log_inv_eps), log_inv_eps, n ** p)
    alpha = (1.0 - p) / 3.0 if kind == "superpolynomial" else 1.0 / 3.0
    block_l = np.maximum(1.0, np.ceil(n ** alpha - 1e-12))
    h = np.where(np.sqrt(2.0 * eps) >= K_REGIME * log_inv_eps / n, eps, n ** -2.0)
    return eps, log_inv_eps, block_l, h


def _budget_at(regime: TypeIRegime, n: int) -> tuple[float, float, float, float]:
    """_budget at a single sample size, as Python floats."""
    with np.errstate(all="ignore"):
        return tuple(a.item() for a in _budget(regime, np.array([n], dtype=np.float64)))


def eps_at(regime: TypeIRegime, n: int) -> float:
    """Type I budget at sample size n."""
    _check_size(regime, n)
    return _budget_at(regime, n)[0]


def select_block_length(regime: TypeIRegime, n: int) -> int:
    """Quantizer block length for the achievability construction at size n.

    ceil(n^(1/3)) except in the superpolynomial regime, where the budget
    decays fast enough that the block must grow as n^((1-p)/3).
    """
    if n < 1:
        raise RegimeDomainError(f"sample size must be >= 1, got {n}")
    return int(_budget_at(regime, n)[2])


def select_h(regime: TypeIRegime, n: int) -> float:
    """Slack mass h_n splitting the Type I budget in the converse bound.

    Regime 1 (sqrt(2 eps_n) >= K ln(1/eps_n)/n): take h = eps_n.
    Otherwise (budgets decaying too fast): take h = n^-2.
    """
    _check_size(regime, n)
    return _budget_at(regime, n)[3]


def gap_bounds(regime: TypeIRegime, n: int, d_slope: float, c: float) -> tuple[float, float]:
    """Closed-form (lower, upper) bounds on -(1/n) log beta_n - xi(R).

    Four cases keyed by the budget sequence; residual o(1) terms are set to
    zero, so the lower bound can be negative at small n and is reported as
    written.  Constant budgets are not covered (use feasibility_interval).
    """
    _check_slope_and_c(d_slope, c)
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


@dataclass(frozen=True)
class BoundReport:
    """Feasibility interval and diagnostics at one sample size.

    ``ub_exponent`` and ``lb_exponent`` are the per-sample exponents
    -(1/n) ln of each bound before clamping; they stay finite where the
    probabilities themselves underflow float64 (lb_exponent is +inf when
    the converse degenerates).
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


def _interval(xi: float, d_slope: float, c: float, regime: TypeIRegime,
              n: np.ndarray) -> dict[str, np.ndarray]:
    """BoundReport's interval fields at the admissible float64 sizes n.

    The only evaluation of the interval: feasibility_interval calls it on
    one n, critical_sample_size on chunks of n.  Probabilities come out
    clamped to [0, 1] without a clamp: the lower exponent is >= 0, and the
    upper one is floored at 0, which also keeps exp() from overflowing.
    """
    with np.errstate(all="ignore"):
        eps, log_inv_eps, block_l, h = _budget(regime, n)
        delta_tilde = c * np.sqrt(2.0 * log_inv_eps / (n * block_l))
        ub_exponent = xi + d_slope * np.log(block_l) / (2.0 * block_l) - delta_tilde
        slack = 1.0 - eps - h
        valid_lb = slack > 0.0
        log_inv_slack = np.log(1.0 / slack)
        s_n = np.where(valid_lb, 4.0 * math.sqrt(2.0) * c * np.sqrt(log_inv_slack), np.nan)
        lb_exponent = np.where(
            valid_lb, xi + 4.0 * c * np.sqrt(2.0 * log_inv_slack) + np.log(1.0 / h) / n, np.inf)
        return {"eps_n": eps, "block_l": block_l, "h_n": h, "delta_tilde": delta_tilde,
                "s_n": s_n, "valid_lb": valid_lb, "ub_exponent": ub_exponent,
                "lb_exponent": lb_exponent, "nominal": np.exp(-n * xi),
                "ub_prob": np.exp(-n * np.maximum(ub_exponent, 0.0)),
                "lb_prob": np.exp(-n * lb_exponent)}


def feasibility_interval(curve_point: tuple[float, float], c: float,
                         regime: TypeIRegime, n: int) -> BoundReport:
    """The interval around the optimal Type II error at sample size n.

    curve_point is (xi, d_slope) at the operating rate.  The upper end is
    the achievability of a block-quantized scheme with block length l and
    concentration slack delta_tilde = c * sqrt(2 ln(1/eps_n) / (n l)), with
    its vanishing residual terms dropped: it is not a bound, and it can fall
    below the optimum.  The lower end is the change-of-measure converse with
    slack mass h_n.
    When 1 - eps_n - h_n <= 0 the converse degenerates and lb_prob is
    reported as 0 with valid_lb = False.
    """
    xi, d_slope = _check_point(curve_point, c)
    _check_size(regime, n)
    fields = {key: value.item() for key, value in
              _interval(xi, d_slope, c, regime, np.array([n], dtype=np.float64)).items()}
    fields["block_l"] = int(fields["block_l"])
    try:
        gap_lower, gap_upper = gap_bounds(regime, n, d_slope, c)
    except (RegimeSpecError, RegimeDomainError):
        gap_lower, gap_upper = math.nan, math.nan
    return BoundReport(n=n, gap_lower=gap_lower, gap_upper=gap_upper, **fields)


@dataclass(frozen=True)
class CnsResult:
    """Critical number of samples for one (regime, delta)."""

    regime: TypeIRegime
    delta: float
    cns: int | None
    cap: int

    CSV_HEADER = "regime,delta,cns"

    def csv_row(self) -> str:
        cns = "none" if self.cns is None else str(self.cns)
        return f"{self.regime.label},{repr(float(self.delta))},{cns}"


def critical_sample_size(curve_point: tuple[float, float], c: float,
                         regime: TypeIRegime, delta: float,
                         cap: int = 100_000) -> CnsResult:
    """First n <= cap where the feasibility interval hugs the nominal value.

    The condition is max(ub_prob - nominal, nominal - lb_prob) <= delta.
    Sample sizes where the regime is undefined (tiny n) simply fail the
    condition.  Returns cns = None if no n <= cap qualifies.

    The scan evaluates the interval over chunks of n (64 sizes, doubling up
    to 2048) with the same arithmetic as feasibility_interval, so the
    condition holds at the cns, as feasibility_interval reports it, and at
    no admissible n before it.
    """
    if not delta > 0:
        raise RegimeSpecError(f"delta must be positive, got {delta!r}")
    if cap < 1:
        raise RegimeSpecError(f"cap must be >= 1, got {cap}")
    xi, d_slope = _check_point(curve_point, c)
    lo = 1
    while lo <= cap:
        try:
            _check_size(regime, lo)
            break
        except RegimeDomainError:
            lo += 1
    size = _CHUNK_MIN
    while lo <= cap:
        hi = min(lo + size, cap + 1)
        f = _interval(xi, d_slope, c, regime, np.arange(lo, hi, dtype=np.float64))
        gap = np.maximum(f["ub_prob"] - f["nominal"], f["nominal"] - f["lb_prob"])
        hits = np.flatnonzero(gap <= delta)
        if hits.size:
            return CnsResult(regime, delta, lo + int(hits[0]), cap)
        lo, size = hi, min(2 * size, _CHUNK_MAX)
    return CnsResult(regime, delta, None, cap)


def bounds_csv(reports: list[BoundReport]) -> str:
    lines = [BoundReport.CSV_HEADER]
    lines.extend(report.csv_row() for report in reports)
    return "\n".join(lines) + "\n"


def cns_csv(results: list[CnsResult]) -> str:
    lines = [CnsResult.CSV_HEADER]
    lines.extend(result.csv_row() for result in results)
    return "\n".join(lines) + "\n"
