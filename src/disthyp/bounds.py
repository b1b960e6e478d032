"""Finite-length feasibility bounds for the Type II error probability.

Given a curve point (xi, d_slope) = (xi(R), dD/dR at R) and the model's
concentration constant c, this module evaluates, for a Type I budget
sequence eps_n in one of the regimes const, log, poly and superpoly:

* the closed-form four-regime gap bounds on  -(1/n) log beta_n - xi(R),
* an explicit probability interval [lb_prob, ub_prob] around the nominal
  value exp(-n*xi) of the optimal Type II error: lb_prob is a converse
  bound, ub_prob the achievability formula without its residual terms,
* the critical number of samples: the first n at which the interval
  collapses onto the nominal value within a tolerance delta, found by
  evaluating the interval over fixed chunks of n at once.  One screen over
  every chunk's two ends first drops the chunks in which ub_prob - nominal
  > delta throughout.

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
# The CNS scan evaluates n in chunks of _CHUNK sizes; its screen holds one
# entry per chunk, and its time grows with the cap, which MAX_CAP bounds.
_CHUNK = 2048
MAX_CAP = 1 << 27
# Relative margin of the chunk screen on each of its two terms: delta can be
# far below their last bit, and the screen rounds unlike _interval.
_SCREEN_RTOL = 1e-9


class RegimeDomainError(ValueError):
    """The requested quantity is undefined at this sample size."""


class RegimeSpecError(ValueError):
    """Malformed Type I regime specification."""


# Per regime spelling: the open interval its parameter lies in (None: it
# takes no parameter) and the first n at which eps_n is an error level.
_REGIMES = {"const": ((0.0, 1.0), 1), "log": (None, 3),
            "poly": ((0.0, math.inf), 1), "superpoly": ((0.0, 1.0), 1)}


@dataclass(frozen=True)
class TypeIRegime:
    """Type I error budget sequence eps_n, spelled as on the command line.

    const:     eps_n = param, param in (0, 1)
    log:       eps_n = 1 / ln(n), defined from n = 3 on
    poly:      eps_n = n ** -param, param > 0
    superpoly: eps_n = exp(-n ** param), param in (0, 1)
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in _REGIMES:
            raise RegimeSpecError(f"unknown regime {self.kind!r}; "
                                  "expected const:<eps>|log|poly:<p>|superpoly:<p>")
        interval = _REGIMES[self.kind][0]
        if interval is None:
            if self.param is not None:
                raise RegimeSpecError(f"{self.kind} regime takes no parameter")
            return
        lo, hi = interval
        if self.param is None or not (lo < self.param < hi):
            raise RegimeSpecError(
                f"{self.kind} regime needs a parameter in ({lo:g}, {hi:g}), got {self.param!r}")
        object.__setattr__(self, "param", float(self.param))

    @classmethod
    def parse(cls, text: str) -> "TypeIRegime":
        """Parse 'const:0.1', 'log', 'poly:0.5', 'superpoly:0.5'."""
        head, sep, tail = text.strip().partition(":")
        if not sep:
            return cls(head)
        try:
            value = float(tail)
        except ValueError as exc:
            raise RegimeSpecError(f"bad regime parameter {tail!r}") from exc
        return cls(head, value)

    @property
    def label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param:g}"

    @property
    def gap_case(self) -> str | None:
        """Which closed-form gap case applies, if any."""
        if self.kind == "log":
            return "i"
        if self.kind == "poly":
            return "ii" if self.param < 2.0 else "iii"
        if self.kind == "superpoly":
            return "iv"
        return None


def _check_size(regime: TypeIRegime, n: int) -> None:
    """Raise RegimeDomainError where eps_n is undefined."""
    first = _REGIMES[regime.kind][1]
    if n < first:
        raise RegimeDomainError(
            f"eps_n of the {regime.kind} regime is undefined at n = {n} (needs n >= {first})")


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
    """eps_n, ln(1/eps_n) and block length l at the sizes n.

    n is a float64 array.  Callers hold np.errstate(all="ignore"): eps_n
    underflows and 1/eps_n overflows at large n, and poly and superpoly
    budgets then take the exact logarithms p ln(n) and n^p.
    """
    kind, p = regime.kind, regime.param
    if kind == "const":
        eps = np.full_like(n, p)
    elif kind == "log":
        eps = 1.0 / np.log(n)
    elif kind == "poly":
        eps = n ** -p
    else:
        eps = np.exp(-(n ** p))
    log_inv_eps = np.log(1.0 / eps)
    if kind == "poly":
        log_inv_eps = np.where(np.isfinite(log_inv_eps), log_inv_eps, p * np.log(n))
    elif kind == "superpoly":
        log_inv_eps = np.where(np.isfinite(log_inv_eps), log_inv_eps, n ** p)
    alpha = (1.0 - p) / 3.0 if kind == "superpoly" else 1.0 / 3.0
    block_l = np.maximum(1.0, np.ceil(n ** alpha - 1e-12))
    return eps, log_inv_eps, block_l


def eps_at(regime: TypeIRegime, n: int) -> float:
    """Type I budget at sample size n."""
    _check_size(regime, n)
    with np.errstate(all="ignore"):
        return _budget(regime, np.array([n], dtype=np.float64))[0].item()


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
            "gap bounds cover log/poly/superpoly budgets only; "
            "use feasibility_interval for const budgets")
    if case == "i":
        if n <= math.ceil(_E ** _E) - 1:
            raise RegimeDomainError(
                f"log gap bounds need ln(ln(n)) > 0, i.e. n >= 16; got {n}")
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
    delta_tilde: float
    valid_lb: bool
    ub_exponent: float
    lb_exponent: float

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


def _chunk_clears_delta(xi: float, d_slope: float, c: float, regime: TypeIRegime,
                        a: np.ndarray, b: np.ndarray, delta: float) -> np.ndarray:
    """True where ub_prob - nominal > delta at every n of [a, b].

    The screen of critical_sample_size, elementwise over the float64 chunk
    ends a <= b: it runs _budget at the two ends only.  Let L(n) =
    ln(1/eps_n), l(n) the block length and g(l) = ln(l) / (2 l), so
    ub_exponent = xi + d_slope g(l) - delta_tilde.  For every n in [a, b]:

    * eps_n is nonincreasing in every regime, so L(n) >= L(a);
    * l(n) is nondecreasing, so n l(n) <= b l(b), and with the first point
      delta_tilde(n) >= c sqrt(2 L(a) / (b l(b)));
    * on the integers g rises up to l = 3 and falls after it, so its minimum
      over [l(a), l(b)] is min(g(l(a)), g(l(b))).  With d_slope <= 0 let g*
      be that minimum; _check_slope_and_c admits 0 < d_slope <= 1e-6, and
      there g* is g's maximum ln(3)/6.  Either way d_slope g(l(n)) <= d_slope g*.

    So ub_exponent(n) <= E = xi + d_slope g* - c sqrt(2 L(a) / (b l(b))),
    ub_prob(n) >= exp(-b max(E, 0)) and nominal(n) = exp(-n xi) <= exp(-a xi).
    A chunk is skipped iff exp(-b max(E, 0)) (1 - eta) - exp(-a xi) (1 + eta)
    > delta, with eta = _SCREEN_RTOL relative to each term.  A non-finite E
    means no skip.  The terms of E are written as _interval writes them, so
    where a bound is attained E has its bits.  A skipped chunk holds no n
    that passes the upper test, so the scan's result does not change.
    """
    with np.errstate(all="ignore"):
        _, log_inv_eps, block_l = _budget(regime, np.stack([a, b]))
        slope_term = d_slope * np.log(block_l) / (2.0 * block_l)
        slope_max = d_slope * np.log(3.0) / 6.0 if d_slope > 0 else slope_term.max(axis=0)
        e_bar = xi + slope_max - c * np.sqrt(2.0 * log_inv_eps[0] / (b * block_l[1]))
        ub_min = np.exp(-b * np.maximum(e_bar, 0.0))
        nominal_max = np.exp(-a * xi)
        return np.isfinite(e_bar) & (
            ub_min * (1.0 - _SCREEN_RTOL) - nominal_max * (1.0 + _SCREEN_RTOL) > delta)


def _interval(xi: float, d_slope: float, c: float, regime: TypeIRegime,
              n: np.ndarray) -> dict[str, np.ndarray]:
    """BoundReport's interval fields at the admissible float64 sizes n.

    The only evaluation of the interval: feasibility_interval calls it on
    one n, critical_sample_size on chunks of n.  Every operation is
    elementwise, so a size gets the same bits either way.  Probabilities
    come out clamped to [0, 1] without a clamp: the lower exponent is >= 0,
    and the upper one is floored at 0, which also keeps exp() from
    overflowing.
    """
    with np.errstate(all="ignore"):
        eps, log_inv_eps, block_l = _budget(regime, n)
        delta_tilde = c * np.sqrt(2.0 * log_inv_eps / (n * block_l))
        ub_exponent = xi + d_slope * np.log(block_l) / (2.0 * block_l) - delta_tilde
        h = np.where(np.sqrt(2.0 * eps) >= K_REGIME * log_inv_eps / n, eps, n ** -2.0)
        slack = 1.0 - eps - h
        valid_lb = slack > 0.0
        log_inv_slack = np.log(1.0 / slack)
        lb_exponent = np.where(
            valid_lb, xi + 4.0 * c * np.sqrt(2.0 * log_inv_slack) + np.log(1.0 / h) / n, np.inf)
        return {"eps_n": eps, "block_l": block_l, "h_n": h, "delta_tilde": delta_tilde,
                "valid_lb": valid_lb, "ub_exponent": ub_exponent,
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


def critical_sample_size(curve_point: tuple[float, float], c: float,
                         regime: TypeIRegime, delta: float,
                         cap: int = 100_000) -> int | None:
    """First n <= cap where the feasibility interval hugs the nominal value.

    The condition is max(ub_prob - nominal, nominal - lb_prob) <= delta.
    The scan starts at the regime's first admissible n.  Returns that n,
    the critical sample size, or None if no n <= cap qualifies.

    The scan runs over chunks of _CHUNK sizes.  One call of
    _chunk_clears_delta over every chunk's two ends drops each chunk in
    which ub_prob - nominal > delta at every size: no size there passes the
    condition.  The kept chunks are evaluated whole by _interval, the
    arithmetic of feasibility_interval, in order up to the first hit, so
    the condition holds at the cns, as feasibility_interval reports it, and
    at no admissible n before it.  A cap above MAX_CAP is refused.
    """
    if not delta > 0:
        raise RegimeSpecError(f"delta must be positive, got {delta!r}")
    if not 1 <= cap <= MAX_CAP:
        raise RegimeSpecError(f"cap = {cap} must lie in [1, {MAX_CAP}]")
    xi, d_slope = _check_point(curve_point, c)
    starts = np.arange(_REGIMES[regime.kind][1], cap + 1, _CHUNK, dtype=np.float64)
    ends = np.minimum(starts + (_CHUNK - 1), cap)
    kept = ~_chunk_clears_delta(xi, d_slope, c, regime, starts, ends, delta)
    for start, end in zip(starts[kept], ends[kept]):
        at = _interval(xi, d_slope, c, regime, np.arange(start, end + 1))
        # a NaN on either side fails its test, as it fails max(...) <= delta
        hits = np.flatnonzero((at["ub_prob"] - at["nominal"] <= delta)
                              & (at["nominal"] - at["lb_prob"] <= delta))
        if hits.size:
            return int(start) + int(hits[0])
    return None
