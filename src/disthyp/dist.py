"""Finite joint distributions and the exact information measures built on them.

Everything downstream (exponent curves, feasibility intervals, simulated
tests) consumes a validated joint pmf over a finite alphabet X x Y.  This
module owns that type and the closed-form quantities attached to it:

* marginals, entropies, mutual information (all in nats),
* the product-of-marginals null model,
* the concentration constant c = max |log(P/(Px*Py))| over cells,
* the divergence variance used by the second-order normal approximation,
* discretized bivariate Gaussian models with a correlation calibrated by
  bisection to hit a target mutual information.

Full support is mandatory: a zero cell makes log-ratio statistics and the
concentration constant undefined, so constructors reject it outright rather
than patching with epsilons.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Absolute tolerance for "probabilities sum to one" style checks.
PROB_ATOL = 1e-12
# calibrate_correlation stops once |I(X;Y) - target| is within this (nats).
CALIBRATION_TOL = 1e-6
# Largest nx * ny of a discretized Gaussian: 32 MiB per float64 grid array.
MAX_GRID_CELLS = 1 << 22


class DistributionError(ValueError):
    """Invalid distribution input (bad shape, zero cell, bad normalization)."""


class UnreachableTargetError(DistributionError):
    """A calibration target cannot be met on the given grid."""


def _as_prob_matrix(probs) -> np.ndarray:
    mat = np.asarray(probs, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise DistributionError(f"probs must be a 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        bad = np.argwhere(~np.isfinite(mat))[0]
        raise DistributionError(f"non-finite probability at cell ({bad[0]}, {bad[1]})")
    if np.any(mat <= 0.0):
        bad = np.argwhere(mat <= 0.0)[0]
        raise DistributionError(
            f"cell ({bad[0]}, {bad[1]}) has mass {mat[bad[0], bad[1]]!r}; "
            "full support (every cell > 0) is required"
        )
    total = float(mat.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise DistributionError(f"probabilities sum to {total!r}, not 1 within {PROB_ATOL}")
    return mat


@dataclass(frozen=True)
class JointPmf:
    """Joint pmf over a finite alphabet, strictly positive, summing to one.

    ``x_labels`` / ``y_labels`` are opaque identifiers; for discretized
    models they carry the real grid positions so scalar quantizers can use
    geometry.
    """

    probs: np.ndarray
    x_labels: tuple
    y_labels: tuple

    def __post_init__(self):
        mat = _as_prob_matrix(self.probs)
        mat.setflags(write=False)
        object.__setattr__(self, "probs", mat)
        object.__setattr__(self, "x_labels", tuple(self.x_labels))
        object.__setattr__(self, "y_labels", tuple(self.y_labels))
        if len(self.x_labels) != mat.shape[0] or len(self.y_labels) != mat.shape[1]:
            raise DistributionError(
                f"label counts ({len(self.x_labels)}, {len(self.y_labels)}) "
                f"do not match probs shape {mat.shape}"
            )

    @classmethod
    def from_probs(cls, probs, normalize: bool = False) -> "JointPmf":
        """Model with integer labels 0..nx-1 and 0..ny-1."""
        mat = np.asarray(probs, dtype=np.float64)
        if mat.ndim != 2:
            raise DistributionError(f"probs must be a 2-d matrix, got shape {mat.shape}")
        if normalize and mat.size and np.all(mat > 0):
            mat = mat / mat.sum()
        return cls(mat, tuple(range(mat.shape[0])), tuple(range(mat.shape[1])))

    @property
    def nx(self) -> int:
        return self.probs.shape[0]

    @property
    def ny(self) -> int:
        return self.probs.shape[1]

    @cached_property
    def x_marginal(self) -> np.ndarray:
        out = self.probs.sum(axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def y_marginal(self) -> np.ndarray:
        out = self.probs.sum(axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def entropy_x(self) -> float:
        return entropy(self.x_marginal)

    @cached_property
    def entropy_y(self) -> float:
        return entropy(self.y_marginal)

    def fingerprint(self) -> str:
        """Stable content hash used to tie derived artifacts to their model."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.probs).tobytes())
        h.update(repr(self.x_labels).encode())
        h.update(repr(self.y_labels).encode())
        return h.hexdigest()[:16]

    def to_json(self) -> str:
        payload = {
            "x_labels": list(self.x_labels),
            "y_labels": list(self.y_labels),
            "probs": [[float(v) for v in row] for row in self.probs],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "JointPmf":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DistributionError(f"model JSON is unparseable: {exc}") from exc
        for key in ("x_labels", "y_labels", "probs"):
            if key not in payload:
                raise DistributionError(f"model JSON is missing required key {key!r}")
        return cls(np.asarray(payload["probs"], dtype=np.float64),
                   tuple(payload["x_labels"]), tuple(payload["y_labels"]))


@dataclass(frozen=True)
class DivergenceStats:
    """Divergence quantities of a joint pmf against its product model.

    ``mi`` is D(P || Px*Py) = I(X;Y), ``var_div`` the variance under P of the
    log ratio log(P/(Px*Py)) around it and ``c_const`` its largest magnitude.
    """

    mi: float
    var_div: float
    c_const: float


def entropy(weights: np.ndarray) -> float:
    """Shannon entropy in nats of a strictly positive weight vector summing to 1."""
    w = np.asarray(weights, dtype=np.float64)
    return float(-(w * np.log(w)).sum())


def product_model(p: JointPmf) -> JointPmf:
    """Null model with the same marginals and X independent of Y."""
    return JointPmf(np.outer(p.x_marginal, p.y_marginal), p.x_labels, p.y_labels)


def log_ratio_matrix(p: JointPmf) -> np.ndarray:
    """Cellwise log(P / (Px*Py)) in nats; finite because support is full."""
    return np.log(p.probs) - np.log(np.outer(p.x_marginal, p.y_marginal))


def mutual_information(p: JointPmf) -> float:
    """I(X;Y) in nats."""
    return float((p.probs * log_ratio_matrix(p)).sum())


def c_constant(p: JointPmf) -> float:
    """Concentration constant: max over cells of |log(P/(Px*Py))|."""
    return float(np.abs(log_ratio_matrix(p)).max())


def divergence_stats(p: JointPmf) -> DivergenceStats:
    """All divergence quantities of p against its product-of-marginals model,
    from one log-ratio matrix.

    ``var_div`` is the dispersion entering the second-order normal
    approximation of the optimal Type II exponent.
    """
    log_ratio = log_ratio_matrix(p)
    mi = float((p.probs * log_ratio).sum())
    return DivergenceStats(
        mi=mi,
        var_div=float((p.probs * (log_ratio - mi) ** 2).sum()),
        c_const=float(np.abs(log_ratio).max()),
    )


# --------------------------------------------------------------------------
# Discretized bivariate Gaussian models
# --------------------------------------------------------------------------

def discretized_gaussian(correlation: float, nx: int, ny: int,
                         span_sigmas: float = 4.0) -> JointPmf:
    """Standard bivariate normal with the given correlation, sampled on a
    uniform nx-by-ny grid over [-span_sigmas, span_sigmas]^2 and renormalized.

    Grid coordinates are kept as labels so quantizers can act on geometry.
    Correlations so extreme that a cell underflows to zero are rejected
    (full support is a hard invariant).
    """
    if not (-1.0 < correlation < 1.0):
        raise DistributionError(f"correlation must lie strictly inside (-1, 1), got {correlation!r}")
    _check_grid(nx, ny)
    if span_sigmas <= 0:
        raise DistributionError("span_sigmas must be positive")
    xs = np.linspace(-span_sigmas, span_sigmas, nx)
    ys = np.linspace(-span_sigmas, span_sigmas, ny)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    rho = float(correlation)
    # Work with the log-density and subtract the max before exponentiating;
    # renormalization makes the dropped constant irrelevant.
    quad = (xg * xg - 2.0 * rho * xg * yg + yg * yg) / (2.0 * (1.0 - rho * rho))
    logdens = -quad
    dens = np.exp(logdens - logdens.max())
    if np.any(dens <= 0.0):
        raise DistributionError(
            f"correlation {rho!r} underflows grid cells on this grid; "
            "reduce |correlation| or span_sigmas"
        )
    probs = dens / dens.sum()
    return JointPmf(probs, tuple(float(v) for v in xs), tuple(float(v) for v in ys))


def _check_grid(nx: int, ny: int) -> None:
    if nx < 2 or ny < 2 or nx * ny > MAX_GRID_CELLS:
        raise DistributionError(f"grid needs at least 2 points per axis and at most "
                                f"{MAX_GRID_CELLS} cells, got {nx} x {ny}")


def _max_valid_correlation(nx: int, ny: int) -> float:
    """Largest correlation on this grid that keeps every cell strictly positive."""
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            discretized_gaussian(mid, nx, ny)
        except DistributionError:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12:
            break
    return lo


def calibrate_correlation(target_mi: float, nx: int, ny: int) -> tuple[float, JointPmf]:
    """Bisect the correlation of a discretized Gaussian to hit a target
    mutual information (nats) within CALIBRATION_TOL.

    Relies on I(X;Y) being continuous and increasing in |correlation|; the
    returned correlation is the nonnegative root.
    """
    _check_grid(nx, ny)  # before the search reads a refused grid as too much correlation
    cap = math.log(min(nx, ny))
    if not (math.isfinite(target_mi) and target_mi >= 0):
        raise DistributionError(f"target_mi must be finite and nonnegative, got {target_mi!r}")
    if target_mi >= cap:
        raise UnreachableTargetError(
            f"target_mi {target_mi!r} is at or above the grid entropy cap "
            f"log(min(nx, ny)) = {cap!r} nats"
        )
    if target_mi == 0.0:
        return 0.0, discretized_gaussian(0.0, nx, ny)
    hi = _max_valid_correlation(nx, ny)
    hi_model = discretized_gaussian(hi, nx, ny)
    hi_mi = mutual_information(hi_model)
    if hi_mi < target_mi:
        raise UnreachableTargetError(
            f"target_mi {target_mi!r} nats is unreachable on this grid: the "
            f"largest full-support correlation {hi!r} yields {hi_mi!r} nats "
            f"(grid entropy cap is {cap!r} nats); enlarge the grid"
        )
    lo, lo_mi = 0.0, 0.0
    model = hi_model
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        model = discretized_gaussian(mid, nx, ny)
        mid_mi = mutual_information(model)
        if abs(mid_mi - target_mi) <= CALIBRATION_TOL:
            return mid, model
        if mid_mi < target_mi:
            lo, lo_mi = mid, mid_mi
        else:
            hi, hi_mi = mid, mid_mi
    raise UnreachableTargetError(
        f"bisection failed to reach target_mi {target_mi!r} within "
        f"{CALIBRATION_TOL!r} nats (bracket [{lo_mi!r}, {hi_mi!r}])"
    )
