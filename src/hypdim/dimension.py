"""Box-counting dimension, expansion rates, and the pressure dimension bound.

The headline quantity is n + P/s: ambient dimension plus pressure over
the worst-case expansion rate.  For the affine models both P and s have
exact values, so the estimators here can be validated end to end, and
the attractor dichotomy (P = 0 exactly when the bound is trivial) can be
checked as a numerical equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateScalesError,
    GridTooCoarseError,
    NonPositiveRateError,
    ParameterOutOfRangeError,
)
from .models import ModelSystem, build_linear_horseshoe, potential
from .pressure import PressureEstimate, ProductCloud, _grid_axis, factored_axes, spectral_estimate
from .symbolic import (
    _check_cap,
    cylinders,
    equilibrium_markov_chain,
    markov_measure_stats,
)

CLASSIFY_TOL_EXACT = 1e-9
CLASSIFY_TOL_ESTIMATOR = 0.02


# -- expansion rate -----------------------------------------------------------


@dataclass(frozen=True)
class ExpansionRate:
    """Exponential growth rate of max ||Df^k|| over the invariant set.

    `per_k[i]` holds a_{i+1}/(i+1) with a_k = log max ||Df^k||; the norm
    is submultiplicative, so the minimum of a_k/k upper-bounds and
    converges to the limit rate.
    """

    value: float
    per_k: np.ndarray
    k_max: int
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "per_k": [float(v) for v in self.per_k],
            "k_max": self.k_max,
            "exact": self.exact,
        }


def _is_normal(matrix: np.ndarray) -> bool:
    return np.allclose(matrix @ matrix.T, matrix.T @ matrix, atol=1e-12)


def expansion_rate(model: ModelSystem, k_max: int = 8) -> ExpansionRate:
    """Worst-case derivative growth rate s.

    a_k is the log of the largest singular value over all admissible
    k-step branch products.  When every branch shares one normal linear
    part (all built-ins), products are powers and a_k = k * a_1 exactly,
    so the enumeration short-circuits.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    shared = model.uniform_linear
    if shared is not None and _is_normal(shared):
        rate = float(np.log(np.linalg.norm(shared, ord=2)))
        return ExpansionRate(
            value=rate, per_k=np.full(k_max, rate), k_max=k_max, exact=True
        )
    _check_cap(model, k_max)
    linears = np.stack([b.linear for b in model.branches])
    prods = linears.copy()
    last = np.arange(model.nsym, dtype=np.int64)
    per_k = []
    for k in range(1, k_max + 1):
        norms = np.linalg.svd(prods, compute_uv=False)[:, 0]
        per_k.append(float(np.log(norms.max())) / k)
        if k == k_max:
            break
        rows, last = np.nonzero(model.transition[last])
        prods = linears[last] @ prods[rows]
    per_k = np.array(per_k)
    return ExpansionRate(value=float(per_k.min()), per_k=per_k, k_max=k_max, exact=False)


# -- box counting -------------------------------------------------------------


def box_count(points, scale: float) -> int:
    """Number of grid cells of edge `scale` (anchored at 0) meeting the points.

    A `ProductCloud` is counted factor by factor: the cells meeting a
    product are exactly the products of the cells meeting its factors.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    extent = int(math.ceil(1.0 / scale)) + 2
    count = 1
    for factor in points.factors if isinstance(points, ProductCloud) else (points,):
        pts = np.atleast_2d(np.asarray(factor, dtype=float))
        if pts.size == 0:
            return 0
        cells = np.floor(pts / scale).astype(np.int64)
        key = cells[:, 0].copy()
        for ax in range(1, cells.shape[1]):
            key = key * extent + cells[:, ax]
        count *= int(np.unique(key).size)
    return count


@dataclass(frozen=True)
class DimensionEstimate:
    """Log-log slope of box counts over a scale window."""

    slope: float
    scales: np.ndarray
    counts: np.ndarray
    residual: float
    fit_scales: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "residual": self.residual,
            "scales": [float(s) for s in self.scales],
            "counts": [int(c) for c in self.counts],
            "fit_scales": [float(s) for s in self.fit_scales],
        }


def box_dimension(scales, counts) -> DimensionEstimate:
    """Least-squares slope of log N versus log(1/scale).

    Needs at least 4 scales spanning a factor of 100 in 1/scale.  The
    two coarsest scales are always excluded from the fit; the transient
    regime there pollutes the slope.
    """
    scales = np.asarray(scales, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if scales.size < 4:
        raise DegenerateScalesError("need at least 4 scales")
    order = np.argsort(-scales)  # coarse -> fine
    scales, counts = scales[order], counts[order]
    if scales[-1] <= 0 or scales[0] / scales[-1] < 100.0:
        raise DegenerateScalesError("scales must span at least two decades of 1/scale")
    if np.any(counts <= 0):
        raise DegenerateScalesError("every scale needs a positive box count")
    if np.any(np.diff(counts) < 0):
        raise ValueError("box counts must not decrease as the scale shrinks")
    fit_s = scales[2:]
    fit_n = counts[2:]
    xs = np.log(1.0 / fit_s)
    ys = np.log(fit_n)
    design = np.vstack([xs, np.ones(len(xs))]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    rms = float(np.sqrt(np.mean((ys - design @ np.array([slope, intercept])) ** 2)))
    return DimensionEstimate(
        slope=float(slope), scales=scales, counts=counts, residual=rms, fit_scales=fit_s
    )


def measure_box_dimension(points: np.ndarray, scales) -> DimensionEstimate:
    """Box-count a point cloud over the scales and fit the dimension."""
    counts = [box_count(points, s) for s in sorted(scales, reverse=True)]
    return box_dimension(sorted(scales, reverse=True), counts)


# -- Minkowski content --------------------------------------------------------


def minkowski_content_curve(
    points: np.ndarray, t: float, rho_schedule, grid_resolution: int = 512
) -> np.ndarray:
    """Normalized neighborhood volumes vol(A_rho) / (2 rho)^(n-t).

    Estimates each rho-neighborhood volume by the fraction of grid-cell
    centers within Euclidean distance rho of the cloud.  If the ratios
    tend to zero the upper Minkowski content at exponent t vanishes, so
    t bounds the upper box dimension.  Returns an array of (rho, ratio)
    rows following the schedule.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("point cloud is empty")
    rhos = np.asarray(list(rho_schedule), dtype=float)
    if rhos.size == 0 or np.any(np.diff(rhos) >= 0):
        raise ValueError("rho schedule must be strictly decreasing")
    n = pts.shape[1]
    cell = 1.0 / grid_resolution
    if cell > rhos.min() / 4.0:
        raise GridTooCoarseError("grid cell exceeds a quarter of the smallest rho")
    if grid_resolution**n > (1 << 26):
        raise GridTooCoarseError("grid too large for the ambient dimension")
    axis = _grid_axis(grid_resolution)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    tree = cKDTree(pts)
    dist, _ = tree.query(centers)
    cellvol = cell**n
    out = np.empty((rhos.size, 2))
    for i, rho in enumerate(rhos):
        vol = float((dist <= rho).sum()) * cellvol
        out[i] = (rho, vol / (2.0 * rho) ** (n - t))
    return out


def contraction_rho_schedule(epsilon: float, s: float, ks, delta: float | None = None):
    """The schedule rho_k = (epsilon / exp(s + delta)^k) / 2.

    delta defaults to s/100; any fixed small slack exhibits the decay of
    the content above the dimension bound.
    """
    if delta is None:
        delta = 0.01 * s
    ks = np.asarray(list(ks), dtype=float)
    return 0.5 * epsilon / np.exp((s + delta) * ks)


# -- the bound and the equivalence report -------------------------------------


def dimension_bound(n: int, pressure: float, s: float, tolerance: float = CLASSIFY_TOL_EXACT) -> float:
    """n + pressure / s, clamped to n when the pressure vanishes.

    Pressure must be nonpositive up to the tolerance; s must be positive.
    """
    if s <= 0:
        raise NonPositiveRateError("expansion rate must be positive")
    if pressure == -math.inf:
        return -math.inf
    if pressure > tolerance:
        raise ValueError(f"pressure {pressure} is positive beyond tolerance {tolerance}")
    if abs(pressure) <= tolerance:
        return float(n)
    return min(float(n), n + pressure / s)


def classify(estimate: PressureEstimate, tolerance: float | None = None) -> str:
    """Attractor dichotomy from the sign of the pressure.

    Exact (spectral) estimates use a 1e-9 tolerance, sampled estimators
    0.02.  The residual widens the verdict bands on both sides: a value
    whose uncertainty interval straddles the threshold stays
    inconclusive rather than picking a side.
    """
    if tolerance is None:
        tolerance = (
            CLASSIFY_TOL_EXACT if estimate.method == "spectral" else CLASSIFY_TOL_ESTIMATOR
        )
    value = estimate.value
    if abs(value) + estimate.residual <= tolerance:
        return "attractor"
    if value < -(tolerance + estimate.residual):
        return "non_attractor"
    return "inconclusive"


@dataclass(frozen=True)
class BoundReport:
    """Everything the dimension bound says about one model."""

    n: int
    expansion: ExpansionRate
    pressure: PressureEstimate
    bound: float
    classification: str
    tolerance: float
    equivalence_checks: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.expansion.to_json_dict(),
            "pressure": self.pressure.to_json_dict(),
            "bound": self.bound,
            "classification": self.classification,
            "classification_tolerance": self.tolerance,
            "equivalence_checks": [
                {"claim": claim, "passed": passed, "detail": detail}
                for claim, passed, detail in self.equivalence_checks
            ],
        }


def bound_report(
    model: ModelSystem,
    k_max: int = 8,
    tolerance: float = CLASSIFY_TOL_EXACT,
    check_equivalences: bool = False,
) -> BoundReport:
    """Compute P, s, the bound n + P/s and the attractor classification.

    With `check_equivalences` the report also verifies the equivalence
    chain numerically.  For diffeomorphisms: bound = n, P(phi_u) = 0 and
    the attractor classification must all agree, and when they hold the
    equilibrium measure of phi_u satisfies the entropy formula h = sum of
    positive exponents (the SRB signature).  For expanding maps the same
    chain runs with phi = -log|det Df| and the repeller reading.  When
    P < 0 the report carries the strict entropy inequality instead.
    """
    pot = potential(model, "phi_u" if model.kind == "diffeo" else "phi")
    pest = spectral_estimate(model, pot)
    rate = expansion_rate(model, k_max)
    bound = dimension_bound(model.n, pest.value, rate.value, tolerance)
    cls = classify(pest, tolerance)
    checks = _equivalence_checks(model, pot, pest, bound, cls, tolerance) if check_equivalences else ()
    return BoundReport(
        n=model.n,
        expansion=rate,
        pressure=pest,
        bound=bound,
        classification=cls,
        tolerance=tolerance,
        equivalence_checks=checks,
    )


def _equivalence_checks(model, pot, pest, bound, cls, tolerance):
    q, _ = equilibrium_markov_chain(model, pot)
    stats = markov_measure_stats(model, pot, q)
    positive = stats.positive_exponent_sum
    p_zero = abs(pest.value) <= tolerance
    bound_full = abs(bound - model.n) <= tolerance
    is_attractor = cls == "attractor"
    checks = [
        ("pressure_zero", p_zero, {"pressure": pest.value}),
        ("bound_equals_ambient_dimension", bound_full, {"bound": bound, "n": model.n}),
        ("classified_attractor", is_attractor, {"classification": cls}),
        (
            "equivalences_consistent",
            p_zero == bound_full == is_attractor,
            {"pressure_zero": p_zero, "bound_full": bound_full, "attractor": is_attractor},
        ),
    ]
    if p_zero:
        gap = abs(stats.entropy - positive)
        checks.append(
            (
                "pesin_entropy_formula",
                gap <= 1e-9,
                {
                    "entropy": stats.entropy,
                    "positive_exponent_sum": positive,
                    "gap": gap,
                },
            )
        )
    else:
        checks.append(
            (
                "margulis_ruelle_strict",
                stats.entropy < positive - 1e-12,
                {"entropy": stats.entropy, "positive_exponent_sum": positive},
            )
        )
    return tuple(checks)


def horseshoe_for_target_dimension(target: float, lambda_s: float = 0.25) -> ModelSystem:
    """Horseshoe whose local stable set has box dimension `target`.

    Inverts target = 1 + log 2 / log lambda_u; targets approaching 1
    need unbounded expansion, so target must lie strictly inside (1, 2).
    """
    if not 1.0 < target < 2.0:
        raise ParameterOutOfRangeError("target dimension must lie in (1, 2)")
    lambda_u = 2.0 ** (1.0 / (target - 1.0))
    return build_linear_horseshoe(lambda_u, lambda_s)


# -- invariant-set samples ----------------------------------------------------


def invariant_set_sample(model: ModelSystem, depth: int, resolution: int = 256):
    """Point sample of the invariant set at a given symbolic depth.

    Expanding models: centers of the depth-k cylinders (the repeller).
    Diffeomorphisms that factor (see `factored_axes`): a `ProductCloud`
    of the cylinder centers on the varying axes with the centers of the
    depth-k word images of the unit cube on the whole axes.  Any other
    model (the invariant set fills the space, or its branches couple
    the two groups) falls back to a regular grid at `resolution`.
    """
    words, rects = cylinders(model, depth)
    if model.kind == "expanding":
        return 0.5 * (rects[:, 0, :] + rects[:, 1, :])
    varying, factors = factored_axes(model, rects)
    if not factors:
        axis = _grid_axis(resolution)
        mesh = np.meshgrid(*([axis] * model.n), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    # forward cylinders pin the varying axes; word images pin the whole ones
    whole = np.setdiff1d(np.arange(model.n), varying)
    linears = np.stack([b.linear[np.ix_(whole, whole)] for b in model.branches])
    offsets = np.stack([b.offset[whole] for b in model.branches])
    lo = np.zeros((len(words), whole.size))
    hi = np.ones((len(words), whole.size))
    for symbols in words.T:
        a, off = linears[symbols], offsets[symbols]
        lo3, hi3 = lo[:, None, :], hi[:, None, :]
        lo, hi = (
            np.where(a > 0, a * lo3, a * hi3).sum(axis=2) + off,
            np.where(a > 0, a * hi3, a * lo3).sum(axis=2) + off,
        )
    centers = (0.5 * (rects[:, 0, varying] + rects[:, 1, varying]), 0.5 * (lo + hi))
    return ProductCloud(centers, (tuple(varying.tolist()), tuple(whole.tolist())))
