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

from .errors import (
    DegenerateScalesError,
    GridTooCoarseError,
    NonPositiveRateError,
    ParameterOutOfRangeError,
)
from .models import ModelSystem, build_linear_horseshoe, potential
from .pressure import (
    GRID_CAP, PressureEstimate, ProductCloud, grid_axis, ols_line, spanned_axes, spectral_estimate,
)
from .symbolic import CylinderWalk, check_word_cap, equilibrium_state

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


def _word_norms(model: ModelSystem, k_max: int):
    """For k = 1..k_max, values whose largest is max ||Df^k|| over admissible k-words.

    In one dimension these are best[j], the largest |product of slopes|
    over the k-words ending in symbol j, from the max-times recursion
    best[j] <- |slope_j| * max over i with A[i, j] of best[i].  The
    products come out bit for bit as the enumeration's: rounding a
    product is symmetric in sign, so |fl(a b)| = fl(|a| |b|), and
    monotone, so the max commutes with fl(|slope_j| * .); and the
    largest singular value of a 1x1 matrix is |x| exactly.  In more
    dimensions the singular values of every word's product are listed.
    """
    precedes = model.transition != 0
    if model.n == 1:
        slopes = best = np.abs(model.linear[:, 0, 0])
        yield best
        for _ in range(k_max - 1):
            best = slopes * np.where(precedes, best[:, None], 0.0).max(axis=0)
            yield best
    else:
        prods, last = model.linear, np.arange(model.nsym)
        yield np.linalg.svd(prods, compute_uv=False)[:, 0]
        for _ in range(k_max - 1):
            rows, last = np.nonzero(precedes[last])
            prods = model.linear[last] @ prods[rows]
            yield np.linalg.svd(prods, compute_uv=False)[:, 0]


def expansion_rate(model: ModelSystem, k_max: int = 8) -> ExpansionRate:
    """Worst-case derivative growth rate s.

    a_k is the log of the largest singular value over all admissible
    k-step branch products (`_word_norms`).  When every branch shares
    one normal linear part (all built-ins), products are powers and
    a_k = k * a_1 exactly, so no words are formed.  Otherwise the word
    cap of k_max is checked first, so a k_max past the cap fails in any
    dimension, although in one the max-times recursion costs only
    k_max * nsym^2; in more dimensions every word's product is formed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    shared = model.uniform_linear
    if shared is not None and _is_normal(shared):
        rate = float(np.log(np.linalg.norm(shared, ord=2)))
        return ExpansionRate(
            value=rate, per_k=np.full(k_max, rate), k_max=k_max, exact=True
        )
    check_word_cap(model, k_max)
    per_k = np.array(
        [float(np.log(norms.max())) / k for k, norms in enumerate(_word_norms(model, k_max), 1)]
    )
    return ExpansionRate(value=float(per_k.min()), per_k=per_k, k_max=k_max, exact=False)


# -- box counting -------------------------------------------------------------


def box_count(points, scale: float) -> int:
    """Number of grid cells of edge `scale` (anchored at 0) meeting the points.

    `points` is (N, n), or (N,) for N points on a line; see `box_counts`.
    """
    return box_counts(points, [scale])[0]


def box_counts(points, scales) -> list:
    """`box_count` at every scale of `scales`, in their order, from one pass per factor.

    A `ProductCloud` is counted factor by factor: the cells meeting a
    product are exactly the products of the cells meeting its factors.
    Each point of a factor gets one integer key for its cell, and the
    count is 1 plus the number of changes between neighbouring keys in
    sorted order, which is the number of distinct keys.  A one-column
    factor is sorted (if it is not already) and keyed at the finest
    scale only; x -> floor(x / scale) is monotone in floats, so its keys
    come out sorted (`_line_counts`).  Wider factors are keyed, sorted
    and counted scale by scale.
    """
    scales = [float(s) for s in scales]
    if not all(0.0 < s <= 1.0 for s in scales):
        raise ValueError("scale must lie in (0, 1]")
    counts = [1] * len(scales)
    for factor in points.factors if isinstance(points, ProductCloud) else (points,):
        pts = np.asarray(factor, dtype=float)
        pts = pts.reshape(-1, 1) if pts.ndim < 2 else pts
        if pts.size == 0:
            return [0] * len(scales)
        if pts.shape[1] == 1:
            got = _line_counts(pts[:, 0], scales)
        else:
            got = [_key_count(pts, s) for s in scales]
        counts = [c * int(g) for c, g in zip(counts, got)]
    return counts


def _key_count(pts: np.ndarray, scale: float) -> int:
    """Distinct cell keys of the (N, n) points at one scale."""
    extent = int(math.ceil(1.0 / scale)) + 2
    cells = np.floor(pts / scale).astype(np.int64)
    key = cells[:, 0].copy()
    for ax in range(1, cells.shape[1]):
        key = key * extent + cells[:, ax]
    if np.any(key[1:] < key[:-1]):
        key = np.sort(key)
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


def _line_counts(x: np.ndarray, scales: list) -> np.ndarray:
    """Distinct cells of the values `x` at every scale, from one keying at the finest.

    Sorted x has sorted keys at every scale, so the finest count is 1
    plus the changes of its keys, and each finest cell is a run of x.
    A run is narrower than any coarser box, so its keys at a coarser
    scale take at most two neighbouring values, and by monotonicity
    its first and last values take both: those two ends per run give
    every coarser count at once.  A scale within rounding of the
    finest one (the run may then reach a third box) counts all values.
    """
    if np.any(x[1:] < x[:-1]):
        x = np.sort(x)
    scales = np.asarray(scales)
    finest = scales.min()
    key = np.floor(x / finest).astype(np.int64)
    start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    ends = np.stack([x[start], x[np.append(start[1:], len(x)) - 1]], axis=1).ravel()
    # rounding widens a run by a few ulps of its values; stay far above that
    near = scales <= finest + 2.0**-40 * (finest + np.abs(x[[0, -1]]).max())
    counts = np.empty(len(scales), dtype=np.int64)
    for i in np.flatnonzero(near):
        if scales[i] == finest:
            counts[i] = len(start)
        else:
            keys = np.floor(x / scales[i]).astype(np.int64)
            counts[i] = 1 + np.count_nonzero(keys[1:] != keys[:-1])
    coarse = np.floor(ends / scales[~near, None]).astype(np.int64)
    counts[~near] = 1 + np.count_nonzero(coarse[:, 1:] != coarse[:, :-1], axis=1)
    return counts


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
    slope, _, rms = ols_line(np.log(1.0 / fit_s), np.log(counts[2:]))
    return DimensionEstimate(slope=slope, scales=scales, counts=counts, residual=rms, fit_scales=fit_s)


def measure_box_dimension(points: np.ndarray, scales) -> DimensionEstimate:
    """Box-count a point cloud over the scales (`box_counts`) and fit the dimension."""
    scales = sorted(scales, reverse=True)
    return box_dimension(scales, box_counts(points, scales))


# -- Minkowski content --------------------------------------------------------


def minkowski_content_curve(
    points, t: float, rho_schedule, grid_resolution: int = 512
) -> np.ndarray:
    """Normalized neighborhood volumes vol(A_rho) / (2 rho)^(n-t).

    Estimates each rho-neighborhood volume by the fraction of grid-cell
    centers within Euclidean distance rho of the cloud.  If the ratios
    tend to zero the upper Minkowski content at exponent t vanishes, so
    t bounds the upper box dimension.  Returns an array of (rho, ratio)
    rows following the schedule.  A `ProductCloud` of one-column
    factors is never materialized: the nearest point of a product is
    the nearest value of each factor (one `searchsorted` per axis), and
    the squared distances add up in axis order, as the k-d tree that
    every other cloud queries adds them (bit for bit in up to 3 axes).
    """
    columns = isinstance(points, ProductCloud) and all(f.shape[1] == 1 for f in points.factors)
    if columns:
        n, empty = len(points.axes), len(points) == 0
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, empty = pts.shape[1], pts.size == 0
    if empty:
        raise ValueError("point cloud is empty")
    rhos = np.asarray(list(rho_schedule), dtype=float)
    if rhos.size == 0 or np.any(np.diff(rhos) >= 0):
        raise ValueError("rho schedule must be strictly decreasing")
    cell = 1.0 / grid_resolution
    if cell > rhos.min() / 4.0:
        raise GridTooCoarseError("grid cell exceeds a quarter of the smallest rho")
    if grid_resolution**n > GRID_CAP:
        raise GridTooCoarseError("grid too large for the ambient dimension")
    axis = grid_axis(grid_resolution)
    if columns:
        square = [None] * n
        for factor, (ax,) in zip(points.factors, points.axes):
            values = np.sort(np.asarray(factor, dtype=float)[:, 0])
            above = np.minimum(np.searchsorted(values, axis), len(values) - 1)
            below = np.maximum(above - 1, 0)
            square[ax] = np.minimum(np.square(axis - values[below]), np.square(axis - values[above]))
        total = square[0]
        for part in square[1:]:
            total = np.add.outer(total, part)
        dist = np.sqrt(total)
    else:
        centers = np.asarray(ProductCloud.grid([axis] * n))
        from scipy.spatial import cKDTree  # deferred: the import costs more than most commands

        dist, _ = cKDTree(pts).query(centers)
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


def classification_tolerance(estimate: PressureEstimate) -> float:
    """The default tolerance of `classify`: 1e-9 for exact (spectral) estimates, 0.02 for sampled ones."""
    return CLASSIFY_TOL_EXACT if estimate.method == "spectral" else CLASSIFY_TOL_ESTIMATOR


def classify(estimate: PressureEstimate, tolerance: float | None = None) -> str:
    """Attractor dichotomy from the sign of the pressure.

    `tolerance` defaults to `classification_tolerance(estimate)`.  The
    residual widens the verdict bands on both sides: a value whose
    uncertainty interval straddles the threshold stays inconclusive
    rather than picking a side.
    """
    if tolerance is None:
        tolerance = classification_tolerance(estimate)
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


def bound_report(model: ModelSystem, k_max: int = 8, check_equivalences: bool = False) -> BoundReport:
    """Compute P, s, the bound n + P/s and the attractor classification.

    P is the exact spectral value, held to `CLASSIFY_TOL_EXACT`.  With
    `check_equivalences` the report also verifies the equivalence chain
    numerically.  For diffeomorphisms: bound = n, P(phi_u) = 0 and
    the attractor classification must all agree, and when they hold the
    equilibrium measure of phi_u satisfies the entropy formula h = sum of
    positive exponents (the SRB signature).  For expanding maps the same
    chain runs with phi = -log|det Df| and the repeller reading.  When
    P < 0 the report carries the strict entropy inequality instead.
    The checks read the pressure off the same Perron solve as the
    equilibrium chain (`equilibrium_state`), so each Perron problem is
    solved once.
    """
    pot = potential(model, "phi_u" if model.kind == "diffeo" else "phi")
    if check_equivalences:
        pressure, stats = equilibrium_state(model, pot)
        pest = PressureEstimate(pressure, "spectral", extras={"potential": pot.label})
    else:
        pest = spectral_estimate(model, pot)
    rate = expansion_rate(model, k_max)
    bound = dimension_bound(model.n, pest.value, rate.value, CLASSIFY_TOL_EXACT)
    cls = classify(pest, CLASSIFY_TOL_EXACT)
    checks = ()
    if check_equivalences:
        checks = _equivalence_checks(model, stats, pest, bound, cls, CLASSIFY_TOL_EXACT)
    return BoundReport(
        n=model.n,
        expansion=rate,
        pressure=pest,
        bound=bound,
        classification=cls,
        tolerance=CLASSIFY_TOL_EXACT,
        equivalence_checks=checks,
    )


def _equivalence_checks(model, stats, pest, bound, cls, tolerance):
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


def invariant_set_sample(model: ModelSystem, depth: int, resolution: int = 256, walk=None):
    """Point sample of the invariant set at a given symbolic depth.

    Expanding models: centers of the depth-k cylinders (the repeller).
    Diffeomorphisms whose cylinders span axes (`spanned_axes`) that the
    model's `Factorization.splits_off` while others vary: a `ProductCloud`
    of the cylinder centers on the varying axes with the centers of the
    depth-k word images of the unit cube on the spanned ones.  Any other
    diffeomorphism gets the `resolution` grid (`ProductCloud.grid`).  The
    cylinders come from `walk`, a `CylinderWalk` of the model that other
    depths may share, or from a walk of its own.
    """
    walk = walk or CylinderWalk(model)
    if model.kind == "expanding":
        rects = walk.rects(depth)  # a view of the walk's ends-first level: points leave C-ordered
        return np.ascontiguousarray(0.5 * (rects[:, 0, :] + rects[:, 1, :]))
    words, rects = walk.cylinders(depth)
    spanned = spanned_axes(rects)
    if spanned.all() or not model.factorization.splits_off(spanned):
        return ProductCloud.grid([grid_axis(resolution)] * model.n)
    # forward cylinders pin the varying axes; word images pin the whole ones
    varying, whole = np.flatnonzero(~spanned), np.flatnonzero(spanned)
    linears, offsets = model.linear[:, whole[:, None], whole], model.offset[:, whole]
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
