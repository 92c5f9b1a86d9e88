"""Geometric pressure estimators.

Bowen-ball membership, volumes of the k-step tracking neighborhoods of
the invariant set, growth-rate fits for the pressure, and sampling of
local stable sets.  The invariant set itself is never computed point by
point; everything goes through depth-m cylinder covers, which
overestimate it by at most a cylinder diameter.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCurveError,
    GridTooCoarseError,
    IncompatibleLabelError,
    NoBranchError,
)
from .models import ModelSystem, Potential, point_distance
from .symbolic import cylinders, partition_sums_through

_FULL_TOL = 1e-9


def default_epsilon(model: ModelSystem) -> float:
    """Half the minimal branch gap; 0.05 when the domains leave no gap."""
    gap = model.min_branch_gap
    return 0.5 * gap if gap > 0 else 0.05


@dataclass(frozen=True)
class BowenBallSpec:
    """B(center, epsilon, k): points tracking `center` for k steps."""

    center: np.ndarray
    epsilon: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.epsilon <= 0 or self.k < 1:
            raise ValueError("need epsilon > 0 and k >= 1")


def bowen_ball_contains(model: ModelSystem, spec: BowenBallSpec, y) -> bool:
    """True iff all k orbit distances stay below epsilon (sup-norm).

    If the orbit of y leaves every branch domain before step k-1 the
    point has left the working region and membership is False.
    """
    cx = np.atleast_2d(spec.center)
    cy = np.atleast_2d(np.asarray(y, dtype=float))
    for step in range(spec.k):
        if point_distance(model.space, cx, cy)[0] >= spec.epsilon:
            return False
        if step == spec.k - 1:
            break
        cx, bx = model.step(cx)
        if bx[0] < 0:
            raise NoBranchError("center orbit not defined for k steps")
        cy, by = model.step(cy)
        if by[0] < 0:
            return False
    return True


# -- cylinder covers and distances ------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductCloud:
    """Point cloud kept as the Cartesian product of per-axis-group factors.

    `factors[i]` is an (N_i, d_i) array of coordinates on the axes
    `axes[i]`; the cloud holds every combination of one row per factor,
    N_0 * N_1 * ... points, of which only the factors are stored.
    `np.asarray(cloud)` materializes the points, the first factor
    varying slowest.
    """

    factors: tuple
    axes: tuple

    def __len__(self) -> int:
        return math.prod(len(f) for f in self.factors)

    def __array__(self, dtype=None, copy=None):
        rows = np.meshgrid(*(np.arange(len(f)) for f in self.factors), indexing="ij")
        out = np.empty((len(self), sum(len(a) for a in self.axes)))
        for factor, axes, idx in zip(self.factors, self.axes, rows):
            out[:, list(axes)] = factor[idx.ravel()]
        return out


def factored_axes(model: ModelSystem, rects: np.ndarray):
    """Split the axes into those a cover varies along and those it leaves whole.

    Returns (varying, factors): the axes along which some rectangle of
    `rects` falls short of the unit interval, and whether the whole axes
    split off as an exact product factor.  They do when there is an axis
    of each kind, every branch domain spans the whole axes, every linear
    part is block-diagonal between the two groups, and on the cube every
    branch maps the whole axes into the unit interval; tracking, stable
    sets and invariant sets then depend on the varying coordinates alone.
    The cover gets rounding slack; the branch checks get none, so a
    whole coordinate that starts in the unit cube stays inside every
    branch domain for good and never decides a branch.
    """
    whole = (rects[:, 0, :] <= _FULL_TOL).all(axis=0) & (rects[:, 1, :] >= 1 - _FULL_TOL).all(axis=0)
    varying = np.flatnonzero(~whole)
    if varying.size in (0, model.n):
        return varying, False
    for b in model.branches:
        block = b.linear[np.ix_(whole, whole)]
        image = np.stack([np.minimum(block, 0.0), np.maximum(block, 0.0)]).sum(axis=2) + b.offset[whole]
        spans = np.all(b.lo[whole] <= 0.0) and np.all(b.hi[whole] >= 1.0)
        coupled = np.any(b.linear[np.ix_(whole, ~whole)]) or np.any(b.linear[np.ix_(~whole, whole)])
        inside = model.space.is_torus or (image.min() >= 0.0 and image.max() <= 1.0)
        if not spans or coupled or not inside:
            return varying, False
    return varying, True


class _CoverDistance:
    """Sup-norm distance to a union of rectangles, with fast paths.

    Rectangle axes that span the whole unit interval contribute zero
    distance, so covers that vary along a single axis reduce to sorted
    interval lookups; fully degenerate covers (the whole space) reduce
    to the constant zero.  `tracks_one_axis` says that tracking reads
    the coordinate along `axis` alone: the cover varies along that axis
    only, and the model is 1-D or factors (see `factored_axes`).
    """

    def __init__(self, model: ModelSystem, rects: np.ndarray):
        self.torus = model.space.is_torus
        self.rects = rects
        varying, self.factors = factored_axes(model, rects)
        if len(varying) == 0:
            self.mode = "zero"
        elif len(varying) == 1:
            self.mode = "intervals"
            self.axis = int(varying[0])
            self.lo, self.hi = self._merged_intervals(
                rects[:, 0, self.axis], rects[:, 1, self.axis]
            )
        else:
            self.mode = "rects"
        self.tracks_one_axis = self.mode == "intervals" and (model.n == 1 or self.factors)

    def _merged_intervals(self, lo, hi):
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        mlo, mhi = [lo[0]], [hi[0]]
        for a, b in zip(lo[1:], hi[1:]):
            if a <= mhi[-1] + 1e-15:
                mhi[-1] = max(mhi[-1], b)
            else:
                mlo.append(a)
                mhi.append(b)
        mlo, mhi = np.array(mlo), np.array(mhi)
        if self.torus:
            mlo = np.concatenate([mlo - 1.0, mlo, mlo + 1.0])
            mhi = np.concatenate([mhi - 1.0, mhi, mhi + 1.0])
        return mlo, mhi

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.mode == "zero":
            return np.zeros(pts.shape[0])
        if self.mode == "intervals":
            return self.along_axis(pts[:, self.axis])
        return self._brute(pts)

    def along_axis(self, x: np.ndarray) -> np.ndarray:
        """Distance from coordinates `x` along `axis` to the merged intervals."""
        j = np.searchsorted(self.lo, x)
        dist = np.full(x.shape, np.inf)
        for jj in (np.clip(j - 1, 0, len(self.lo) - 1), np.clip(j, 0, len(self.lo) - 1)):
            gap = np.maximum(np.maximum(self.lo[jj] - x, x - self.hi[jj]), 0.0)
            dist = np.minimum(dist, gap)
        return dist

    def _brute(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[0])
        chunk = max(1, int(4e6 / max(1, self.rects.shape[0])))
        shifts = (-1.0, 0.0, 1.0) if self.torus else (0.0,)
        for start in range(0, pts.shape[0], chunk):
            block = pts[start : start + chunk]  # (B, n)
            best = np.full(block.shape[0], np.inf)
            lo = self.rects[None, :, 0, :]
            hi = self.rects[None, :, 1, :]
            for s in shifts:
                q = block[:, None, :] + s
                gap = np.maximum(np.maximum(lo - q, q - hi), 0.0)  # (B, R, n)
                best = np.minimum(best, gap.max(axis=2).min(axis=1))
            out[start : start + chunk] = best
        return out


def cover_rects(model: ModelSystem, epsilon: float):
    """Depth-m cylinder cover with shrinking extents below epsilon/4.

    Returns (depth, rects).  Axes whose cylinder extent never shrinks
    (e.g. coverings of the whole torus) are ignored; if no axis shrinks
    at all the cover is the branch domains themselves and distances to
    it are exact because the invariant set fills the space.
    """
    _, rects = cylinders(model, 1)
    base_ext = (rects[:, 1, :] - rects[:, 0, :]).max(axis=0)
    depth = 1
    while True:
        ext = (rects[:, 1, :] - rects[:, 0, :]).max(axis=0)
        shrinking = ext < base_ext - 1e-12
        if depth > 1 and not shrinking.any():
            return 1, cylinders(model, 1)[1]
        if shrinking.any() and ext[shrinking].max() < 0.25 * epsilon:
            return depth, rects
        depth += 1
        _, rects = cylinders(model, depth)  # cap error propagates


# -- tracking-neighborhood volumes -------------------------------------------


@dataclass(frozen=True)
class VolumeCurve:
    """Grid-estimated volumes of the k-step tracking neighborhoods."""

    epsilon: float
    ks: np.ndarray
    volumes: np.ndarray
    bands: np.ndarray
    grid_resolution: int
    cover_depth: int

    def __post_init__(self):
        if np.any(np.diff(self.volumes) > 1e-15):
            raise ValueError("tracking volumes must be non-increasing in k")

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "grid_resolution": self.grid_resolution,
            "cover_depth": self.cover_depth,
            "k": [int(k) for k in self.ks],
            "volume": [float(v) for v in self.volumes],
            "uncertainty_band": [float(b) for b in self.bands],
        }


def _grid_axis(resolution: int) -> np.ndarray:
    return (np.arange(resolution) + 0.5) / resolution


def _sample_axis(resolution: int, seed: int = 0) -> np.ndarray:
    """Stratified sample: one seeded uniform draw per grid cell.

    A plain midpoint grid can alias against cylinder structure that
    shares its lattice (a lambda_u = 4 horseshoe has dyadic cylinders,
    and dyadic cell centers occupy a residue class the cylinders avoid
    entirely).  Per-cell jitter removes every such congruence while
    keeping the sample deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    return (np.arange(resolution) + rng.random(resolution)) / resolution


def _refuse_large_grid(dist, n: int, resolution: int, what: str) -> None:
    """Refuse more than 2^26 cells to step: one row when tracking reads one axis."""
    stepped = resolution if dist.tracks_one_axis else resolution**n
    if stepped > (1 << 26):
        raise GridTooCoarseError(
            f"{what} too large at {resolution} per axis: {stepped} cells to step exceed {1 << 26}"
        )


def _axis_step(model: ModelSystem, axis: int):
    """`model.step` for the coordinates along `axis` alone; branch -1 means escaped.

    On a shared boundary the lowest symbol wins, as in `ModelSystem.branch_of`.
    """
    lo, hi, slope, offset = np.array(
        [(b.lo[axis], b.hi[axis], b.linear[axis, axis], b.offset[axis]) for b in model.branches]
    ).T

    def step(x):
        x = model.wrap(x)
        branch = np.full(x.shape, -1)
        for s in reversed(range(model.nsym)):  # lower symbols overwrite higher
            branch[(lo[s] <= x) & (x <= hi[s])] = s
        # escaped coordinates get the last branch's image, which the caller drops
        return model.wrap(x * slope[branch] + offset[branch]), branch

    return step


def _death_steps(model, pts, epsilon, k_max, dist):
    """First step index at which tracking fails, k_max if it never does.

    `pts` is either an (N, n) array, stepped with `model.step`, or, when
    `dist.tracks_one_axis`, the N coordinates along `dist.axis`, stepped
    on that axis alone.  Both give the same deaths: the cover distance
    reads that coordinate only, block-diagonal linear parts keep its
    image free of the others, and `factored_axes` admits a model only
    when every branch domain spans the whole axes and every branch maps
    them into the unit interval, so the unstepped coordinates would
    never fail a branch check.  Only the points still alive are
    carried, as coordinates with their indices into `pts`.
    """
    if pts.ndim == 1:
        measure, step = dist.along_axis, _axis_step(model, dist.axis)
    else:
        measure, step = dist, model.step
    death = np.full(len(pts), k_max, dtype=np.int16)
    x, idx = pts, np.arange(len(pts))
    for k in range(k_max):
        far = measure(x) >= epsilon
        death[idx[far]] = k
        x, idx = x[~far], idx[~far]
        if k == k_max - 1 or idx.size == 0:
            break
        x, branch = step(x)
        kept = branch >= 0
        death[idx[~kept]] = k + 1
        x, idx = x[kept], idx[kept]
    return death


def volume_curve(
    model: ModelSystem,
    epsilon: float,
    k_max: int,
    grid_resolution: int,
    threads: int = 1,
) -> VolumeCurve:
    """Volumes of B(invariant set, epsilon, k) for k = 1..k_max.

    Midpoint rule: a grid cell belongs to the k-step neighborhood when
    its center's first k orbit points stay within epsilon of the
    cylinder cover (orbit escape fails membership).  The uncertainty
    band per k is the total volume of cells sitting on the membership
    boundary; halving the cell edge changes the estimate by at most the
    band.  When tracking reads one axis alone (`n == 1`, or the model
    factors along one varying axis; see `factored_axes`), only one row
    of cells is stepped, along that axis; the integer counts are the
    ones the full grid gives.  More than 2^26 stepped
    cells are refused before the grid is built.

    Results are independent of `threads`: the grid is chunked the same
    way regardless, and only integer cell counts are aggregated.
    """
    n = model.n
    cell = 1.0 / grid_resolution
    if cell > 0.25 * epsilon:
        raise GridTooCoarseError(
            f"grid cell {cell} exceeds epsilon/4 = {0.25 * epsilon}"
        )
    depth, rects = cover_rects(model, epsilon)
    dist = _CoverDistance(model, rects)
    _refuse_large_grid(dist, n, grid_resolution, "grid")
    one_row = n == 1 or dist.tracks_one_axis
    axis = _grid_axis(grid_resolution)
    if one_row:
        # deaths depend on one coordinate alone: step one row of cells and
        # count it for each of the grid**(n-1) identical rows of the full grid
        pts = axis if dist.tracks_one_axis else axis[:, None]
        shape, rows = (grid_resolution,), grid_resolution ** (n - 1)
    else:
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        shape, rows = (grid_resolution,) * n, 1
    total = len(pts)

    death = np.empty(total, dtype=np.int16)
    n_chunks = max(1, min(64, total // 4096))
    bounds = np.linspace(0, total, n_chunks + 1).astype(int)

    def work(ci):
        a, b = bounds[ci], bounds[ci + 1]
        death[a:b] = _death_steps(model, pts[a:b], epsilon, k_max, dist)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(n_chunks)))
    else:
        for ci in range(n_chunks):
            work(ci)

    hist = np.bincount(death, minlength=k_max + 1)
    # membership at k holds iff tracking survived steps 0..k-1
    counts = np.array([total - hist[:k].sum() for k in range(1, k_max + 1)]) * rows
    cellvol = cell**n
    volumes = counts * cellvol

    bands = np.zeros(k_max)
    for k in range(1, k_max + 1):
        mask = (death >= k).reshape(shape)
        boundary = np.zeros(shape, dtype=bool)
        for ax in range(mask.ndim):
            if model.space.is_torus:
                boundary |= mask != np.roll(mask, 1, axis=ax)
                boundary |= mask != np.roll(mask, -1, axis=ax)
            else:
                sl_a = [slice(None)] * mask.ndim
                sl_b = [slice(None)] * mask.ndim
                sl_a[ax] = slice(1, None)
                sl_b[ax] = slice(None, -1)
                diff = mask[tuple(sl_a)] != mask[tuple(sl_b)]
                boundary[tuple(sl_a)] |= diff
                boundary[tuple(sl_b)] |= diff
        bands[k - 1] = boundary.sum() * rows * cellvol

    return VolumeCurve(
        epsilon=float(epsilon),
        ks=np.arange(1, k_max + 1),
        volumes=volumes,
        bands=bands,
        grid_resolution=grid_resolution,
        cover_depth=depth,
    )


# -- pressure estimates -------------------------------------------------------


@dataclass(frozen=True)
class PressureEstimate:
    """A pressure value with its method, fit window and diagnostics."""

    value: float
    method: str
    window: tuple | None = None
    residual: float = 0.0
    curve: dict | None = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "window": list(self.window) if self.window else None,
            "residual": self.residual,
            "curve": self.curve,
            "extras": self.extras,
        }


def spectral_estimate(model: ModelSystem, pot: Potential) -> PressureEstimate:
    """Wrap the exact spectral pressure as an estimate with zero residual."""
    from .symbolic import pressure_spectral

    return PressureEstimate(
        value=pressure_spectral(model, pot),
        method="spectral",
        extras={"potential": pot.label},
    )


def _ols_line(xs: np.ndarray, ys: np.ndarray):
    design = np.vstack([xs, np.ones(len(xs))]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    rms = float(np.sqrt(np.mean((ys - design @ np.array([slope, intercept])) ** 2)))
    return float(slope), float(intercept), rms


def _top_half(lo: int, hi: int) -> int:
    return (lo + hi + 1) // 2


def pressure_from_volume_growth(curve: VolumeCurve, window: tuple | None = None) -> PressureEstimate:
    """Least-squares growth rate of log vol(B(.., k)) over k.

    The fit uses the top half of the window (the transient part of the
    curve carries the constant, not the rate).  Zero volumes mean the
    neighborhood emptied at finite depth; the estimate reports -inf.
    """
    ks = np.asarray(curve.ks)
    lo, hi = window if window is not None else (int(ks[0]), int(ks[-1]))
    sel = (ks >= lo) & (ks <= hi)
    if sel.sum() < 4:
        raise DegenerateCurveError("need at least 4 curve points in the window")
    ks_w = ks[sel]
    vols_w = np.asarray(curve.volumes)[sel]
    if np.any(vols_w <= 0.0):
        return PressureEstimate(
            value=-math.inf,
            method="volume_growth",
            window=(lo, hi),
            residual=0.0,
            extras={"note": "tracking volume vanished at finite k", "epsilon": curve.epsilon},
        )
    fit_lo = _top_half(lo, hi)
    fit = ks_w >= fit_lo
    slope, _, rms = _ols_line(ks_w[fit], np.log(vols_w[fit]))
    slope_full, _, _ = _ols_line(ks_w, np.log(vols_w))
    return PressureEstimate(
        value=slope,
        method="volume_growth",
        window=(fit_lo, hi),
        residual=rms,
        curve={
            "k": ks_w.tolist(),
            "volume": vols_w.tolist(),
            "log_volume": np.log(vols_w).tolist(),
        },
        extras={
            "epsilon": curve.epsilon,
            "grid_resolution": curve.grid_resolution,
            "cover_depth": curve.cover_depth,
            "full_window_slope": slope_full,
        },
    )


def pressure_from_partition_sums(
    model: ModelSystem, pot: Potential, k_max: int, delta: float | None = None
) -> PressureEstimate:
    """Growth rate of the partition sums Z_k.

    Z_k is geometric up to lower Perron modes, so the per-step ratios
    log Z_{k+1} - log Z_k converge geometrically; one Aitken step on the
    last three ratios removes the dominant transient and reproduces the
    spectral value to ~1e-10 already at k_max = 12 on two-symbol shifts.
    The published residual is the RMS deviation of log Z_k from the
    extrapolated line over the top half of the range.
    """
    if k_max < 6:
        raise ValueError("need k_max >= 6")
    z = partition_sums_through(model, pot, k_max, delta)
    ks = np.arange(1, k_max + 1)
    logs = np.log(z)
    ratios = np.diff(logs)
    x0, x1, x2 = ratios[-3], ratios[-2], ratios[-1]
    denom = x2 - 2.0 * x1 + x0
    if abs(denom) > 1e-13 * max(1.0, abs(x2)):
        value = float(x2 - (x2 - x1) ** 2 / denom)
    else:
        value = float(x2)  # ratios already flat to rounding
    fit_lo = _top_half(1, k_max)
    sel = ks >= fit_lo
    slope_ols, _, _ = _ols_line(ks[sel], logs[sel])
    intercept = float(np.mean(logs[sel] - value * ks[sel]))
    rms = float(np.sqrt(np.mean((logs[sel] - intercept - value * ks[sel]) ** 2)))
    return PressureEstimate(
        value=value,
        method="partition_sum",
        window=(fit_lo, k_max),
        residual=rms,
        curve={"k": ks.tolist(), "z": z.tolist(), "log_z": logs.tolist()},
        extras={"ols_slope": slope_ols, "delta": delta, "potential": pot.label},
    )


# -- local stable sets --------------------------------------------------------


def sample_local_stable_set(
    model: ModelSystem, epsilon: float, depth: int, samples: int = 2048,
    cross_resolution: int = 1024, seed: int = 0,
) -> np.ndarray | ProductCloud:
    """Sample points whose first `depth` iterates stay epsilon-close to the cover.

    A superset of the true local stable set sample that shrinks as depth
    grows.  Points come from a stratified grid (one seeded draw per
    cell), so the cloud is deterministic in the seed.  When tracking
    reads one axis alone (full strips along the contracting axes, as in
    the horseshoe family), only that axis is sampled and stepped, at
    `samples` resolution, and the cloud is a `ProductCloud` of the kept
    values with a grid on each remaining axis; otherwise the full
    n-dimensional grid is stepped and the kept points are returned as an
    array.  More than 2^26 stepped cells are refused before any sample
    is drawn.
    """
    if model.kind != "diffeo":
        raise IncompatibleLabelError("local stable sets need the diffeo kind")
    _, rects = cover_rects(model, epsilon)
    dist = _CoverDistance(model, rects)
    n = model.n
    _refuse_large_grid(dist, n, samples, "stable-set grid")
    axis_vals = _sample_axis(samples, seed)
    if dist.tracks_one_axis:
        alive = _death_steps(model, axis_vals, epsilon, depth, dist) >= depth
        other_axis = _sample_axis(min(samples, cross_resolution), seed + 1)
        grids = [axis_vals[alive] if a == dist.axis else other_axis for a in range(n)]
        return ProductCloud(tuple(g[:, None] for g in grids), tuple((a,) for a in range(n)))
    mesh = np.meshgrid(*([axis_vals] * n), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[_death_steps(model, pts, epsilon, depth, dist) >= depth]
