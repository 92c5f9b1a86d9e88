"""Geometric pressure estimators.

Bowen-ball membership, volumes of the k-step tracking neighborhoods of
the invariant set, growth-rate fits for the pressure, and sampling of
local stable sets.  The invariant set itself is never computed point by
point; everything goes through depth-m cylinder covers, which
overestimate it by at most a cylinder diameter.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCurveError,
    GridTooCoarseError,
    IncompatibleLabelError,
    NoBranchError,
)
from .models import ModelSystem, Potential, first_branch, point_distance
from .symbolic import cylinder_rects, partition_sums_through, pressure_spectral

_FULL_TOL = 1e-9
# no grid of more cells than this is built or stepped
GRID_CAP = 1 << 26
# death steps are int16: no more tracking steps than this are asked for
STEP_CAP = int(np.iinfo(np.int16).max)


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

    @classmethod
    def grid(cls, columns) -> "ProductCloud":
        """The grid of one 1-D array of values per axis, in axis order.

        `np.asarray` of it is the C-order mesh, the first axis slowest.
        """
        factors = tuple(np.asarray(c)[:, None] for c in columns)
        return cls(factors, tuple((a,) for a in range(len(factors))))

    def __len__(self) -> int:
        return math.prod(len(f) for f in self.factors)

    def __array__(self, dtype=None, copy=None):
        rows = np.meshgrid(*(np.arange(len(f)) for f in self.factors), indexing="ij")
        out = np.empty((len(self), sum(len(a) for a in self.axes)))
        for factor, axes, idx in zip(self.factors, self.axes, rows):
            out[:, list(axes)] = factor[idx.ravel()]
        return out


def spanned_axes(rects: np.ndarray) -> np.ndarray:
    """Per axis, whether every rectangle of the (N, 2, n) `rects` spans the unit interval, up to `_FULL_TOL`."""
    return (rects[:, 0, :] <= _FULL_TOL).all(axis=0) & (rects[:, 1, :] >= 1 - _FULL_TOL).all(axis=0)


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges first[i], ..., first[i] + count[i] - 1, concatenated."""
    total = np.cumsum(count)
    return np.arange(total[-1] if len(total) else 0) - np.repeat(total - count - first, count)


def _union(lo: np.ndarray, hi: np.ndarray, gap: float = 0.0):
    """Sorted disjoint union of the closed intervals [lo_i, hi_i], each hi_i >= lo_i.

    Intervals at most `gap` apart merge, so the ones left are more than
    `gap` apart.
    """
    if len(lo) == 0:
        return lo, hi
    order = np.argsort(lo)
    lo, top = lo[order], np.maximum.accumulate(hi[order])
    start = np.flatnonzero(np.concatenate([[True], lo[1:] > top[:-1] + gap]))
    return lo[start], top[np.append(start[1:] - 1, len(lo) - 1)]


def _intersect(a_lo, a_hi, b_lo, b_hi):
    """Intersection of two sorted disjoint unions of closed intervals; sorted and disjoint."""
    first = np.searchsorted(b_hi, a_lo)  # the first b that does not end before a starts
    count = np.maximum(np.searchsorted(b_lo, a_hi, "right") - first, 0)
    ia, ib = np.repeat(np.arange(len(a_lo)), count), _ranges(first, count)
    return np.maximum(a_lo[ia], b_lo[ib]), np.minimum(a_hi[ia], b_hi[ib])


def _is_product(rects: np.ndarray, axes) -> bool:
    """True when the (m, 2, n) `rects` are every combination of their intervals along `axes`."""
    index = [np.unique(rects[:, :, a], axis=0, return_inverse=True)[1].ravel() for a in axes]
    return np.unique(index, axis=1).shape[1] == math.prod(np.max(index, axis=1) + 1)


class _CoverDistance:
    """Sup-norm distance to a union of rectangles.

    Axes that every rectangle spans (`spanned_axes`) contribute zero
    distance.  When the rectangles are every combination of their
    intervals along the axes `axes` they vary on, the distance is the
    largest of the distances to each such axis's intervals, merged in
    `merged`, one sorted lookup per axis.  Any other cover has `axes`
    None and is measured rectangle by rectangle (`_brute`).  On the
    torus each axis takes its nearest copy.  By the model's
    `Factorization`, `factors` says the spanned axes split off while
    some axis varies, and `tracked` is `axes` if they can step alone.
    """

    def __init__(self, model: ModelSystem, rects: np.ndarray):
        self.torus = model.space.is_torus
        self.rects = rects
        # the copies of the cover on the torus: each axis takes its own shift
        self.shifts = (-1.0, 0.0, 1.0) if self.torus else (0.0,)
        whole = spanned_axes(rects)
        varying = np.flatnonzero(~whole).tolist()
        self.factors = bool(varying) and model.factorization.splits_off(whole)
        self.axes = varying if len(varying) < 2 or _is_product(rects, varying) else None
        self.merged = [self._merged_intervals(a) for a in self.axes or ()]
        # per axis, the merged starts, then lo[j] and hi[j - 1] for every j that searchsorted returns
        self._ends = [(lo, np.append(lo, np.inf), np.insert(hi, 0, -np.inf)) for lo, hi in self.merged]
        split = self.axes and (self.factors or not whole.any()) and model.factorization.separates(self.axes)
        self.tracked = self.axes if split else None

    def _merged_intervals(self, axis: int):
        mlo, mhi = _union(self.rects[:, 0, axis], self.rects[:, 1, axis], 1e-15)
        return np.concatenate([mlo + s for s in self.shifts]), np.concatenate([mhi + s for s in self.shifts])

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.axes is None:
            return self._brute(pts)
        per_axis = (self.along_axis(pts[:, a], i) for i, a in enumerate(self.axes))
        return functools.reduce(np.maximum, per_axis, np.zeros(pts.shape[0]))

    def along_axis(self, x: np.ndarray, i: int = 0) -> np.ndarray:
        """Distance from coordinates `x` along `axes[i]` to its merged intervals.

        With lo[j - 1] < x <= lo[j], only the gap past the end of interval
        j - 1 and the gap before the start of interval j can be positive,
        and the smaller one is the distance.
        """
        lo, lo_next, hi_prev = self._ends[i]
        j = np.searchsorted(lo, x)
        return np.maximum(np.minimum(x - hi_prev[j], lo_next[j] - x), 0.0)

    def _brute(self, pts: np.ndarray) -> np.ndarray:
        chunk = max(1, int(4e6 / max(1, self.rects.shape[0])))
        lo, hi = self.rects[None, :, 0, :], self.rects[None, :, 1, :]
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], chunk):
            q = pts[start : start + chunk, None, :]  # (B, 1, n)
            gaps = (np.maximum(np.maximum(lo + s - q, q - (hi + s)), 0.0) for s in self.shifts)
            out[start : start + chunk] = functools.reduce(np.minimum, gaps).max(axis=2).min(axis=1)
        return out


def cover_rects(model: ModelSystem, epsilon: float):
    """Depth-m cylinder cover with shrinking extents below epsilon/4.

    Returns (depth, rects).  The search walks `cylinder_rects` down
    until the cover is fine enough, holding depth 1 and the level in
    hand only; the rectangles are those `cylinders(model, m)` returns,
    bit for bit.  Axes whose cylinder extent never shrinks (e.g.
    coverings of the whole torus) are ignored; if no axis shrinks at all
    the cover is the branch domains themselves and distances to it are
    exact because the invariant set fills the space.
    """
    for depth, rects in enumerate(cylinder_rects(model), 1):
        ext = (rects[:, 1] - rects[:, 0]).max(axis=0)
        if depth == 1:
            first, base_ext = rects, ext
        shrinking = ext < base_ext - 1e-12
        if depth > 1 and not shrinking.any():
            return 1, np.ascontiguousarray(first)
        if shrinking.any() and ext[shrinking].max() < 0.25 * epsilon:
            return depth, np.ascontiguousarray(rects)


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


def grid_axis(resolution: int) -> np.ndarray:
    """The `resolution` cell centres of a midpoint grid on the unit interval."""
    return (np.arange(resolution) + 0.5) / resolution


@functools.lru_cache(maxsize=2)
def _sample_axis(resolution: int, seed: int = 0) -> np.ndarray:
    """Stratified sample: one seeded uniform draw per grid cell.

    A plain midpoint grid can alias against cylinder structure that
    shares its lattice (a lambda_u = 4 horseshoe has dyadic cylinders,
    and dyadic cell centers occupy a residue class the cylinders avoid
    entirely).  Per-cell jitter removes every such congruence while
    keeping the sample deterministic in the seed.  The draw is a pure
    function of its arguments, so the last two are kept (a sweep draws
    the same main and cross axes row after row) and returned read-only.
    """
    rng = np.random.default_rng(seed)
    axis = (np.arange(resolution) + rng.random(resolution)) / resolution
    axis.setflags(write=False)
    return axis


def _refuse_large_grid(dist, n: int, resolution: int, what: str) -> None:
    """Refuse more than `GRID_CAP` cells to step: one row per tracked axis, else the full grid."""
    stepped = resolution**n if dist.tracked is None else resolution * len(dist.tracked)
    if stepped > GRID_CAP:
        raise GridTooCoarseError(
            f"{what} too large at {resolution} per axis: {stepped} cells to step exceed {GRID_CAP}"
        )


def _axis_step(model: ModelSystem, axis: int):
    """`model.step` for the coordinates along `axis` alone; branch -1 means escaped.

    Branches are chosen by `first_branch`, as in `ModelSystem.branch_of`.
    """
    lo, hi, slope, offset = model.factorization.rows[axis]

    def step(x):
        x = model.wrap(x)
        branch = first_branch(x, lo, hi)
        # escaped coordinates get the last branch's image, which the caller drops
        return model.wrap(x * slope[branch] + offset[branch]), branch

    return step


def _refuse_many_steps(what: str, steps: int) -> None:
    """Refuse more than `STEP_CAP` tracking steps, the most a death step can count."""
    if steps > STEP_CAP:
        raise ValueError(f"{what} {steps} exceeds the limit of {STEP_CAP} tracking steps")


def _death_steps(model, pts, epsilon, k_max, dist, i=0):
    """First step index at which tracking fails, k_max if it never does.

    `pts` is either an (N, n) array, stepped with `model.step`, or the N
    coordinates along `dist.axes[i]`, an axis of `dist.tracked`, stepped
    alone; a point dies at the least death of its tracked coordinates.
    Only the points still alive are carried, as coordinates with their
    indices into `pts`, and compacted only in a step where some die.
    """
    if pts.ndim == 1:
        measure, step = functools.partial(dist.along_axis, i=i), _axis_step(model, dist.axes[i])
    else:
        measure, step = dist, model.step
    death = np.full(len(pts), k_max, dtype=np.int16)
    x, idx = pts, np.arange(len(pts))
    for k in range(k_max):
        far = measure(x) >= epsilon
        if far.any():
            death[idx[far]] = k
            x, idx = x[~far], idx[~far]
        if k == k_max - 1 or idx.size == 0:
            break
        x, branch = step(x)
        kept = branch >= 0
        if not kept.all():
            death[idx[~kept]] = k + 1
            x, idx = x[kept], idx[kept]
    return death


def _tracks_forever(model: ModelSystem, dist: _CoverDistance, epsilon: float) -> bool:
    """True when no finite point ever fails tracking, so every death step is k_max.

    That holds for a zero cover on the torus when some branch domain
    spans the torus and epsilon > 0: the distance to the cover is 0 <
    epsilon everywhere, and `model.step` wraps every finite point into
    [0, 1]^n (a float x % 1.0 lies in [0, 1]), where the spanning domain
    gives it a branch.  `_death_steps` would keep every point for all
    its steps, so its result is known without stepping.
    """
    return (
        dist.axes == []
        and dist.torus
        and epsilon > 0
        and np.all((model.lo <= 0.0) & (model.hi >= 1.0), axis=1).any()
    )


def _grid_deaths(model, dist, epsilon, k_max, values, threads, i=None):
    """`_death_steps`, in chunks, of the grid with `values` on every axis, or of their row along `dist.axes[i]`."""
    pts = values if i is not None else np.asarray(ProductCloud.grid([values] * model.n))
    total = len(pts)
    death = np.empty(total, dtype=np.int16)
    n_chunks = max(1, min(64, total // 4096))
    bounds = np.linspace(0, total, n_chunks + 1).astype(int)

    def work(ci):
        a, b = bounds[ci], bounds[ci + 1]
        death[a:b] = _death_steps(model, pts[a:b], epsilon, k_max, dist, i)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # deferred: only threaded grids use it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(n_chunks)))
    else:
        for ci in range(n_chunks):
            work(ci)
    return death.reshape((len(values),) * (model.n if i is None else 1))


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
    band.  Cells are counted, as exact integers, as products of counts
    per factor: a row of cells along each tracked axis, or the full
    grid; axes that no factor holds multiply by the grid size.  A zero
    cover on the torus with a branch domain spanning it has no factor
    (`_tracks_forever`).  More than `GRID_CAP` stepped cells, or in all
    than a float holds, or a `k_max` above `STEP_CAP` are refused first.

    Results are independent of `threads`: the grid is chunked the same
    way regardless, and only integer cell counts are aggregated.
    """
    n = model.n
    cell = 1.0 / grid_resolution
    if cell > 0.25 * epsilon:
        raise GridTooCoarseError(
            f"grid cell {cell} exceeds epsilon/4 = {0.25 * epsilon}"
        )
    _refuse_many_steps("k_max", k_max)
    if grid_resolution**n > sys.float_info.max:  # a count of cells might not convert to a float
        raise GridTooCoarseError(f"grid too large at {grid_resolution} per axis in {n} dimensions: "
                                 f"its {grid_resolution}^{n} cells pass the float range")
    depth, rects = cover_rects(model, epsilon)
    dist = _CoverDistance(model, rects)
    _refuse_large_grid(dist, n, grid_resolution, "grid")
    # the factors: one row per tracked axis, else the full grid
    if _tracks_forever(model, dist, epsilon):
        factors = []
    else:
        factors = [None] if dist.tracked is None else range(len(dist.tracked))
    deaths = [_grid_deaths(model, dist, epsilon, k_max, grid_axis(grid_resolution), threads, i) for i in factors]

    # a cell dies at the least death of its factors; so do lo and hi, the least
    # and largest death over the cell and its 2n neighbours, read per factor
    alive, low, high = [], [], []
    for death in deaths:
        padded = np.pad(death, 1, mode="wrap" if model.space.is_torus else "edge")
        inner = (slice(1, -1),) * death.ndim
        lo = hi = death
        for ax in range(death.ndim):
            for side in (slice(None, -2), slice(2, None)):
                near = padded[inner[:ax] + (side,) + inner[ax + 1 :]]
                lo, hi = np.minimum(lo, near), np.maximum(hi, near)
        for tally, ends in ((alive, death), (low, lo), (high, hi)):  # per k, the exact count of ends >= k
            tally.append((ends.size - np.cumsum(np.bincount(ends.ravel(), minlength=k_max + 1))[:k_max]).astype(object))
    unheld = np.full(k_max, grid_resolution ** (n - sum(d.ndim for d in deaths)), dtype=object)
    counts = math.prod(alive, start=unheld)
    # hi >= k: all factors alive, or one not but with a live neighbour (a neighbour differs in one factor)
    reach = sum(((h - a) * math.prod(alive[:f] + alive[f + 1 :], start=unheld)
                 for f, (a, h) in enumerate(zip(alive, high))), start=counts)
    cellvol = cell**n
    volumes = (counts * cellvol).astype(float)
    bands = ((reach - math.prod(low, start=unheld)) * cellvol).astype(float)  # cells with lo < k <= hi

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
    return PressureEstimate(
        value=pressure_spectral(model, pot),
        method="spectral",
        extras={"potential": pot.label},
    )


def ols_line(xs: np.ndarray, ys: np.ndarray):
    """(slope, intercept, RMS residual) of the least-squares line through (xs, ys)."""
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
    slope, _, rms = ols_line(ks_w[fit], np.log(vols_w[fit]))
    slope_full, _, _ = ols_line(ks_w, np.log(vols_w))
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


def pressure_from_partition_sums(model: ModelSystem, pot: Potential, k_max: int) -> PressureEstimate:
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
    z = partition_sums_through(model, pot, k_max)
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
    slope_ols, _, _ = ols_line(ks[sel], logs[sel])
    intercept = float(np.mean(logs[sel] - value * ks[sel]))
    rms = float(np.sqrt(np.mean((logs[sel] - intercept - value * ks[sel]) ** 2)))
    return PressureEstimate(
        value=value,
        method="partition_sum",
        window=(fit_lo, k_max),
        residual=rms,
        curve={"k": ks.tolist(), "z": z.tolist(), "log_z": logs.tolist()},
        extras={"ols_slope": slope_ols, "potential": pot.label},
    )


# -- local stable sets --------------------------------------------------------


def cover_distance(model: ModelSystem, epsilon: float) -> _CoverDistance:
    """Distance to the cylinder cover that `cover_rects` picks for `epsilon`."""
    return _CoverDistance(model, cover_rects(model, epsilon)[1])


def stable_resolution(model: ModelSystem, depth: int, cover: _CoverDistance) -> int:
    """Samples per axis that resolve the structure of a `depth`-step stable sample.

    Tracking axis by axis (`cover.tracked`, or a 1-D model) takes
    4 lambda_u^depth, as a power of two from 2^11 to 2^16; a full
    n-dimensional grid stays at 2^11 per axis to keep it affordable.
    """
    if model.n > 1 and cover.tracked is None:
        return 1 << 11
    try:
        need = 4.0 * float(np.max(model.lambda_u)) ** depth
    except OverflowError:  # past the float range, so past the cap below
        need = math.inf
    res = 1 << 11
    while res < need and res < (1 << 16):
        res <<= 1
    return res


def _pullback_tol(model: ModelSystem, axis: int, epsilon: float) -> float:
    """A margin above the rounding of one tracking step along `axis`.

    One step rounds the product, the sum and the wrap, the distance test
    one difference, and one level of `_tracking_superset` a few sums and
    a quotient.  Each error is a few units in the last place of the
    largest magnitude in play, |slope| |x| + |offset| or 1 + epsilon;
    2^-30 times that magnitude exceeds their total about 2^20-fold.
    """
    lo, hi, slope, offset = model.factorization.rows[axis]
    reach = np.abs(slope) * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))) + np.abs(offset)
    return 2.0**-30 * max(1.0 + epsilon, float(reach.max()))


def _tracking_superset(model, cover, epsilon, depth, tol, i=0, limit=math.inf):
    """Sorted disjoint closed intervals holding every coordinate along `cover.axes[i]` that tracks `depth` steps.

    Needs `cover.tracked`.  The last level is the epsilon-neighbourhood
    of the axis's merged cover intervals; each earlier level is
    that neighbourhood intersected with the union of the pullbacks of
    the next level through every branch, cut to the branch domain.
    Every neighbourhood, domain and pulled-back target is widened by
    `tol`, so with `tol` above the rounding of one step (see
    `_pullback_tol`) a coordinate that the float loop of `_death_steps`
    keeps lies inside, by induction from the last level back.  On the
    torus the levels live on [-tol, 1 + tol] and the targets repeat at
    every integer shift an image can reach.  The pullback stops early,
    leaving a larger superset, once a level would cost more than
    `limit` interval images.
    """
    lo, hi, slope, offset = model.factorization.rows[cover.axes[i]]
    merged_lo, merged_hi = cover.merged[i]
    near = _union(merged_lo - (epsilon + tol), merged_hi + (epsilon + tol))
    symbol, shift = np.arange(model.nsym), np.zeros(model.nsym)
    if cover.torus:
        near = _intersect(*near, np.array([-tol]), np.array([1.0 + tol]))
        ends = np.stack([slope * (lo - tol), slope * (hi + tol)]) + offset
        first = np.floor(ends.min(axis=0)) - 1
        count = (np.ceil(ends.max(axis=0)) + 1 - first).astype(int)
        if count.sum() > limit:
            return near
        symbol, shift = np.repeat(symbol, count), _ranges(first, count)
    # one row per branch and target shift: x * slope + offset lies in
    # [t_lo, t_hi] + shift iff x lies between (t_lo + shift - offset) / slope
    # and (t_hi + shift - offset) / slope
    lo, hi = lo[symbol, None] - tol, hi[symbol, None] + tol
    slope, base = slope[symbol, None], shift[:, None] - offset[symbol, None]
    keep_lo, keep_hi = near
    for _ in range(depth - 1):
        if len(symbol) * len(keep_lo) > limit:
            break
        a, b = (keep_lo - tol + base) / slope, (keep_hi + tol + base) / slope
        x_lo, x_hi = np.maximum(np.minimum(a, b), lo), np.minimum(np.maximum(a, b), hi)
        ok = x_lo <= x_hi
        x_lo, x_hi = x_lo[ok], x_hi[ok]
        if cover.torus:  # a state of 1 wraps to 0 before its branch is chosen
            x_lo, x_hi = np.append(x_lo, x_lo + 1.0), np.append(x_hi, x_hi + 1.0)
        keep_lo, keep_hi = _intersect(*near, *_union(x_lo, x_hi))
    return keep_lo, keep_hi


def sample_local_stable_set(
    model: ModelSystem, epsilon: float, depth: int, samples: int = 2048,
    cross_resolution: int = 1024, seed: int = 0, cover: _CoverDistance | None = None,
) -> np.ndarray | ProductCloud:
    """Sample points whose first `depth` iterates stay epsilon-close to the cover.

    A superset of the true local stable set sample that shrinks as depth
    grows.  Points come from a stratified grid (one seeded draw per
    cell), so the cloud is deterministic in the seed.  With tracked axes
    (`cover.tracked`, as in the horseshoe family) the cloud is a
    `ProductCloud`: on each tracked axis the `samples` values that
    survive, on every other axis a grid.  Only the values inside the
    axis's `_tracking_superset` are stepped; its margin `tol` exceeds
    the rounding of a step, so the death loop alone decides which
    survive.  When no point can fail tracking (`_tracks_forever`) the
    whole grid is kept, as a `ProductCloud`; otherwise the full
    n-dimensional grid is stepped and its survivors returned as an
    array.  `cover` is `cover_distance(model, epsilon)` when the caller
    has it already.  More than `GRID_CAP` stepped cells, or a `depth`
    above `STEP_CAP`, are refused before any sample is drawn.
    """
    if model.kind != "diffeo":
        raise IncompatibleLabelError("local stable sets need the diffeo kind")
    _refuse_many_steps("depth", depth)
    dist = cover if cover is not None else cover_distance(model, epsilon)
    n = model.n
    _refuse_large_grid(dist, n, samples, "stable-set grid")
    axis_vals = _sample_axis(samples, seed)
    if _tracks_forever(model, dist, epsilon):
        return ProductCloud.grid([axis_vals] * n)
    if dist.tracked is not None:
        columns = [_sample_axis(min(samples, cross_resolution), seed + 1)] * n
        for i, axis in enumerate(dist.tracked):
            tol = _pullback_tol(model, axis, epsilon)
            lo, hi = _tracking_superset(model, dist, epsilon, depth, tol, i, limit=samples)
            first = np.searchsorted(axis_vals, lo)  # the samples are sorted
            inside = _ranges(first, np.searchsorted(axis_vals, hi, "right") - first)
            columns[axis] = axis_vals[inside[_death_steps(model, axis_vals[inside], epsilon, depth, dist, i) >= depth]]
        return ProductCloud.grid(columns)
    pts = np.asarray(ProductCloud.grid([axis_vals] * n))
    return pts[_death_steps(model, pts, epsilon, depth, dist) >= depth]
