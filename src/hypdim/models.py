"""Piecewise-affine hyperbolic and expanding model systems.

Every map here is a finite family of affine branches on axis-aligned
rectangles inside the unit cube (or the unit torus, with coordinates
wrapped mod 1).  The derivative is constant on each branch, so expansion
rates, potentials and pressures all have closed forms downstream --
which is what makes the estimators checkable against exact oracles.

All types are immutable after construction; arrays are marked read-only.
They can be shared across threads without synchronization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IncompatibleLabelError,
    NoBranchError,
    ParameterOutOfRangeError,
)

GEOMETRIES = ("cube", "torus")
KINDS = ("diffeo", "expanding")
POTENTIAL_LABELS = ("phi_u", "phi_s", "phi", "custom")


def _no_constant(token: str):
    raise ValueError(f"model files hold finite numbers only, not {token}")


_MODEL_DECODER = json.JSONDecoder(parse_constant=_no_constant)


def _ro(values, dtype=float):
    """Return a read-only ndarray copy of `values`."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AmbientSpace:
    """Where the model lives: a unit cube in R^n or the n-torus."""

    dim: int
    geometry: str = "cube"

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterOutOfRangeError("ambient dimension must be >= 1")
        if self.geometry not in GEOMETRIES:
            raise ParameterOutOfRangeError(f"geometry must be one of {GEOMETRIES}")

    @property
    def is_torus(self) -> bool:
        return self.geometry == "torus"


@dataclass(frozen=True)
class AffineBranch:
    """One affine branch x -> linear @ x + offset on a closed rectangle: a row of `ModelSystem`'s arrays."""

    symbol: int
    lo: np.ndarray
    hi: np.ndarray
    linear: np.ndarray
    offset: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return pts @ self.linear.T + self.offset


def _stacked(rows) -> np.ndarray:
    """One field of every branch as one float array, the symbol first; rows of unequal shape are refused."""
    rows = [np.asarray(row, dtype=float) for row in rows]
    if len({row.shape for row in rows}) > 1:
        raise ParameterOutOfRangeError("branch arrays have inconsistent shapes")
    return np.array(rows)


def first_branch(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per point, the lowest symbol whose closed domain [lo[s], hi[s]] holds it; -1 where none does.

    The points are the rows of an (N, d) array with (m, d) domain ends,
    or N coordinates along one axis with the m ends on that axis.
    """
    branch = np.full(len(x), -1, dtype=np.int64)
    for s in range(len(lo) - 1, -1, -1):  # lower symbols overwrite higher
        inside = (lo[s] <= x) & (x <= hi[s])
        branch[inside if inside.ndim == 1 else inside.all(axis=1)] = s
    return branch


class Factorization:
    """Which axes of a model split apart as product factors; `ModelSystem.factorization` builds it once.

    `rows[a]` is axis a's lo, hi, slope and offset, one entry per symbol.
    `block[a]` is the lowest axis of a's coupling block, a connected
    component of the axes that nonzero off-diagonal entries of the
    linear parts link.  `spans[a]`: every branch domain spans [0, 1]
    along a; `inside[a]`: every branch maps the unit cube into [0, 1]
    along a (always, on the torus).  No check carries rounding slack, so
    a coordinate on axes that split off stays inside every domain for
    good.  `whole` is the spanning axes if they split off together.
    """

    def __init__(self, lo, hi, linear, offset, torus: bool):
        n = lo.shape[1]
        self.rows = np.stack([lo.T, hi.T, np.diagonal(linear, axis1=1, axis2=2).T, offset.T], axis=1)
        link = (linear != 0).any(axis=0) | np.eye(n, dtype=bool)
        self.block = np.linalg.matrix_power(link | link.T, n).argmax(axis=1)  # reach along up to n links
        image = np.stack([np.minimum(linear, 0.0), np.maximum(linear, 0.0)]).sum(axis=3) + offset
        self.inside = np.full(n, True) if torus else (image[0] >= 0.0).all(axis=0) & (image[1] <= 1.0).all(axis=0)
        self.spans = ((lo <= 0.0) & (hi >= 1.0)).all(axis=0)
        self.whole = self.spans & self.splits_off(self.spans)
        for arr in (self.rows, self.block, self.inside, self.spans, self.whole):
            arr.setflags(write=False)

    def splits_off(self, mask) -> bool:
        """True iff the axes of the boolean `mask`, at least one, are whole blocks that span and stay inside."""
        mask = np.asarray(mask, dtype=bool)
        return bool(mask.any() and np.array_equal(mask, mask[self.block]) and (self.spans & self.inside)[mask].all())

    def in_order(self, axes) -> bool:
        """True iff the rows along `axes` are every combination of their distinct rows, once each and in
        lexicographic order: the first axis slowest, each axis's rows ranked by first appearance."""
        index = []
        for a in axes:
            _, first, inverse = np.unique(self.rows[a].T, axis=0, return_index=True, return_inverse=True)
            index.append(np.argsort(np.argsort(first))[inverse.ravel()])
        shape, m = (np.max(index, axis=1) + 1).tolist(), self.rows.shape[2]
        return m == math.prod(shape) and np.array_equal(np.ravel_multi_index(tuple(index), shape), np.arange(m))

    def separates(self, axes) -> bool:
        """True iff each axis of `axes` is a block of its own and, for two or more, they are `in_order`: the lowest
        symbol holding a point then has each axis's own pick (`first_branch`), so each axis steps alone."""
        return bool((np.bincount(self.block)[self.block[axes]] == 1).all()) and (len(axes) < 2 or self.in_order(axes))


def torus_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-coordinate distance on the unit torus."""
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def point_distance(space: AmbientSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sup-norm distance between point arrays, torus-wrapped if needed."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    d = torus_delta(a, b) if space.is_torus else np.abs(a - b)
    return d.max(axis=1)


@dataclass(frozen=True)
class ModelSystem:
    """A piecewise-affine map together with its symbolic coding.

    Branch s maps x -> linear[s] @ x + offset[s] on the closed rectangle
    [lo[s], hi[s]]: `lo`, `hi` and `offset` are (m, n) and `linear` is
    (m, n, n), read-only, the symbol first.  `branches` views the same
    data as `AffineBranch` rows.  `transition[i, j] = 1` iff symbol j
    may follow symbol i.  `lambda_u` and `lambda_s` hold the per-branch
    unstable/stable Jacobian magnitudes |det Df| restricted to the
    expanding/contracting directions; for the built-in constructors
    these are exact.
    """

    space: AmbientSpace
    lo: np.ndarray
    hi: np.ndarray
    linear: np.ndarray
    offset: np.ndarray
    kind: str
    unstable_dim: int
    stable_dim: int
    transition: np.ndarray
    lambda_u: np.ndarray
    lambda_s: np.ndarray | None = None
    strict: bool = True

    def __post_init__(self):
        for name in ("lo", "hi", "linear", "offset"):
            object.__setattr__(self, name, _ro(getattr(self, name)))
        object.__setattr__(self, "transition", _ro(self.transition, dtype=np.int8))
        object.__setattr__(self, "lambda_u", _ro(self.lambda_u))
        if self.lambda_s is not None:
            object.__setattr__(self, "lambda_s", _ro(self.lambda_s))
        n = self.space.dim
        rows = self.lo.shape[:1] + (n,)
        if not self.lo.shape == self.hi.shape == self.offset.shape == rows or self.linear.shape != rows + (n,):
            raise ParameterOutOfRangeError("branch arrays have inconsistent shapes")
        if (self.hi < self.lo).any():
            raise ParameterOutOfRangeError("branch domain rectangle is empty")
        m = len(self.lo)
        if self.kind not in KINDS:
            raise ParameterOutOfRangeError(f"kind must be one of {KINDS}")
        if self.kind == "expanding":
            if self.unstable_dim != n or self.stable_dim != 0:
                raise ParameterOutOfRangeError("expanding models have d_u = n, d_s = 0")
        else:
            if self.unstable_dim + self.stable_dim != n:
                raise ParameterOutOfRangeError("diffeo models need d_u + d_s = n")
        if self.transition.shape != (m, m):
            raise ParameterOutOfRangeError("transition matrix size must equal branch count")
        if (self.transition.sum(axis=0) == 0).any() or (self.transition.sum(axis=1) == 0).any():
            raise ParameterOutOfRangeError("transition matrix needs a 1 in every row and column")
        if self.lambda_u.shape != (m,):
            raise ParameterOutOfRangeError("lambda_u must have one entry per branch")
        if self.strict:
            # adapted-metric convention: one-step expansion/contraction, c = 1
            if (self.lambda_u <= 1.0).any():
                raise ParameterOutOfRangeError("lambda_u entries must exceed 1")
            if self.kind == "diffeo":
                if self.lambda_s is None or (self.lambda_s >= 1.0).any() or (self.lambda_s <= 0).any():
                    raise ParameterOutOfRangeError("diffeo models need lambda_s entries in (0, 1)")
                if (np.abs(np.linalg.det(self.linear)) < 1e-300).any():
                    raise ParameterOutOfRangeError("diffeo branches need invertible linear parts")

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.space.dim

    @property
    def nsym(self) -> int:
        return len(self.lo)

    @cached_property
    def branches(self) -> tuple:
        """Branch s as `AffineBranch(s, lo[s], hi[s], linear[s], offset[s])`, rows of the read-only arrays."""
        return tuple(map(AffineBranch, range(self.nsym), self.lo, self.hi, self.linear, self.offset))

    def wrap(self, points: np.ndarray) -> np.ndarray:
        return points % 1.0 if self.space.is_torus else points

    def branch_of(self, points: np.ndarray) -> np.ndarray:
        """Branch index per point, -1 where no branch applies.

        Points on shared boundaries resolve to the lowest symbol index.
        """
        return first_branch(self.wrap(np.atleast_2d(np.asarray(points, dtype=float))), self.lo, self.hi)

    def step(self, points: np.ndarray):
        """One map step for an (N, n) array; returns (images, branch_idx).

        Escaped points keep their coordinates and get branch index -1.
        """
        pts = self.wrap(np.atleast_2d(np.asarray(points, dtype=float)))
        idx = self.branch_of(pts)
        out = pts.copy()
        for s in range(self.nsym):
            sel = idx == s
            if sel.any():
                out[sel] = self.wrap(pts[sel] @ self.linear[s].T + self.offset[s])
        return out, idx

    @cached_property
    def factorization(self) -> Factorization:
        """The model's `Factorization`, built once, on first use, from the four branch arrays."""
        return Factorization(self.lo, self.hi, self.linear, self.offset, self.space.is_torus)

    @property
    def uniform_linear(self) -> np.ndarray | None:
        """The common linear part if all branches share one, else None."""
        first = self.linear[0]
        return first if (self.linear == first).all() else None

    @property
    def min_branch_gap(self) -> float:
        """Smallest sup-norm gap between two branch domains (0 if they touch)."""
        gaps = np.maximum(np.maximum(self.lo[:, None] - self.hi, self.lo - self.hi[:, None]), 0.0).max(axis=2)
        np.fill_diagonal(gaps, np.inf)  # a domain and itself are no pair
        return float(gaps.min()) if self.nsym > 1 else 0.0

    @property
    def branch_separation(self) -> float:
        """Lower bound for how far inverse branches pull one point apart.

        Distinct depth-k cylinder centers are (k, delta)-separated for any
        delta below this value: at the last index where two words differ,
        their orbit points are inverse-branch images of the same cylinder
        center.  The argument needs diagonal branch matrices whose
        inverses contract along the axis considered; everywhere else the
        bound degrades to zero and only the domain gap remains.
        """
        if np.any(self.linear != np.where(np.eye(self.linear.shape[1], dtype=bool), self.linear, 0.0)):
            return 0.0
        a, b = np.triu_indices(self.nsym, 1)  # every pair of branches a < b
        diag = np.diagonal(self.linear, axis1=1, axis2=2)
        inverse, shift = 1.0 / diag, self.offset / diag
        contracting = (np.abs(inverse[a]) <= 1.0) & (np.abs(inverse[b]) <= 1.0)
        if not contracting.any(axis=1).all():
            return 0.0  # some pair has no contracting axis
        # g(q) = inv_a(q) - inv_b(q), affine per axis over q in [0, 1]
        coef, const = inverse[a] - inverse[b], shift[b] - shift[a]
        lower = np.where(const * (coef + const) < 0, 0.0, np.minimum(np.abs(const), np.abs(coef + const)))
        # per pair the largest bound over its contracting axes; the least of them, skipping NaN
        best = np.fmin.reduce(np.max(lower, axis=1, where=contracting, initial=-np.inf), initial=np.inf)
        return float(best) if best < math.inf else 0.0

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "space": {"dim": self.space.dim, "geometry": self.space.geometry},
            "kind": self.kind,
            "branches": [
                {"symbol": symbol, "domain": {"lo": lo, "hi": hi}, "linear": linear, "offset": offset}
                for symbol, (lo, hi, linear, offset) in enumerate(
                    zip(self.lo.tolist(), self.hi.tolist(), self.linear.tolist(), self.offset.tolist())
                )
            ],
            "transition": self.transition.tolist(),
            "unstable_dim": self.unstable_dim,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelSystem":
        """Load the JSON model schema.

        User-supplied hyperbolicity data is accepted as declared: the
        splitting is taken from `unstable_dim` and the per-branch rates
        from singular values, without verifying the hyperbolic-set
        conditions.  A branch whose domain, linear part or offset holds a
        number that is not finite is refused.
        """
        return cls._from_dict(data)[0]

    @classmethod
    def _from_dict(cls, data: dict):
        """(model, singular values of each branch's linear part, descending)."""
        space = AmbientSpace(int(data["space"]["dim"]), data["space"]["geometry"])
        kind = data["kind"]
        rows = sorted(data["branches"], key=lambda br: int(br["symbol"]))
        if not rows:
            raise ParameterOutOfRangeError("the model has no branch: its branches list is empty")
        if [int(br["symbol"]) for br in rows] != list(range(len(rows))):
            raise ParameterOutOfRangeError("branch symbols must be 0..m-1 in order")
        arrays = {
            "lo": _stacked([br["domain"]["lo"] for br in rows]),
            "hi": _stacked([br["domain"]["hi"] for br in rows]),
            "linear": _stacked([np.atleast_2d(np.asarray(br["linear"], dtype=float)) for br in rows]),
            "offset": _stacked([br["offset"] for br in rows]),
        }
        if not all(np.isfinite(values).all() for values in arrays.values()):  # past the float range parses as inf
            s, name = next(
                (s, name) for s in range(len(rows)) for name in arrays if not np.isfinite(arrays[name][s]).all()
            )
            raise ParameterOutOfRangeError(f"branch {s} has a non-finite {name}: {arrays[name][s].tolist()}")
        d_u = int(data["unstable_dim"])
        d_s = 0 if kind == "expanding" else space.dim - d_u
        sv = np.linalg.svd(arrays["linear"], compute_uv=False)
        return cls(
            space=space,
            **arrays,
            kind=kind,
            unstable_dim=d_u,
            stable_dim=d_s,
            transition=np.asarray(data["transition"]),
            lambda_u=sv[:, :d_u].prod(axis=1),
            lambda_s=sv[:, d_u:].prod(axis=1) if kind == "diffeo" else None,
            strict=False,
        ), sv

    @classmethod
    def from_json(cls, text: str) -> "ModelSystem":
        """`from_json_dict` of a model file; refuses NaN, Infinity and a branch without a finite inverse."""
        model, sv = cls._from_dict(_MODEL_DECODER.decode(text))
        for s, least in enumerate(sv[:, -1].tolist()):
            if not (least > 0.0 and 1.0 / least < math.inf):
                raise ParameterOutOfRangeError(f"branch {s} has no finite inverse: {model.linear[s].tolist()}")
        return model


@dataclass(frozen=True)
class Potential:
    """A locally constant weight: one real value per branch symbol."""

    values: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "values", _ro(self.values))
        if self.label not in POTENTIAL_LABELS:
            raise IncompatibleLabelError(f"label must be one of {POTENTIAL_LABELS}")

    @classmethod
    def zero(cls, nsym: int) -> "Potential":
        return cls(np.zeros(nsym), "custom")

    def shifted(self, c: float) -> "Potential":
        """The potential plus a constant (label degrades to custom)."""
        return Potential(self.values + c, "custom")


# -- operations ----------------------------------------------------------


def evaluate(model: ModelSystem, point) -> np.ndarray | None:
    """Apply the map once; None signals the point escaped the branches."""
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    image, idx = model.step(pts)
    if idx[0] < 0:
        return None
    return image[0]


def jacobian(model: ModelSystem, point) -> np.ndarray:
    """Derivative at `point` (constant on each branch)."""
    idx = model.branch_of(np.atleast_2d(np.asarray(point, dtype=float)))
    if idx[0] < 0:
        raise NoBranchError(f"point {point} lies in no branch domain")
    return model.linear[idx[0]]


def potential(model: ModelSystem, label: str) -> Potential:
    """Build one of the standard per-symbol potentials.

    phi_u = -log |det Df | E^u|,  phi_s = +log |det Df | E^s|,
    phi   = -log |det Df|  (branch-wise in all cases).
    """
    if label == "phi_u":
        return Potential(-np.log(model.lambda_u), "phi_u")
    if label == "phi_s":
        if model.kind != "diffeo":
            raise IncompatibleLabelError("phi_s needs stable directions (diffeo kind)")
        return Potential(np.log(model.lambda_s), "phi_s")
    if label == "phi":
        return Potential(-np.log(np.abs(np.linalg.det(model.linear))), "phi")
    raise IncompatibleLabelError(f"unknown potential label {label!r}")


# -- built-in constructors -------------------------------------------------


def build_linear_horseshoe(lambda_u: float, lambda_s: float) -> ModelSystem:
    """Two-branch affine horseshoe on the unit square.

    Branch domains are the two vertical strips of width 1/lambda_u at the
    left and right edges; each maps affinely across the square, expanding
    horizontally by lambda_u and contracting vertically by lambda_s.  The
    invariant set is the product of a lambda_u-Cantor set (horizontal)
    and a lambda_s-Cantor set (vertical).
    """
    if not lambda_u > 2.0:
        raise ParameterOutOfRangeError("horseshoe needs lambda_u > 2")
    if not 0.0 < lambda_s < 0.5:
        raise ParameterOutOfRangeError("horseshoe needs lambda_s in (0, 1/2)")
    w = 1.0 / lambda_u
    return ModelSystem(
        space=AmbientSpace(2, "cube"),
        lo=[[0.0, 0.0], [1.0 - w, 0.0]],
        hi=[[w, 1.0], [1.0, 1.0]],
        linear=[[[lambda_u, 0.0], [0.0, lambda_s]]] * 2,
        offset=[[0.0, 0.0], [-(lambda_u - 1.0), 1.0 - lambda_s]],
        kind="diffeo",
        unstable_dim=1,
        stable_dim=1,
        transition=np.ones((2, 2)),
        lambda_u=np.array([lambda_u, lambda_u]),
        lambda_s=np.array([lambda_s, lambda_s]),
    )


def build_doubling_map(d: int = 2) -> ModelSystem:
    """Degree-d expanding circle map x -> d*x mod 1; the repeller is S^1."""
    if d < 2:
        raise ParameterOutOfRangeError("degree must be >= 2")
    return build_cantor_repeller(d, range(d))  # every digit kept


def build_cantor_repeller(slope: int, kept_branches) -> ModelSystem:
    """x -> slope*x mod 1 restricted to the kept digit branches.

    The repeller is the self-similar set on the kept digits; with
    slope=3 and digits {0, 2} that is the middle-third Cantor set, with
    all digits kept it is the whole circle.
    """
    if int(slope) != slope or slope < 2:
        raise ParameterOutOfRangeError("slope must be an integer >= 2")
    slope = int(slope)
    kept = sorted(set(int(b) for b in kept_branches))
    if not kept or any(b < 0 or b >= slope for b in kept):
        raise ParameterOutOfRangeError("kept_branches must be a nonempty subset of 0..slope-1")
    digit = np.array(kept, dtype=float)[:, None]
    m = len(kept)
    return ModelSystem(
        space=AmbientSpace(1, "torus"),
        lo=digit / slope,
        hi=(digit + 1) / slope,
        linear=np.full((m, 1, 1), float(slope)),
        offset=-digit,
        kind="expanding",
        unstable_dim=1,
        stable_dim=0,
        transition=np.ones((m, m)),
        lambda_u=np.full(m, float(slope)),
    )


def build_golden_mean() -> ModelSystem:
    """Slope-2 expanding interval map realizing the golden-mean shift.

    Branch 0 maps [0, 1/2] onto [0, 1], branch 1 maps [1/2, 3/4] onto
    [0, 1/2]; symbol 1 can only be followed by symbol 0, so the coding is
    the subshift with transition matrix [[1, 1], [1, 0]].
    """
    return ModelSystem(
        space=AmbientSpace(1, "cube"),
        lo=[[0.0], [0.5]],
        hi=[[0.5], [0.75]],
        linear=[[[2.0]], [[2.0]]],
        offset=[[0.0], [-1.0]],
        kind="expanding",
        unstable_dim=1,
        stable_dim=0,
        transition=np.array([[1, 1], [1, 0]]),
        lambda_u=np.array([2.0, 2.0]),
    )


# Markov coding of the [[2,1],[1,1]] toral automorphism: the incidence
# multigraph on two rectangles has edges e0,e1: R1->R1, e2: R1->R2,
# e3: R2->R1, e4: R2->R2; edge e may follow e' iff head(e') = tail(e).
_CAT_TAILS = (0, 0, 0, 1, 1)
_CAT_HEADS = (0, 0, 1, 0, 1)


def build_cat_map() -> ModelSystem:
    """Toral automorphism with matrix [[2, 1], [1, 1]].

    The whole 2-torus is the hyperbolic set (attractor and repeller at
    once).  The map itself is one affine formula; the five symbols below
    encode the crossings of its two-rectangle Markov partition, which is
    what gives the coding the correct entropy log((3+sqrt 5)/2).  The
    partition rectangles are not axis-aligned, so every branch carries
    the full square as its domain; cylinder rectangles degenerate to the
    whole torus, which is the correct geometry here since the invariant
    set is everything.
    """
    lam_u = (3.0 + math.sqrt(5.0)) / 2.0
    lam_s = (3.0 - math.sqrt(5.0)) / 2.0
    m = len(_CAT_TAILS)
    transition = np.equal.outer(_CAT_HEADS, _CAT_TAILS)
    return ModelSystem(
        space=AmbientSpace(2, "torus"),
        lo=np.zeros((m, 2)),
        hi=np.ones((m, 2)),
        linear=[[[2.0, 1.0], [1.0, 1.0]]] * m,
        offset=np.zeros((m, 2)),
        kind="diffeo",
        unstable_dim=1,
        stable_dim=1,
        transition=transition,
        lambda_u=np.full(m, lam_u),
        lambda_s=np.full(m, lam_s),
    )
