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
    """One affine branch x -> linear @ x + offset on a closed rectangle."""

    symbol: int
    lo: np.ndarray
    hi: np.ndarray
    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _ro(self.lo))
        object.__setattr__(self, "hi", _ro(self.hi))
        object.__setattr__(self, "linear", _ro(np.atleast_2d(self.linear)))
        object.__setattr__(self, "offset", _ro(self.offset))
        n = self.lo.shape[0]
        if self.hi.shape != (n,) or self.linear.shape != (n, n) or self.offset.shape != (n,):
            raise ParameterOutOfRangeError("branch arrays have inconsistent shapes")
        if (self.hi < self.lo).any():
            raise ParameterOutOfRangeError("branch domain rectangle is empty")

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return pts @ self.linear.T + self.offset


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

    `transition[i, j] = 1` iff symbol j may follow symbol i.  `lambda_u`
    and `lambda_s` hold the per-branch unstable/stable Jacobian
    magnitudes |det Df| restricted to the expanding/contracting
    directions; for the built-in constructors these are exact.
    `lo`, `hi`, `linear` and `offset` stack the branch fields of that
    name, the symbol first, in read-only arrays: the one form that array
    code reads.
    """

    space: AmbientSpace
    branches: tuple
    kind: str
    unstable_dim: int
    stable_dim: int
    transition: np.ndarray
    lambda_u: np.ndarray
    lambda_s: np.ndarray | None = None
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "transition", _ro(self.transition, dtype=np.int8))
        object.__setattr__(self, "lambda_u", _ro(self.lambda_u))
        if self.lambda_s is not None:
            object.__setattr__(self, "lambda_s", _ro(self.lambda_s))
        m = len(self.branches)
        n = self.space.dim
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
        if [b.symbol for b in self.branches] != list(range(m)):
            raise ParameterOutOfRangeError("branch symbols must be 0..m-1 in order")
        if self.lambda_u.shape != (m,):
            raise ParameterOutOfRangeError("lambda_u must have one entry per branch")
        for name in ("lo", "hi", "linear", "offset"):
            object.__setattr__(self, name, _ro(np.stack([getattr(b, name) for b in self.branches])))
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
        return len(self.branches)

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
        for b in self.branches:
            sel = idx == b.symbol
            if sel.any():
                out[sel] = self.wrap(b.apply(pts[sel]))
        return out, idx

    @cached_property
    def _leaves_whole_memo(self) -> dict:
        return {}

    def leaves_whole(self, whole: np.ndarray) -> bool:
        """True iff the axes in the boolean mask `whole` split off as a product factor.

        They do when every branch domain spans them, every linear part is
        block-diagonal between them and the other axes, and on the cube
        every branch maps them into the unit interval.  The checks carry
        no rounding slack, so a whole coordinate that starts in the unit
        cube stays inside every branch domain for good and never decides
        a branch.  Each mask is worked out once per model.
        """
        whole = np.asarray(whole, dtype=bool)
        key = whole.tobytes()
        if key not in self._leaves_whole_memo:
            self._leaves_whole_memo[key] = bool(whole.any()) and self._splits_off(whole)
        return self._leaves_whole_memo[key]

    def _splits_off(self, whole: np.ndarray) -> bool:
        rows = self.linear[:, whole]
        block = rows[:, :, whole]
        image_lo = np.minimum(block, 0.0).sum(axis=2) + self.offset[:, whole]
        image_hi = np.maximum(block, 0.0).sum(axis=2) + self.offset[:, whole]
        spans = np.all(self.lo[:, whole] <= 0.0) and np.all(self.hi[:, whole] >= 1.0)
        coupled = np.any(rows[:, :, ~whole]) or np.any(self.linear[:, ~whole][:, :, whole])
        inside = self.space.is_torus or (image_lo.min() >= 0.0 and image_hi.max() <= 1.0)
        return bool(spans and not coupled and inside)

    @cached_property
    def whole_axes(self) -> np.ndarray:
        """Boolean mask of the axes every branch domain spans, if they split off exactly."""
        spans = np.all((self.lo <= 0.0) & (self.hi >= 1.0), axis=0)
        return _ro(spans & self.leaves_whole(spans), dtype=bool)

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
        branches = tuple(
            AffineBranch(
                symbol=int(br["symbol"]),
                lo=br["domain"]["lo"],
                hi=br["domain"]["hi"],
                linear=br["linear"],
                offset=br["offset"],
            )
            for br in sorted(data["branches"], key=lambda br: int(br["symbol"]))
        )
        for b in branches:  # a number past the float range parses as inf
            for name in ("lo", "hi", "linear", "offset"):
                if not np.isfinite(values := getattr(b, name)).all():
                    raise ParameterOutOfRangeError(f"branch {b.symbol} has a non-finite {name}: {values.tolist()}")
        d_u = int(data["unstable_dim"])
        d_s = 0 if kind == "expanding" else space.dim - d_u
        sv = np.linalg.svd(np.array([b.linear for b in branches]), compute_uv=False)
        return cls(
            space=space,
            branches=branches,
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
        for b, s in zip(model.branches, sv[:, -1].tolist()):
            if not (s > 0.0 and 1.0 / s < math.inf):
                raise ParameterOutOfRangeError(f"branch {b.symbol} has no finite inverse: {b.linear.tolist()}")
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
    return model.branches[idx[0]].linear


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
    linear = [[lambda_u, 0.0], [0.0, lambda_s]]
    w = 1.0 / lambda_u
    branches = (
        AffineBranch(0, lo=[0.0, 0.0], hi=[w, 1.0], linear=linear, offset=[0.0, 0.0]),
        AffineBranch(
            1,
            lo=[1.0 - w, 0.0],
            hi=[1.0, 1.0],
            linear=linear,
            offset=[-(lambda_u - 1.0), 1.0 - lambda_s],
        ),
    )
    return ModelSystem(
        space=AmbientSpace(2, "cube"),
        branches=branches,
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
    branches = tuple(
        AffineBranch(i, lo=[i / d], hi=[(i + 1) / d], linear=[[float(d)]], offset=[-float(i)])
        for i in range(d)
    )
    return ModelSystem(
        space=AmbientSpace(1, "torus"),
        branches=branches,
        kind="expanding",
        unstable_dim=1,
        stable_dim=0,
        transition=np.ones((d, d)),
        lambda_u=np.full(d, float(d)),
    )


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
    branches = tuple(
        AffineBranch(
            sym,
            lo=[digit / slope],
            hi=[(digit + 1) / slope],
            linear=[[float(slope)]],
            offset=[-float(digit)],
        )
        for sym, digit in enumerate(kept)
    )
    m = len(kept)
    return ModelSystem(
        space=AmbientSpace(1, "torus"),
        branches=branches,
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
    branches = (
        AffineBranch(0, lo=[0.0], hi=[0.5], linear=[[2.0]], offset=[0.0]),
        AffineBranch(1, lo=[0.5], hi=[0.75], linear=[[2.0]], offset=[-1.0]),
    )
    return ModelSystem(
        space=AmbientSpace(1, "cube"),
        branches=branches,
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
    linear = [[2.0, 1.0], [1.0, 1.0]]
    m = len(_CAT_TAILS)
    branches = tuple(
        AffineBranch(i, lo=[0.0, 0.0], hi=[1.0, 1.0], linear=linear, offset=[0.0, 0.0])
        for i in range(m)
    )
    transition = np.zeros((m, m), dtype=int)
    for i in range(m):
        for j in range(m):
            transition[i, j] = 1 if _CAT_HEADS[i] == _CAT_TAILS[j] else 0
    return ModelSystem(
        space=AmbientSpace(2, "torus"),
        branches=branches,
        kind="diffeo",
        unstable_dim=1,
        stable_dim=1,
        transition=transition,
        lambda_u=np.full(m, lam_u),
        lambda_s=np.full(m, lam_s),
    )
