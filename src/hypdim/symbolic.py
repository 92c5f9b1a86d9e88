"""Subshift-of-finite-type machinery for the affine models.

Admissible words, geometric cylinders, separated sets, Birkhoff sums and
partition sums, the spectral pressure oracle, and Markov/Bernoulli
measure statistics.  Potentials here are locally constant (one value per
symbol), so Birkhoff sums and partition sums are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    DeltaTooLargeError,
    IncompatibleStochasticsError,
    NotMixingError,
)
from .models import AffineBranch, ModelSystem, Potential

# Enumeration stays desk-scale: no more than ~16.7M admissible words.
WORD_CAP = 1 << 24

SPECTRAL_TOL = 1e-14
SPECTRAL_MAX_ITER = 100_000


def _as_transition(obj) -> np.ndarray:
    a = obj.transition if isinstance(obj, ModelSystem) else np.asarray(obj)
    a = (np.asarray(a) != 0).astype(np.int8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("transition matrix must be square")
    return a


def is_primitive(transition) -> bool:
    """True iff some power of the 0/1 matrix is entrywise positive.

    Wielandt's bound: for a primitive m x m matrix the power (m-1)^2 + 1
    is already positive, so only that many powers need checking.
    """
    a = _as_transition(transition)
    m = a.shape[0]
    power = a.astype(bool)
    for _ in range((m - 1) ** 2 + 1):
        if power.all():
            return True
        power = (power @ a.astype(bool))
    return bool(power.all())


def _transfer_sums(weights: np.ndarray, matrix: np.ndarray, k: int, limit: float = math.inf):
    """Z_1..Z_k by the row-vector recursion u_1 = weights, u_{j+1} = u_j M.

    Z_j is the sum of u_j.  With weights e^phi and M = A diag(e^phi) it
    is the partition sum of phi over admissible j-words; with phi = 0 it
    counts them.  Entries from the first one above `limit` on are inf.
    """
    out = np.full(k, math.inf)
    u = weights
    for j in range(k):
        z = u.sum()
        if z > limit:
            break
        out[j] = z
        u = u @ matrix
    return out


def _weighted(model: ModelSystem, pot: Potential):
    """(e^phi, A diag(e^phi)): the transfer data of a locally constant phi."""
    phi = np.asarray(pot.values, dtype=float)
    if phi.shape != (model.nsym,):
        raise ValueError("potential length must equal symbol count")
    weights = np.exp(phi)
    return weights, _as_transition(model) * weights[None, :]


def count_admissible_words(transition, k: int) -> float:
    """Number of admissible length-k words (float; saturates, never raises)."""
    a = _as_transition(transition).astype(float)
    return float(_transfer_sums(np.ones(a.shape[0]), a, max(k, 1), limit=1e18)[-1])


def _check_cap(transition, k: int) -> None:
    if k < 1:
        raise ValueError("word length k must be >= 1")
    count = count_admissible_words(transition, k)
    if count > WORD_CAP:
        raise CapExceededError(
            f"{count:.3g} admissible words of length {k} exceed the cap {WORD_CAP}"
        )


def admissible_words(transition, k: int) -> np.ndarray:
    """All admissible length-k words, one per row, lexicographic order."""
    a = _as_transition(transition)
    _check_cap(a, k)
    words = np.arange(a.shape[0], dtype=np.int64)[:, None]
    for _ in range(k - 1):
        # row-major order of the nonzeros keeps the words lexicographic
        rows, nxt = np.nonzero(a[words[:, -1]])
        words = np.concatenate([words[rows], nxt[:, None]], axis=1)
    return words


def birkhoff_sum(pot: Potential, word) -> float:
    """Sum of per-symbol potential values along a word (exact here)."""
    return float(np.asarray(pot.values)[np.asarray(word, dtype=np.int64)].sum())


# -- geometric cylinders ---------------------------------------------------


def cylinders(model: ModelSystem, k: int):
    """Depth-k cylinder rectangles.

    Returns (words, rects): words is (N, k) in lexicographic order and
    rects is (N, 2, n) holding [lo, hi] per cylinder.  A cylinder is the
    set of points whose first k symbols equal the word.  Starting from
    the domain of each word's last symbol, every earlier symbol pulls the
    rectangle back through its branch inverse and cuts it to the branch
    domain.  The pullback is the bounding box of the preimage: exact for
    diagonal linear parts, otherwise an interval-arithmetic overestimate
    that keeps cylinder covers supersets of the invariant set.  Words
    whose rectangle empties on the way have no geometric mass and are
    dropped.
    """
    words = admissible_words(model, k)
    branches = model.branches
    inverses = np.linalg.inv(np.stack([b.linear for b in branches]))
    offsets = np.stack([b.offset for b in branches])
    dom_lo = np.stack([b.lo for b in branches])
    dom_hi = np.stack([b.hi for b in branches])
    lo, hi = dom_lo[words[:, -1]], dom_hi[words[:, -1]]
    keep = np.ones(len(words), dtype=bool)
    for symbols in words[:, -2::-1].T:
        inv = inverses[symbols]
        shifted_lo = (lo - offsets[symbols])[:, None, :]
        shifted_hi = (hi - offsets[symbols])[:, None, :]
        low = np.where(inv > 0, inv * shifted_lo, inv * shifted_hi).sum(axis=2)
        high = np.where(inv > 0, inv * shifted_hi, inv * shifted_lo).sum(axis=2)
        lo = np.maximum(low, dom_lo[symbols])
        hi = np.minimum(high, dom_hi[symbols])
        keep &= ~np.any(lo > hi + 1e-15, axis=1)
        hi = np.maximum(hi, lo)
    if not keep.any():
        raise ValueError(f"no admissible depth-{k} word has geometric mass")
    return words[keep], np.stack([lo[keep], hi[keep]], axis=1)


@dataclass(frozen=True)
class SeparatedSet:
    """Representative points, one per admissible word, pairwise separated."""

    k: int
    delta: float
    points: np.ndarray
    words: np.ndarray


def default_delta(model: ModelSystem) -> float:
    """Half the scale at which distinct cylinder representatives separate.

    Uses the larger of the domain gap and the inverse-branch separation;
    zero when the geometry is degenerate (identical branches), in which
    case only symbolic (delta=None) partition sums are meaningful.
    """
    return 0.5 * max(model.min_branch_gap, model.branch_separation)


def _check_delta(model: ModelSystem, delta) -> float | None:
    if delta is None:
        return None
    allowed = max(model.min_branch_gap, model.branch_separation)
    if delta > allowed:
        raise DeltaTooLargeError(
            f"delta {delta} exceeds the separation {allowed} this geometry guarantees"
        )
    return float(delta)


def separated_set(model: ModelSystem, k: int, delta: float | None = None) -> SeparatedSet:
    """Centers of the depth-k cylinders as a (k, delta)-separated set."""
    if delta is None:
        delta = default_delta(model)
    else:
        _check_delta(model, delta)
    words, rects = cylinders(model, k)
    centers = 0.5 * (rects[:, 0, :] + rects[:, 1, :])
    return SeparatedSet(k=k, delta=float(delta), points=centers, words=words)


# -- partition sums --------------------------------------------------------


def partition_sums_through(
    model: ModelSystem, pot: Potential, k_max: int, delta: float | None = None
) -> np.ndarray:
    """Z_k for k = 1..k_max in one sweep.

    Z_k sums exp(S_k phi) over one representative per admissible word;
    for locally constant potentials the value does not depend on the
    representatives, so Z_k = e^phi (A diag e^phi)^(k-1) 1 exactly.  The
    word cap still bounds k_max, which keeps every Z_k finite.
    """
    _check_delta(model, delta)
    _check_cap(model, k_max)
    return _transfer_sums(*_weighted(model, pot), k_max)


def partition_sum(model: ModelSystem, pot: Potential, k: int, delta: float | None = None) -> float:
    """Z_k = sum over admissible k-words of exp(Birkhoff sum)."""
    return float(partition_sums_through(model, pot, k, delta)[-1])


# -- spectral pressure oracle ----------------------------------------------


def perron_root(matrix, tol: float = SPECTRAL_TOL, max_iter: int = SPECTRAL_MAX_ITER):
    """Dominant eigenvalue and right eigenvector of a primitive matrix.

    Power iteration with Collatz-Wielandt brackets: for positive v the
    ratios (Mv)_i / v_i bracket the Perron root, so the iteration stops
    with a certified relative width below `tol`.
    """
    m = np.asarray(matrix, dtype=float)
    v = np.ones(m.shape[0])
    lo, hi = 0.0, math.inf
    for _ in range(max_iter):
        w = m @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(v > 0, w / v, math.inf)
        lo, hi = float(ratios.min()), float(ratios.max())
        if math.isfinite(hi) and hi - lo <= tol * hi:
            root = 0.5 * (lo + hi)
            return root, w / np.linalg.norm(w)
        peak = w.max()
        if peak <= 0:
            raise NotMixingError("matrix is not primitive (iteration collapsed)")
        v = w / peak
    raise NotMixingError(f"power iteration did not converge within {max_iter} steps")


def _perron_data(model: ModelSystem, pot: Potential):
    """(M, rho, v): M = A diag(e^phi) and its Perron root and vector."""
    if not is_primitive(model):
        raise NotMixingError("transition matrix is not primitive")
    _, weighted = _weighted(model, pot)
    rho, v = perron_root(weighted)
    return weighted, rho, v


def pressure_spectral(model: ModelSystem, pot: Potential) -> float:
    """Exact pressure of a locally constant potential.

    log of the spectral radius of M[i, j] = A[i, j] * exp(phi_j); the
    standard transfer-operator value, valid because the coding is a
    primitive subshift of finite type.
    """
    _, root, _ = _perron_data(model, pot)
    return float(np.log(root))


# -- Markov measures --------------------------------------------------------


@dataclass(frozen=True)
class MarkovMeasureStats:
    """Entropy rate, Lyapunov exponents and potential integral of a measure."""

    entropy: float
    exponents: tuple
    potential_integral: float

    @property
    def positive_exponent_sum(self) -> float:
        return float(sum(lam * m for lam, m in self.exponents if lam > 0))


def stationary_distribution(stochastic: np.ndarray) -> np.ndarray:
    """Stationary row vector of a primitive stochastic matrix."""
    _, v = perron_root(np.asarray(stochastic, dtype=float).T)
    pi = np.abs(v)
    return pi / pi.sum()


def equilibrium_markov_chain(model: ModelSystem, pot: Potential):
    """Gibbs Markov chain of a locally constant potential.

    Q[i, j] = A[i, j] exp(phi_j) v_j / (rho v_i) with (rho, v) the Perron
    data of the weighted matrix; its entropy plus the potential integral
    equals the pressure.  For constant potentials this is the
    maximal-entropy (Parry) chain.  Returns (Q, pi).
    """
    weighted, rho, v = _perron_data(model, pot)
    v = np.abs(v)
    q = weighted * v[None, :] / (rho * v[:, None])
    q = q / q.sum(axis=1, keepdims=True)  # scrub rounding
    return q, stationary_distribution(q)


def _group_exponents(values: np.ndarray, tol: float = 1e-9):
    pairs = []
    for lam in sorted(values.tolist(), reverse=True):
        if pairs and abs(pairs[-1][0] - lam) <= tol:
            pairs[-1][1] += 1
        else:
            pairs.append([lam, 1])
    return tuple((float(lam), int(mult)) for lam, mult in pairs)


def markov_measure_stats(model: ModelSystem, pot: Potential, probabilities) -> MarkovMeasureStats:
    """Entropy rate, Lyapunov exponents and integral for a symbolic measure.

    `probabilities` is either a per-symbol vector (i.i.d. product
    measure; needs full-shift transitions on its support) or a
    row-stochastic matrix compatible with the transition matrix.
    Lyapunov exponents come out as stationarity-weighted logs of the
    branch singular values, which is exact for the built-in models where
    all branches share their singular directions.
    """
    a = _as_transition(model)
    p = np.asarray(probabilities, dtype=float)
    if p.ndim == 1:
        if p.shape != (model.nsym,) or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
            raise IncompatibleStochasticsError("need a probability vector over the symbols")
        support = np.flatnonzero(p > 1e-15)
        if np.any(a[np.ix_(support, support)] == 0):
            raise IncompatibleStochasticsError(
                "product measure support must be a full shift under the transition matrix"
            )
        pi = p
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        entropy = -float(terms.sum())
    elif p.ndim == 2:
        if p.shape != (model.nsym, model.nsym):
            raise IncompatibleStochasticsError("stochastic matrix shape must match symbols")
        if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise IncompatibleStochasticsError("rows must be probability vectors")
        if np.any((p > 1e-15) & (a == 0)):
            raise IncompatibleStochasticsError("positive transitions must be admissible")
        pi = stationary_distribution(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        entropy = -float((pi[:, None] * terms).sum())
    else:
        raise IncompatibleStochasticsError("probabilities must be a vector or a matrix")

    log_sv = np.stack(
        [np.log(np.linalg.svd(b.linear, compute_uv=False)) for b in model.branches]
    )
    exponents = _group_exponents(pi @ log_sv)
    integral = float(pi @ np.asarray(pot.values))
    return MarkovMeasureStats(
        entropy=entropy, exponents=exponents, potential_integral=integral
    )


# -- iterated (power) models -------------------------------------------------


def power_model(model: ModelSystem, m: int) -> ModelSystem:
    """The model of f^m: branches indexed by admissible m-words.

    Each word's branch composes affine data along the word, its domain
    is the word's cylinder rectangle, and words connect exactly when the
    last symbol of one may precede the first of the next.  Pressure of
    the composed potentials and the expansion rate both scale by m.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    if m == 1:
        return model
    words, rects = cylinders(model, m)
    linears = np.stack([b.linear for b in model.branches])
    offsets = np.stack([b.offset for b in model.branches])
    linear = np.broadcast_to(np.eye(model.n), (len(words), model.n, model.n))
    offset = np.zeros((len(words), model.n))
    for symbols in words.T:
        offset = (linears[symbols] @ offset[:, :, None])[:, :, 0] + offsets[symbols]
        linear = linears[symbols] @ linear
    branches = tuple(
        AffineBranch(sym, lo=rect[0], hi=rect[1], linear=lin, offset=off)
        for sym, (rect, lin, off) in enumerate(zip(rects, linear, offset))
    )
    return ModelSystem(
        space=model.space,
        branches=branches,
        kind=model.kind,
        unstable_dim=model.unstable_dim,
        stable_dim=model.stable_dim,
        transition=model.transition[np.ix_(words[:, -1], words[:, 0])],
        lambda_u=np.prod(model.lambda_u[words], axis=1),
        lambda_s=None if model.lambda_s is None else np.prod(model.lambda_s[words], axis=1),
        strict=False,
    )
