"""Subshift-of-finite-type machinery for the affine models.

Admissible words, geometric cylinders, separated sets, Birkhoff sums and
partition sums, the spectral pressure oracle, and Markov/Bernoulli
measure statistics.  Potentials here are locally constant (one value per
symbol), so Birkhoff sums and partition sums are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    DegenerateCurveError,
    DeltaTooLargeError,
    IncompatibleStochasticsError,
    NotMixingError,
    ParameterOutOfRangeError,
)
from .models import ModelSystem, Potential

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
    is already positive, and so is every later one, so repeated squaring
    checks A, A^2, A^4, ... until the power reaches that bound.
    """
    power = _as_transition(transition).astype(bool)
    reach = 1
    while not power.all():
        if reach >= (power.shape[0] - 1) ** 2 + 1:
            return False
        power, reach = power @ power, 2 * reach
    return True


def _transfer_sums(weights: np.ndarray, matrix: np.ndarray):
    """Z_1, Z_2, ... by the row-vector recursion u_1 = weights, u_{j+1} = u_j M.

    Z_j is the sum of u_j.  With weights e^phi and M = A diag(e^phi) it
    is the partition sum of phi over admissible j-words; with phi = 0 it
    counts them.
    """
    u = weights
    while True:
        yield u.sum()
        u = u @ matrix


def _weighted(model: ModelSystem, pot: Potential):
    """(e^phi, A diag(e^phi)): the transfer data of a locally constant phi."""
    phi = np.asarray(pot.values, dtype=float)
    if phi.shape != (model.nsym,):
        raise ValueError("potential length must equal symbol count")
    weights = np.exp(phi)
    return weights, _as_transition(model) * weights[None, :]


def count_admissible_words(transition, k: int) -> float:
    """Number of admissible length-k words, k >= 1 (float, inf once past the floats; never raises)."""
    a = _as_transition(transition).astype(float)
    with np.errstate(over="ignore"):
        for count in itertools.islice(_transfer_sums(np.ones(len(a)), a), k):
            if count == math.inf:  # stop before inf * 0 makes NaN
                break
    return float(count)


def check_word_cap(transition, k: int) -> None:
    """Refuse word length k when the admissible k-words exceed `WORD_CAP`; only code that lists words checks it.

    They are counted only when the bound m * r^(k - 1) does, r the largest row sum of the
    0/1 transition (the exponent stops at 25, which takes any r >= 2 past the cap)."""
    if k < 1:
        raise ValueError("word length k must be >= 1")
    a = _as_transition(transition)
    if a.shape[0] * int(a.sum(axis=1).max(initial=0)) ** min(k - 1, WORD_CAP.bit_length()) > WORD_CAP:
        if (count := count_admissible_words(a, k)) > WORD_CAP:
            raise CapExceededError(f"{count:.3g} admissible words of length {k} exceed the cap {WORD_CAP}")


def admissible_words(transition, k: int) -> np.ndarray:
    """All admissible length-k words, one per row, lexicographic order."""
    a = _as_transition(transition)
    check_word_cap(a, k)
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


def cylinder_levels(model: ModelSystem):
    """Geometric cylinders of depth 1, 2, ..., one level at a time.

    Yields (first, parent, rects) for each depth j, one row per kept
    word in lexicographic order: the word's first symbol, the row of its
    tail (the word without that symbol) in the depth-(j - 1) level (None
    at depth 1), and its rectangle, [lo, hi] per row of a read-only
    (N, 2, n) view.  A cylinder is the set of points whose first j
    symbols equal the word.  Depth 1 is the branch domains.

    Depth j + 1 is built one block per symbol s, in symbol order: branch
    s's inverse, a fixed matrix, pulls back the depth-j rectangles whose
    first symbol s may precede (the whole level, without a gather, when
    s may precede every symbol), and the result is cut to s's domain.
    Blocks keep the level's order, so the words stay lexicographic, and
    depth k costs about as much as its last level.  A level is stored as
    (2, n, N), so each end of each axis is one contiguous row, and it is
    compacted only when some word has lost its mass.

    A word's rectangle is bit for bit the one that pulling back from its
    last symbol's domain through each earlier symbol gives.  On axis i
    that pullback is the sum of the n terms c * (end - offset) of row i
    of the inverse, the low end taking lo where c > 0 and hi elsewhere
    (the high end the other way round).  Each block writes the same
    terms, with the same float operations, along a contiguous last axis
    of length n and reduces that axis with `np.add.reduce`, the
    reduction behind the per-word loop's `.sum(axis=2)`, so the
    additions run in the same order and every bit is the same.

    The pullback is the bounding box of the preimage: exact for
    diagonal linear parts, otherwise an interval-arithmetic overestimate
    that keeps cylinder covers supersets of the invariant set.  Words
    whose rectangle empties have no geometric mass and are dropped, with
    every word that extends them; a level may come out empty.  The axes
    of the model's `Factorization.whole` keep the first symbol's domain:
    every branch domain spans them and no step leaves them, and pulling
    back would only compound the rounding of the offsets, by 1/lambda_s
    per level on a contracting axis.  The generator checks no word cap;
    callers check the cap of a depth before they ask for it.
    """
    n, symbols = model.n, np.arange(model.nsym)
    whole = np.flatnonzero(model.factorization.whole)
    varying = np.flatnonzero(~model.factorization.whole).tolist()
    inverses = np.linalg.inv(model.linear).tolist()
    blocks = []  # per symbol: its transition row (None if all ones) and, per varying axis, its pullback
    for row, inverse, offset, lo, hi in zip(model.transition != 0, inverses, model.offset, model.lo, model.hi):
        axes = []
        for i in varying:
            # per column j: the offset and the order of the ends; low pulls back from lo when c > 0, else from hi
            columns = [(j, offset[j], slice(None) if c > 0 else slice(None, None, -1))
                       for j, c in enumerate(inverse[i])]
            axes.append((i, np.array(inverse[i]), columns, lo[i], hi[i]))
        blocks.append((None if row.all() else row, axes))
    # levels are stored as (2, n, N): ends, axes, words; each ends-axis row is contiguous
    domains = np.stack([model.lo.T, model.hi.T])
    whole_domains = domains[:, whole]
    first, parent, level = symbols, None, domains
    while True:
        rects = level.transpose(2, 0, 1)
        rects.flags.writeable = False
        yield first, parent, rects
        rows = np.arange(len(first))
        tails = [rows if row is None else np.flatnonzero(row.take(first)) for row, _ in blocks]
        out = np.empty((2, n, sum(map(len, tails))))
        start = 0
        for tail, (row, axes) in zip(tails, blocks):
            block = out[:, :, start : start + len(tail)]
            start += len(tail)
            pulled = level if row is None else level.take(tail, axis=2)
            terms = np.empty((2, len(tail), n))
            for i, coefficients, columns, dom_lo, dom_hi in axes:
                for j, offset, order in columns:
                    np.subtract(pulled[order, j], offset, out=terms[:, :, j])
                np.multiply(coefficients, terms, out=terms)
                np.add.reduce(terms, axis=2, out=block[:, i])  # the low and high ends of axis i
                np.maximum(block[0, i], dom_lo, out=block[0, i])
                np.minimum(block[1, i], dom_hi, out=block[1, i])
        first = np.repeat(symbols, list(map(len, tails)))
        parent, level = np.concatenate(tails), out
        if len(whole):
            level[:, whole] = whole_domains.take(first, axis=2)
        empty = level[0] > level[1] + 1e-15
        np.maximum(level[1], level[0], out=level[1])
        if empty.any():  # some word lost its mass
            kept = np.flatnonzero(~empty.any(axis=0))
            first, parent, level = first.take(kept), parent.take(kept), level.take(kept, axis=2)


class CylinderWalk:
    """One walk of `cylinder_levels`, shared by every depth asked of it.

    The walk keeps the (first, parent) links of every level it builds,
    but the rectangles only of depth 1 (the branch domains) and of the
    depths asked for.  Asking for a depth past the deepest built checks
    its word cap first and then builds the levels down to it; asking for
    one already asked reads it back.
    """

    def __init__(self, model: ModelSystem):
        self._model = model
        self._links = []
        self._rects = {}
        self._steps = cylinder_levels(model)

    def rects(self, k: int) -> np.ndarray:
        """Depth-k cylinder rectangles: the level's read-only (N, 2, n) view, [lo, hi] per cylinder."""
        if k not in self._rects:
            check_word_cap(self._model, k)
            if k <= len(self._links):
                raise ValueError(f"this walk has passed depth {k} and kept no rectangles of it")
            while len(self._links) < k:
                first, parent, rects = next(self._steps)
                self._links.append((first, parent))
                if len(self._links) in (1, k):
                    self._rects[len(self._links)] = rects
        return _with_mass(self._rects[k], k)

    def cylinders(self, k: int):
        """(words, rects) of depth k, rects C-ordered; words are read back from the parent rows, deepest level first."""
        rects = self.rects(k)
        row, columns = np.arange(len(rects)), []
        for first, parent in reversed(self._links[1:k]):
            columns.append(first.take(row))
            row = parent.take(row)
        return np.stack(columns + [row], axis=1), np.ascontiguousarray(rects)


def _with_mass(rects: np.ndarray, k: int) -> np.ndarray:
    """The depth-k level `rects`, refused when none of its words has geometric mass."""
    if len(rects) == 0:
        raise ParameterOutOfRangeError(f"no admissible depth-{k} word has geometric mass")
    return rects


def cylinder_rects(model: ModelSystem):
    """The rectangles of depth 1, 2, ... in turn, checked as `CylinderWalk.rects` checks them; it keeps none."""
    levels = cylinder_levels(model)
    for k in itertools.count(1):
        check_word_cap(model, k)
        yield _with_mass(next(levels)[2], k)


def cylinders(model: ModelSystem, k: int):
    """Depth-k cylinder rectangles and their words (see `cylinder_levels`).

    Returns (words, rects): words is (N, k) in lexicographic order and
    rects is (N, 2, n) holding [lo, hi] per cylinder; a depth-1 word is
    its symbol.
    """
    return CylinderWalk(model).cylinders(k)


@dataclass(frozen=True)
class SeparatedSet:
    """Representative points, one per admissible word, pairwise separated."""

    k: int
    delta: float
    points: np.ndarray
    words: np.ndarray


def separated_set(model: ModelSystem, k: int, delta: float | None = None) -> SeparatedSet:
    """Centers of the depth-k cylinders as a (k, delta)-separated set.

    The geometry guarantees the separation up to the larger of the
    domain gap and the inverse-branch separation; delta defaults to half
    of that (zero when the branches are identical), and a larger delta
    raises `DeltaTooLargeError`.
    """
    allowed = max(model.min_branch_gap, model.branch_separation)
    if delta is None:
        delta = 0.5 * allowed
    elif delta > allowed:
        raise DeltaTooLargeError(f"delta {delta} exceeds the separation {allowed} this geometry guarantees")
    words, rects = cylinders(model, k)
    centers = 0.5 * (rects[:, 0, :] + rects[:, 1, :])
    return SeparatedSet(k=k, delta=float(delta), points=centers, words=words)


# -- partition sums --------------------------------------------------------


def partition_sums_through(model: ModelSystem, pot: Potential, k_max: int) -> np.ndarray:
    """Z_k for k = 1..k_max in one sweep that lists no word, so no word cap applies.

    Z_k sums exp(S_k phi) over one representative per admissible word; for locally constant potentials
    the value does not depend on the representatives, so Z_k = e^phi (A diag e^phi)^(k-1) 1 exactly.
    The sweep stops at the first Z_k outside the normal positive floats (inf, NaN, 0 or subnormal) and refuses it.
    """
    z, tiny, huge = [], np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(over="ignore"):  # refused below
        for k, zk in enumerate(itertools.islice(_transfer_sums(*_weighted(model, pot)), k_max), 1):
            if not tiny <= zk <= huge:
                raise DegenerateCurveError(f"partition sum Z_{k} = {zk} leaves the positive float range")
            z.append(zk)
    return np.array(z)


# -- spectral pressure oracle ----------------------------------------------


def perron_root(matrix, tol: float = SPECTRAL_TOL, max_iter: int = SPECTRAL_MAX_ITER):
    """Dominant eigenvalue and right eigenvector of a primitive matrix.

    Power iteration with Collatz-Wielandt brackets: for positive v the
    ratios (Mv)_i / v_i bracket the Perron root, so the iteration stops
    with a certified relative width below `tol`.  Rounding can hold the
    bracket a little wider (an eigenvalue near -rho leaves v cycling
    with period 2 in floats); once v repeats the one from two steps
    back the bracket can shrink no further, and the iteration stops
    there too.  The bracket is worked out on Python floats (numpy's bits); an iterate
    holding NaN or +inf can only run out of steps, so it stops at once with that error.
    A vector whose norm passes the float range is scaled by its peak before it is normed.
    """
    m = np.asarray(matrix, dtype=float)
    v, values, last, before = np.ones(m.shape[0]), [1.0] * m.shape[0], None, None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            w = m @ v
            products = w.tolist()
            if not all(x < math.inf for x in products):
                break
            ratios = [x / y if y > 0 else math.inf for x, y in zip(products, values)]
            lo, hi = min(ratios), max(ratios)
            if math.isfinite(hi) and (hi - lo <= tol * hi or values == before):
                w = w if np.linalg.norm(w) < math.inf else w / max(products)
                return 0.5 * (lo + hi), w / np.linalg.norm(w)
            peak = max(products)
            if peak <= 0:
                raise NotMixingError("matrix is not primitive (iteration collapsed)")
            v = w / peak
            values, last, before = v.tolist(), values, last
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


def _gibbs_chain(model: ModelSystem, pot: Potential):
    """(rho, Q): the Perron root of A diag(e^phi) and the Gibbs chain of its vector."""
    weighted, rho, v = _perron_data(model, pot)
    v = np.abs(v)
    q = weighted * v[None, :] / (rho * v[:, None])
    return rho, q / q.sum(axis=1, keepdims=True)  # scrub rounding


def equilibrium_markov_chain(model: ModelSystem, pot: Potential):
    """Gibbs Markov chain of a locally constant potential.

    Q[i, j] = A[i, j] exp(phi_j) v_j / (rho v_i) with (rho, v) the Perron
    data of the weighted matrix; its entropy plus the potential integral
    equals the pressure.  For constant potentials this is the
    maximal-entropy (Parry) chain.  Returns (Q, pi).
    """
    q = _gibbs_chain(model, pot)[1]
    return q, stationary_distribution(q)


def equilibrium_state(model: ModelSystem, pot: Potential):
    """(pressure, stats): `pressure_spectral` and `markov_measure_stats` of the Gibbs chain.

    Solves each Perron problem once: the weighted matrix for the
    pressure and the chain, the chain for its stationary vector.  Both
    values are bit for bit the ones that `pressure_spectral`,
    `equilibrium_markov_chain` and `markov_measure_stats` give.
    """
    rho, q = _gibbs_chain(model, pot)
    return float(np.log(rho)), _chain_stats(model, pot, q, stationary_distribution(q))


def _group_exponents(values: np.ndarray, tol: float = 1e-9):
    pairs = []
    for lam in sorted(values.tolist(), reverse=True):
        if pairs and abs(pairs[-1][0] - lam) <= tol:
            pairs[-1][1] += 1
        else:
            pairs.append([lam, 1])
    return tuple((float(lam), int(mult)) for lam, mult in pairs)


def _measure_stats(model: ModelSystem, pot: Potential, pi: np.ndarray, entropy: float):
    exponents = _group_exponents(pi @ np.log(np.linalg.svd(model.linear, compute_uv=False)))
    integral = float(pi @ np.asarray(pot.values))
    return MarkovMeasureStats(
        entropy=entropy, exponents=exponents, potential_integral=integral
    )


def _chain_stats(model: ModelSystem, pot: Potential, q: np.ndarray, pi: np.ndarray):
    """Statistics of the stationary chain `q` with stationary vector `pi`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0)), 0.0)
    return _measure_stats(model, pot, pi, -float((pi[:, None] * terms).sum()))


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
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        return _measure_stats(model, pot, p, -float(terms.sum()))
    if p.ndim == 2:
        if p.shape != (model.nsym, model.nsym):
            raise IncompatibleStochasticsError("stochastic matrix shape must match symbols")
        if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise IncompatibleStochasticsError("rows must be probability vectors")
        if np.any((p > 1e-15) & (a == 0)):
            raise IncompatibleStochasticsError("positive transitions must be admissible")
        return _chain_stats(model, pot, p, stationary_distribution(p))
    raise IncompatibleStochasticsError("probabilities must be a vector or a matrix")


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
    linear = np.broadcast_to(np.eye(model.n), (len(words), model.n, model.n))
    offset = np.zeros((len(words), model.n))
    for symbols in words.T:
        offset = (model.linear[symbols] @ offset[:, :, None])[:, :, 0] + model.offset[symbols]
        linear = model.linear[symbols] @ linear
    return ModelSystem(
        geometry=model.geometry,
        lo=rects[:, 0],
        hi=rects[:, 1],
        linear=linear,
        offset=offset,
        kind=model.kind,
        unstable_dim=model.unstable_dim,
        transition=model.transition[np.ix_(words[:, -1], words[:, 0])],
        lambda_u=np.prod(model.lambda_u[words], axis=1),
        lambda_s=None if model.lambda_s is None else np.prod(model.lambda_s[words], axis=1),
        strict=False,
    )
