"""Closed-form values the benchmark checks hypdim against.

Nothing here calls hypdim.  Every value comes either from a formula or
from a small computation with numpy's dense eigensolver, so a fault in
hypdim's own numerics cannot hide in the oracle it is compared with.

Models are described by what the closed forms need: the 0/1 transition
matrix and one expansion factor (slope) per symbol.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


# -- the linear horseshoe (McCluskey and Manning 1983) ------------------------


def horseshoe_pressure(lambda_u: float) -> float:
    """P(phi_u) = log 2 - log lambda_u for the two-branch horseshoe."""
    return math.log(2.0) - math.log(lambda_u)


def horseshoe_rate(lambda_u: float) -> float:
    """The expansion rate s = log lambda_u."""
    return math.log(lambda_u)


def horseshoe_bound(lambda_u: float) -> float:
    """n + P/s = 1 + log 2 / log lambda_u, also the stable-set dimension."""
    return 1.0 + math.log(2.0) / math.log(lambda_u)


# -- subshifts of finite type with locally constant potentials ----------------


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus, from numpy's dense eigensolver."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float)))))


def sft_pressure(transition, phi) -> float:
    """Pressure of a locally constant phi: log rho(A diag(e^phi))."""
    a = np.asarray(transition, dtype=float)
    return math.log(spectral_radius(a * np.exp(np.asarray(phi, dtype=float))[None, :]))


def repeller_pressure(transition, slopes) -> float:
    """Pressure of phi = -log|f'| for a repeller with the given slopes."""
    return sft_pressure(transition, -np.log(np.asarray(slopes, dtype=float)))


def bowen_root(transition, slopes, tol: float = 1e-15) -> float:
    """The t in [0, 1] with P(-t log|f'|) = 0, by bisection.

    For a conformal repeller this root is its Hausdorff and box
    dimension (Bowen 1979; Ruelle 1982).  The pressure decreases
    strictly in t, from log rho(A) > 0 at t = 0.
    """
    logs = np.log(np.asarray(slopes, dtype=float))
    lo, hi = 0.0, 1.0
    if sft_pressure(transition, -hi * logs) > 0:
        raise ValueError("the repeller dimension exceeds 1; slopes leave no gaps")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sft_pressure(transition, -mid * logs) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def moran_root(slopes, tol: float = 1e-15) -> float:
    """The t with sum_i slope_i^-t = 1 (full shift), by bisection."""
    slopes = [float(s) for s in slopes]
    lo, hi = 0.0, 1.0
    if sum(s**-hi for s in slopes) > 1.0:
        raise ValueError("sum of 1/slope exceeds 1; the pieces overlap")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sum(s**-mid for s in slopes) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_mean_dimension() -> float:
    """Dimension of the slope-2 golden-mean repeller: log phi / log 2."""
    return math.log(GOLDEN_RATIO) / math.log(2.0)


def word_counts(transition, k_max: int) -> list:
    """Admissible k-words for k = 1..k_max: 1^T A^(k-1) 1, in exact integers."""
    a = [[int(v != 0) for v in row] for row in np.asarray(transition).tolist()]
    m = len(a)
    vec = [1] * m
    out = [m]
    for _ in range(k_max - 1):
        vec = [sum(a[i][j] * vec[j] for j in range(m)) for i in range(m)]
        out.append(sum(vec))
    return out


def partition_sums(transition, phi, k_max: int) -> np.ndarray:
    """Z_k = e^phi^T (A diag e^phi)^(k-1) 1 for k = 1..k_max.

    Exact for locally constant phi: the matrix power sums exp(S_k phi)
    over admissible words without listing them.
    """
    a = np.asarray(transition, dtype=float)
    w = np.exp(np.asarray(phi, dtype=float))
    vec = np.ones(a.shape[0])
    out = []
    for _ in range(k_max):
        out.append(float(w @ vec))
        vec = a @ (w * vec)
    return np.asarray(out)
