"""Property tests of the symbolic layer on random diagonal affine models.

Models are drawn as JSON documents and loaded through
`ModelSystem.from_json_dict`, so every check also runs on the schema a
user writes.  The word-by-word cylinder recursion below is kept as the
oracle for the level-wise `cylinders`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hypdim.models import ModelSystem, Potential
from hypdim.symbolic import (
    admissible_words,
    count_admissible_words,
    cylinders,
    is_primitive,
    partition_sums_through,
    power_model,
    pressure_spectral,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


def recursive_cylinders(model: ModelSystem, k: int):
    """Word-by-word cylinder recursion: one branch inverse per word."""

    def pullback(branch, lo, hi):
        inv = np.linalg.inv(branch.linear)
        shifted_lo = lo - branch.offset
        shifted_hi = hi - branch.offset
        low = np.where(inv > 0, inv * shifted_lo, inv * shifted_hi).sum(axis=1)
        high = np.where(inv > 0, inv * shifted_hi, inv * shifted_lo).sum(axis=1)
        return np.maximum(low, branch.lo), np.minimum(high, branch.hi)

    def level(depth):
        if depth == 1:
            return (
                [(b.symbol,) for b in model.branches],
                [(b.lo.copy(), b.hi.copy()) for b in model.branches],
            )
        sub_words, sub_rects = level(depth - 1)
        words, rects = [], []
        for b in model.branches:
            allowed = model.transition[b.symbol]
            for w, (lo, hi) in zip(sub_words, sub_rects):
                if not allowed[w[0]]:
                    continue
                plo, phi = pullback(b, lo, hi)
                if np.any(plo > phi + 1e-15):
                    continue
                words.append((b.symbol,) + w)
                rects.append((plo, np.maximum(phi, plo)))
        return words, rects

    words, rects = level(k)
    return np.asarray(words, dtype=np.int64), np.stack([np.stack(r) for r in rects])


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def transitions(draw, m):
    rows = [[draw(st.sampled_from([0, 1, 1])) for _ in range(m)] for _ in range(m)]
    a = np.array(rows)
    assume(a.sum(axis=0).all() and a.sum(axis=1).all())
    return rows


@st.composite
def diagonal_models(draw):
    """Any diagonal affine model: domains and images drawn independently.

    Images may miss some domains, so some admissible words have no
    geometric mass and get pruned.
    """
    n = draw(st.sampled_from([1, 2]))
    kind = "expanding" if n == 1 else draw(st.sampled_from(["expanding", "diffeo"]))
    m = draw(st.integers(2, 3))
    branches = []
    for sym in range(m):
        lo, hi, slopes, offsets = [], [], [], []
        for axis in range(n):
            contracting = kind == "diffeo" and axis == 1
            a = draw(_floats(0.0, 0.8))
            b = min(1.0, a + draw(_floats(0.05, 0.5)))
            size = draw(_floats(0.1, 0.7) if contracting else _floats(1.2, 4.0))
            slope = size * draw(st.sampled_from([1.0, -1.0]))
            center = draw(_floats(-0.1, 1.1))
            lo.append(a)
            hi.append(b)
            slopes.append(slope)
            offsets.append(center - slope * 0.5 * (a + b))
        branches.append({
            "symbol": sym,
            "domain": {"lo": lo, "hi": hi},
            "linear": np.diag(slopes).tolist(),
            "offset": offsets,
        })
    return ModelSystem.from_json_dict({
        "space": {"dim": n, "geometry": "cube"},
        "kind": kind,
        "branches": branches,
        "transition": draw(transitions(m)),
        "unstable_dim": n if kind == "expanding" else 1,
    })


@st.composite
def markov_models(draw):
    """Diagonal models whose branches map their domains onto the unit cube.

    Every admissible word then has a cylinder, and the transition matrix
    is primitive, so pressures of iterates are exact multiples.
    """
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(2, 3))
    # domains and the gaps around them from 2m + 1 positive lengths
    lengths = draw(st.lists(_floats(0.05, 1.0), min_size=2 * m + 1, max_size=2 * m + 1))
    cuts = (np.cumsum(lengths) / sum(lengths))[:-1].tolist()
    branches = []
    for sym in range(m):
        a, b = cuts[2 * sym], cuts[2 * sym + 1]
        flip = draw(st.booleans())
        slope = (-1.0 if flip else 1.0) / (b - a)
        slopes, offsets, lo, hi = [slope], [-slope * (b if flip else a)], [a], [b]
        if n == 2:
            contraction = draw(_floats(0.1, 0.45)) * draw(st.sampled_from([1.0, -1.0]))
            slopes.append(contraction)
            offsets.append(draw(_floats(0.0, 0.5)) + (0.5 if contraction < 0 else 0.0))
            lo.append(0.0)
            hi.append(1.0)
        branches.append({
            "symbol": sym,
            "domain": {"lo": lo, "hi": hi},
            "linear": np.diag(slopes).tolist(),
            "offset": offsets,
        })
    transition = draw(transitions(m))
    assume(is_primitive(transition))
    return ModelSystem.from_json_dict({
        "space": {"dim": n, "geometry": "cube"},
        "kind": "expanding" if n == 1 else "diffeo",
        "branches": branches,
        "transition": transition,
        "unstable_dim": 1,
    })


def potentials(m):
    return st.lists(_floats(-2.0, 2.0), min_size=m, max_size=m).map(Potential)


@PROPERTY_SETTINGS
@given(model=diagonal_models(), k=st.integers(1, 5))
def test_cylinders_equal_the_recursive_oracle(model, k):
    try:
        expected = recursive_cylinders(model, k)
    except ValueError:
        # no depth-k word has geometric mass
        with pytest.raises(ValueError, match=f"depth-{k}"):
            cylinders(model, k)
        return
    words, rects = cylinders(model, k)
    assert words.dtype == expected[0].dtype and rects.dtype == expected[1].dtype
    assert np.array_equal(words, expected[0])
    assert np.array_equal(rects, expected[1])


@PROPERTY_SETTINGS
@given(model=diagonal_models(), k=st.integers(1, 4))
def test_cylinders_nest(model, k):
    try:
        words, rects = cylinders(model, k)
        deeper_words, deeper_rects = cylinders(model, k + 1)
    except ValueError:
        return
    parent = {tuple(w): r for w, r in zip(words.tolist(), rects)}
    for w, rect in zip(deeper_words.tolist(), deeper_rects):
        outer = parent[tuple(w[:k])]
        # slack for the 1e-15 emptiness margin, magnified by the inverses
        assert np.all(rect[0] >= outer[0] - 1e-9)
        assert np.all(rect[1] <= outer[1] + 1e-9)
        assert np.all(rect[0] <= rect[1])


@PROPERTY_SETTINGS
@given(data=st.data(), model=diagonal_models(), k_max=st.integers(1, 8))
def test_partition_sums_equal_word_enumeration(data, model, k_max):
    pot = data.draw(potentials(model.nsym))
    sums = partition_sums_through(model, pot, k_max)
    for k in range(1, k_max + 1):
        words = admissible_words(model, k)
        assert len(words) == count_admissible_words(model, k)
        brute = np.exp(pot.values[words].sum(axis=1)).sum()
        assert sums[k - 1] == pytest.approx(brute, rel=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data(), model=markov_models(), power=st.integers(2, 3))
def test_power_model_pressure_scales(data, model, power):
    pot = data.draw(potentials(model.nsym))
    iterate = power_model(model, power)
    words = cylinders(model, power)[0]
    assert iterate.nsym == count_admissible_words(model, power)
    composed = Potential(pot.values[words].sum(axis=1))
    expected = power * pressure_spectral(model, pot)
    assert pressure_spectral(iterate, composed) == pytest.approx(expected, abs=1e-9)


@PROPERTY_SETTINGS
@given(model=st.one_of(diagonal_models(), markov_models()))
def test_json_round_trip_is_exact(model):
    text = model.to_json()
    again = ModelSystem.from_json(text)
    assert again.to_json() == text
    assert np.array_equal(again.lambda_u, model.lambda_u)
    assert (again.lambda_s is None) == (model.lambda_s is None)
    if model.lambda_s is not None:
        assert np.array_equal(again.lambda_s, model.lambda_s)
    for b, c in zip(model.branches, again.branches):
        for field in ("lo", "hi", "linear", "offset"):
            assert np.array_equal(getattr(b, field), getattr(c, field))
