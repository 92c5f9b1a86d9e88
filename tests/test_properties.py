"""Property tests of the symbolic layer and of tracking on random diagonal affine models.

Models are drawn as JSON documents and loaded through
`ModelSystem.from_json_dict`, so every check also runs on the schema a
user writes.  The word-by-word cylinder recursion below is kept as the
oracle for the level-wise `cylinders`, and stepping whole points with
`ModelSystem.step` as the oracle for the one-axis tracking kernel.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hypdim.models import ModelSystem, Potential, build_linear_horseshoe
from hypdim.pressure import (
    _CoverDistance,
    _death_steps,
    _sample_axis,
    cover_rects,
    default_epsilon,
    volume_curve,
)
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


# -- one-axis tracking kernel ---------------------------------------------------


@st.composite
def factored_models(draw):
    """2-D diagonal models whose contracting axis splits off as a product factor.

    The expanding axis (either one) is cut into adjacent branch domains,
    so neighbouring branches share a boundary; images along it may miss
    every domain.  Along the contracting axis every domain is [0, 1] and
    every branch maps [0, 1] into itself.
    """
    axis = draw(st.integers(0, 1))
    m = draw(st.integers(2, 3))
    cuts = sorted(draw(st.lists(
        st.sampled_from([i / 8 for i in range(9)]), min_size=m + 1, max_size=m + 1, unique=True
    )))
    branches = []
    for sym in range(m):
        a, b = cuts[sym], cuts[sym + 1]
        slope = draw(_floats(2.0, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
        contraction = draw(_floats(0.1, 0.7)) * draw(st.sampled_from([1.0, -1.0]))
        slopes = [slope, contraction]
        offsets = [
            draw(_floats(-0.1, 1.1)) - slope * 0.5 * (a + b),
            draw(_floats(0.0, 1.0)) * (1.0 - abs(contraction)) + max(-contraction, 0.0),
        ]
        lo, hi = [a, 0.0], [b, 1.0]
        if axis == 1:
            slopes, offsets, lo, hi = slopes[::-1], offsets[::-1], lo[::-1], hi[::-1]
        branches.append({
            "symbol": sym,
            "domain": {"lo": lo, "hi": hi},
            "linear": np.diag(slopes).tolist(),
            "offset": offsets,
        })
    return ModelSystem.from_json_dict({
        "space": {"dim": 2, "geometry": draw(st.sampled_from(["cube", "torus"]))},
        "kind": "diffeo",
        "branches": branches,
        "transition": draw(transitions(m)),
        "unstable_dim": 1,
    })


def _assert_kernel_matches_stepping(model, dist, epsilon, k_max, seed):
    """The one-axis kernel's deaths equal those of stepping whole points."""
    ends = [v for b in model.branches for v in (b.lo[dist.axis], b.hi[dist.axis])]
    along = np.concatenate([_sample_axis(512, seed), ends])
    rng = np.random.default_rng(seed)
    pts = np.empty((len(along), model.n))
    pts[:] = rng.choice([0.0, 1.0, rng.random()], size=pts.shape)  # whole coordinates
    pts[:, dist.axis] = along
    oracle = _death_steps(model, pts, epsilon, k_max, dist)
    kernel = _death_steps(model, along, epsilon, k_max, dist)
    assert kernel.dtype == oracle.dtype
    assert np.array_equal(kernel, oracle)


@PROPERTY_SETTINGS
@given(
    model=st.one_of(diagonal_models().filter(lambda m: m.n == 1), factored_models()),
    depth=st.integers(1, 4),
    epsilon=_floats(0.02, 0.5),
    k_max=st.integers(1, 10),
    seed=st.integers(0, 1000),
)
def test_one_axis_kernel_equals_stepping_points(model, depth, epsilon, k_max, seed):
    try:
        dist = _CoverDistance(model, cylinders(model, depth)[1])
    except ValueError:
        assume(False)
    assume(dist.tracks_one_axis)
    _assert_kernel_matches_stepping(model, dist, epsilon, k_max, seed)


@pytest.mark.parametrize("lambda_u", [2.5, 4.0])
def test_one_axis_kernel_equals_stepping_points_on_the_horseshoe(lambda_u):
    model = build_linear_horseshoe(lambda_u, 0.25)
    epsilon = default_epsilon(model)
    dist = _CoverDistance(model, cover_rects(model, epsilon)[1])
    assert dist.tracks_one_axis
    _assert_kernel_matches_stepping(model, dist, epsilon, 12, 5)


@pytest.mark.parametrize("field,index,change", [("offset", None, 1e-12), ("domain", "hi", -1e-12)])
def test_whole_axes_factor_only_when_they_stay_inside_every_domain(field, index, change):
    # a 1e-12 miss of the unit interval is inside the cover's rounding
    # slack, yet y = 1 then leaves a domain of branch 1
    doc = build_linear_horseshoe(3.0, 0.25).to_json_dict()
    target = doc["branches"][1][field]
    (target[index] if index else target)[1] += change
    model = ModelSystem.from_json_dict(doc)
    epsilon = default_epsilon(model)
    dist = _CoverDistance(model, cover_rects(model, epsilon)[1])
    assert dist.mode == "intervals" and not dist.factors and not dist.tracks_one_axis
    along = _sample_axis(4096, 1)
    pts = np.column_stack([along, np.ones_like(along)])
    assert not np.array_equal(
        _death_steps(model, along, epsilon, 6, dist), _death_steps(model, pts, epsilon, 6, dist)
    )


@settings(max_examples=20, deadline=None)
@given(model=factored_models(), epsilon=_floats(0.05, 0.5), k_max=st.integers(4, 8))
def test_volume_curve_does_not_depend_on_threads(model, epsilon, k_max):
    try:
        one = volume_curve(model, epsilon, k_max, 1 << 14, threads=1)
    except ValueError:
        assume(False)
    two = volume_curve(model, epsilon, k_max, 1 << 14, threads=2)
    assert np.array_equal(one.volumes, two.volumes)
    assert np.array_equal(one.bands, two.bands)
