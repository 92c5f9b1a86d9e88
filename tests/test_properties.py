"""Property tests of the symbolic layer and of tracking on random diagonal affine models.

Models are drawn as JSON documents and loaded through
`ModelSystem.from_json_dict`, so every check also runs on the schema a
user writes.  The word-by-word cylinder recursion below is kept as the
oracle for the level-wise `cylinders`, stepping whole points with
`ModelSystem.step` as the oracle for the one-axis tracking kernel, the
loop merge and the clipped lookup as the oracles for the vectorised
interval lookup, stepping every sample as the oracle for the stable
sampler's pullback prefilter, the per-word pullback loop and the
per-depth cover search as the oracles for the cylinder levels (their
rectangles and their first and parent rows), the `np.unique` count as
the oracle for step-counted and multi-scale box counts, the per-branch
`np.ix_` loop as the oracle for the product split, the `itertools.product`
of each axis's distinct branch rows as the oracle for the order check,
reachability over nonzero off-diagonal entries as the oracle for the
coupling blocks, stepping every point
as the oracle for the zero-cover shortcut, the SVD of every word's product
as the oracle for the 1-D expansion rate, separate calls that each
solve their own Perron problems as the oracle for the bound report,
the k-d tree as the oracle for the Minkowski curve of product clouds,
the Perron loop with its bracket on numpy arrays as the oracle for the
scalar bracket, integer word counts as the oracle for the word-cap
check by bound, the per-branch `AffineBranch.apply` loop as the
oracle for `ModelSystem.step`, and the rectangle-by-rectangle `_brute`
as the oracle for the axis-by-axis distance to product covers.
"""

import itertools
import math
import re
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hypdim import pressure, symbolic
from hypdim.dimension import (
    CLASSIFY_TOL_EXACT,
    BoundReport,
    _equivalence_checks,
    bound_report,
    box_count,
    box_counts,
    classify,
    dimension_bound,
    expansion_rate,
    minkowski_content_curve,
)
from hypdim.errors import CapExceededError, HypdimError, NotMixingError
from hypdim.models import (
    ModelSystem,
    Potential,
    build_cantor_repeller,
    build_cat_map,
    build_doubling_map,
    build_golden_mean,
    build_linear_horseshoe,
    first_branch,
    potential,
)
from hypdim.pressure import (
    PressureEstimate,
    ProductCloud,
    _CoverDistance,
    _death_steps,
    _pullback_tol,
    _sample_axis,
    _tracking_superset,
    cover_distance,
    cover_rects,
    default_epsilon,
    sample_local_stable_set,
    stable_resolution,
    volume_curve,
)
from hypdim.symbolic import (
    admissible_words,
    count_admissible_words,
    cylinder_levels,
    cylinders,
    equilibrium_markov_chain,
    is_primitive,
    markov_measure_stats,
    partition_sums_through,
    perron_root,
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
    ends = [v for b in model.branches for v in (b.lo[dist.axes[0]], b.hi[dist.axes[0]])]
    along = np.concatenate([_sample_axis(512, seed), ends])
    rng = np.random.default_rng(seed)
    pts = np.empty((len(along), model.n))
    pts[:] = rng.choice([0.0, 1.0, rng.random()], size=pts.shape)  # whole coordinates
    pts[:, dist.axes[0]] = along
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
    assume(dist.tracked is not None and len(dist.tracked) == 1)
    _assert_kernel_matches_stepping(model, dist, epsilon, k_max, seed)


@pytest.mark.parametrize("lambda_u", [2.5, 4.0])
def test_one_axis_kernel_equals_stepping_points_on_the_horseshoe(lambda_u):
    model = build_linear_horseshoe(lambda_u, 0.25)
    epsilon = default_epsilon(model)
    dist = _CoverDistance(model, cover_rects(model, epsilon)[1])
    assert dist.tracked == [0]
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
    assert dist.axes == [0] and not dist.factors and dist.tracked is None
    along = _sample_axis(4096, 1)
    pts = np.column_stack([along, np.ones_like(along)])
    assert not np.array_equal(
        _death_steps(model, along, epsilon, 6, dist), _death_steps(model, pts, epsilon, 6, dist)
    )


def per_branch_leaves_whole(model: ModelSystem, whole: np.ndarray) -> bool:
    """The per-branch `np.ix_` loop that `ModelSystem.leaves_whole` replaced."""
    if not whole.any():
        return False
    for b in model.branches:
        block = b.linear[np.ix_(whole, whole)]
        image = np.stack([np.minimum(block, 0.0), np.maximum(block, 0.0)]).sum(axis=2) + b.offset[whole]
        spans = np.all(b.lo[whole] <= 0.0) and np.all(b.hi[whole] >= 1.0)
        coupled = np.any(b.linear[np.ix_(whole, ~whole)]) or np.any(b.linear[np.ix_(~whole, whole)])
        inside = model.space.is_torus or (image.min() >= 0.0 and image.max() <= 1.0)
        if not spans or coupled or not inside:
            return False
    return True


@st.composite
def split_models(draw, dims=st.integers(1, 3)):
    """Diagonal and coupled models on the cube or the torus, in 1 to 3 dimensions (or `dims`).

    Domains span the unit interval, miss it by 1e-12 or cover part of
    it; linear parts are diagonal or carry off-diagonal entries, and
    offsets put images inside the unit interval, on its ends or past them.
    """
    n = draw(dims)
    m = draw(st.integers(1, 3))
    coupled = draw(st.booleans())
    entry = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 2.0]) | _floats(-2.0, 2.0)
    domain = st.sampled_from(
        [(0.0, 1.0), (0.0, 1.0), (-0.1, 1.1), (0.0, 1.0 - 1e-12), (1e-12, 1.0), (0.2, 0.6)]
    )
    offset = st.sampled_from([0.0, 0.5, 1.0, -0.5, 0.25, 0.75]) | _floats(-1.0, 1.0)
    branches = []
    for sym in range(m):
        linear = np.diag([draw(entry) for _ in range(n)])
        if coupled:
            for i in range(n):
                for j in range(n):
                    if i != j and draw(st.booleans()):
                        linear[i, j] = draw(entry)
        ends = [draw(domain) for _ in range(n)]
        branches.append({
            "symbol": sym,
            "domain": {"lo": [e[0] for e in ends], "hi": [e[1] for e in ends]},
            "linear": linear.tolist(),
            "offset": [draw(offset) for _ in range(n)],
        })
    return ModelSystem.from_json_dict({
        "space": {"dim": n, "geometry": draw(st.sampled_from(["cube", "torus"]))},
        "kind": "expanding",
        "branches": branches,
        "transition": np.ones((m, m), dtype=int).tolist(),
        "unstable_dim": n,
    })


def enumerated_in_order(model: ModelSystem, axes) -> bool:
    """The `itertools.product` of each axis's distinct branch rows, in order of first appearance, against the
    branches' rows along `axes`, in symbol order."""
    words = [tuple((b.lo[a], b.hi[a], b.linear[a, a], b.offset[a]) for a in axes) for b in model.branches]
    firsts = [list(dict.fromkeys(word[i] for word in words)) for i in range(len(axes))]
    return words == list(itertools.product(*firsts))


def reachable_block(model: ModelSystem) -> list:
    """Per axis, the lowest axis reachable from it over nonzero off-diagonal entries of any linear part."""
    linked = [[i != j and any(b.linear[i, j] != 0 or b.linear[j, i] != 0 for b in model.branches)
               for j in range(model.n)] for i in range(model.n)]
    lowest = []
    for start in range(model.n):
        seen, todo = {start}, [start]
        while todo:
            i = todo.pop()
            todo += [j for j in range(model.n) if linked[i][j] and j not in seen]
            seen.update(todo)
        lowest.append(min(seen))
    return lowest


def _assert_factorization_matches_the_loops(model: ModelSystem):
    factorization, block = model.factorization, reachable_block(model)
    assert model.factorization is factorization
    assert factorization.block.tolist() == block
    for bits in range(1 << model.n):
        mask = np.array([(bits >> a) & 1 for a in range(model.n)], dtype=bool)
        assert factorization.splits_off(mask) is per_branch_leaves_whole(model, mask)
        axes = np.flatnonzero(mask).tolist()
        if axes:
            ordered = enumerated_in_order(model, axes)
            assert len(axes) < 2 or factorization.in_order(axes) is ordered
            alone = all(block.count(a) == 1 and block[a] == a for a in axes)
            assert factorization.separates(axes) is (alone and (len(axes) < 2 or ordered))
    spans = np.all([(b.lo <= 0.0) & (b.hi >= 1.0) for b in model.branches], axis=0)
    assert np.array_equal(factorization.whole, spans & per_branch_leaves_whole(model, spans))


@PROPERTY_SETTINGS
@given(model=split_models() | diagonal_models() | factored_models())
def test_leaves_whole_equals_the_per_branch_loop(model):
    _assert_factorization_matches_the_loops(model)


@pytest.mark.parametrize("model", [build_linear_horseshoe(3.0, 0.25), build_doubling_map(2),
                                   build_cantor_repeller(3, (0, 2)), build_cat_map(), build_golden_mean()],
                         ids=["horseshoe", "doubling", "cantor", "catmap", "golden"])
def test_the_factorization_of_a_built_in_equals_the_loops(model):
    _assert_factorization_matches_the_loops(model)


# -- the model's stacked branch arrays ----------------------------------------------


def free_mask_branch_of(pts: np.ndarray, branches, axes) -> np.ndarray:
    """The free-mask loop that `first_branch` replaced: each branch, in symbol order, takes the
    (N, len(axes)) points that no lower symbol took and that lie in its domain on `axes`."""
    idx = np.full(pts.shape[0], -1, dtype=np.int64)
    for b in branches:
        free = idx < 0
        if not free.any():
            break
        hit = np.all((pts[free] >= b.lo[axes]) & (pts[free] <= b.hi[axes]), axis=1)
        idx[np.flatnonzero(free)[hit]] = b.symbol
    return idx


def pair_loop_branch_separation(model: ModelSystem) -> float:
    """The double loop over branch pairs that `ModelSystem.branch_separation` replaced."""
    if any(np.any(b.linear != np.diag(np.diag(b.linear))) for b in model.branches):
        return 0.0
    best = math.inf
    for i in range(model.nsym):
        for j in range(i + 1, model.nsym):
            a, b = model.branches[i], model.branches[j]
            da, db = np.diag(a.linear), np.diag(b.linear)
            contracting = (np.abs(1.0 / da) <= 1.0) & (np.abs(1.0 / db) <= 1.0)
            if not contracting.any():
                best = 0.0
                continue
            coef = 1.0 / da - 1.0 / db
            const = b.offset / db - a.offset / da
            at_zero, at_one = np.abs(const), np.abs(coef + const)
            lower = np.where(const * (coef + const) < 0, 0.0, np.minimum(at_zero, at_one))
            best = min(best, float(lower[contracting].max()))
    return 0.0 if not math.isfinite(best) else best


def _domain_points(model: ModelSystem, seed: int) -> np.ndarray:
    """Uniform points around the unit cube, then points whose every coordinate is some domain end."""
    rng = np.random.default_rng(seed)
    ends = np.concatenate([model.lo, model.hi])  # (2m, n): every domain end, per axis
    corners = ends[rng.integers(0, len(ends), size=(256, model.n)), np.arange(model.n)]
    return np.concatenate([rng.uniform(-0.2, 1.2, size=(256, model.n)), ends, corners])


@PROPERTY_SETTINGS
@given(model=split_models() | diagonal_models() | factored_models(), seed=st.integers(0, 1000))
def test_first_branch_equals_the_free_mask_loop(model, seed):
    pts = _domain_points(model, seed)
    all_axes = np.arange(model.n)
    expected = free_mask_branch_of(model.wrap(pts), model.branches, all_axes)
    assert np.array_equal(model.branch_of(pts), expected)
    assert np.array_equal(first_branch(pts, model.lo, model.hi), free_mask_branch_of(pts, model.branches, all_axes))
    for axis in range(model.n):
        x = pts[:, axis]
        got = first_branch(x, model.lo[:, axis], model.hi[:, axis])
        assert got.dtype == np.int64
        assert np.array_equal(got, free_mask_branch_of(x[:, None], model.branches, [axis]))


def _no_contracting_pair():
    """Three 1-D branches; the pair (0, 1) has a contracting axis and the pair (0, 2) has none."""
    slopes, offsets = [3.0, -2.5, 0.5], [0.0, 2.5, 0.3]
    return ModelSystem.from_json_dict({
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": [
            {"symbol": s, "domain": {"lo": [s / 3], "hi": [(s + 1) / 3]}, "linear": [[slope]], "offset": [off]}
            for s, (slope, off) in enumerate(zip(slopes, offsets))
        ],
        "transition": np.ones((3, 3), dtype=int).tolist(),
        "unstable_dim": 1,
    })


@PROPERTY_SETTINGS
@given(model=split_models() | diagonal_models() | factored_models() | markov_models())
@example(model=build_cat_map())  # a linear part that is not diagonal
@example(model=_no_contracting_pair())
def test_branch_separation_equals_the_pair_loop(model):
    with np.errstate(divide="ignore", invalid="ignore"):
        assert model.branch_separation == pair_loop_branch_separation(model)


def test_branch_separation_is_zero_where_the_argument_fails():
    assert build_cat_map().branch_separation == 0.0  # coupled linear parts
    model = _no_contracting_pair()
    assert model.branch_separation == 0.0
    # without branch 2 the one pair left has a contracting axis and a positive bound
    doc = {**model.to_json_dict(), "transition": [[1, 1], [1, 1]]}
    doc["branches"] = doc["branches"][:2]
    assert ModelSystem.from_json_dict(doc).branch_separation == pytest.approx(0.8 / 3)


_BUILTINS = (
    build_linear_horseshoe(3.0, 0.25), build_doubling_map(3), build_cantor_repeller(3, (0, 2)),
    build_golden_mean(), build_cat_map(),
)


def _with_builtins(**arguments):
    """Add each built-in model as an `example`, with the other `arguments`."""

    def decorate(test):
        for model in _BUILTINS:
            test = example(model=model, **arguments)(test)
        return test

    return decorate


@PROPERTY_SETTINGS
@given(model=split_models() | diagonal_models() | factored_models() | markov_models())
@_with_builtins()
def test_stacked_branch_arrays_are_the_branch_fields_read_only(model):
    assert len(model.branches) == model.nsym
    for s, branch in enumerate(model.branches):
        assert branch.symbol == s
        for name in ("lo", "hi", "linear", "offset"):
            field, row = getattr(branch, name), getattr(model, name)[s]
            assert field.dtype == row.dtype and field.shape == row.shape
            assert field.tobytes() == row.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.0
    for name in ("lo", "hi", "linear", "offset"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] = 0.0


def branch_loop_step(model: ModelSystem, points: np.ndarray):
    """The per-branch `AffineBranch.apply` loop that `ModelSystem.step` replaced."""
    pts = model.wrap(np.atleast_2d(np.asarray(points, dtype=float)))
    idx = model.branch_of(pts)
    out = pts.copy()
    for b in model.branches:
        sel = idx == b.symbol
        if sel.any():
            out[sel] = model.wrap(b.apply(pts[sel]))
    return out, idx


@PROPERTY_SETTINGS
@given(model=split_models() | diagonal_models() | factored_models() | markov_models(), seed=st.integers(0, 1000))
@_with_builtins(seed=0)
def test_step_equals_the_per_branch_apply_loop(model, seed):
    pts = _domain_points(model, seed)  # escaped points and domain ends included
    out, idx = model.step(pts)
    expected_out, expected_idx = branch_loop_step(model, pts)
    assert np.array_equal(idx, expected_idx)
    assert out.tobytes() == expected_out.tobytes()


@pytest.mark.parametrize("resolution,seed", [(1, 0), (64, 3), (1024, 8), (65536, 7)])
def test_sample_axis_is_a_read_only_copy_of_a_fresh_draw(resolution, seed):
    fresh = (np.arange(resolution) + np.random.default_rng(seed).random(resolution)) / resolution
    for _ in range(2):  # the draw, then the kept one
        axis = _sample_axis(resolution, seed)
        assert axis.tobytes() == fresh.tobytes()
        assert not axis.flags.writeable
        with pytest.raises(ValueError):
            axis[0] = 0.5


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


# -- zero covers on the torus ----------------------------------------------------

# hyperbolic toral automorphisms: with a zero offset the bounding box of
# the preimage of a domain contains the domain, so cylinders never shrink
CAT_MATRICES = (
    [[2.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 2.0]], [[3.0, 2.0], [1.0, 1.0]], [[1.0, 2.0], [1.0, 3.0]]
)


@st.composite
def zero_cover_torus_models(draw, spanning=True):
    """2-D torus diffeos on a full shift whose cylinders never shrink, so the cover mode is zero.

    With `spanning`, some branch domain spans the torus; the others (and
    every domain otherwise) stop 1e-10 short of its upper edges, inside
    the cover's rounding slack but outside `branch_of`.
    """
    m = draw(st.integers(1, 3))
    wide = draw(st.integers(0, m - 1)) if spanning else -1
    branches = []
    for sym in range(m):
        lo, hi = [0.0, 0.0], [1.0, 1.0] if sym == wide else [1.0 - 1e-10] * 2
        branches.append({
            "symbol": sym,
            "domain": {"lo": lo, "hi": hi},
            "linear": draw(st.sampled_from(CAT_MATRICES)),
            "offset": [0.0, 0.0],
        })
    return ModelSystem.from_json_dict({
        "space": {"dim": 2, "geometry": "torus"},
        "kind": "diffeo",
        "branches": branches,
        "transition": np.ones((m, m), dtype=int).tolist(),
        "unstable_dim": 1,
    })


def _stepped(function, *args, **kwargs):
    """`function` with the zero-cover shortcut off, so that every point is stepped."""
    with mock.patch.object(pressure, "_tracks_forever", lambda *a: False):
        return function(*args, **kwargs)


@PROPERTY_SETTINGS
@given(
    model=zero_cover_torus_models(),
    epsilon=_floats(0.2, 1.0),
    k_max=st.integers(1, 6),
    seed=st.integers(0, 100),
)
def test_a_zero_cover_on_the_torus_with_a_spanning_branch_kills_no_point(model, epsilon, k_max, seed):
    dist = cover_distance(model, epsilon)
    assert dist.axes == [] and pressure._tracks_forever(model, dist, epsilon)
    rng = np.random.default_rng(seed)
    edges = np.array([0.0, 1.0, 1e-10, 1.0 - 1e-11, np.nextafter(1.0, 0.0), -5e-324])
    corners = np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)
    pts = np.concatenate([rng.random((64, 2)), corners])
    assert np.all(_death_steps(model, pts, epsilon, k_max, dist) == k_max)
    curve = volume_curve(model, epsilon, k_max, 32)
    assert curve.to_json_dict() == _stepped(volume_curve, model, epsilon, k_max, 32).to_json_dict()
    cloud = sample_local_stable_set(model, epsilon, k_max, samples=32, seed=seed)
    stepped = _stepped(sample_local_stable_set, model, epsilon, k_max, samples=32, seed=seed)
    assert isinstance(cloud, ProductCloud)
    assert np.asarray(cloud).tobytes() == stepped.tobytes()


@PROPERTY_SETTINGS
@given(model=zero_cover_torus_models(spanning=False), epsilon=_floats(0.2, 1.0), k_max=st.integers(2, 6))
def test_a_zero_cover_without_a_spanning_branch_still_steps(model, epsilon, k_max):
    dist = cover_distance(model, epsilon)
    assert dist.axes == [] and not pressure._tracks_forever(model, dist, epsilon)
    # the torus point (1 - 1e-11, 1/2) lies in no branch domain: it dies at the first step
    death = _death_steps(model, np.array([[1.0 - 1e-11, 0.5], [0.5, 0.5]]), epsilon, k_max, dist)
    assert death[0] == 1 and death[1] == k_max
    curve = volume_curve(model, epsilon, k_max, 32)
    assert curve.to_json_dict() == _stepped(volume_curve, model, epsilon, k_max, 32).to_json_dict()
    cloud = sample_local_stable_set(model, epsilon, k_max, samples=32)
    assert isinstance(cloud, np.ndarray)
    stepped = _stepped(sample_local_stable_set, model, epsilon, k_max, samples=32)
    assert cloud.tobytes() == stepped.tobytes()


# -- interval lookups and the tracking pullback ----------------------------------


def loop_merged_intervals(lo, hi):
    """The merge loop `_CoverDistance` used before its intervals were vectorised."""
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    mlo, mhi = [lo[0]], [hi[0]]
    for a, b in zip(lo[1:], hi[1:]):
        if a <= mhi[-1] + 1e-15:
            mhi[-1] = max(mhi[-1], b)
        else:
            mlo.append(a)
            mhi.append(b)
    return np.array(mlo), np.array(mhi)


def clipped_along_axis(lo, hi, x):
    """The interval lookup before padding: both neighbours, clipped at the ends."""
    j = np.searchsorted(lo, x)
    dist = np.full(x.shape, np.inf)
    for jj in (np.clip(j - 1, 0, len(lo) - 1), np.clip(j, 0, len(lo) - 1)):
        gap = np.maximum(np.maximum(lo[jj] - x, x - hi[jj]), 0.0)
        dist = np.minimum(dist, gap)
    return dist


def _near(values):
    """Each value and its two float neighbours."""
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@PROPERTY_SETTINGS
@given(
    geometry=st.sampled_from(["cube", "torus"]),
    ends=st.lists(
        st.tuples(_floats(0.0, 1.0), _floats(0.0, 0.3), st.sampled_from(["free", "edge", "past"])),
        min_size=1, max_size=12,
    ),
    seed=st.integers(0, 1000),
)
def test_interval_lookup_is_bit_identical_to_the_clipped_lookup(geometry, ends, seed):
    # an "edge" interval starts exactly at the merge threshold of the one before, "past" one ulp beyond
    lo, hi = [], []
    for start, width, link in ends:
        if lo and link != "free":
            edge = hi[-1] + 1e-15
            start = edge if link == "edge" else np.nextafter(edge, np.inf)
        lo.append(start)
        hi.append(min(start + width, 1.0))
    lo, hi = np.array(lo), np.maximum(np.array(hi), lo)
    model = ModelSystem.from_json_dict({
        "space": {"dim": 1, "geometry": geometry},
        "kind": "expanding",
        "branches": [{"symbol": 0, "domain": {"lo": [0.0], "hi": [1.0]}, "linear": [[2.0]],
                      "offset": [0.0]}],
        "transition": [[1]],
        "unstable_dim": 1,
    })
    rects = np.stack([lo, hi], axis=1)[:, :, None]
    dist = _CoverDistance(model, rects)
    assume(dist.axes == [0])
    mlo, mhi = loop_merged_intervals(lo, hi)
    if geometry == "torus":
        mlo, mhi = np.concatenate([mlo - 1, mlo, mlo + 1]), np.concatenate([mhi - 1, mhi, mhi + 1])
    assert all(map(np.array_equal, dist.merged[0], (mlo, mhi)))
    ends = np.concatenate([lo, hi])
    x = np.concatenate([
        _near(np.concatenate([ends, ends - 1.0, ends + 1.0])),
        np.random.default_rng(seed).uniform(-0.5, 1.5, 256),
    ])
    assert np.array_equal(dist.along_axis(x), clipped_along_axis(*dist.merged[0], x))


def _unit_model(geometry: str, n: int) -> ModelSystem:
    """One branch x -> 2x on the whole unit cube or torus of dimension n."""
    return ModelSystem.from_json_dict({
        "space": {"dim": n, "geometry": geometry},
        "kind": "expanding",
        "branches": [{"symbol": 0, "domain": {"lo": [0.0] * n, "hi": [1.0] * n},
                      "linear": (2.0 * np.eye(n)).tolist(), "offset": [0.0] * n}],
        "transition": [[1]],
        "unstable_dim": n,
    })


@PROPERTY_SETTINGS
@given(
    geometry=st.sampled_from(["cube", "torus"]),
    intervals=st.lists(
        # ends on a 1/1024 lattice, so neighbours touch, overlap or lie at least 1/1024 apart
        st.lists(st.tuples(st.integers(0, 1024), st.integers(0, 600)), min_size=1, max_size=4),
        min_size=2, max_size=3,
    ),
    seed=st.integers(0, 1000),
)
def test_a_product_cover_is_measured_axis_by_axis_as_brute_force_measures_it(geometry, intervals, seed):
    n = len(intervals)
    per_axis = [[(a / 1024, min(a + w, 1024) / 1024) for a, w in axis] for axis in intervals]
    rects = np.array([np.array(combo).T for combo in itertools.product(*per_axis)])  # (R, 2, n)
    model = _unit_model(geometry, n)
    dist = _CoverDistance(model, rects)
    assert dist.axes == list(range(n))
    rng = np.random.default_rng(seed)
    ends = np.unique(rects)
    pts = np.concatenate([rng.uniform(-0.5, 1.5, (256, n)), rng.choice(_near(ends), (256, n))])
    assert np.array_equal(dist(pts), dist._brute(pts))
    # without every combination of the intervals the cover is no product
    if sum(len(set(axis)) > 1 for axis in per_axis) >= 2:
        dropped = rects[(rects != rects[rng.integers(len(rects))]).any(axis=(1, 2))]
        assert _CoverDistance(model, dropped).axes is None


def _one_axis_cover(model, epsilon):
    try:
        dist = cover_distance(model, epsilon)
    except (ValueError, HypdimError):  # no geometric mass, or too many words
        assume(False)
    assume(dist.tracked is not None and len(dist.tracked) == 1)
    return dist


def _as_diffeo(model):
    return ModelSystem.from_json_dict({**model.to_json_dict(), "kind": "diffeo"})


def _assert_sampler_keeps_the_death_loop_survivors(model, dist, epsilon, depth, samples, seed):
    cloud = sample_local_stable_set(model, epsilon, depth, samples=samples, seed=seed)
    assert isinstance(cloud, ProductCloud)
    x = _sample_axis(samples, seed)
    assert np.array_equal(cloud.factors[dist.axes[0]][:, 0], x[_death_steps(model, x, epsilon, depth, dist) >= depth])


@PROPERTY_SETTINGS
@given(
    model=st.one_of(diagonal_models().filter(lambda m: m.n == 1).map(_as_diffeo), factored_models()),
    epsilon=_floats(0.03, 0.5),
    depth=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
def test_stable_sampler_keeps_exactly_the_death_loop_survivors(model, epsilon, depth, seed):
    dist = _one_axis_cover(model, epsilon)
    _assert_sampler_keeps_the_death_loop_survivors(model, dist, epsilon, depth, 4096, seed)


@pytest.mark.parametrize("lambda_u", np.round(np.arange(2.2, 4.01, 0.2), 12).tolist())
def test_stable_sampler_keeps_exactly_the_death_loop_survivors_over_the_sweep(lambda_u):
    model = build_linear_horseshoe(lambda_u, 0.25)
    epsilon = default_epsilon(model)
    dist = cover_distance(model, epsilon)
    assert dist.tracked == [0]
    samples = stable_resolution(model, 8, dist)
    _assert_sampler_keeps_the_death_loop_survivors(model, dist, epsilon, 8, samples, 7)


def _assert_pullback_holds_the_survivors_at_its_rounding_edges(model, dist, epsilon, depth):
    # the points where rounding decides: the unwidened pullback's ends and their neighbours
    exact_lo, exact_hi = _tracking_superset(model, dist, epsilon, depth, 0.0)
    x = _near(np.concatenate([exact_lo, exact_hi]))
    x = np.sort(x[(x >= 0.0) & (x < 1.0)])
    kept = x[_death_steps(model, x, epsilon, depth, dist) >= depth]
    lo, hi = _tracking_superset(model, dist, epsilon, depth, _pullback_tol(model, dist.axes[0], epsilon))
    j = np.searchsorted(lo, kept, "right") - 1
    assert np.all((j >= 0) & (kept <= hi[np.maximum(j, 0)]))


@PROPERTY_SETTINGS
@given(
    model=st.one_of(diagonal_models().filter(lambda m: m.n == 1), factored_models()),
    epsilon=_floats(0.03, 0.5),
    depth=st.integers(1, 10),
)
def test_pullback_holds_every_survivor_at_its_rounding_edges(model, epsilon, depth):
    dist = _one_axis_cover(model, epsilon)
    _assert_pullback_holds_the_survivors_at_its_rounding_edges(model, dist, epsilon, depth)


@pytest.mark.parametrize("depth", [8, 12])
@pytest.mark.parametrize("lambda_u", np.round(np.arange(2.2, 4.01, 0.2), 12).tolist())
def test_pullback_holds_every_survivor_at_its_rounding_edges_over_the_sweep(lambda_u, depth):
    model = build_linear_horseshoe(lambda_u, 0.25)
    epsilon = default_epsilon(model)
    dist = cover_distance(model, epsilon)
    _assert_pullback_holds_the_survivors_at_its_rounding_edges(model, dist, epsilon, depth)


@pytest.mark.parametrize("geometry,samples", [("torus", 8), ("cube", 64)])
def test_a_pullback_stopped_at_its_limit_keeps_the_cloud_of_the_whole_pullback(monkeypatch, geometry, samples):
    # on the torus the shifted targets already cost more than the limit; on the cube a level does
    doc = build_linear_horseshoe(3.0, 0.25).to_json_dict()
    doc["space"]["geometry"] = geometry
    model = ModelSystem.from_json_dict(doc)
    epsilon, depth, seed = default_epsilon(model), 8, 3
    dist = cover_distance(model, epsilon)
    tol = _pullback_tol(model, dist.axes[0], epsilon)
    limited = _tracking_superset(model, dist, epsilon, depth, tol, limit=samples)
    whole = _tracking_superset(model, dist, epsilon, depth, tol)
    assert len(limited[0]) < len(whole[0])  # the limited pullback stopped early
    cloud = sample_local_stable_set(model, epsilon, depth, samples=samples, seed=seed)
    monkeypatch.setattr(pressure, "_tracking_superset", lambda *args, limit: _tracking_superset(*args))
    unlimited = sample_local_stable_set(model, epsilon, depth, samples=samples, seed=seed)
    assert [f.tobytes() for f in cloud.factors] == [f.tobytes() for f in unlimited.factors]
    _assert_sampler_keeps_the_death_loop_survivors(model, dist, epsilon, depth, samples, seed)


# -- one walk of the cylinder levels ---------------------------------------------


def per_word_cylinders(model: ModelSystem, k: int):
    """The per-word pullback loop: every word redoes the pullbacks of its whole tail."""
    words = admissible_words(model, k)
    branches = model.branches
    inverses = np.linalg.inv(np.stack([b.linear for b in branches]))
    offsets = np.stack([b.offset for b in branches])
    dom_lo = np.stack([b.lo for b in branches])
    dom_hi = np.stack([b.hi for b in branches])
    whole = model.factorization.whole
    lo, hi = dom_lo[words[:, -1]], dom_hi[words[:, -1]]
    keep = np.ones(len(words), dtype=bool)
    for symbols in words[:, -2::-1].T:
        inv = inverses[symbols]
        shifted_lo = (lo - offsets[symbols])[:, None, :]
        shifted_hi = (hi - offsets[symbols])[:, None, :]
        low = np.where(inv > 0, inv * shifted_lo, inv * shifted_hi).sum(axis=2)
        high = np.where(inv > 0, inv * shifted_hi, inv * shifted_lo).sum(axis=2)
        low[:, whole], high[:, whole] = -np.inf, np.inf
        lo = np.maximum(low, dom_lo[symbols])
        hi = np.minimum(high, dom_hi[symbols])
        keep &= ~np.any(lo > hi + 1e-15, axis=1)
        hi = np.maximum(hi, lo)
    if not keep.any():
        raise ValueError(f"no admissible depth-{k} word has geometric mass")
    return words[keep], np.stack([lo[keep], hi[keep]], axis=1)


def per_depth_cover_rects(model: ModelSystem, epsilon: float, max_depth: int):
    """The cover search that rebuilds every depth from scratch; None past `max_depth`."""
    rects = first = per_word_cylinders(model, 1)[1]
    base_ext = (rects[:, 1, :] - rects[:, 0, :]).max(axis=0)
    depth = 1
    while True:
        ext = (rects[:, 1, :] - rects[:, 0, :]).max(axis=0)
        shrinking = ext < base_ext - 1e-12
        if depth > 1 and not shrinking.any():
            return 1, first
        if shrinking.any() and ext[shrinking].max() < 0.25 * epsilon:
            return depth, rects
        depth += 1
        if depth > max_depth:
            return None
        _, rects = per_word_cylinders(model, depth)


BUILTINS = {
    "horseshoe:3,0.25": build_linear_horseshoe(3.0, 0.25),
    "horseshoe:2.5,0.1": build_linear_horseshoe(2.5, 0.1),
    "cantor:3,02": build_cantor_repeller(3, (0, 2)),
    "goldenmean": build_golden_mean(),
    "doubling:2": build_doubling_map(2),
    "catmap": build_cat_map(),
}


def _assert_same_arrays(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("k", [1, 2, 5])
def test_cylinders_equal_the_per_word_loop_on_the_builtins(name, k):
    model = BUILTINS[name]
    _assert_same_arrays(cylinders(model, k), per_word_cylinders(model, k))


@pytest.mark.parametrize("name", BUILTINS)
def test_a_walk_reads_back_depth_one_and_the_depths_asked(name):
    model = BUILTINS[name]
    walk = symbolic.CylinderWalk(model)
    _assert_same_arrays(walk.cylinders(2), per_word_cylinders(model, 2))
    _assert_same_arrays(walk.cylinders(5), per_word_cylinders(model, 5))
    for k in (1, 2):
        _assert_same_arrays(walk.cylinders(k), per_word_cylinders(model, k))
    # the rectangles of depths stepped over are not kept
    with pytest.raises(ValueError, match="has passed depth 3"):
        walk.rects(3)


def _cover_equals_the_per_depth_loop(model, epsilon) -> bool:
    """Assert the equality; False when the loop would go deeper than 8 levels."""
    try:
        expected = per_depth_cover_rects(model, epsilon, max_depth=8)
    except (ValueError, HypdimError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            cover_rects(model, epsilon)
        return True
    if expected is None:
        return False
    depth, rects = cover_rects(model, epsilon)
    assert depth == expected[0]
    _assert_same_arrays([rects], [expected[1]])
    return True


@st.composite
def touching_models(draw):
    """1-D models whose branches map a domain end exactly onto a domain end.

    Decimal domain ends and slopes make the pullbacks round, so some
    cylinders shrink to a point or overshoot it by an ulp: the cases
    that the 1e-15 emptiness margin and the clamp hi >= lo decide.
    """
    m = draw(st.integers(2, 3))
    ends = sorted(draw(st.lists(
        st.sampled_from([i / 20 for i in range(1, 20)]), min_size=2 * m - 2, max_size=2 * m - 2,
        unique=True,
    )))
    ends = [0.0, *ends, 1.0]
    domains = [(ends[2 * s], ends[2 * s + 1]) for s in range(m)]
    branches = []
    for sym, (a, b) in enumerate(domains):
        slope = draw(st.sampled_from([2.5, 3.0, 3.3, 4.1, 7.0])) * draw(st.sampled_from([1.0, -1.0]))
        start = draw(st.sampled_from(domains))[draw(st.integers(0, 1))]
        branches.append({
            "symbol": sym,
            "domain": {"lo": [a], "hi": [b]},
            "linear": [[slope]],
            "offset": [start - slope * draw(st.sampled_from([a, b]))],
        })
    return ModelSystem.from_json_dict({
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": branches,
        "transition": draw(transitions(m)),
        "unstable_dim": 1,
    })


@PROPERTY_SETTINGS
@given(model=touching_models(), k=st.integers(1, 6))
def test_cylinders_equal_the_per_word_loop_where_cylinders_touch(model, k):
    try:
        expected = per_word_cylinders(model, k)
    except ValueError:
        with pytest.raises(ValueError, match=f"depth-{k} "):
            cylinders(model, k)
        return
    _assert_same_arrays(cylinders(model, k), expected)


@PROPERTY_SETTINGS
@given(model=diagonal_models() | touching_models(), epsilon=_floats(0.1, 2.0))
def test_cover_rects_equal_the_per_depth_loop(model, epsilon):
    assume(_cover_equals_the_per_depth_loop(model, epsilon))


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_cover_rects_equal_the_per_depth_loop_on_the_builtins(name, scale):
    model = BUILTINS[name]
    assert _cover_equals_the_per_depth_loop(model, scale * default_epsilon(model))


def capped_line_model(m: int = 257) -> ModelSystem:
    """A full shift on m symbols whose depth-3 word count, m^3, exceeds the word cap.

    Branch 0 doubles [0, 1/2] onto [0, 1]; the other m - 1 branches
    double narrow domains in (1/2, 1] into [0, 1/128], inside domain 0
    only, so the geometric levels stay small while the admissible words
    grow as m^k.
    """
    width = 0.5 / (m - 1)
    branches = [{"symbol": 0, "domain": {"lo": [0.0], "hi": [0.5]}, "linear": [[2.0]], "offset": [0.0]}]
    for sym in range(1, m):
        lo = 0.5 + (sym - 1) * width
        branches.append({
            "symbol": sym,
            "domain": {"lo": [lo], "hi": [lo + width]},
            "linear": [[2.0]],
            "offset": [-2.0 * lo],
        })
    return ModelSystem.from_json_dict({
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": branches,
        "transition": np.ones((m, m), dtype=int).tolist(),
        "unstable_dim": 1,
    })


def test_cover_rects_refuse_the_capped_depth_before_building_it(monkeypatch):
    model = capped_line_model()
    # depth 2 (extent 1/4) is not below epsilon / 4, so the search asks for depth 3
    assert _cover_equals_the_per_depth_loop(model, 0.5)
    with pytest.raises(CapExceededError, match="of length 3 exceed"):
        cover_rects(model, 0.5)
    built = []

    def levels(model):
        for level in cylinder_levels(model):
            built.append(len(level[0]))
            yield level

    monkeypatch.setattr(symbolic, "cylinder_levels", levels)
    with pytest.raises(CapExceededError):
        cover_rects(model, 0.5)
    assert built == [257, 513]


# -- step-counted box counts ------------------------------------------------------


def unique_box_count(points, scale):
    """Distinct cell keys by `np.unique`, factor by factor."""
    extent = int(np.ceil(1.0 / scale)) + 2
    count = 1
    for factor in points.factors if isinstance(points, ProductCloud) else (points,):
        pts = np.asarray(factor, dtype=float)
        if pts.size == 0:
            return 0
        cells = np.floor(pts / scale).astype(np.int64)
        key = cells[:, 0].copy()
        for ax in range(1, cells.shape[1]):
            key = key * extent + cells[:, ax]
        count *= int(np.unique(key).size)
    return count


@st.composite
def line_values(draw):
    """Values on [0, 1] at a box scale: cell edges, their float neighbours, duplicates."""
    scale = draw(st.sampled_from([0.5, 0.25, 1 / 3, 2.0**-10, 3.0**-7]) | _floats(1e-4, 1.0))
    cells = int(np.ceil(1.0 / scale))
    edges = [i * scale for i in draw(st.lists(st.integers(0, cells), max_size=20))]
    near = np.nextafter(edges, draw(st.sampled_from([-np.inf, np.inf]))).tolist()
    values = edges + near + draw(st.lists(_floats(0.0, 1.0), max_size=30))
    values += draw(st.lists(st.sampled_from(values), max_size=10)) if values else []
    order = draw(st.sampled_from(["sorted", "descending", "shuffled"]))
    values = np.clip(np.array(values, dtype=float), 0.0, 1.0)
    if order == "shuffled":
        values = np.random.default_rng(draw(st.integers(0, 1000))).permutation(values)
    else:
        values = np.sort(values)[:: 1 if order == "sorted" else -1]
    return values, scale


@PROPERTY_SETTINGS
@given(line=line_values(), other=line_values())
def test_step_counted_box_count_equals_the_unique_count(line, other):
    (x, scale), (y, _) = line, other
    expected = unique_box_count(x[:, None], scale)
    assert box_count(x[:, None], scale) == expected
    assert box_count(x, scale) == expected
    cloud = ProductCloud((x[:, None], y[:, None]), ((0,), (1,)))
    assert box_count(cloud, scale) == unique_box_count(cloud, scale)
    if len(x) and len(y):
        assert box_count(np.asarray(cloud), scale) == unique_box_count(np.asarray(cloud), scale)


@st.composite
def scale_lists(draw):
    """Box scales mixing dyadic, triadic and random ones, with duplicates, near duplicates and 1.0."""
    scale = st.sampled_from([1.0, 0.5, 0.25, 2.0**-10, 1 / 3, 3.0**-4, 3.0**-7]) | _floats(1e-4, 1.0)
    scales = draw(st.lists(scale, min_size=1, max_size=8))
    twins = draw(st.lists(st.sampled_from(scales), max_size=2))
    return scales + twins + np.minimum(np.nextafter(twins, 2.0), 1.0).tolist()


@st.composite
def multi_scale_line(draw):
    """One-column values at the edges of every scale's cells, one ulp off them, and anywhere."""
    scales = draw(scale_lists())
    cells = [draw(st.lists(st.integers(-2, int(np.ceil(1 / s)) + 2), max_size=6)) for s in scales]
    edges = [i * s for s, ids in zip(scales, cells) for i in ids]
    near = np.nextafter(edges, draw(st.sampled_from([-np.inf, np.inf]))).tolist()
    values = edges + near + draw(st.lists(_floats(-0.2, 1.2), min_size=1, max_size=30))
    values += draw(st.lists(st.sampled_from(values), max_size=10))
    order = draw(st.sampled_from(["sorted", "descending", "shuffled"]))
    values = np.array(values, dtype=float)
    if order == "shuffled":
        values = np.random.default_rng(draw(st.integers(0, 1000))).permutation(values)
    else:
        values = np.sort(values)[:: 1 if order == "sorted" else -1]
    return values, scales


@PROPERTY_SETTINGS
@given(line=multi_scale_line(), other=line_values())
def test_multi_scale_box_counts_equal_the_unique_count_at_every_scale(line, other):
    (x, scales), (y, _) = line, other
    expected = [unique_box_count(x[:, None], s) for s in scales]
    assert box_counts(x, scales) == box_counts(x[:, None], scales) == expected
    assert [box_count(x, s) for s in scales] == expected
    cloud = ProductCloud((x[:, None], y[:, None]), ((1,), (0,)))
    assert box_counts(cloud, scales) == [unique_box_count(cloud, s) for s in scales]
    wide = ProductCloud((x[:, None], np.column_stack([y, y[::-1]])), ((0,), (1, 2)))
    assert box_counts(wide, scales) == [unique_box_count(wide, s) for s in scales]


# -- one-dimensional expansion rate ----------------------------------------------


def enumerated_rate(model: ModelSystem, k_max: int) -> np.ndarray:
    """per_k from the largest singular value of every admissible word's product."""
    linears = np.stack([b.linear for b in model.branches])
    prods = linears.copy()
    last = np.arange(model.nsym, dtype=np.int64)
    per_k = []
    for k in range(1, k_max + 1):
        norms = np.linalg.svd(prods, compute_uv=False)[:, 0]
        per_k.append(float(np.log(norms.max())) / k)
        if k == k_max:
            break
        rows, last = np.nonzero(model.transition[last])
        prods = linears[last] @ prods[rows]
    return np.array(per_k)


@st.composite
def interval_models(draw):
    """1-D models with signed slopes from 1.01 to 60 and pruned transitions."""
    m = draw(st.integers(2, 4))
    slopes = [
        draw(_floats(1.01, 60.0)) * draw(st.sampled_from([1.0, -1.0])) for _ in range(m)
    ]
    width = 1.0 / m
    branches = [
        {"symbol": s, "domain": {"lo": [s * width], "hi": [(s + 1) * width]},
         "linear": [[slope]], "offset": [0.5 - slope * (s + 0.5) * width]}
        for s, slope in enumerate(slopes)
    ]
    return ModelSystem.from_json_dict({
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": branches,
        "transition": draw(transitions(m)),
        "unstable_dim": 1,
    })


@PROPERTY_SETTINGS
@given(model=interval_models() | diagonal_models().filter(lambda m: m.n == 1), k_max=st.integers(1, 9))
def test_one_dimensional_rate_equals_the_enumeration(model, k_max):
    assume(model.uniform_linear is None)
    rate = expansion_rate(model, k_max)
    expected = enumerated_rate(model, k_max)
    assert rate.per_k.tobytes() == expected.tobytes()
    assert rate.value == float(expected.min()) and not rate.exact


# -- cylinder levels: first and parent rows ----------------------------------------


def per_word_levels(model: ModelSystem, k: int):
    """(first, parent, rects) of depths 1..k from the per-word loop.

    A word's parent is the row of its tail among the kept words one
    level up; a depth with no kept word has empty arrays.
    """
    levels, rows = [], None
    for depth in range(1, k + 1):
        try:
            words, rects = per_word_cylinders(model, depth)
        except ValueError:
            words, rects = np.empty((0, depth), dtype=np.int64), np.empty((0, 2, model.n))
        parent = None if rows is None else np.array(
            [rows[tuple(tail)] for tail in words[:, 1:].tolist()], dtype=np.int64
        )
        levels.append((words[:, 0].copy(), parent, rects))
        rows = {tuple(word): i for i, word in enumerate(words.tolist())}
    return levels


def _assert_levels_equal_the_per_word_loop(model, k, same_rects=_assert_same_arrays):
    for depth, ((first, parent, rects), (want_first, want_parent, want_rects)) in enumerate(
        zip(cylinder_levels(model), per_word_levels(model, k)), 1
    ):
        if depth == 1:
            assert parent is None and want_parent is None
            _assert_same_arrays([first], [want_first])
        else:
            _assert_same_arrays([first, parent], [want_first, want_parent])
        same_rects([rects], [want_rects])


@PROPERTY_SETTINGS
@given(model=markov_models() | touching_models(), k=st.integers(1, 6))
def test_cylinder_levels_link_every_word_to_its_tail(model, k):
    _assert_levels_equal_the_per_word_loop(model, k)


def _invertible(model) -> bool:
    try:
        np.linalg.inv(np.stack([b.linear for b in model.branches]))
    except np.linalg.LinAlgError:
        return False
    return True


def _assert_same_arrays_but_nan_bits(got, expected):
    """`_assert_same_arrays` with every NaN read as np.nan.

    A branch inverse with infinite or huge entries (a linear part near
    1e-308) turns rectangles into NaN; which NaN bits come out depends
    on the loop numpy picks, not on the arithmetic.
    """
    _assert_same_arrays(
        [np.where(np.isnan(a), np.nan, a) for a in got], [np.where(np.isnan(b), np.nan, b) for b in expected]
    )


def _minus_zero_pullback():
    """Branch 0 pulls domain 1's low end, 0.0 = its offset, back to -1 * 0.0 = -0.0.

    The pullback sums from +0.0, so the word 01 ends at +0.0; the clamp
    against domain 0's low end, -0.1, keeps whichever zero the sum gave.
    """
    return ModelSystem.from_json_dict({
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": [
            {"symbol": 0, "domain": {"lo": [-0.1], "hi": [1.1]}, "linear": [[-1.0]], "offset": [0.0]},
            {"symbol": 1, "domain": {"lo": [0.0], "hi": [1.0]}, "linear": [[2.0]], "offset": [0.0]},
        ],
        "transition": [[1, 1], [1, 1]],
        "unstable_dim": 1,
    })


def _infinite_inverse():
    """The x slope 1e-309 has an infinite inverse, so depth 2 has x-end inf * 0.0 = NaN.

    At depth 3 the zero coefficient of x in row y meets that NaN, and
    0.0 * NaN makes the y ends NaN too: every term is summed, zero
    coefficients included.
    """
    return ModelSystem.from_json_dict({
        "space": {"dim": 2, "geometry": "cube"},
        "kind": "expanding",
        "branches": [{"symbol": 0, "domain": {"lo": [0.0, 0.0], "hi": [0.5, 1.0]},
                      "linear": [[1e-309, 0.0], [0.0, 2.0]], "offset": [0.0, 0.0]}],
        "transition": [[1]],
        "unstable_dim": 2,
    })


@PROPERTY_SETTINGS
@given(model=split_models(), k=st.integers(1, 4))
@example(model=_minus_zero_pullback(), k=2)
@example(model=_infinite_inverse(), k=3)
def test_cylinder_levels_equal_the_per_word_loop_on_coupled_models(model, k):
    # zero and negative inverse entries, whole axes, and levels that empty
    assume(_invertible(model))
    with np.errstate(all="ignore"):
        _assert_levels_equal_the_per_word_loop(model, k, _assert_same_arrays_but_nan_bits)


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(model=split_models(dims=st.sampled_from([8, 9])), k=st.integers(1, 3))
def test_cylinder_levels_equal_the_per_word_loop_from_eight_axes_on(model, k):
    # numpy sums eight or more terms pairwise, not left to right
    assume(_invertible(model))
    with np.errstate(all="ignore"):
        _assert_levels_equal_the_per_word_loop(model, k, _assert_same_arrays_but_nan_bits)


def _one_branch_misses_a_domain():
    """Branch 1 maps its domain onto [0.6, 1.6], which misses domain 0: the word 10 has no mass."""
    return ModelSystem.from_json_dict({
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": [
            {"symbol": 0, "domain": {"lo": [0.0], "hi": [0.4]}, "linear": [[2.5]], "offset": [0.0]},
            {"symbol": 1, "domain": {"lo": [0.6], "hi": [1.0]}, "linear": [[2.5]], "offset": [-0.9]},
        ],
        "transition": [[1, 1], [1, 1]],
        "unstable_dim": 1,
    })


@pytest.mark.parametrize(
    "model, drops",
    [(build_golden_mean(), False), (build_cantor_repeller(3, (0, 2)), False),
     (_one_branch_misses_a_domain(), True)],
)
def test_cylinder_levels_compact_exactly_when_a_word_loses_its_mass(model, drops):
    sizes = [len(level[0]) for _, level in zip(range(6), cylinder_levels(model))]
    admissible = [int(count_admissible_words(model, k)) for k in range(1, 7)]
    assert (sizes != admissible) == drops
    _assert_levels_equal_the_per_word_loop(model, 6)


# -- one Perron solve per problem in the bound report ------------------------------


def test_perron_root_stops_where_rounding_holds_the_bracket():
    # e^phi_u of a random 3-branch horseshoe: eigenvalues 0.1744, -0.1721
    # and 0.0181; the iterate cycles with period 2 while the bracket stays
    # 2.2e-14 wide, above the 1e-14 tolerance
    a, b = 1 / 6.125, 1 / 49
    matrix = np.array([[0.0, 0.0, a], [0.0, b, a], [a, b, 0.0]])
    root, vector = perron_root(matrix)
    assert root == pytest.approx(max(np.linalg.eigvals(matrix).real), rel=1e-13)
    assert np.allclose(matrix @ vector, root * vector, rtol=1e-13, atol=0.0)


def vector_perron_root(matrix, tol=symbolic.SPECTRAL_TOL, max_iter=symbolic.SPECTRAL_MAX_ITER):
    """The Perron loop with the bracket worked out on numpy arrays, as it was before the scalar one."""
    m = np.asarray(matrix, dtype=float)
    v, last, before = np.ones(m.shape[0]), None, None
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            w = m @ v
            ratios = np.where(v > 0, w / v, math.inf)
            lo, hi = float(ratios.min()), float(ratios.max())
            if math.isfinite(hi) and (hi - lo <= tol * hi or np.array_equal(v, before)):
                root = 0.5 * (lo + hi)
                return root, w / np.linalg.norm(w)
            peak = w.max()
            if peak <= 0:
                raise NotMixingError("matrix is not primitive (iteration collapsed)")
            v, last, before = w / peak, v, last
    raise NotMixingError(f"power iteration did not converge within {max_iter} steps")


def _perron_outcome(solve, matrix, max_iter):
    """(root bits, vector bytes) of a solve, or the type and text of its error."""
    try:
        with np.errstate(over="ignore"):
            root, vector = solve(matrix, max_iter=max_iter)
    except NotMixingError as exc:
        return type(exc), str(exc)
    assert type(root) is float
    return struct.pack("<d", root), vector.tobytes()


@st.composite
def perron_matrices(draw):
    """Square nonnegative matrices of 1 to 6 rows: zeros, tiny and huge entries, inf and NaN."""
    n = draw(st.integers(1, 6))
    entry = st.just(0.0) | _floats(0.0, 4.0) | _floats(0.5, 4.0)
    matrix = np.array([[draw(entry) for _ in range(n)] for _ in range(n)])
    special = st.sampled_from([1e-300, 1e300, math.inf, math.nan]) | st.floats(0.0, 1e308)
    for _ in range(draw(st.integers(0, 2))):
        matrix[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(special)
    return matrix


TWO_CYCLE = np.array([[0.0, 0.0, 1 / 6.125], [0.0, 1 / 49, 1 / 6.125], [1 / 6.125, 1 / 49, 0.0]])


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(matrix=perron_matrices(), max_iter=st.integers(1, 300))
@example(matrix=TWO_CYCLE, max_iter=symbolic.SPECTRAL_MAX_ITER)
@example(matrix=np.array([[1.0, 1.0], [1.0, 0.0]]), max_iter=symbolic.SPECTRAL_MAX_ITER)
@example(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]), max_iter=50)
@example(matrix=np.array([[1.0, math.inf], [1.0, 1.0]]), max_iter=symbolic.SPECTRAL_MAX_ITER)
@example(matrix=np.array([[1.0, 1.0], [math.nan, 1.0]]), max_iter=7)
def test_perron_root_equals_the_vector_loop(matrix, max_iter):
    # same root bits, same vector bytes, or the same error with the same text
    assert _perron_outcome(perron_root, matrix, max_iter) == _perron_outcome(vector_perron_root, matrix, max_iter)


@st.composite
def word_cap_transitions(draw):
    """0/1 transitions: 1 to 5 symbols at random, full shifts, shifts without fixed points, and cycles."""
    kind = draw(st.sampled_from(["random", "full", "no fixed point", "cycle"]))
    if kind == "random":
        return np.array(draw(transitions(draw(st.integers(1, 5)))))
    if kind == "cycle":
        return np.roll(np.eye(draw(st.sampled_from([1, 5, 300])), dtype=int), 1, axis=1)
    m = draw(st.sampled_from([2, 3, 4, 17, 257, 300]))
    return np.ones((m, m), dtype=int) - (kind == "no fixed point") * np.eye(m, dtype=int)


def _exact_word_count(transition, k: int) -> int:
    """Admissible k-words in integers: closed forms for the large shifts, the column recursion for small ones."""
    a = np.asarray(transition) != 0
    m = len(a)
    if a.all():
        return m**k
    if (a.sum(axis=0) == 1).all() and (a.sum(axis=1) == 1).all():
        return m  # a permutation
    if m > 5:
        assert (a.sum(axis=1) == m - 1).all() and not a.diagonal().any()
        return m * (m - 1) ** (k - 1)
    counts, rows = [1] * m, a.tolist()
    for _ in range(k - 1):
        counts = [sum(c for c, row in zip(counts, rows) if row[j]) for j in range(m)]
    return sum(counts)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(transition=word_cap_transitions(), k=st.integers(1, 150))
@example(transition=np.ones((2, 2), dtype=int), k=24)
@example(transition=np.ones((2, 2), dtype=int), k=25)
@example(transition=np.array([[1, 1], [1, 0]]), k=35)  # 24,157,817 words: the bound 2^35 counts them
@example(transition=np.array([[1, 1], [1, 0]]), k=34)  # 14,930,352 words, under the cap
@example(transition=np.ones((257, 257), dtype=int), k=14)  # 5.5e33 words, shown as inf before
@example(transition=np.ones((257, 257), dtype=int) - np.eye(257, dtype=int), k=140)  # past the floats
def test_check_word_cap_refuses_exactly_the_counts_past_the_cap(transition, k):
    exact = _exact_word_count(transition, k)
    assert (count_admissible_words(transition, k) > symbolic.WORD_CAP) == (exact > symbolic.WORD_CAP)
    if exact <= symbolic.WORD_CAP:
        symbolic.check_word_cap(transition, k)
        return
    with pytest.raises(CapExceededError) as refusal:
        symbolic.check_word_cap(transition, k)
    # the refusal shows the count to 3 digits, also past 1e18, where the count used to saturate
    shown, _, rest = str(refusal.value).partition(" ")
    assert shown == "inf" if exact > sys.float_info.max else float(shown) == pytest.approx(exact, rel=5e-3)
    assert rest == f"admissible words of length {k} exceed the cap {symbolic.WORD_CAP}"


def separate_bound_report(model: ModelSystem, k_max: int = 8) -> dict:
    """The bound report built from separate calls, each solving its own Perron problems."""
    pot = potential(model, "phi_u" if model.kind == "diffeo" else "phi")
    pest = PressureEstimate(pressure_spectral(model, pot), "spectral", extras={"potential": pot.label})
    rate = expansion_rate(model, k_max)
    bound = dimension_bound(model.n, pest.value, rate.value, CLASSIFY_TOL_EXACT)
    cls = classify(pest, CLASSIFY_TOL_EXACT)
    q, _ = equilibrium_markov_chain(model, pot)
    stats = markov_measure_stats(model, pot, q)
    checks = _equivalence_checks(model, stats, pest, bound, cls, CLASSIFY_TOL_EXACT)
    return BoundReport(model.n, rate, pest, bound, cls, CLASSIFY_TOL_EXACT, checks).to_json_dict()


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("check, solves", [(False, 1), (True, 2)])
def test_bound_report_solves_each_perron_problem_once(monkeypatch, name, check, solves):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return perron_root(*args, **kwargs)

    monkeypatch.setattr(symbolic, "perron_root", counting)
    bound_report(BUILTINS[name], check_equivalences=check)
    assert len(calls) == solves


@pytest.mark.parametrize("name", BUILTINS)
def test_bound_report_equals_the_separate_calls_on_the_builtins(name):
    model = BUILTINS[name]
    assert bound_report(model, check_equivalences=True).to_json_dict() == separate_bound_report(model)


@PROPERTY_SETTINGS
@given(model=markov_models())
def test_bound_report_equals_the_separate_calls(model):
    assert bound_report(model, check_equivalences=True).to_json_dict() == separate_bound_report(model)


@PROPERTY_SETTINGS
@given(model=markov_models() | touching_models())
def test_min_branch_gap_is_the_smallest_gap_of_a_pair(model):
    gaps = [np.maximum(np.maximum(a.lo - b.hi, b.lo - a.hi), 0.0).max()
            for i, a in enumerate(model.branches) for b in model.branches[i + 1 :]]
    assert model.min_branch_gap == (float(min(gaps)) if gaps else 0.0)


# -- Minkowski content of product clouds -------------------------------------------


@st.composite
def column_clouds(draw):
    """Product clouds of 1 to 3 one-column factors, axes in any order, and a grid.

    Factor values sit on cell centres and edges, one ulp off them, and
    anywhere in [-0.2, 1.2], with duplicates; the radii include grid
    distances, so some cell centres lie exactly at a radius.
    """
    n = draw(st.integers(1, 3))
    resolution = draw(st.sampled_from([8, 16, 32] if n == 3 else [8, 16, 64, 128]))
    ticks = st.integers(0, 2 * resolution).map(lambda i: i / (2 * resolution))
    factors = []
    for _ in range(n):
        values = draw(st.lists(ticks | _floats(-0.2, 1.2), min_size=1, max_size=12))
        values += np.nextafter(values, draw(st.sampled_from([-np.inf, np.inf]))).tolist()[:3]
        values += draw(st.lists(st.sampled_from(values), max_size=3))
        factors.append(np.array(values, dtype=float)[:, None])
    order = draw(st.permutations(range(n)))
    radii = draw(st.lists(
        st.integers(4, 2 * resolution).map(lambda i: i / resolution) | _floats(4.0 / resolution, 2.0),
        min_size=1, max_size=4, unique=True,
    ))
    cloud = ProductCloud(tuple(factors), tuple((axis,) for axis in order))
    return cloud, sorted(radii, reverse=True), resolution


@PROPERTY_SETTINGS
@given(case=column_clouds(), t=_floats(0.0, 3.0))
def test_product_minkowski_curve_equals_the_kd_tree(case, t):
    cloud, radii, resolution = case
    got = minkowski_content_curve(cloud, t, radii, grid_resolution=resolution)
    expected = minkowski_content_curve(np.asarray(cloud), t, radii, grid_resolution=resolution)
    assert got.tobytes() == expected.tobytes()
