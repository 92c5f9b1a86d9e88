"""Bowen balls, tracking volumes and the pressure estimators."""

import dataclasses
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdim import pressure
from hypdim.cli import build_parser, main, read_args, sample_for_set
from hypdim.dimension import invariant_set_sample
from hypdim.errors import ConfigError, DegenerateCurveError, GridTooCoarseError, IncompatibleLabelError
from hypdim.models import (
    Factorization,
    ModelSystem,
    Potential,
    build_cantor_repeller,
    build_cat_map,
    build_doubling_map,
    build_golden_mean,
    build_linear_horseshoe,
    potential,
)
from hypdim.pressure import (
    STEP_CAP,
    BowenBallSpec,
    ProductCloud,
    VolumeCurve,
    _CoverDistance,
    _death_steps,
    _is_product,
    _sample_axis,
    bowen_ball_contains,
    cover_distance,
    cover_rects,
    default_epsilon,
    pressure_from_partition_sums,
    pressure_from_volume_growth,
    sample_local_stable_set,
    stable_resolution,
    volume_curve,
)
from hypdim.symbolic import cylinders, pressure_spectral


class TestBowenBalls:
    def test_center_always_member(self):
        m = build_doubling_map(2)
        for k in (1, 3, 8):
            spec = BowenBallSpec([0.3], 0.05, k)
            assert bowen_ball_contains(m, spec, [0.3])

    def test_doubling_expansion_separates(self):
        m = build_doubling_map(2)
        # distances grow like 0.05 * 2^i; 0.05 * 2^3 = 0.4 > 0.1
        assert bowen_ball_contains(m, BowenBallSpec([0.0], 0.1, 1), [0.05])
        assert not bowen_ball_contains(m, BowenBallSpec([0.0], 0.1, 4), [0.05])

    def test_horseshoe_stable_direction_contracts(self):
        m = build_linear_horseshoe(3.0, 0.25)
        spec = BowenBallSpec([0.0, 0.0], 0.15, 12)
        assert bowen_ball_contains(m, spec, [0.0, 0.1])

    def test_escape_fails_membership(self):
        m = build_linear_horseshoe(3.0, 0.25)
        # x drifts into the gap after one step
        spec = BowenBallSpec([0.0, 0.0], 0.9, 3)
        assert not bowen_ball_contains(m, spec, [0.15, 0.0])

    def test_nesting_in_k(self):
        m = build_doubling_map(2)
        ys = np.linspace(0.0, 1.0, 37)
        for y in ys:
            inner = bowen_ball_contains(m, BowenBallSpec([0.4], 0.2, 6), [y])
            outer = bowen_ball_contains(m, BowenBallSpec([0.4], 0.2, 5), [y])
            assert not inner or outer


class TestDistanceToRepeller:
    def test_fixed_point_at_zero_distance(self):
        m = build_cantor_repeller(3, (0, 2))
        for depth in (2, 5, 9):
            dist = _CoverDistance(m, cylinders(m, depth)[1])
            assert dist(np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_middle_point_one_sixth(self):
        m = build_cantor_repeller(3, (0, 2))
        depth = 8
        d = _CoverDistance(m, cylinders(m, depth)[1])(np.array([[0.5]]))[0]
        assert 1.0 / 6.0 - 3.0**-depth <= d <= 1.0 / 6.0 + 1e-12

    def test_doubling_repeller_is_everything(self):
        m = build_doubling_map(2)
        dist = _CoverDistance(m, cylinders(m, 6)[1])
        for y in (0.0, 0.31, 0.77):
            assert dist(np.array([[y]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_cat_map_invariant_set_fills_torus(self):
        m = build_cat_map()
        assert _CoverDistance(m, cylinders(m, 3)[1])(np.array([[0.3, 0.9]]))[0] == 0.0


class TestVolumeCurves:
    def test_doubling_volume_is_one(self):
        m = build_doubling_map(2)
        curve = volume_curve(m, 0.1, 6, 1024)
        assert np.all(curve.volumes == 1.0)
        assert np.all(curve.bands == 0.0)

    def test_every_cell_may_survive_the_step_limit(self):
        # the cat map's cells all survive STEP_CAP steps; STEP_CAP + 1 wrapped round in int16
        curve = volume_curve(build_cat_map(), 0.05, STEP_CAP, 128)
        assert len(curve.volumes) == STEP_CAP
        assert np.all(curve.volumes == 1.0)
        assert np.all(curve.bands == 0.0)
        with pytest.raises(ValueError, match=f"^k_max {STEP_CAP + 1} exceeds the limit of {STEP_CAP} steps$"):
            volume_curve(build_cat_map(), 0.05, STEP_CAP + 1, 128)

    def test_nesting_in_k_and_epsilon(self):
        m = build_cantor_repeller(3, (0, 2))
        curve = volume_curve(m, 0.05, 8, 2048)
        assert np.all(np.diff(curve.volumes) <= 1e-15)
        wider = volume_curve(m, 0.08, 8, 2048)
        assert np.all(wider.volumes >= curve.volumes - 1e-15)

    def test_grid_guard(self):
        # only a model that does not separate takes the grid: a cell above epsilon/4 is refused
        m = swapped_square("cube")
        with pytest.raises(GridTooCoarseError):
            volume_curve(m, 0.05, 4, 64)
        assert volume_curve(build_cantor_repeller(3, (0, 2)), 0.05, 4, 64).grid_resolution is None

    def test_refinement_within_band(self):
        m = swapped_square("cube")
        coarse = volume_curve(m, 0.2, 5, 1 << 7)
        fine = volume_curve(m, 0.2, 5, 1 << 8)
        finer = volume_curve(m, 0.2, 5, 1 << 9)
        assert np.all(np.abs(fine.volumes - coarse.volumes) <= coarse.bands + 1e-12)
        assert np.all(fine.bands <= coarse.bands + 1e-12)
        assert np.all(finer.bands <= fine.bands + 1e-12)

    def test_thread_count_does_not_change_results(self):
        for m, eps, grid, threads in [(swapped_square("cube"), 0.2, 256, 4),
                                      (cantor_square("torus", 3, [(0, 0), (0, 2), (2, 0)]), 0.2, 128, 2)]:
            one = volume_curve(m, eps, 8, grid, threads=1)
            many = volume_curve(m, eps, 8, grid, threads=threads)
            assert np.array_equal(one.volumes, many.volumes)
            assert np.array_equal(one.bands, many.bands)

    def test_counts_past_int64_stay_exact(self):
        # 65536 cells per axis on four axes are 2^64 cells: int64 counts wrapped round
        # and the volumes stopped falling in k; the whole axes count 1, and no grid is used
        m = cantor_with_whole_axes(4)
        line = build_cantor_repeller(3, (0, 2))
        assert default_epsilon(m) == default_epsilon(line)
        curve = volume_curve(m, default_epsilon(m), 6, 65536)
        factor = volume_curve(line, default_epsilon(line), 6, 65536)
        assert curve.volumes.tolist() == factor.volumes.tolist()
        assert curve.bands.tolist() == factor.bands.tolist() == [0.0] * 6
        assert curve.grid_resolution is factor.grid_resolution is None
        assert np.log(factor.volumes[1:] / factor.volumes[:-1]) == pytest.approx([math.log(2 / 3)] * 5, abs=1e-9)

    def test_a_separable_model_in_70_dimensions_reads_exact_volumes(self, tmp_path, capsys, monkeypatch):
        # 65536^70 cells: converting their counts to volumes raised OverflowError (exit 1), then the grid
        # was refused (exit 2); the volumes are the Cantor factor's, and no grid is stepped
        path = tmp_path / "cantor70.json"
        path.write_text(cantor_with_whole_axes(70).to_json())
        monkeypatch.setattr(pressure, "_grid_deaths", lambda *args: pytest.fail("the grid was stepped"))
        argv = ["pressure", "--model-file", str(path), "--method", "volume", "--kmax", "6", "--grid", "65536"]
        assert main(argv) == 0
        estimate = json.loads(capsys.readouterr().out)["result"]["pressure"]
        assert estimate["value"] == pytest.approx(math.log(2 / 3), abs=1e-9)
        assert estimate["extras"]["grid_resolution"] is None

    @pytest.mark.parametrize("lambda_u", [2.5, 4.0])
    @pytest.mark.parametrize("grid", [512, 1000])
    def test_factored_grid_matches_full_grid(self, lambda_u, grid):
        m = build_linear_horseshoe(lambda_u, 0.25)
        eps, k_max = default_epsilon(m), 8
        counts, boundaries = full_grid_reference(m, eps, k_max, grid)
        cellvol = (1.0 / grid) ** 2
        curve = on_the_grid(volume_curve, m, eps, k_max, grid)
        assert curve.volumes.tolist() == [c * cellvol for c in counts]
        assert curve.bands.tolist() == [b * cellvol for b in boundaries]
        assert max(boundaries) > 0 and counts[-1] < counts[0]

    # the repellers of cantor:3,01 (torus) and goldenmean (cube) are not symmetric
    # under x -> 1 - x, so their end cells die at different steps, and the bands
    # tell neighbours that wrap round from neighbours that stop at the edge
    @pytest.mark.parametrize("name, eps, grid", [
        ("cantor:3,02", 0.05, 2048), ("cantor:3,01", 0.05, 2048), ("goldenmean", 0.05, 2048),
        ("cantor-square-torus", 0.2, 128),
    ])
    def test_grid_matches_the_full_grid_reference(self, name, eps, grid):
        if name.startswith("cantor:"):
            m = build_cantor_repeller(3, tuple(int(d) for d in name.split(",")[1]))
        else:
            m = build_golden_mean() if name == "goldenmean" else cantor_square("torus")
        k_max = 6
        counts, boundaries = full_grid_reference(m, eps, k_max, grid)
        cellvol = (1.0 / grid) ** m.n
        curve = on_the_grid(volume_curve, m, eps, k_max, grid)
        assert curve.volumes.tolist() == [c * cellvol for c in counts]
        assert curve.bands.tolist() == [b * cellvol for b in boundaries]
        assert max(boundaries) > 0 and counts[-1] < counts[0]


def on_the_grid(function, *args, **kwargs):
    """`function` with every cover's tracking regime read as None, so that the full grid is stepped."""
    init = _CoverDistance.__init__

    def stepping(self, *init_args):
        init(self, *init_args)
        self.tracked = None

    with mock.patch.object(_CoverDistance, "__init__", stepping):
        return function(*args, **kwargs)


def full_grid_reference(m, eps, k_max, grid):
    """Cell counts and boundary-cell counts per k from stepping every cell of the full grid.

    A cell is on the boundary when its membership differs from a neighbour's:
    the neighbours wrap round on the torus (`np.roll`) and stop at the edge of the cube.
    """
    dist = _CoverDistance(m, cover_rects(m, eps)[1])
    axis = (np.arange(grid) + 0.5) / grid
    mesh = np.meshgrid(*[axis] * m.n, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    death = _death_steps(m, pts, eps, k_max, dist).reshape((grid,) * m.n)
    counts, boundaries = [], []
    for k in range(1, k_max + 1):
        mask = death >= k
        boundary = np.zeros_like(mask)
        for ax in range(m.n):
            if m.is_torus:
                boundary |= (mask != np.roll(mask, 1, axis=ax)) | (mask != np.roll(mask, -1, axis=ax))
            else:
                diff = np.diff(mask, axis=ax) != 0
                boundary[(slice(None),) * ax + (slice(1, None),)] |= diff
                boundary[(slice(None),) * ax + (slice(None, -1),)] |= diff
        counts.append(int(mask.sum()))
        boundaries.append(int(boundary.sum()))
    return counts, boundaries


CANTOR_PAIRS = ((0, 0), (0, 2), (2, 0), (2, 2))


def cantor_square_doc(geometry: str, slope: int = 3, pairs=CANTOR_PAIRS) -> dict:
    """Branches diag(slope, slope), one per digit pair, as a JSON model; by default Cantor x Cantor."""
    return {
        "space": {"dim": 2, "geometry": geometry},
        "kind": "expanding",
        "branches": [
            {"symbol": i, "domain": {"lo": [a / slope, b / slope], "hi": [(a + 1) / slope, (b + 1) / slope]},
             "linear": [[float(slope), 0.0], [0.0, float(slope)]], "offset": [-float(a), -float(b)]}
            for i, (a, b) in enumerate(pairs)
        ],
        "transition": [[1] * len(pairs)] * len(pairs),
        "unstable_dim": 2,
    }


def cantor_square(geometry: str, slope: int = 3, pairs=CANTOR_PAIRS) -> ModelSystem:
    return ModelSystem.from_json(json.dumps(cantor_square_doc(geometry, slope, pairs)))


def cantor_line(geometry: str, slope: int, digits) -> ModelSystem:
    """The 1-D factor of `cantor_square`: x -> slope x - a on [a / slope, (a + 1) / slope] for each digit a."""
    return ModelSystem.from_json(json.dumps({
        "space": {"dim": 1, "geometry": geometry},
        "kind": "expanding",
        "branches": [
            {"symbol": i, "domain": {"lo": [a / slope], "hi": [(a + 1) / slope]}, "linear": [[float(slope)]],
             "offset": [-float(a)]}
            for i, a in enumerate(digits)
        ],
        "transition": [[1] * len(digits)] * len(digits),
        "unstable_dim": 1,
    }))


def cantor_with_whole_axes(n: int) -> ModelSystem:
    """x -> 3x - a on [a / 3, (a + 1) / 3] for a in {0, 2}, with n - 1 whole axes contracted by 1/2 into one half each."""
    return ModelSystem.from_json_dict({
        "space": {"dim": n, "geometry": "cube"},
        "kind": "diffeo",
        "branches": [
            {"symbol": i, "domain": {"lo": [a / 3] + [0.0] * (n - 1), "hi": [(a + 1) / 3] + [1.0] * (n - 1)},
             "linear": np.diag([3.0] + [0.5] * (n - 1)).tolist(), "offset": [-float(a)] + [0.5 * i] * (n - 1)}
            for i, a in enumerate((0, 2))
        ],
        "transition": [[1, 1], [1, 1]],
        "unstable_dim": 1,
    })


def two_axis_horseshoe() -> ModelSystem:
    """Cantor x Cantor on the two unstable axes, and a third axis contracted by 1/4 into one quarter per branch."""
    doc = cantor_square_doc("cube")
    for i, branch in enumerate(doc["branches"]):
        branch["domain"]["lo"].append(0.0)
        branch["domain"]["hi"].append(1.0)
        branch["linear"] = np.diag([3.0, 3.0, 0.25]).tolist()
        branch["offset"].append(0.25 * i)
    return ModelSystem.from_json_dict({**doc, "space": {"dim": 3, "geometry": "cube"}, "kind": "diffeo"})


def per_rectangle_distance(rects, pts, torus):
    """Sup-norm distance to the rectangles, one rectangle and one axis at a time.

    On the torus each axis of each rectangle takes its nearest copy on its own.
    """
    shifts = (-1.0, 0.0, 1.0) if torus else (0.0,)
    best = np.full(len(pts), np.inf)
    for lo, hi in rects:
        gaps = [
            np.min([np.maximum(np.maximum(lo[ax] + s - pts[:, ax], pts[:, ax] - (hi[ax] + s)), 0.0) for s in shifts],
                   axis=0)
            for ax in range(pts.shape[1])
        ]
        best = np.minimum(best, np.max(gaps, axis=0))
    return best


class TestRectsCover:
    """Covers that vary along two axes: a product is measured axis by axis, any other cover by `_brute`."""

    @pytest.mark.parametrize("geometry", ["cube", "torus"])
    def test_distance_is_the_largest_per_axis_distance(self, geometry):
        m = cantor_square(geometry)
        rects = cover_rects(m, 0.2)[1]
        dist = _CoverDistance(m, rects)
        assert dist.axes == dist.tracked == [0, 1]
        pts = np.random.default_rng(5).random((2000, 2))
        # the cover is a product of interval unions, so the sup-norm distance
        # to it is the largest of the distances along each axis
        per_axis = []
        for ax in range(2):
            lo, hi = np.unique(rects[:, 0, ax]), np.unique(rects[:, 1, ax])
            x = pts[:, ax, None]
            per_axis.append(np.maximum(np.maximum(lo - x, x - hi), 0.0).min(axis=1))
        assert dist(pts).tolist() == np.maximum(*per_axis).tolist()
        assert dist(pts).tolist() == dist._brute(pts).tolist()
        assert dist(pts).max() > 0.1

    @pytest.mark.parametrize("geometry", ["cube", "torus"])
    def test_a_product_repeller_has_the_squared_volumes_of_its_factor(self, geometry):
        # the {0, 2}/4 square; on the torus, shifting every axis of the cover by
        # the same integer missed the copies shifted along one axis only
        square = volume_curve(cantor_square(geometry, 4), 0.1, 6, 256).volumes
        line = volume_curve(cantor_line(geometry, 4, (0, 2)), 0.1, 6, 256).volumes
        assert square.tolist() == (line * line).tolist()

    def test_a_cover_that_is_no_product_is_measured_rectangle_by_rectangle(self):
        # an L of three digit pairs on the torus: no product of interval unions
        m = cantor_square("torus", 3, [(0, 0), (0, 2), (2, 0)])
        rects = cover_rects(m, 0.15)[1]
        dist = _CoverDistance(m, rects)
        assert dist.axes is None
        pts = np.random.default_rng(7).uniform(-0.25, 1.25, (2000, 2))
        reference = per_rectangle_distance(rects, pts, torus=True)
        assert dist(pts).tolist() == dist._brute(pts).tolist() == reference.tolist()
        # some points are nearer a copy shifted along one axis than any copy shifted along both
        joint = np.min([per_rectangle_distance(rects, pts + s, torus=False) for s in (-1.0, 0.0, 1.0)], axis=0)
        assert (reference < joint).any()

    @pytest.mark.parametrize("geometry, offsets", [("cube", "swapped"), ("torus", "swapped"), ("torus", "zero")])
    def test_a_product_whose_linear_parts_swap_the_axes_steps_the_full_grid(self, geometry, offsets):
        # x -> 3y - b, y -> 3x - a: the cover is a product, yet no axis can be stepped alone;
        # on the torus the offsets may be 0, and the per-axis branch rows are then a product too
        m = swapped_square(geometry, zero_offsets=offsets == "zero")
        dist = _CoverDistance(m, cover_rects(m, 0.2)[1])
        assert dist.axes == [0, 1] and dist.tracked is None
        assert m.factorization.block.tolist() == [0, 0] and not m.factorization.separates([0, 1])
        assert m.factorization.in_order([0, 1]) == (offsets == "zero")
        counts, boundaries = full_grid_reference(m, 0.2, 6, 64)
        curve = volume_curve(m, 0.2, 6, 64)
        assert curve.volumes.tolist() == [c / 64**2 for c in counts]
        assert curve.bands.tolist() == [b / 64**2 for b in boundaries]
        assert counts[-1] < counts[1] < counts[0]

    def test_volume_pressure_of_the_cube_model(self, tmp_path, capsys):
        path = tmp_path / "cantor_square.json"
        path.write_text(json.dumps(cantor_square_doc("cube")))
        argv = ["pressure", "--model-file", str(path), "--method", "volume", "--eps", "0.2", "--grid", "256",
                "--kmax", "6"]
        assert main(argv) == 0
        value = json.loads(capsys.readouterr().out)["result"]["pressure"]["value"]
        assert value == pytest.approx(math.log(4.0 / 9.0), abs=1e-9)


def digit_product(slopes, words, geometry: str) -> ModelSystem:
    """x -> slope x - digit on each axis, one branch per word of digits, in the order of `words`."""
    return ModelSystem.from_json_dict({
        "space": {"dim": len(slopes), "geometry": geometry},
        "kind": "expanding",
        "branches": [
            {"symbol": i, "domain": {"lo": [d / s for d, s in zip(word, slopes)],
                                     "hi": [(d + 1) / s for d, s in zip(word, slopes)]},
             "linear": np.diag(np.array(slopes, dtype=float)).tolist(), "offset": [-float(d) for d in word]}
            for i, word in enumerate(words)
        ],
        "transition": [[1] * len(words)] * len(words),
        "unstable_dim": len(slopes),
    })


def coupled_stack() -> ModelSystem:
    """x -> 3x - a on {0, 2}/3, a contracting y that splits off, and a spanning z that reads 0.1 x."""
    return ModelSystem.from_json_dict({
        "space": {"dim": 3, "geometry": "cube"},
        "kind": "diffeo",
        "branches": [
            {"symbol": i, "domain": {"lo": [a / 3, 0.0, 0.0], "hi": [(a + 1) / 3, 1.0, 1.0]},
             "linear": [[3.0, 0.0, 0.0], [0.0, 0.25, 0.0], [0.1, 0.0, 0.25]], "offset": [-float(a), 0.5 * i, 0.5 * i]}
            for i, a in enumerate((0, 2))
        ],
        "transition": [[1, 1], [1, 1]],
        "unstable_dim": 1,
    })


def swapped_square(geometry: str, zero_offsets: bool = False) -> ModelSystem:
    """x -> 3y - b, y -> 3x - a on the Cantor x Cantor digit squares; with `zero_offsets`, x -> 3y, y -> 3x."""
    doc = cantor_square_doc(geometry)
    for branch in doc["branches"]:
        branch["linear"] = [[0.0, 3.0], [3.0, 0.0]]
        branch["offset"] = [0.0, 0.0] if zero_offsets else branch["offset"][::-1]
    return ModelSystem.from_json_dict(doc)


@pytest.mark.parametrize("model, axes, tracked, full_space", [
    (build_cat_map(), [], [], True),
    (cantor_square("torus", 2, list(itertools.product((0, 1), repeat=2))), [0, 1], [0, 1], False),
    (swapped_square("cube"), [0, 1], None, False),
    (swapped_square("torus"), [0, 1], None, False),
    (cantor_square("torus", 3, [(0, 0), (0, 2), (2, 0)]), None, None, False),
    (dataclasses.replace(build_linear_horseshoe(3.0, 0.25), linear=[[[3.0, 0.1], [0.0, 0.25]]] * 2),
     [0], None, False),
    (coupled_stack(), [0], None, False),
], ids=["catmap", "doubling-torus", "swapped-cube", "swapped-torus", "L-torus", "sheared", "coupled-stack"])
def test_the_depth_two_cover_of_a_coupled_or_zero_cover_model(model, axes, tracked, full_space):
    # pinned answers of the coupled and zero-cover class: only the cat map falls back to the full-space grid,
    # and only its tracking regime is `[]`, no point ever failing
    dist = _CoverDistance(model, cylinders(model, 2)[1])
    assert (dist.axes, dist.tracked) == (axes, tracked)
    run = read_args(build_parser().parse_args(["dimension", "--model", "catmap", "--depth", "3"]))
    assert ("resolution" in sample_for_set(model, "invariant", run)[2]) is full_space


def test_a_coupled_spanning_axis_keeps_every_axis_out_of_whole():
    # y splits off on its own, but whole is all or nothing over the spanning y and z, and z reads x
    factorization = coupled_stack().factorization
    assert factorization.splits_off([False, True, False]) and not factorization.splits_off([False, True, True])
    assert factorization.spans.tolist() == [False, True, True] and not factorization.whole.any()


def test_a_model_builds_its_factorization_once(monkeypatch):
    built = []
    init = Factorization.__init__
    monkeypatch.setattr(Factorization, "__init__", lambda self, *args: built.append(init(self, *args)))
    m = two_axis_horseshoe()
    volume_curve(m, 0.2, 4, 64)
    sample_local_stable_set(m, 0.2, 3, samples=64)
    invariant_set_sample(m, 3)
    assert len(built) == 1 and m.factorization is m.factorization


@st.composite
def separable_products(draw):
    """(model, lexicographic): a `digit_product` on 2 or 3 axes, one branch per combination of digits.

    Each axis keeps 1 to 4 of its slope's digits, never all of them, so every axis varies.  Half
    the draws shuffle the branches; `lexicographic` says whether their order is still
    lexicographic, the first axis slowest, each axis's digits in their order of first appearance.
    """
    slopes = draw(st.lists(st.integers(3, 5), min_size=2, max_size=3))
    digits = [draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=min(4, s - 1), unique=True)) for s in slopes]
    words = list(itertools.product(*digits))
    if draw(st.booleans()):
        words = draw(st.permutations(words))
    firsts = [list(dict.fromkeys(word[a] for word in words)) for a in range(len(slopes))]
    model = digit_product(slopes, words, draw(st.sampled_from(["cube", "torus"])))
    return model, words == list(itertools.product(*firsts))


@settings(max_examples=60, deadline=None)
@given(product=separable_products(), eps=st.floats(0.13, 0.45), k_max=st.integers(2, 5))
def test_a_separable_product_counts_the_cells_of_the_full_grid(product, eps, k_max):
    m, lexicographic = product
    grid = 64 if m.n == 2 else 32
    dist = _CoverDistance(m, cover_rects(m, eps)[1])
    # out of lexicographic order, a point on a shared domain edge may take another branch
    assert dist.tracked == (list(range(m.n)) if lexicographic else None)
    counts, boundaries = full_grid_reference(m, eps, k_max, grid)
    cellvol = (1.0 / grid) ** m.n
    curve = on_the_grid(volume_curve, m, eps, k_max, grid)
    assert curve.volumes.tolist() == [c * cellvol for c in counts]
    assert curve.bands.tolist() == [b * cellvol for b in boundaries]


def test_the_ordered_product_check_ranks_values_by_first_appearance():
    words = np.array([[2, 1], [2, 0], [0, 1], [0, 0]])
    rects = words.astype(float)[:, None, :]  # (m, 1, 2)
    ordered = [digit_product([3, 3], words[order].tolist(), "torus").factorization
               for order in ([0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 2, 3, 3])]
    assert _is_product(rects, [0, 1]) and ordered[0].in_order([0, 1])
    assert _is_product(rects[[0, 2, 1, 3]], [0, 1]) and not ordered[1].in_order([0, 1])
    assert not ordered[2].in_order([0, 1])


class TestVolumeGrowthFit:
    def test_constant_curve_gives_zero(self):
        curve = VolumeCurve(
            epsilon=0.1,
            ks=np.arange(1, 9),
            volumes=np.ones(8),
            bands=np.zeros(8),
            grid_resolution=1024,
            cover_depth=3,
        )
        est = pressure_from_volume_growth(curve)
        assert est.value == pytest.approx(0.0, abs=1e-14)

    def test_exact_geometric_decay(self):
        vols = (2.0 / 3.0) ** np.arange(1, 11)
        curve = VolumeCurve(0.05, np.arange(1, 11), vols, np.zeros(10), 4096, 4)
        est = pressure_from_volume_growth(curve, (1, 10))
        assert est.value == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)
        assert est.residual < 1e-12

    def test_zero_volume_reports_minus_infinity(self):
        vols = np.array([0.5, 0.25, 0.1, 0.0, 0.0])
        curve = VolumeCurve(0.05, np.arange(1, 6), vols, np.zeros(5), 4096, 4)
        est = pressure_from_volume_growth(curve)
        assert est.value == -math.inf

    def test_window_needs_four_points(self):
        vols = (0.5) ** np.arange(1, 6)
        curve = VolumeCurve(0.05, np.arange(1, 6), vols, np.zeros(5), 4096, 4)
        with pytest.raises(DegenerateCurveError):
            pressure_from_volume_growth(curve, (1, 3))

    def test_cantor_repeller_against_spectral_oracle(self):
        m = build_cantor_repeller(3, (0, 2))
        curve = volume_curve(m, 0.05, 10, 1 << 12)
        est = pressure_from_volume_growth(curve, (4, 10))
        exact = pressure_spectral(m, potential(m, "phi"))
        assert abs(est.value - exact) < 0.1
        assert est.value <= 0.0 + est.residual
        # one-sided: the measured growth never exceeds the exact pressure
        assert est.value <= exact + 0.1
        # per-k rates decrease toward the limit
        rates = np.log(curve.volumes) / curve.ks
        assert np.all(np.diff(rates[3:]) < 0)
        assert abs(rates[-1] - exact) < 0.1


class TestPartitionSumFit:
    def test_matches_spectral_on_exact_geometric_models(self):
        cases = [
            (build_linear_horseshoe(3.0, 0.25), "phi_u"),
            (build_doubling_map(2), "phi"),
            (build_cantor_repeller(3, (0, 2)), "phi"),
        ]
        for model, label in cases:
            pot = potential(model, label)
            est = pressure_from_partition_sums(model, pot, 12)
            assert est.value == pytest.approx(
                pressure_spectral(model, pot), abs=1e-11
            )
            assert est.residual < 1e-10

    def test_golden_mean_extrapolation(self):
        m = build_golden_mean()
        est = pressure_from_partition_sums(m, Potential.zero(2), 12)
        exact = pressure_spectral(m, Potential.zero(2))
        assert abs(est.value - exact) < 1e-9
        assert abs(est.value - math.log((1 + math.sqrt(5)) / 2)) < 1e-6

    def test_cat_map_agreement(self):
        m = build_cat_map()
        pot = potential(m, "phi_u")
        est = pressure_from_partition_sums(m, pot, 12)
        assert abs(est.value - pressure_spectral(m, pot)) < 1e-9

    def test_kmax_stops_at_the_step_limit(self):
        # Z_k = 1 at every k: the sums run STEP_CAP steps; 10^12 asked numpy for 7.28 TiB
        m = build_doubling_map(2)
        assert pressure_from_partition_sums(m, potential(m, "phi"), STEP_CAP).value == 0.0
        for k_max in (STEP_CAP + 1, 10**12):
            with pytest.raises(ConfigError, match=f"^k_max {k_max} exceeds the limit of {STEP_CAP} steps$"):
                pressure_from_partition_sums(m, potential(m, "phi"), k_max)

    def test_requires_kmax_six(self):
        m = build_doubling_map(2)
        with pytest.raises(ValueError):
            pressure_from_partition_sums(m, potential(m, "phi"), 5)

    def test_curve_is_published(self):
        m = build_doubling_map(2)
        est = pressure_from_partition_sums(m, potential(m, "phi"), 8)
        assert est.curve["k"] == list(range(1, 9))
        assert est.curve["z"] == pytest.approx([1.0] * 8)


class TestStableSetSampling:
    def test_expanding_kind_rejected(self):
        with pytest.raises(IncompatibleLabelError):
            sample_local_stable_set(build_doubling_map(2), 0.05, 4)

    def test_cat_map_fills_torus(self):
        m = build_cat_map()
        cloud = sample_local_stable_set(m, 0.05, 5, samples=64)
        assert isinstance(cloud, ProductCloud)
        # the grid that stepping keeps: every point, since none can fail
        axis = _sample_axis(64, 0)
        grid = np.stack([c.ravel() for c in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        dist = _CoverDistance(m, cover_rects(m, 0.05)[1])
        kept = grid[_death_steps(m, grid, 0.05, 5, dist) >= 5]
        assert kept.shape == (64 * 64, 2)
        np.testing.assert_array_equal(np.asarray(cloud), kept)

    def test_depth_nesting(self):
        m = build_linear_horseshoe(3.0, 0.25)
        eps = default_epsilon(m)
        shallow = np.asarray(sample_local_stable_set(m, eps, 6, samples=4096))
        deep = np.asarray(sample_local_stable_set(m, eps, 7, samples=4096))
        xs_shallow = set(np.unique(shallow[:, 0]).tolist())
        xs_deep = set(np.unique(deep[:, 0]).tolist())
        assert xs_deep <= xs_shallow

    def test_cloud_is_product_with_full_vertical_fibers(self):
        m = build_linear_horseshoe(3.0, 0.25)
        cloud = np.asarray(sample_local_stable_set(m, 0.05, 5, samples=2048, cross_resolution=256))
        ys = np.unique(cloud[:, 1])
        assert len(ys) == 256
        xs = np.unique(cloud[:, 0])
        assert len(cloud) == len(xs) * len(ys)

    def test_determinism(self):
        m = build_linear_horseshoe(3.0, 0.25)
        a = sample_local_stable_set(m, 0.05, 6, samples=2048)
        b = sample_local_stable_set(m, 0.05, 6, samples=2048)
        assert np.array_equal(a, b)

    def test_two_tracked_axes_keep_the_survivors_of_the_full_grid(self):
        m = two_axis_horseshoe()
        eps, depth, seed = default_epsilon(m), 3, 4
        dist = cover_distance(m, eps)
        assert dist.tracked == [0, 1] and dist.factors
        cloud = sample_local_stable_set(m, eps, depth, samples=64, seed=seed)
        assert isinstance(cloud, ProductCloud)
        # reference: step every point of the 64^3 grid
        axis = _sample_axis(64, seed)
        pts = np.asarray(ProductCloud.grid([axis] * 3))
        survivors = pts[_death_steps(m, pts, eps, depth, dist) >= depth]
        for ax in (0, 1):
            assert np.array_equal(cloud.factors[ax][:, 0], np.unique(survivors[:, ax]))
        assert len(cloud) == len(survivors) > 0

    def test_two_tracked_axes_take_the_tracking_resolution(self, tmp_path, capsys):
        # the full grid was refused at 2^11 per axis: 2^33 cells to step
        path = tmp_path / "horseshoe3.json"
        path.write_text(json.dumps(two_axis_horseshoe().to_json_dict()))
        assert main(["dimension", "--model-file", str(path), "--set", "stable"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["sample"]["resolution"] == 1 << 16

    def test_factored_cloud_is_the_tracked_grid(self):
        # reference: track the full 2-D jittered grid, keep the survivors
        m = build_linear_horseshoe(3.0, 0.25)
        cloud = sample_local_stable_set(m, 0.05, 5, samples=256, cross_resolution=256, seed=3)
        assert isinstance(cloud, ProductCloud)
        grid = _sample_axis(256, 3)
        mesh = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        dist = _CoverDistance(m, cover_rects(m, 0.05)[1])
        survivors = pts[_death_steps(m, pts, 0.05, 5, dist) >= 5]
        xs = np.asarray(cloud)[:, 0]
        assert np.array_equal(np.unique(xs), np.unique(survivors[:, 0]))
        assert len(cloud) == len(survivors)


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
def test_a_stable_sample_refuses_an_epsilon_not_above_zero(epsilon):
    # no point of the cat map can fail at any epsilon: its cover refuses it, before a tracking regime is read
    for m in (build_cat_map(), build_linear_horseshoe(3.0, 0.25)):
        with pytest.raises(ConfigError, match="is not above 0"):
            sample_local_stable_set(m, epsilon, 4, samples=64)


def test_default_epsilon_uses_half_gap():
    m = build_linear_horseshoe(3.0, 0.25)
    assert default_epsilon(m) == pytest.approx((1.0 - 2.0 / 3.0) / 2.0)
    assert default_epsilon(build_cat_map()) == 0.05


def test_a_full_grid_stays_at_two_to_the_eleven_per_axis():
    # unstepped (the cat map's regime is `[]`: no point fails) or stepped (the L torus's cover is no product)
    for m, tracked in ((build_cat_map(), []), (cantor_square("torus", 3, [(0, 0), (0, 2), (2, 0)]), None)):
        cover = cover_distance(m, default_epsilon(m))
        assert cover.tracked == tracked
        assert stable_resolution(m, 12, cover) == 1 << 11


@pytest.mark.parametrize("depth,resolution", [(1, 1 << 11), (6, 1 << 12), (7, 1 << 14), (9, 1 << 16),
                                              (646, 1 << 16), (647, 1 << 16), (32767, 1 << 16)])
def test_a_tracking_resolution_is_four_lambda_to_the_depth_capped_at_two_to_the_sixteen(depth, resolution):
    # 3.0 ** 647 raises OverflowError: it takes the cap, like every depth from 9 on
    m = build_linear_horseshoe(3.0, 0.25)
    cover = cover_distance(m, default_epsilon(m))
    assert cover.tracked == [0]
    assert stable_resolution(m, depth, cover) == resolution


@pytest.mark.parametrize(
    "model,epsilon,depth,rects,mib",
    [
        (build_cantor_repeller(3, (0, 2)), 1e-8, 19, 1 << 19, 36),
        (build_linear_horseshoe(2.2, 0.25), 1e-6, 20, 1 << 20, 120),
    ],
    ids=["cantor", "horseshoe"],
)
def test_a_deep_cover_search_holds_depth_one_and_the_level_in_hand(model, epsilon, depth, rects, mib):
    # keeping every level it passes took the peaks to 46.5 and 150 MiB
    tracemalloc.start()
    try:
        got_depth, got = cover_rects(model, epsilon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got_depth, len(got)) == (depth, rects)
    assert peak <= mib * 2**20
    assert got.tobytes() == cylinders(model, depth)[1].tobytes()
