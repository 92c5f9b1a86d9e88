"""Bowen balls, tracking volumes and the pressure estimators."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from hypdim.cli import main
from hypdim.errors import DegenerateCurveError, GridTooCoarseError, IncompatibleLabelError
from hypdim.models import (
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
    BowenBallSpec,
    ProductCloud,
    VolumeCurve,
    _CoverDistance,
    _death_steps,
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

    def test_nesting_in_k_and_epsilon(self):
        m = build_cantor_repeller(3, (0, 2))
        curve = volume_curve(m, 0.05, 8, 2048)
        assert np.all(np.diff(curve.volumes) <= 1e-15)
        wider = volume_curve(m, 0.08, 8, 2048)
        assert np.all(wider.volumes >= curve.volumes - 1e-15)

    def test_grid_guard(self):
        m = build_cantor_repeller(3, (0, 2))
        with pytest.raises(GridTooCoarseError):
            volume_curve(m, 0.05, 4, 64)

    def test_refinement_within_band(self):
        m = build_cantor_repeller(3, (0, 2))
        coarse = volume_curve(m, 0.06, 5, 1 << 10)
        fine = volume_curve(m, 0.06, 5, 1 << 11)
        finer = volume_curve(m, 0.06, 5, 1 << 12)
        assert np.all(np.abs(fine.volumes - coarse.volumes) <= coarse.bands + 1e-12)
        assert np.all(fine.bands <= coarse.bands + 1e-12)
        assert np.all(finer.bands <= fine.bands + 1e-12)

    def test_thread_count_does_not_change_results(self):
        m = build_cantor_repeller(3, (0, 2))
        one = volume_curve(m, 0.05, 8, 2048, threads=1)
        four = volume_curve(m, 0.05, 8, 2048, threads=4)
        assert np.array_equal(one.volumes, four.volumes)
        assert np.array_equal(one.bands, four.bands)

    @pytest.mark.parametrize("lambda_u", [2.5, 4.0])
    @pytest.mark.parametrize("grid", [512, 1000])
    def test_factored_grid_matches_full_grid(self, lambda_u, grid):
        m = build_linear_horseshoe(lambda_u, 0.25)
        eps, k_max = default_epsilon(m), 8
        counts, boundaries = full_grid_reference(m, eps, k_max, grid)
        cellvol = (1.0 / grid) ** 2
        curve = volume_curve(m, eps, k_max, grid)
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
        curve = volume_curve(m, eps, k_max, grid)
        assert curve.volumes.tolist() == [c * cellvol for c in counts]
        assert curve.bands.tolist() == [b * cellvol for b in boundaries]
        assert max(boundaries) > 0 and counts[-1] < counts[0]


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
            if m.space.is_torus:
                boundary |= (mask != np.roll(mask, 1, axis=ax)) | (mask != np.roll(mask, -1, axis=ax))
            else:
                diff = np.diff(mask, axis=ax) != 0
                boundary[(slice(None),) * ax + (slice(1, None),)] |= diff
                boundary[(slice(None),) * ax + (slice(None, -1),)] |= diff
        counts.append(int(mask.sum()))
        boundaries.append(int(boundary.sum()))
    return counts, boundaries


def cantor_square_doc(geometry: str) -> dict:
    """Cantor x Cantor: four branches diag(3, 3), one per digit pair in {0, 2}^2, as a JSON model."""
    digits = [(a, b) for a in (0, 2) for b in (0, 2)]
    return {
        "space": {"dim": 2, "geometry": geometry},
        "kind": "expanding",
        "branches": [
            {"symbol": i, "domain": {"lo": [a / 3, b / 3], "hi": [(a + 1) / 3, (b + 1) / 3]},
             "linear": [[3.0, 0.0], [0.0, 3.0]], "offset": [-float(a), -float(b)]}
            for i, (a, b) in enumerate(digits)
        ],
        "transition": [[1] * 4] * 4,
        "unstable_dim": 2,
    }


def cantor_square(geometry: str) -> ModelSystem:
    return ModelSystem.from_json(json.dumps(cantor_square_doc(geometry)))


class TestRectsCover:
    """A cover that varies along two axes: the `rects` mode and its brute-force distance."""

    @pytest.mark.parametrize("geometry", ["cube", "torus"])
    def test_distance_is_the_largest_per_axis_distance(self, geometry):
        m = cantor_square(geometry)
        rects = cover_rects(m, 0.2)[1]
        dist = _CoverDistance(m, rects)
        assert dist.mode == "rects" and not dist.tracks_one_axis
        pts = np.random.default_rng(5).random((2000, 2))
        # the cover is a product of interval unions, so the sup-norm distance
        # to it is the largest of the distances along each axis
        per_axis = []
        for ax in range(2):
            lo, hi = np.unique(rects[:, 0, ax]), np.unique(rects[:, 1, ax])
            x = pts[:, ax, None]
            per_axis.append(np.maximum(np.maximum(lo - x, x - hi), 0.0).min(axis=1))
        assert dist(pts).tolist() == np.maximum(*per_axis).tolist()
        assert dist(pts).max() > 0.1

    def test_volume_pressure_of_the_cube_model(self, tmp_path, capsys):
        path = tmp_path / "cantor_square.json"
        path.write_text(json.dumps(cantor_square_doc("cube")))
        argv = ["pressure", "--model-file", str(path), "--method", "volume", "--eps", "0.2", "--grid", "256",
                "--kmax", "6"]
        assert main(argv) == 0
        value = json.loads(capsys.readouterr().out)["result"]["pressure"]["value"]
        assert value == pytest.approx(math.log(4.0 / 9.0), abs=1e-3)


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


def test_default_epsilon_uses_half_gap():
    m = build_linear_horseshoe(3.0, 0.25)
    assert default_epsilon(m) == pytest.approx((1.0 - 2.0 / 3.0) / 2.0)
    assert default_epsilon(build_cat_map()) == 0.05


def test_a_full_grid_stays_at_two_to_the_eleven_per_axis():
    m = build_cat_map()
    cover = cover_distance(m, default_epsilon(m))
    assert not cover.tracks_one_axis
    assert stable_resolution(m, 12, cover) == 1 << 11


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
