"""Expansion rates, box counting, the dimension bound and its equivalences."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hypdim.dimension import (
    BoundReport,
    bound_report,
    box_count,
    box_dimension,
    classify,
    contraction_rho_schedule,
    dimension_bound,
    expansion_rate,
    horseshoe_for_target_dimension,
    invariant_set_sample,
    measure_box_dimension,
    minkowski_content_curve,
)
from hypdim.errors import (
    DegenerateScalesError,
    NonPositiveRateError,
    ParameterOutOfRangeError,
)
from hypdim.models import (
    AmbientSpace,
    ModelSystem,
    build_cantor_repeller,
    build_cat_map,
    build_doubling_map,
    build_golden_mean,
    build_linear_horseshoe,
    potential,
)
from hypdim.pressure import (
    PressureEstimate,
    ProductCloud,
    sample_local_stable_set,
    spectral_estimate,
)
from hypdim.symbolic import cylinders, power_model, pressure_spectral

CAT_RATE = math.log((3.0 + math.sqrt(5.0)) / 2.0)
UNIT = st.floats(0.0, 1.0, exclude_max=True)


def ifs_centers(digits, base, depth):
    """Pure-python enumeration of self-similar piece centers."""
    pts = [0.0]
    for level in range(1, depth + 1):
        pts = [p + d * float(base) ** -level for p in pts for d in digits]
    half = 0.5 * float(base) ** -depth
    return [p + half for p in pts]


def builtin_models():
    return {
        "horseshoe": build_linear_horseshoe(3.0, 0.25),
        "doubling": build_doubling_map(2),
        "cantor": build_cantor_repeller(3, (0, 2)),
        "golden": build_golden_mean(),
        "cat": build_cat_map(),
    }


class TestExpansionRate:
    def test_horseshoe_exact_at_every_k(self):
        rate = expansion_rate(build_linear_horseshoe(3.0, 0.25), k_max=6)
        assert rate.value == pytest.approx(math.log(3), rel=1e-15)
        assert np.allclose(rate.per_k, math.log(3), atol=1e-15)

    def test_doubling(self):
        assert expansion_rate(build_doubling_map(2)).value == pytest.approx(math.log(2))

    def test_cat_map_symmetric_matrix(self):
        rate = expansion_rate(build_cat_map(), k_max=5)
        assert rate.value == pytest.approx(CAT_RATE, abs=1e-13)
        assert np.allclose(rate.per_k, CAT_RATE, atol=1e-13)

    def test_enumeration_agrees_with_shortcut(self):
        m = build_linear_horseshoe(3.0, 0.25)
        forced = dataclasses.replace(m, linear=[m.linear[0], [[3.0, 0.0], [0.0, 0.25 + 1e-12]]], strict=False)
        rate = expansion_rate(forced, k_max=5)
        assert not rate.exact
        assert rate.value == pytest.approx(math.log(3), abs=1e-9)


def noncommuting_model():
    return ModelSystem(
        space=AmbientSpace(2, "cube"),
        lo=np.zeros((2, 2)),
        hi=np.ones((2, 2)),
        linear=[[[2.0, 1.0], [0.0, 0.4]], [[2.0, 0.0], [1.0, 0.4]]],
        offset=np.zeros((2, 2)),
        kind="diffeo",
        unstable_dim=1,
        stable_dim=1,
        transition=np.ones((2, 2)),
        lambda_u=np.array([2.0, 2.0]),
        lambda_s=np.array([0.4, 0.4]),
        strict=False,
    )


class TestSubadditivity:
    def test_fekete_on_noncommuting_products(self):
        rate = expansion_rate(noncommuting_model(), k_max=7)
        a = rate.per_k * np.arange(1, 8)
        for j in range(1, 7):
            for k in range(1, 8 - j):
                assert a[j + k - 1] <= a[j - 1] + a[k - 1] + 1e-12

    def test_reported_rate_never_increases_with_k_max(self):
        m = noncommuting_model()
        values = [expansion_rate(m, k_max=k).value for k in range(1, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_builtins_have_constant_ratio(self):
        for m in builtin_models().values():
            rate = expansion_rate(m, k_max=6)
            a = rate.per_k * np.arange(1, 7)
            for j in range(1, 6):
                for k in range(1, 7 - j):
                    assert a[j + k - 1] <= a[j - 1] + a[k - 1] + 1e-12


class TestBoxCount:
    def test_cantor_direct_enumeration(self):
        pts = np.array(ifs_centers((0.0, 2.0), 3, 12))[:, None]
        for m in range(1, 11):
            assert box_count(pts, 3.0**-m) == 2**m

    def test_unit_square(self):
        axis = (np.arange(512) + 0.5) / 512
        mesh = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        for m in range(1, 6):
            assert box_count(pts, 2.0**-m) == 4**m

    def test_single_point(self):
        for scale in (1.0, 0.5, 0.1, 0.003):
            assert box_count(np.array([[0.37, 0.21]]), scale) == 1

    def test_flat_array_is_points_on_a_line(self):
        # (N,) holds N points on a line, not one point in R^N
        line = np.array([0.1, 0.5, 0.9])
        assert box_count(line, 0.25) == 3
        assert box_count(line[::-1], 0.25) == box_count(line[:, None], 0.25) == 3
        assert box_count(np.array([0.1, 0.2, 0.9]), 0.25) == 2

    def test_dyadic_refinement_monotonicity(self):
        rng = np.random.default_rng(11)
        clouds = [
            rng.random((500, 2)),
            np.array(ifs_centers((0.0, 2.0), 3, 10))[:, None],
        ]
        for pts in clouds:
            n = pts.shape[1]
            for m in range(1, 8):
                coarse = box_count(pts, 2.0**-m)
                fine = box_count(pts, 2.0 ** -(m + 1))
                assert coarse <= fine <= (2**n) * coarse

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            box_count(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            box_count(np.zeros((1, 1)), 1.5)

    @settings(max_examples=80, deadline=None)
    @given(
        xs=arrays(float, st.tuples(st.integers(0, 40), st.just(1)), elements=UNIT),
        ys=arrays(float, st.tuples(st.integers(0, 40), st.integers(1, 2)), elements=UNIT),
        swap=st.booleans(),
        scale=st.one_of(st.integers(0, 12).map(lambda e: 2.0**-e), st.floats(1e-3, 1.0)),
    )
    def test_product_count_equals_materialized_count(self, xs, ys, swap, scale):
        wide = tuple(range(1, 1 + ys.shape[1]))
        axes = ((ys.shape[1],), tuple(range(ys.shape[1]))) if swap else ((0,), wide)
        cloud = ProductCloud((xs, ys), axes)
        points = np.asarray(cloud)
        assert points.shape == (len(xs) * len(ys), 1 + ys.shape[1])
        assert box_count(cloud, scale) == box_count(points, scale)


class TestBoxDimension:
    def test_exact_cantor_data(self):
        scales = [3.0**-m for m in range(2, 10)]
        counts = [2**m for m in range(2, 10)]
        est = box_dimension(scales, counts)
        assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
        assert est.residual < 1e-12

    def test_two_coarsest_scales_excluded(self):
        scales = [3.0**-m for m in range(1, 9)]
        counts = [2**m for m in range(1, 9)]
        counts[0] = 1  # corrupt the coarsest point only
        est = box_dimension(scales, counts)
        assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
        assert len(est.fit_scales) == len(scales) - 2

    def test_span_requirement(self):
        with pytest.raises(DegenerateScalesError):
            box_dimension([0.5, 0.4, 0.3, 0.2], [2, 3, 4, 5])
        with pytest.raises(DegenerateScalesError):
            box_dimension([0.5, 0.1, 0.01], [1, 2, 3])

    def test_horseshoe_invariant_set_product_dimension(self):
        m = build_linear_horseshoe(3.0, 0.25)
        sample = invariant_set_sample(m, depth=10)
        scales = [2.0**-k for k in range(2, 14)]
        est = measure_box_dimension(sample, scales)
        # independent oracle: product of the two Cantor factor counts
        xs = np.array(ifs_centers((0.0, 2.0), 3, 10))
        ys = np.array(ifs_centers((0.0, 3.0), 4, 10))
        for s, measured in zip(est.scales, est.counts):
            nx = len(np.unique(np.floor(xs / s).astype(np.int64)))
            ny = len(np.unique(np.floor(ys / s).astype(np.int64)))
            assert int(measured) == nx * ny
        target = math.log(2) / math.log(3) + 0.5
        assert abs(est.slope - target) < 0.05

    def test_full_square_dimension(self):
        axis = (np.arange(1024) + 0.5) / 1024
        mesh = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        est = measure_box_dimension(pts, [2.0**-k for k in range(2, 10)])
        assert abs(est.slope - 2.0) < 0.05


class TestMinkowskiContent:
    def test_unit_segment_ratio_one(self):
        xs = (np.arange(4096) + 0.5) / 4096
        segment = np.stack([xs, np.full_like(xs, 0.5)], axis=1)
        curve = minkowski_content_curve(segment, t=1.0, rho_schedule=[0.1, 0.05, 0.025], grid_resolution=1024)
        for rho, ratio in curve:
            assert abs(ratio - 1.0) < 0.08

    def test_single_point_bounded(self):
        curve = minkowski_content_curve(
            np.array([[0.5, 0.5]]), t=0.0, rho_schedule=[0.2, 0.1, 0.05], grid_resolution=512
        )
        for rho, ratio in curve:
            assert ratio == pytest.approx(math.pi / 4.0, abs=0.05)

    def test_above_bound_content_decays(self):
        m = build_linear_horseshoe(3.0, 0.25)
        cloud = sample_local_stable_set(m, 1.0 / 6.0, 8, samples=4096, cross_resolution=256)
        t = 1.0 + math.log(2) / math.log(3) + 0.25
        rhos = contraction_rho_schedule(1.0 / 6.0, math.log(3), [1, 2, 3])
        curve = minkowski_content_curve(cloud, t, rhos, grid_resolution=2048)
        ratios = curve[:, 1]
        assert ratios[-1] < 0.7 * ratios[0]

    def test_schedule_preset(self):
        rhos = contraction_rho_schedule(0.1, 1.0, [1, 2, 3])
        expected = 0.05 * np.exp(-1.01 * np.arange(1, 4))
        assert rhos == pytest.approx(expected, rel=1e-12)


class TestDimensionBound:
    def test_horseshoe_bound_algebra(self):
        got = dimension_bound(2, math.log(2.0 / 3.0), math.log(3.0))
        assert got == pytest.approx(1.0 + math.log(2) / math.log(3), abs=1e-14)

    def test_zero_pressure_gives_ambient_dimension(self):
        assert dimension_bound(3, 0.0, 1.7) == 3.0
        assert dimension_bound(2, -math.inf, 1.7) == -math.inf  # an empty invariant set
        assert dimension_bound(3, 1e-12, 1.7) == 3.0

    def test_cantor_bound_matches_its_dimension(self):
        got = dimension_bound(1, math.log(2.0 / 3.0), math.log(3.0))
        assert got == pytest.approx(math.log(2) / math.log(3), abs=1e-14)

    def test_guards(self):
        with pytest.raises(NonPositiveRateError):
            dimension_bound(2, -0.5, 0.0)
        with pytest.raises(ValueError):
            dimension_bound(2, 0.5, 1.0)

    def test_unstable_set_bound_via_stable_potential(self):
        # mirrored reading: the stable potential with the inverse map's
        # expansion rate bounds the local unstable set, t_s + 1
        m = build_linear_horseshoe(3.0, 0.25)
        p_s = pressure_spectral(m, potential(m, "phi_s"))
        s_inverse = -math.log(float(m.lambda_s.max()))
        bound = dimension_bound(m.n, p_s, s_inverse)
        t_s = -math.log(2) / math.log(0.25)
        assert bound == pytest.approx(t_s + 1.0, abs=1e-12)


class TestClassify:
    def test_cat_map_attractor(self):
        m = build_cat_map()
        assert classify(spectral_estimate(m, potential(m, "phi_u"))) == "attractor"

    def test_horseshoe_non_attractor(self):
        m = build_linear_horseshoe(3.0, 0.25)
        assert classify(spectral_estimate(m, potential(m, "phi_u"))) == "non_attractor"

    def test_estimator_band_is_inconclusive(self):
        est = PressureEstimate(value=-0.01, method="volume_growth", residual=0.05)
        assert classify(est) == "inconclusive"


class TestBoundReports:
    def test_bound_never_exceeds_n_and_equality_iff_attractor(self):
        for m in builtin_models().values():
            rep = bound_report(m)
            assert rep.bound <= rep.n + 1e-12
            assert (abs(rep.bound - rep.n) <= 1e-9) == (rep.classification == "attractor")

    def test_cat_map_equivalences_pass(self):
        rep = bound_report(build_cat_map(), check_equivalences=True)
        checks = {c[0]: c[1] for c in rep.equivalence_checks}
        assert checks["pressure_zero"] and checks["classified_attractor"]
        assert checks["equivalences_consistent"] and checks["pesin_entropy_formula"]
        pesin = [c for c in rep.equivalence_checks if c[0] == "pesin_entropy_formula"][0]
        assert pesin[2]["entropy"] == pytest.approx(CAT_RATE, abs=1e-12)
        assert pesin[2]["positive_exponent_sum"] == pytest.approx(CAT_RATE, abs=1e-12)

    def test_horseshoe_equivalences_negative_but_consistent(self):
        rep = bound_report(build_linear_horseshoe(3.0, 0.25), check_equivalences=True)
        checks = {c[0]: c[1] for c in rep.equivalence_checks}
        assert not checks["pressure_zero"]
        assert not checks["classified_attractor"]
        assert checks["equivalences_consistent"]
        mr = [c for c in rep.equivalence_checks if c[0] == "margulis_ruelle_strict"][0]
        assert mr[1]
        assert mr[2]["entropy"] == pytest.approx(math.log(2), abs=1e-12)
        assert mr[2]["positive_exponent_sum"] == pytest.approx(math.log(3), abs=1e-12)
        assert rep.bound == pytest.approx(1.6309297535714573, abs=1e-9)

    def test_doubling_repeller_direction(self):
        rep = bound_report(build_doubling_map(2), check_equivalences=True)
        assert rep.bound == pytest.approx(1.0, abs=1e-12)
        checks = {c[0]: c[1] for c in rep.equivalence_checks}
        assert checks["pesin_entropy_formula"]

    def test_report_serializes(self):
        rep = bound_report(build_golden_mean(), check_equivalences=True)
        doc = rep.to_json_dict()
        assert isinstance(rep, BoundReport)
        assert doc["n"] == 1 and "bound" in doc and doc["equivalence_checks"]


class TestPowerMapInvariance:
    @pytest.mark.parametrize("power", [2, 3])
    def test_pressure_rate_and_bound_scale(self, power):
        for name, model in builtin_models().items():
            pot_label = "phi_u" if model.kind == "diffeo" else "phi"
            p1 = pressure_spectral(model, potential(model, pot_label))
            s1 = expansion_rate(model).value
            iterated = power_model(model, power)
            p2 = pressure_spectral(iterated, potential(iterated, pot_label))
            s2 = expansion_rate(iterated).value
            assert p2 == pytest.approx(power * p1, abs=1e-12), name
            assert s2 == pytest.approx(power * s1, abs=1e-12), name
            b1 = dimension_bound(model.n, p1, s1)
            b2 = dimension_bound(iterated.n, p2, s2)
            assert b2 == pytest.approx(b1, abs=1e-12), name


class TestTargetDimension:
    def test_invert_formula(self):
        m = horseshoe_for_target_dimension(1.9)
        assert m.lambda_u[0] == pytest.approx(2.0 ** (1.0 / 0.9), rel=1e-14)
        rep = bound_report(m)
        assert rep.bound == pytest.approx(1.9, abs=1e-12)

    def test_half_target(self):
        assert horseshoe_for_target_dimension(1.5).lambda_u[0] == pytest.approx(4.0)

    def test_domain_guard(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ParameterOutOfRangeError):
                horseshoe_for_target_dimension(bad)


class TestExpandingConsistency:
    def test_measured_dimension_below_bound(self):
        for model in (build_cantor_repeller(3, (0, 2)), build_doubling_map(2), build_golden_mean()):
            rep = bound_report(model)
            sample = invariant_set_sample(model, depth=10)
            scales = [2.0**-k for k in range(2, 10)]
            est = measure_box_dimension(sample, scales)
            assert est.slope <= rep.bound + 0.05


def swapped_horseshoe():
    """A horseshoe that expands along y by 3 and contracts along x by 1/4."""
    linear = [[0.25, 0.0], [0.0, 3.0]]
    return ModelSystem.from_json_dict(
        {
            "space": {"dim": 2, "geometry": "cube"},
            "kind": "diffeo",
            "branches": [
                {"symbol": 0, "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0 / 3.0]},
                 "linear": linear, "offset": [0.0, 0.0]},
                {"symbol": 1, "domain": {"lo": [0.0, 2.0 / 3.0], "hi": [1.0, 1.0]},
                 "linear": linear, "offset": [0.75, -2.0]},
            ],
            "transition": [[1, 1], [1, 1]],
            "unstable_dim": 1,
        }
    )


def word_loop_invariant_sample(model, depth):
    """Reference: cylinder centers crossed with per-word images, point by point."""
    words, rects = cylinders(model, depth)
    varying = np.flatnonzero((rects[:, 1, :] - rects[:, 0, :]).max(axis=0) < 1.0 - 1e-9)
    stable = [ax for ax in range(model.n) if ax not in varying]
    centers = np.empty((len(words), len(stable)))
    for wi, word in enumerate(words):
        lo, hi = np.zeros(len(stable)), np.ones(len(stable))
        for s in word:
            b = model.branches[int(s)]
            scale, off = np.diag(b.linear)[stable], b.offset[stable]
            lo, hi = np.minimum(scale * lo, scale * hi) + off, np.maximum(scale * lo, scale * hi) + off
        centers[wi] = 0.5 * (lo + hi)
    out = np.empty((len(words) ** 2, model.n))
    out[:, varying] = np.repeat(0.5 * (rects[:, 0, varying] + rects[:, 1, varying]), len(words), axis=0)
    out[:, stable] = np.tile(centers, (len(words), 1))
    return out


class TestFactoredInvariantSample:
    def test_matches_word_loop_reference(self):
        for model in (build_linear_horseshoe(3.0, 0.25), swapped_horseshoe()):
            cloud = invariant_set_sample(model, depth=5)
            assert isinstance(cloud, ProductCloud)
            assert np.array_equal(np.asarray(cloud), word_loop_invariant_sample(model, 5))

    def test_slow_horseshoe_stays_factored(self):
        # depth 12 at lambda_u = 2.1 would be a 2^24-row array if materialized
        cloud = invariant_set_sample(build_linear_horseshoe(2.1, 0.25), depth=12)
        assert [f.shape for f in cloud.factors] == [(2**12, 1), (2**12, 1)]
        assert len(cloud) == 2**24

    def test_coupled_and_space_filling_models_materialize(self):
        # x' = 3x + 0.1y couples the axes, so the sample falls back to the grid,
        # which is a product of one grid axis per coordinate
        m = build_linear_horseshoe(3.0, 0.25)
        shear = [[3.0, 0.1], [0.0, 0.25]]
        sheared = dataclasses.replace(m, linear=[shear] * m.nsym)
        axis = (np.arange(64) + 0.5) / 64
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        for model in (sheared, build_cat_map()):
            sample = invariant_set_sample(model, depth=3, resolution=64)
            assert isinstance(sample, ProductCloud) and sample.axes == ((0,), (1,))
            assert np.array_equal(np.asarray(sample), grid)


def asymmetric_repeller():
    """Two branches of unequal slope: nothing about it is symmetric."""
    return ModelSystem.from_json_dict(
        {
            "space": {"dim": 1, "geometry": "cube"},
            "kind": "expanding",
            "branches": [
                {"symbol": 0, "domain": {"lo": [0.0], "hi": [0.5]},
                 "linear": [[2.0]], "offset": [0.0]},
                {"symbol": 1, "domain": {"lo": [0.5], "hi": [0.75]},
                 "linear": [[4.0]], "offset": [-2.0]},
            ],
            "transition": [[1, 1], [1, 1]],
            "unstable_dim": 1,
        }
    )


class TestAsymmetricRepeller:
    """Non-constant potential end to end, against independent closed forms."""

    def test_pressure_closed_form(self):
        m = asymmetric_repeller()
        phi = potential(m, "phi")
        # full shift: Z_k = (1/2 + 1/4)^k, so P = log(3/4)
        exact = math.log(0.75)
        assert pressure_spectral(m, phi) == pytest.approx(exact, abs=1e-13)
        from hypdim.pressure import pressure_from_partition_sums

        est = pressure_from_partition_sums(m, phi, 12)
        assert est.value == pytest.approx(exact, abs=1e-12)

    def test_dimension_against_moran_equation(self):
        m = asymmetric_repeller()
        rep = bound_report(m)
        assert rep.bound == pytest.approx(1.0 + math.log(0.75) / math.log(4.0), abs=1e-12)
        sample = invariant_set_sample(m, depth=12)
        est = measure_box_dimension(sample, [2.0**-k for k in range(2, 14)])
        # (1/2)^d + (1/4)^d = 1 solves to d = log(golden ratio) / log 2
        moran = math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.log(2.0)
        assert est.slope == pytest.approx(moran, abs=0.02)
        assert est.slope <= rep.bound + 0.05
