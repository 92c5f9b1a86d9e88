"""Model construction, evaluation and the exact per-branch data."""

import dataclasses
import math
import re

import numpy as np
import pytest

from hypdim.errors import (
    IncompatibleLabelError,
    ParameterOutOfRangeError,
)
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

GOLDEN_EIG_U = (3.0 + math.sqrt(5.0)) / 2.0  # root of x^2 - 3x + 1, checked by hand
GOLDEN_EIG_S = (3.0 - math.sqrt(5.0)) / 2.0


def all_builtins():
    return [
        build_linear_horseshoe(3.0, 0.25),
        build_doubling_map(2),
        build_cantor_repeller(3, (0, 2)),
        build_golden_mean(),
        build_cat_map(),
    ]


_HORSESHOE = build_linear_horseshoe(3.0, 0.25)


def horseshoe_with(**change) -> ModelSystem:
    """`ModelSystem` of the (3, 0.25) horseshoe's fields, with `change` applied."""
    return dataclasses.replace(_HORSESHOE, **change)


def horseshoe_document(*changes) -> dict:
    """The (3, 0.25) horseshoe's model file as a dict; branch i takes the keys of `changes[i]`."""
    doc = _HORSESHOE.to_json_dict()
    return {**doc, "branches": [{**br, **change} for br, change in zip(doc["branches"], changes, strict=True)]}


_ONE_D_BRANCH = {"domain": {"lo": [0.5], "hi": [1.0]}, "linear": [[2.0]], "offset": [-1.0]}


REFUSALS = {
    "ambient dimension": (lambda: ModelSystem.from_json_dict({**horseshoe_document({}, {}), "space": {"dim": 0, "geometry": "cube"}}),
                          ParameterOutOfRangeError, "ambient dimension must be >= 1"),
    "branches of no width": (
        lambda: horseshoe_with(lo=np.zeros((2, 0)), hi=np.zeros((2, 0)), linear=np.zeros((2, 0, 0)),
                               offset=np.zeros((2, 0))),
        ParameterOutOfRangeError, "diffeo models need 1 <= d_u <= n = 0, not 1"),
    "geometry": (lambda: horseshoe_with(geometry="sphere"), ParameterOutOfRangeError,
                 "geometry must be one of ('cube', 'torus')"),
    "geometry in a file": (
        lambda: ModelSystem.from_json_dict({**horseshoe_document({}, {}), "space": {"dim": 2, "geometry": "sphere"}}),
        ParameterOutOfRangeError, "geometry must be one of ('cube', 'torus')"),
    "branch shapes": (lambda: horseshoe_with(hi=[[1.0], [1.0]]), ParameterOutOfRangeError,
                      "branch arrays have inconsistent shapes"),
    "branches below the space's dimension": (
        lambda: ModelSystem.from_json_dict(horseshoe_document({**_ONE_D_BRANCH, "domain": {"lo": [0.0], "hi": [0.5]}},
                                                              _ONE_D_BRANCH)),
        ParameterOutOfRangeError, "branch arrays have inconsistent shapes"),
    "a file's dim beside its branches' width": (
        lambda: ModelSystem.from_json_dict({**horseshoe_document({}, {}), "space": {"dim": 3, "geometry": "cube"}}),
        ParameterOutOfRangeError, "branch arrays have inconsistent shapes"),
    "ragged branches in a file": (lambda: ModelSystem.from_json_dict(horseshoe_document({}, _ONE_D_BRANCH)),
                                  ParameterOutOfRangeError, "branch arrays have inconsistent shapes"),
    "empty domain": (lambda: horseshoe_with(lo=_HORSESHOE.hi, hi=_HORSESHOE.lo), ParameterOutOfRangeError,
                     "branch domain rectangle is empty"),
    "kind": (lambda: horseshoe_with(kind="flow"), ParameterOutOfRangeError,
             "kind must be one of ('diffeo', 'expanding')"),
    "expanding dims": (lambda: horseshoe_with(kind="expanding"), ParameterOutOfRangeError,
                       "expanding models have d_u = n, d_s = 0"),
    "diffeo dims": (lambda: horseshoe_with(unstable_dim=3), ParameterOutOfRangeError,
                    "diffeo models need 1 <= d_u <= n = 2, not 3"),
    "diffeo d_u of 0": (lambda: horseshoe_with(unstable_dim=0), ParameterOutOfRangeError,
                        "diffeo models need 1 <= d_u <= n = 2, not 0"),
    "transition size": (lambda: horseshoe_with(transition=np.ones((3, 3))), ParameterOutOfRangeError,
                        "transition matrix size must equal branch count"),
    "transition zeros": (lambda: horseshoe_with(transition=[[1, 1], [0, 0]]), ParameterOutOfRangeError,
                         "transition matrix needs a 1 in every row and column"),
    "symbol order": (lambda: ModelSystem.from_json_dict(horseshoe_document({}, {"symbol": 0})),
                     ParameterOutOfRangeError, "branch symbols must be 0..m-1 in order"),
    "lambda_u length": (lambda: horseshoe_with(lambda_u=[3.0]), ParameterOutOfRangeError,
                        "lambda_u must have one entry per branch"),
    "lambda_u size": (lambda: horseshoe_with(lambda_u=[3.0, 1.0]), ParameterOutOfRangeError,
                      "lambda_u entries must exceed 1"),
    "lambda_s missing": (lambda: horseshoe_with(lambda_s=None), ParameterOutOfRangeError,
                         "diffeo models need lambda_s entries in (0, 1)"),
    "lambda_s size": (lambda: horseshoe_with(lambda_s=[0.25, 1.0]), ParameterOutOfRangeError,
                      "diffeo models need lambda_s entries in (0, 1)"),
    "singular branch": (lambda: horseshoe_with(linear=[[[3.0, 0.0], [0.0, 0.0]]] * 2), ParameterOutOfRangeError,
                        "diffeo branches need invertible linear parts"),
    "potential label": (lambda: Potential([0.0, 0.0], "psi"), IncompatibleLabelError,
                        "label must be one of ('phi_u', 'phi_s', 'phi', 'custom')"),
    "potential name": (lambda: potential(_HORSESHOE, "psi"), IncompatibleLabelError,
                       "unknown potential label 'psi'"),
    "doubling degree": (lambda: build_doubling_map(1), ParameterOutOfRangeError, "degree must be >= 2"),
    "cantor slope": (lambda: build_cantor_repeller(2.5, (0,)), ParameterOutOfRangeError,
                     "slope must be an integer >= 2"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_reason(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


class TestEvaluate:
    def test_doubling_first_branch(self):
        image, idx = build_doubling_map(2).step([[0.3]])
        assert idx[0] == 0 and image[0] == pytest.approx([0.6], abs=1e-15)

    def test_cat_map_fixed_point(self):
        image, idx = build_cat_map().step([[0.0, 0.0]])
        assert idx[0] >= 0 and image[0] == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_horseshoe_gap_escapes(self):
        image, idx = build_linear_horseshoe(3.0, 0.25).step([[0.5, 0.5]])
        assert idx[0] == -1 and image[0].tolist() == [0.5, 0.5]

    def test_boundary_resolves_to_lowest_symbol(self):
        m = build_doubling_map(2)
        # 0.5 belongs to both closed domains; branch 0 wins
        assert m.branch_of([[0.5]])[0] == 0


class TestJacobian:
    """The derivative at x is the linear part of x's branch, `model.linear[model.branch_of(x)]`."""

    def test_horseshoe_diagonal(self):
        m = build_linear_horseshoe(3.0, 0.25)
        for pt in ([0.1, 0.4], [0.9, 0.2]):
            assert np.allclose(m.linear[m.branch_of([pt])[0]], np.diag([3.0, 0.25]))

    def test_doubling_constant(self):
        m = build_doubling_map(2)
        assert np.allclose(m.linear[m.branch_of([[0.7]])[0]], [[2.0]])

    def test_cat_matrix(self):
        m = build_cat_map()
        assert np.array_equal(m.linear[m.branch_of([[0.3, 0.8]])[0]], [[2.0, 1.0], [1.0, 1.0]])

    def test_no_branch_reads_minus_one(self):
        # the gap between the strips has no branch, so no linear part
        assert build_linear_horseshoe(3.0, 0.25).branch_of([[0.5, 0.5]])[0] == -1


class TestPotential:
    def test_horseshoe_phi_u(self):
        m = build_linear_horseshoe(3.0, 0.25)
        assert potential(m, "phi_u").values == pytest.approx([-math.log(3)] * 2)

    def test_horseshoe_phi_s(self):
        m = build_linear_horseshoe(3.0, 0.25)
        assert potential(m, "phi_s").values == pytest.approx([math.log(0.25)] * 2)

    def test_doubling_phi(self):
        m = build_doubling_map(2)
        assert potential(m, "phi").values == pytest.approx([-math.log(2)] * 2)

    def test_phi_s_incompatible_with_expanding(self):
        with pytest.raises(IncompatibleLabelError):
            potential(build_doubling_map(2), "phi_s")

    def test_exp_recovers_lambda_u(self):
        for m in all_builtins():
            assert np.exp(-potential(m, "phi_u").values) == pytest.approx(
                m.lambda_u, rel=1e-14
            )


class TestConstructors:
    def test_horseshoe_cantor_exponents(self):
        # printed dimension formulas for the two Cantor factors
        assert math.log(2) / math.log(3) == pytest.approx(0.63093, abs=1e-5)
        assert -math.log(2) / math.log(0.25) == pytest.approx(0.5)

    def test_horseshoe_near_two_t_u_near_one(self):
        m = build_linear_horseshoe(2.0 + 1e-3, 0.25)
        t_u = math.log(2) / math.log(m.lambda_u[0])
        assert abs(t_u - 1.0) < 1e-2

    def test_horseshoe_rejects_bad_parameters(self):
        for lam_u, lam_s in [(2.0, 0.25), (1.5, 0.25), (3.0, 0.5), (3.0, 0.0)]:
            with pytest.raises(ParameterOutOfRangeError):
                build_linear_horseshoe(lam_u, lam_s)

    def test_doubling_phi_value(self):
        m = build_doubling_map(2)
        assert potential(m, "phi").values == pytest.approx([-math.log(2.0)] * 2)

    def test_doubling_degree_three(self):
        m = build_doubling_map(3)
        assert m.nsym == 3
        assert (m.linear[:, 0, 0] == 3.0).all()

    def test_doubling_full_shift(self):
        assert np.all(build_doubling_map(2).transition == 1)

    def test_cantor_middle_third(self):
        m = build_cantor_repeller(3, (0, 2))
        assert m.nsym == 2
        assert m.lo[1, 0] == pytest.approx(2.0 / 3.0)

    def test_cantor_full_circle(self):
        m = build_cantor_repeller(2, (0, 1))
        domains = sorted(zip(m.lo[:, 0], m.hi[:, 0]))
        assert domains == [(0.0, 0.5), (0.5, 1.0)]

    def test_cantor_rejects_bad_digits(self):
        with pytest.raises(ParameterOutOfRangeError):
            build_cantor_repeller(3, ())
        with pytest.raises(ParameterOutOfRangeError):
            build_cantor_repeller(3, (0, 3))

    def test_cat_map_rates(self):
        m = build_cat_map()
        assert m.lambda_u[0] == pytest.approx(GOLDEN_EIG_U, rel=1e-15)
        assert m.lambda_s[0] == pytest.approx(GOLDEN_EIG_S, rel=1e-15)
        assert m.lambda_u[0] * m.lambda_s[0] == pytest.approx(1.0, rel=1e-12)
        assert potential(m, "phi_u").values[0] == pytest.approx(
            -math.log(GOLDEN_EIG_U), rel=1e-14
        )

    def test_cat_eigenvalues_match_matrix(self):
        eigs = np.linalg.eigvals([[2.0, 1.0], [1.0, 1.0]])
        assert sorted(eigs) == pytest.approx([GOLDEN_EIG_S, GOLDEN_EIG_U], rel=1e-12)


class TestStructuralInvariants:
    def test_det_is_product_of_rates(self):
        for m in all_builtins():
            if m.kind != "diffeo":
                continue
            for s, linear in enumerate(m.linear):
                det = abs(np.linalg.det(linear))
                assert det == pytest.approx(m.lambda_u[s] * m.lambda_s[s], rel=1e-12)

    def test_branch_inverse_is_identity(self):
        m = build_linear_horseshoe(3.0, 0.25)
        rng = np.random.default_rng(7)
        for lo, hi, linear, offset in zip(m.lo, m.hi, m.linear, m.offset):
            pts = lo + rng.random((32, 2)) * (hi - lo)
            back = (np.atleast_2d(pts) @ linear.T + offset - offset) @ np.linalg.inv(linear).T
            assert np.abs(back - pts).max() < 1e-12

    def test_one_step_expansion_on_unstable_vectors(self):
        # adapted metric: ||Df v|| >= lambda_min ||v|| for one step, c = 1
        hs = build_linear_horseshoe(3.0, 0.25)
        v = np.array([1.0, 0.0])
        for linear in hs.linear:
            assert np.linalg.norm(linear @ v) >= hs.lambda_u.min()
        cat = build_cat_map()
        w = np.linalg.eigh(np.asarray(cat.linear[0]))[1][:, -1]
        assert np.linalg.norm(cat.linear[0] @ w) >= cat.lambda_u.min() - 1e-12
        for m in (build_doubling_map(2), build_cantor_repeller(3, (0, 2)), build_golden_mean()):
            for linear in m.linear:
                assert abs(linear[0, 0]) >= m.lambda_u.min()

    def test_images_stay_in_working_region(self):
        for m in all_builtins():
            if m.is_torus:
                continue
            for lo, hi, linear, offset in zip(m.lo, m.hi, m.linear, m.offset):
                corners = np.array(
                    [[lo[0], lo[-1]], [hi[0], hi[-1]]]
                ) if m.n == 2 else np.array([[lo[0]], [hi[0]]])
                img = np.atleast_2d(corners) @ linear.T + offset
                assert img.min() >= -1e-12 and img.max() <= 1 + 1e-12


@pytest.mark.filterwarnings("error")
def test_branch_separation_reads_a_tiny_slope_without_overflow():
    # 1 / 1e-200 made the masked-out axis overflow in the sign test, with a RuntimeWarning on stderr
    model = ModelSystem(geometry="cube", lo=[[0.0, 0.0], [0.5, 0.5]], hi=[[0.25, 0.25], [1.0, 0.75]],
                        linear=[[[1e-200, 0.0], [0.0, 4.0]], [[3.0, 0.0], [0.0, 4.0]]],
                        offset=[[0.5, 0.0], [-1.5, -2.0]], kind="expanding", unstable_dim=2,
                        transition=np.ones((2, 2)), lambda_u=[4e-200, 12.0], strict=False)
    assert model.branch_separation == 0.5


class TestJsonSchema:
    def test_round_trip_preserves_rates(self):
        for m in all_builtins():
            again = ModelSystem.from_json(m.to_json())
            assert again.kind == m.kind
            assert again.geometry == m.geometry
            assert again.lambda_u == pytest.approx(m.lambda_u, rel=1e-12)
            if m.lambda_s is not None:
                assert again.lambda_s == pytest.approx(m.lambda_s, rel=1e-12)
            assert np.array_equal(again.transition, m.transition)

    def test_round_trip_preserves_dynamics(self):
        m = build_linear_horseshoe(3.0, 0.25)
        again = ModelSystem.from_json(m.to_json())
        pts = np.array([[0.1, 0.3], [0.9, 0.7], [0.25, 0.5]])
        img_a, idx_a = m.step(pts)
        img_b, idx_b = again.step(pts)
        assert np.array_equal(idx_a, idx_b)
        assert np.allclose(img_a, img_b, atol=1e-15)

    def test_schema_fields(self):
        doc = build_doubling_map(2).to_json_dict()
        assert doc["space"] == {"dim": 1, "geometry": "torus"}
        assert doc["kind"] == "expanding"
        assert doc["unstable_dim"] == 1
        assert doc["branches"][0]["domain"] == {"lo": [0.0], "hi": [0.5]}
        assert doc["branches"][0]["linear"] == [[2.0]]
        assert doc["transition"] == [[1, 1], [1, 1]]
