"""Symbolic machinery against brute-force oracles and closed forms."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from hypdim.errors import (
    DeltaTooLargeError,
    IncompatibleStochasticsError,
    NotMixingError,
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
from hypdim.symbolic import (
    admissible_words,
    count_admissible_words,
    birkhoff_sum,
    cylinders,
    equilibrium_markov_chain,
    is_primitive,
    markov_measure_stats,
    partition_sums_through,
    perron_root,
    power_model,
    pressure_spectral,
    separated_set,
)

LOG_GOLDEN_RATIO = math.log((1.0 + math.sqrt(5.0)) / 2.0)


def brute_words(transition, k):
    """Independent enumeration: filter the full product by the matrix."""
    a = np.asarray(transition)
    m = a.shape[0]
    out = []
    for word in itertools.product(range(m), repeat=k):
        if all(a[word[i], word[i + 1]] for i in range(k - 1)):
            out.append(word)
    return out


class TestPrimitivity:
    def test_full_shift(self):
        assert is_primitive([[1, 1], [1, 1]])

    def test_period_two_is_not_primitive(self):
        assert not is_primitive([[0, 1], [1, 0]])

    def test_golden_mean_matrix(self):
        # squaring [[1,1],[1,0]] by hand gives [[2,1],[1,1]], all positive
        assert is_primitive([[1, 1], [1, 0]])

    def test_cat_coding_is_primitive(self):
        assert is_primitive(build_cat_map().transition)

    def test_a_long_cycle_is_refused_by_repeated_squaring(self):
        # one product per power up to (m - 1)^2 + 1 took 19.4 s at 120 symbols
        start = time.perf_counter()
        assert not is_primitive(np.roll(np.eye(200, dtype=int), 1, axis=1))
        assert time.perf_counter() - start < 1.0

    def test_repeated_squaring_reads_every_power_up_to_the_wielandt_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            m = int(rng.integers(1, 7))
            a = (rng.random((m, m)) < rng.random()).astype(int)
            power, positive = a, False
            for _ in range((m - 1) ** 2 + 1):
                positive |= bool((power > 0).all())
                power = np.minimum(power @ a, 1)
            assert is_primitive(a) == positive


class TestAdmissibleWords:
    def test_full_shift_counts(self):
        assert admissible_words([[1, 1], [1, 1]], 3).shape == (8, 3)
        assert admissible_words([[1, 1], [1, 1]], 1).tolist() == [[0], [1]]

    def test_golden_mean_k3(self):
        words = admissible_words([[1, 1], [1, 0]], 3)
        assert words.tolist() == [
            [0, 0, 0],
            [0, 0, 1],
            [0, 1, 0],
            [1, 0, 0],
            [1, 0, 1],
        ]

    @pytest.mark.parametrize("k", [1, 2, 4, 6, 8])
    def test_matches_brute_force(self, k):
        for a in ([[1, 1], [1, 1]], [[1, 1], [1, 0]], build_cat_map().transition):
            assert admissible_words(a, k).tolist() == [list(w) for w in brute_words(a, k)]

    def test_a_count_past_the_floats_stops_at_the_first_inf(self):
        # 2^k overflows at k = 1024; the recursion stops there instead of running on to k
        assert count_admissible_words([[1, 1], [1, 1]], 1023) == 2.0**1023
        assert count_admissible_words([[1, 1], [1, 1]], 1024) == math.inf
        assert count_admissible_words([[1, 1], [1, 1]], 10**12) == math.inf
        assert count_admissible_words([[1, 1], [1, 0]], 10**12) == math.inf


class TestBirkhoffSums:
    def test_constant_potential(self):
        m = build_linear_horseshoe(3.0, 0.25)
        pot = potential(m, "phi_u")
        assert birkhoff_sum(pot, [0, 1, 0]) == pytest.approx(-3 * math.log(3), rel=1e-15)

    def test_doubling_phi(self):
        m = build_doubling_map(2)
        pot = potential(m, "phi")
        for k in (1, 4, 9):
            assert birkhoff_sum(pot, [0] * k) == pytest.approx(-k * math.log(2), rel=1e-15)

    def test_custom_weights(self):
        pot = Potential([2.5, -1.0])
        assert birkhoff_sum(pot, [0, 1, 0]) == pytest.approx(2 * 2.5 - 1.0)


class TestPartitionSums:
    def test_horseshoe_closed_form(self):
        m = build_linear_horseshoe(3.0, 0.25)
        pot = potential(m, "phi_u")
        for k in range(1, 13):
            assert partition_sums_through(m, pot, k)[-1] == pytest.approx((2.0 / 3.0) ** k, rel=1e-12)

    def test_doubling_is_one(self):
        m = build_doubling_map(2)
        pot = potential(m, "phi")
        for k in (1, 5, 10):
            assert partition_sums_through(m, pot, k)[-1] == pytest.approx(1.0, rel=1e-13)

    def test_golden_mean_counts_fibonacci(self):
        m = build_golden_mean()
        fib = [1, 1]
        for _ in range(20):
            fib.append(fib[-1] + fib[-2])
        for k in range(1, 15):
            assert partition_sums_through(m, Potential.zero(2), k)[-1] == pytest.approx(float(fib[k + 1]))

    def test_direct_enumeration_cross_check_k5(self):
        m = build_linear_horseshoe(3.0, 0.25)
        pot = Potential([0.3, -0.7])
        expected = sum(
            math.exp(sum(pot.values[s] for s in w))
            for w in brute_words(m.transition, 5)
        )
        assert partition_sums_through(m, pot, 5)[-1] == pytest.approx(expected, rel=1e-13)

    def test_full_shift_multiplicativity(self):
        m = build_linear_horseshoe(3.0, 0.25)
        pot = potential(m, "phi_u")
        z = partition_sums_through(m, pot, 12)
        for j, k in [(2, 3), (4, 4), (5, 7)]:
            assert z[j + k - 1] == pytest.approx(z[j - 1] * z[k - 1], rel=1e-12)

    def test_delta_guard(self):
        # the geometry of cantor:3,02 guarantees separation up to 2/3
        m = build_cantor_repeller(3, (0, 2))
        assert separated_set(m, 4, delta=0.3).delta == 0.3
        with pytest.raises(DeltaTooLargeError):
            separated_set(m, 4, delta=0.8)

    @pytest.mark.parametrize(
        "make",
        [build_linear_horseshoe, build_doubling_map, build_cantor_repeller,
         build_golden_mean, build_cat_map],
        ids=["horseshoe", "doubling", "cantor", "golden", "cat"],
    )
    def test_growth_rate_near_pressure_at_k16(self, make):
        model = {
            build_linear_horseshoe: lambda: build_linear_horseshoe(3.0, 0.25),
            build_doubling_map: lambda: build_doubling_map(2),
            build_cantor_repeller: lambda: build_cantor_repeller(3, (0, 2)),
            build_golden_mean: build_golden_mean,
            build_cat_map: build_cat_map,
        }[make]()
        pot = potential(model, "phi_u" if model.kind == "diffeo" else "phi")
        z16 = partition_sums_through(model, pot, 16)[-1]
        p = pressure_spectral(model, pot)
        assert abs(math.log(z16) / 16.0 - p) < 0.2


class TestSpectralPressure:
    def test_horseshoe_phi_u(self):
        m = build_linear_horseshoe(3.0, 0.25)
        assert pressure_spectral(m, potential(m, "phi_u")) == pytest.approx(
            math.log(2.0 / 3.0), abs=1e-13
        )

    def test_doubling_phi_is_zero(self):
        m = build_doubling_map(2)
        assert abs(pressure_spectral(m, potential(m, "phi"))) < 1e-13

    def test_zero_potential_gives_entropy(self):
        m = build_doubling_map(2)
        assert pressure_spectral(m, Potential.zero(2)) == pytest.approx(math.log(2), abs=1e-13)
        gm = build_golden_mean()
        assert pressure_spectral(gm, Potential.zero(2)) == pytest.approx(
            LOG_GOLDEN_RATIO, abs=1e-12
        )

    def test_cat_map_phi_u_is_zero(self):
        m = build_cat_map()
        assert abs(pressure_spectral(m, potential(m, "phi_u"))) < 1e-12

    def test_not_mixing_raises(self):
        m = build_golden_mean()
        periodic = dataclasses.replace(m, transition=np.array([[0, 1], [1, 0]]))
        with pytest.raises(NotMixingError):
            pressure_spectral(periodic, Potential.zero(2))

    @pytest.mark.parametrize("c", [-1.0, 0.5, 2.0])
    def test_translation_invariance(self, c):
        for model in (
            build_linear_horseshoe(3.0, 0.25),
            build_golden_mean(),
            build_cat_map(),
        ):
            pot = potential(model, "phi_u" if model.kind == "diffeo" else "phi")
            base = pressure_spectral(model, pot)
            shifted = pressure_spectral(model, pot.shifted(c))
            assert shifted == pytest.approx(base + c, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_a_perron_vector_past_the_float_range_is_scaled_before_it_is_normed(self):
        # the norm overflowed: numpy warned, and the vector came back as zeros
        root, vector = perron_root(np.full((2, 2), 1e200))
        assert root == 2e200
        assert vector.tolist() == pytest.approx([math.sqrt(0.5)] * 2, rel=1e-15)

    def test_monotone_in_potential(self):
        m = build_golden_mean()
        lo = Potential([-1.0, -0.5])
        hi = Potential([-0.5, -0.2])
        assert pressure_spectral(m, lo) <= pressure_spectral(m, hi) + 1e-14


class TestCylindersAndSeparation:
    def test_golden_mean_cylinder_rects(self):
        m = build_golden_mean()
        words, rects = cylinders(m, 2)
        table = {tuple(w): (lo[0], hi[0]) for w, (lo, hi) in zip(words.tolist(), rects)}
        assert table[(0, 0)] == pytest.approx((0.0, 0.25))
        assert table[(0, 1)] == pytest.approx((0.25, 0.375))
        assert table[(1, 0)] == pytest.approx((0.5, 0.75))

    def test_horseshoe_cylinders_are_full_height_strips(self):
        m = build_linear_horseshoe(3.0, 0.25)
        _, rects = cylinders(m, 4)
        assert np.all(rects[:, 0, 1] == 0.0) and np.all(rects[:, 1, 1] == 1.0)
        widths = rects[:, 1, 0] - rects[:, 0, 0]
        assert widths == pytest.approx(np.full(16, 3.0**-4), rel=1e-12)

    def test_contracting_whole_axis_does_not_drift(self):
        # branch 1 maps y = 1 to fl(0.1 + 0.9) = 1, yet 0.9 + 0.1 exceeds 1 by
        # 2.8e-17 in exact arithmetic; pulling back magnified that tenfold per
        # level, to 2.5e-6 at depth 12
        m = build_linear_horseshoe(2.5, 0.1)
        _, rects = cylinders(m, 12)
        assert np.all(rects[:, 0, 1] == 0.0) and np.all(rects[:, 1, 1] == 1.0)

    @pytest.mark.parametrize(
        "build", [lambda: build_cantor_repeller(3, (0, 2)), build_golden_mean,
                  lambda: build_linear_horseshoe(3.0, 0.25)],
        ids=["cantor", "golden", "horseshoe"],
    )
    def test_separated_set_invariant(self, build):
        model = build()
        sep = separated_set(model, 4)
        assert sep.delta > 0
        pts = sep.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                a = np.atleast_2d(pts[i]).copy()
                b = np.atleast_2d(pts[j]).copy()
                separated = False
                for _ in range(sep.k):
                    if np.abs(a - b).max() >= sep.delta - 1e-12:
                        separated = True
                        break
                    a, ia = model.step(a)
                    b, ib = model.step(b)
                    if ia[0] < 0 or ib[0] < 0:
                        break
                assert separated, (pts[i], pts[j])


class TestMarkovMeasures:
    def test_doubling_uniform_pesin(self):
        m = build_doubling_map(2)
        stats = markov_measure_stats(m, potential(m, "phi"), [0.5, 0.5])
        assert stats.entropy == pytest.approx(math.log(2), abs=1e-14)
        assert stats.exponents == ((pytest.approx(math.log(2), abs=1e-14), 1),)
        assert stats.entropy == pytest.approx(stats.positive_exponent_sum, abs=1e-13)

    def test_horseshoe_uniform_margulis_ruelle_strict(self):
        m = build_linear_horseshoe(3.0, 0.25)
        stats = markov_measure_stats(m, potential(m, "phi_u"), [0.5, 0.5])
        assert stats.entropy == pytest.approx(math.log(2), abs=1e-14)
        lams = dict((round(l, 6), mult) for l, mult in stats.exponents)
        assert lams == {round(math.log(3), 6): 1, round(math.log(0.25), 6): 1}
        assert stats.entropy < stats.positive_exponent_sum  # log 2 < log 3

    def test_point_mass_has_zero_entropy(self):
        m = build_doubling_map(2)
        stats = markov_measure_stats(m, potential(m, "phi"), [1.0, 0.0])
        assert stats.entropy == 0.0

    def test_point_mass_needs_fixed_symbol(self):
        m = build_golden_mean()
        with pytest.raises(IncompatibleStochasticsError):
            markov_measure_stats(m, Potential.zero(2), [0.0, 1.0])

    def test_rejects_bad_vectors(self):
        m = build_doubling_map(2)
        with pytest.raises(IncompatibleStochasticsError):
            markov_measure_stats(m, Potential.zero(2), [0.7, 0.7])

    def test_markov_chain_respects_transitions(self):
        m = build_golden_mean()
        bad = np.array([[0.5, 0.5], [0.5, 0.5]])  # 1 -> 1 inadmissible
        with pytest.raises(IncompatibleStochasticsError):
            markov_measure_stats(m, Potential.zero(2), bad)

    def test_margulis_ruelle_on_expanding_models(self):
        chains = [
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            np.array([[0.25, 0.75], [0.9, 0.1]]),
            np.array([[0.6, 0.4], [1.0, 0.0]]),
        ]
        for model in (build_doubling_map(2), build_cantor_repeller(3, (0, 2))):
            pot = potential(model, "phi")
            for q in chains:
                stats = markov_measure_stats(model, pot, q)
                assert stats.entropy <= -stats.potential_integral + 1e-12

    def test_variational_lower_bounds(self):
        for model in (build_doubling_map(2), build_golden_mean()):
            pot = potential(model, "phi")
            p = pressure_spectral(model, pot)
            chains = [np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.3, 0.7], [1.0, 0.0]])]
            if model.nsym != 2:
                continue
            for q in chains:
                if np.any((q > 0) & (np.asarray(model.transition) == 0)):
                    continue
                stats = markov_measure_stats(model, pot, q)
                assert stats.entropy + stats.potential_integral <= p + 1e-12

    def test_equilibrium_chain_attains_pressure(self):
        for model in (build_golden_mean(), build_doubling_map(2), build_cat_map()):
            for pot in (
                Potential.zero(model.nsym),
                potential(model, "phi_u" if model.kind == "diffeo" else "phi"),
            ):
                q, _ = equilibrium_markov_chain(model, pot)
                stats = markov_measure_stats(model, pot, q)
                p = pressure_spectral(model, pot)
                assert stats.entropy + stats.potential_integral == pytest.approx(p, abs=1e-12)

    def test_cat_parry_entropy(self):
        m = build_cat_map()
        q, _ = equilibrium_markov_chain(m, Potential.zero(m.nsym))
        stats = markov_measure_stats(m, Potential.zero(m.nsym), q)
        assert stats.entropy == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-12)


class TestPowerModel:
    def test_doubling_power_is_higher_degree(self):
        g = power_model(build_doubling_map(2), 3)
        assert g.nsym == 8
        assert all(linear[0, 0] == pytest.approx(8.0) for linear in g.linear)

    @pytest.mark.parametrize("power", [2, 3])
    def test_power_tracks_composed_orbit(self, power):
        cases = [
            (build_golden_mean(), np.array([[0.11], [0.31], [0.52], [0.61]])),
            (build_doubling_map(2), np.array([[0.05], [0.37], [0.81], [0.99]])),
            (build_cantor_repeller(3, (0, 2)), np.array([[0.08], [0.31], [0.7], [0.95]])),
            (
                build_linear_horseshoe(3.0, 0.25),
                np.array([[0.05, 0.2], [0.3, 0.7], [0.7, 0.4], [0.95, 0.9]]),
            ),
        ]
        for model, pts in cases:
            g = power_model(model, power)
            direct = pts.copy()
            ok = np.ones(len(pts), bool)
            for _ in range(power):
                direct, idx = model.step(direct)
                ok &= idx >= 0
            via_power, gidx = g.step(pts)
            assert np.array_equal(gidx >= 0, ok)
            assert np.allclose(via_power[ok], direct[ok], atol=1e-12)

    def test_power_pressure_scales(self):
        m = build_cat_map()
        p1 = pressure_spectral(m, potential(m, "phi_u"))
        g = power_model(m, 2)
        p2 = pressure_spectral(g, potential(g, "phi_u"))
        assert p2 == pytest.approx(2 * p1, abs=1e-12)


def test_equal_exponents_merge_into_one_with_their_multiplicity():
    # Cantor x Cantor: four branches diag(3, 3), so both exponents of every measure are log 3
    model = ModelSystem.from_json_dict({
        "space": {"dim": 2, "geometry": "cube"},
        "kind": "expanding",
        "branches": [
            {"symbol": i, "domain": {"lo": [a / 3, b / 3], "hi": [(a + 1) / 3, (b + 1) / 3]},
             "linear": [[3.0, 0.0], [0.0, 3.0]], "offset": [-float(a), -float(b)]}
            for i, (a, b) in enumerate([(0, 0), (0, 2), (2, 0), (2, 2)])
        ],
        "transition": [[1] * 4] * 4,
        "unstable_dim": 2,
    })
    (exponent, multiplicity), = markov_measure_stats(model, potential(model, "phi"), [0.25] * 4).exponents
    assert exponent == pytest.approx(math.log(3.0), rel=1e-15) and multiplicity == 2
