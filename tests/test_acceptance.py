"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
tolerance is pinned here; the affine models make each target value exact,
so the estimator paths are checked against closed forms end to end.
"""

import json
import math
import time

import numpy as np

from hypdim.cli import main
from hypdim.dimension import (
    bound_report,
    box_count,
    classify,
    dimension_bound,
    expansion_rate,
    invariant_set_sample,
    measure_box_dimension,
)
from hypdim.models import (
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
    bowen_ball_contains,
    pressure_from_partition_sums,
    pressure_from_volume_growth,
    spectral_estimate,
    volume_curve,
)
from hypdim.symbolic import (
    equilibrium_markov_chain,
    markov_measure_stats,
    partition_sums_through,
    power_model,
    pressure_spectral,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
CAT_RATE = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def finish(num, name, elapsed, limit, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} in {elapsed:.2f}s (limit {limit}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.2f}s exceeds {limit}s"


def cli_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code} for {argv}"
    return json.loads(out)


def test_criterion_1_horseshoe_bound_tightness(capsys):
    start = time.perf_counter()
    failures = []
    for lam_u in (2.5, 3.0, 4.0):
        doc = cli_json(capsys, ["bound", "--model", f"horseshoe:{lam_u},0.25"])
        bound = doc["result"]["bound"]
        closed_form = 1.0 + LOG2 / math.log(lam_u)
        t_u_plus_one = LOG2 / math.log(lam_u) + 1.0
        if abs(bound - closed_form) > 1e-9:
            failures.append(f"lambda_u={lam_u}: bound {bound} vs {closed_form}")
        if abs(bound - t_u_plus_one) > 1e-9:
            failures.append(f"lambda_u={lam_u}: bound misses t_u + 1")
    finish(1, "horseshoe bound tightness", time.perf_counter() - start, 1.0, failures)


def test_criterion_2_pressure_oracle_agreement():
    start = time.perf_counter()
    failures = []
    cases = [
        ("horseshoe", build_linear_horseshoe(3.0, 0.25), "phi_u"),
        ("doubling", build_doubling_map(2), "phi"),
        ("golden-mean", build_golden_mean(), "zero"),
    ]
    for name, model, label in cases:
        pot = Potential.zero(model.nsym) if label == "zero" else potential(model, label)
        est = pressure_from_partition_sums(model, pot, 12)
        exact = pressure_spectral(model, pot)
        if abs(est.value - exact) > 1e-9:
            failures.append(f"{name}: partition {est.value} vs spectral {exact}")
        if name == "golden-mean":
            golden = math.log((1.0 + math.sqrt(5.0)) / 2.0)
            if abs(est.value - golden) > 1e-6:
                failures.append(f"golden-mean value {est.value} vs {golden}")
    finish(2, "pressure oracle agreement", time.perf_counter() - start, 5.0, failures)


def test_criterion_3_volume_growth_estimator():
    start = time.perf_counter()
    failures = []
    model = build_cantor_repeller(3, (0, 2))
    curve = volume_curve(model, 0.05, 10, 1 << 12)
    est = pressure_from_volume_growth(curve, (4, 10))
    target = math.log(2.0 / 3.0)
    if abs(est.value - target) > 1e-9:
        failures.append(f"slope {est.value} outside {target} +- 1e-9")
    if est.value > 0.0 + est.residual:
        failures.append(f"slope {est.value} above zero beyond residual {est.residual}")
    finish(3, "volume-growth estimator", time.perf_counter() - start, 60.0, failures)


def test_criterion_4_attractor_dichotomy():
    start = time.perf_counter()
    failures = []
    for name, model in (("cat map", build_cat_map()), ("doubling", build_doubling_map(2))):
        pot = potential(model, "phi_u" if model.kind == "diffeo" else "phi")
        est = spectral_estimate(model, pot)
        if abs(est.value) > 1e-9:
            failures.append(f"{name}: |P| = {abs(est.value)} > 1e-9")
        if classify(est) != "attractor":
            failures.append(f"{name}: classified {classify(est)}")
    for lam_u in (2.1, 2.5, 3.0, 4.0, 8.0):
        model = build_linear_horseshoe(lam_u, 0.25)
        est = spectral_estimate(model, potential(model, "phi_u"))
        if classify(est) != "non_attractor":
            failures.append(f"horseshoe {lam_u}: classified {classify(est)}")
    finish(4, "attractor dichotomy", time.perf_counter() - start, 1.0, failures)


def test_criterion_5_expanding_map_consistency():
    start = time.perf_counter()
    failures = []
    model = build_cantor_repeller(3, (0, 2))
    report = bound_report(model)
    sample = invariant_set_sample(model, depth=10)
    scales = [3.0**-m for m in range(2, 10)]
    est = measure_box_dimension(sample, scales)
    if est.slope > report.bound + 0.05:
        failures.append(f"measured {est.slope} above bound {report.bound} + 0.05")
    if abs(est.slope - LOG2 / LOG3) > 0.02:
        failures.append(f"measured {est.slope} vs log2/log3 beyond 0.02")
    finish(5, "expanding-map bound consistency", time.perf_counter() - start, 30.0, failures)


def test_criterion_6_dimension_near_two(capsys):
    start = time.perf_counter()
    failures = []
    doc = cli_json(capsys, ["report", "--model", "horseshoe", "--target-dim", "1.9",
                            "--out-dir", "/tmp/hypdim-acceptance-report", "--depth", "6"])
    lam_u = doc["result"]["rows"][0]["synthesized_lambda_u"]
    if abs(lam_u - 2.0 ** (1.0 / 0.9)) > 1e-9 or abs(lam_u - 2.1601) > 1e-3:
        failures.append(f"synthesized lambda_u {lam_u}")
    doc = cli_json(capsys, ["dimension", "--model", "horseshoe", "--target-dim", "1.9",
                            "--set", "stable", "--depth", "10", "--grid", "2048"])
    slope = doc["result"]["dimension"]["slope"]
    if not 1.8 <= slope <= 2.0:
        failures.append(f"stable-set dimension {slope} outside [1.8, 2.0]")
    finish(6, "stable sets close to full dimension", time.perf_counter() - start, 120.0, failures)


def test_criterion_7_power_map_invariance():
    start = time.perf_counter()
    failures = []
    models = {
        "horseshoe": build_linear_horseshoe(3.0, 0.25),
        "doubling": build_doubling_map(2),
        "cantor": build_cantor_repeller(3, (0, 2)),
        "golden": build_golden_mean(),
        "cat": build_cat_map(),
    }
    for name, model in models.items():
        label = "phi_u" if model.kind == "diffeo" else "phi"
        p1 = pressure_spectral(model, potential(model, label))
        s1 = expansion_rate(model).value
        for m in (2, 3):
            iterated = power_model(model, m)
            p_m = pressure_spectral(iterated, potential(iterated, label))
            s_m = expansion_rate(iterated).value
            if abs(p_m - m * p1) > 1e-12:
                failures.append(f"{name} m={m}: P scaling off by {abs(p_m - m * p1)}")
            if abs(s_m - m * s1) > 1e-12:
                failures.append(f"{name} m={m}: s scaling off by {abs(s_m - m * s1)}")
            if abs(dimension_bound(model.n, p_m, s_m) - dimension_bound(model.n, p1, s1)) > 1e-12:
                failures.append(f"{name} m={m}: bound changed")
    finish(7, "power-map invariance", time.perf_counter() - start, 5.0, failures)


def test_criterion_8_pesin_srb_chain():
    start = time.perf_counter()
    failures = []

    doubling = build_doubling_map(2)
    stats = markov_measure_stats(doubling, potential(doubling, "phi"), [0.5, 0.5])
    if abs(stats.entropy - LOG2) > 1e-12:
        failures.append(f"doubling entropy {stats.entropy} vs log2")
    if abs(stats.positive_exponent_sum - LOG2) > 1e-12:
        failures.append(f"doubling exponent {stats.positive_exponent_sum} vs log2")

    cat = build_cat_map()
    q, _ = equilibrium_markov_chain(cat, potential(cat, "phi_u"))
    cat_stats = markov_measure_stats(cat, potential(cat, "phi_u"), q)
    if abs(cat_stats.entropy - CAT_RATE) > 1e-12:
        failures.append(f"cat entropy {cat_stats.entropy} vs {CAT_RATE}")
    if abs(cat_stats.positive_exponent_sum - CAT_RATE) > 1e-12:
        failures.append(f"cat exponent sum {cat_stats.positive_exponent_sum}")

    horseshoe = build_linear_horseshoe(3.0, 0.25)
    report = bound_report(horseshoe, check_equivalences=True)
    ruelle = {c[0]: c for c in report.equivalence_checks}.get("margulis_ruelle_strict")
    if ruelle is None or not ruelle[1]:
        failures.append("horseshoe strict inequality not reported")
    else:
        if abs(ruelle[2]["entropy"] - LOG2) > 1e-12 or abs(ruelle[2]["positive_exponent_sum"] - LOG3) > 1e-12:
            failures.append(f"horseshoe inequality values {ruelle[2]}")
    finish(8, "Pesin/SRB chain", time.perf_counter() - start, 1.0, failures)


def test_criterion_9_invariant_suites(capsys):
    start = time.perf_counter()
    failures = []

    # pressure translation P(phi + c) = P(phi) + c
    golden = build_golden_mean()
    zero = Potential.zero(2)
    base = pressure_spectral(golden, zero)
    for c in (-1.0, 0.5, 2.0):
        if abs(pressure_spectral(golden, zero.shifted(c)) - (base + c)) > 1e-12:
            failures.append(f"translation failed for c={c}")

    # partition-sum multiplicativity on the full shift
    horseshoe = build_linear_horseshoe(3.0, 0.25)
    z = partition_sums_through(horseshoe, potential(horseshoe, "phi_u"), 12)
    for j, k in ((3, 4), (5, 6), (2, 9)):
        if abs(z[j + k - 1] - z[j - 1] * z[k - 1]) > 1e-12 * abs(z[j + k - 1]):
            failures.append(f"multiplicativity failed at ({j}, {k})")

    # Bowen-ball nesting in k
    doubling = build_doubling_map(2)
    for y in np.linspace(0.0, 1.0, 21):
        if bowen_ball_contains(doubling, BowenBallSpec([0.4], 0.2, 6), [y]):
            if not bowen_ball_contains(doubling, BowenBallSpec([0.4], 0.2, 5), [y]):
                failures.append(f"nesting violated at y={y}")

    # growth-sequence subadditivity
    for model in (horseshoe, doubling, build_cat_map()):
        rate = expansion_rate(model, k_max=6)
        a = rate.per_k * np.arange(1, 7)
        for j in range(1, 6):
            for k in range(1, 7 - j):
                if a[j + k - 1] > a[j - 1] + a[k - 1] + 1e-12:
                    failures.append(f"subadditivity violated at ({j}, {k})")

    # box-count monotonicity under dyadic refinement
    sample = invariant_set_sample(build_cantor_repeller(3, (0, 2)), depth=10)
    for m in range(1, 9):
        coarse = box_count(sample, 2.0**-m)
        fine = box_count(sample, 2.0 ** -(m + 1))
        if not coarse <= fine <= 2 * coarse:
            failures.append(f"dyadic monotonicity violated at m={m}")

    # CLI determinism across thread counts
    argv = ["pressure", "--model", "cantor:3,02", "--method", "volume",
            "--eps", "0.05", "--kmax", "8", "--grid", "2048"]
    outputs = []
    for threads in ("1", "4"):
        code = main(argv + ["--threads", threads])
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"volume run failed with threads={threads}")
        outputs.append(json.loads(out)["result"])
    if outputs[0] != outputs[1]:
        failures.append("results differ across thread counts")

    finish(9, "invariant suites", time.perf_counter() - start, 60.0, failures)
