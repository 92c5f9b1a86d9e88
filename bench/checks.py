"""Per-operation checks of hypdim's output against the closed forms.

`check(op, rc, stdout)` returns the estimator error of the operation
(|estimate - closed form| for the sampled estimator, None for exact
routes) and raises `CheckFailed` when any check fails.  Nothing is
compared with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracles

EXACT_TOL = 1e-9
# the partition route extrapolates finite-k growth (one Aitken step)
PARTITION_TOL = 1e-8
# sampled estimators at a finite resolution; the volume tolerance is the
# one tests/test_acceptance.py pins for criterion 3
DIMENSION_TOL = 0.1
VOLUME_TOL = 0.1
REPORT_COLUMNS = ["label", "lambda_u_max", "pressure", "s", "bound", "classification",
                  "measured_dimension"]


class CheckFailed(Exception):
    """An operation's output contradicts a closed form or a method property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(value, target, tol: float, what: str) -> None:
    _require(
        isinstance(value, (int, float)) and abs(value - target) <= tol,
        f"{what} = {value!r}, closed form {target!r}, tolerance {tol}",
    )


def _reject_constant(token: str):
    raise CheckFailed(f"output is not strict JSON: it holds {token}")


def parse_document(stdout: str) -> dict:
    """The CLI document as strict JSON: NaN and Infinity are refused."""
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    _require(isinstance(doc, dict) and "result" in doc, "document has no result")
    return doc["result"]


def _check_equivalences(report: dict) -> None:
    checks = {c["claim"]: c["passed"] for c in report["equivalence_checks"]}
    _require(checks.get("equivalences_consistent") is True, "equivalence chain inconsistent")
    _require(checks.get("margulis_ruelle_strict") is True, "strict entropy inequality failed")
    _require(report["classification"] == "non_attractor", "classified other than non_attractor")


def _check_box_counts(estimate: dict, n: int) -> None:
    scales, counts = estimate["scales"], estimate["counts"]
    _require(all(c > 0 for c in counts), "a box count is not positive")
    for (s0, c0), (s1, c1) in zip(zip(scales, counts), zip(scales[1:], counts[1:])):
        if s1 == 0.5 * s0:
            _require(c0 <= c1 <= (2**n) * c0, f"box counts {c0} -> {c1} as the scale halves")


def _check_sweep(op: dict, result: dict) -> float:
    rows = result["rows"]
    _require(len(rows) == len(op["lambdas"]), "sweep row count")
    err = 0.0
    for row, lam in zip(rows, op["lambdas"]):
        _close(row["lambda_u_max"], lam, EXACT_TOL, "swept lambda_u")
        _close(row["pressure"], oracles.horseshoe_pressure(lam), EXACT_TOL, f"P at {lam}")
        _close(row["s"], oracles.horseshoe_rate(lam), EXACT_TOL, f"s at {lam}")
        exact = oracles.horseshoe_bound(lam)
        _close(row["bound"], exact, EXACT_TOL, f"bound at {lam}")
        _require(exact <= row["bound"] + EXACT_TOL, f"dimension above the bound at {lam}")
        _check_equivalences(row["report"])
        _close(row["measured_dimension"], exact, DIMENSION_TOL, f"stable dimension at {lam}")
        err = max(err, abs(row["measured_dimension"] - exact))
    table = _read_csv(op)
    _require(len(table) == len(rows) + 1, "report.csv row count")
    return err


def _read_csv(op: dict) -> list:
    with open(os.path.join(op["out_dir"], "report.csv"), newline="") as handle:
        table = list(csv.reader(handle))
    _require(table[0] == REPORT_COLUMNS, "report.csv header")
    return table


def _check_report_csv(op: dict, result: dict) -> None:
    """Every report.csv cell equals its JSON row value."""
    table = _read_csv(op)
    rows = result["rows"]
    _require(len(table) == len(rows) + 1, "report.csv row count")
    for line, row in zip(table[1:], rows):
        _require(len(line) == len(REPORT_COLUMNS), f"report.csv row has {len(line)} cells: {line}")
        for text, key in zip(line, REPORT_COLUMNS):
            value = row[key]
            same = text == value if isinstance(value, str) else float(text) == value
            _require(same, f"report.csv {key} {text!r} != JSON {value!r}")


def _check_volume(op: dict, result: dict) -> float:
    est = result["pressure"]
    _require(est["method"] == "volume_growth", "method is not volume_growth")
    volumes = est["curve"]["volume"]
    _require(all(b <= a for a, b in zip(volumes, volumes[1:])), "volumes increase with k")
    exact = oracles.horseshoe_pressure(op["lambda_u"])
    _close(est["value"], exact, VOLUME_TOL, f"volume pressure at {op['lambda_u']}")
    return abs(est["value"] - exact)


def _repeller_dimension(op: dict) -> float:
    """Moran root on a full shift, Bowen root on any other subshift."""
    if all(all(row) for row in op["transition"]):
        return oracles.moran_root(op["slopes"])
    return oracles.bowen_root(op["transition"], op["slopes"])


def _check_repeller_dimension(op: dict, result: dict) -> float:
    est = result["dimension"]
    _check_box_counts(est, 1)
    exact = _repeller_dimension(op)
    _close(est["slope"], exact, DIMENSION_TOL, "repeller dimension")
    return abs(est["slope"] - exact)


def _check_partition(op: dict, result: dict) -> None:
    est = result["pressure"]
    a, slopes, kmax = op["transition"], op["slopes"], op["kmax"]
    phi = -np.log(np.asarray(slopes, dtype=float))
    _close(est["value"], oracles.repeller_pressure(a, slopes), PARTITION_TOL, "partition pressure")
    z = np.asarray(est["curve"]["z"])
    _require(z.shape == (kmax,), "partition curve length")
    exact_z = oracles.partition_sums(a, phi, kmax)
    _require(np.allclose(z, exact_z, rtol=EXACT_TOL, atol=0), "Z_k differs from the transfer matrix")
    if len(set(slopes)) == 1:
        # uniform slope: Z_k * slope^k counts the admissible k-words
        counts = z * slopes[0] ** np.arange(1, kmax + 1)
        words = np.asarray(oracles.word_counts(a, kmax), dtype=float)
        _require(np.allclose(counts, words, rtol=EXACT_TOL, atol=0), "word counts != 1^T A^(k-1) 1")


def _check_bound(op: dict, result: dict) -> None:
    a, slopes = op["transition"], op["slopes"]
    p = oracles.repeller_pressure(a, slopes)
    s = math.log(max(slopes))  # the inputs keep the steepest branch on a fixed point
    _close(result["pressure"]["value"], p, EXACT_TOL, "spectral pressure")
    _close(result["s"]["value"], s, EXACT_TOL, "expansion rate")
    _close(result["bound"], 1.0 + p / s, EXACT_TOL, "bound")
    _require(_repeller_dimension(op) <= result["bound"] + EXACT_TOL, "dimension above the bound")
    _check_equivalences(result)


def check(op: dict, rc: int, stdout: str):
    """Check one operation; returns its estimator error or None."""
    _require(rc == 0, f"exit code {rc}")
    result = parse_document(stdout)
    kind = op["kind"]
    if kind == "sweep":
        return _check_sweep(op, result)
    if kind == "report_csv":
        return _check_report_csv(op, result)
    if kind == "volume":
        return _check_volume(op, result)
    if kind == "repeller_dimension":
        return _check_repeller_dimension(op, result)
    if kind == "partition":
        return _check_partition(op, result)
    if kind == "bound":
        return _check_bound(op, result)
    raise ValueError(f"unknown operation kind {kind!r}")
