"""Quick tests of the benchmark's oracles and input models.

    python3 -m pytest -q bench/test_oracles.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402

FULL2 = [[1, 1], [1, 1]]
GOLDEN = [[1, 1], [1, 0]]


def test_horseshoe_closed_forms():
    assert oracles.horseshoe_pressure(3.0) == pytest.approx(math.log(2 / 3), abs=1e-15)
    assert oracles.horseshoe_rate(3.0) == pytest.approx(math.log(3), abs=1e-15)
    assert oracles.horseshoe_bound(3.0) == pytest.approx(1 + math.log(2) / math.log(3), abs=1e-15)
    assert oracles.horseshoe_bound(4.0) == pytest.approx(1.5, abs=1e-15)


def test_moran_root_of_middle_thirds_and_unequal_slopes():
    assert oracles.moran_root([3, 3]) == pytest.approx(math.log(2) / math.log(3), abs=1e-14)
    slopes = [3.5, 4.2, 3.9]
    t = oracles.moran_root(slopes)
    assert sum(s**-t for s in slopes) == pytest.approx(1.0, abs=1e-13)


def test_bowen_root_agrees_with_moran_on_full_shifts():
    for slopes in ([3.0, 3.0], [3.5, 4.2, 3.9]):
        a = [[1] * len(slopes)] * len(slopes)
        assert oracles.bowen_root(a, slopes) == pytest.approx(oracles.moran_root(slopes), abs=1e-13)


def test_golden_mean_values():
    assert oracles.golden_mean_dimension() == pytest.approx(0.6942419136306174, abs=1e-15)
    assert oracles.bowen_root(GOLDEN, [2, 2]) == pytest.approx(
        oracles.golden_mean_dimension(), abs=1e-13
    )
    # topological entropy of the golden-mean shift is log phi
    assert oracles.sft_pressure(GOLDEN, [0.0, 0.0]) == pytest.approx(
        math.log(oracles.GOLDEN_RATIO), abs=1e-14
    )


def test_word_counts_and_partition_sums():
    assert oracles.word_counts(FULL2, 5) == [2, 4, 8, 16, 32]
    assert oracles.word_counts(GOLDEN, 6) == [2, 3, 5, 8, 13, 21]
    z = oracles.partition_sums(GOLDEN, np.log([0.5, 0.25]), 3)
    # words 0, 1 | 00, 01, 10 | 000, 001, 010, 100, 101
    assert z == pytest.approx([0.75, 0.25 + 0.125 + 0.125, 0.125 + 3 * 0.0625 + 0.03125])


def test_input_models_have_the_oracle_geometry():
    model = inputs.full_shift_repeller([3.5, 4.2, 3.9])
    branches = model["branches"]
    assert branches[0]["domain"]["lo"] == [0.0] and branches[-1]["domain"]["hi"] == [1.0]
    for b in branches:
        lo, hi, slope = b["domain"]["lo"][0], b["domain"]["hi"][0], b["linear"][0][0]
        # each branch maps its interval onto [0, 1]
        assert slope * lo + b["offset"][0] == pytest.approx(0.0, abs=1e-12)
        assert slope * hi + b["offset"][0] == pytest.approx(1.0, abs=1e-12)
    golden = inputs.golden_shift_repeller(2.5, 2.2)
    b1 = golden["branches"][1]
    image_hi = b1["linear"][0][0] * b1["domain"]["hi"][0] + b1["offset"][0]
    assert image_hi == pytest.approx(golden["branches"][0]["domain"]["hi"][0], abs=1e-12)


def test_inputs_repeat_for_a_seed_and_never_repeat_in_a_run(tmp_path):
    for workload in inputs.WORKLOADS:
        first = [op["argv"] for r in range(4) for op in inputs.round_ops(workload, 7, r, str(tmp_path))]
        again = [op["argv"] for r in range(4) for op in inputs.round_ops(workload, 7, r, str(tmp_path))]
        assert first == again
        timed = [
            tuple(op["argv"]) for r in range(4)
            for op in inputs.round_ops(workload, 7, r, str(tmp_path)) if op.get("timed", True)
        ]
        assert len(set(timed)) == len(timed)


def test_strict_json_refuses_infinity():
    with pytest.raises(checks.CheckFailed):
        checks.parse_document('{"result": {"value": -Infinity}}')
    assert checks.parse_document('{"result": {"value": 1.5}}') == {"value": 1.5}
