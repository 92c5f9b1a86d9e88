"""Command-line behavior: exit codes, JSON shape, determinism, side files."""

import argparse
import csv
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdim import cli, symbolic
from hypdim.cli import SWEEP_ROW_CAP, _parse_sweep, emit_document, main, make_config, parse_scales
from hypdim.dimension import box_counts, box_dimension, dimension_bound
from hypdim.errors import (
    CapExceededError,
    ConfigError,
    DegenerateCurveError,
    DegenerateScalesError,
    HypdimError,
    ParameterOutOfRangeError,
)
from hypdim.models import ModelSystem, Potential, build_linear_horseshoe, potential
from hypdim.pressure import (
    VolumeCurve,
    cover_distance,
    pressure_from_partition_sums,
    pressure_from_volume_growth,
    volume_curve,
)
from hypdim.symbolic import CylinderWalk, partition_sums_through

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def _repeller_doc(slopes, transition) -> dict:
    """A 1-D repeller: branch i maps [lo_i, lo_i + 1/slope_i] onto [0, 1], the domains spread over [0, 1]."""
    gap = (1.0 - sum(1.0 / s for s in slopes)) / max(len(slopes) - 1, 1)
    los = [sum(1.0 / t for t in slopes[:i]) + i * gap for i in range(len(slopes))]
    return {
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": [
            {"symbol": i, "domain": {"lo": [lo], "hi": [lo + 1.0 / s]}, "linear": [[s]], "offset": [-s * lo]}
            for i, (lo, s) in enumerate(zip(los, slopes))
        ],
        "transition": transition,
        "unstable_dim": 1,
    }


def _swapped_square_doc(geometry: str = "cube") -> dict:
    """x -> 3y - b, y -> 3x - a on the digit squares (a, b) of Cantor x Cantor: no axis steps alone."""
    return {
        "space": {"dim": 2, "geometry": geometry},
        "kind": "expanding",
        "branches": [
            {"symbol": i, "domain": {"lo": [a / 3, b / 3], "hi": [(a + 1) / 3, (b + 1) / 3]},
             "linear": [[0.0, 3.0], [3.0, 0.0]], "offset": [-float(b), -float(a)]}
            for i, (a, b) in enumerate([(0, 0), (0, 2), (2, 0), (2, 2)])
        ],
        "transition": [[1] * 4] * 4,
        "unstable_dim": 2,
    }


class TestBoundCommand:
    def test_horseshoe_value(self, capsys):
        doc = run_json(capsys, ["bound", "--model", "horseshoe:3,0.25"])
        assert doc["result"]["bound"] == pytest.approx(1.0 + math.log(2) / math.log(3), abs=1e-12)
        assert doc["result"]["classification"] == "non_attractor"

    def test_cat_map_attractor(self, capsys):
        doc = run_json(capsys, ["bound", "--model", "catmap"])
        assert doc["result"]["bound"] == 2.0
        assert doc["result"]["classification"] == "attractor"

    def test_cantor_bound(self, capsys):
        doc = run_json(capsys, ["bound", "--model", "cantor:3,02"])
        assert doc["result"]["bound"] == pytest.approx(math.log(2) / math.log(3), abs=1e-12)

    def test_check_srb_flag(self, capsys):
        doc = run_json(capsys, ["bound", "--model", "doubling:2", "--check-srb"])
        claims = {c["claim"]: c["passed"] for c in doc["result"]["equivalence_checks"]}
        assert claims["pesin_entropy_formula"] is True


class TestPressureCommand:
    def test_spectral_default(self, capsys):
        doc = run_json(capsys, ["pressure", "--model", "horseshoe:3,0.25", "--potential", "phi_u"])
        assert doc["result"]["pressure"]["value"] == pytest.approx(math.log(2 / 3), abs=1e-12)

    def test_partition_matches_closed_form(self, capsys):
        doc = run_json(
            capsys,
            ["pressure", "--model", "horseshoe:3,0.25", "--method", "partition", "--kmax", "12"],
        )
        assert doc["result"]["pressure"]["value"] == pytest.approx(math.log(2 / 3), abs=1e-9)

    def test_volume_on_doubling(self, capsys):
        doc = run_json(
            capsys,
            ["pressure", "--model", "doubling:2", "--method", "volume",
             "--eps", "0.1", "--kmax", "8", "--grid", "4096"],
        )
        assert -0.05 <= doc["result"]["pressure"]["value"] <= 0.0

    def test_inconclusive_verdict_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            ["pressure", "--model", "goldenmean", "--potential", "zero",
             "--method", "partition", "--classify"],
        )
        assert code == 4
        assert json.loads(out)["result"]["classification"] == "inconclusive"

    def test_partition_sums_past_the_word_cap(self, capsys):
        # 2^30 and 6.32e7 words: the word cap refused both (exit 3), though the sums list no word
        doc = run_json(capsys, ["pressure", "--model", "cantor:3,02", "--method", "partition", "--kmax", "30"])
        assert doc["result"]["pressure"]["value"] == pytest.approx(math.log(2 / 3), abs=1e-12)
        run_json(capsys, ["pressure", "--model", "catmap", "--method", "partition", "--kmax", "18"])

    def test_a_subnormal_partition_sum_is_refused(self, capsys):
        # (2/3)^k leaves the normal floats at k = 1748; the sums stuck at 2e-323 read P = 0.0 with exit 0
        code, out, err = run(capsys, ["pressure", "--model", "cantor:3,02", "--method", "partition",
                                      "--kmax", "2000"])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"hypdim: invalid configuration: partition sum Z_1748 = 1\.557\d*e-308 "
                            r"leaves the positive float range\n", err)

    def test_decisive_verdict_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, ["pressure", "--model", "horseshoe:3,0.25", "--classify"]
        )
        assert code == 0
        assert json.loads(out)["result"]["classification"] == "non_attractor"


class TestDimensionCommand:
    def test_cantor_triadic_scales(self, capsys):
        doc = run_json(
            capsys, ["dimension", "--model", "cantor:3,02", "--scales", "3^-2..3^-9"]
        )
        assert doc["result"]["dimension"]["slope"] == pytest.approx(
            math.log(2) / math.log(3), abs=0.02
        )

    def test_horseshoe_stable_cloud_dimension(self, capsys):
        doc = run_json(
            capsys,
            ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable",
             "--eps", "0.05", "--depth", "10"],
        )
        target = 1.0 + math.log(2) / math.log(3)
        assert doc["result"]["dimension"]["slope"] == pytest.approx(target, abs=0.1)

    def test_horseshoe_invariant_product_dimension(self, capsys):
        doc = run_json(capsys, ["dimension", "--model", "horseshoe:3,0.25", "--set", "invariant"])
        target = math.log(2) / math.log(3) + 0.5
        assert doc["result"]["dimension"]["slope"] == pytest.approx(target, abs=0.05)

    def test_stable_set_of_a_non_dyadic_contraction_tracks_one_axis(self, capsys):
        # the cover's y extent drifted below 1 - 1e-9 from depth 9 on, so the
        # model stopped factoring and the sampler stepped a 2048^2 grid
        model = build_linear_horseshoe(2.5, 0.1)
        assert cover_distance(model, 0.0005).tracked == [0]
        start = time.perf_counter()
        run_json(capsys, ["dimension", "--model", "horseshoe:2.5,0.1", "--set", "stable",
                          "--eps", "0.0005", "--depth", "6"])
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("scales, slope", [("3^-2..3^-8", 1.6309297535714569), ("2^-2..2^-12", 1.6425175269976637)])
    def test_stable_samples_resolve_the_finest_scale(self, capsys, scales, slope):
        # 1,024 samples on the untracked axis resolved no box below 2^-10: these read 1.2194 and 1.4592
        doc = run_json(capsys, ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable", "--scales", scales])
        assert doc["result"]["dimension"]["slope"] == pytest.approx(slope, abs=1e-12)
        assert slope == pytest.approx(1.0 + math.log(2) / math.log(3), abs=0.012)

    @pytest.mark.parametrize("model, argv, resolution", [
        ("horseshoe:3,0.25", [], 8192),
        ("horseshoe:3,0.25", ["--grid", "4096"], 4096),
        ("catmap", [], 2048),
    ], ids=["tracked", "given-grid", "unstepped"])
    def test_a_stable_resolution_rises_to_two_samples_per_finest_box_on_tracked_axes(self, capsys, model, argv,
                                                                                        resolution):
        # at depth 2 the horseshoe takes 2^11 samples; the finest scale 2^-12 asks for 2^13
        doc = run_json(capsys, ["dimension", "--model", model, "--set", "stable", "--depth", "2",
                                "--scales", "2^-2..2^-12", *argv])
        assert doc["result"]["sample"]["resolution"] == resolution

    @pytest.mark.parametrize("scales", ["0,0.1,0.01,0.001", "nan,0.1,0.01,0.001"])
    def test_a_stable_sample_refuses_a_bad_scale_before_sampling(self, capsys, scales):
        # at --depth 100 no sample survives: that refusal came first, after the whole sample was drawn
        code, out, err = run(capsys, ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable",
                                      "--scales", scales, "--depth", "100"])
        assert (code, out, err) == (2, "", "hypdim: invalid configuration: scale must lie in (0, 1]\n")

    @pytest.mark.parametrize("scales", ["0,0.1,0.01,0.001", "nan,0.1,0.01,0.001"])
    def test_a_repeller_sample_refuses_a_bad_scale(self, capsys, scales):
        # the default depth took the log of scale 0 (ZeroDivisionError) or the int of a NaN depth: exit 1
        code, out, err = run(capsys, ["dimension", "--model", "cantor:3,02", "--scales", scales])
        assert (code, out, err) == (2, "", "hypdim: invalid configuration: scale must lie in (0, 1]\n")

    @pytest.mark.parametrize("scales, message", [
        ("1e-300,1e-301,1e-302,1e-303", "scale 1e-303 needs 2^1008 stable samples per axis, above 67108864"),
        ("2^-2..2^-26", "scale 1.4901161193847656e-08 needs 2^27 stable samples per axis, above 67108864"),
    ], ids=["1e-303", "2^-26"])
    def test_a_stable_scale_finer_than_the_grid_cap_is_named(self, capsys, monkeypatch, scales, message):
        # the grid cap refused the resolution itself: at 1e-303 a 300-digit number, written out twice
        monkeypatch.setattr(cli, "cover_distance", None)  # refused before the cover is built
        code, out, err = run(capsys, ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable",
                                      "--scales", scales])
        assert (code, out, err) == (2, "", f"hypdim: invalid configuration: {message}\n")

    def test_cat_map_fills_the_torus(self, capsys):
        doc = run_json(capsys, ["dimension", "--model", "catmap", "--set", "invariant"])
        assert doc["result"]["dimension"]["slope"] == pytest.approx(2.0, abs=0.05)
        doc = run_json(capsys, ["dimension", "--model", "catmap", "--set", "stable",
                                "--grid", "512"])
        assert doc["result"]["dimension"]["slope"] == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("argv", [
        ["--model", "cantor:3,02"],
        ["--model", "cantor:3,02", "--depth", "1"],
        ["--model", "horseshoe:3,0.25", "--set", "invariant", "--depth", "5"],
        ["--model", "catmap", "--set", "invariant"],  # the full-space fallback
        ["--model", "catmap", "--set", "invariant", "--depth", "4"],
    ])
    def test_an_invariant_sample_walks_the_cylinder_levels_once(self, monkeypatch, argv):
        built = []
        levels = symbolic.cylinder_levels

        def counted(model):
            for level in levels(model):
                built.append(len(level[0]))
                yield level

        monkeypatch.setattr(symbolic, "cylinder_levels", counted)
        run = cli.read_args(cli.build_parser().parse_args(["dimension", *argv]))
        _, _, meta = cli.sample_for_set(run.model, run.set_name, run)
        # depth 2 decides the fallback on the way to the sample's depth
        assert len(built) == max(2, meta["depth"])

    @pytest.mark.parametrize("set_name", ["invariant", "repeller"])
    def test_an_expanding_map_of_the_whole_circle_samples_the_grid(self, capsys, tmp_path, set_name):
        # x -> 3x mod 1 as one torus branch: its depth-2 cylinder spans the circle, so
        # the full-space fallback counts the grid, not that cylinder's one centre
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({
            "space": {"dim": 1, "geometry": "torus"},
            "kind": "expanding",
            "branches": [
                {"symbol": 0, "domain": {"lo": [0.0], "hi": [1.0]}, "linear": [[3.0]], "offset": [0.0]},
            ],
            "transition": [[1]],
            "unstable_dim": 1,
        }))
        doc = run_json(capsys, ["dimension", "--model-file", str(path), "--set", set_name])
        assert doc["result"]["sample"] == {"set": set_name, "depth": 2, "resolution": 1024}
        assert doc["result"]["dimension"]["counts"] == [2**e for e in range(2, 10)]
        assert doc["result"]["dimension"]["slope"] == pytest.approx(1.0, abs=1e-12)

    def test_csv_side_file(self, capsys, tmp_path):
        csv = tmp_path / "curve.csv"
        run_json(
            capsys,
            ["dimension", "--model", "cantor:3,02", "--scales", "3^-2..3^-9",
             "--csv", str(csv)],
        )
        lines = csv.read_text().splitlines()
        assert lines[0] == "scale,count,log_inv_scale,log_count"
        assert len(lines) == 9
        assert "," in lines[1] and "." in lines[1]


class TestReportCommand:
    def test_written_files_take_their_mode_from_the_umask(self, capsys, tmp_path):
        # mkstemp's mode 0600 stayed on every file written
        written = {}
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            where = tmp_path / oct(umask)
            where.mkdir()
            old = os.umask(umask)
            try:
                assert run(capsys, ["pressure", "--model", "cantor:3,02", "--method", "partition",
                                    "--out", str(where / "p.json"), "--csv", str(where / "p.csv")]) == (0, "", "")
                assert run(capsys, ["report", "--model", "cantor:3,02", "--out-dir", str(where / "r"), "--plot-data",
                                    "--out", str(where / "r.json")]) == (0, "", "")
            finally:
                os.umask(old)
            files = sorted((p for p in where.rglob("*") if p.is_file()), key=str)
            assert [p.relative_to(where).as_posix() for p in files] == [
                "p.csv", "p.json", "r.json", "r/bound_vs_lambda.csv", "r/dimension_vs_lambda.csv",
                "r/report.csv", "r/report.txt"]
            assert {stat.S_IMODE(p.stat().st_mode) for p in files} == {mode}
            written[umask] = [p.read_bytes() for p in files]
        assert written[0o022] == written[0o077]
        _, stdout, _ = run(capsys, ["pressure", "--model", "cantor:3,02", "--method", "partition"])
        assert written[0o022][1] == stdout.encode()

    def test_target_dim_synthesis(self, capsys, tmp_path):
        doc = run_json(
            capsys,
            ["report", "--model", "horseshoe", "--target-dim", "1.9",
             "--out-dir", str(tmp_path), "--depth", "6"],
        )
        row = doc["result"]["rows"][0]
        assert row["synthesized_lambda_u"] == pytest.approx(2.0 ** (1 / 0.9), abs=1e-9)
        assert row["bound"] == pytest.approx(1.9, abs=1e-12)
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["report", "--model", "cantor:3,02"],
        ["bound", "--model", "cantor:3,02"],
        ["dimension", "--model", "horseshoe:3,0.25"],
        ["report", "--model-file", "model.json"],
        ["report", "--model-file", "model.json", "--model", "horseshoe"],
        ["report"],
        ["report", "--sweep", "lambda_u=2.5:3.0:0.5"],
    ], ids=["report-cantor", "bound-cantor", "horseshoe-parameters", "model-file", "model-file-and-horseshoe",
            "no-model", "sweep"])
    def test_target_dim_reads_only_a_bare_horseshoe(self, capsys, tmp_path, argv):
        # a report measured a synthesized horseshoe under the other model's name; bound echoed the flag unread
        out_dir = ["--out-dir", str(tmp_path)] if argv[0] == "report" else []
        code, out, err = run(capsys, [*argv, "--target-dim", "1.9", *out_dir])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: --target-dim reads only a bare --model horseshoe\n"
        assert not list(tmp_path.iterdir())

    def test_sweep_rows(self, capsys, tmp_path):
        doc = run_json(
            capsys,
            ["report", "--sweep", "lambda_u=2.5:3.5:0.5", "--out-dir", str(tmp_path),
             "--depth", "6", "--plot-data"],
        )
        rows = doc["result"]["rows"]
        assert [r["lambda_u_max"] for r in rows] == [2.5, 3.0, 3.5]
        for row in rows:
            assert row["bound"] == pytest.approx(
                1.0 + math.log(2) / math.log(row["lambda_u_max"]), abs=1e-9
            )
        assert (tmp_path / "bound_vs_lambda.csv").exists()
        assert (tmp_path / "dimension_vs_lambda.csv").exists()

    @pytest.mark.parametrize("sweep", [
        "2.2:4.0:0",  # a zero step never advanced
        "2.2:4.0:-0.2",
        "2.2:inf:0.2",
        "-inf:4.0:0.2",
        "2.2:4.0:nan",
        "2.2:4.0:1e-300",  # below the rounding of 2.2: a zero step in effect
        "4.0:2.2:0.2",  # no value: this used to write a header-only report.csv
    ])
    def test_a_sweep_range_without_finite_values_exits_2(self, capsys, tmp_path, sweep):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["report", "--sweep", f"lambda_u={sweep}", "--out-dir", str(out_dir)])
        assert code == 2 and out == ""
        assert "invalid configuration" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "model, dimension_argv",
        [("horseshoe:3,0.25", ["--set", "stable", "--depth", "8"]), ("cantor:3,02", ["--set", "repeller"])],
    )
    def test_measured_dimension_is_the_dimension_command_slope(self, capsys, tmp_path, model, dimension_argv):
        # report samples through the dimension command's path, at stable depth 8 instead of 10
        report = run_json(capsys, ["report", "--model", model, "--out-dir", str(tmp_path)])
        dimension = run_json(capsys, ["dimension", "--model", model, *dimension_argv])
        row = report["result"]["rows"][0]
        assert row["measured_set"] == dimension["result"]["sample"]["set"]
        assert row["measured_dimension"] == dimension["result"]["dimension"]["slope"]

    def test_a_sweep_past_the_row_cap_exits_3_before_building_a_row(self, capsys, tmp_path):
        # 1.8e9 values: building them first would exhaust memory
        started = time.perf_counter()
        code, out, err = run(capsys, ["report", "--sweep", "lambda_u=2.2:4.0:1e-9", "--out-dir", str(tmp_path)])
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        assert f"1800000001 rows, above the cap {SWEEP_ROW_CAP}" in err
        assert not (tmp_path / "report.csv").exists() and not (tmp_path / "report.txt").exists()

    def test_a_sweep_at_the_row_cap_keeps_its_values(self):
        values = _parse_sweep(f"lambda_u=1:{SWEEP_ROW_CAP}:1")
        assert values == [float(v) for v in range(1, SWEEP_ROW_CAP + 1)]
        # a stop between two values counts the rows the loop builds
        assert _parse_sweep(f"lambda_u=0:{SWEEP_ROW_CAP - 0.5}:1") == [float(v) for v in range(SWEEP_ROW_CAP)]
        # (409.6 - 0) / 0.1 + 1 = 4097, but the loop's running sum passes 409.6 after 4,096 values
        assert len(_parse_sweep("lambda_u=0:409.6:0.1")) == SWEEP_ROW_CAP
        for stop in (SWEEP_ROW_CAP, SWEEP_ROW_CAP + 0.5):
            with pytest.raises(CapExceededError, match=f"asks for {SWEEP_ROW_CAP + 1} rows"):
                _parse_sweep(f"lambda_u=0:{stop}:1")

    def test_report_csv_reads_back_as_the_json_rows(self, capsys, tmp_path):
        # every sweep label ("horseshoe:2.5,0.25") holds a comma
        doc = run_json(
            capsys,
            ["report", "--sweep", "lambda_u=2.5:3.0:0.5", "--out-dir", str(tmp_path), "--depth", "4"],
        )
        rows = doc["result"]["rows"]
        with open(tmp_path / "report.csv", newline="") as handle:
            header, *table = list(csv.reader(handle))
        assert header == ["label", "lambda_u_max", "pressure", "s", "bound", "classification",
                          "measured_dimension"]
        assert len(table) == len(rows) == 2
        for line, row in zip(table, rows):
            assert len(line) == len(header)
            for text, key in zip(line, header):
                value = row[key]
                assert text == value if isinstance(value, str) else float(text) == value

    def test_report_has_no_check_srb_flag(self, capsys):
        # report always runs the equivalence checks; only bound takes the flag
        assert run(capsys, ["report", "--model", "doubling:2", "--check-srb"])[0] == 2


class TestExitCodes:
    def test_unknown_model_is_config_error(self, capsys):
        code, _, err = run(capsys, ["bound", "--model", "nonsense"])
        assert code == 2
        assert "nonsense" in err

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, ["bound", "--model-file", "/does/not/exist.json"])
        assert code == 2
        assert err

    def test_a_missing_out_directory_names_the_out_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["pressure", "--model", "horseshoe:3,0.25", "--out", "nodir/x.json"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("hypdim: invalid configuration: ") and "'nodir/x.json'" in err
        assert run(capsys, argv) == (code, out, err)  # no random temporary name
        assert list(tmp_path.iterdir()) == []

    def test_cap_exceeded(self, capsys):
        # the depth-18 cylinders are listed: 6.32e7 words
        code, _, err = run(
            capsys, ["dimension", "--model", "catmap", "--set", "invariant", "--depth", "18"]
        )
        assert code == 3
        assert "cap" in err.lower()

    @pytest.mark.parametrize(
        "argv, length",
        [
            (["dimension", "--model", "cantor:3,02", "--set", "repeller", "--depth", "25"], 25),
            (["bound", "--model-file", "THREE", "--kmax", "16"], 16),
        ],
    )
    def test_word_cap_is_checked_before_any_level_is_built(self, capsys, tmp_path, argv, length):
        # 2^25 cylinders and 3^16 expansion-rate words both exceed 2^24; a
        # level-by-level check would build 2^24-word levels before failing.
        # The rate lists words only in more than one dimension, so THREE is 2-D and diagonal, its slopes unequal
        three = tmp_path / "three.json"
        slopes, lo = [3.3, 4.0, 4.6], [0.0, 0.45, 1.0 - 1.0 / 4.6]
        three.write_text(json.dumps({
            "space": {"dim": 2, "geometry": "cube"},
            "kind": "diffeo",
            "branches": [
                {"symbol": i, "domain": {"lo": [a, 0.0], "hi": [a + 1.0 / s, 1.0]},
                 "linear": [[s, 0.0], [0.0, 0.25]], "offset": [-s * a, 0.375 * i]}
                for i, (a, s) in enumerate(zip(lo, slopes))
            ],
            "transition": [[1, 1, 1]] * 3,
            "unstable_dim": 1,
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, [str(three) if a == "THREE" else a for a in argv])
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert out == ""
        assert f"length {length}" in err

    def test_vanished_tracking_volume_is_config_error(self, tmp_path, capsys):
        # the swapped square does not separate, so it takes the grid: 64 cells per axis lose the
        # whole neighborhood by k = 10
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(_swapped_square_doc()))
        code, out, err = run(
            capsys,
            ["pressure", "--model-file", str(path), "--method", "volume", "--eps", "0.2",
             "--kmax", "10", "--grid", "64"],
        )
        assert code == 2
        assert out == ""
        assert err == ("hypdim: invalid configuration: the tracking volume vanished on the 64 grid within 10 steps; "
                       "raise --grid\n")

    @pytest.mark.parametrize("argv, exact", [
        (["horseshoe:4,0.25", "--kmax", "8", "--grid", "2048"], math.log(1 / 2)),
        (["horseshoe:8,0.25", "--kmax", "10", "--grid", "512"], math.log(1 / 4)),
        (["catmap", "--grid", str(1 << 14)], 0.0),
        (["cantor:3,02", "--grid", str(1 << 27)], math.log(2 / 3)),
    ], ids=["horseshoe-4", "horseshoe-8", "catmap", "cantor"])
    def test_a_separable_model_reads_exact_volumes(self, capsys, argv, exact):
        # on the grid the first aliased to -0.2079, the second vanished (exit 2), and the last two
        # were refused as grids too large; no grid is used now
        doc = run_json(capsys, ["pressure", "--model", argv[0], "--method", "volume", *argv[1:]])
        estimate = doc["result"]["pressure"]
        assert estimate["value"] == pytest.approx(exact, abs=1e-9)
        assert estimate["extras"]["grid_resolution"] is None

    def test_factored_volume_grid_is_capped_by_the_cells_it_steps(self, capsys):
        # the horseshoe separates, so a 16384 grid steps no cell at all: its volumes are exact
        doc = run_json(
            capsys,
            ["pressure", "--model", "horseshoe:3,0.25", "--method", "volume",
             "--kmax", "8", "--grid", "16384"],
        )
        assert doc["result"]["pressure"]["value"] == pytest.approx(math.log(2 / 3), abs=1e-9)

    @pytest.mark.parametrize("geometry", ["cube", "torus"])
    def test_volume_grid_cap(self, capsys, tmp_path, geometry):
        # 16384^2 cells of a model that does not separate
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(_swapped_square_doc(geometry)))
        code, out, err = run(
            capsys, ["pressure", "--model-file", str(path), "--method", "volume", "--grid", str(1 << 14)]
        )
        assert code == 2
        assert out == ""
        assert "grid too large" in err

    def test_a_tracking_level_past_the_interval_cap_exits_3(self, capsys, tmp_path):
        # 257 branches pull 66049 intervals back into 257^3 > 2^24 images at the fourth level
        path = tmp_path / "full257.json"
        path.write_text(json.dumps(_repeller_doc([300.0] * 257, [[1] * 257] * 257)))
        code, out, err = run(capsys, ["pressure", "--model-file", str(path), "--method", "volume"])
        assert (code, out) == (3, "")
        assert err == ("hypdim: cap exceeded: tracking level 4 along axis 0 would form more than 16777216 "
                       "interval images\n")

    def test_stable_grid_is_capped_before_sampling(self, capsys):
        # 2^27 cells on the expanding axis alone: refused before any array is drawn
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable", "--grid", "134217728"],
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "134217728" in err and "too large" in err

    def test_a_malformed_window_is_refused_before_the_volume_curve(self, capsys, monkeypatch):
        # the refusal came after the whole curve: 12.0 s on the L torus at --grid 1024
        monkeypatch.setattr(cli, "volume_curve", lambda *args, **kwargs: pytest.fail("the curve was computed"))
        code, out, err = run(capsys, ["pressure", "--model", "horseshoe:3,0.25", "--method", "volume",
                                      "--window", "1:x"])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: invalid literal for int() with base 10: 'x'\n"

    def test_box_scales_too_fine_for_64_bit_keys_exit_2(self, capsys):
        # the keys wrapped: counts [1, 1, 1, 1], slope 0.0 and exit 0
        code, out, err = run(capsys, ["dimension", "--model", "cantor:3,02", "--set", "repeller", "--depth", "5",
                                      "--scales", "1e-300,1e-301,1e-302,1e-303"])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: scale 1e-303 is too fine for 64-bit cell keys at width 1\n"

    @pytest.mark.parametrize("argv", [
        ["bound", "--model", "horseshoe:3,0.25"],
        ["report", "--model", "horseshoe:3,0.25"],
        ["pressure", "--model", "cantor:3,0", "--method", "partition"],
    ], ids=["bound", "report", "partition"])
    def test_every_kmax_past_the_step_limit_exits_2(self, capsys, tmp_path, argv):
        # numpy's "Unable to allocate 7.28 TiB" ended each in a traceback (exit 1)
        out_dir = ["--out-dir", str(tmp_path)] if argv[0] == "report" else []
        code, out, err = run(capsys, [*argv, "--kmax", "1000000000000", *out_dir])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: k_max 1000000000000 exceeds the limit of 32767 steps\n"
        assert not list(tmp_path.iterdir())

    def test_a_volume_kmax_past_the_step_limit_exits_2(self, capsys):
        # death steps are int16: 40000 was an OverflowError with a traceback
        code, out, err = run(capsys, ["pressure", "--model", "horseshoe:3,0.25", "--method", "volume",
                                      "--kmax", "40000"])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: k_max 40000 exceeds the limit of 32767 steps\n"

    @pytest.mark.parametrize("command", [["dimension", "--set", "stable"], ["report"]])
    def test_a_stable_depth_whose_resolution_overflows_exits_2(self, capsys, command):
        # 3.0 ** 700 overflowed a float with a traceback; the resolution takes its cap, as at depth 100,
        # and at either depth no sample survives: the refusal names the depth and the resolution
        for depth in ("700", "100"):
            code, out, err = run(capsys, [*command, "--model", "horseshoe:3,0.25", "--depth", depth])
            assert (code, out) == (2, "")
            assert err == (f"hypdim: invalid configuration: no stable sample tracks {depth} steps at 65536 samples"
                           " per axis; lower --depth or raise --grid\n")

    def test_a_stable_depth_past_the_step_limit_exits_2(self, capsys):
        code, out, err = run(capsys, ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable",
                                      "--depth", "40000"])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: depth 40000 exceeds the limit of 32767 steps\n"

    def test_non_finite_numbers_never_reach_the_document(self, capsys):
        args = argparse.Namespace(seed=0, threads=1)
        with pytest.raises(ValueError):
            emit_document(args, make_config(args, "pressure"), {"value": -math.inf})
        assert capsys.readouterr().out == ""

    def test_bad_arguments(self, capsys):
        assert run(capsys, ["pressure", "--method", "bogus", "--model", "doubling:2"])[0] == 2

    def test_failed_out_leaves_no_partial_file(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "out.json"
        code, _, err = run(capsys, ["bound", "--model", "doubling:2", "--out", str(target)])
        assert code == 2
        assert not target.exists()
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_a_failed_write_removes_its_temporary_file(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            cli.atomic_write(str(target), "a lone surrogate \udc80 cannot be encoded")
        assert list(tmp_path.iterdir()) == []


class TestModelFiles:
    def test_model_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "hs.json"
        path.write_text(build_linear_horseshoe(3.0, 0.25).to_json())
        doc = run_json(capsys, ["bound", "--model-file", str(path)])
        assert doc["result"]["bound"] == pytest.approx(1.0 + math.log(2) / math.log(3), abs=1e-9)

    def test_malformed_json_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, ["bound", "--model-file", str(path)])[0] == 2

    def test_custom_model_partition_pressure(self, capsys, tmp_path):
        doc = {
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
        path = tmp_path / "two_slopes.json"
        path.write_text(json.dumps(doc))
        out = run_json(
            capsys,
            ["pressure", "--model-file", str(path), "--method", "partition", "--kmax", "12"],
        )
        assert out["result"]["pressure"]["value"] == pytest.approx(math.log(0.75), abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [["dimension", "--set", "repeller", "--depth", "3"], ["pressure", "--method", "volume"], ["report"]],
    )
    def test_massless_cylinders_are_named(self, capsys, tmp_path, argv):
        # both branches map onto [0.4, 0.6], which meets neither domain
        doc = {
            "space": {"dim": 1, "geometry": "cube"},
            "kind": "expanding",
            "branches": [
                {"symbol": 0, "domain": {"lo": [0.0], "hi": [0.1]},
                 "linear": [[2.0]], "offset": [0.4]},
                {"symbol": 1, "domain": {"lo": [0.9], "hi": [1.0]},
                 "linear": [[2.0]], "offset": [-1.4]},
            ],
            "transition": [[1, 1], [1, 1]],
            "unstable_dim": 1,
        }
        path = tmp_path / "massless.json"
        path.write_text(json.dumps(doc))
        extra = ["--out-dir", str(tmp_path / "out")] if argv[0] == "report" else []
        code, out, err = run(capsys, [*argv, "--model-file", str(path), *extra])
        assert code == 2
        assert out == ""
        assert "depth-2" in err and "geometric mass" in err

    @pytest.mark.parametrize(
        "argv",
        [["dimension", "--set", "repeller", "--depth", "4"], ["pressure", "--method", "volume"],
         ["bound", "--check-srb"]],
    )
    def test_a_branch_without_a_finite_inverse_is_refused(self, capsys, tmp_path, argv):
        # 1 / 1e-309 overflows: every cylinder would pull back through an infinite inverse
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "space": {"dim": 2, "geometry": "cube"},
            "kind": "expanding",
            "branches": [
                {"symbol": 0, "domain": {"lo": [0.0, 0.0], "hi": [0.4, 1.0]},
                 "linear": [[1e-309, 0.0], [0.0, 2.0]], "offset": [0.0, 0.0]},
                {"symbol": 1, "domain": {"lo": [0.6, 0.0], "hi": [1.0, 1.0]},
                 "linear": [[2.5, 0.0], [0.0, 2.0]], "offset": [-1.5, 0.0]},
            ],
            "transition": [[1, 1], [1, 1]],
            "unstable_dim": 2,
        }))
        code, out, err = run(capsys, [*argv, "--model-file", str(path)])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: branch 0 has no finite inverse: [[1e-309, 0.0], [0.0, 2.0]]\n"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_nan_and_infinity_tokens_are_refused(self, capsys, tmp_path, token):
        path = tmp_path / "token.json"
        doc = json.dumps(_repeller_doc([2.5, 2.5], [[1, 1], [1, 1]]))
        path.write_text(doc.replace('"linear": [[2.5]]', f'"linear": [[{token}]]', 1))
        code, out, err = run(capsys, ["pressure", "--model-file", str(path)])
        assert (code, out) == (2, "")
        assert err == f"hypdim: invalid configuration: model files hold finite numbers only, not {token}\n"

    @pytest.mark.parametrize("field, value", [("offset", "1e999"), ("lo", "-1e999"), ("linear", "1e999")])
    @pytest.mark.parametrize(
        "argv",
        [["pressure", "--method", "partition"], ["bound", "--check-srb"],
         ["dimension", "--set", "repeller", "--depth", "6"]],
    )
    def test_a_number_that_overflows_is_refused(self, capsys, tmp_path, field, value, argv):
        # json parses 1e999 as inf, which the NaN and Infinity refusal never sees
        doc = _repeller_doc([3.0, 4.0, 5.0], [[1] * 3] * 3)
        branch = doc["branches"][0]
        if field == "linear":
            branch["linear"] = [["OVERFLOW"]]
        else:
            (branch["domain"] if field == "lo" else branch)[field] = ["OVERFLOW"]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc).replace('"OVERFLOW"', value))
        code, out, err = run(capsys, [*argv, "--model-file", str(path)])
        assert (code, out) == (2, "")
        shown = "[[inf]]" if field == "linear" else "[-inf]" if value.startswith("-") else "[inf]"
        assert err == f"hypdim: invalid configuration: branch 0 has a non-finite {field}: {shown}\n"

    @pytest.mark.filterwarnings("error")  # no overflow warning either: one line on stderr
    @pytest.mark.parametrize("slope, argv, message", [
        (1e300, ["bound"], "a_k/k is inf at k = 2, out of the float range"),
        (1e300, ["bound", "--check-srb"], "a_k/k is inf at k = 2, out of the float range"),
        (1e300, ["report"], "a_k/k is inf at k = 2, out of the float range"),
        (1e-300, ["pressure", "--method", "partition"], "partition sum Z_2 = inf leaves the positive float range"),
    ], ids=["bound", "bound-check-srb", "report", "partition"])
    def test_a_slope_product_past_the_float_range_is_refused(self, capsys, tmp_path, slope, argv, message):
        # inf reached the document, which refused it with a traceback (exit 1)
        doc = _repeller_doc([3.0, 2.5], [[1, 1], [1, 1]])
        doc["branches"][0]["linear"] = [[slope]]
        path = tmp_path / "slopes.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [*argv, "--model-file", str(path)])
        assert (code, out, err) == (2, "", f"hypdim: invalid configuration: {message}\n")

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning came before the refusal
    @pytest.mark.parametrize("argv", [["bound"], ["bound", "--check-srb"]], ids=["bound", "check-srb"])
    def test_a_perron_vector_past_the_float_range_is_refused_in_one_line(self, capsys, tmp_path, argv):
        # e^phi_u = 1e200: the vector's norm overflowed to inf, so it read zeros and the Gibbs chain NaN
        doc = _repeller_doc([4.0, 2.0], [[1, 1], [1, 1]])
        for branch, (lo, hi) in zip(doc["branches"], [(0.0, 0.25), (0.5, 1.0)]):
            branch.update(domain={"lo": [lo], "hi": [hi]}, linear=[[1e-200]], offset=[0.0])
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [*argv, "--model-file", str(path)])
        assert (code, out, err) == (2, "", "hypdim: invalid configuration: expansion rate must be positive\n")

    @pytest.mark.parametrize(
        "argv",
        [["dimension", "--set", "repeller", "--depth", "14"],
         ["report", "--depth", "14"]],
    )
    def test_a_cap_refusal_shows_a_count_past_1e18(self, capsys, tmp_path, argv):
        # 257^14 = 5.48e33 words: finite, though the refusal read inf while the count saturated at 1e18
        path = tmp_path / "full257.json"
        path.write_text(json.dumps(_repeller_doc([300.0] * 257, [[1] * 257] * 257)))
        out_dir = ["--out-dir", str(tmp_path / "out")] if argv[0] == "report" else []
        code, out, err = run(capsys, [*argv, "--model-file", str(path), *out_dir])
        assert (code, out) == (3, "")
        assert err == "hypdim: cap exceeded: 5.48e+33 admissible words of length 14 exceed the cap 16777216\n"
        assert not (tmp_path / "out").exists()

    def test_partition_sums_stop_at_the_first_subnormal_sum(self, capsys, tmp_path):
        # Z_k falls by about 0.82 a step; the sums ran 18 s in subnormal arithmetic to read P = 0.0
        path = tmp_path / "full257.json"
        path.write_text(json.dumps(_repeller_doc([300.0 + 0.1 * i for i in range(257)], [[1] * 257] * 257)))
        start = time.perf_counter()
        code, out, err = run(capsys, ["pressure", "--model-file", str(path), "--method", "partition",
                                      "--kmax", "32767"])
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        shown = re.fullmatch(r"hypdim: invalid configuration: partition sum Z_\d+ = (\S+) "
                             r"leaves the positive float range\n", err)
        assert 0.0 < float(shown[1]) < np.finfo(float).tiny

    def test_the_expansion_rate_stops_at_the_first_product_past_the_float_range(self, capsys, tmp_path):
        # all 32767 max-times steps ran first: 4.9 s for the whole process
        path = tmp_path / "full257.json"
        path.write_text(json.dumps(_repeller_doc([300.0 + 0.1 * i for i in range(257)], [[1] * 257] * 257)))
        start = time.perf_counter()
        code, out, err = run(capsys, ["bound", "--model-file", str(path), "--kmax", "32767"])
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: a_k/k is inf at k = 123, out of the float range\n"

    @pytest.mark.parametrize("argv", [
        ["dimension", "--model-file", "POLY", "--set", "repeller"],
        ["report", "--model", "cantor:3,02"],
    ], ids=["repeller", "report"])
    def test_a_cylinder_depth_past_the_step_limit_exits_2(self, capsys, tmp_path, argv):
        # the word cap counted every step first: 6.9 s at depth 16000 on the polynomial shift, and
        # exit 3 on the Cantor set
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(_repeller_doc([3.0, 4.0], [[1, 1], [0, 1]])))
        out_dir = ["--out-dir", str(tmp_path / "out")] if argv[0] == "report" else []
        start = time.perf_counter()
        code, out, err = run(capsys, [str(path) if a == "POLY" else a for a in argv] + ["--depth", "40000", *out_dir])
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: depth 40000 exceeds the limit of 32767 steps\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alias", ["cat", "golden"])
    def test_the_short_model_names_are_gone(self, capsys, alias):
        code, out, err = run(capsys, ["bound", "--model", alias])
        assert (code, out, err) == (2, "", f"hypdim: invalid configuration: unknown model '{alias}'\n")

    @pytest.mark.parametrize(
        "argv",
        [["bound"], ["dimension", "--set", "repeller"], ["pressure", "--method", "volume"], ["report"]],
    )
    def test_branches_below_the_space_dimension_are_refused(self, capsys, tmp_path, argv):
        # 1-D branches in a 2-D space: the cylinder levels would read axis 1 from uninitialized memory
        doc = {**_repeller_doc([4.0, 4.0], [[1, 1], [1, 1]]), "space": {"dim": 2, "geometry": "cube"}}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [*argv, "--model-file", str(path)])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: branch arrays have inconsistent shapes\n"

    @pytest.mark.parametrize("command", ["bound", "pressure"])
    def test_a_model_file_without_branches_is_refused(self, capsys, tmp_path, command):
        # numpy's SVD refused the empty stack with "1-dimensional array given"
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({**_repeller_doc([4.0], [[1]]), "branches": [], "transition": []}))
        code, out, err = run(capsys, [command, "--model-file", str(path)])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: the model has no branch: its branches list is empty\n"

    @pytest.mark.parametrize(
        "key", ["space", "kind", "unstable_dim", "transition", "branches", "symbol", "domain", "linear", "offset"]
    )
    def test_a_missing_key_is_named(self, capsys, tmp_path, key):
        # the refusal read only the key's repr, as in "hypdim: invalid configuration: 'domain'"
        doc = _repeller_doc([4.0, 4.0], [[1, 1], [1, 1]])
        top = key in doc
        del (doc if top else doc["branches"][0])[key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["bound", "--model-file", str(path)])
        assert (code, out) == (2, "")
        where = "the model file" if top else "branch 0 of the model file"
        assert err == f"hypdim: invalid configuration: {where} has no {key!r}\n"

    @pytest.mark.parametrize(
        "change",
        [{"branches": 5}, {"transition": "x"}, {"branches": [5]}, {"space": []}, "a list"],
        ids=["branches-5", "transition-x", "a-branch-5", "space-list", "top-level-list"],
    )
    def test_a_malformed_model_file_is_refused_in_one_line(self, capsys, tmp_path, change):
        # each of these ended in a TypeError traceback (exit 1)
        doc = _repeller_doc([4.0, 4.0], [[1, 1], [1, 1]])
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps([doc] if change == "a list" else {**doc, **change}))
        code, out, err = run(capsys, ["pressure", "--model-file", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("hypdim: invalid configuration: ") and err.count("\n") == 1
        if change == "a list":
            assert err == "hypdim: invalid configuration: the model file has no 'space'\n"

    def test_stable_set_rejected_for_expanding_models(self, capsys):
        code, _, err = run(capsys, ["dimension", "--model", "doubling:2", "--set", "stable"])
        assert code == 2
        assert "diffeo" in err


_HS = build_linear_horseshoe(3.0, 0.25)
_MASSLESS = ModelSystem.from_json_dict({
    **_repeller_doc([2.0, 2.0], [[1, 1], [1, 1]]),
    "branches": [
        {"symbol": 0, "domain": {"lo": [0.0], "hi": [0.1]}, "linear": [[2.0]], "offset": [0.4]},
        {"symbol": 1, "domain": {"lo": [0.9], "hi": [1.0]}, "linear": [[2.0]], "offset": [-1.4]},
    ],
})


def _read(*argv):
    """The values a command line runs on, as `main` reads them."""
    return cli.read_args(cli.build_parser().parse_args(argv))


def _walk_past(depth):
    walk = CylinderWalk(_HS)
    walk.rects(depth + 1)
    return walk.rects(depth)


class TestErrorBoundary:
    """`main` maps a `HypdimError` or an `OSError` to an exit code; anything else is a fault and leaves it."""

    @pytest.mark.parametrize("fault", [ValueError("tracking volumes must be non-increasing in k"), KeyError("k")])
    def test_a_fault_leaves_main(self, capsys, monkeypatch, fault):
        # both read "invalid configuration" (exit 2) while main caught every ValueError and KeyError
        def raiser(*args, **kwargs):
            raise fault

        monkeypatch.setattr(cli, "volume_curve", raiser)
        with pytest.raises(type(fault)) as raised:
            main(["pressure", "--model", "horseshoe:3,0.25", "--method", "volume"])
        assert raised.value is fault
        assert capsys.readouterr() == ("", "")

    def test_a_non_finite_document_is_a_fault(self, capsys, monkeypatch):
        report = types.SimpleNamespace(to_json_dict=lambda: {"bound": math.nan})
        monkeypatch.setattr(cli, "bound_report", lambda *args, **kwargs: report)
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["bound", "--model", "horseshoe:3,0.25"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "start",
        [["-c", "import hypdim.cli; hypdim.cli.entry()"],
         ["-c", "import runpy; runpy.run_module('hypdim', run_name='__main__')"]],
        ids=["hypdim", "python-m-hypdim"],
    )
    def test_the_console_entries_exit_1_with_the_traceback(self, start):
        inject = (
            "import sys, hypdim.cli\n"
            "def fault(*args, **kwargs):\n"
            "    raise ValueError('injected fault')\n"
            "hypdim.cli.volume_curve = fault\n"
            "sys.argv = ['hypdim', 'pressure', '--model', 'horseshoe:3,0.25', '--method', 'volume']\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", inject + start[1]], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("Traceback") and done.stderr.endswith("ValueError: injected fault\n")

    def test_python_m_hypdim_refuses_a_malformed_model_file_without_a_traceback(self, tmp_path):
        path = tmp_path / "five.json"
        path.write_text(json.dumps({**_repeller_doc([4.0, 4.0], [[1, 1], [1, 1]]), "branches": 5}))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "hypdim", "bound", "--model-file", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "hypdim: invalid configuration: 'int' object is not iterable\n"

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: pressure_from_partition_sums(_HS, potential(_HS, "phi_u"), 5), DegenerateCurveError),
            (lambda: box_counts(np.array([[0.5]]), [2.0]), DegenerateScalesError),
            (lambda: dimension_bound(1, 0.5, 1.0), ParameterOutOfRangeError),
            (lambda: CylinderWalk(_MASSLESS).rects(2), ParameterOutOfRangeError),
            (lambda: volume_curve(_HS, 0.1, 40000, 64), ConfigError),
            (lambda: pressure_from_volume_growth(volume_curve(_HS, 0.1, 6, 256), (1, 100)), DegenerateCurveError),
            (lambda: _read("dimension", "--model", "cantor:3,02", "--scales", "0^-2..0^-9"), ConfigError),
            (lambda: _read("pressure", "--model", "horseshoe:3,0.25", "--method", "volume", "--window", "1:x"),
             ConfigError),
            (lambda: _read("report", "--sweep", "lambda_u=1:2"), ConfigError),
        ],
        ids=["partition-kmax", "scale-range", "positive-pressure", "massless", "step-cap", "window-top-half",
             "scale-power", "window-int", "sweep-unpacking"],
    )
    def test_a_refusal_a_command_line_reaches_is_a_hypdim_error(self, call, error):
        # a ValueError subclass still: library callers that catch ValueError see no change
        with pytest.raises(error) as raised:
            call()
        assert isinstance(raised.value, ValueError)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: VolumeCurve(0.1, np.arange(1, 3), np.array([0.5, 1.0]), np.zeros(2), 64, 1),
            lambda: box_dimension([1.0, 0.1, 0.01, 0.001], [1, 5, 3, 10]),
            lambda: _walk_past(2),
            lambda: partition_sums_through(_HS, Potential([0.0]), 3),
            lambda: emit_document(argparse.Namespace(), {}, {"value": math.inf}),
        ],
        ids=["volumes-that-grow", "counts-that-fall", "walk-past-its-depth", "potential-length", "non-finite"],
    )
    def test_a_program_invariant_stays_a_plain_value_error(self, capsys, call):
        with pytest.raises(ValueError) as raised:
            call()
        assert not isinstance(raised.value, HypdimError)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, capsys):
        argv = ["pressure", "--model", "cantor:3,02", "--method", "volume",
                "--eps", "0.05", "--kmax", "8", "--grid", "2048"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_thread_count_does_not_change_output(self, capsys):
        base = ["pressure", "--model", "cantor:3,02", "--method", "volume",
                "--eps", "0.05", "--kmax", "8", "--grid", "2048"]
        _, one, _ = run(capsys, base + ["--threads", "1"])
        _, four, _ = run(capsys, base + ["--threads", "4"])
        one_doc, four_doc = json.loads(one), json.loads(four)
        assert one_doc["result"] == four_doc["result"]

    def test_provenance_fields_present(self, capsys):
        # the stable set reads --seed; the invariant set, which this ran on before, reads none
        doc = run_json(capsys, ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable", "--seed", "42"])
        assert doc["version"]
        assert doc["config"]["seed"] == 42
        assert doc["config"]["model"] == "horseshoe:3,0.25"
        assert doc["caps"]["word_cap"] == 1 << 24
        assert "classification_exact" in doc["tolerances"]


JSON_SCALARS = (
    st.text(max_size=8) | st.integers() | st.booleans() | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4).map(np.array)
    | st.lists(st.integers(-9, 9), max_size=4).map(lambda v: np.array(v, dtype=np.int64).reshape(-1, 1))
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


def stdlib_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=cli._json_default)


def written(doc) -> str:
    out = []
    cli._write_json(doc, out, "\n")
    return "".join(out)


class TestFixedCost:
    @pytest.mark.parametrize(
        "argv",
        [["dimension", "--model", "cantor:3,02", "--set", "repeller", "--depth", "14"],
         ["pressure", "--model", "cantor:3,02", "--method", "partition", "--kmax", "22"],
         ["bound", "--model", "goldenmean", "--check-srb"],
         ["dimension", "--model", "goldenmean", "--set", "repeller"],
         ["dimension", "--model-file", "GOLDEN", "--set", "repeller"],
         ["pressure", "--model-file", "GOLDEN", "--method", "partition", "--kmax", "22"],
         ["bound", "--model-file", "GOLDEN", "--check-srb"],
         ["dimension", "--model-file", "THREE", "--set", "repeller", "--depth", "9"],
         ["pressure", "--model-file", "THREE", "--method", "partition", "--kmax", "13"],
         ["bound", "--model-file", "THREE", "--check-srb"],
         ["pressure", "--model", "horseshoe:2.7,0.25", "--method", "volume", "--kmax", "8", "--grid", "2048"],
         ["report", "--sweep", "lambda_u=2.2:4.0:0.2", "--seed", "3"]],
    )
    def test_benchmark_shaped_calls_check_word_caps_without_counting(self, capsys, monkeypatch, tmp_path, argv):
        # every cap check these calls make passes on the bound m * r^(k - 1) alone
        files = {
            "GOLDEN": _repeller_doc([2.7, 2.2], [[1, 1], [1, 0]]),
            "THREE": _repeller_doc([3.3, 4.0, 4.6], [[1, 1, 1]] * 3),
        }
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        counted = []
        monkeypatch.setattr(symbolic, "count_admissible_words", lambda *args: counted.append(args))
        extra = ["--out-dir", str(tmp_path)] if argv[0] == "report" else []
        run_json(capsys, [str(tmp_path / a) if a in files else a for a in argv] + extra)
        assert counted == []

    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_DOCS)
    def test_the_json_writer_gives_the_stdlib_bytes(self, doc):
        assert written(doc) == stdlib_dumps(doc)

    @settings(max_examples=100, deadline=None)
    @given(doc=JSON_DOCS, bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                                               np.float32(math.inf), np.array([1.0, -math.inf])]))
    def test_a_non_finite_value_raises_the_stdlib_error(self, doc, bad):
        # the document goes to json.dumps, whose error names the value
        args = argparse.Namespace(seed=0, threads=1)
        for container in ([doc, bad], {"a": doc, "b": [bad]}):
            with pytest.raises(ValueError) as expected:
                stdlib_dumps(container)
            with pytest.raises(ValueError) as got:
                emit_document(args, make_config(args, "pressure"), container)
            assert str(got.value) == str(expected.value)

    def test_keys_that_are_not_text_go_to_the_stdlib(self, capsys):
        with pytest.raises(TypeError):
            written({1: "a"})
        args = argparse.Namespace(seed=0, threads=1)
        emit_document(args, make_config(args, "pressure"), {1: "a", 2: [1.5]})
        emit_document(args, make_config(args, "pressure"), {"1": "a", "2": [1.5]})
        first, second = capsys.readouterr().out.split("}\n{")
        assert first + "}\n" == "{" + second
        with pytest.raises(TypeError, match="not JSON serializable"):
            written({"a": object()})


SHARED = {"--model", "--model-file", "--target-dim", "--out"}
OFFERED = {
    "pressure": SHARED | {"--potential", "--method", "--kmax", "--eps", "--grid",
                          "--threads", "--window", "--classify", "--csv"},
    "bound": SHARED | {"--kmax", "--check-srb"},
    "dimension": SHARED | {"--set", "--eps", "--grid", "--depth", "--scales", "--seed", "--csv"},
    "report": SHARED | {"--sweep", "--kmax", "--eps", "--grid", "--depth", "--scales", "--seed",
                        "--plot-data", "--out-dir"},
}
BASE = {
    "pressure": ["pressure", "--model", "horseshoe:3,0.25"],
    "bound": ["bound", "--model", "horseshoe:3,0.25"],
    "dimension": ["dimension", "--model", "cantor:3,02"],
    "report": ["report", "--model", "horseshoe:3,0.25", "--depth", "4"],
}
UNSET_ECHO = dict.fromkeys(
    ["model_file", "potential", "method", "eps", "kmax", "grid", "depth", "scales",
     "set_name", "window", "sweep", "target_dim"]
)


class TestFlags:
    def test_each_subcommand_offers_the_flags_it_reads(self):
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        offered = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in subparsers.choices.items()
        }
        assert offered == OFFERED
        assert sum(len(flags) for flags in offered.values()) == 43

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("pressure", "--seed", "3"),
            ("pressure", "--depth", "6"),
            ("pressure", "--scales", "2^-2..2^-9"),
            ("bound", "--seed", "3"),
            ("bound", "--threads", "2"),
            ("bound", "--csv", "CSV"),
            ("bound", "--eps", "0.1"),
            ("bound", "--grid", "7"),
            ("bound", "--depth", "6"),
            ("bound", "--scales", "2^-2..2^-9"),
            ("dimension", "--threads", "2"),
            ("dimension", "--kmax", "8"),
            ("report", "--threads", "2"),
            ("report", "--csv", "CSV"),
            # --delta is gone: the partition sums never depended on it
            ("pressure:spectral", "--delta", "0.1"),
            ("pressure:volume", "--delta", "0.1"),
            ("pressure:partition", "--delta", "0.1"),
            ("pressure:partition", "--delta", "0"),
            ("pressure:partition", "--delta", "-1"),
        ],
    )
    def test_a_flag_the_subcommand_ignores_exits_2(self, capsys, tmp_path, command, flag, value):
        csv_path = tmp_path / "x.csv"
        name, _, method = command.partition(":")  # pressure:METHOD adds --method METHOD
        argv = [*BASE[name], *(["--method", method] if method else []), flag, str(csv_path) if value == "CSV" else value]
        code, out, err = run(capsys, argv + (["--out-dir", str(tmp_path)] if name == "report" else []))
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err and flag in err
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["pressure", "--model", "horseshoe:3,0.25", "--method", "volume", "--grid", "0"], "--grid"),
            (["pressure", "--model", "horseshoe:3,0.25", "--method", "volume", "--grid", "-8"], "--grid"),
            (["dimension", "--model", "cantor:3,02", "--grid", "2.5"], "--grid"),
            (["pressure", "--model", "horseshoe:3,0.25", "--method", "partition", "--kmax", "0"], "--kmax"),
            (["bound", "--model", "horseshoe:3,0.25", "--kmax", "-1"], "--kmax"),
            (["dimension", "--model", "cantor:3,02", "--depth", "0"], "--depth"),
            (["pressure", "--model", "cantor:3,02", "--method", "volume", "--threads", "0"], "--threads"),
            (["pressure", "--model", "cantor:3,02", "--method", "volume", "--eps", "0"], "--eps"),
            (["dimension", "--model", "horseshoe:3,0.25", "--set", "stable", "--eps", "-0.1"], "--eps"),
            (["dimension", "--model", "horseshoe:3,0.25", "--set", "stable", "--eps", "nan"], "--eps"),
        ],
    )
    def test_bad_counts_and_epsilons_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize(
        "method, flag, value",
        [
            *[(method, flag, value) for method in ("spectral", "partition")
              for flag, value in [("--eps", "0.1"), ("--grid", "64"), ("--threads", "1"),
                                  ("--window", "1:3")]],
            ("spectral", "--kmax", "8"),
            ("spectral", "--csv", "CSV"),
            ("volume", "--potential", "phi_u"),
        ],
    )
    def test_a_flag_the_method_never_reads_exits_2(self, capsys, tmp_path, method, flag, value):
        csv_path = tmp_path / "x.csv"
        argv = [*BASE["pressure"], "--method", method, flag, str(csv_path) if value == "CSV" else value]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"--method {method} does not read {flag}" in err
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["report", "--sweep", "lambda_u=3:3:1", "--model", "cantor:3,02"], "--sweep does not read --model"),
            (["report", "--sweep", "lambda_u=3:3:1", "--model-file", "FILE"], "--sweep does not read --model-file"),
            (["dimension", "--model", "cantor:3,02", "--set", "repeller", "--eps", "0.1"],
             "--set repeller does not read --eps"),
            (["dimension", "--model", "cantor:3,02", "--set", "repeller", "--seed", "5"],
             "--set repeller does not read --seed"),
        ],
        ids=["sweep-model", "sweep-model-file", "repeller-eps", "repeller-seed"],
    )
    def test_a_flag_the_path_never_reads_exits_2(self, capsys, tmp_path, argv, message):
        # each exited 0 and echoed the flag that no code read
        model_file = tmp_path / "model.json"
        model_file.write_text(build_linear_horseshoe(3.0, 0.25).to_json())
        extra = ["--out-dir", str(tmp_path / "out")] if argv[0] == "report" else ["--csv", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, [str(model_file) if a == "FILE" else a for a in argv] + extra)
        assert (code, out, err) == (2, "", f"hypdim: invalid configuration: {message}\n")
        assert list(tmp_path.iterdir()) == [model_file]

    @pytest.mark.parametrize(
        "argv",
        [["dimension", "--model", "cantor:3,02", "--set", "repeller", "--grid", "64"],
         ["report", "--model", "cantor:3,02", "--eps", "0.1", "--seed", "5"]],
        ids=["repeller-grid", "expanding-report-eps-seed"],
    )
    def test_a_flag_whose_use_depends_on_the_model_is_accepted(self, capsys, tmp_path, argv):
        # a repeller whose cylinders span the space samples the --grid; a diffeo's report row reads --eps and --seed
        extra = ["--out-dir", str(tmp_path)] if argv[0] == "report" else []
        assert run_json(capsys, argv + extra)["config"]["command"] == argv[0]

    def test_each_method_accepts_the_flags_it_reads(self, capsys, tmp_path):
        for method in ("spectral", "partition", "volume"):
            values = {"--potential": "phi_u", "--kmax": "6", "--eps": "0.1",
                      "--grid": "64", "--threads": "2", "--window": "1:6",
                      "--csv": str(tmp_path / f"{method}.csv")}
            flags = set(values) - set(cli._UNREAD[f"--method {method}"].split())
            argv = [*BASE["pressure"], "--method", method]
            for flag in sorted(flags):
                argv += [flag, values[flag]]
            config = run_json(capsys, argv)["config"]
            for flag in flags - {"--csv"}:
                assert str(config[flag[2:]]) == values[flag]
            assert ("--csv" in flags) == (tmp_path / f"{method}.csv").exists()

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (["pressure", "--model", "horseshoe:3,0.25", "--method", "partition", "--kmax", "12"],
             {"method": "partition", "kmax": 12}),
            (["bound", "--model", "horseshoe:3,0.25", "--kmax", "6"], {"kmax": 6}),
            (["dimension", "--model", "horseshoe:3,0.25", "--set", "stable", "--scales", "3^-2..3^-9", "--seed", "5"],
             {"scales": "3^-2..3^-9", "seed": 5, "set_name": "stable"}),
            (["report", "--model", "horseshoe:3,0.25", "--depth", "4"], {"depth": 4}),
        ],
    )
    def test_config_echo(self, capsys, tmp_path, argv, echo):
        # flags a subcommand does not offer echo their defaults: seed 0, threads 1
        extra = ["--out-dir", str(tmp_path)] if argv[0] == "report" else []
        doc = run_json(capsys, argv + extra)
        expected = {**UNSET_ECHO, "command": argv[0], "model": argv[2], "seed": 0, "threads": 1, **echo}
        assert doc["config"] == expected

    @pytest.mark.parametrize(
        "argv",
        [["pressure", "--method", "spectral"], ["pressure", "--method", "partition", "--classify"],
         ["pressure", "--method", "volume", "--kmax", "6", "--grid", "512"], ["bound", "--check-srb"],
         ["dimension"], ["dimension", "--set", "stable", "--depth", "6"], ["report", "--depth", "4"]],
    )
    def test_no_document_carries_a_delta_key(self, capsys, tmp_path, argv):
        def keys(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield key
                    yield from keys(item)
            elif isinstance(value, list):
                for item in value:
                    yield from keys(item)

        extra = ["--out-dir", str(tmp_path)] if argv[0] == "report" else []
        doc = run_json(capsys, [argv[0], "--model", "horseshoe:3,0.25", *argv[1:], *extra])
        assert "delta" not in set(keys(doc))
        assert len(doc["config"]) == 16

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        try:
            for _ in range(2):
                run_json(capsys, ["bound", "--model", "horseshoe:3,0.25"])
        finally:
            cli.build_parser.cache_clear()
        assert built.count("hypdim") == 1


class TestScaleGrammar:
    def test_power_range(self):
        assert parse_scales("3^-2..3^-4") == [3.0**-2, 3.0**-3, 3.0**-4]
        assert parse_scales("2^-1..2^-3") == [0.5, 0.25, 0.125]

    def test_decimal_base_range(self):
        # "could not convert string to float" until a base could hold a decimal point
        assert parse_scales("2.2^-2..2.2^-12") == [2.2**-e for e in range(2, 13)]
        assert parse_scales("2.5^-3..2.5^-1") == [2.5**-3, 2.5**-2, 2.5**-1]
        assert parse_scales("2.0^-1..2^-3") == parse_scales("2^-1..2^-3")  # one base, written two ways
        for text in ("2.2^-2..2.5^-4", "2.2^-2..2^-4"):
            with pytest.raises(ConfigError, match="scale range must keep one base"):
                parse_scales(text)

    def test_a_decimal_base_reaches_the_stable_sample(self, capsys):
        doc = run_json(capsys, ["dimension", "--model", "horseshoe:3,0.25", "--set", "stable",
                                "--scales", "2.2^-2..2.2^-12"])
        assert doc["result"]["dimension"]["scales"] == [2.2**-e for e in range(2, 13)]

    def test_comma_list(self):
        assert parse_scales("0.5,0.25") == [0.5, 0.25]

    def test_default_is_dyadic(self):
        scales = _read("dimension", "--model", "horseshoe:3,0.25", "--set", "stable").sample["stable"].scales
        assert scales[0] == 0.25 and scales[-1] == 2.0**-9
