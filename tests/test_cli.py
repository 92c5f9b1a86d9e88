"""Command-line behavior: exit codes, JSON shape, determinism, side files."""

import argparse
import csv
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdim import cli, symbolic
from hypdim.cli import SWEEP_ROW_CAP, _parse_sweep, emit_document, main, make_config, parse_scales
from hypdim.errors import CapExceededError
from hypdim.models import build_linear_horseshoe
from hypdim.pressure import cover_distance


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
        args = cli.build_parser().parse_args(["dimension", *argv])
        _, _, meta = cli.sample_for_set(cli.parse_model(args), args.set_name, args)
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
        code, _, err = run(
            capsys, ["pressure", "--model", "catmap", "--method", "partition", "--kmax", "18"]
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
        # level-by-level check would build 2^24-word levels before failing
        three = tmp_path / "three.json"
        slopes, lo = [3.3, 4.0, 4.6], [0.0, 0.45, 1.0 - 1.0 / 4.6]
        three.write_text(json.dumps({
            "space": {"dim": 1, "geometry": "cube"},
            "kind": "expanding",
            "branches": [
                {"symbol": i, "domain": {"lo": [a], "hi": [a + 1.0 / s]},
                 "linear": [[s]], "offset": [-s * a]}
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

    def test_vanished_tracking_volume_is_config_error(self, capsys):
        # the exact pressure is log(1/4); a 512 grid loses the whole neighborhood
        code, out, err = run(
            capsys,
            ["pressure", "--model", "horseshoe:8,0.25", "--method", "volume",
             "--kmax", "10", "--grid", "512"],
        )
        assert code == 2
        assert out == ""
        assert "512" in err and "--grid" in err

    def test_factored_volume_grid_is_capped_by_the_cells_it_steps(self, capsys):
        # the horseshoe factors, so a 16384 grid steps 16384 cells, not 16384^2
        doc = run_json(
            capsys,
            ["pressure", "--model", "horseshoe:3,0.25", "--method", "volume",
             "--kmax", "8", "--grid", "16384"],
        )
        assert doc["result"]["pressure"]["value"] == pytest.approx(math.log(2 / 3), abs=0.1)

    @pytest.mark.parametrize("model,grid", [("catmap", 1 << 14), ("cantor:3,02", 1 << 27)])
    def test_volume_grid_cap(self, capsys, model, grid):
        code, out, err = run(
            capsys, ["pressure", "--model", model, "--method", "volume", "--grid", str(grid)]
        )
        assert code == 2
        assert out == ""
        assert "grid too large" in err

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

    def test_a_volume_kmax_past_the_step_limit_exits_2(self, capsys):
        # death steps are int16: 40000 was an OverflowError with a traceback
        code, out, err = run(capsys, ["pressure", "--model", "horseshoe:3,0.25", "--method", "volume",
                                      "--kmax", "40000"])
        assert (code, out) == (2, "")
        assert err == "hypdim: invalid configuration: k_max 40000 exceeds the limit of 32767 tracking steps\n"

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
        assert err == "hypdim: invalid configuration: depth 40000 exceeds the limit of 32767 tracking steps\n"

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

    @pytest.mark.parametrize(
        "argv",
        [["dimension", "--set", "repeller", "--depth", "14"],
         ["pressure", "--method", "partition", "--kmax", "14"]],
    )
    def test_a_cap_refusal_shows_a_count_past_1e18(self, capsys, tmp_path, argv):
        # 257^14 = 5.48e33 words: finite, though the refusal read inf while the count saturated at 1e18
        path = tmp_path / "full257.json"
        path.write_text(json.dumps(_repeller_doc([300.0] * 257, [[1] * 257] * 257)))
        code, out, err = run(capsys, [*argv, "--model-file", str(path)])
        assert (code, out) == (3, "")
        assert err == "hypdim: cap exceeded: 5.48e+33 admissible words of length 14 exceed the cap 16777216\n"

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

    def test_stable_set_rejected_for_expanding_models(self, capsys):
        code, _, err = run(capsys, ["dimension", "--model", "doubling:2", "--set", "stable"])
        assert code == 2
        assert "diffeo" in err


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
        doc = run_json(capsys, ["dimension", "--model", "doubling:2", "--seed", "42"])
        assert doc["version"]
        assert doc["config"]["seed"] == 42
        assert doc["config"]["model"] == "doubling:2"
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

    def test_each_method_accepts_the_flags_it_reads(self, capsys, tmp_path):
        for method, flags in cli._METHOD_FLAGS.items():
            values = {"--potential": "phi_u", "--kmax": "6", "--eps": "0.1",
                      "--grid": "64", "--threads": "2", "--window": "1:6",
                      "--csv": str(tmp_path / f"{method}.csv")}
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
            (["dimension", "--model", "cantor:3,02", "--scales", "3^-2..3^-9", "--seed", "5"],
             {"scales": "3^-2..3^-9", "seed": 5, "set_name": "invariant"}),
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

    def test_comma_list(self):
        assert parse_scales("0.5,0.25") == [0.5, 0.25]

    def test_default_is_dyadic(self):
        scales = parse_scales(None)
        assert scales[0] == 0.25 and scales[-1] == 2.0**-9
