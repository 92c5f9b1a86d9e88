"""Command-line behavior: exit codes, JSON shape, determinism, side files."""

import argparse
import csv
import json
import math

import pytest

from hypdim.cli import emit_document, main, make_config, parse_scales
from hypdim.models import build_linear_horseshoe


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_cat_map_fills_the_torus(self, capsys):
        doc = run_json(capsys, ["dimension", "--model", "catmap", "--set", "invariant"])
        assert doc["result"]["dimension"]["slope"] == pytest.approx(2.0, abs=0.05)
        doc = run_json(capsys, ["dimension", "--model", "catmap", "--set", "stable",
                                "--grid", "512"])
        assert doc["result"]["dimension"]["slope"] == pytest.approx(2.0, abs=0.05)

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

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, ["pressure", "--model", "catmap", "--method", "partition", "--kmax", "18"]
        )
        assert code == 3
        assert "cap" in err.lower()

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
        [["dimension", "--set", "repeller", "--depth", "3"], ["pressure", "--method", "volume"]],
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
        code, out, err = run(capsys, [*argv, "--model-file", str(path)])
        assert code == 2
        assert out == ""
        assert "depth-2" in err and "geometric mass" in err

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
        doc = run_json(capsys, ["bound", "--model", "doubling:2", "--seed", "42"])
        assert doc["version"]
        assert doc["config"]["seed"] == 42
        assert doc["config"]["model"] == "doubling:2"
        assert doc["caps"]["word_cap"] == 1 << 24
        assert "classification_exact" in doc["tolerances"]


class TestScaleGrammar:
    def test_power_range(self):
        assert parse_scales("3^-2..3^-4") == [3.0**-2, 3.0**-3, 3.0**-4]
        assert parse_scales("2^-1..2^-3") == [0.5, 0.25, 0.125]

    def test_comma_list(self):
        assert parse_scales("0.5,0.25") == [0.5, 0.25]

    def test_default_is_dyadic(self):
        scales = parse_scales(None)
        assert scales[0] == 0.25 and scales[-1] == 2.0**-9
