"""Command-line front end.

Subcommands: pressure, bound, dimension, report.  One JSON document goes
to stdout (or --out), diagnostics to stderr, CSV side files on request.
Outputs are byte-identical for identical configuration and seed; files
are written to a temp name and renamed, so failures leave no partials.

Exit codes: 0 success, 2 invalid configuration, 3 enumeration cap
exceeded, 4 inconclusive classification when a verdict was demanded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .dimension import (
    CLASSIFY_TOL_ESTIMATOR,
    CLASSIFY_TOL_EXACT,
    bound_report,
    classify,
    horseshoe_for_target_dimension,
    invariant_set_sample,
    measure_box_dimension,
)
from .errors import CapExceededError, GridTooCoarseError, HypdimError
from .models import (
    ModelSystem,
    Potential,
    build_cantor_repeller,
    build_cat_map,
    build_doubling_map,
    build_golden_mean,
    build_linear_horseshoe,
    potential,
)
from .pressure import (
    cover_rects,
    default_epsilon,
    factored_axes,
    pressure_from_partition_sums,
    pressure_from_volume_growth,
    sample_local_stable_set,
    spectral_estimate,
    volume_curve,
)
from .symbolic import WORD_CAP, cylinders

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INCONCLUSIVE = 4


@dataclass
class ExperimentConfig:
    """Echo of everything that determined a run, embedded in each report."""

    command: str
    model: str | None
    model_file: str | None
    potential: str | None
    method: str | None
    eps: float | None
    delta: float | None
    kmax: int | None
    grid: int | None
    depth: int | None
    scales: str | None
    set_name: str | None
    window: str | None
    sweep: str | None
    target_dim: float | None
    seed: int
    threads: int


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hypdim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_document(args, config: ExperimentConfig, result: dict) -> None:
    doc = {
        "tool": "hypdim",
        "version": __version__,
        "config": asdict(config),
        "caps": {"word_cap": WORD_CAP},
        "tolerances": {
            "classification_exact": CLASSIFY_TOL_EXACT,
            "classification_estimator": CLASSIFY_TOL_ESTIMATOR,
        },
        "result": result,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_json_default) + "\n"
    if getattr(args, "out", None):
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def write_csv(path: str, header, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    atomic_write(path, buffer.getvalue())


def _csv_cell(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


# -- argument parsing ----------------------------------------------------------


def parse_model(args) -> ModelSystem:
    if getattr(args, "model_file", None):
        with open(args.model_file) as handle:
            return ModelSystem.from_json(handle.read())
    spec = getattr(args, "model", None)
    if not spec:
        raise ValueError("need --model or --model-file")
    name, _, params = spec.partition(":")
    name = name.lower()
    if name == "horseshoe":
        if params:
            parts = [float(p) for p in params.split(",")]
            lam_u = parts[0]
            lam_s = parts[1] if len(parts) > 1 else 0.25
            return build_linear_horseshoe(lam_u, lam_s)
        if getattr(args, "target_dim", None):
            return horseshoe_for_target_dimension(args.target_dim)
        raise ValueError("horseshoe needs parameters, e.g. horseshoe:3,0.25, or --target-dim")
    if name == "doubling":
        return build_doubling_map(int(params) if params else 2)
    if name == "cantor":
        if not params:
            return build_cantor_repeller(3, (0, 2))
        slope_text, _, digits = params.partition(",")
        slope = int(slope_text)
        kept = tuple(int(c) for c in digits) if digits else tuple(range(slope))
        return build_cantor_repeller(slope, kept)
    if name in ("catmap", "cat"):
        return build_cat_map()
    if name in ("goldenmean", "golden"):
        return build_golden_mean()
    raise ValueError(f"unknown model {spec!r}")


_SCALE_RANGE = re.compile(r"^(\d+)\^(-?\d+)\.\.(?:(\d+)\^)?(-?\d+)$")


def parse_scales(text: str | None, finest: int = 9):
    """Scale grammar: ``3^-2..3^-9`` or a comma list of floats."""
    if not text:
        return [2.0**-e for e in range(2, finest + 1)]
    match = _SCALE_RANGE.match(text.strip())
    if match:
        base = int(match.group(1))
        first = int(match.group(2))
        base2 = int(match.group(3)) if match.group(3) else base
        last = int(match.group(4))
        if base2 != base:
            raise ValueError("scale range must keep one base")
        step = 1 if last >= first else -1
        return [float(base) ** e for e in range(first, last + step, step)]
    return [float(p) for p in text.split(",")]


def parse_window(text: str | None):
    if not text:
        return None
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi))


def make_config(args, command: str) -> ExperimentConfig:
    return ExperimentConfig(
        command=command,
        model=getattr(args, "model", None),
        model_file=getattr(args, "model_file", None),
        potential=getattr(args, "potential", None),
        method=getattr(args, "method", None),
        eps=getattr(args, "eps", None),
        delta=getattr(args, "delta", None),
        kmax=getattr(args, "kmax", None),
        grid=getattr(args, "grid", None),
        depth=getattr(args, "depth", None),
        scales=getattr(args, "scales", None),
        set_name=getattr(args, "set", None),
        window=getattr(args, "window", None),
        sweep=getattr(args, "sweep", None),
        target_dim=getattr(args, "target_dim", None),
        seed=args.seed,
        threads=args.threads,
    )


# -- subcommands ---------------------------------------------------------------


def _potential_for(model: ModelSystem, label: str | None) -> Potential:
    if label in (None, ""):
        label = "phi_u" if model.kind == "diffeo" else "phi"
    if label == "zero":
        return Potential.zero(model.nsym)
    return potential(model, label)


def cmd_pressure(args) -> int:
    model = parse_model(args)
    pot = _potential_for(model, args.potential)
    method = args.method or "spectral"
    if method == "spectral":
        estimate = spectral_estimate(model, pot)
    elif method == "partition":
        estimate = pressure_from_partition_sums(model, pot, args.kmax or 12, args.delta)
    elif method == "volume":
        eps = args.eps if args.eps is not None else default_epsilon(model)
        kmax = args.kmax or 10
        curve = volume_curve(model, eps, kmax, args.grid or 4096, threads=args.threads)
        estimate = pressure_from_volume_growth(curve, parse_window(args.window) or (1, kmax))
        if estimate.value == -math.inf:
            msg = f"the tracking volume vanished on the {curve.grid_resolution} grid within {kmax} steps"
            raise GridTooCoarseError(msg + "; raise --grid")
    else:
        raise ValueError(f"unknown method {method!r}")
    result = {"pressure": estimate.to_json_dict()}
    verdict = None
    if args.classify:
        verdict = classify(estimate)
        result["classification"] = verdict
        result["classification_tolerance"] = (
            CLASSIFY_TOL_EXACT if estimate.method == "spectral" else CLASSIFY_TOL_ESTIMATOR
        )
    if args.csv and estimate.curve:
        keys = list(estimate.curve.keys())
        rows = zip(*[estimate.curve[k] for k in keys])
        write_csv(args.csv, keys, rows)
    emit_document(args, make_config(args, "pressure"), result)
    if verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_bound(args) -> int:
    model = parse_model(args)
    report = bound_report(model, k_max=args.kmax or 8, check_equivalences=args.check_srb)
    emit_document(args, make_config(args, "bound"), report.to_json_dict())
    return EXIT_OK


def _stable_resolution(model: ModelSystem, depth: int, grid: int | None, eps: float) -> int:
    # resolve structure down to the depth of the tracking constraint
    if grid:
        return grid
    varying, factors = factored_axes(model, cover_rects(model, eps)[1])
    if model.n > 1 and not (factors and len(varying) == 1):
        return 1 << 11  # full n-dimensional grid; keep it affordable
    need = 4.0 * float(np.max(model.lambda_u)) ** depth
    res = 1 << 11
    while res < need and res < (1 << 16):
        res <<= 1
    return res


def _default_depth(model: ModelSystem, scales) -> int:
    finest = min(scales)
    rate = math.log(float(np.min(model.lambda_u)))
    return max(4, min(14, int(math.ceil(math.log(1.0 / finest) / rate)) + 1))


def sample_for_set(model: ModelSystem, set_name: str, args):
    if set_name in ("invariant", "repeller"):
        # cylinders that never shrink mean the invariant set is everything
        if len(factored_axes(model, cylinders(model, 2)[1])[0]) == 0:
            # grid sample of the full space; scales must stay above the
            # grid yet span the two decades the dimension fit requires
            res = args.grid or 1024
            finest = max(4, int(math.log2(res)) - 1)
            if args.scales:
                scales = parse_scales(args.scales)
            else:
                scales = [2.0**-e for e in range(max(0, finest - 7), finest + 1)]
            depth = args.depth or 2
            points = invariant_set_sample(model, depth, resolution=res)
            meta = {"set": set_name, "depth": depth, "resolution": res}
            return points, scales, meta
        # symbolic samples are cheap and exact; a long dyadic window
        # averages out the log-periodic wobble of Cantor counts
        scales = parse_scales(args.scales, finest=13)
        depth = args.depth or _default_depth(model, scales)
        points = invariant_set_sample(model, depth, resolution=args.grid or 512)
        meta = {"set": set_name, "depth": depth}
    elif set_name == "stable":
        scales = parse_scales(args.scales, finest=9)
        eps = args.eps if args.eps is not None else default_epsilon(model)
        depth = args.depth or 10
        res = _stable_resolution(model, depth, args.grid, eps)
        points = sample_local_stable_set(model, eps, depth, samples=res, seed=args.seed)
        meta = {"set": set_name, "depth": depth, "eps": eps, "resolution": res}
    else:
        raise ValueError(f"unknown point set {set_name!r}")
    return points, scales, meta


def cmd_dimension(args) -> int:
    model = parse_model(args)
    points, scales, meta = sample_for_set(model, args.set or "invariant", args)
    estimate = measure_box_dimension(points, scales)
    result = {"dimension": estimate.to_json_dict(), "sample": meta}
    if args.csv:
        rows = [
            (float(s), int(c), math.log(1.0 / s), math.log(c))
            for s, c in zip(estimate.scales, estimate.counts)
        ]
        write_csv(args.csv, ["scale", "count", "log_inv_scale", "log_count"], rows)
    emit_document(args, make_config(args, "dimension"), result)
    return EXIT_OK


def _parse_sweep(text: str):
    name, _, rng = text.partition("=")
    if name.strip() != "lambda_u":
        raise ValueError("only lambda_u sweeps are supported")
    start_s, stop_s, step_s = rng.split(":")
    start, stop, step = float(start_s), float(stop_s), float(step_s)
    values = []
    v = start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        v += step
    return values


def _report_row(model: ModelSystem, args, label: str) -> dict:
    report = bound_report(model, k_max=args.kmax or 8, check_equivalences=True)
    if model.kind == "diffeo":
        scales = parse_scales(args.scales, finest=9)
        eps = args.eps if args.eps is not None else default_epsilon(model)
        depth = args.depth or 8
        res = _stable_resolution(model, depth, args.grid, eps)
        points = sample_local_stable_set(model, eps, depth, samples=res, seed=args.seed)
        set_name = "stable"
    else:
        scales = parse_scales(args.scales, finest=13)
        depth = args.depth or _default_depth(model, scales)
        points = invariant_set_sample(model, depth, resolution=args.grid or 512)
        set_name = "repeller"
    estimate = measure_box_dimension(points, scales)
    return {
        "label": label,
        "lambda_u_max": float(np.max(model.lambda_u)),
        "pressure": report.pressure.value,
        "s": report.expansion.value,
        "bound": report.bound,
        "classification": report.classification,
        "measured_dimension": estimate.slope,
        "measured_set": set_name,
        "report": report.to_json_dict(),
    }


def cmd_report(args) -> int:
    rows = []
    if args.sweep:
        for lam_u in _parse_sweep(args.sweep):
            model = build_linear_horseshoe(lam_u, 0.25)
            rows.append(_report_row(model, args, f"horseshoe:{lam_u},0.25"))
    elif args.target_dim:
        model = horseshoe_for_target_dimension(args.target_dim)
        row = _report_row(model, args, f"target-dim:{args.target_dim}")
        row["target_dimension"] = args.target_dim
        row["synthesized_lambda_u"] = float(np.max(model.lambda_u))
        rows.append(row)
    else:
        model = parse_model(args)
        rows.append(_report_row(model, args, args.model or args.model_file))

    result = {"rows": rows}
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    header = ["label", "lambda_u_max", "pressure", "s", "bound", "classification", "measured_dimension"]
    table_rows = [[r[h] for h in header] for r in rows]
    write_csv(os.path.join(out_dir, "report.csv"), header, table_rows)
    widths = [max(len(h), *(len(_csv_cell(row[i])) for row in table_rows)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in table_rows:
        lines.append("  ".join(_csv_cell(v).ljust(w) for v, w in zip(row, widths)))
    atomic_write(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")
    if args.plot_data:
        write_csv(
            os.path.join(out_dir, "bound_vs_lambda.csv"),
            ["lambda_u_max", "bound"],
            [(r["lambda_u_max"], r["bound"]) for r in rows],
        )
        write_csv(
            os.path.join(out_dir, "dimension_vs_lambda.csv"),
            ["lambda_u_max", "measured_dimension"],
            [(r["lambda_u_max"], r["measured_dimension"]) for r in rows],
        )
    emit_document(args, make_config(args, "report"), result)
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--model", help="built-in model, e.g. horseshoe:3,0.25")
    parser.add_argument("--model-file", help="JSON model file")
    parser.add_argument("--seed", type=int, default=0, help="seed of the stable-set sampler")
    parser.add_argument("--threads", type=int, default=1, help="grid worker threads")
    parser.add_argument("--out", help="write the JSON document here instead of stdout")
    parser.add_argument("--csv", help="write the raw curve as CSV here")
    parser.add_argument("--eps", type=float, help="tracking distance epsilon")
    parser.add_argument("--kmax", type=int, help="iteration depth for growth fits")
    parser.add_argument("--grid", type=int, help="grid resolution per axis")
    parser.add_argument("--depth", type=int, help="symbolic depth for point samples")
    parser.add_argument("--scales", help="box-count scales, e.g. 3^-2..3^-9")
    parser.add_argument("--target-dim", type=float, dest="target_dim",
                        help="synthesize a horseshoe with this stable-set dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypdim",
        description="Pressure, expansion rates and dimension bounds for affine hyperbolic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="estimate topological pressure")
    _add_common(p)
    p.add_argument("--potential", choices=["phi_u", "phi_s", "phi", "zero"])
    p.add_argument("--method", choices=["spectral", "partition", "volume"], default="spectral")
    p.add_argument("--delta", type=float, help="separation scale for partition sums")
    p.add_argument("--window", help="fit window lo:hi for the volume method")
    p.add_argument("--classify", action="store_true",
                   help="demand an attractor verdict (exit 4 if inconclusive)")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("bound", help="dimension bound n + P/s with classification")
    _add_common(p)
    p.add_argument("--check-srb", action="store_true", dest="check_srb",
                   help="also run the equivalence chain checks")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("dimension", help="box-dimension estimate of a model set")
    _add_common(p)
    p.add_argument("--set", choices=["invariant", "repeller", "stable"], default="invariant")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("report", help="bound + dimension + classification in one document")
    _add_common(p)
    p.add_argument("--sweep", help="parameter sweep, e.g. lambda_u=2.2:4.0:0.2")
    p.add_argument("--plot-data", action="store_true", dest="plot_data",
                   help="emit plot-ready (x, y) CSV columns")
    p.add_argument("--out-dir", dest="out_dir", help="directory for CSV and text outputs")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"hypdim: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HypdimError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"hypdim: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
