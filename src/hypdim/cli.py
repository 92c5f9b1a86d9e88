"""Command-line front end.

Subcommands: pressure, bound, dimension, report; each offers only the
flags it reads (`_COMMANDS`).  One JSON document goes to stdout (or
--out), diagnostics to stderr, CSV side files on request.  Outputs are
byte-identical for identical configuration and seed; files are written
to a temp name and renamed, so failures leave no partials.

Exit codes: 0 success, 2 invalid configuration (an unoffered flag, a
`pressure` flag its --method never reads, or a non-positive count or
epsilon among them), 3 enumeration cap exceeded, 4
inconclusive classification when a verdict was demanded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .dimension import (
    CLASSIFY_TOL_ESTIMATOR,
    CLASSIFY_TOL_EXACT,
    bound_report,
    classification_tolerance,
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
    ProductCloud,
    cover_distance,
    default_epsilon,
    grid_axis,
    pressure_from_partition_sums,
    pressure_from_volume_growth,
    sample_local_stable_set,
    spanned_axes,
    spectral_estimate,
    stable_resolution,
    volume_curve,
)
from .symbolic import WORD_CAP, CylinderWalk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INCONCLUSIVE = 4

# a sweep row takes about 5 ms on a 2-CPU machine, so the longest sweep runs about 20 s
SWEEP_ROW_CAP = 4096


# the config echo: every setting that determines a run, with the value it echoes when not given
_ECHO = dict.fromkeys(["model", "model_file", "potential", "method", "eps", "kmax", "grid", "depth", "scales",
                       "set_name", "window", "sweep", "target_dim"]) | {"seed": 0, "threads": 1}


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(value, out: list, indent: str) -> None:
    """Append `json.dumps(value, sort_keys=True, indent=2, default=_json_default)` to `out`.

    `indent` is a newline and the indent of `value`.  Types go in the stdlib's order, with its
    reprs and string encoder; a non-finite float or a key that is not text raises TypeError."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float) and math.isfinite(value):
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            out.append(("," if i else "[") + indent + "  ")
            _write_json(item, out, indent + "  ")
        out.append(indent + "]" if value else "[]")
    elif isinstance(value, dict):
        for i, (key, item) in enumerate(sorted(value.items())):
            if not isinstance(key, str):
                raise TypeError(key)
            out.append(("," if i else "{") + indent + "  " + encode_basestring_ascii(key) + ": ")
            _write_json(item, out, indent + "  ")
        out.append(indent + "}" if value else "{}")
    else:
        _write_json(_json_default(value), out, indent)


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hypdim-", suffix=".tmp")
    except OSError as exc:  # name the file asked for, not the random temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_document(args, config: dict, result: dict) -> None:
    doc = {
        "tool": "hypdim",
        "version": __version__,
        "config": config,
        "caps": {"word_cap": WORD_CAP},
        "tolerances": {
            "classification_exact": CLASSIFY_TOL_EXACT,
            "classification_estimator": CLASSIFY_TOL_ESTIMATOR,
        },
        "result": result,
    }
    out = []
    try:
        _write_json(doc, out, "\n")
    except TypeError:  # json.dumps writes a key that is not text, and refuses the rest with its own error
        out = [json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_json_default)]
    text = "".join(out) + "\n"
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
    if args.model_file:
        with open(args.model_file) as handle:
            return ModelSystem.from_json(handle.read())
    spec = args.model
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
        if args.target_dim:
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


def make_config(args, command: str) -> dict:
    """The config echo of a run: `_ECHO` with the settings given, and the command."""
    given = vars(args)
    echo = {key: default if given.get(key) is None else given[key] for key, default in _ECHO.items()}
    return {**echo, "command": command}


# -- subcommands ---------------------------------------------------------------


def _potential_for(model: ModelSystem, label: str | None) -> Potential:
    if label in (None, ""):
        label = "phi_u" if model.kind == "diffeo" else "phi"
    if label == "zero":
        return Potential.zero(model.nsym)
    return potential(model, label)


# the flags of `pressure` that only some --method reads, per method
_METHOD_FLAGS = {
    "spectral": {"--potential"},
    "partition": {"--potential", "--kmax", "--csv"},
    "volume": {"--kmax", "--eps", "--grid", "--threads", "--window", "--csv"},
}


def cmd_pressure(args) -> int:
    others = set().union(*_METHOD_FLAGS.values()) - _METHOD_FLAGS[args.method]
    unread = [f for f in _FLAGS if f in others and getattr(args, f[2:]) is not None]
    if unread:
        raise ValueError(f"--method {args.method} does not read {', '.join(unread)}")
    model = parse_model(args)
    pot = _potential_for(model, args.potential)
    if args.method == "spectral":
        estimate = spectral_estimate(model, pot)
    elif args.method == "partition":
        estimate = pressure_from_partition_sums(model, pot, args.kmax or 12)
    elif args.method == "volume":
        eps = args.eps if args.eps is not None else default_epsilon(model)
        kmax = args.kmax or 10
        curve = volume_curve(model, eps, kmax, args.grid or 4096, threads=args.threads or 1)
        estimate = pressure_from_volume_growth(curve, parse_window(args.window) or (1, kmax))
        if estimate.value == -math.inf:
            msg = f"the tracking volume vanished on the {curve.grid_resolution} grid within {kmax} steps"
            raise GridTooCoarseError(msg + "; raise --grid")
    else:
        raise ValueError(f"unknown method {args.method!r}")
    result = {"pressure": estimate.to_json_dict()}
    verdict = None
    if args.classify:
        verdict = classify(estimate)
        result["classification"] = verdict
        result["classification_tolerance"] = classification_tolerance(estimate)
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


def _default_depth(model: ModelSystem, scales) -> int:
    finest = min(scales)
    rate = math.log(float(np.min(model.lambda_u)))
    return max(4, min(14, int(math.ceil(math.log(1.0 / finest) / rate)) + 1))


def sample_for_set(model: ModelSystem, set_name: str, args, stable_depth: int = 10):
    """(points, scales, meta) of `set_name`; `stable_depth` is the stable sample's depth without --depth."""
    if set_name in ("invariant", "repeller"):
        # one walk: depth 2 decides the fallback, then goes on to the sample's depth
        walk = CylinderWalk(model)
        # cylinders that never shrink mean the invariant set is everything
        if spanned_axes(walk.rects(2)).all():
            # grid sample of the full space; scales must stay above the
            # grid yet span the two decades the dimension fit requires
            res = args.grid or 1024
            finest = max(4, int(math.log2(res)) - 1)
            if args.scales:
                scales = parse_scales(args.scales)
            else:
                scales = [2.0**-e for e in range(max(0, finest - 7), finest + 1)]
            depth = args.depth or 2
            walk.rects(depth)  # the depth's word cap and mass are checked all the same
            points = ProductCloud.grid([grid_axis(res)] * model.n)
            meta = {"set": set_name, "depth": depth, "resolution": res}
            return points, scales, meta
        # symbolic samples are cheap and exact; a long dyadic window
        # averages out the log-periodic wobble of Cantor counts
        scales = parse_scales(args.scales, finest=13)
        depth = args.depth or _default_depth(model, scales)
        points = invariant_set_sample(model, depth, resolution=args.grid or 512, walk=walk)
        meta = {"set": set_name, "depth": depth}
    elif set_name == "stable":
        scales = parse_scales(args.scales, finest=9)
        eps = args.eps if args.eps is not None else default_epsilon(model)
        depth = args.depth or stable_depth
        cover = cover_distance(model, eps)  # the cloud and its resolution per axis read off one cover
        res = args.grid or stable_resolution(model, depth, cover)
        points = sample_local_stable_set(model, eps, depth, samples=res, seed=args.seed, cover=cover)
        if len(points) == 0:
            msg = f"no stable sample tracks {depth} steps at {res} samples per axis"
            raise GridTooCoarseError(msg + "; lower --depth or raise --grid")
        meta = {"set": set_name, "depth": depth, "eps": eps, "resolution": res}
    else:
        raise ValueError(f"unknown point set {set_name!r}")
    return points, scales, meta


def cmd_dimension(args) -> int:
    model = parse_model(args)
    points, scales, meta = sample_for_set(model, args.set_name, args)
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
    """The values start, start + step, ... up to stop of `lambda_u=start:stop:step`.

    Start, stop and step must be finite, the step above 0 and large
    enough to advance the value, and the range must hold a value.  A
    range of more than `SWEEP_ROW_CAP` rows is refused when the loop
    reaches its first value past the cap, so no more are ever built;
    the loop is the judge because the rounding of its running sum can
    move the count by a row from (stop - start) / step + 1.
    """
    name, _, rng = text.partition("=")
    if name.strip() != "lambda_u":
        raise ValueError("only lambda_u sweeps are supported")
    start_s, stop_s, step_s = rng.split(":")
    start, stop, step = float(start_s), float(stop_s), float(step_s)
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
        raise ValueError(f"sweep {rng!r} needs a finite start, stop and step, and a step above 0")
    values = []
    v = start
    while v <= stop + 1e-12:
        if len(values) == SWEEP_ROW_CAP:
            rows = max((stop + 1e-12 - start) // step + 1, SWEEP_ROW_CAP + 1)
            raise CapExceededError(f"sweep {rng!r} asks for {rows:.0f} rows, above the cap {SWEEP_ROW_CAP}")
        values.append(round(v, 12))
        if v + step == v:
            raise ValueError(f"sweep step {step} does not advance the value {v}")
        v += step
    if not values:
        raise ValueError(f"sweep {rng!r} holds no value: start lies above stop")
    return values


def _report_row(model: ModelSystem, args, label: str) -> dict:
    report = bound_report(model, k_max=args.kmax or 8, check_equivalences=True)
    set_name = "stable" if model.kind == "diffeo" else "repeller"
    points, scales, _ = sample_for_set(model, set_name, args, stable_depth=8)
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


def _positive(kind):
    """An argparse type: a `kind` value above 0, so an int is at least 1."""

    def parse(text: str):
        try:
            if (value := kind(text)) > 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a positive {kind.__name__}, got {text!r}")

    return parse


# every flag once, in help order; a subcommand offers the ones it reads
_FLAGS = {
    "--model": dict(help="built-in model, e.g. horseshoe:3,0.25"),
    "--model-file": dict(help="JSON model file"),
    "--seed": dict(type=int, default=_ECHO["seed"], help="seed of the stable-set sampler"),
    "--threads": dict(type=_positive(int), help="grid worker threads"),
    "--out": dict(help="write the JSON document here instead of stdout"),
    "--csv": dict(help="write the raw curve as CSV here"),
    "--eps": dict(type=_positive(float), help="tracking distance epsilon"),
    "--kmax": dict(type=_positive(int), help="iteration depth for growth fits"),
    "--grid": dict(type=_positive(int), help="grid resolution per axis"),
    "--depth": dict(type=_positive(int), help="symbolic depth for point samples"),
    "--scales": dict(help="box-count scales, e.g. 3^-2..3^-9"),
    "--target-dim": dict(type=float, help="synthesize a horseshoe with this stable-set dimension"),
    "--potential": dict(choices=["phi_u", "phi_s", "phi", "zero"]),
    "--method": dict(choices=["spectral", "partition", "volume"], default="spectral"),
    "--window": dict(help="fit window lo:hi for the volume method"),
    "--classify": dict(action="store_true", help="demand an attractor verdict (exit 4 if inconclusive)"),
    "--check-srb": dict(action="store_true", help="also run the equivalence chain checks"),
    "--set": dict(choices=["invariant", "repeller", "stable"], default="invariant", dest="set_name"),
    "--sweep": dict(help="parameter sweep, e.g. lambda_u=2.2:4.0:0.2"),
    "--plot-data": dict(action="store_true", help="emit plot-ready (x, y) CSV columns"),
    "--out-dir": dict(help="directory for CSV and text outputs"),
}
# each subcommand: handler, help, and the flags it reads besides the four all read
_COMMANDS = {
    "pressure": (cmd_pressure, "estimate topological pressure",
                 "--potential --method --kmax --eps --grid --threads --window --classify --csv"),
    "bound": (cmd_bound, "dimension bound n + P/s with classification", "--kmax --check-srb"),
    "dimension": (cmd_dimension, "box-dimension estimate of a model set",
                  "--set --eps --grid --depth --scales --seed --csv"),
    "report": (cmd_report, "bound + dimension + classification in one document",
               "--sweep --kmax --eps --grid --depth --scales --seed --plot-data --out-dir"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hypdim parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hypdim",
        description="Pressure, expansion rates and dimension bounds for affine hyperbolic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        reads = {"--model", "--model-file", "--target-dim", "--out", *flags.split()}
        for flag, spec in _FLAGS.items():
            if flag in reads:
                p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
