"""Command-line front end.

Subcommands: pressure, bound, dimension, report; each offers only the flags
it reads (`_COMMANDS`), and `read_args` reads them once.  One JSON document
goes to stdout (or --out), diagnostics to stderr, CSV side files on request.
Outputs are byte-identical for identical configuration and seed; files are
written to a temp name and renamed, so failures leave no partials.

Exit codes: 0 success, 1 a fault in the program (with its traceback), 2
invalid configuration (an unoffered flag, a flag that its --method, --set
or --sweep never reads, a non-positive count or epsilon, a malformed model
file), 3 enumeration cap exceeded, 4 inconclusive classification when a
verdict was demanded.  A refused input always exits 2 or 3 (see `main`).
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
import types
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .dimension import (
    CLASSIFY_TOL_ESTIMATOR,
    CLASSIFY_TOL_EXACT,
    bound_report,
    check_scales,
    classification_tolerance,
    classify,
    horseshoe_for_target_dimension,
    invariant_set_sample,
    measure_box_dimension,
)
from .errors import CapExceededError, ConfigError, GridTooCoarseError, HypdimError
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
    GRID_CAP,
    ProductCloud,
    _refuse_many_steps,
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

# the longest sweep, 4,096 rows of lambda_u from 2.2 to 4.0, took 8.9 s in one process on a 2-CPU machine
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
        os.umask(umask := os.umask(0))  # mkstemp's 0600 becomes the mode that open() would give
        os.chmod(tmp, 0o666 & ~umask)
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


# -- reading the command line -------------------------------------------------


_TARGET_DIM_ONLY = "--target-dim reads only a bare --model horseshoe"


def parse_model(args) -> ModelSystem:
    """The model of --model or --model-file; --target-dim synthesizes the horseshoe of a bare --model horseshoe."""
    spec = args.model or ""
    name, _, params = spec.lower().partition(":")  # numbers read alike in either case
    if args.target_dim is not None:
        if args.model_file or name != "horseshoe" or params:
            raise ConfigError(_TARGET_DIM_ONLY)
        return horseshoe_for_target_dimension(args.target_dim)
    if args.model_file:
        with open(args.model_file) as handle:
            return ModelSystem.from_json(handle.read())
    if not spec:
        raise ConfigError("need --model or --model-file")
    if name == "horseshoe":
        if not params:
            raise ConfigError("horseshoe needs parameters, e.g. horseshoe:3,0.25, or --target-dim")
        return build_linear_horseshoe(*([float(p) for p in params.split(",")] + [0.25])[:2])
    if name == "doubling":
        return build_doubling_map(int(params) if params else 2)
    if name == "cantor":
        if not params:
            return build_cantor_repeller(3, (0, 2))
        slope_text, _, digits = params.partition(",")
        slope = int(slope_text)
        return build_cantor_repeller(slope, [int(c) for c in digits] if digits else range(slope))
    if name == "catmap":
        return build_cat_map()
    if name == "goldenmean":
        return build_golden_mean()
    raise ConfigError(f"unknown model {spec!r}")


_SCALE_RANGE = re.compile(r"^(\d+(?:\.\d+)?)\^(-?\d+)\.\.(?:(\d+(?:\.\d+)?)\^)?(-?\d+)$")


def parse_scales(text: str) -> list:
    """Scale grammar: ``3^-2..3^-9``, with an integer or a decimal base (``2.2^-2..2.2^-12``), or a comma list
    of floats; each scale in (0, 1]."""
    match = _SCALE_RANGE.match(text.strip())
    if match:
        base, other = (float(b) if "." in b else int(b) for b in (match.group(1), match.group(3) or match.group(1)))
        if other != base:
            raise ConfigError("scale range must keep one base")
        first, last = int(match.group(2)), int(match.group(4))
        step = 1 if last >= first else -1
        return check_scales([float(base) ** e for e in range(first, last + step, step)])
    return check_scales([float(p) for p in text.split(",")])


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
        raise ConfigError("only lambda_u sweeps are supported")
    start_s, stop_s, step_s = rng.split(":")
    start, stop, step = float(start_s), float(stop_s), float(step_s)
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
        raise ConfigError(f"sweep {rng!r} needs a finite start, stop and step, and a step above 0")
    values = []
    v = start
    while v <= stop + 1e-12:
        if len(values) == SWEEP_ROW_CAP:
            rows = max((stop + 1e-12 - start) // step + 1, SWEEP_ROW_CAP + 1)
            raise CapExceededError(f"sweep {rng!r} asks for {rows:.0f} rows, above the cap {SWEEP_ROW_CAP}")
        values.append(round(v, 12))
        if v + step == v:
            raise ConfigError(f"sweep step {step} does not advance the value {v}")
        v += step
    if not values:
        raise ConfigError(f"sweep {rng!r} holds no value: start lies above stop")
    return values


def make_config(args, command: str) -> dict:
    """The config echo of a run: `_ECHO` with the settings given, and the command."""
    given = vars(args)
    echo = {key: default if given.get(key) is None else given[key] for key, default in _ECHO.items()}
    return {**echo, "command": command}


# the flags a path never reads, in help order; a path is a pressure --method, a dimension --set or a --sweep
_UNREAD = {
    "--method spectral": "--threads --csv --eps --kmax --grid --window",
    "--method partition": "--threads --eps --grid --window",
    "--method volume": "--potential",
    "--set invariant": "--seed --eps",
    "--set repeller": "--seed --eps",
    "--sweep": "--model --model-file --target-dim",
}
# the default of each setting a path leaves unset (the paths above, the other commands and the three ways a
# set is sampled); None where the model decides (a cylinder sample's depth, a stable sample's grid).  Scales
# (n, e) are n dyadic scales down to 2^-e; a whole-space sample's end at twice its spacing or 2^-4, the finer.
_DEFAULTS = {  # k_max, grid, depth, scales
    "--method partition": (12, None, None, None),
    "--method volume": (10, 4096, None, None),
    "bound": (8, None, None, None),  # and the bound of a report row
    "cylinders": (None, 512, None, (12, 13)),  # an invariant set or a repeller, by its cylinders
    "whole space": (None, 1024, 2, (8, None)),  # ... or as the space, when its depth-2 cylinders span every axis
    "stable": (None, None, 10, (8, 9)),
    "report stable": (None, None, 8, (8, 9)),
}


def _settings(args, path: str, scales=None) -> types.SimpleNamespace:
    """k_max, grid, depth and scales on `path`: each one given (`scales`, parsed), else its default there."""
    *defaults, span = _DEFAULTS.get(path, (None,) * 4)
    kmax, grid, depth = (d if g is None else g for g, d in zip((args.kmax, args.grid, args.depth), defaults))
    if scales is None and span:
        finest = span[1] or max(4, int(math.log2(grid)) - 1)
        scales = [2.0**-e for e in range(max(0, finest + 1 - span[0]), finest + 1)]
    return types.SimpleNamespace(kmax=kmax, grid=grid, depth=depth, scales=scales)


def read_args(args) -> types.SimpleNamespace:
    """What the command of `args` runs on, read once, before any model is built or any file is written.

    A flag that the path taken never reads (`_UNREAD`) is refused, and so is, as a `ConfigError`, a value
    that does not read.  A setting left unset takes its default on the path (`_settings`).  The model is
    built last, unless a sweep builds one per row."""
    path = (f"--method {args.method}" if args.method else f"--set {args.set_name}" if args.set_name
            else "--sweep" if args.sweep else args.command)
    unread = [flag for flag in _UNREAD.get(path, "").split() if getattr(args, flag[2:].replace("-", "_")) is not None]
    if "--target-dim" in unread:
        raise ConfigError(_TARGET_DIM_ONLY)
    if unread:
        raise ConfigError(f"{path} does not read {', '.join(unread)}")
    run = types.SimpleNamespace(**vars(args), config=make_config(args, args.command))
    run.seed, run.threads = run.config["seed"], run.config["threads"]
    run.label = args.model or args.model_file if args.target_dim is None else f"target-dim:{args.target_dim}"
    run.out_dir = args.out_dir or "."
    try:
        at = _settings(args, "bound" if args.command == "report" else path)
        run.kmax, run.grid = at.kmax, at.grid
        run.window = tuple(int(end) for end in args.window.partition(":")[::2]) if args.window else (1, run.kmax)
        run.sweep = _parse_sweep(args.sweep) if args.sweep else None
        if args.command in ("dimension", "report"):  # the commands that sample a set
            scales = parse_scales(args.scales) if args.scales else None
            run.sample = {"cylinders": _settings(args, "cylinders", scales),
                          "whole space": _settings(args, "whole space", scales),
                          "stable": _settings(args, "report stable" if args.command == "report" else "stable", scales)}
        run.model = None if run.sweep else parse_model(args)
    except HypdimError:
        raise
    except (ArithmeticError, ValueError) as exc:  # float(), int(), unpacking, a scale's power, a model's build
        raise ConfigError(str(exc)) from exc
    return run


# -- subcommands ---------------------------------------------------------------


def cmd_pressure(run) -> int:
    model = run.model
    label = run.potential or ("phi_u" if model.kind == "diffeo" else "phi")
    pot = Potential.zero(model.nsym) if label == "zero" else potential(model, label)
    if run.method == "spectral":
        estimate = spectral_estimate(model, pot)
    elif run.method == "partition":
        estimate = pressure_from_partition_sums(model, pot, run.kmax)
    else:
        eps = run.eps if run.eps is not None else default_epsilon(model)
        curve = volume_curve(model, eps, run.kmax, run.grid, threads=run.threads)
        estimate = pressure_from_volume_growth(curve, run.window)
        if estimate.value == -math.inf:
            if curve.grid_resolution is None:  # exact volumes: no grid to refine
                raise ConfigError(f"the tracking volume vanished within {run.kmax} steps")
            msg = f"the tracking volume vanished on the {curve.grid_resolution} grid within {run.kmax} steps"
            raise GridTooCoarseError(msg + "; raise --grid")
    result = {"pressure": estimate.to_json_dict()}
    verdict = None
    if run.classify:
        verdict = classify(estimate)
        result["classification"] = verdict
        result["classification_tolerance"] = classification_tolerance(estimate)
    if run.csv and estimate.curve:
        keys = list(estimate.curve.keys())
        rows = zip(*[estimate.curve[k] for k in keys])
        write_csv(run.csv, keys, rows)
    emit_document(run, run.config, result)
    return EXIT_INCONCLUSIVE if verdict == "inconclusive" else EXIT_OK


def cmd_bound(run) -> int:
    report = bound_report(run.model, k_max=run.kmax, check_equivalences=run.check_srb)
    emit_document(run, run.config, report.to_json_dict())
    return EXIT_OK


def _default_depth(model: ModelSystem, scales) -> int:
    finest = min(scales)
    rate = math.log(float(np.min(model.lambda_u)))
    return max(4, min(14, int(math.ceil(math.log(1.0 / finest) / rate)) + 1))


def sample_for_set(model: ModelSystem, set_name: str, run):
    """(points, scales, meta) of `set_name`, one of invariant, repeller and stable, at the settings of `run`."""
    if set_name in ("invariant", "repeller"):
        _refuse_many_steps("depth", run.depth or 0)  # an asked depth, before the walk counts its words
        # one walk: depth 2 decides the fallback, then goes on to the sample's depth
        walk = CylinderWalk(model)
        # cylinders that never shrink mean the invariant set is everything: sample the grid of the full space
        if spanned_axes(walk.rects(2)).all():
            s = run.sample["whole space"]
            walk.rects(s.depth)  # the depth's word cap and mass are checked all the same
            points = ProductCloud.grid([grid_axis(s.grid)] * model.n)
            return points, s.scales, {"set": set_name, "depth": s.depth, "resolution": s.grid}
        # symbolic samples are cheap and exact; a long dyadic window
        # averages out the log-periodic wobble of Cantor counts
        s = run.sample["cylinders"]
        depth = s.depth or _default_depth(model, s.scales)
        points = invariant_set_sample(model, depth, resolution=s.grid, walk=walk)
        return points, s.scales, {"set": set_name, "depth": depth}
    s = run.sample["stable"]
    # samples per axis that resolve the finest scale: a power of two, at least 2 / scale and 1024
    bits = max(10, math.ceil(1.0 - math.log2(min(s.scales))))
    if 1 << bits > GRID_CAP:
        raise GridTooCoarseError(f"scale {min(s.scales)} needs 2^{bits} stable samples per axis, above {GRID_CAP}")
    need = 1 << bits
    eps = run.eps if run.eps is not None else default_epsilon(model)
    cover = cover_distance(model, eps)  # the cloud and its resolution per axis read off one cover
    # only tracked axes take more: the full grid, stepped or not, would take `need` on every axis
    res = s.grid or max(stable_resolution(model, s.depth, cover), need if cover.tracked else 0)
    points = sample_local_stable_set(model, eps, s.depth, samples=res, cross_resolution=need, seed=run.seed,
                                     cover=cover)
    if len(points) == 0:
        msg = f"no stable sample tracks {s.depth} steps at {res} samples per axis"
        raise GridTooCoarseError(msg + "; lower --depth or raise --grid")
    return points, s.scales, {"set": set_name, "depth": s.depth, "eps": eps, "resolution": res}


def cmd_dimension(run) -> int:
    points, scales, meta = sample_for_set(run.model, run.set_name, run)
    estimate = measure_box_dimension(points, scales)
    result = {"dimension": estimate.to_json_dict(), "sample": meta}
    if run.csv:
        rows = [(float(s), int(c), math.log(1.0 / s), math.log(c)) for s, c in zip(estimate.scales, estimate.counts)]
        write_csv(run.csv, ["scale", "count", "log_inv_scale", "log_count"], rows)
    emit_document(run, run.config, result)
    return EXIT_OK


def _report_row(model: ModelSystem, run, label: str) -> dict:
    report = bound_report(model, k_max=run.kmax, check_equivalences=True)
    set_name = "stable" if model.kind == "diffeo" else "repeller"
    points, scales, _ = sample_for_set(model, set_name, run)
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


def cmd_report(run) -> int:
    if run.sweep:
        rows = [_report_row(build_linear_horseshoe(lam, 0.25), run, f"horseshoe:{lam},0.25") for lam in run.sweep]
    else:
        rows = [_report_row(run.model, run, run.label)]
        if run.target_dim is not None:
            rows[0] |= {"target_dimension": run.target_dim, "synthesized_lambda_u": float(np.max(run.model.lambda_u))}
    out_dir = run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    header = ["label", "lambda_u_max", "pressure", "s", "bound", "classification", "measured_dimension"]
    table_rows = [[r[h] for h in header] for r in rows]
    write_csv(os.path.join(out_dir, "report.csv"), header, table_rows)
    widths = [max(len(h), *(len(_csv_cell(row[i])) for row in table_rows)) for i, h in enumerate(header)]
    lines = ["  ".join(_csv_cell(v).ljust(w) for v, w in zip(row, widths)) for row in [header, *table_rows]]
    atomic_write(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")
    if run.plot_data:
        for name, key in (("bound_vs_lambda.csv", "bound"), ("dimension_vs_lambda.csv", "measured_dimension")):
            write_csv(os.path.join(out_dir, name), ["lambda_u_max", key], [(r["lambda_u_max"], r[key]) for r in rows])
    emit_document(run, run.config, {"rows": rows})
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
    "--seed": dict(type=int, help="seed of the stable-set sampler (default 0)"),
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
        # a flag the subcommand does not offer reads None, so the arguments of every command hold every flag
        unoffered = [spec.get("dest", flag[2:].replace("-", "_")) for flag, spec in _FLAGS.items() if flag not in reads]
        p.set_defaults(func=func, **dict.fromkeys(unoffered))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(read_args(args))
    except CapExceededError as exc:
        print(f"hypdim: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HypdimError, OSError) as exc:  # refused where the input was read; anything else is a fault
        print(f"hypdim: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
