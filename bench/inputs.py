"""Benchmark inputs, made from the workload seed alone.

Each workload runs rounds of hypdim CLI operations.  Round 0 holds the
reference operations, whose model parameters are the same for every
seed and which alone feed `est_err`: the sweep's lambda_u list,
lambda_u in {2.5, 3.0}, `cantor:3,02` and `goldenmean`.  Every other
model parameter is drawn from numpy's generator seeded with (seed,
workload, round), so no two timed operations in a run share their
arguments and the same seed always gives the same inputs.

Each operation is a dict: `argv` for `hypdim.cli.main`, plus the facts
the checks need (`kind`, the oracle parameters, any files it writes).

Regenerate and inspect the inputs of a run with

    python3 bench/inputs.py --workload symbolic-repeller --seed 3 --rounds 2 --out /tmp/inputs

which writes the JSON model files there and prints every argv.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

WORKLOADS = ("stable-sweep", "volume-pressure", "symbolic-repeller")

SWEEP = "lambda_u=2.2:4.0:0.2"
SWEEP_LAMBDAS = [round(2.2 + 0.2 * i, 12) for i in range(10)]
# every volume operation, warm-up and --threads check included, runs at
# this grid: on [2.5, 3.0] its error stays within 0.06 of log(2/lambda_u),
# while the midpoint grid aliases up to 0.28 at 1024 and 0.22 at 512
VOLUME_GRID = 2048
VOLUME_REFERENCE = (2.5, 3.0)
WARMUP_LAMBDA = 3.05
CANTOR_DEPTH = 14
# slopes above 5 push the dyadic-scale box-count bias towards the 0.1
# tolerance (0.086 at slope 5.86; at most 0.052 on [3, 5] in steps of 0.01)
CANTOR_SLOPES = (3.0, 5.0)
CANTOR_KMAX = 22
# slope0 >= slope1 keeps the expansion rate at log slope0
GOLDEN_SLOPES = ((2.4, 3.0), (2.0, 2.4))
# depth-9 cylinders are at most 3.3^-9 = 2.1e-5 wide, finer than the
# finest default box scale 2^-13 = 1.2e-4
THREE_SLOPES = (3.3, 4.6)
THREE_DEPTH = 9
THREE_KMAX = 13
FULL_SHIFT_2 = [[1, 1], [1, 1]]
FULL_SHIFT_3 = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
GOLDEN_SHIFT = [[1, 1], [1, 0]]


def _rng(seed: int, workload: str, round_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), round_no])


def _num(x: float) -> str:
    return f"{x:.6f}"


# -- JSON model files -----------------------------------------------------------


def _branch(symbol: int, lo: float, hi: float, slope: float, image_lo: float = 0.0) -> dict:
    return {
        "symbol": symbol,
        "domain": {"lo": [lo], "hi": [hi]},
        "linear": [[slope]],
        "offset": [image_lo - slope * lo],
    }


def full_shift_repeller(slopes) -> dict:
    """Interval repeller: one branch per slope, each onto [0, 1].

    The branch intervals have lengths 1/slope and equal gaps, the first
    starting at 0 and the last ending at 1.
    """
    lengths = [1.0 / s for s in slopes]
    m = len(slopes)
    gap = (1.0 - sum(lengths)) / (m - 1)
    if gap <= 0:
        raise ValueError("slopes leave no gap between branches")
    los = [sum(lengths[:i]) + i * gap for i in range(m - 1)] + [1.0 - lengths[-1]]
    his = [lo + ell for lo, ell in zip(los[:-1], lengths)] + [1.0]
    branches = [_branch(i, lo, hi, s) for i, (lo, hi, s) in enumerate(zip(los, his, slopes))]
    return {
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": branches,
        "transition": [[1] * m for _ in range(m)],
        "unstable_dim": 1,
    }


def golden_shift_repeller(slope0: float, slope1: float) -> dict:
    """Golden-mean subshift: branch 0 onto [0, 1], branch 1 onto branch 0.

    Branch 0 is [0, 1/slope0]; branch 1 ends at 1 and maps onto branch
    0's interval, so symbol 1 can only be followed by symbol 0.
    """
    w0 = 1.0 / slope0
    w1 = w0 / slope1
    return {
        "space": {"dim": 1, "geometry": "cube"},
        "kind": "expanding",
        "branches": [_branch(0, 0.0, w0, slope0), _branch(1, 1.0 - w1, 1.0, slope1)],
        "transition": GOLDEN_SHIFT,
        "unstable_dim": 1,
    }


# -- operations -----------------------------------------------------------------


def _sweep_op(seed_arg: int, sweep: str, lambdas, out_dir: str) -> dict:
    return {
        "kind": "sweep",
        "argv": ["report", "--sweep", sweep, "--seed", str(seed_arg), "--out-dir", out_dir],
        "lambdas": list(lambdas),
        "out_dir": out_dir,
    }


def _report_csv_op(out_dir: str) -> dict:
    """report.csv against the JSON rows, on a model whose label holds a comma.

    hypdim writes CSV cells unquoted, so the label `horseshoe:3,0.25`
    splits into two cells and the row no longer matches the JSON: this
    operation fails every time until the CSV writer quotes its cells.
    It is untimed and its input does not depend on the seed.
    """
    return {
        "kind": "report_csv",
        "argv": ["report", "--model", "horseshoe:3,0.25", "--depth", "4", "--out-dir", out_dir],
        "out_dir": out_dir,
        "timed": False,
        "known_fault": True,
    }


def _volume_op(lam: float, extra=()) -> dict:
    text = _num(lam)
    return {
        "kind": "volume",
        "argv": ["pressure", "--model", f"horseshoe:{text},0.25", "--method", "volume",
                 "--kmax", "8", "--grid", str(VOLUME_GRID), *extra],
        "lambda_u": float(text),
    }


def _repeller_ops(model_arg, transition, slopes, depth, kmax) -> list:
    facts = {"transition": transition, "slopes": list(slopes)}
    depth_args = ["--depth", str(depth)] if depth else []
    return [
        {"kind": "repeller_dimension",
         "argv": ["dimension", *model_arg, "--set", "repeller", *depth_args], **facts},
        {"kind": "partition",
         "argv": ["pressure", *model_arg, "--method", "partition", "--kmax", str(kmax)],
         "kmax": kmax, **facts},
        {"kind": "bound", "argv": ["bound", *model_arg, "--check-srb"], **facts},
    ]


def _model_file(work_dir: str, name: str, model: dict) -> list:
    path = os.path.join(work_dir, name)
    with open(path, "w") as handle:
        json.dump(model, handle, indent=2)
    return ["--model-file", path]


def warmup_op(workload: str, seed: int, work_dir: str) -> dict:
    """One untimed operation that loads the same code paths as a round."""
    if workload == "stable-sweep":
        out_dir = os.path.join(work_dir, "warmup")
        return _sweep_op(1000 * seed + 999, "lambda_u=3.1:3.1:0.2", [3.1], out_dir)
    if workload == "volume-pressure":
        # fixed, so that set-up costs the same for every seed, and outside
        # the rounds' range, so that no timed operation repeats it
        return _volume_op(WARMUP_LAMBDA)
    return _repeller_ops(["--model", "cantor:3,02"], FULL_SHIFT_2, [3.0, 3.0], 10, 16)[0]


def round_ops(workload: str, seed: int, round_no: int, work_dir: str) -> list:
    """The operations of one round; round 0 holds the reference inputs."""
    rng = _rng(seed, workload, round_no)
    if workload == "stable-sweep":
        out_dir = os.path.join(work_dir, f"sweep-{round_no}")
        ops = [
            _sweep_op(1000 * seed + round_no, SWEEP, SWEEP_LAMBDAS, out_dir),
            _report_csv_op(os.path.join(work_dir, f"csv-{round_no}")),
        ]
    elif workload == "volume-pressure":
        lam = VOLUME_REFERENCE[0] if round_no == 0 else rng.uniform(*VOLUME_REFERENCE)
        # the mirrored pair keeps a round's cost nearly the same for every
        # draw: an operation gets cheaper as lambda_u grows
        ops = [_volume_op(lam), _volume_op(sum(VOLUME_REFERENCE) - lam)]
    else:
        ops = _repeller_round(rng, round_no, work_dir)
    if round_no == 0:
        for op in ops:
            op.setdefault("reference", op.get("timed", True))
    return ops


def _repeller_round(rng, round_no: int, work_dir: str) -> list:
    three = [float(_num(x)) for x in rng.uniform(*THREE_SLOPES, size=3)]
    if round_no == 0:
        cantor_arg, cantor_slopes = ["--model", "cantor:3,02"], [3.0, 3.0]
        golden_arg, golden_slopes = ["--model", "goldenmean"], [2.0, 2.0]
    else:
        s = float(_num(rng.uniform(*CANTOR_SLOPES)))
        cantor_slopes = [s, s]
        golden_slopes = [float(_num(rng.uniform(*r))) for r in GOLDEN_SLOPES]
        cantor_arg = _model_file(work_dir, f"cantor-{round_no}.json", full_shift_repeller(cantor_slopes))
        golden_arg = _model_file(
            work_dir, f"golden-{round_no}.json", golden_shift_repeller(*golden_slopes)
        )
    three_arg = _model_file(work_dir, f"three-{round_no}.json", full_shift_repeller(three))
    seeded = _repeller_ops(three_arg, FULL_SHIFT_3, three, THREE_DEPTH, THREE_KMAX)
    for op in seeded:
        op["reference"] = False
    return (
        _repeller_ops(cantor_arg, FULL_SHIFT_2, cantor_slopes, CANTOR_DEPTH, CANTOR_KMAX)
        + _repeller_ops(golden_arg, GOLDEN_SHIFT, golden_slopes, None, CANTOR_KMAX)
        + seeded
    )


def threads_check_op(op: dict) -> dict:
    """A timed volume operation again, at --threads 2 instead of the default 1."""
    return {**op, "argv": [*op["argv"], "--threads", "2"], "timed": False, "reference": False}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write and print a run's benchmark inputs")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory for the JSON model files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    print("warm-up:", " ".join(warmup_op(args.workload, args.seed, args.out)["argv"]))
    for r in range(args.rounds):
        for op in round_ops(args.workload, args.seed, r, args.out):
            print(f"round {r}:", " ".join(op["argv"]))
    if args.workload == "volume-pressure":
        print("threads check: the last timed operation of the run again, with --threads 2")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
