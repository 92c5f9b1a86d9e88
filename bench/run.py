"""hypdim benchmark: one command, three workloads, closed-form checks.

    python3 bench/run.py --workload stable-sweep --seed 0 --seconds 22 --trace 0

runs one workload and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb,
est_err); with --trace 1 they are the per-layer ones of a separate,
traced run.  Every workload process is fresh and has
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 set before numpy loads.

setup_s is the median over SETUP_RUNS processes: the measured process
and SETUP_RUNS - 1 more that stop after set-up.

    python3 bench/run.py --self-check --runs 5

runs two sets of seeds 0..runs-1 on every workload (or on --workload)
and prints each end-to-end metric's spread and drift against the
bounds in BENCHMARK.json; --seconds defaults to its run_seconds.
Results, operation logs and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("stable-sweep", "volume-pressure", "symbolic-repeller")
SETUP_RUNS = 3
# the whole command must end within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """A workload process failed or ran past the deadline."""


def _child(args, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR, "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        # on timeout, run() kills the child and waits for it
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} ran past the {DEADLINE_S:.0f} s deadline") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args.workload} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    """One benchmark run; returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    main = _child(args, deadline, setup_only=False)
    metrics = main["metrics"]
    if not args.trace:
        setups = [main["setup_s"]]
        setups += [_child(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    # correct: every operation passed its checks, apart from those failing
    # through a known program fault (counted in failed)
    result = {"correct": main["unexpected"] == 0, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as handle:
        json.dump({**result, "rounds": main["rounds"]}, handle, indent=2)
    return result


def _spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def self_check(args) -> int:
    """Two sets of runs; prints each metric's spread and drift against its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    sets = {w: [[], []] for w in workloads}
    for s in range(2):
        for w in workloads:
            for seed in range(args.runs):
                run_args = argparse.Namespace(
                    workload=w, seed=seed, seconds=seconds, trace=0
                )
                result = run_workload(run_args)
                sets[w][s].append(result)
                print(f"set {s + 1} {w} seed {seed}: {json.dumps(result)}", flush=True)
    ok = True
    summary = {}
    print(f"{'workload':18} {'metric':12} {'median 1':>10} {'spread 1':>9} "
          f"{'median 2':>10} {'spread 2':>9} {'drift':>7} {'bound':>6}")
    for w in workloads:
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets[w]]
        ok &= shares[0] == shares[1]
        for name, bound in bounds.items():
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets[w]]
            med = [statistics.median(v) for v in values]
            spread = [_spread(v) for v in values]
            drift = med[1] / med[0] - 1.0
            steady = name == "setup_s" or max(spread) <= bound
            ok &= steady and drift <= bound
            summary[f"{w}/{name}"] = {"values": values, "medians": med, "spreads": spread,
                                      "drift": drift, "bound": bound}
            print(f"{w:18} {name:12} {med[0]:10.4g} {spread[0]:9.3f} {med[1]:10.4g} "
                  f"{spread[1]:9.3f} {drift:7.3f} {bound:6.2f}"
                  f"{'' if steady and drift <= bound else '  OUT OF BOUND'}")
        print(f"{w:18} failed share {shares[0]} / {shares[1]}")
    with open(os.path.join(OUT_DIR, "self-check.json"), "w") as handle:
        json.dump(summary, handle, indent=2)
    print("self-check:", "steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypdim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", dest="self_check")
    parser.add_argument("--runs", type=int, default=5, help="seeds per set in --self-check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypdim", "cli.py")):
        print(f"bench: no hypdim source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check(args)
        if not args.workload or args.seconds is None:
            parser.error("--workload and --seconds are required")
        print(json.dumps(run_workload(args)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
