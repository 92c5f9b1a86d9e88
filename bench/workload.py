"""One benchmark workload, run in a fresh process started by run.py.

Calls `hypdim.cli.main(argv)` in process with stdout and stderr
captured, checks every result (checks.py), and prints one JSON line:
setup time, operation counts and the workload's metrics.

    setup   imports, input generation and one untimed warm-up operation
    timed   whole rounds of operations until --seconds have passed
    after   untimed extra checks (volume-pressure: the last timed
            operation again at --threads 2)

`attempted` and `failed` count the round operations and the extra
checks; a failed warm-up aborts the run instead.
With --setup-only the process stops after set-up, so run.py can take
the median set-up time of several processes.  With --trace 1 the
tracer wraps hypdim's public functions before the first operation and
the per-layer metrics are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from hypdim import cli  # noqa: E402


class Runner:
    """Runs and checks operations, keeping the log and the failure count."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.log = []
        self.failed = 0
        self.unexpected = 0  # failures other than a known program fault
        self.stdout_bytes = 0

    def run(self, op: dict, timed: bool = False):
        """One CLI call: returns (seconds, estimator error, result or None)."""
        op_id = len(self.log)
        out, err = io.StringIO(), io.StringIO()
        if self.tracer and timed:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except Exception:  # an operation that raises is a failed operation
            rc = None
            err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - start
            if self.tracer:
                self.tracer.op = None
        text = out.getvalue()
        if timed:
            self.stdout_bytes += len(text.encode())
        record = {"op": op_id, "argv": op["argv"], "rc": rc, "seconds": seconds, "timed": timed}
        est_err, result = None, None
        try:
            est_err = checks.check(op, rc, text)
            result = checks.parse_document(text)
        except (checks.CheckFailed, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            self.failed += 1
            self.unexpected += not op.get("known_fault", False)
            record["failure"] = f"{type(exc).__name__}: {exc}"
            record["stderr"] = err.getvalue()[-2000:]
            print(f"bench: operation {op_id} failed: {record['failure']}", file=sys.stderr)
        record["est_err"] = est_err
        self.log.append(record)
        return seconds, est_err, result


def threads_check(runner: Runner, op: dict, result) -> None:
    """Results must not depend on --threads (volume_curve's contract).

    Runs the timed operation `op`, whose result came at the default
    --threads 1, again at --threads 2.
    """
    again = runner.run(inputs.threads_check_op(op))[2]
    if None not in (result, again) and result != again:
        runner.failed += 1
        runner.unexpected += 1
        runner.log[-1]["failure"] = "result differs between --threads 1 and --threads 2"
        print("bench: --threads 1 and --threads 2 disagree", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        runner.run(inputs.warmup_op(args.workload, args.seed, work_dir))
        setup_s = time.monotonic() - args.t0
        if runner.failed:
            print("bench: the warm-up operation failed", file=sys.stderr)
            return 1
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner.log.clear()

        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        round_seconds, errors = [], []
        while not round_seconds or time.perf_counter() - start < args.seconds:
            r = len(round_seconds)
            total = 0.0
            for op in inputs.round_ops(args.workload, args.seed, r, work_dir):
                timed = op.get("timed", True)
                seconds, est_err, result = runner.run(op, timed=timed)
                total += seconds if timed else 0.0
                if op.get("reference") and est_err is not None:
                    errors.append(est_err)
            round_seconds.append(total)
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        if args.workload == "volume-pressure":
            threads_check(runner, op, result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    rounds = len(round_seconds)
    wall_s = statistics.median(round_seconds)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(args.out_dir, f"{tag}-ops.jsonl"), "w") as handle:
        for record in runner.log:
            handle.write(json.dumps(record) + "\n")
    if tracer:
        tracer.write_spans(os.path.join(args.out_dir, f"{tag}-spans.jsonl"), start)
        cpu = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
        extra = {
            "stdout_bytes": runner.stdout_bytes,
            "process": {
                "proc.cpu_s": (cpu / rounds, "s"),
                "proc.minflt": ((usage1.ru_minflt - usage0.ru_minflt) / rounds, "count"),
                "trace.wall_s": (wall_s, "s"),
            },
        }
        metrics = layer_metrics(tracer.totals(), rounds, extra)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "est_err": {"value": max(errors, default=0.0), "unit": "1"},
        }
    report = {
        "setup_s": setup_s, "attempted": len(runner.log), "failed": runner.failed,
        "unexpected": runner.unexpected, "rounds": rounds, "metrics": metrics,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
