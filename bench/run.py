"""The freebax benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload completion --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh single-threaded interpreter
(``worker.py``).  With ``--trace 0`` it measures the workload untraced,
timing set-up in further fresh interpreters between passes, and reports
the end-to-end metrics.  With ``--trace 1`` it runs the workload
under the tracer and reports the per-layer metrics.  Either way it prints
a table of every metric with its unit, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exits with code 2, printing no result, when the library source is not
beside the benchmark (``src/freebax``), and with code 1 when a worker
fails.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import COUNT_NAMES, LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
SETUP_GROUPS = 5


class WorkerError(RuntimeError):
    pass


def worker(mode: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + ["--tiny"] * args.tiny
    # A fixed hash seed keeps dict and set layouts, and so timings, alike
    # across the interpreters of one run and across runs.  Bytecode caching
    # stays on, as for a user, so set-up does not time compiling the source.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # its own process group, so that a timeout also ends the set-up
    # interpreters the worker starts
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker took more than {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, dict, dict]:
    rep = worker("measure", args)
    setups = rep["setup_samples"]
    # A median of single set-ups follows the share of slow seconds in the
    # run.  So the set-ups form groups interleaved in time, and setup_s is
    # the median of the groups' least set-up times, as for the operations.
    groups = [min(setups[g::SETUP_GROUPS]) for g in range(SETUP_GROUPS)]
    lat, n = rep["latencies"], rep["ops_per_pass"]
    # Every pass runs the same operations.  The host's speed changes by up
    # to a quarter from one second to the next (other tenants), so an
    # operation's latency is the least of its latencies over the passes:
    # its cost when the host was not slowed down.
    per_op = [min(lat[k::n]) for k in range(n)]
    p90 = statistics.quantiles(per_op, n=10)[-1]
    metrics = {
        "setup_s": metric(statistics.median(groups), "s"),
        "ops_per_s": metric(n / sum(per_op), "1/s"),
        "op_p50_ms": metric(statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MB"),
    }
    info = {
        "failed_frac": metric(rep["failed"] / len(lat), "fraction"),
        "latency_samples": metric(n, "count"),
        "samples_beyond_p90": metric(sum(x > p90 for x in per_op), "count"),
        "passes": metric(rep["passes"], "count"),
        "setup_samples": metric(len(setups), "count"),
    }
    return rep, metrics, info


def per_layer(args) -> tuple[dict, dict, dict]:
    rep = worker("trace", args)
    passes = rep["passes"]
    traced_s = sum(rep["latencies"])
    trace = rep["trace"]
    metrics = {}
    for layer in LAYERS:
        self_s = trace["self_s"][layer]
        metrics[f"{layer}.self_s"] = metric(self_s / passes, "s")
        metrics[f"{layer}.calls"] = metric(trace["calls"][layer] // passes, "count")
        metrics[f"{layer}.share"] = metric(self_s / traced_s, "fraction")
    # every pass runs the same operations, so the counts divide exactly
    for name in COUNT_NAMES:
        metrics[name] = metric(trace["counts"][name] // passes, "count")
    metrics["trace.overhead_ratio"] = metric(traced_s / passes / rep["untraced_pass_s"], "ratio")
    metrics["host.calib_s"] = metric(rep["calib_s"], "s")
    info = {
        "passes": metric(passes, "count"),
        "ops_per_pass": metric(rep["ops_per_pass"], "count"),
        "unattributed.share": metric(1 - sum(trace["self_s"].values()) / traced_s, "fraction"),
    }
    return rep, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "freebax" / "__init__.py").is_file():
        print(f"error: no freebax source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rep, metrics, info = per_layer(args) if args.trace else end_to_end(args)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in {**metrics, **info}.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for line in rep["failure_examples"]:
        print(f"  FAILED {line}")
    attempted = len(rep["latencies"])
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": attempted,
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
