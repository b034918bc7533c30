"""One workload in one fresh interpreter; prints one JSON line.

    python3 bench/worker.py setup   --workload W --seed S
    python3 bench/worker.py measure --workload W --seed S --seconds T
    python3 bench/worker.py trace   --workload W --seed S --seconds T

``setup`` times importing freebax and building the inputs, and stops.
``measure`` does the same set-up, then runs whole passes over the inputs
in a closed loop (one client; an operation starts when the previous one
returned) until ``T`` seconds of operations and at least ``MIN_PASSES``
passes have run.  ``trace`` times one untraced pass, installs the
tracer and runs traced passes for ``T`` seconds.  Both referee every
result of the first pass and require every later pass to repeat it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import referee  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 5
# Set-up starts a fresh process, which touches new memory and so feels a
# busy host more than the operations do: it needs many samples.
SETUP_SAMPLES = 24  # besides the measuring interpreter's own


def make_specs(name: str, seed: int, tiny: bool):
    specs = WORKLOADS[name].specs(random.Random(f"{name}:{seed}"), tiny)
    return specs, hashlib.sha256(repr(specs).encode()).hexdigest()[:16]


def set_up(name: str, specs):
    """Import the library and build every input; returns (fb, inputs, seconds)."""
    t0 = time.perf_counter()
    import freebax as fb
    import freebax.cli  # noqa: F401  (the expressions workload drives it)

    inputs = [WORKLOADS[name].build(fb, s) for s in specs]
    elapsed = time.perf_counter() - t0
    if Path(fb.__file__).resolve().parent != SRC / "freebax":
        raise SystemExit(f"imported freebax from {fb.__file__}, not from {SRC}")
    return fb, inputs, elapsed


def run_pass(fb, run, inputs, latencies: list, first: list | None):
    """One pass over the inputs; returns the results and, by op index, why
    an operation failed (it raised, or differs from the first pass)."""
    results, failed = [], {}
    for k, inp in enumerate(inputs):
        t0 = time.perf_counter()
        try:
            res = run(fb, inp)
        except Exception as exc:  # an operation that raises is a failed operation
            res = exc
        latencies.append(time.perf_counter() - t0)
        if isinstance(res, Exception):
            failed[k] = f"raised {type(res).__name__}: {res}"
        elif first is not None and res != first[k]:
            failed[k] = "result differs from the first pass"
        results.append(res)
    return results, failed


class SetupSampler:
    """Times set-up in fresh interpreters, one at a time between passes and
    spread evenly over the run: the host's speed changes from one second to
    the next, and samples taken together would all see the same moment."""

    def __init__(self, args, count: int):
        self.cmd = [sys.executable, __file__, "setup", "--workload", args.workload,
                    "--seed", str(args.seed)] + ["--tiny"] * args.tiny
        self.count, self.every, self.due = count, args.seconds / count, 0.0
        self.samples: list = []

    def take(self) -> None:
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60, check=True)
        self.samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        self.due += self.every

    def __call__(self, elapsed: float) -> None:
        while elapsed >= self.due and len(self.samples) < self.count:
            self.take()

    def finish(self) -> list:
        while len(self.samples) < self.count:
            self.take()
        return self.samples


def run_loop(fb, name, inputs, seconds: float, min_passes: int, between=None):
    """Whole passes until ``seconds`` of operation time and ``min_passes``
    passes, calling ``between(elapsed operation time)`` before each pass.
    Returns the latencies, the number of passes and the failed operations
    as {(pass, op index): reason}; the first pass is refereed."""
    run = WORKLOADS[name].run
    latencies: list = []
    if between:
        between(0.0)
    first, bad = run_pass(fb, run, inputs, latencies, None)
    failures = {(0, k): why for k, why in bad.items()}
    passes = 1
    while sum(latencies) < seconds or passes < min_passes:
        if between:
            between(sum(latencies))
        _, bad = run_pass(fb, run, inputs, latencies, first)
        failures.update({(passes, k): why for k, why in bad.items()})
        passes += 1
    return latencies, passes, failures, first


def referee_failures(name, fb, specs, first, passes) -> dict:
    """Referee the first pass; later passes repeat its results, so a wrong
    first result counts as failed in every pass."""
    out = {}
    for k, (spec, res) in enumerate(zip(specs, first)):
        if not isinstance(res, Exception):
            reason = referee.check(name, fb, spec, res)
            if reason:
                out.update({(p, k): reason for p in range(passes)})
    return out


def calibrate() -> float:
    """A fixed pure-Python loop, to compare hosts; median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    specs, digest = make_specs(args.workload, args.seed, args.tiny)
    fb, inputs, setup_s = set_up(args.workload, specs)
    report = {"setup_s": setup_s, "ops_per_pass": len(inputs), "inputs_digest": digest}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    min_passes = 1 if args.tiny else MIN_PASSES
    if args.mode == "measure":
        sampler = SetupSampler(args, SETUP_SAMPLES)
        lat, passes, failures, first = run_loop(fb, args.workload, inputs, args.seconds, min_passes, sampler)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["setup_samples"] = [setup_s] + sampler.finish()
    else:
        untraced: list = []
        run_pass(fb, WORKLOADS[args.workload].run, inputs, untraced, None)
        tracer = tracing.Tracer()
        tracer.install(fb)
        # wrappers add a frame to every self-recursive call, such as the
        # evaluation of an 800-term sum
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
        lat, passes, failures, first = run_loop(fb, args.workload, inputs, args.seconds, 1)
        report["trace"] = tracer.snapshot()
        report["untraced_pass_s"] = sum(untraced)
        report["calib_s"] = calibrate()
    failures.update(referee_failures(args.workload, fb, specs, first, passes))
    report.update(
        latencies=lat,
        passes=passes,
        failed=len(failures),
        failure_examples=[f"pass {p} op {k}: {why}" for (p, k), why in sorted(failures.items())[:5]],
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
