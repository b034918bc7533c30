"""Quick self-test of the benchmark harness at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that:
- every workload, untraced and traced, passes its referees and emits
  exactly the metrics ``BENCHMARK.json`` declares, with their units, and
  the table shows ``failed_frac``;
- every deterministic count (the named counts and the per-layer calls)
  repeats exactly across two traced runs with the same seed, and a second
  seed changes the inputs but not the number of operations;
- each referee rejects deliberately corrupted results, for every
  operation of every workload.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import freebax as fb  # noqa: E402
import freebax.cli  # noqa: E402,F401

import referee  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures: list[str] = []


def require(cond: bool, what: str) -> None:
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def run_json(argv) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def check_metric_names(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result, text = run_json([str(HERE / "run.py"), "--workload", name, "--seed", "1",
                                     "--seconds", "0", "--trace", str(trace), "--tiny"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(got == declared, f"{name} trace {trace}: metrics {sorted(got)} != declared")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{name} trace {trace}: not correct: {text[-800:]}")
            require(trace == 1 or "failed_frac" in text, f"{name}: table lacks failed_frac")


def check_determinism() -> None:
    for name in WORKLOADS:
        reps = [run_json([str(HERE / "worker.py"), "trace", "--workload", name, "--seed", str(seed),
                          "--tiny"])[0] for seed in (1, 1, 2)]
        for r in reps:
            require(r["passes"] == 1, f"{name}: a tiny traced run made {r['passes']} passes")
        a, b = ({**r["trace"]["counts"], **r["trace"]["calls"]} for r in reps[:2])
        require(a == b, f"{name}: counts differ between two runs of seed 1: {a} vs {b}")
        require(reps[0]["inputs_digest"] == reps[1]["inputs_digest"], f"{name}: seed 1 inputs differ")
        require(reps[0]["inputs_digest"] != reps[2]["inputs_digest"], f"{name}: seed 2 gives seed 1's inputs")
        require(reps[0]["ops_per_pass"] == reps[2]["ops_per_pass"], f"{name}: seed changes the op count")


# --- corruptions: each must make the referee fail -----------------------------

def bump_series(s):
    return s + fb.embed(fb.one(s.ctx), s.precision)


def bump_sequence(q):
    return q + fb.seq_one(q.ctx, q.length)


def corrupt_completion(res):
    p, px, py, pp = res
    return [(bump_series(p), px, py, pp), (p, bump_sequence(px), py, pp),
            (p, px, bump_sequence(py), pp), (p, px, py, bump_sequence(pp))]


def corrupt_probes(res):
    xy, residual, pairs, killed, member = res
    ctx = xy.ctx
    lhs, rhs = pairs[0]
    bad_pairs = ((lhs, rhs + fb.one(rhs.ctx)),) + pairs[1:]
    return [(xy, residual + fb.one(ctx), pairs, killed, member),
            (xy, residual, bad_pairs, killed, member),
            (xy, residual, pairs, killed, not member)]


def corrupt_sequence(res):
    out = []
    for k in range(len(res)):
        bad = list(res)
        bad[k] = bump_sequence(bad[k])
        out.append(tuple(bad))
    return out


def corrupt_expressions(res):
    rc, out, err = res
    return [(1, out, err), (rc, out + "x", err), (rc, out, "error: injected\n")]


CORRUPT = {
    "completion": corrupt_completion,
    "probes": corrupt_probes,
    "sequence": corrupt_sequence,
    "expressions": corrupt_expressions,
}


def check_referees() -> None:
    for name, wl in WORKLOADS.items():
        specs = wl.specs(random.Random(f"{name}:1"), True)
        rejected = 0
        for k, spec in enumerate(specs):
            res = wl.run(fb, wl.build(fb, spec))
            reason = referee.check(name, fb, spec, res)
            require(reason is None, f"{name} op {k}: referee rejects a correct result: {reason}")
            for j, bad in enumerate(CORRUPT[name](res)):
                ok = referee.check(name, fb, spec, bad) is not None
                require(ok, f"{name} op {k}: referee accepts corruption {j}")
                rejected += ok
        print(f"ok   {name}: referee rejected {rejected} corrupted results over {len(specs)} operations")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_referees()
    for what, check in (("metric names, units and referees", lambda: check_metric_names(spec)),
                        ("deterministic counts", check_determinism)):
        before = len(failures)
        check()
        if len(failures) == before:
            print(f"ok   {what}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
