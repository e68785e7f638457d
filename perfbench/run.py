"""qtsym benchmark: cold `qtsym verify` sweeps, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it runs sweeps of the workload one after another, each in a
new single-threaded interpreter, until S seconds are used (at least
MIN_SWEEPS of them), and reports the median over sweeps of every
end-to-end metric.  With --trace 1 it runs two untraced and two traced
sweeps, in turn, and reports per-layer counts and self times.  Every
sweep's output must equal the stored reference (see gate.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads are listed in workloads.py;
NOTES.md says why each was chosen and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SWEEPS = 3
# every run ends within this many seconds
DEADLINE_S = 170.0
SPANS_DIR = HERE / "out"

SPAN_METRICS = (
    "ratfun.poly_gcd", "ratfun.poly_divexact",
    "partitions.enumerate_partitions",
    "symfun.convert", "symfun.transition_matrix", "symfun.adjoint_apply",
    "symfun.p_multiply", "symfun.divide_by_vandermonde", "symfun.expand_x",
    "families.macdonald_M", "families.hl_in_p", "families.hall_littlewood",
    "macops.apply_DN.N1", "macops.apply_DN.N2", "macops.apply_DN.N3", "macops.apply_DN.N4",
    "macops.A_k_apply.k1", "macops.A_k_apply.k2", "macops.A_k_apply.k3",
    "macops.A_k_eigen",
    "verify.check_deigen", "verify.check_theorem_basic",
    "cli.main",
)
COUNT_METRICS = ("ratfun.add", "ratfun.mul", "ratfun.div")
CACHE_KINDS = (
    "macdonald", "transition", "m_to", "p_to_m", "ip", "h_p", "s_p", "s_m",
    "hl_p", "hl_m", "hlq_m", "hl_alt", "tvand", "green",
)
BUILD_DEGREES = range(1, 8)
E2E_UNITS = {"checks_per_s": "1/s", "setup_s": "s", "check_p50_s": "s", "check_tail_s": "s", "peak_rss_mb": "MB"}


class Deadline(Exception):
    pass


def run_sweep(workload, seed, deadline, spans=None):
    """Run one sweep in a fresh interpreter, traced if given a spans file;
    return its result dict."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--degrees", str(workload.degrees),
           "--points", str(workload.points), "--seed", str(seed)]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--"] + workload.argv(seed)
    env = {k: v for k, v in os.environ.items() if k not in ("SYMFUN_CACHE_DIR", "PYTHONPATH")}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise Deadline()
    wall = time.monotonic() - t0
    try:
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
        return {"exit": proc.returncode or -1, "stdout": "", "wall": wall}
    result["wall"] = wall
    return result


def judge(result, workload, seed, ref):
    attempted, failed, elapsed = gate.judge(
        ref, result["exit"], result["stdout"], gate.expected_points(seed, workload.points))
    if failed:
        print("sweep failed the gate: %d of %d checks (exit %s)" % (failed, attempted, result["exit"]),
              file=sys.stderr)
    return attempted, failed, elapsed


def tail_index(n):
    """Index, in ascending order, of the highest value with ten beyond it."""
    return max(n - 11, 0)


def sweep_seed(seed, i):
    """Seed of the run's i-th sweep: numeric sweeps each get their own points."""
    return seed * 1000 + i


def end_to_end(workload, seed, seconds, ref):
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    attempted = failed = 0
    walls = []
    rows = []
    while len(walls) < MIN_SWEEPS or time.monotonic() - start + statistics.median(walls) <= seconds:
        s = sweep_seed(seed, len(walls))
        try:
            result = run_sweep(workload, s, deadline)
        except Deadline:
            attempted += ref["checks"]
            failed += ref["checks"]
            break
        walls.append(result["wall"])
        a, f, elapsed = judge(result, workload, s, ref)
        attempted += a
        failed += f
        if f:
            continue
        ordered = sorted(elapsed)
        rows.append({
            "checks_per_s": len(ordered) / result["sweep_s"],
            "setup_s": result["setup_s"],
            "check_p50_s": statistics.median(ordered),
            "check_tail_s": ordered[tail_index(len(ordered))],
            "peak_rss_mb": result["peak_rss_mb"],
        })
    n = ref["checks"]
    print("%d sweeps of %d checks; check_tail_s is the p%.1f of each sweep's %d checks "
          "(ten beyond it); every metric is the median over sweeps"
          % (len(walls), n, 100.0 * (tail_index(n) + 1) / n, n))
    if not rows:
        return attempted, failed, {}
    metrics = {name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
               for name, unit in E2E_UNITS.items()}
    metrics["pass_frac"] = {"value": (attempted - failed) / attempted, "unit": "frac"}
    return attempted, failed, metrics


def source_lines():
    out = {}
    total = 0
    for path in sorted((ROOT / "src" / "qtsym").glob("*.py")):
        n = sum(1 for line in path.read_text().splitlines() if line.strip())
        total += n
        name = "init" if path.stem == "__init__" else path.stem
        out[name + ".lines"] = n
    out["src.lines"] = total
    return out


def trace_identity(trace):
    return (trace["calls"], trace["trivial_gcd"], trace["gcd_memo_entries"], trace["cache_entries"])


def per_layer(workload, seed, name, ref):
    deadline = time.monotonic() + DEADLINE_S
    SPANS_DIR.mkdir(exist_ok=True)
    attempted = failed = 0
    plain = []
    traced = []
    seed = sweep_seed(seed, 0)
    try:
        # alternate, so that drift in machine speed falls on both sides
        for i in range(2):
            plain.append(run_sweep(workload, seed, deadline))
            traced.append(run_sweep(workload, seed, deadline, SPANS_DIR / ("spans-%s-%d.jsonl" % (name, i))))
    except Deadline:
        print("trace run passed its deadline", file=sys.stderr)
    for result in plain + traced:
        a, f, _ = judge(result, workload, seed, ref)
        attempted += a
        failed += f
    if len(traced) < 2 or failed or any("trace" not in r for r in traced):
        return False, max(attempted, ref["checks"]), max(failed, 1), {}
    identical = trace_identity(traced[0]["trace"]) == trace_identity(traced[1]["trace"])
    if not identical:
        print("counts differ between two traced runs of the same code", file=sys.stderr)

    first = traced[0]["trace"]
    calls = first["calls"]

    def self_time(span):
        return statistics.median(r["trace"]["self_s"].get(span, 0.0) for r in traced)

    traced_total = statistics.median(r["setup_s"] + r["sweep_s"] for r in traced)
    values = {}
    for span in SPAN_METRICS:
        values[span + ".calls"] = (calls.get(span, 0), "count")
        values[span + ".self_s"] = (self_time(span), "s")
    gcd_calls = calls.get("ratfun.poly_gcd", 0)
    values["ratfun.poly_gcd.share"] = (self_time("ratfun.poly_gcd") / traced_total, "frac")
    values["ratfun.poly_gcd.trivial_frac"] = (first["trivial_gcd"] / gcd_calls if gcd_calls else 0.0, "frac")
    values["ratfun.gcd_memo.entries"] = (first["gcd_memo_entries"], "count")
    for span in COUNT_METRICS:
        values[span + ".calls"] = (calls.get(span, 0), "count")
    for kind in CACHE_KINDS:
        values["symfun.cache.entries." + kind] = (first["cache_entries"].get(kind, 0), "count")
    for d in BUILD_DEGREES:
        build = [r["build_s"][d] if d < len(r["build_s"]) else 0.0 for r in plain]
        values["families.macdonald_build_s.d%d" % d] = (statistics.median(build), "s")
    traced_sweep = statistics.median(r["sweep_s"] for r in traced)
    plain_sweep = statistics.median(r["sweep_s"] for r in plain)
    values["trace.overhead_frac"] = (traced_sweep / plain_sweep - 1.0, "frac")
    for key, n in source_lines().items():
        values[key] = (n, "count")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return identical, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qtsym" / "cli.py").is_file():
        print("error: no qtsym sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ref = gate.load_reference()[workload.key]
    if args.trace:
        correct, attempted, failed, metrics = per_layer(workload, args.seed, args.workload, ref)
    else:
        attempted, failed, metrics = end_to_end(workload, args.seed, args.seconds, ref)
        correct = True
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
