"""Correctness gate: a sweep's report stream must equal the reference.

The canonical form of a stream keeps every report's name, parameters,
status and witness and every summary's pass/fail counts, and drops the
`elapsed` timings.  In numeric mode each report names its sample point;
the gate checks it against the point the seed must produce and then
replaces it by the point's index, so one digest serves every seed.

Run this file to record the references of the current code:
    python3 perfbench/gate.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The sampling rule of `qtsym.ratfun.random_point`: four distinct primes
# give q = a/b and t = c/d.  A change to it changes the workload's inputs.
_POINT_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def expected_points(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pa, pb, pc, pd = rng.sample(_POINT_PRIMES, 4)
        out.append("q=%s,t=%s" % (Fraction(pa, pb), Fraction(pc, pd)))
    return out


def parse_stream(text, points=()):
    """Split CLI output into (canonical lines, per-check elapsed seconds).

    Raises ValueError when a line is not a JSON object.
    """
    canonical = []
    elapsed = []
    block = 0
    for line in text.splitlines():
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("report line is not an object: %r" % line)
        if "summary" in obj:
            s = obj["summary"]
            canonical.append(json.dumps({"summary": {"pass": s.get("pass"), "fail": s.get("fail")}}, sort_keys=True))
            block += 1
            continue
        params = dict(obj.get("parameters", {}))
        if block < len(points) and params.get("point") == points[block]:
            params["point"] = "#%d" % block
        canonical.append(json.dumps(
            {"name": obj.get("name"), "parameters": params,
             "status": obj.get("status"), "witness": obj.get("witness")},
            sort_keys=True,
        ))
        elapsed.append(float(obj.get("elapsed", 0.0)))
    return canonical, elapsed


def digest(canonical):
    h = hashlib.sha256()
    for line in canonical:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def judge(ref, exit_code, text, points=()):
    """Return (attempted, failed, elapsed) for one sweep.

    attempted is the reference's number of checks.  A nonzero exit, output
    that does not parse, or a digest that differs from the reference fails
    every check; otherwise each report whose status is not "pass" fails.
    """
    attempted = ref["checks"]
    if exit_code != 0:
        return attempted, attempted, []
    try:
        canonical, elapsed = parse_stream(text, points)
    except ValueError:
        return attempted, attempted, []
    if digest(canonical) != ref["digest"]:
        return attempted, attempted, elapsed
    failed = sum(1 for line in canonical if json.loads(line).get("status") not in (None, "pass"))
    return attempted, failed, elapsed


def _record():
    import contextlib
    import io

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(root / "src"))
    from qtsym import cli, symfun
    from workloads import TINY, WORKLOADS

    seed = 1
    out = {}
    for w in list(WORKLOADS.values()) + list(TINY.values()):
        symfun.clear_caches()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(w.argv(seed))
        if code != 0:
            raise SystemExit("sweep %r exited with %d" % (w.key, code))
        canonical, elapsed = parse_stream(buf.getvalue(), expected_points(seed, w.points))
        out[w.key] = {"digest": digest(canonical), "checks": len(elapsed)}
        print("%s: %d checks" % (w.key, len(elapsed)), file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _record()
