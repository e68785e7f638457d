"""One cold verification sweep in this interpreter; prints one JSON line.

    python3 perfbench/sweep.py --degrees D --points P --seed S
        [--spans FILE] -- verify SUITE [options...]

Set-up imports qtsym and builds, through the public `macdonald_M`, the
Macdonald table of every degree 0..D in every field the sweep uses.  The
sweep then runs `qtsym.cli.main` on the given arguments with its output
captured, as a user's `qtsym verify` run would.  With --spans, calls into
each layer are traced from set-up on and the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degrees", type=int, required=True)
    parser.add_argument("--points", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", help="trace the layers and write the spans to this file")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qtsym
    from qtsym import cli, families, ratfun, symfun

    tracer = None
    if args.spans:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if args.points:
        rng = random.Random(args.seed)
        fields = [ratfun.random_point(rng) for _ in range(args.points)]
    else:
        fields = [ratfun.SYMBOLIC]
    build_s = [0.0] * (args.degrees + 1)
    for field in fields:
        for d in range(args.degrees + 1):
            tb = time.perf_counter()
            families.macdonald_M(qtsym.Partition([1] * d), field=field)
            build_s[d] += time.perf_counter() - tb
    setup_s = time.perf_counter() - t0

    out = io.StringIO()
    ts = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    sweep_s = time.perf_counter() - ts

    result = {
        "exit": code,
        "stdout": out.getvalue(),
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "build_s": build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "trivial_gcd": tracer.trivial_gcd,
            "gcd_memo_entries": len(ratfun._GCD_MEMO),
            "cache_entries": dict(Counter(key[0] for key in symfun._CACHE)),
        }
        tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
