"""The benchmark's workloads: which `qtsym verify` sweep each one runs.

Every workload is a closed loop with one client: a fresh interpreter runs
the sweep's checks one after another, so the in-memory caches start cold,
as they do for a command-line user.  Symbolic sweeps are fully determined
by their options and ignore the seed; the numeric sweep takes its sample
points from the seed, exactly as `qtsym verify --mode numeric --seed`
does.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    suite: str
    options: tuple
    # Macdonald tables of degrees 0..degrees are read by the sweep and
    # built during set-up.
    degrees: int
    # numeric sample points per sweep; 0 means the symbolic field Q(q,t)
    points: int = 0

    @property
    def key(self):
        """Identifies the sweep's certified output, independent of the seed."""
        return " ".join(self.base_argv() + (("--points", str(self.points)) if self.points else ()))

    def base_argv(self):
        return ("verify", self.suite) + tuple(self.options)

    def argv(self, seed):
        if not self.points:
            return list(self.base_argv())
        return list(self.base_argv()) + [
            "--mode", "numeric", "--seed", str(seed), "--points", str(self.points),
        ]


WORKLOADS = {
    # finite-N operator: apply_DN dominates the checks
    "deigen-sym": Workload("deigen", ("--N", "4", "--max-weight", "4"), degrees=4),
    # Gram-Schmidt Macdonald build in set-up, stable operators A_k in checks
    "theorem-sym": Workload("theorem", ("--max-degree", "5", "--max-k", "3"), degrees=5),
    # the same structural code over Fraction scalars: no gcd at all
    "theorem-num": Workload("theorem", ("--max-degree", "7", "--max-k", "3"), degrees=7, points=1),
}

# Small versions of each workload, for the benchmark's own smoke tests.
TINY = {
    "deigen-sym": Workload("deigen", ("--N", "2", "--max-weight", "2"), degrees=2),
    "theorem-sym": Workload("theorem", ("--max-degree", "3", "--max-k", "2"), degrees=3),
    "theorem-num": Workload("theorem", ("--max-degree", "3", "--max-k", "2"), degrees=3, points=2),
}
