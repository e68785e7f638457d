"""The benchmark's own tests: tiny sweeps of every workload, and the gate.

    python3 -m pytest -q perfbench
"""

import json
import time

import pytest

import gate
import run
from workloads import TINY, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _sweep(name, seed=1):
    return run.run_sweep(TINY[name], seed, time.monotonic() + 120)


@pytest.fixture(scope="module")
def reference():
    return gate.load_reference()


@pytest.fixture(scope="module")
def deigen_stream():
    result = _sweep("deigen-sym")
    assert result["exit"] == 0
    return result["stdout"]


def test_every_workload_has_a_reference(reference):
    for w in list(WORKLOADS.values()) + list(TINY.values()):
        assert w.key in reference
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_sweep_passes_the_gate(name, reference):
    w = TINY[name]
    for seed in (1, 2):
        result = _sweep(name, seed)
        attempted, failed, elapsed = run.judge(result, w, seed, reference[w.key])
        assert (attempted, failed) == (reference[w.key]["checks"], 0)
        assert len(elapsed) == attempted
        assert result["setup_s"] > 0 and result["sweep_s"] > 0
        assert len(result["build_s"]) == w.degrees + 1


def test_tiny_end_to_end_reports_every_metric(reference):
    w = TINY["theorem-num"]
    attempted, failed, metrics = run.end_to_end(w, 3, 1, reference[w.key])
    checks = reference[w.key]["checks"]
    assert failed == 0 and attempted % checks == 0 and attempted >= run.MIN_SWEEPS * checks
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_tiny_trace_counts_repeat_exactly(reference):
    w = TINY["deigen-sym"]
    identical, attempted, failed, metrics = run.per_layer(w, 1, "tiny-deigen-sym", reference[w.key])
    assert identical and failed == 0 and attempted == 4 * reference[w.key]["checks"]
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["macops.apply_DN.N2.calls"]["value"] > 0
    assert metrics["ratfun.poly_gcd.calls"]["value"] > 0
    assert metrics["macops.A_k_apply.k1.calls"]["value"] == 0


def test_numeric_trace_makes_no_gcd(reference):
    w = TINY["theorem-num"]
    identical, _, failed, metrics = run.per_layer(w, 1, "tiny-theorem-num", reference[w.key])
    assert identical and failed == 0
    assert metrics["ratfun.poly_gcd.calls"]["value"] == 0
    assert metrics["macops.apply_DN.N1.calls"]["value"] == 0
    assert metrics["macops.A_k_apply.k1.calls"]["value"] > 0


def _edit_first_report(text, edit):
    lines = text.splitlines()
    obj = json.loads(lines[0])
    edit(obj)
    lines[0] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def test_gate_accepts_the_real_stream(deigen_stream, reference):
    ref = reference[TINY["deigen-sym"].key]
    assert gate.judge(ref, 0, deigen_stream)[:2] == (ref["checks"], 0)


@pytest.mark.parametrize("edit", [
    lambda o: o.update(status="fail"),
    lambda o: o["parameters"].update(N="3"),
    lambda o: o.update(witness="mismatch"),
])
def test_gate_rejects_a_corrupted_stream(deigen_stream, reference, edit):
    ref = reference[TINY["deigen-sym"].key]
    bad = _edit_first_report(deigen_stream, edit)
    assert gate.judge(ref, 0, bad)[:2] == (ref["checks"], ref["checks"])


def test_gate_rejects_a_bad_exit_or_summary(deigen_stream, reference):
    ref = reference[TINY["deigen-sym"].key]
    assert gate.judge(ref, 1, deigen_stream)[1] == ref["checks"]
    assert gate.judge(ref, 0, deigen_stream.replace('"pass": 7', '"pass": 8'))[1] == ref["checks"]
    assert gate.judge(ref, 0, "not json\n")[1] == ref["checks"]


def test_gate_checks_the_numeric_point(reference):
    w = TINY["theorem-num"]
    result = _sweep("theorem-num", seed=5)
    other = gate.expected_points(6, w.points)
    assert run.judge(result, w, 5, reference[w.key])[1] == 0
    assert gate.judge(reference[w.key], 0, result["stdout"], other)[1] == reference[w.key]["checks"]


def test_tail_index_leaves_ten_checks_beyond_it():
    for n in (11, 37, 135):
        ordered = list(range(n))
        assert sum(1 for x in ordered if x > ordered[run.tail_index(n)]) == 10
