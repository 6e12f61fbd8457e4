"""Tests of the benchmark itself: tracing must not change verdicts, layer self
times must account for the traced time, host-speed bursts must run inside a
timed block and leave no timer behind, and the printed metrics must match
BENCHMARK.json.

    python3 -m pytest -q bench/tests
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import luequiv  # noqa: E402
import luequiv.cli  # noqa: E402
import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# wrapper bookkeeping outside the spans; measured well under 1% on this corpus
SELF_TIME_SLACK = 0.02


def _tiny_corpus(tmp_path):
    pairs = []
    for name, cycles in (("planted", 1), ("degenerate", 1), ("not_found", 1)):
        w = workloads.WORKLOADS[name]
        pairs += workloads.build_corpus(luequiv, w, 11, cycles, str(tmp_path / name))
    return pairs


def _targets_now():
    return {
        (owner, attr): getattr(tracing._resolve(owner), attr, None)
        for _, owner, attr in tracing.TARGETS
    }


def test_traced_and_untraced_runs_agree_and_self_times_add_up(tmp_path):
    pairs = _tiny_corpus(tmp_path)
    before = _targets_now()
    tracer = tracing.Tracer()
    traced_total = 0.0
    for k, pair in enumerate(pairs):
        _, code_u, out_u = run.run_check(luequiv.cli, pair)
        with tracer.installed():
            dt, code_t, out_t = run.run_check(luequiv.cli, pair, tracer, k)
        traced_total += dt
        assert _targets_now() == before, "a wrapper outlived its traced run"
        assert (code_u, out_u) == (code_t, out_t)
        assert workloads.judge(pair, code_t, out_t)[1] is None
    assert tracer.absent == []
    totals = tracer.layer_totals()
    self_sum = sum(t["self_s"] for t in totals.values())
    assert abs(self_sum - traced_total) <= SELF_TIME_SLACK * traced_total
    metrics = tracing.layer_metrics(totals, len(pairs), 0.0)
    assert metrics["equivalence.block_align_passes"][0] > 0
    assert metrics["equivalence.line_evals"][0] > 0
    assert metrics["linalg.svd_calls"][0] > 0


def test_missing_target_is_absent_and_reports_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("equivalence.line", "luequiv.equivalence", "no_such_function"),),
    )
    monkeypatch.delattr(luequiv.equivalence.PhaseContext, "eval_coord_batch")
    monkeypatch.delattr(luequiv.equivalence.BlockContext, "eval_coord_batch")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["equivalence.line"]
    metrics = tracing.layer_metrics(tracer.layer_totals(), 1, 0.0)
    assert metrics["equivalence.line_evals"][0] == 0


def test_probe_bursts_run_inside_the_block_and_are_taken_out():
    probe = hostspeed.Probe("python")
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with probe.armed():
        while time.perf_counter() - t0 < 0.2:
            pass
    wall = time.perf_counter() - t0
    assert probe.bursts >= 5
    assert 0.0 < probe.burst_s < wall
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.slowdown() > 0.0


def test_judge_rejects_a_wrong_witness(tmp_path):
    pair = workloads.build_corpus(
        luequiv, workloads.WORKLOADS["planted"], 5, 1, str(tmp_path)
    )[0]
    _, code, out = run.run_check(luequiv.cli, pair)
    assert workloads.judge(pair, code, out) == (True, None)
    doc = json.loads(out)
    factor = doc["witness"]["factors"][0]
    factor["data"] = [[-re, -im] if i == 1 else [re, im] for i, (re, im) in enumerate(factor["data"])]
    verified, failure = workloads.judge(pair, code, json.dumps(doc))
    assert not verified and failure is not None
    assert workloads.judge(pair, 3, out)[1] == "exit code 3 for status EQUIVALENT"
    assert workloads.judge(pair, ValueError("boom"), "")[1].startswith("raised")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "planted",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
