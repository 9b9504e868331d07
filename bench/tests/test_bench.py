"""Smoke tests of the benchmark harness at tiny sizes.

Run from the root of the repository with::

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from harness import ReferenceClock, latency_summary, position_medians  # noqa: E402
from workloads import TINY_SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts that the program's inputs fix exactly, per set-up plus one round.
EXACT_COUNTS = [
    "ot.exact_ot.calls",
    "ot.linprog.simplex_iters",
    "ot.linprog.iters_per_solve",
    "ot.sinkhorn.calls",
    "ot.sinkhorn.iters",
    "bank.eval_G_many.calls",
    "bank.eval_G_many.flops",
    "nets.forward_cached.calls",
    "nets.forward.flops_per_sample",
    "nets.backward.calls",
    "nets.Adam.step.calls",
    "adversarial.skipped_steps",
]


def _run(capsys, monkeypatch, tmp_path, workload, trace, seed=1):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY_SIZES[workload]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _table(lines):
    """``name -> (value, unit)`` from the metric table printed above the result."""
    out = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.lstrip().startswith("failed:"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def test_spec_workloads_match_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_metric_with_unit(capsys, monkeypatch, tmp_path, workload):
    lines, result = _run(capsys, monkeypatch, tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())

    table = _table(lines)
    for gated, name in WORKLOADS[workload].gated.items():
        assert table[name][1] == expected[gated]
    assert table["error_rate"] == (0.0, "1")


# Layer metrics each workload must move (> 0) and must leave at 0.
EXERCISED = {
    "ref-targets-8x8": (
        ["ot.linprog.simplex_iters", "ot.sinkhorn.iters", "bank.build_bank.self_s",
         "bank.eval_G_many.flops", "erm.solve_regularized.s"],
        ["nets.forward_cached.calls", "subcover.p_eps_k_closed.s"],
    ),
    "pairwise-6x6-blobs": (
        ["ot.pairwise_wasserstein.s", "bank.select_cover_indices.s",
         "subcover.p_eps_k_monte_carlo.s", "subcover.nested_wasserstein.self_s"],
        ["ot.sinkhorn.calls", "nets.forward_cached.calls"],
    ),
    "train-maxnet-8x8": (
        ["nets.forward.flops_per_sample", "nets.backward.calls", "nets.Adam.step.calls",
         "nets.cylinder_field_batch.self_s", "adversarial.adversary_step_grads.self_s"],
        ["ot.sinkhorn.calls", "subcover.p_eps_k_closed.s"],
    ),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(capsys, monkeypatch, tmp_path, workload):
    _, result = _run(capsys, monkeypatch, tmp_path, workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    values = {n: m["value"] for n, m in result["metrics"].items()}
    moved, idle = EXERCISED[workload]
    assert all(values[n] > 0 for n in moved), {n: values[n] for n in moved}
    assert all(values[n] == 0 for n in idle), {n: values[n] for n in idle}
    report = json.loads(next(tmp_path.glob(f"BENCH_{workload}_*_trace1.json")).read_text())
    assert report["spans"], "the traced run keeps its spans"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat_across_runs(capsys, monkeypatch, tmp_path, workload):
    _, first = _run(capsys, monkeypatch, tmp_path, workload, trace=1, seed=2)
    _, second = _run(capsys, monkeypatch, tmp_path, workload, trace=1, seed=2)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "ref-targets-8x8"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    s = latency_summary(list(range(100)))
    assert s["tail"] == 89 and sum(x > s["tail"] for x in range(100)) == 10
    assert s["tail_percentile"] == 90.0 and s["samples"] == 100
    assert latency_summary([3.0, 1.0, 2.0])["tail"] == 3.0


def test_position_medians_take_the_median_repeat_per_input():
    assert position_medians([[1, 30], [3, 10], [2, 20]]) == [2, 20]


def test_reference_clock_scales_work_and_leaves_out_readings(monkeypatch):
    now = [0]
    monkeypatch.setattr(harness.time, "perf_counter_ns", lambda: now[0])
    kernel_ms = [2.0]

    def kernel():
        now[0] += int(kernel_ms[0] * 1e6)

    clock = ReferenceClock(kernel, nominal_ms=1.0)
    with clock.span() as took:
        now[0] += 10_000_000  # 10 ms of work, then the machine slows
        kernel_ms[0] = 4.0
        clock.read()  # a reading inside the span
        now[0] += 20_000_000
    assert took["raw_s"] == pytest.approx(0.030)
    # between readings of 2 and 4 ms, then of 4 and 4 ms
    assert took["s"] == pytest.approx(0.010 / 3 + 0.020 / 4)
    assert clock.readings_ms == [2.0, 4.0, 4.0]
