"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Each run must pass its output checks and report every metric that
BENCHMARK.json names, with its unit. Every workload BENCHMARK.json names
must exist. The checks themselves must reject a tampered output, and the
benchmark must fail without polamp's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import workloads  # noqa: E402

# Every workload the benchmark can run, including any BENCHMARK.json leaves out.
WORKLOADS = list(workloads.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_checks_pass(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = bench(
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
        "--small", "--spans", str(spans),
    )
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values.values())
    if trace:
        assert values["trace.overhead_ratio"] > 0 and values["cli.sloc"] > 0
        assert spans.stat().st_size > 0
    else:
        assert all(v > 0 for v in values.values())

    record = json.loads(record_line)["record"]
    assert record["fail_ratio"] == 0 and record["workload_seed"] == 7
    assert record["loadavg_1m_start"] >= 0 and record["src_sha256"]


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _one_op(name, tmp_path):
    workload = workloads.WORKLOADS[name](np.random.default_rng(3), tmp_path, True)
    inputs = workload.next_input()
    out = workload.run(inputs)
    assert workload.check(inputs, out) is None
    return workload, inputs, out


def test_verify_check_rejects_a_missing_erratum(tmp_path):
    workload, inputs, out = _one_op("verify", tmp_path)
    out.text = "\n".join(ln for ln in out.text.splitlines() if "Eq72" not in ln) + "\n"
    assert "errata" in workload.check(inputs, out)


@pytest.mark.parametrize("name", ["chain_shallow", "chain_deep"])
def test_chain_check_rejects_a_moved_count(name, tmp_path):
    workload, inputs, out = _one_op(name, tmp_path)
    lines = out.text.splitlines()
    first = 2**workload.n_stages  # first sample line, sequence ++...+
    head, count, tail = lines[first].partition(" count=")
    n, _, rest = tail.partition(" ")
    lines[first] = f"{head}{count}{int(n) + 1} {rest}"
    out.text = "\n".join(lines) + "\n"
    assert "counts sum" in workload.check(inputs, out)


def test_scalar_check_rejects_a_wrong_amplitude(tmp_path):
    workload, inputs, out = _one_op("scalar_api", tmp_path)
    out[0] = (out[0][0] * 1j, *out[0][1:])
    assert "amplitude" in workload.check(inputs, out)


def test_fails_without_polamp_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
