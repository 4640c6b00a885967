"""The perf gates compare against their baseline, never against themselves.

Both gate scripts used to write ``BENCH_<name>.json`` before reading the
``--check-against`` file; with the default output directory those are the
same file, so the gate compared a run with its own output and always
passed.  Here the output directory and the baseline coincide, and the
baseline demands an impossible speed: the gate must fail and leave the
baseline untouched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

GATES = {
    "kernel": (
        "bench_kernel_hotpath.py",
        ["--events", "2000", "--pca-runs", "1", "--pca-duration", "60", "--best-of", "1"],
        {"events_per_s": 1e15, "runs_per_s": 1e15, "pca_duration_s": 60.0},
    ),
    "campaign": (
        "bench_campaign_throughput.py",
        ["--duration", "5", "--shards", "2", "--skip-parallel", "--best-of", "1"],
        {"run_duration_s": 5.0, "serial_runs_per_s": 1e15, "sharded": {"runs_per_s": 1e15}},
    ),
}


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_fails_against_unreachable_baseline_it_shares_a_path_with(tmp_path, name):
    script, arguments, record = GATES[name]
    baseline = tmp_path / f"BENCH_{name}.json"
    baseline.write_text(json.dumps(record), encoding="utf-8")
    before = baseline.read_bytes()
    env = dict(os.environ, BENCH_DIR=str(tmp_path),
               PYTHONPATH=str(REPO / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    completed = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / script), *arguments,
         "--check-against", str(baseline)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 1, completed.stdout + completed.stderr
    assert "REGRESSION" in completed.stdout
    assert baseline.read_bytes() == before
