"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Runs every workload once at toy size, plain and traced, and checks that
each metric prints with its unit and that nothing failed::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def run(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_spec():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()


@pytest.mark.parametrize("workload", spec.ALL)
def test_plain_run_reports_every_end_to_end_metric(workload):
    code, lines, result = run(workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    for metric in spec.END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0
    printed = "\n".join(lines)
    for name, unit in spec.NAMED[workload]:
        assert any(line.split()[:1] == [name] for line in lines), name
    assert "error_rate" in printed and " 0 ratio" in printed


@pytest.mark.parametrize("workload", spec.ALL)
def test_traced_run_reports_every_layer_metric(workload):
    code, lines, result = run(workload, trace=1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {layer.name for layer in spec.PER_LAYER}
    units = spec.layer_units()
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert entry["value"] >= 0
    assert result["metrics"]["core.solve_s"]["value"] > 0
    assert any(line.startswith("spans, per episode") for line in lines)


def test_same_seed_gives_same_outputs():
    first = run("dataplane", trace=0, seed=5)[1]
    again = run("dataplane", trace=0, seed=5)[1]
    pick = lambda lines: [l for l in lines if "fleet_p99_ms" in l or "digest" in l]
    assert len(pick(first)) == 2 and pick(first) == pick(again)


def test_dataplane_episode_matches_run_soak(tmp_path):
    """The benchmark assembles the soak itself; it must equal run_soak's."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import tracing
    import workloads
    from repro.soak import run_soak

    size = workloads.TOY["dataplane"]
    episode = workloads.dataplane(11, size, tracing.NullTracer(), tmp_path)
    result = run_soak(workloads.soak_config(11, size), tmp_path / "soak")
    assert episode.digest == result.ledger.fingerprint()
