"""Wall-clock benchmarks of Algorithm 1.

Pins the headline claim of the lazy-greedy fast path: ``solve()`` on
``azure_scenario(seed=0)`` must run at least 3x faster than the pre-fast-path
baseline while still producing the golden advertisement configuration, and
its perf counters must show the heap actually skipped the work a naive
greedy would have done.

A second gate covers the re-solve after an observation round, where every
UG carries learned state: it must stay within 3x of the same world's cold
solve and never fall back to rebuilding candidate sets.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.perf import PERF
from repro.scenario import azure_scenario, prototype_scenario
from repro.telemetry import telemetry_session

try:  # LP optimality envelope (needs scipy; see repro.optimality.gates)
    import scipy  # noqa: F401

    from repro.optimality import assert_lp_sound

    HAVE_LP_GATE = True
except ImportError:  # pragma: no cover - scipy installed in CI bench jobs
    HAVE_LP_GATE = False

#: Measured before the evaluation fast path landed (same machine class as
#: CI): dense per-pair scoring with no latency-matrix precompute, no
#: incremental prefix scans, and no vectorized marginals.
PRE_PR_BASELINE_S = 60.9

GOLDEN_PATH = Path(__file__).parent.parent / "tests" / "data" / "golden_solve_configs.json"
LEARNED_GOLDEN_PATH = (
    Path(__file__).parent.parent / "tests" / "data" / "golden_learned_configs.json"
)

#: Ceiling on (learned re-solve time) / (cold solve time) for the same
#: world: the learned rows' incremental scan must keep the re-solve within
#: a small constant of the vectorized cold path.
LEARNED_OVER_COLD_MAX = 3.0


def _config_pairs(config):
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


def test_bench_solve_azure(benchmark):
    golden = json.loads(GOLDEN_PATH.read_text())["azure_seed0"]
    scenario = azure_scenario(seed=0)

    journals = []
    orchestrators = []

    def run():
        PERF.reset()
        orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=golden["budget"]))
        # Telemetry live during the timed region: the 3x gate therefore
        # also bounds tracing overhead on the solver's hot path.
        with telemetry_session("bench-solve", include_timings=True) as journal:
            start = time.perf_counter()
            config = orchestrator.solve()
            elapsed = time.perf_counter() - start
        journals.append(journal)
        orchestrators.append(orchestrator)
        return config, elapsed

    config, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    # Correctness first: the fast path must not change the solved config.
    pairs = sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )
    assert pairs == golden["pairs"]

    # Speed: at least 3x over the pre-fast-path baseline.
    assert elapsed < PRE_PR_BASELINE_S / 3, (
        f"solve() took {elapsed:.1f}s; fast path should beat "
        f"{PRE_PR_BASELINE_S / 3:.1f}s"
    )

    # Laziness: the heap must have skipped most naive re-evaluations.
    lazy = PERF.counter("orchestrator.marginal_evals").value
    naive = PERF.counter("orchestrator.naive_marginal_evals").value
    assert 0 < lazy < naive
    lat_stats = PERF.cache("evaluator.latency_matrix")

    benchmark.extra_info["solve_s"] = round(elapsed, 3)
    benchmark.extra_info["speedup_vs_baseline"] = round(
        PRE_PR_BASELINE_S / elapsed, 2
    )
    benchmark.extra_info["marginal_evals"] = lazy
    benchmark.extra_info["naive_marginal_evals"] = naive
    benchmark.extra_info["laziness_ratio"] = round(lazy / naive, 4)
    benchmark.extra_info["latency_matrix_hit_rate"] = round(
        lat_stats.hit_rate, 4
    )
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark.extra_info["backend"] = orchestrators[-1].evaluator.backend.name

    # Optimality envelope: the greedy's benefit must sit at or below the LP
    # relaxation of the selection problem at its distinct-peering budget —
    # a speed regression that corrupts Eq.-2 evaluation trips this.
    if HAVE_LP_GATE:
        envelope = assert_lp_sound(orchestrators[-1].evaluator, config)
        benchmark.extra_info["benefit"] = round(envelope.benefit, 4)
        benchmark.extra_info["lp_bound"] = round(envelope.bound, 4)
        benchmark.extra_info["lp_budget"] = envelope.budget
        benchmark.extra_info["optimality_utilization"] = round(
            envelope.utilization, 4
        )
    else:
        benchmark.extra_info["lp_bound"] = "scipy unavailable"

    # One prefix_scan span per allocated prefix landed in the journal.
    journal = journals[-1]
    scans = [s for s in journal.spans() if s["name"] == "orchestrator.prefix_scan"]
    assert len(scans) >= len(config.prefixes)
    benchmark.extra_info["journal_records"] = len(journal)


def test_bench_solve_learned(benchmark):
    golden = json.loads(LEARNED_GOLDEN_PATH.read_text())["prototype30_seed0"]

    def episode():
        """One learn round on a freshly built world: cold solve, observe,
        learned re-solve (the Algorithm 1 outer loop).

        Returns both configs and both solve times; the learned solve's
        perf counters are left in ``PERF``.
        """
        scenario = prototype_scenario(seed=golden["seed"], n_ugs=golden["n_ugs"])
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=golden["budget"])
        )
        start = time.perf_counter()
        cold_config = orchestrator.solve()
        cold_s = time.perf_counter() - start
        orchestrator.execute_and_observe(cold_config)
        assert len(orchestrator.model.learned_ug_ids) == len(scenario.user_groups)
        PERF.reset()
        start = time.perf_counter()
        learned_config = orchestrator.solve()
        learned_s = time.perf_counter() - start
        return cold_config, cold_s, learned_config, learned_s

    def run():
        return [episode() for _ in range(3)]

    episodes = benchmark.pedantic(run, rounds=1, iterations=1)
    # Fastest of three of each: every time is a single solve, so one host
    # hiccup would otherwise decide the gate.
    cold_s = min(e[1] for e in episodes)
    learned_s = min(e[3] for e in episodes)
    cold_config, _, learned_config, _ = episodes[-1]

    # Correctness first: both solves reproduce the golden rounds.
    assert _config_pairs(cold_config) == golden["rounds"][0]
    assert _config_pairs(learned_config) == golden["rounds"][1]
    # Learned rows are answered by the scan itself: no candidate-set
    # rebuilds and no Eq.-2 memo traffic.
    assert PERF.cache("routing_model.candidates").misses == 0
    assert PERF.cache("evaluator.expected_latency").misses == 0
    assert PERF.counter("evaluator.scan_slow_queries").value > 0

    ratio = learned_s / cold_s
    benchmark.extra_info["cold_solve_s"] = round(cold_s, 4)
    benchmark.extra_info["learned_solve_s"] = round(learned_s, 4)
    benchmark.extra_info["learned_over_cold"] = round(ratio, 2)
    assert ratio <= LEARNED_OVER_COLD_MAX, (
        f"learned re-solve took {learned_s:.3f}s, {ratio:.1f}x the cold "
        f"solve's {cold_s:.3f}s (gate {LEARNED_OVER_COLD_MAX}x)"
    )
