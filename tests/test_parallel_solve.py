"""Differential verification: pool solves vs the in-process solve.

A pool solve (``repro.parallel``) runs the same driver,
``PainterOrchestrator._solve``, over row state held in forked workers, and
promises **bit-identical** results for every worker count: same accepted
pairs and accepted marginals, same benefit curves, same learned-model
evolution, same journal span structure.  This suite is the proof:

* golden tests pin serial and parallel output to the stored
  ``tests/data/golden_solve_configs.json`` fixtures (azure at the slow tier);
* differential tests run the full learning loop serially and sharded and
  compare every float the iterations record, plus the routing model's final
  preference snapshot (exercising mid-solve ``observe()`` epoch bumps);
* a journal test requires the traced span stream to be byte-identical;
* fault tests kill workers (directly and through a ``WorkerCrash`` chaos
  schedule) and require the serial fallback to produce the same answer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.parallel import (
    ParallelSolver,
    WorkerPoolError,
    arm_worker_faults,
    disable_parallel,
    enable_parallel,
    parallel_enabled,
)
from repro.perf import PERF
from repro.scenario import azure_scenario, prototype_scenario, tiny_scenario
from repro.telemetry import telemetry_session
from repro.telemetry.metrics import Histogram

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_solve_configs.json"


def config_pairs(config):
    """Canonical [prefix, peering] pair list for comparison."""
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


def curve_tuples(orchestrator):
    """The budget curve as exact float tuples (no tolerance)."""
    return [
        (
            point.prefixes_used,
            point.pairs_used,
            point.estimated_benefit,
            point.upper_benefit,
            point.lower_benefit,
            point.mean_benefit,
        )
        for point in orchestrator.budget_curve
    ]


def model_snapshot(orchestrator):
    """A comparable image of the routing model's learned preferences."""
    return sorted(
        orchestrator.model.snapshot_preferences().items(), key=repr
    )


def iteration_tuples(result):
    """Every float and count an IterationRecord pins down, exactly."""
    return [
        (
            record.iteration,
            config_pairs(record.config),
            record.expected_benefit,
            record.realized_benefit,
            record.upper_benefit,
            record.estimated_benefit,
            record.lower_benefit,
            record.new_preferences,
        )
        for record in result.iterations
    ]


@pytest.fixture()
def accepted_marginals(monkeypatch):
    """Every accepted marginal, in accept order, as exact float hex strings.

    Records the values observed into the ``orchestrator.marginal_benefit``
    histogram (one observation per accepted pair).
    """
    recorded = []
    observe = Histogram.observe

    def recording_observe(self, value):
        if self.name == "orchestrator.marginal_benefit":
            recorded.append(float(value).hex())
        observe(self, value)

    monkeypatch.setattr(Histogram, "observe", recording_observe)
    return recorded


def take(recorded):
    """Return and clear the values recorded so far."""
    values = list(recorded)
    recorded.clear()
    return values


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenParallel:
    """Parallel solves reproduce the stored serial goldens bit-for-bit."""

    @pytest.mark.parametrize(
        "name,seed,workers",
        [
            ("tiny_seed0", 0, 2),
            ("tiny_seed3", 3, 2),
            ("tiny_seed3", 3, 4),
        ],
    )
    def test_tiny_matches_golden(self, goldens, name, seed, workers):
        golden = goldens[name]
        with PainterOrchestrator(
            tiny_scenario(seed=seed),
            OrchestratorConfig(prefix_budget=golden["budget"], workers=workers),
        ) as orchestrator:
            config = orchestrator.solve()
        assert config_pairs(config) == golden["pairs"]

    def test_prototype_matches_golden(self, goldens):
        golden = goldens["prototype_seed0"]
        with PainterOrchestrator(
            prototype_scenario(seed=0),
            OrchestratorConfig(prefix_budget=golden["budget"], workers=2),
        ) as orchestrator:
            config = orchestrator.solve()
        assert config_pairs(config) == golden["pairs"]

    @pytest.mark.slow
    def test_azure_matches_golden(self, goldens):
        golden = goldens["azure_seed0"]
        with PainterOrchestrator(
            azure_scenario(seed=0),
            OrchestratorConfig(prefix_budget=golden["budget"], workers=4),
        ) as orchestrator:
            config = orchestrator.solve()
        assert config_pairs(config) == golden["pairs"]


class TestDifferentialSolve:
    """Serial vs sharded single solves: pairs and curves bit-identical."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_solve_and_curve_identical(self, seed, workers, accepted_marginals):
        scenario = tiny_scenario(seed=seed)
        serial = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=5))
        serial_config = serial.solve(record_curve=True)
        serial_marginals = take(accepted_marginals)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=5, workers=workers)
        ) as parallel:
            parallel_config = parallel.solve(record_curve=True)
            assert config_pairs(parallel_config) == config_pairs(serial_config)
            assert curve_tuples(parallel) == curve_tuples(serial)
            assert take(accepted_marginals) == serial_marginals
            assert serial_marginals

    def test_parallel_path_actually_engaged(self):
        PERF.reset()
        with PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            orchestrator.solve()
            assert PERF.counter("parallel.solve_calls").value == 1
            assert PERF.counter("parallel.fallbacks").value == 0
            assert orchestrator._parallel is not None
            assert orchestrator._parallel.pool.alive()

    def test_disabled_peering_solves_on_the_pool(self):
        scenario = tiny_scenario(seed=3)
        serial = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
        disabled = serial.solve().peerings_for(0)
        pid = sorted(disabled)[0]
        serial.set_peering_enabled(pid, False)
        reference = serial.solve()
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as parallel:
            parallel.set_peering_enabled(pid, False)
            PERF.reset()
            config = parallel.solve()
            assert PERF.counter("parallel.solve_calls").value == 1
            assert PERF.counter("parallel.fallbacks").value == 0
            assert config_pairs(config) == config_pairs(reference)
            assert all(pid not in config.peerings_for(p) for p in config.prefixes)

    def test_pool_persists_across_solves(self):
        with PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            orchestrator.solve()
            first_pool = orchestrator._parallel.pool
            orchestrator.solve()
            assert orchestrator._parallel.pool is first_pool


class TestDifferentialLearn:
    """Full learning loops: every recorded float and the model evolution."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_learn_identical_on_tiny(self, workers, accepted_marginals):
        scenario = tiny_scenario(seed=3)
        serial = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=4))
        serial_result = serial.learn(iterations=3)
        serial_marginals = take(accepted_marginals)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=4, workers=workers)
        ) as parallel:
            parallel_result = parallel.learn(iterations=3)
            assert iteration_tuples(parallel_result) == iteration_tuples(
                serial_result
            )
            # Learned rows and shrink rows are summed into every marginal;
            # the accepted values must agree to the last bit, not just the
            # configurations they produced.
            assert take(accepted_marginals) == serial_marginals
            # The learned models converged to identical preference state,
            # which means every mid-solve epoch bump replayed identically.
            assert model_snapshot(parallel) == model_snapshot(serial)

    @pytest.mark.slow
    def test_learn_identical_on_prototype(self):
        scenario = prototype_scenario(seed=0)
        serial = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=6))
        serial_result = serial.learn(iterations=3)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=6, workers=4)
        ) as parallel:
            parallel_result = parallel.learn(iterations=3)
            assert iteration_tuples(parallel_result) == iteration_tuples(
                serial_result
            )
            assert model_snapshot(parallel) == model_snapshot(serial)


class TestJournalIdentity:
    """The traced span stream must not betray which path ran."""

    @staticmethod
    def _traced_learn(workers):
        scenario = tiny_scenario(seed=3)
        with telemetry_session("parallel-identity") as journal:
            config = OrchestratorConfig(prefix_budget=3, workers=workers)
            with PainterOrchestrator(scenario, config) as orchestrator:
                orchestrator.learn(iterations=2)
        return journal.to_jsonl()

    def test_journal_byte_identical(self):
        assert self._traced_learn(0) == self._traced_learn(2)


class TestFallback:
    """Worker death degrades gracefully to an identical serial answer."""

    def test_dead_pool_rebuilt_between_solves(self):
        with PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            first = orchestrator.solve()
            orchestrator._parallel.pool.kill_worker(0)
            PERF.reset()
            second = orchestrator.solve()  # rebuilds the pool, stays parallel
            assert config_pairs(second) == config_pairs(first)
            assert PERF.counter("parallel.solve_calls").value == 1
            assert PERF.counter("parallel.fallbacks").value == 0

    def test_mid_solve_death_falls_back_serial(self, monkeypatch):
        scenario = tiny_scenario(seed=3)
        reference = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3)).solve()
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            solver = orchestrator._ensure_parallel(2)
            solver.pool.kill_worker(0)
            # Hide the death from the pre-solve liveness check so the solve
            # itself trips over the dead worker (the mid-solve crash path).
            monkeypatch.setattr(solver.pool, "alive", lambda: True)
            PERF.reset()
            config = orchestrator.solve()
            assert config_pairs(config) == config_pairs(reference)
            assert PERF.counter("parallel.fallbacks").value == 1
            # The breaker pins later solves to the serial path: the failed
            # attempt counted one parallel call and no further ones accrue.
            assert orchestrator._parallel_broken
            attempts = PERF.counter("parallel.solve_calls").value
            orchestrator.solve()
            assert PERF.counter("parallel.solve_calls").value == attempts

    def test_direct_solver_raises_on_dead_worker(self):
        scenario = tiny_scenario(seed=3)
        orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
        solver = ParallelSolver(orchestrator, 2)
        try:
            solver.pool.kill_worker(1)
            with pytest.raises(WorkerPoolError):
                orchestrator._solve(solver=solver)
            assert solver.pool.broken
        finally:
            solver.close()
            orchestrator.close()

    def test_worker_crash_fault_event(self):
        """A chaos-schedule WorkerCrash kills the worker; solve still lands."""
        from repro.faults import FaultInjector, FaultSchedule, WorkerCrash
        from repro.simulation.events import EventLoop

        scenario = tiny_scenario(seed=3)
        reference = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3)).solve()
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            first = orchestrator.solve()
            assert config_pairs(first) == config_pairs(reference)

            injector = FaultInjector(
                FaultSchedule(events=(WorkerCrash(start_s=5.0, worker_index=1),))
            )
            arm_worker_faults(injector, orchestrator._parallel.pool)
            loop = EventLoop()
            injector.arm(loop)
            loop.run_until(10.0)
            assert not orchestrator._parallel.pool.alive()

            config = orchestrator.solve()  # rebuild-or-fallback, same answer
            assert config_pairs(config) == config_pairs(reference)


class TestKillSwitch:
    def test_disable_parallel_forces_serial(self):
        assert parallel_enabled()
        disable_parallel()
        try:
            PERF.reset()
            with PainterOrchestrator(
                tiny_scenario(seed=3),
                OrchestratorConfig(prefix_budget=3, workers=2),
            ) as orchestrator:
                orchestrator.solve()
            assert PERF.counter("parallel.solve_calls").value == 0
        finally:
            enable_parallel()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            OrchestratorConfig(prefix_budget=3, workers=-1)

    def test_solver_requires_two_workers(self):
        orchestrator = PainterOrchestrator(tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3))
        with pytest.raises(ValueError):
            ParallelSolver(orchestrator, 1)


class TestInvalidateFailure:
    """``ParallelSolver.invalidate`` must surface pool failure, not eat it."""

    def test_invalidate_reports_false_on_broken_pool(self):
        scenario = tiny_scenario(seed=3)
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3)
        )
        solver = ParallelSolver(orchestrator, 2)
        try:
            assert solver.invalidate((1, 2)) is True
            solver.pool.kill_worker(0)
            assert solver.invalidate((3,)) is False
            assert solver.pool.broken
            # Already-broken pools short-circuit without broadcasting.
            assert solver.invalidate((4,)) is False
        finally:
            solver.close()
            orchestrator.close()

    def test_failed_invalidate_trips_breaker_in_observe_path(self, monkeypatch):
        """A learned-set bump that can't reach the workers must tear the
        pool down immediately, not leave the next solve to time out."""
        scenario = tiny_scenario(seed=3)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            config = orchestrator.solve()
            solver = orchestrator._parallel
            assert solver is not None
            monkeypatch.setattr(solver, "invalidate", lambda ug_ids: False)
            PERF.reset()
            report = orchestrator.execute_and_observe(config, iteration=0)
            assert report.learned > 0  # the broadcast was actually needed
            assert orchestrator._parallel is None
            assert orchestrator._parallel_broken
            assert PERF.counter("parallel.fallbacks").value == 1


class TestWorkerTimeoutConfig:
    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            OrchestratorConfig(prefix_budget=3, worker_timeout_s=0.0)
        with pytest.raises(ValueError):
            OrchestratorConfig(prefix_budget=3, worker_timeout_s=-5.0)
        OrchestratorConfig(prefix_budget=3, worker_timeout_s=12.5)

    def test_timeout_reaches_the_pool(self):
        scenario = tiny_scenario(seed=3)
        with PainterOrchestrator(
            scenario,
            OrchestratorConfig(prefix_budget=3, workers=2, worker_timeout_s=42.0),
        ) as orchestrator:
            solver = orchestrator._ensure_parallel(2)
            assert solver is not None
            assert solver.pool.timeout_s == 42.0

    def test_default_timeout_when_unset(self):
        from repro.parallel.pool import DEFAULT_TIMEOUT_S

        scenario = tiny_scenario(seed=3)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            solver = orchestrator._ensure_parallel(2)
            assert solver is not None
            assert solver.pool.timeout_s == DEFAULT_TIMEOUT_S
