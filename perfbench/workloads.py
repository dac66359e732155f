"""The three workloads: one *episode* each, on one seeded world.

An episode builds its world from a world seed, runs the workload's
closed loop over it with one caller, checks the outputs, and returns an
:class:`Episode` with the timings.  ``run.py`` plays each of a run's
worlds several times.  The program under test receives only what is
generated here from the seed: the preset seed, the ``synthetic_deltas``
seed and the soak load seed.

Everything runs serially in the calling process: the orchestrator uses
``workers=0`` and the default ``backend="auto"``.

Times are CPU seconds of this process (``time.process_time``: user plus
system).  On a shared VM, wall time also carries hypervisor steal and
fsync waits: six identical soak episodes in one process varied by 4% in
wall time and 0.8% in CPU time.  Wall-clock request times are kept
alongside for the report.

CPU time is not steady either: other tenants of the host share its cores'
caches and memory bandwidth, and the same pure-Python loop took anywhere
from 1x to 1.9x its fastest time, in phases lasting from a second to
minutes.  So every timed stretch is *calibrated*: :func:`host_probe`, a
fixed ~8 ms mix of dict, frozenset and numpy work, runs just before and
just after it (outside the timed stretch), and the stretch's CPU time is
scaled by ``REFERENCE_PROBE_S / (the faster of the two probes)``.  A
calibrated second is a CPU second on a host where the probe takes
``REFERENCE_PROBE_S``; the program's own speed-ups and slow-downs pass
through unchanged, while the host's phases divide out.  Uncalibrated CPU
times are kept too, for the report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

import repro.core.benefit as benefit
from repro.controller import (
    ControllerConfig,
    ControllerExtension,
    PainterController,
    synthetic_deltas,
)
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.io import config_to_dict
from repro.optimality import assert_lp_sound
from repro.scenario import prototype_scenario, tiny_scenario
from repro.soak import SoakConfig, SoakDriver, build_soak_deltas, make_load
from repro.soak.slo import SLOAccountingError

PREFIX_BUDGET = 4


# ``worlds`` is the number of worlds a run plays, each at least
# ``passes`` times and more while the plays fit in its time budget.


class LearnSize(NamedTuple):
    n_ugs: int
    rounds: int
    worlds: int
    passes: int


class ChurnSize(NamedTuple):
    n_ugs: int
    iterations: int
    worlds: int
    passes: int


class DataplaneSize(NamedTuple):
    windows: int
    arrivals: int
    worlds: int
    passes: int


#: Full size.  On a 2-core x86 VM a 30 s run plays 5 churn worlds (20
#: iterations each) and 5 dataplane worlds (23 windows each) two or three
#: times each, and 40 learn worlds (one learned solve each) once, the
#: first few twice.  Learn's spread comes mostly from its worlds (one
#: world's learned solve costs up to twice another's, and a seed's runs
#: agree within a few per cent), so it buys more worlds, not more plays.
FULL = {
    "learn": LearnSize(n_ugs=30, rounds=2, worlds=40, passes=1),
    "churn": ChurnSize(n_ugs=150, iterations=20, worlds=5, passes=2),
    "dataplane": DataplaneSize(windows=24, arrivals=25_000, worlds=5, passes=2),
}

#: Toy size for the smoke test: seconds per run.
TOY = {
    "learn": LearnSize(n_ugs=12, rounds=2, worlds=2, passes=1),
    "churn": ChurnSize(n_ugs=20, iterations=4, worlds=2, passes=2),
    "dataplane": DataplaneSize(windows=5, arrivals=500, worlds=2, passes=2),
}


#: What :func:`host_probe` takes, in CPU seconds, on an uncontended
#: 2-core x86 VM (its fastest of 300 calls).
REFERENCE_PROBE_S = 0.0075


def host_probe() -> float:
    """CPU seconds of a fixed mix of interpreter and numpy work."""
    rng = random.Random(7)
    start = time.process_time()
    table: Dict[frozenset, int] = {}
    for i in range(4000):
        key = frozenset((rng.randrange(300), rng.randrange(300)))
        table[key] = table.get(key, 0) + i
    sorted(table.values())
    values = np.arange(50_000, dtype=np.float64)
    for _ in range(4):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.process_time() - start


Probe = Callable[[], float]


def factor(before: float, after: float) -> float:
    """Calibration factor of a stretch between two probes."""
    return REFERENCE_PROBE_S / min(before, after)


@dataclass
class Episode:
    """Timings, checks and figures of one episode.

    ``setup_s``, ``requests``, ``cold_requests`` and ``work_s`` are
    calibrated; the ``*_cpu`` fields hold the same times uncalibrated.
    """

    setup_s: float = 0.0
    setup_cpu_s: float = 0.0
    #: Seconds of each request that counts towards ``request_p50_s``.
    requests: List[float] = field(default_factory=list)
    requests_cpu: List[float] = field(default_factory=list)
    #: Wall seconds of the same requests.
    requests_wall: List[float] = field(default_factory=list)
    #: Requests timed but not counted in ``requests`` (learn's cold solve).
    cold_requests: List[float] = field(default_factory=list)
    work_units: float = 0.0
    work_s: float = 0.0
    work_cpu_s: float = 0.0
    #: (check name, passed) for every correctness check.
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: Deterministic output digest; equal across plays of one world.
    digest: str = ""
    figures: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))

    def uncalibrated(self) -> "Episode":
        return dataclasses.replace(
            self, setup_s=self.setup_cpu_s, requests=self.requests_cpu,
            work_s=self.work_cpu_s,
        )


def config_digest(configs) -> str:
    text = json.dumps([config_to_dict(c) for c in configs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def stamp() -> Tuple[float, float]:
    return time.process_time(), time.perf_counter()


class IterationClock:
    """Clock stamps taken once per controller iteration, each with a probe.

    The controller calls its extension's ``after_iteration`` at the same
    point of every iteration, so the gap between two ticks is one full
    iteration (persist of the previous one, then ingest, solve and apply).
    Each tick stamps the clock, runs the probe, and stamps it again; the
    next iteration is timed from the second stamp.
    """

    def __init__(self, probe: Probe) -> None:
        self._probe = probe
        self.probes = [probe()]
        self.resumed = [stamp()]
        self.stamps: List[Tuple[float, float]] = []

    def tick(self) -> None:
        self.stamps.append(stamp())
        self.probes.append(self._probe())
        self.resumed.append(stamp())

    def fill(self, ep: Episode) -> None:
        """Set-up ends at the bootstrap iteration's tick; the rest are requests."""
        cpu = [end[0] - start[0] for start, end in zip(self.resumed, self.stamps)]
        wall = [end[1] - start[1] for start, end in zip(self.resumed, self.stamps)]
        factors = [factor(a, b) for a, b in zip(self.probes, self.probes[1:])]
        ep.setup_cpu_s = cpu[0]
        ep.setup_s = cpu[0] * factors[0]
        ep.requests_cpu = cpu[1:]
        ep.requests = [t * f for t, f in zip(cpu[1:], factors[1:])]
        ep.requests_wall = wall[1:]
        ep.work_cpu_s = sum(ep.requests_cpu)
        ep.work_s = sum(ep.requests)


class ClockExtension(ControllerExtension):
    """Stamps the clock each iteration; carries no state of its own."""

    def __init__(self, clock: IterationClock) -> None:
        self._clock = clock

    def after_iteration(self, iteration, config, controller) -> None:
        self._clock.tick()


class ClockedSoakDriver(SoakDriver):
    """The soak driver, stamping the clock after each window's work."""

    def __init__(self, clock: IterationClock, *args) -> None:
        super().__init__(*args)
        self._clock = clock

    def after_iteration(self, iteration, config, controller) -> None:
        super().after_iteration(iteration, config, controller)
        self._clock.tick()


def learn(world_seed: int, size: LearnSize, tracer, workdir: Path,
          probe: Probe = host_probe) -> Episode:
    """Algorithm 1's outer loop on a prototype-topology world.

    Mirrors ``PainterOrchestrator.learn`` step by step (solve, evaluate,
    expected benefit, execute-and-observe, realized benefit) so each solve
    can be timed on its own.  Round 0 is the cold solve; every later
    solve follows at least one observation round.  The probe runs before
    set-up and after it and every round.
    """
    ep = Episode()
    probes = [probe()]
    start = time.process_time()
    scenario = prototype_scenario(seed=world_seed, n_ugs=size.n_ugs)
    orch = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=PREFIX_BUDGET, workers=0)
    )
    ep.setup_cpu_s = time.process_time() - start
    probes.append(probe())
    ep.setup_s = ep.setup_cpu_s * factor(*probes[-2:])
    configs = []
    realized = 0.0
    try:
        for round_ in range(size.rounds):
            with tracer.span("learn.round"):
                began = stamp()
                config = orch.solve()
                solved = stamp()
                orch.evaluator.evaluate(config)
                orch.evaluator.expected_benefit(config)
                orch.execute_and_observe(config, iteration=round_)
                realized = benefit.realized_benefit(scenario, config)
                ended = time.process_time()
            probes.append(probe())
            scale = factor(*probes[-2:])
            solve_s = solved[0] - began[0]
            if round_:
                ep.requests.append(solve_s * scale)
                ep.requests_cpu.append(solve_s)
                ep.requests_wall.append(solved[1] - began[1])
            else:
                ep.cold_requests.append(solve_s * scale)
            ep.work_units += 1
            ep.work_cpu_s += ended - began[0]
            ep.work_s += (ended - began[0]) * scale
            configs.append(config)
            if round_ == 0:
                try:
                    assert_lp_sound(orch.evaluator, config)
                    ep.check("cold config within LP bound", True)
                except AssertionError:
                    ep.check("cold config within LP bound", False)
    finally:
        orch.close()
    ep.check("every round advertised a prefix", all(c.prefix_count for c in configs))
    ep.digest = config_digest(configs)
    ep.figures["realized_benefit"] = realized
    return ep


def churn(world_seed: int, size: ChurnSize, tracer, workdir: Path,
          probe: Probe = host_probe) -> Episode:
    """The controller daemon over a seeded delta stream, warm start on."""
    ep = Episode()
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="churn-", dir=workdir))
    clock = IterationClock(probe)
    try:
        scenario = prototype_scenario(seed=world_seed, n_ugs=size.n_ugs)
        deltas = synthetic_deltas(
            scenario, iterations=size.iterations, seed=world_seed
        )
        controller = PainterController(
            scenario,
            OrchestratorConfig(prefix_budget=PREFIX_BUDGET, workers=0),
            ControllerConfig(
                checkpoint_dir=checkpoint_dir, observe=False, warm_start=True
            ),
            deltas,
            extension=ClockExtension(clock),
        )
        try:
            result = controller.run()
            cold = controller.orchestrator.solve_cold()
        finally:
            controller.close()
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    clock.fill(ep)
    timeline = result.timeline
    ep.work_units = result.deltas_applied
    ep.check("stream drained", result.iterations_run == size.iterations + 1)
    ep.check("every delta applied", result.deltas_applied == len(deltas))
    ep.check("iterations after the bootstrap ran warm",
             all(row["mode"] == "warm" for row in timeline[1:]))
    ep.check("no degradations", result.degradations == 0)
    ep.check("no divergences", result.divergences == 0)
    ep.check("cold re-solve equals final config", cold == result.final_config)
    ep.digest = config_digest([result.final_config])
    ep.figures["realized_benefit"] = timeline[-1]["realized_benefit"]
    return ep


def soak_config(world_seed: int, size: DataplaneSize) -> SoakConfig:
    return SoakConfig(
        preset="tiny",
        seed=world_seed,
        windows=size.windows,
        arrivals_per_window=size.arrivals,
        flash_crowds=1,
        storm_regions=1,
    )


def dataplane(world_seed: int, size: DataplaneSize, tracer, workdir: Path,
              probe: Probe = host_probe) -> Episode:
    """One soak day on the ``tiny`` preset: flash crowd + regional storm.

    Assembles the soak exactly as ``repro.soak.run_soak`` does (load
    model, merged delta stream, soak driver, controller) so a clock can
    ride each window; the smoke test checks the ledger matches run_soak's.
    """
    ep = Episode()
    cfg = soak_config(world_seed, size)
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="soak-", dir=workdir))
    clock = IterationClock(probe)
    try:
        scenario = tiny_scenario(seed=cfg.seed)
        load = make_load(scenario, cfg)
        deltas, _storm = build_soak_deltas(scenario, cfg, load)
        driver = ClockedSoakDriver(clock, scenario, cfg, load)
        controller = PainterController(
            scenario,
            OrchestratorConfig(prefix_budget=cfg.prefix_budget),
            ControllerConfig(
                checkpoint_dir=checkpoint_dir,
                checkpoint_keep=cfg.checkpoint_keep,
                verify_every=cfg.verify_every,
                observe=cfg.observe,
                install=cfg.install,
                max_iterations=cfg.windows,
                run_name="soak",
            ),
            deltas,
            extension=driver,
        )
        try:
            result = controller.run()
        finally:
            controller.close()
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    clock.fill(ep)
    ep.work_units = sum(load.arrivals(w) for w in range(1, cfg.windows))
    ledger = driver.ledger
    try:
        ledger.check_invariants()
        ep.check("ledger invariants hold", True)
    except SLOAccountingError:
        ep.check("ledger invariants hold", False)
    ep.check("no accounting errors", ledger.accounting_errors == 0)
    ep.check("every window ran", result.iterations_run == cfg.windows)
    ep.check("no degradations", result.degradations == 0)
    ep.check("offered flows match the load model",
             int(ledger.offered.sum()) == ep.work_units + load.arrivals(0))
    ep.digest = ledger.fingerprint()
    ep.figures["fleet_p99_ms"] = ledger.p99_ms() or 0.0
    return ep


EPISODES = {"learn": learn, "churn": churn, "dataplane": dataplane}
