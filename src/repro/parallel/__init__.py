"""Intra-solve parallelism: the greedy's row state in a fork pool, bit-identical.

``PainterOrchestrator.solve`` with ``OrchestratorConfig(workers=N)`` (or
``repro solve --workers N``) keeps each solve's per-row scan state in ``N``
persistent fork workers, one :class:`repro.core.orchestrator.RowState` per
worker over its row range, while the orchestrator's one greedy driver runs
in the parent.  The latency and distance matrices live in
``multiprocessing.shared_memory``: workers fill and read them as plain
numpy views, and nothing scenario-sized ever crosses a pipe.  Results are
**bit-identical** to the serial path for every worker count: workers
compute only elementwise per-row slices, and the driver performs every
floating-point reduction over the concatenated, canonically ordered
arrays (see :mod:`repro.parallel.shard` for the invariants).

Process-wide gating: :func:`disable_parallel` turns the subsystem off for
this process (orchestrators silently run serial).  The experiment harness
calls it inside its own pool workers so an ``--jobs`` fan-out can never
nest a solve pool inside an experiment worker.
"""

from repro.parallel.pool import (
    DEFAULT_TIMEOUT_S,
    WorkerPool,
    WorkerPoolError,
    arm_worker_faults,
)
from repro.parallel.shard import ShardContext, ShardState, shard_ranges
from repro.parallel.shared import SharedArray
from repro.parallel.solver import SPECULATIVE_REFRESHES, ParallelSolver, PoolRows

_ENABLED = True


def parallel_enabled() -> bool:
    """Whether this process may create solve worker pools."""
    return _ENABLED


def disable_parallel() -> None:
    """Force every orchestrator in this process to solve serially.

    Called by the experiment harness's pool initializer: experiment workers
    are themselves one-per-core, so nesting a solve pool inside each would
    oversubscribe the machine (and fork from an already-forked child).
    """
    global _ENABLED
    _ENABLED = False


def enable_parallel() -> None:
    """Re-allow solve worker pools (undo :func:`disable_parallel`)."""
    global _ENABLED
    _ENABLED = True


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "ParallelSolver",
    "PoolRows",
    "SPECULATIVE_REFRESHES",
    "SharedArray",
    "ShardContext",
    "ShardState",
    "WorkerPool",
    "WorkerPoolError",
    "arm_worker_faults",
    "disable_parallel",
    "enable_parallel",
    "parallel_enabled",
    "shard_ranges",
]
