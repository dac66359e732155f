"""The parallel solve's pool lifecycle and its pool-backed row state.

``ParallelSolver`` owns the shared-memory matrices and the fork pool of
:class:`repro.parallel.shard.ShardState` workers; it runs no greedy loop of
its own.  ``PainterOrchestrator._solve``, the one Algorithm-1 driver, asks
it for a :class:`PoolRows`: the row state of a solve whose rows live in the
workers, each of which holds one :class:`repro.core.orchestrator.RowState`
over its row range.

1. **fill** (once per pool): workers fill their row ranges of the shared
   UG×peering latency/distance matrices; the parent binds the latency
   matrix so its own evaluator reads the same doubles without recomputing.
2. **prep** (once per solve): the parent broadcasts the authoritative
   learned-UG set; each worker builds its row state and both sides derive
   the same learned-filtered layout of the gain buffer.
3. **round_start** (once per prefix): workers write their rows'
   initial-heap gains into the shared buffer.
4. **refresh / accept** (inner loop): workers return their rows'
   contribution slices and expected-latency updates; :class:`PoolRows`
   concatenates them in worker order (== global row order).

The driver performs every reduction over those full arrays, exactly as it
does over an in-process row state's, which is why ``workers=N`` is
bit-identical to the serial solve for every N.

Refreshes are batched speculatively: alongside the requested peering, up
to :data:`SPECULATIVE_REFRESHES` stale heap-top candidates ride the same
round trip.  Their contributions are pure functions of the round state,
so caching them until the next accept changes no value; it only saves
pipe latency during re-push streaks.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.parallel.pool import DEFAULT_TIMEOUT_S, WorkerPool, WorkerPoolError
from repro.parallel.shard import ShardContext, ShardState, shard_ranges
from repro.parallel.shared import SharedArray
from repro.perf import PERF
from repro.telemetry.metrics import METRICS

#: Extra stale heap-top marginals refreshed per round trip (batched
#: speculation; identical values, fewer pipe crossings).
SPECULATIVE_REFRESHES = 3


class PoolRows:
    """The row state of one pool solve, as the driver sees it.

    Same surface as :class:`repro.core.orchestrator.RowState` (``vol``,
    ``round_start``, ``initial_gains``, ``refresh``, ``accept``); each call
    is answered by the workers, and per-row results come back in global row
    order, so the driver's reductions see the in-process floats.
    """

    def __init__(
        self,
        pool: WorkerPool,
        gains: "np.ndarray",
        layout: Dict[int, "np.ndarray"],
        vol_arr: "np.ndarray",
    ) -> None:
        self._pool = pool
        self._gains = gains
        #: Per peering: volumes of its unlearned rows, and its
        #: ``(start, count)`` span of the shared gain buffer.
        self.vol: Dict[int, "np.ndarray"] = {}
        self._spans: Dict[int, Tuple[int, int]] = {}
        off = 0
        for pid, rows in layout.items():
            self._spans[pid] = (off, len(rows))
            self.vol[pid] = vol_arr[rows]
            off += len(rows)
        #: pid -> refreshed contributions, valid until the next accept.
        self._speculative: Dict[int, "np.ndarray"] = {}
        self._version = 0
        self._spec_hits = PERF.counter("parallel.speculative_hits")
        self._roundtrips = PERF.counter("parallel.refresh_roundtrips")

    def round_start(self, base_np: "np.ndarray") -> None:
        self._pool.broadcast("round_start", base_np)
        self._speculative.clear()
        self._version = 0

    def initial_gains(self, peering_id: int) -> "np.ndarray":
        start, count = self._spans[peering_id]
        return self._gains[start : start + count]

    def refresh(self, peering_id: int, heap: Sequence[Tuple[float, int, int]]):
        """Contributions of ``peering_id``; stale entries near the top of
        the driver's ``heap`` are refreshed in the same round trip."""
        contrib = self._speculative.pop(peering_id, None)
        if contrib is not None:
            self._spec_hits.add()
            return contrib
        batch = [peering_id]
        if SPECULATIVE_REFRESHES and len(heap) > 1:
            for _neg, seen, pid in sorted(heap[:8])[: SPECULATIVE_REFRESHES + 1]:
                if (
                    seen != self._version
                    and pid != peering_id
                    and pid not in self._speculative
                    and len(batch) <= SPECULATIVE_REFRESHES
                ):
                    batch.append(pid)
        self._roundtrips.add()
        replies = self._pool.broadcast("refresh", batch)
        for i, pid in enumerate(batch):
            self._speculative[pid] = np.concatenate([reply[i] for reply in replies])
        return self._speculative.pop(peering_id)

    def accept(self, peering_id: int) -> Tuple["np.ndarray", "np.ndarray"]:
        self._version += 1
        self._speculative.clear()
        replies = self._pool.broadcast("accept", peering_id)
        return (
            np.concatenate([rows for rows, _ in replies]),
            np.concatenate([expected for _, expected in replies]),
        )


class ParallelSolver:
    """The worker pool behind one orchestrator's pool solves."""

    def __init__(
        self,
        orchestrator,
        n_workers: int,
        *,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        if n_workers < 2:
            raise ValueError("parallel solve needs at least 2 workers")
        self._orch = orchestrator
        self.n_workers = n_workers
        scenario = orchestrator._scenario
        evaluator = orchestrator._evaluator
        n_ugs = len(scenario.user_groups)
        n_cols = len(evaluator.peering_columns)
        self._lat = SharedArray((n_ugs, n_cols), fill=np.nan)
        self._dist = SharedArray((n_ugs, n_cols), fill=np.nan)
        total_pairs = sum(len(ugs) for ugs in orchestrator._affected.values())
        self._gains = SharedArray((total_pairs,), fill=0.0)
        ctx = ShardContext(
            scenario,
            evaluator,
            orchestrator._model,
            orchestrator._affected,
            orchestrator._ug_index,
            self._lat.array,
            self._dist.array,
            self._gains.array,
        )
        self._ctx = ctx
        shards = shard_ranges(n_ugs, n_workers)

        def make_handler(index: int, _ctx=ctx, _shards=tuple(shards)) -> ShardState:
            lo, hi = _shards[index]
            return ShardState(_ctx, lo, hi)

        self.pool = WorkerPool(n_workers, make_handler, timeout_s=timeout_s)
        #: World-state generation this pool was forked from.  The
        #: orchestrator bumps its own epoch on volume/peering mutations and
        #: rebuilds any pool whose epoch lags: forked workers hold frozen
        #: copies of the scenario and must not serve a mutated world.
        self.world_epoch = getattr(orchestrator, "_world_epoch", 0)
        self._filled = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.pool.close()
        finally:
            if self._filled:
                self._orch._evaluator.backend.release_latency_matrix()
            # Release the shard context's views so the mappings can unmap.
            self._ctx.lat_mat = None
            self._ctx.dist_mat = None
            self._ctx.gain_buf = None
            for arr in (self._lat, self._dist, self._gains):
                arr.close(unlink=True)

    def invalidate(self, ug_ids) -> bool:
        """Broadcast an epoch bump after the parent's model learned.

        Returns ``False`` when the broadcast could not reach every worker
        (pool already broken, or it broke right here).  The caller must
        treat that as a pool failure: a worker that missed the epoch bump
        would solve against a stale learned set, so the next solve has to
        fall back instead of trusting (or waiting on) this pool.
        """
        if self.pool.broken:
            return False
        try:
            self.pool.broadcast("invalidate", tuple(ug_ids))
            return True
        except WorkerPoolError:
            self.pool.broken = True
            return False

    def _ensure_filled(self) -> None:
        if self._filled:
            return
        with PERF.timed("parallel.fill"):
            self.pool.broadcast("fill")
        # The parent's evaluator now reads the worker-computed doubles
        # instead of re-deriving them serially (bound on the compute
        # backend, which owns the dense-matrix surface).
        self._orch._evaluator.backend.bind_latency_matrix(self._lat.array)
        self._filled = True

    # -- one solve -----------------------------------------------------------

    def rows(self, learned_ug_ids: Tuple[int, ...]) -> PoolRows:
        """Prepare the workers for one solve and return its row state.

        ``learned_ug_ids`` is the parent model's learned set: the workers'
        forked models are frozen at pool creation and never consulted.
        """
        PERF.counter("parallel.solve_calls").add()
        self._ensure_filled()
        self.pool.broadcast("prep", learned_ug_ids)
        ugs = self._ctx.scenario.user_groups
        return PoolRows(
            self.pool,
            self._gains.array,
            self._ctx.unlearned_rows(learned_ug_ids),
            np.array([ug.volume for ug in ugs]),
        )

    def merge_worker_metrics(self) -> None:
        """Fold each worker's per-solve metrics (scan counters, fill timers)
        into the parent registry; workers snapshot-and-reset, so a
        persistent pool never double-counts across solves."""
        for snapshot in self.pool.collect_metrics():
            METRICS.merge(snapshot)
