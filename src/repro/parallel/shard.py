"""Row-sharded pool workers for the parallel solve.

Each worker owns a contiguous range of UG rows ``[lo, hi)``: it fills those
rows of the shared latency/distance matrices once per pool, and for every
solve hosts the :class:`repro.core.orchestrator.RowState` over them (built
from the shared matrices instead of the orchestrator's per-peering arrays).
The greedy loop itself runs only in the parent's ``PainterOrchestrator._solve``.

Bit-identity with the in-process solve rests on three invariants:

* a row state computes only **elementwise / per-row** quantities; every
  floating-point *reduction* (``contrib.sum()``, the initial ``vol @ gain``
  dot product, the learned-row terms) happens in the driver over full
  arrays assembled in canonical row order;
* shard row ranges are contiguous and affected-UG lists are row-ascending
  (``_invert_catalog`` walks UGs in scenario order), so concatenating
  worker results in worker-index order reproduces the in-process array
  layout with no re-sorting;
* the per-value math is the *same code* the in-process solve runs: the
  deterministic latency/distance oracles, the compute backend's
  elementwise kernels (``repro.kernels``; workers inherit the evaluator's
  backend at fork time, so a compiled solve is compiled in every shard),
  and :class:`RowState` with its :class:`PrefixScan`, on the same IEEE
  doubles.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.orchestrator import RowState
from repro.kernels import ScanContext


def shard_ranges(n_rows: int, n_workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even ``[lo, hi)`` row ranges, one per worker."""
    if n_workers < 1:
        raise ValueError("need at least one worker")
    base = n_rows // n_workers
    extra = n_rows % n_workers
    ranges = []
    lo = 0
    for i in range(n_workers):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class ShardContext:
    """Everything a worker inherits at fork time (built pre-fork, immutable).

    Holds the scenario graph plus the shared-memory matrices.  Nothing in
    here is pickled: under the ``fork`` start method children inherit the
    parent's address space, and the :class:`SharedArray` segments map the
    same physical pages in every process.
    """

    def __init__(
        self,
        scenario,
        evaluator,
        model,
        affected: Dict[int, Sequence],
        ug_index: Dict[int, int],
        lat_mat,
        dist_mat,
        gain_buf,
    ) -> None:
        self.scenario = scenario
        self.evaluator = evaluator
        self.model = model
        self.affected = affected
        self.ug_index = ug_index
        self.all_peering_ids: List[int] = sorted(affected)
        self.col_of: Dict[int, int] = evaluator.peering_columns
        self.lat_mat = lat_mat
        self.dist_mat = dist_mat
        self.gain_buf = gain_buf
        #: Global row indices of each peering's affected UGs, ascending
        #: (catalog inversion walks UGs in scenario order).
        self.rows_np: Dict[int, "np.ndarray"] = {
            pid: np.fromiter(
                (ug_index[ug.ug_id] for ug in ugs), dtype=np.intp, count=len(ugs)
            )
            for pid, ugs in affected.items()
        }
        self.total_pairs = sum(len(ugs) for ugs in affected.values())

    def unlearned_rows(self, learned_ug_ids: Sequence[int]) -> Dict[int, "np.ndarray"]:
        """Each peering's affected rows outside the learned set, ascending.

        Keyed in :attr:`all_peering_ids` order, which is the order of the
        peerings' spans in the shared gain buffer.
        """
        ug_index = self.ug_index
        learned = np.fromiter(
            sorted(ug_index[ug_id] for ug_id in learned_ug_ids if ug_id in ug_index),
            dtype=np.intp,
        )
        rows_np = self.rows_np
        if not learned.size:
            return {pid: rows_np[pid] for pid in self.all_peering_ids}
        return {
            pid: rows_np[pid][~np.isin(rows_np[pid], learned)]
            for pid in self.all_peering_ids
        }


class ShardState:
    """One pool worker: rows ``[lo, hi)`` of the shared matrices and the
    :class:`RowState` over them.

    The public methods are the worker protocol: ``fill``, ``prep``,
    ``round_start``, ``refresh``, ``accept``, ``invalidate``.  All of them
    run equally well in-process (the unit tests drive them directly); the
    pool merely moves the calls behind a pipe.
    """

    def __init__(self, ctx: ShardContext, lo: int, hi: int) -> None:
        self.ctx = ctx
        self.lo = lo
        self.hi = hi
        self.ugs = ctx.scenario.user_groups
        self.vol_arr = np.array([ug.volume for ug in self.ugs])
        #: This solve's row state and ``(start, count)`` gain-buffer spans
        #: (built by ``prep``, dropped by ``invalidate``).
        self.rows: Optional[RowState] = None
        self.spans: Dict[int, Tuple[int, int]] = {}

    # -- one-time: matrix fill ----------------------------------------------

    def fill(self) -> int:
        """Fill the shared latency/distance matrices for rows ``[lo, hi)``.

        Uses the same deterministic oracles the serial precompute uses, so
        every slot holds the exact double the serial solve would compute.
        ``+inf`` encodes an unmeasurable ingress (``None``).
        """
        ctx = self.ctx
        lat_mat = ctx.lat_mat
        dist_mat = ctx.dist_mat
        catalog = ctx.model.catalog
        col_of = ctx.col_of
        filled = 0
        for row in range(self.lo, self.hi):
            ug = self.ugs[row]
            for pid in catalog.ingress_ids(ug):
                col = col_of[pid]
                lat = ctx.evaluator.latency(ug, pid)
                lat_mat[row, col] = np.inf if lat is None else lat
                dist_mat[row, col] = ctx.model.distance_km(ug, pid)
                filled += 1
        return filled

    # -- per solve -----------------------------------------------------------

    def prep(self, learned_ug_ids: Sequence[int]) -> int:
        """Build this solve's row state over the shard's unlearned rows.

        ``learned_ug_ids`` is the authoritative learned set from the parent
        (the worker's forked routing model is frozen at pool-creation time
        and must not be consulted).  Returns the gain buffer's total
        (learned-filtered) pair count over all shards.
        """
        ctx = self.ctx
        idx, vol, lat, dist = {}, {}, {}, {}
        spans = {}
        off = 0
        for pid, rows in ctx.unlearned_rows(learned_ug_ids).items():
            left = int(np.searchsorted(rows, self.lo))
            right = int(np.searchsorted(rows, self.hi))
            sel = rows[left:right]
            col = ctx.col_of[pid]
            lat_p = ctx.lat_mat[sel, col]
            lat_p[np.isinf(lat_p)] = np.nan  # row states use nan for None
            idx[pid] = sel
            vol[pid] = self.vol_arr[sel]
            lat[pid] = lat_p
            dist[pid] = ctx.dist_mat[sel, col]
            spans[pid] = (off + left, right - left)
            off += len(rows)
        context = ScanContext(
            learned_ug_ids=frozenset(learned_ug_ids),
            table_source=self._table_source,
        )
        self.rows = RowState(ctx.evaluator, idx, vol, lat, dist, context)
        self.spans = spans
        return off

    def _table_source(self, ug):
        """Scan table for one UG, sourced from the shared matrices."""
        ctx = self.ctx
        row = ctx.ug_index[ug.ug_id]
        lat_mat = ctx.lat_mat
        dist_mat = ctx.dist_mat
        col_of = ctx.col_of
        table = {}
        for pid in ctx.model.catalog.ingress_ids(ug):
            col = col_of[pid]
            lat = lat_mat[row, col]
            table[pid] = (
                float(dist_mat[row, col]),
                None if math.isinf(lat) else float(lat),
            )
        return table

    def round_start(self, base_np: "np.ndarray") -> None:
        """Start a prefix and write the shard's initial gains into the
        shared buffer at each peering's span."""
        self.rows.round_start(base_np)
        gains = self.ctx.gain_buf
        for pid, (start, count) in self.spans.items():
            if count:
                gains[start : start + count] = self.rows.initial_gains(pid)

    def refresh(self, pids: Sequence[int]) -> List["np.ndarray"]:
        """The shard's contribution slice for each requested peering."""
        return [self.rows.refresh(pid) for pid in pids]

    def accept(self, pid: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """The shard's rows of ``pid`` and their new expected latencies."""
        return self.rows.accept(pid)

    def invalidate(self, ug_ids: Sequence[int]) -> int:
        """Drop per-solve state after the parent's model learned ``ug_ids``.

        The next ``prep`` rebuilds the learned split from the authoritative
        set the parent sends; dropping eagerly here makes it impossible for
        a stale layout to survive an ``observe()`` between solves.
        """
        self.rows = None
        self.spans = {}
        return len(tuple(ug_ids))
