"""Span tracing for the traced benchmark run.

The plain run installs nothing.  The traced run calls :func:`install`,
which wraps the public entry point of every layer listed in
:data:`WRAPPED` with a span recorder; :func:`install` returns an undo
callback that puts the original attributes back.

A span records its name, start, end, parent span and run id, plus the id
of the request it belongs to (the nearest enclosing request span).  Spans
are kept in memory and written out once, by :meth:`Tracer.write`, when the
run ends.  Calls made hundreds of thousands of times per run (the routing
model's candidate prediction, ground-truth routing lookups, per-sample
learning, journal appends) are *aggregated* instead of stored: their count
and time are added to a per-name total and charged to the enclosing span,
so self times stay exact while memory stays bounded.

Self time of a span is its duration minus the time of its direct children
(aggregated children included); everything here is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

#: (``module:attribute path``, span name[, metric family]).
#:
#: The metric family is the per-layer metric stem and defaults to the span
#: name; several entry points can feed one family (``core.solve`` covers
#: ``solve``, ``solve_warm`` and ``solve_cold``).  A family's inclusive
#: time counts only its outermost call, so an entry point that calls
#: another of the same family is not counted twice.  ``realized_benefit``
#: is wrapped in every module that imported it by name.
WRAPPED: Tuple[Tuple[str, ...], ...] = (
    ("repro.scenario:build_scenario", "scenario.build"),
    ("repro.scenario:build_topology", "scenario.topology"),
    ("repro.scenario:generate_user_groups", "scenario.usergroups"),
    ("repro.scenario:LatencyModel", "scenario.measurement"),
    ("repro.core.orchestrator:PainterOrchestrator.solve", "core.solve"),
    ("repro.core.orchestrator:PainterOrchestrator.solve_warm", "core.solve_warm",
     "core.solve"),
    ("repro.core.orchestrator:PainterOrchestrator.solve_cold", "core.solve_cold",
     "core.solve"),
    ("repro.core.orchestrator:PainterOrchestrator.execute_and_observe",
     "core.observe"),
    ("repro.core.benefit:BenefitEvaluator.materialize_latency_matrices",
     "core.materialize"),
    ("repro.core.benefit:BenefitEvaluator.evaluate", "core.evaluate"),
    ("repro.core.benefit:BenefitEvaluator.expected_benefit",
     "core.expected_benefit", "core.evaluate"),
    ("repro.core.benefit:realized_benefit", "core.realized_benefit",
     "core.evaluate"),
    ("repro.core.orchestrator:realized_benefit", "core.realized_benefit",
     "core.evaluate"),
    ("repro.controller.daemon:realized_benefit", "core.realized_benefit",
     "core.evaluate"),
    ("repro.core.routing_model:RoutingModel.candidate_ingresses",
     "routing_model.candidate_ingresses"),
    ("repro.core.routing_model:RoutingModel.observe", "routing_model.observe"),
    ("repro.kernels.numpy_backend:NumpyBackend.initial_gains",
     "kernels.initial_gains"),
    ("repro.kernels.numpy_backend:NumpyBackend.refresh_contrib",
     "kernels.refresh_contrib"),
    ("repro.routing.ground_truth:GroundTruthRouting.latency_for",
     "routing.latency_for"),
    ("repro.routing.ground_truth:GroundTruthRouting.ingress_for",
     "routing.ingress_for"),
    ("repro.bgp.simulator:BGPSimulator.propagate", "bgp.propagate"),
    # The controller has no public per-iteration entry point; its
    # iteration method is the request boundary of churn and dataplane.
    ("repro.controller.daemon:PainterController._run_iteration",
     "controller.iteration"),
    ("repro.controller.checkpoint:CheckpointStore.save", "controller.checkpoint"),
    ("repro.controller.checkpoint:DurableJournal.event",
     "controller.journal_event", "controller.journal"),
    ("repro.controller.checkpoint:DurableJournal.sync",
     "controller.journal_sync", "controller.journal"),
    ("repro.traffic_manager.dataplane:VectorFlowTable.forward",
     "traffic_manager.forward"),
    ("repro.traffic_manager.dataplane:VectorFlowTable.end", "traffic_manager.end"),
    ("repro.traffic_manager.dataplane:VectorFlowTable.remap",
     "traffic_manager.remap"),
    ("repro.traffic_manager.dataplane:VectorFlowTable.to_packed_snapshot",
     "traffic_manager.snapshot"),
    ("repro.traffic_manager.selection:SelectorBank.update_matrix",
     "traffic_manager.select"),
    ("repro.soak.load:DiurnalLoad.batch", "soak.load_batch"),
    ("repro.soak.slo:SLOLedger.observe_window", "soak.ledger"),
    ("repro.soak.runner:SoakDriver.after_iteration", "soak.window"),
)

#: Spans aggregated instead of stored (each is called thousands of times
#: per episode).
AGGREGATED = frozenset({
    "routing_model.candidate_ingresses",
    "routing_model.observe",
    "kernels.initial_gains",
    "kernels.refresh_contrib",
    "routing.latency_for",
    "routing.ingress_for",
    "bgp.propagate",
    "controller.journal_event",
})

#: Span names that open a new request (their descendants share its id).
REQUEST_SPANS = frozenset({"learn.round", "controller.iteration"})


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Closed spans: [span_id, parent_id, request_id, name, start, end, child_s]
        self.spans: List[list] = []
        #: Open stored spans, for parent and request ids.
        self._records: List[list] = []
        #: Every open span, stored or aggregated; the last item of each
        #: entry accumulates the time of its direct children.
        self._stack: List[list] = []
        self._next_id = 1
        #: Per metric family: inclusive seconds of outermost calls, and calls.
        self.family_s: Dict[str, float] = defaultdict(float)
        self.family_calls: Counter = Counter()
        self._family_depth: Counter = Counter()
        #: Aggregated (not stored) spans, per name: [calls, seconds, self s].
        self.aggregated: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: Side counters recorded at the same boundaries.
        self.counts: Counter = Counter()
        #: Seconds of ``core.solve`` spent inside controller iterations.
        self.solve_in_iteration_s = 0.0
        #: Seconds of the calibration probe spent inside controller iterations.
        self.probe_in_iteration_s = 0.0

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._records[-1] if self._records else None
        span_id = self._next_id
        self._next_id += 1
        if name in REQUEST_SPANS or parent is None:
            request_id = span_id
        else:
            request_id = parent[2]
        record = [span_id, parent[0] if parent else None, request_id, name,
                  time.perf_counter(), None, 0.0]
        self._records.append(record)
        self._stack.append(record)
        return record

    def _close(self, record: list) -> float:
        record[5] = time.perf_counter()
        self._records.pop()
        self._stack.pop()
        duration = record[5] - record[4]
        if self._stack:
            self._stack[-1][-1] += duration
        self.spans.append(record)
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (episodes, learn rounds)."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def probe(self, fn: Callable[[], float]) -> float:
        """Runs the calibration probe ``fn`` in a span of its own."""
        with self.span("bench.probe"):
            start = time.perf_counter()
            value = fn()
        if self._family_depth["controller.iteration"]:
            self.probe_in_iteration_s += time.perf_counter() - start
        return value

    def _account(self, family: str, seconds: float) -> None:
        self.family_calls[family] += 1
        if self._family_depth[family] == 0:
            self.family_s[family] += seconds
            if family == "core.solve" and self._family_depth["controller.iteration"]:
                self.solve_in_iteration_s += seconds

    def wrap(self, fn: Callable, name: str, family: str, aggregated: bool) -> Callable:
        tracer = self
        depth = self._family_depth
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        if aggregated:
            totals = self.aggregated[name]
            stack = self._stack

            def leaf(*args, **kwargs):
                depth[family] += 1
                entry = [0.0]
                stack.append(entry)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = clock() - start
                    stack.pop()
                    depth[family] -= 1
                    totals[0] += 1
                    totals[1] += seconds
                    totals[2] += seconds - entry[0]
                    if stack:
                        stack[-1][-1] += seconds
                    tracer._account(family, seconds)

            return leaf

        def traced(*args, **kwargs):
            record = tracer._open(name)
            depth[family] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[family] -= 1
                tracer._account(family, tracer._close(record))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for _sid, _parent, _req, name, start, end, child in self.spans:
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        for name, (calls, seconds, self_s) in self.aggregated.items():
            row = table[name]
            row[0] += calls
            row[1] += seconds
            row[2] += self_s
        return table

    def write(self, path: Path) -> None:
        """Write every stored span, then the aggregated totals, as JSONL."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for sid, parent, req, name, start, end, child in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "span": sid, "parent": parent,
                    "request": req, "name": name, "start": start, "end": end,
                    "self_s": end - start - child,
                }) + "\n")
            for name, (calls, seconds, self_s) in sorted(self.aggregated.items()):
                out.write(json.dumps({
                    "run": self.run_id, "name": name, "aggregated": True,
                    "calls": calls, "total_s": seconds, "self_s": self_s,
                }) + "\n")


class NullTracer:
    """What the plain run uses: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


# -- per-entry-point side counters ---------------------------------------------


def _after_solve_warm(tracer: Tracer, args, result) -> None:
    stats = args[0].last_warm_stats
    if stats is not None:
        tracer.counts["warm.reused"] += stats.reused_evals + stats.patched_evals
        tracer.counts["warm.all"] += (
            stats.reused_evals + stats.patched_evals + stats.fresh_evals
        )


def _after_checkpoint(tracer: Tracer, args, result) -> None:
    tracer.counts["checkpoint.bytes"] += Path(result).stat().st_size


def _after_forward(tracer: Tracer, args, result) -> None:
    tracer.counts["forward.flows"] += len(args[1])


_HOOKS: Dict[str, Callable] = {
    "core.solve_warm": _after_solve_warm,
    "controller.checkpoint": _after_checkpoint,
    "traffic_manager.forward": _after_forward,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in :data:`WRAPPED`; return the undo callback.

    A missing entry point raises, so a rename in the program fails the
    traced run loudly instead of silently dropping a layer.
    """
    undo: List[Tuple[object, str, object]] = []
    try:
        for target, name, *family in WRAPPED:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            wrapper = tracer.wrap(
                original, name, family[0] if family else name, name in AGGREGATED
            )
            setattr(owner, attr, wrapper)
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
