"""PAINTER benchmark: ``learn``, ``churn`` and ``dataplane`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload learn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run draws a fixed number of world seeds from ``--seed`` and plays an
*episode* on each world (see ``workloads.py``) in turn, round after round,
while another fits in ``--seconds``; every world is played at least the
size's ``passes`` times and the first at least twice, and every play of a
world must reproduce its output digest exactly.  Each request is timed at
its fastest over the plays of its world, and medians are taken over those
requests of every world.  Times are CPU seconds, calibrated against the
host's speed of the moment (see ``workloads.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``spec.END_TO_END``; with ``--trace 1`` the
layer wrappers of ``tracing.py`` are installed and the metrics are the
per-layer ones of ``spec.PER_LAYER``.  Lines above it print the same
figures for people, including each workload's named figures and the
span self-time table.  The exit code is 1 if any correctness check
failed, 2 if the program under test cannot be imported.

``--workload all`` runs each workload in its own process (peak RSS is
per workload process); with ``--trace 1`` it also runs each untraced and
prints the tracing overhead, traced minus untraced, per end-to-end metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import spec  # noqa: E402  (sits beside this file)

#: A p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.ALL + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized worlds (smoke test)")
    return parser.parse_args(argv)


def import_program():
    """Put ``src/`` on the path and import the workloads, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        sys.exit(2)
    return workloads


def world_seeds(seed: int, count: int):
    """The ``count`` world seeds of a run, drawn in order from ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def play(workloads, name, seed, seconds, size, tracer, workdir, probe):
    """Plays the run's worlds in turn, over and over, until ``seconds`` is spent.

    Returns (plays, failures): ``plays[i]`` lists the episodes of world
    ``i``, in order.  Every world is played at least ``size.passes`` times
    and the first world at least twice; a further episode starts only
    while it still fits in ``seconds``.  Every play of a world must
    reproduce its output digest exactly.
    """
    episode = workloads.EPISODES[name]
    worlds = world_seeds(seed, size.worlds)
    plays = [[] for _ in worlds]
    failures = []

    def attempt(world):
        try:
            with tracer.span("bench.episode"):
                return episode(world, size, tracer, workdir, probe)
        except Exception:
            traceback.print_exc()
            failures.append(f"world {world}: episode raised")
            return None

    least = max(size.passes * len(worlds), len(worlds) + 1)
    started = time.perf_counter()
    played = 0
    while True:
        index = played % len(worlds)
        plays[index].append(attempt(worlds[index]))
        played += 1
        elapsed = time.perf_counter() - started
        next_ends = elapsed * (played + 1) / played
        if played >= least and next_ends > seconds:
            break
    for world, eps in zip(worlds, plays):
        digests = {ep.digest for ep in eps if ep is not None}
        if len(digests) > 1:
            failures.append(f"world {world}: plays produced different digests")
    return plays, failures


def fastest(eps):
    """One episode per world: each request at its fastest over the plays.

    Host contention only ever adds time, and what calibration leaves of it
    comes and goes within seconds, so the fastest of a few plays of the
    same request is the closest to the program's own cost; medians are
    then taken over these.  Figures and work counts are the same in every
    play.
    """
    first = eps[0]
    best = lambda lists: [min(times) for times in zip(*lists)]
    return dataclasses.replace(
        first,
        setup_s=min(ep.setup_s for ep in eps),
        setup_cpu_s=min(ep.setup_cpu_s for ep in eps),
        requests=best([ep.requests for ep in eps]),
        requests_cpu=best([ep.requests_cpu for ep in eps]),
        requests_wall=best([ep.requests_wall for ep in eps]),
        cold_requests=best([ep.cold_requests for ep in eps]),
        work_s=min(ep.work_s for ep in eps),
        work_cpu_s=min(ep.work_cpu_s for ep in eps),
    )


def tail(values):
    """The p90, or None when fewer than ten samples lie beyond it."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(name, eps):
    """(gated metrics, named figures, request count) of the worlds' ``fastest``.

    A run of a seed always plays the same worlds, so the quality figures,
    averaged over them, are a pure function of the seed.
    """
    requests = [r for ep in eps for r in ep.requests]
    gated = {
        "setup_s": statistics.median(ep.setup_s for ep in eps),
        "request_p50_s": statistics.median(requests),
        "work_per_s": sum(ep.work_units for ep in eps) / sum(ep.work_s for ep in eps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90 = tail(requests)
    figure = lambda key: statistics.fmean(ep.figures[key] for ep in eps)
    if name == "learn":
        named = {
            "solve_cold_s": statistics.median(r for ep in eps for r in ep.cold_requests),
            "solve_learned_s": gated["request_p50_s"],
            "realized_benefit": figure("realized_benefit"),
        }
    elif name == "churn":
        named = {
            "reconverge_p50_s": gated["request_p50_s"],
            "reconverge_p90_s": p90,
            "realized_benefit": figure("realized_benefit"),
        }
    else:
        named = {
            "flows_per_s": gated["work_per_s"],
            "window_p50_s": gated["request_p50_s"],
            "window_p90_s": p90,
            "fleet_p99_ms": figure("fleet_p99_ms"),
        }
    return gated, named, len(requests)


def per_layer(tracer, n_episodes, perf_delta):
    fam, calls, counts = tracer.family_s, tracer.family_calls, tracer.counts
    per_episode = lambda value: value / n_episodes
    ratio = lambda a, b: a / b if b else 0.0
    metrics = {
        "core.warm_reuse_ratio": ratio(counts["warm.reused"], counts["warm.all"]),
        "core.laziness_ratio": ratio(
            perf_delta["orchestrator.marginal_evals"],
            perf_delta["orchestrator.naive_marginal_evals"],
        ),
        "controller.checkpoint_bytes": ratio(
            counts["checkpoint.bytes"], calls["controller.checkpoint"]
        ),
        "controller.overhead_s": per_episode(
            fam["controller.iteration"] - tracer.solve_in_iteration_s
            - tracer.probe_in_iteration_s
        ),
        "traffic_manager.forward_flows": per_episode(counts["forward.flows"]),
        "soak.batches_per_window": ratio(calls["soak.load_batch"], calls["soak.ledger"]),
    }
    for layer in spec.PER_LAYER:
        if layer.name in metrics:
            continue
        family, _, kind = layer.name.rpartition("_")
        source = fam if kind == "s" else calls
        metrics[layer.name] = per_episode(source[family])
    return metrics


PERF_COUNTERS = ("orchestrator.marginal_evals", "orchestrator.naive_marginal_evals")


def perf_counts():
    from repro.perf import PERF

    return {name: PERF.counter(name).value for name in PERF_COUNTERS}


def show(label, value, unit):
    text = "n/a (fewer than 100 requests)" if value is None else f"{value:.6g} {unit}"
    print(f"  {label:<44} {text}")


def run_one(args) -> int:
    workloads = import_program()
    import tracing

    size = (workloads.TOY if args.toy else workloads.FULL)[args.workload]
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer(run_id) if args.trace else tracing.NullTracer()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    undo = tracing.install(tracer) if args.trace else None
    before = perf_counts()
    try:
        probe = (functools.partial(tracer.probe, workloads.host_probe)
                 if args.trace else workloads.host_probe)
        plays, failures = play(
            workloads, args.workload, args.seed, args.seconds, size, tracer, workdir,
            probe,
        )
    finally:
        if undo is not None:
            undo()
        shutil.rmtree(workdir, ignore_errors=True)
    after = perf_counts()

    eps = [ep for world in plays for ep in world if ep is not None]
    checks = [(name, ok) for ep in eps for name, ok in ep.checks]
    failed_checks = sorted({name for name, ok in checks if not ok})
    n_requests = sum(len(ep.requests) + len(ep.cold_requests) for ep in eps)
    attempted = n_requests + len(checks) + len(failures)
    failed = sum(1 for _, ok in checks if not ok) + len(failures)

    loop = next(w.loop for w in spec.WORKLOADS if w.name == args.workload)
    print(f"workload {args.workload}  seed {args.seed}  worlds {len(plays)}  "
          f"plays {[len(world) for world in plays]}  {size}  [{loop}]")
    for line in failures + [f"check failed: {name}" for name in failed_checks]:
        print(f"  FAIL {line}")
    if not failures:
        best = [fastest(world) for world in plays]
        gated, named, n = end_to_end(args.workload, best)
        print(f"end-to-end ({'traced' if args.trace else 'untraced'}, {n} requests "
              "each at its fastest over the plays, calibrated CPU seconds):")
        units = spec.end_to_end_units()
        for metric, value in gated.items():
            show(metric, value, units[metric])
            print(f"      = {spec.MEANING[metric][args.workload]}")
        print("named figures:")
        named_units = dict(spec.NAMED[args.workload])
        for metric, value in named.items():
            show(metric, value, named_units[metric])
        show("error_rate", failed / attempted, "ratio")
        wall = [r for ep in best for r in ep.requests_wall]
        print(f"wall clock, same requests (with steal and fsync waits): "
              f"p50 {statistics.median(wall):.6g} s, p90 "
              + (f"{tail(wall):.6g} s" if tail(wall) else "n/a"))
        print(f"first-world output digest {best[0].digest}")
        print("end-to-end: " + json.dumps(gated))
        raw = end_to_end(args.workload, [ep.uncalibrated() for ep in best])[0]
        print("end-to-end, uncalibrated CPU seconds: " + json.dumps(raw))
    else:
        gated = {m.name: 0.0 for m in spec.END_TO_END}

    if args.trace:
        n_episodes = len(eps)
        metrics = per_layer(tracer, n_episodes, {
            key: after[key] - before[key] for key in PERF_COUNTERS
        })
        report_trace(tracer, n_episodes, metrics)
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
        units = spec.layer_units()
    else:
        metrics = gated
        units = spec.end_to_end_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def report_trace(tracer, n_episodes, metrics):
    units = spec.layer_units()
    print("per-layer (per episode, every play included):")
    for layer in spec.PER_LAYER:
        show(layer.name, metrics[layer.name], units[layer.name])
    solve = metrics["core.solve_s"]
    if solve:
        share = metrics["routing_model.candidate_ingresses_s"] / solve
        print(f"  routing_model.candidate_ingresses_s / core.solve_s = {share:.1%}")
    print("spans, per episode (calls, inclusive s, self s), by self time:")
    table = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, self_s) in table:
        print(f"  {name:<36} {calls / n_episodes:>12.1f} "
              f"{total / n_episodes:>10.4f} {self_s / n_episodes:>10.4f}")
    print("predictions (per-layer metric -> end-to-end metric it should move):")
    for line in spec.predictions():
        print(f"  {line}")


def run_all(args) -> int:
    """Every workload in its own process; with tracing, also the overhead."""
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.ALL:
        child = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.toy:
            child.append("--toy")
        runs = {}
        for trace in ((0, 1) if args.trace else (0,)):
            proc = subprocess.run(child + ["--trace", str(trace)],
                                  stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            worst = max(worst, proc.returncode)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 2 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for key, entry in result["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = entry
            runs[trace] = next(
                (json.loads(line[len("end-to-end: "):]) for line in lines
                 if line.startswith("end-to-end: ")), None)
        if args.trace and runs[0] and runs[1]:
            print(f"tracing overhead on {name} (traced - untraced):")
            for metric, plain in runs[0].items():
                delta = runs[1][metric] - plain
                print(f"  {metric:<44} {delta:+.6g} ({delta / plain:+.1%})")
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
