"""Benchmark entry point: time a workload end to end, or trace its layers.

Run from the repository root::

    python3 perfbench/run.py --workload paper_p2 --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
phase twice, once plain and once with spans around each layer, and
prints the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is 0 only when every output check
passed. See ``perfbench/README.md`` for what each metric means.

Metric names, units and directions, the default ``--seconds`` and the
pinned thread counts are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# Pin BLAS/OpenMP threads, the command's KEY=VALUE words, before anything
# loads numpy; the cold-start children inherit them.
os.environ.update(
    word.split("=", 1) for word in BENCHMARK["command"] if "=" in word
)

import argparse  # noqa: E402
import compileall  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
#: Timed phases per run; a fresh-interpreter set-up sample follows each.
PHASES = 4
COLD_START_TIMEOUT_S = 120
#: Cache artifact kinds reported as ``cache.<kind>.*``.
CACHE_KINDS = ("params", "transpiled", "anneal")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def setup(args):
    """Import, build inputs, warm up: the span ``setup_s`` measures.

    A calibration sample taken right after gives the sample's host-speed
    factor, ``scale``.
    """
    start = workloads.CLOCK()
    import repro

    imported = workloads.CLOCK()
    location = os.path.dirname(os.path.abspath(repro.__file__))
    if location != os.path.join(SRC, "repro"):
        raise RuntimeError(f"imported repro from {location}, not {SRC}")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), PHASES
    )
    workload.build()
    built = workloads.CLOCK()
    workload.warm_up()
    done = workloads.CLOCK()
    return workload, {
        "import_s": imported - start,
        "inputs_s": built - imported,
        "warmup_s": done - built,
        "setup_s": done - start,
        "scale": calibration.scale(calibration.sample()),
    }


def cold_start(args) -> dict:
    """One set-up sample in a fresh interpreter."""
    command = [
        sys.executable, os.path.abspath(__file__), "--cold-start",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=COLD_START_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"cold start failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(workload, phase, tracer=None):
    if tracer is None:
        return workload.run_phase(phase)
    with tracing.installed(tracer):
        return workload.run_phase(phase, tracer)


def accounting(ops) -> dict:
    counts = defaultdict(int)
    for op in ops:
        counts["sent"] += 1
        counts[op.outcome] += 1
    return counts


def setup_median(samples, part: str) -> float:
    """Median of a set-up part over the samples, in nominal-host seconds."""
    return statistics.median(s[part] * s["scale"] for s in samples)


def end_to_end(workload, ops, samples, rss_mb) -> dict:
    failed = sum(op.failed for op in ops)
    return {
        "setup_s": setup_median(samples, "setup_s"),
        **workload.timing(ops),
        "success_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": rss_mb,
        **workload.quality(ops),
    }


def cache_counts(ops) -> dict:
    """Per-kind hits/misses/stores summed over the distinct caches used."""
    totals = defaultdict(lambda: defaultdict(int))
    snapshots = {id(op.cache_stats): op.cache_stats for op in ops
                 if op.cache_stats is not None}
    for snapshot in snapshots.values():
        for kind, bucket in snapshot.items():
            for event, count in bucket.items():
                key = "hits" if event.endswith("hits") else event
                totals[kind][key] += count
    return totals


def per_layer(workload, ops, pairs, tracer, samples) -> dict:
    traced = [op for op in ops if op.traced]
    n = len(traced)
    spans = tracer.spans
    scales = {op.op_id: op.scale for op in traced}
    own = tracing.self_seconds(spans, scales)
    inclusive = tracing.inclusive_seconds(spans, scales)
    calls = tracing.call_counts(spans)
    jobs = tracing.attr_totals(spans, "core.prepare")
    # A coalesced request shares its leader's solve; count that once.
    answers = [op.answer for op in traced if op.answer is not None
               and not op.leader]
    counts = defaultdict(int)
    for answer in answers:
        for key, value in answer.counts.items():
            counts[key] += value
    caches = cache_counts(traced)
    account = accounting(ops)
    warm_tries = counts["warm"] + counts["warm_rejected"]
    device_runs = answers if getattr(workload, "device", None) else []
    plain = sum(op.ref_seconds for untraced, _ in pairs for op in untraced)
    timed = sum(op.ref_seconds for _, traced_ops in pairs for op in traced_ops)
    waits = getattr(workload, "queue_waits", [])
    metrics = {
        "setup.import_s": setup_median(samples, "import_s"),
        "setup.inputs_s": setup_median(samples, "inputs_s"),
        "setup.warmup_s": setup_median(samples, "warmup_s"),
        "host.calib_s": statistics.median(workload.calibrations),
        "qaoa.train_s": own["qaoa.train"] / n,
        "qaoa.evals": counts["evals"] / n,
        "qaoa.grad_evals": counts["grad_evals"] / n,
        "qaoa.warm_accept_ratio": counts["warm"] / warm_tries if warm_tries else 0.0,
        "sim.finish_s": own["sim.finish"] / n,
        "sim.arg_pct": workloads.mean(map(workloads.arg_pct, device_runs))
        if device_runs else 0.0,
        "transpile.s": own["transpile"] / n,
        "transpile.calls": calls["transpile"] / n,
        "core.prepare_s": own["core.prepare"] / n,
        "core.finalize_s": own["core.finalize"] / n,
        "core.jobs": jobs["jobs"] / n,
        "core.dedup_jobs": jobs["dedup_jobs"] / n,
        "backend.run_s": inclusive["backend.run"] / n,
        "backend.overhead_s": own["backend.run"] / n,
        "backend.retries": counts["retries"],
        "backend.failed_jobs": counts["failed_jobs"],
        "ising.anneal_s": own["ising.anneal"] / n,
        "ising.anneal_calls": calls["ising.anneal"] / n,
        "recursive.plan_tree_s": own["recursive.plan_tree"] / n,
        "recursive.leaves": counts["leaves"] / n,
        "recursive.classical_nodes": counts["classical_nodes"] / n,
        "recursive.dedup_ratio": counts["dedup_leaves"] / counts["leaves"]
        if counts["leaves"] else 0.0,
        "service.queue_wait_s_p50": workloads.percentile(waits, 0.5) if waits else 0.0,
        "service.queue_wait_s_p90": workloads.percentile(waits, 0.9) if waits else 0.0,
        "service.dispatch_s": inclusive["service.dispatch"] / calls["service.dispatch"]
        if calls["service.dispatch"] else 0.0,
        "service.handoff_s": own["service.run"] / calls["service.run"]
        if calls["service.run"] else 0.0,
        "service.coalesced_frac": sum(1 for op in traced if op.leader) / n,
        "service.shed": account["shed"],
        "service.timeouts": account["timeout"],
        "load.sent": account["sent"],
        "load.ok": account["ok"],
        "load.degraded": account["degraded"],
        "load.failed": account["failed"] + account["cancelled"],
        "load.lag_s_max": getattr(workload, "lag_max", 0.0),
        "trace.overhead_pct": 100.0 * (timed - plain) / plain,
        "trace.span_coverage": tracing.coverage(spans, workload.root_span),
        "trace.spans": len(spans) / n,
    }
    for kind in CACHE_KINDS:
        bucket = caches[kind]
        lookups = bucket["hits"] + bucket["misses"]
        metrics[f"cache.{kind}.hit_ratio"] = bucket["hits"] / lookups if lookups else 0.0
        metrics[f"cache.{kind}.stores"] = bucket["stores"] / n
    return metrics


def report(metrics: dict, ops, workload) -> None:
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {METRICS[name]['unit']:<6} "
              f"({METRICS[name]['better']} is better)")
    account = accounting(ops)
    print("  ops: " + ", ".join(
        f"{key} {account[key]}"
        for key in ("sent", "ok", "degraded", "shed", "timeout",
                    "cancelled", "failed")
    ))
    # Which kinds of request the latency percentiles are made of.
    latency = {op.op_id: op.ref_seconds if not op.failed else math.inf
               for op in ops}
    p50 = workloads.percentile(latency.values(), 0.5)
    p90 = workloads.percentile(latency.values(), 0.9)
    low = [op for op in ops if latency[op.op_id] <= p50]
    high = [op for op in ops if latency[op.op_id] >= p90]
    for kind in sorted({op.kind for op in ops if op.kind}):
        mine = [latency[op.op_id] for op in ops if op.kind == kind]
        print(f"  {kind}: {len(mine)} requests ({len(mine) / len(ops):.0%}), "
              f"latency p50 {workloads.percentile(mine, 0.5):.4f} s "
              f"p90 {workloads.percentile(mine, 0.9):.4f} s; "
              f"{sum(op.kind == kind for op in low) / len(low):.0%} of "
              f"requests <= p50, "
              f"{sum(op.kind == kind for op in high) / len(high):.0%} of "
              f"requests >= p90")
    kernel = statistics.median(workload.calibrations)
    print(f"  host calibration: kernel median {kernel:.6f} s over "
          f"{len(workload.calibrations)} samples, nominal "
          f"{calibration.NOMINAL_S} s; timings are scaled to the nominal host")
    wall = [op.seconds if not op.failed else math.inf for op in ops]
    print(f"  unscaled wall clock: latency p50 "
          f"{workloads.percentile(wall, 0.5):.6g} s, p90 "
          f"{workloads.percentile(wall, 0.9):.6g} s")
    if hasattr(workload, "lag_max"):
        print(f"  generator lag max: {workload.lag_max:.6f} s "
              f"(limit {workload.lag_limit_s} s)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no package at {SRC}/repro; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.cold_start:
        print(json.dumps(setup(args)[1]))
        return 0

    compileall.compile_dir(SRC, quiet=1)
    workload, sample = setup(args)
    samples = [sample]
    tracer = tracing.Tracer() if args.trace else None
    ops, pairs = [], []
    for phase in range(PHASES):
        if tracer is None:
            ops += run_pass(workload, phase)
        else:
            # Alternate which pass goes first, so warm process-wide memos
            # favour each side equally.
            first_tracer = tracer if phase % 2 else None
            first = run_pass(workload, phase, first_tracer)
            second = run_pass(workload, phase, None if first_tracer else tracer)
            ops += first + second
            pairs.append((second, first) if first_tracer else (first, second))
        samples.append(cold_start(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.check(ops)
    if tracer is None:
        metrics = end_to_end(workload, ops, samples, rss_mb)
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
    else:
        metrics = per_layer(workload, ops, pairs, tracer, samples)
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(tracer.dump(), handle)
    if sorted(metrics) != sorted(names):
        raise RuntimeError(
            f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(names)}"
        )
    metrics = {name: float(metrics[name]) for name in names}

    failed = [op for op in ops if op.failed]
    problems = [f"{op.op_id}: {op.status} {op.error}".strip() for op in failed]
    lag_limit = getattr(workload, "lag_limit_s", math.inf)
    if getattr(workload, "lag_max", 0.0) > lag_limit:
        problems.append(f"generator fell behind by {workload.lag_max:.3f} s "
                        f"(limit {lag_limit} s): run invalid")
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and all(math.isfinite(v) for v in metrics.values())

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    report(metrics, ops, workload)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": METRICS[name]["unit"]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 — report and fail without a result
        traceback.print_exc()
        sys.exit(1)
