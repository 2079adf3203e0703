"""The three benchmark workloads.

Each workload builds its inputs from the seed during set-up, runs timed
phases (a closed loop of solves, or an open-loop schedule of service
requests), computes its quality references only after the timed phases,
and checks every output it produced.

No module here imports ``repro`` at import time: ``run.py`` times
``import repro`` itself as part of set-up.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field

import calibration

CLOCK = time.perf_counter


@dataclass(frozen=True)
class Answer:
    """What the benchmark keeps of a solve result.

    Results are checked and reduced to this as soon as they arrive, so
    holding them does not grow the process's peak RSS with the run length.

    Attributes:
        spins: Best assignment found.
        value: Its reported cost.
        ev_ideal: Ideal expectation (NaN for classical answers).
        ev_noisy: Noisy expectation (NaN for classical answers).
        counts: Per-solve counters from the result fields.
        leaves: Recursive only: ``(hamiltonian, ev_ideal)`` of every
            executed quantum leaf.
    """

    spins: tuple
    value: float
    ev_ideal: float = math.nan
    ev_noisy: float = math.nan
    counts: dict = field(default_factory=dict)
    leaves: tuple = ()

    @property
    def key(self) -> tuple:
        """Bit-exact identity of the answer."""
        return self.spins, float(self.value).hex()


@dataclass
class Op:
    """One timed operation: a solve (closed loop) or a request (open loop).

    Attributes:
        op_id: Solve or request id; spans of the op carry it.
        instance: Index into the workload's instance list.
        phase: Phase (service: segment) the op ran in.
        start: Clock at solve start, or the request's scheduled send time.
        end: Clock at return or resolution (``inf`` when never resolved).
        answer: The checked, reduced result (``None`` on failure).
        status: ``ok``, ``degraded``, ``shed``, ``timeout``,
            ``cancelled`` or ``failed``.
        error: Exception text or failed output check.
        traced: Whether the op ran with the shims installed.
        leader: Service only: the request a coalesced request rode.
        kind: Service only: the kind of the slot that sent the request.
        cache_stats: Counters of the :class:`~repro.SolveCache` the op
            used, read when the op (service: its segment) ended.
        scale: Host-speed factor from calibration samples taken just
            before and after the op (service: its stretch).
    """

    op_id: str
    instance: int
    phase: int
    start: float = 0.0
    end: float = math.inf
    answer: "Answer | None" = None
    status: str = "ok"
    error: str = ""
    traced: bool = False
    leader: str = ""
    kind: str = ""
    cache_stats: "dict | None" = None
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """Wall seconds on this host."""
        return self.end - self.start

    @property
    def ref_seconds(self) -> float:
        """Seconds on the nominal host (see ``calibration``)."""
        return self.seconds * self.scale

    @property
    def outcome(self) -> str:
        """``status``, or ``"failed"`` for a result that failed its check."""
        if self.error and self.status in ("ok", "degraded"):
            return "failed"
        return self.status

    @property
    def failed(self) -> bool:
        return self.outcome not in ("ok", "degraded")


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q
    low, high = math.floor(position), math.ceil(position)
    if math.isinf(ordered[high]):
        return ordered[high]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def check_result(hamiltonian, result) -> str:
    """The invariant every solve must keep; ``""`` when it holds."""
    if hasattr(result, "best_spins"):
        spins, value = result.best_spins, result.best_value
    else:  # ClassicalResult from the service's degraded path
        spins, value = result.spins, result.value
    actual = hamiltonian.evaluate(spins)
    if value != actual:
        return f"best_value {value!r} != evaluate(best_spins) {actual!r}"
    failed_jobs = getattr(result, "num_failed_jobs", 0)
    if failed_jobs:
        return f"{failed_jobs} job(s) failed"
    return ""


def summarize(result) -> Answer:
    """Reduce a solve result to an :class:`Answer`."""
    if not hasattr(result, "best_spins"):  # ClassicalResult
        return Answer(tuple(result.spins), result.value)
    parts = [result]
    if hasattr(result, "tree"):
        parts = list(result.leaf_results.values())
    counts = {
        "evals": sum(p.num_optimizer_evaluations for p in parts),
        "grad_evals": sum(p.num_gradient_evaluations for p in parts),
        "warm": sum(p.num_warm_started for p in parts),
        "warm_rejected": sum(p.num_warm_start_rejected for p in parts),
        "retries": result.num_job_retries,
        "failed_jobs": result.num_failed_jobs,
    }
    leaves = ()
    if hasattr(result, "tree"):
        counts.update(
            leaves=result.num_leaves,
            classical_nodes=result.num_classical_nodes,
            dedup_leaves=result.num_deduplicated_leaves,
        )
        leaves = tuple((p.hamiltonian, p.ev_ideal) for p in parts)
    return Answer(tuple(result.best_spins), result.best_value,
                  result.ev_ideal, result.ev_noisy, counts, leaves)


def arg_pct(answer: Answer) -> float:
    """ARG of paper Eq. 4, in percent."""
    return 100.0 * abs(answer.ev_ideal - answer.ev_noisy) / abs(answer.ev_ideal)


def instance_seed(seed: int, index: int) -> int:
    """The solver seed of instance ``index`` of the pool built from ``seed``."""
    return random.Random(f"{seed}/{index}").randrange(2**31)


class Workload:
    """Inputs, timed phases, references and checks of one workload.

    Args:
        seed: Workload seed; the same seed gives the same inputs.
        seconds: Measured seconds of the run.
        trace: Whether this is a traced run (each phase runs twice).
        phases: Timed phases; the run takes a cold-start sample between them.
    """

    name = ""
    #: Root span whose coverage by its shimmed children a traced run reports.
    root_span = "solve"
    #: Seed of the fixed instance pool every workload seed solves.
    pool_seed = 2023

    def __init__(self, seed: int, seconds: float, trace: bool, phases: int):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.phases = phases
        #: Every calibration sample taken around the timed work.
        self.calibrations: list = []

    def calibrate(self) -> float:
        seconds = calibration.sample()
        self.calibrations.append(seconds)
        return seconds

    def build(self) -> None:
        """Build the inputs (part of set-up)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One fixed small solve outside the timed inputs (part of set-up)."""
        raise NotImplementedError

    def run_phase(self, index: int, tracer=None) -> list:
        """Run phase ``index``: the same work every time it is called."""
        raise NotImplementedError

    def hamiltonian(self, op: Op):
        return self.instances[op.instance]

    def record(self, op: Op, result) -> None:
        """Check a result as it arrives and keep only its answer."""
        op.error = op.error or check_result(self.hamiltonian(op), result)
        op.answer = summarize(result)

    def check(self, ops: list) -> None:
        """Checks across operations; failures go to the op's ``error``."""

    def throughput(self, ops: list) -> float:
        """``solves_per_s`` of the timed ops."""
        raise NotImplementedError

    def timing(self, ops: list) -> dict:
        """Throughput and latency percentiles, in nominal-host seconds; a
        failed op never arrives."""
        latencies = [op.ref_seconds if not op.failed else math.inf for op in ops]
        return {
            "solves_per_s": self.throughput(ops),
            "latency_p50_s": percentile(latencies, 0.5),
            "latency_p90_s": percentile(latencies, 0.9),
        }

    def quality(self, ops: list) -> dict:
        """``ar_ideal`` and ``best_ratio``; references are computed here."""
        raise NotImplementedError


class ClosedLoop(Workload):
    """One client solving a fixed instance list back to back.

    A run makes a fixed number of solves, sized so that they take about
    ``--seconds`` on the host this benchmark was built on, and spreads
    them evenly over the phases. Fixed work, rather than a deadline,
    keeps the solved set, and with it the quality metrics, the same for
    a given ``--seconds``.

    Every seed solves the same instance pool, ``ba_suite``'s default
    seed, each instance with a solver seed of its own; the workload seed
    sets the solve order. Instance cost and quality, and AR across
    solver seeds, vary far more than a few solves average out, so drawn
    sets would make throughput and AR properties of the draw rather than
    of the code.
    """

    #: Typical seconds per solve; sets the number of solves per run.
    nominal_solve_s = 3.0

    def suite(self, count: int) -> list:
        raise NotImplementedError

    def solver(self, index: int, cache):
        raise NotImplementedError

    def order(self, count: int) -> list:
        """The seeded order the instances are solved in."""
        order = list(range(count))
        random.Random(f"{self.name}/{self.seed}").shuffle(order)
        return order

    def build(self) -> None:
        count = max(self.phases, round(self.seconds / self.nominal_solve_s))
        if self.trace:  # every instance is solved twice
            count = max(self.phases, round(count / 2))
        self.device = None
        self.instances = [w.hamiltonian for w in self.suite(count)]
        order = self.order(count)
        self.plan = [
            order[count * i // self.phases: count * (i + 1) // self.phases]
            for i in range(self.phases)
        ]

    def run_phase(self, index, tracer=None):
        """Solve the phase's instances, calibrating between solves."""
        ops = []
        before = self.calibrate()
        for i in self.plan[index]:
            op = self.solve(i, index, tracer)
            after = self.calibrate()
            op.scale = calibration.scale(before, after)
            before = after
            ops.append(op)
        return ops

    def solve(self, index: int, phase: int, tracer) -> Op:
        from repro import SolveCache

        cache = SolveCache()
        solver = self.solver(index, cache)
        op = Op(f"s{index}", index, phase, traced=tracer is not None)
        span = (
            tracer.span("solve", op.op_id)
            if tracer is not None
            else contextlib.nullcontext()
        )
        result = None
        op.start = CLOCK()
        try:
            with span:
                result = solver.solve(
                    self.instances[index], device=self.device, backend="serial"
                )
        except Exception:  # noqa: BLE001 — recorded and counted as failed
            op.status, op.error = "failed", traceback.format_exc()
        op.end = CLOCK()
        op.cache_stats = cache.stats_snapshot()
        if result is not None:
            self.record(op, result)
        return op

    def throughput(self, ops: list) -> float:
        return len(ops) / sum(op.ref_seconds for op in ops)

    def quality_ops(self, ops: list) -> list:
        return [op for op in ops if op.answer is not None]


class PaperP2(ClosedLoop):
    """Paper setting at depth 2: BA d=2, 16 variables, m=4, montreal."""

    name = "paper_p2"

    def suite(self, count):
        from repro.experiments.workloads import ba_suite

        return ba_suite(sizes=(16,), attachment=2, trials=count,
                        seed=self.pool_seed)

    def build(self) -> None:
        from repro import get_backend

        super().build()
        self.device = get_backend("montreal")

    def solver(self, index, cache):
        from repro import FrozenQubitsSolver, SolverConfig

        return FrozenQubitsSolver(
            num_frozen=4,
            config=SolverConfig(num_layers=2),
            seed=instance_seed(self.pool_seed, index),
            cache=cache,
        )

    def warm_up(self) -> None:
        from repro import (
            FrozenQubitsSolver, IsingHamiltonian, SolveCache, SolverConfig,
            barabasi_albert_graph,
        )

        graph = barabasi_albert_graph(8, attachment=2, seed=0)
        problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=0)
        FrozenQubitsSolver(
            num_frozen=2, config=SolverConfig(num_layers=2, shots=256),
            seed=0, cache=SolveCache(),
        ).solve(problem, device=self.device, backend="serial")

    def quality(self, ops: list) -> dict:
        from repro import brute_force_minimum

        ratios, best = [], []
        for op in self.quality_ops(ops):
            c_min = brute_force_minimum(self.hamiltonian(op)).value
            ratios.append(op.answer.ev_ideal / c_min)
            best.append(op.answer.value / c_min)
        return {"ar_ideal": mean(ratios), "best_ratio": mean(best)}


class Recursive1k(ClosedLoop):
    """Recursive freeze tree on 1000-variable BA d=1 instances."""

    name = "recursive_1k"
    nominal_solve_s = 2.8

    def suite(self, count):
        from repro.experiments.workloads import ba_suite

        return ba_suite(sizes=(1000,), attachment=1, trials=count,
                        seed=self.pool_seed)

    def solver(self, index, cache):
        from repro import (
            ExecutionBudget, FrozenQubitsSolver, RecursiveConfig, SolverConfig,
        )

        return FrozenQubitsSolver(
            config=SolverConfig(shots=256, recursive=True),
            recursive_config=RecursiveConfig(max_leaf_qubits=12),
            budget=ExecutionBudget(max_circuits=32),
            seed=instance_seed(self.pool_seed, index),
            cache=cache,
        )

    def warm_up(self) -> None:
        from repro import (
            ExecutionBudget, FrozenQubitsSolver, IsingHamiltonian,
            RecursiveConfig, SolveCache, SolverConfig, barabasi_albert_graph,
        )

        graph = barabasi_albert_graph(30, attachment=1, seed=0)
        problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=0)
        FrozenQubitsSolver(
            config=SolverConfig(shots=64, recursive=True),
            recursive_config=RecursiveConfig(max_leaf_qubits=6),
            budget=ExecutionBudget(max_circuits=2),
            seed=0, cache=SolveCache(),
        ).solve(problem, backend="serial")

    def record(self, op: Op, result) -> None:
        super().record(op, result)
        try:
            result.tree.validate_partition()
        except Exception as exc:  # noqa: BLE001 — a failed check
            op.error = op.error or f"validate_partition: {exc}"

    def quality(self, ops: list) -> dict:
        """AR over the executed quantum leaves (the root EV is NaN once
        classical nodes cover part of the tree), without each leaf's
        constant offset; best value against a seeded full-instance
        simulated annealing."""
        from repro import brute_force_minimum, simulated_annealing

        leaf_ratios, best = [], []
        for op in self.quality_ops(ops):
            reference = simulated_annealing(
                self.hamiltonian(op),
                seed=instance_seed(self.pool_seed, op.instance),
            )
            best.append(op.answer.value / reference.value)
            for leaf, ev_ideal in op.answer.leaves:
                # A leaf carries the frozen couplings as a constant
                # offset; AR is taken over the part QAOA can change.
                offset = leaf.offset
                c_min = brute_force_minimum(leaf).value - offset
                if c_min != 0.0 and math.isfinite(ev_ideal):
                    leaf_ratios.append((ev_ideal - offset) / c_min)
        return {"ar_ideal": mean(leaf_ratios), "best_ratio": mean(best)}


@dataclass(frozen=True)
class Slot:
    """One scheduled send: ``copies`` identical requests at ``offset``.

    ``kind`` is ``fresh`` (a new instance), ``burst`` (a new instance
    sent as simultaneous copies, which coalesce) or ``repeat`` (an
    instance already solved in the segment, answered from the cache).
    """

    offset: float
    instance: int
    kind: str
    copies: int = 1


class ServiceMix(Workload):
    """Open-loop arrivals into a :class:`~repro.SolveService`.

    The run is split into segments (one per phase). Each segment has its
    own service and shared memory cache and its own fresh instances, so
    a segment is self-contained and can be replayed exactly. A segment
    is sent in :attr:`stretches`, with a calibration between them.

    The request shares are a design choice, not a measured traffic mix:
    70% of requests are cache-hit repeats, so the hit/fresh boundary sits
    at the 70th percentile rank, 20 points from both ``latency_p50_s``
    (which reads the cache-hit path) and ``latency_p90_s`` (which reads
    fresh solves and queueing). The README gives the rule and the
    measured latency of each kind.
    """

    name = "service_mix"
    #: The service's run span, covered by the shimmed dispatch inside it.
    root_span = "service.run"
    #: Send slots per second; burst slots send ``burst`` requests at once.
    rate = 12.0
    burst = 3
    #: Shares of each segment's requests: cache-hit repeats, and burst
    #: copies (coalesced onto one solve per burst).
    hit_share = 0.7
    burst_share = 0.1
    #: A repeat targets an instance first sent at least this long ago,
    #: over ten times the fresh-solve p90, so that it is answered from
    #: the cache rather than coalesced.
    repeat_gap_s = 0.5
    #: Far above any healthy latency: a timeout marks a stalled service.
    deadline_s = 10.0
    #: One size, so that each latency percentile reads one kind of
    #: request (see the README).
    sizes = (16,)
    #: A run whose generator fell further behind its schedule is invalid.
    lag_limit_s = 0.25
    #: Each segment is sent in this many stretches. The generator pauses
    #: between them until every request is resolved and the idle
    #: service's host is calibrated, so each stretch is timed against
    #: calibrations at most a couple of seconds away.
    stretches = 4

    def build(self) -> None:
        from repro.experiments.workloads import ba_suite

        self.concurrency = max(1, min(2, os.cpu_count() or 1))
        duration = self.seconds / 2 if self.trace else self.seconds
        segment_s = duration / self.phases
        rng = random.Random(f"{self.name}/{self.seed}")
        plans = [self._kinds(rng, segment_s) for _ in range(self.phases)]
        counts = {kind: sum(k == kind for plan in plans for _, k in plan)
                  for kind in ("burst", "fresh")}
        # A fixed pool with fixed request seeds, as in the closed loops:
        # its first instances are always the burst ones, the rest are
        # sent once; the workload seed sets the order and the schedule.
        suite = ba_suite(sizes=self.sizes, attachment=2,
                         trials=counts["burst"] + counts["fresh"],
                         seed=self.pool_seed)
        pools = {"burst": list(range(counts["burst"])),
                 "fresh": list(range(counts["burst"], len(suite)))}
        for pool in pools.values():
            rng.shuffle(pool)
        self.instances, self.request_seeds, self.schedules = [], [], []
        for plan in plans:
            slots, first_sent = [], []
            for offset, kind in plan:
                if kind == "repeat":
                    eligible = [
                        index for index, sent in first_sent
                        if sent <= offset - self.repeat_gap_s
                    ]
                    slots.append(Slot(offset, rng.choice(eligible), kind))
                    continue
                pool_index = pools[kind].pop()
                index = len(self.instances)
                self.instances.append(suite[pool_index].hamiltonian)
                self.request_seeds.append(
                    instance_seed(self.pool_seed, pool_index))
                copies = self.burst if kind == "burst" else 1
                slots.append(Slot(offset, index, kind, copies))
                first_sent.append((index, offset))
            self.schedules.append(slots)
        self.lag_max = 0.0
        self.windows = []
        self.queue_waits = []

    def _kinds(self, rng: random.Random, segment_s: float) -> list:
        """Exact slot-kind counts per segment, in seeded order.

        With ``S`` slots of which ``B`` are bursts, a segment sends
        ``N = S + (burst - 1) * B`` requests; ``B`` and the repeat count
        are set so that bursts carry ``burst_share`` of ``N`` and repeats
        ``hit_share``. The slots before ``repeat_gap_s`` are fresh.
        """
        slots = max(1, round(segment_s * self.rate))
        extra = self.burst - 1
        requests = slots / (1 - extra * self.burst_share / self.burst)
        bursts = round(self.burst_share * requests / self.burst)
        repeats = round(self.hit_share * (slots + extra * bursts))
        first = min(slots, round(self.rate * self.repeat_gap_s))
        rest = slots - first
        repeats = min(repeats, rest)
        bursts = min(bursts, rest - repeats)
        kinds = (["repeat"] * repeats + ["burst"] * bursts
                 + ["fresh"] * (rest - repeats - bursts))
        rng.shuffle(kinds)
        kinds = ["fresh"] * first + kinds
        return [(k / self.rate, kind) for k, kind in enumerate(kinds)]

    def warm_up(self) -> None:
        from repro import (
            IsingHamiltonian, ServiceConfig, SolveCache, SolveService,
            barabasi_albert_graph,
        )

        graph = barabasi_albert_graph(8, attachment=2, seed=0)
        problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=0)

        async def once():
            async with SolveService(ServiceConfig(max_concurrency=1),
                                    clock=CLOCK) as service:
                result = await service.solve(
                    problem, num_frozen=2, seed=0, backend="serial",
                    solver_options={"cache": SolveCache()},
                )
                result.raise_for_status()

        asyncio.run(once())

    def run_phase(self, index, tracer=None):
        return asyncio.run(self._segment(index, tracer))

    async def _segment(self, index: int, tracer) -> list:
        from repro import ServiceConfig, SolveCache, SolveRequest, SolveService
        from repro.exceptions import ServiceOverloaded
        from repro.service.service import default_execute

        schedule = self.schedules[index]
        requests = sum(slot.copies for slot in schedule)
        cache = SolveCache()
        execute = None
        if tracer is not None:
            def execute(request, control):
                with tracer.span("service.dispatch", request.request_id):
                    return default_execute(request, control)

        service = SolveService(
            ServiceConfig(max_concurrency=self.concurrency,
                          event_buffer=16 * requests + 64),
            execute=execute,
            clock=CLOCK,
        )
        events = service.subscribe() if tracer is not None else None
        ops = []
        async with service:
            before = self.calibrate()
            for stretch in self._stretches(schedule):
                sent = len(ops)
                futures = []
                origin = CLOCK() + 0.01 - stretch[0].offset
                for slot in stretch:
                    due = origin + slot.offset
                    delay = due - CLOCK()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    self.lag_max = max(self.lag_max, CLOCK() - due)
                    for _ in range(slot.copies):
                        op = Op(f"q{index}.{len(ops)}", slot.instance, index,
                                start=due, traced=tracer is not None,
                                kind=slot.kind)
                        request = SolveRequest(
                            hamiltonian=self.instances[slot.instance],
                            request_id=op.op_id,
                            num_frozen=2,
                            seed=self.request_seeds[slot.instance],
                            deadline_seconds=self.deadline_s,
                            backend="serial",
                            solver_options={"cache": cache},
                        )
                        ops.append(op)
                        try:
                            future = await service.submit(request)
                        except ServiceOverloaded as exc:
                            op.status, op.error = "shed", repr(exc)
                            continue
                        future.add_done_callback(
                            functools.partial(self._resolved, op))
                        futures.append(future)
                await asyncio.gather(*futures)
                # The service is idle until the next stretch is sent.
                after = self.calibrate()
                factor = calibration.scale(before, after)
                before = after
                first_due = origin + stretch[0].offset
                ends = [op.end for op in ops[sent:] if math.isfinite(op.end)]
                self.windows.append(max(ends, default=first_due) - first_due)
                for op in ops[sent:]:
                    op.scale = factor
            stats = cache.stats_snapshot()
        for op in ops:
            op.cache_stats = stats
        if tracer is not None:
            self._trace_requests(ops, events, tracer)
        return ops

    def _trace_requests(self, ops: list, events, tracer) -> None:
        """Request spans rebuilt from the service's event timestamps.

        Each request that started a solve gets a root span from its
        scheduled send to its resolution, split into ``service.send``
        (generator lag and admission), ``service.queue`` (admitted to
        started) and ``service.run`` (started to finished), which holds
        the ``service.dispatch`` span recorded in the worker thread.
        """
        stamps = {}
        while not events.empty():
            event = events.get_nowait()
            stamps.setdefault(event.request_id, {})[event.kind] = event.timestamp
        dispatches = {
            span.op: span for span in tracer.spans
            if span.name == "service.dispatch" and span.parent is None
        }
        for op in ops:
            times = stamps.get(op.op_id, {})
            if op.leader or "RequestStarted" not in times:
                continue
            admitted = times["RequestAdmitted"]
            started = times["RequestStarted"]
            finished = times["RequestFinished"]
            root = tracer.add("request", op.start, op.end, op.op_id)
            tracer.add("service.send", op.start, admitted, op.op_id, root.id)
            tracer.add("service.queue", admitted, started, op.op_id, root.id)
            run = tracer.add("service.run", started, finished, op.op_id, root.id)
            self.queue_waits.append((started - admitted) * op.scale)
            dispatch = dispatches.get(op.op_id)
            if dispatch is not None:
                dispatch.parent = run.id

    def _stretches(self, schedule: list) -> list:
        """The segment's slots cut into :attr:`stretches` equal spans of
        send time."""
        span = (schedule[-1].offset + 1.0 / self.rate) / self.stretches
        cuts = [[] for _ in range(self.stretches)]
        for slot in schedule:
            cuts[min(self.stretches - 1, int(slot.offset / span))].append(slot)
        return [cut for cut in cuts if cut]

    def _resolved(self, op: Op, future) -> None:
        op.end = CLOCK()
        reply = future.result()
        op.status = reply.status
        op.leader = reply.coalesced_with
        if not reply.ok:
            op.error = repr(reply.error)
        elif reply.value is not None:
            self.record(op, reply.value)

    def check(self, ops: list) -> None:
        by_id = {op.op_id: op for op in ops}
        first = {}
        for op in ops:
            if op.answer is None or op.error or op.status != "ok":
                continue
            key = op.answer.key
            if op.leader:
                leader = by_id.get(op.leader)
                if leader is None or leader.answer is None or (
                    leader.answer.key != key
                ):
                    op.error = f"coalesced answer differs from {op.leader}"
                continue
            seen = first.setdefault((op.phase, op.traced, op.instance), key)
            if seen != key:
                op.error = "repeat answer differs from the first solve"

    def throughput(self, ops: list) -> float:
        """Resolved requests per wall second of the open-loop windows: it
        tracks the offered rate, so it is not scaled to the nominal host."""
        return sum(1 for op in ops if not op.failed) / sum(self.windows)

    def quality(self, ops: list) -> dict:
        from repro import brute_force_minimum

        ratios, best = [], []
        seen = set()
        for op in ops:
            if op.status != "ok" or op.answer is None or op.instance in seen:
                continue
            seen.add(op.instance)
            c_min = brute_force_minimum(self.hamiltonian(op)).value
            ratios.append(op.answer.ev_ideal / c_min)
            best.append(op.answer.value / c_min)
        return {"ar_ideal": mean(ratios), "best_ratio": mean(best)}


WORKLOADS = {cls.name: cls for cls in (PaperP2, Recursive1k, ServiceMix)}
