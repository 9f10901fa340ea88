"""Measurement: the closed and open loops, the passes, the metrics.

One process, one load-generating thread.  The end-to-end pass runs with
span recorders and ``repro.obs`` off; the traced pass splits its time
between an untraced baseline, a span-recorded phase and an obs-enabled
phase, so tracing and obs overheads are priced inside one run.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs

from benchmarks.e22.audit import AuditResult
from benchmarks.e22.dataset import child_rng
from benchmarks.e22.spans import SpanRecorder, root_coverage, self_times
from benchmarks.e22.workloads import DEADLINE_S, SEMESTER_MIX_RATE

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Phase",
    "run_phase",
    "end_to_end_pass",
    "traced_pass",
    "percentile",
]

#: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # latency by class, failures, and the crash audit
    "read_p50_ms": "ms", "read_p99_ms": "ms",
    "write_p50_ms": "ms", "write_p99_ms": "ms",
    "failed_share": "ratio",
    "recover_s": "s", "acked_lost": "count",
    "wal_bytes_per_user_byte": "ratio",
    # self time per end-to-end operation, and counts per operation
    "tiers.remote.self_us": "us",
    "net.sim.self_us": "us", "net.sim.events": "1/op",
    "net.transport.self_us": "us", "net.transport.sends": "1/op",
    "net.transport.bytes": "B/op",
    "admission.self_us": "us", "admission.admitted": "1/op",
    "admission.shed": "1/op", "admission.shed_reply_us": "us",
    "tiers.server.self_us": "us", "tiers.server.requests": "1/op",
    "tiers.server.stale_record_us": "us",
    "tiers.cache.self_us": "us", "tiers.cache.hit_ratio": "ratio",
    "tiers.cache.evictions": "1/op",
    "library.search.self_us": "us", "library.search.calls": "1/op",
    "library.search.candidates_per_result": "ratio",
    "library.circulation.self_us": "us",
    "rdb.engine.write_self_us": "us", "rdb.engine.statements": "1/op",
    "rdb.query.select_self_us": "us", "rdb.query.plan_us": "us",
    "rdb.query.rows_scanned_per_row": "ratio",
    "rdb.wal.append_self_us": "us", "rdb.wal.fsync_us": "us",
    "rdb.wal.fsyncs_per_txn": "ratio", "rdb.wal.bytes_per_txn": "B",
    "rdb.wal.records": "1/op", "rdb.wal.replay_us_per_record": "us",
    # resident memory added per operation (rows, logs, caches — and
    # the harness's own records of the run)
    "mem.growth_b_per_op": "B/op",
    # the benchmark's own costs
    "obs.enabled_overhead_share": "ratio", "trace.overhead_share": "ratio",
    "layers.unattributed_share": "ratio",
    "gen.late_p99_ms": "ms", "gen.p50_from_due_ms": "ms",
    "gen.p99_from_due_ms": "ms", "gen.achieved_rate": "1/s",
}

#: Which span names make up each self-time metric.
LAYER_SPANS = {
    "tiers.remote.self_us": ("client.call_sync",),
    "net.sim.self_us": ("sim.step",),
    "net.transport.self_us": ("network.send",),
    "admission.self_us": ("admission.admit", "admission.complete"),
    "tiers.server.self_us": ("administrator.handle",),
    "tiers.server.stale_record_us": ("stale_reads.record",),
    "tiers.cache.self_us": ("query_cache.select",),
    "library.search.self_us": ("library.search",),
    "library.circulation.self_us": ("desk.check_out", "desk.check_in"),
    "rdb.engine.write_self_us": (
        "admin_db.insert", "admin_db.update", "admin_db.delete",
    ),
    "rdb.query.select_self_us": (
        "admin_db.select", "admin_db.join", "admin_db.aggregate",
    ),
    "rdb.wal.append_self_us": ("journal.append", "journal.sync"),
    "rdb.wal.fsync_us": ("fsync",),
}

#: Share of ``--seconds`` each phase of the traced pass gets.
TRACED_SPLIT = {"baseline": 0.3, "traced": 0.4, "obs": 0.3}
#: Seconds one pass of the reference kernel takes in a quiet hour of the
#: sandbox the benchmark was defined on; how often a run times it; how
#: many passes one timing takes the fastest of (between requests, around
#: a set-up).
REFERENCE_S = 340e-6
TICK_EVERY_S = 0.05
TICK_PASSES = 3
SETUP_TICK_PASSES = 20
#: What one flush costs in the end-to-end metrics: the seconds a request
#: spends inside ``os.fsync`` are replaced by this much per call (README,
#: "The flush device"); what the device really took is the per-layer
#: ``rdb.wal.fsync_us``.
FSYNC_MODEL_S = 200e-6


def percentile(sorted_values: Any, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not len(sorted_values):
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ---------------------------------------------------------------------------
# The reference kernel
# ---------------------------------------------------------------------------
class Reference:
    """A fixed piece of pure Python, timed between requests.

    The sandbox's host runs the guest a quarter to a half slower for
    minutes at a time (README, "Why the readings are normalised"): runs
    of identical code then spread by 0.2 and more, and no statistic
    inside a run can cancel that.  So every run times this kernel every
    :data:`TICK_EVERY_S`, and the end-to-end timings are reported at the
    reference speed: seconds on the CPU are divided by (kernel time that
    second ÷ :data:`REFERENCE_S`).

    One pass is half string, dictionary and sort work and half integer
    arithmetic: beside chunks of the real workloads the first slowed
    down more than the program in a slow stretch and the second less.
    """

    def __init__(self) -> None:
        self._texts = [
            f"word{i % 211} Notes {i} kw{i % 500:04d}" for i in range(120)
        ]

    def _once(self) -> float:
        begin = time.perf_counter()
        counts: dict[str, int] = {}
        for text in self._texts:
            for token in text.lower().split():
                counts[token] = counts.get(token, 0) + 1
        sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        total = 0
        for i in range(2500):
            total += i * i % 7
        return time.perf_counter() - begin

    def slowness(self, passes: int = TICK_PASSES) -> float:
        """How slow the machine is right now: the fastest of ``passes``
        passes (the others found a cold cache) ÷ :data:`REFERENCE_S`."""
        return min(self._once() for _ in range(passes)) / REFERENCE_S


# ---------------------------------------------------------------------------
# One measured phase
# ---------------------------------------------------------------------------
@dataclass
class Phase:
    """Per-operation records of one measured stretch, as the clock gave
    them."""

    #: wall seconds from issuing the request to holding its reply
    service: array = field(default_factory=lambda: array("d"))
    #: of which inside ``os.fsync`` (seconds), and how many calls
    device: array = field(default_factory=lambda: array("d"))
    flushes: array = field(default_factory=lambda: array("i"))
    write: array = field(default_factory=lambda: array("b"))
    ok: array = field(default_factory=lambda: array("b"))
    #: when the reply arrived, wall-clock seconds since the phase began
    finished: array = field(default_factory=lambda: array("d"))
    #: open loop only, on the schedule's clock: when the request was due
    #: (seconds since the schedule began), reply time minus *due* time,
    #: and how long after its due time the request was issued
    due: array = field(default_factory=lambda: array("d"))
    from_due: array = field(default_factory=lambda: array("d"))
    lateness: array = field(default_factory=lambda: array("d"))
    shed_latency: array = field(default_factory=lambda: array("d"))
    #: reference-kernel readings: when (seconds since the phase began)
    #: and how slow the machine was (1.0 = the reference speed)
    tick_at: array = field(default_factory=lambda: array("d"))
    tick_slowness: array = field(default_factory=lambda: array("d"))
    #: replies the oracle rejected (a shed or late reply is missed, not wrong)
    wrong: int = 0
    wall_s: float = 0.0
    #: open loop only: seconds of schedule served (idle time included)
    schedule_s: float = 0.0
    #: ``ru_maxrss`` when the phase's ``rss_ops``-th reply arrived
    rss_mb: float = 0.0
    open_loop: bool = False

    def record(
        self, service: float, finished: float, device: float, flushes: int,
        write: bool, ok: bool,
    ) -> None:
        """``ok``: the reply was right and met its deadline."""
        self.service.append(service)
        self.finished.append(finished)
        self.device.append(device)
        self.flushes.append(flushes)
        self.write.append(write)
        self.ok.append(ok)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def missed(self) -> int:
        """Refused by the admission controller or past the deadline: the
        reply is what the program is meant to give when it cannot keep
        up (or the host stalls), so it is not ``wrong`` — and it is not
        goodput either."""
        return len(self.ok) - sum(self.ok) - self.wrong

    @property
    def busy_s(self) -> float:
        return sum(self.service)

    @property
    def latency(self) -> array:
        """What the user waited: from issuing the request in a closed
        loop, from the instant it was *due* in an open one."""
        return self.from_due if self.open_loop else self.service

    def latency_ms(self, which: str) -> list[float]:
        """Sorted wall-clock latencies in ms of the reads or the writes."""
        wanted = which == "write"
        return sorted(
            v * 1e3 for v, w in zip(self.latency, self.write) if w == wanted
        )

    def slowness(self) -> list[float]:
        """The machine's slowness in each second of the phase: the median
        reference reading of that second (of the whole phase where a
        second has none; 1.0 where the phase has none)."""
        seconds = int(self.wall_s) + 1
        if not self.tick_at:
            return [1.0] * seconds
        readings: list[list[float]] = [[] for _ in range(seconds)]
        for at, slowness in zip(self.tick_at, self.tick_slowness):
            readings[min(int(at), seconds - 1)].append(slowness)
        overall = statistics.median(self.tick_slowness)
        return [statistics.median(r) if r else overall for r in readings]

    def at_reference(self) -> list[float]:
        """Each request's service time at the reference speed with the
        flush device replaced by its model: the seconds outside
        ``os.fsync`` divided by the slowness of the second the reply
        arrived in, plus :data:`FSYNC_MODEL_S` per flush."""
        slowness = self.slowness()
        last = len(slowness) - 1
        return [
            (took - device) / slowness[min(int(finished), last)]
            + flushes * FSYNC_MODEL_S
            for took, device, flushes, finished
            in zip(self.service, self.device, self.flushes, self.finished)
        ]


def from_due_at_reference(phase: Phase) -> list[float]:
    """The open loop replayed at the reference speed: the same due times
    and the same one server, each request taking its service time at the
    reference speed — so a request waits for the ones before it as long
    as it would have on a machine of that speed.  (Dividing the measured
    wait by the slowness would not do: on a host half as slow again the
    server is busy half as much again, and queues grow faster than that.)
    """
    free = 0.0
    out = []
    for due, took in zip(phase.due, phase.at_reference()):
        free = max(due, free) + took
        out.append(free - due)
    return out


def end_to_end_metrics(phase: Phase, *, raw: bool = False) -> dict[str, float]:
    """``ops_per_s``, ``p50_ms`` and ``p99_ms`` over one whole phase —
    at the reference speed, or (``raw``) as the clock gave them.

    Closed loop: correct replies ÷ the seconds the client waited for
    them (the rest of the wall clock is the harness's own generator,
    oracle and reference kernel), and percentiles of those waits.  Open
    loop, where the offered rate is pinned: ``ops_per_s`` is goodput —
    replies that were right and met their deadline ÷ seconds of schedule
    — and the percentiles run from the instant a request was *due*.
    ``p99_ms`` is printed, not bounded (README, "What is not bounded").
    """
    if raw:
        service = phase.service
        latency = sorted(phase.latency)
    else:
        service = phase.at_reference()
        latency = sorted(
            from_due_at_reference(phase) if phase.open_loop else service
        )
    return {
        "ops_per_s": sum(phase.ok) / (
            phase.schedule_s if phase.open_loop else sum(service)
        ),
        "p50_ms": percentile(latency, 0.50) * 1e3,
        "p99_ms": percentile(latency, 0.99) * 1e3,
    }


def run_phase(
    workload: Any, *, seconds: float | None = None, ops: int | None = None,
    arrivals: random.Random | None = None,
) -> Phase:
    """Measure ``workload`` for ``seconds`` or for exactly ``ops``."""
    if workload.open_loop:
        assert arrivals is not None
        phase = _run_open(workload, arrivals, seconds=seconds, ops=ops)
    else:
        phase = _run_closed(workload, seconds=seconds, ops=ops)
    if not phase.rss_mb:  # shorter than ``rss_ops``: read at its end
        phase.rss_mb = peak_rss_mb()
    return phase


def _run_closed(
    workload: Any, *, seconds: float | None, ops: int | None
) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    next_op, execute, check = workload.next_op, workload.execute, workload.check
    log, rss_ops = workload.sync_log, workload.rss_ops
    reference = Reference()
    started = next_tick = clock()
    stop_at = started + seconds if seconds is not None else float("inf")
    limit = ops if ops is not None else float("inf")
    while phase.attempted < limit:
        if clock() >= next_tick:
            phase.tick_at.append(clock() - started)
            phase.tick_slowness.append(reference.slowness())
            next_tick = clock() + TICK_EVERY_S
        op = next_op()
        device, flushes = log.device_s, len(log.lengths)
        begin = clock()
        reply = execute(op)
        end = clock()
        matches = check(op, reply)
        phase.wrong += not matches
        phase.record(
            end - begin, end - started, log.device_s - device,
            len(log.lengths) - flushes, op.write, matches,
        )
        if phase.attempted == rss_ops:
            phase.rss_mb = peak_rss_mb()
        if end >= stop_at:
            break
    phase.wall_s = clock() - started
    return phase


def _run_open(
    workload: Any, arrivals: random.Random, *,
    seconds: float | None, ops: int | None,
) -> Phase:
    """Poisson arrivals at the pinned rate, with the idle time skipped.

    The schedule runs on the admission controller's clock
    (``workload.clock``: ``time.monotonic`` plus a skew).  One thread is
    generator and server, so a request starts at its due time or when
    the one before it is done, whichever is later; instead of spinning
    until then the harness sets the clock to that instant.  While a
    request is served the clock runs with the wall clock, so deadlines,
    sheds and waits are what they would be had the idle time been sat
    out — the single-server recurrence the repo's own overload harness
    uses — and a run of ``seconds`` serves several times the requests.
    The harness's own work between requests (generator, oracle, the
    reference kernel) is off the schedule's clock.

    ``from_due`` counts a request's wait behind the ones before it as
    part of its latency, as it is for a student whose click queued
    behind a slow one.
    """
    rate = SEMESTER_MIX_RATE
    phase = Phase(open_loop=True)
    clock, wall = workload.clock, time.perf_counter
    next_op, execute, check = workload.next_op, workload.execute, workload.check
    log, rss_ops = workload.sync_log, workload.rss_ops
    reference = Reference()
    began = next_tick = wall()
    stop_at = began + seconds if seconds is not None else float("inf")
    limit = ops if ops is not None else float("inf")
    started = due = free = clock()
    while phase.attempted < limit:
        if wall() >= next_tick:
            phase.tick_at.append(wall() - began)
            phase.tick_slowness.append(reference.slowness())
            next_tick = wall() + TICK_EVERY_S
        op = next_op()
        due += arrivals.expovariate(rate)
        device, flushes = log.device_s, len(log.lengths)
        now = max(due, free)
        clock.set(now)
        reply = execute(op, due + DEADLINE_S)
        free = clock()
        end = wall()
        if reply.shed or reply.degraded is not None:
            # Refused before any work started (or answered from the
            # stale cache): missed, not wrong — and the stream must not
            # build on a request that never happened.
            matches = False
            phase.shed_latency.append(free - now)
            workload.forget(op)
        else:
            matches = check(op, reply)
            phase.wrong += not matches
        phase.record(
            free - now, end - began, log.device_s - device,
            len(log.lengths) - flushes, op.write,
            matches and free <= due + DEADLINE_S,
        )
        phase.due.append(due - started)
        phase.from_due.append(free - due)
        phase.lateness.append(now - due)
        if phase.attempted == rss_ops:
            phase.rss_mb = peak_rss_mb()
        if end >= stop_at:
            break
    phase.wall_s = wall() - began
    phase.schedule_s = free - started
    return phase


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
@dataclass
class PassResult:
    """What one invocation reports (the last stdout line, plus detail)."""

    metrics: dict[str, float]
    samples: dict[str, int]
    attempted: int
    #: replies the oracle rejected; shed and late ones are ``missed``
    failed: int
    correct: bool
    notes: dict[str, Any] = field(default_factory=dict)


def _timed_setups(workload: Any, repeats: int) -> tuple[list[float], list[float]]:
    """``repeats`` set-ups (the last one stays): the seconds each took,
    and the machine's slowness during each — the median of the reference
    kernel read just before, every :data:`TICK_EVERY_S` between the
    load's requests, and just after."""
    reference = Reference()
    times, slowness = [], []
    for index in range(repeats):
        if index:
            workload.discard()
        gc.collect()
        readings = [reference.slowness(SETUP_TICK_PASSES)]
        next_tick = time.perf_counter() + TICK_EVERY_S

        def tick() -> None:
            nonlocal next_tick
            if time.perf_counter() >= next_tick:
                readings.append(reference.slowness())
                next_tick = time.perf_counter() + TICK_EVERY_S

        started = time.perf_counter()
        workload.setup(tick)
        times.append(time.perf_counter() - started)
        readings.append(reference.slowness(SETUP_TICK_PASSES))
        slowness.append(statistics.median(readings))
    return times, slowness


def _warm_up(workload: Any, seed: int) -> int:
    """Run the workload's untimed warm-up operations (caches fill);
    returns how many replies the oracle rejected."""
    workload.prepare()
    # The dataset is long-lived: keep the cyclic collector from walking
    # it again on every full collection, as a server would at start-up.
    gc.collect()
    gc.freeze()
    phase = run_phase(
        workload, ops=workload.warmup_ops,
        arrivals=child_rng(seed, "warm-arrivals"),
    )
    return phase.wrong


def plan_us(workload: Any, seed: int) -> float:
    """Mean ``Database.explain_plan`` time over a sample of the selects
    the workload's operations issue."""
    shapes = workload.plan_shapes(child_rng(seed, "plan-sample"))
    db = workload.database
    started = time.perf_counter()
    for table, where in shapes:
        db.explain_plan(table, where)
    return (time.perf_counter() - started) / len(shapes) * 1e6


def _verify(
    workload: Any, seed: int, scratch: Path
) -> tuple[bool, dict[str, Any], AuditResult | None, float]:
    """Audit + sampled oracle + table comparison, all untimed."""
    audit = workload.crash_audit(child_rng(seed, "crash-cut"), scratch)
    checked, wrong, candidates = workload.oracle_sample(
        child_rng(seed, "oracle-sample")
    )
    table_diff = workload.table_diff()
    notes = {
        "oracle_sample": checked,
        "oracle_sample_wrong": wrong,
        "table_rows_differing": table_diff,
    }
    if audit is not None:
        notes["audit"] = {
            "cut": audit.cut, "acked_lost": audit.acked_lost,
            "phantoms": audit.phantoms,
            "readback_wrong": audit.readback_wrong,
            "records_recovered": audit.records_recovered,
        }
    sound = not wrong and not table_diff and (audit is None or audit.clean)
    return sound, notes, audit, candidates


def end_to_end_pass(
    workload: Any, *, seed: int, seconds: float | None, ops: int | None,
    scratch: Path,
) -> PassResult:
    """Set up (several times), warm up, measure with everything off."""
    setup_times, setup_slowness = _timed_setups(workload, workload.setup_repeats)
    warm_failed = _warm_up(workload, seed)
    phase = run_phase(
        workload, seconds=seconds, ops=ops,
        arrivals=child_rng(seed, "arrivals"),
    )
    sound, notes, _audit_result, _ = _verify(workload, seed, scratch)
    metrics = {
        "setup_s": statistics.median(
            t / s for t, s in zip(setup_times, setup_slowness)
        ),
        **end_to_end_metrics(phase),
        "peak_rss_mb": phase.rss_mb,
    }
    notes["p99_ms"] = metrics.pop("p99_ms")  # printed, not bounded
    # The same readings as the clock gave them, and how slow the machine
    # was while it did (1.0 = the reference speed).
    notes["raw"] = {
        "setup_s": statistics.median(setup_times),
        **end_to_end_metrics(phase, raw=True),
    }
    notes["slowness"] = statistics.median(phase.tick_slowness or [1.0])
    notes["missed"] = phase.missed  # shed or late (open loop only)
    notes["warmup_wrong"] = warm_failed
    return PassResult(
        metrics=metrics,
        samples={"p50_ms": phase.attempted, "setup_s": len(setup_times)},
        attempted=phase.attempted,
        failed=phase.wrong,
        correct=sound and phase.wrong == 0 and warm_failed == 0,
        notes=notes,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_bytes() -> int:
    """Resident set size right now (``ru_maxrss`` only ever rises)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def counter_metrics(delta: dict[str, float], ops: int) -> dict[str, float]:
    """Per-operation counts and ratios from a counter delta."""
    per_op = lambda key: delta.get(key, 0) / ops  # noqa: E731
    lookups = delta["cache.hits"] + delta["cache.misses"]
    records = delta.get("wal.records", 0)
    return {
        "net.sim.events": per_op("net.events"),
        "net.transport.sends": per_op("net.messages"),
        "net.transport.bytes": per_op("net.bytes"),
        "admission.admitted": per_op("admission.admitted"),
        "admission.shed": per_op("admission.shed"),
        "tiers.server.requests": per_op("server.requests"),
        "tiers.cache.hit_ratio": (
            delta["cache.hits"] / lookups if lookups else 0.0
        ),
        # every miss stores an entry; what did not grow the cache evicted
        "tiers.cache.evictions": (
            (delta["cache.misses"] - delta["cache.entries"]) / ops
        ),
        "rdb.engine.statements": per_op("db.statements"),
        "rdb.wal.records": per_op("wal.records"),
        "rdb.wal.fsyncs_per_txn": (
            delta.get("wal.fsyncs", 0) / records if records else 0.0
        ),
        "rdb.wal.bytes_per_txn": (
            delta.get("wal.bytes", 0) / records if records else 0.0
        ),
    }


def traced_pass(
    workload: Any, *, seed: int, seconds: float | None, ops: int | None,
    scratch: Path, trace_path: Path,
) -> PassResult:
    """Baseline, span-recorded and obs-enabled phases in one run."""
    workload.setup()
    warm_failed = _warm_up(workload, seed)
    arrivals = child_rng(seed, "arrivals")

    def share(name: str) -> dict[str, Any]:
        if ops is not None:
            return {"ops": max(1, int(ops * TRACED_SPLIT[name]))}
        assert seconds is not None
        return {"seconds": seconds * TRACED_SPLIT[name]}

    user_bytes_before = workload.user_bytes_acked()
    before_all = workload.counters()
    resident_before = resident_bytes()
    baseline = run_phase(workload, arrivals=arrivals, **share("baseline"))
    resident_after = resident_bytes()  # before spans pile up in memory

    recorder = SpanRecorder()
    for target, attribute, name in workload.span_points():
        recorder.install(target, attribute, name)
    before = workload.counters()
    try:
        traced = run_phase(workload, arrivals=arrivals, **share("traced"))
    finally:
        recorder.restore()
    delta = _delta(workload.counters(), before)

    registry = obs.MetricsRegistry()
    with obs.enabled(registry=registry):
        observed = run_phase(workload, arrivals=arrivals, **share("obs"))
        snapshot = registry.snapshot()
    whole = _delta(workload.counters(), before_all)

    sound, notes, audit, candidates = _verify(workload, seed, scratch)
    recorder.dump(
        trace_path, workload=workload.name, seed=seed,
        operations=traced.attempted,
    )

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for which in ("read", "write"):
        values = baseline.latency_ms(which)
        metrics[f"{which}_p50_ms"] = percentile(values, 0.50)
        metrics[f"{which}_p99_ms"] = percentile(values, 0.99)
    phases = (baseline, traced, observed)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.wrong for p in phases)
    metrics["failed_share"] = (
        failed + sum(p.missed for p in phases)
    ) / attempted
    metrics["mem.growth_b_per_op"] = (
        (resident_after - resident_before) / baseline.attempted
    )
    if audit is not None:
        metrics["recover_s"] = audit.recover_s
        metrics["acked_lost"] = audit.acked_lost
        if audit.records_recovered:
            metrics["rdb.wal.replay_us_per_record"] = (
                audit.recover_s / audit.records_recovered * 1e6
            )
    supplied = workload.user_bytes_acked() - user_bytes_before
    if supplied:
        metrics["wal_bytes_per_user_byte"] = whole["wal.bytes"] / supplied

    spans = recorder.spans
    by_name = self_times(spans)
    for metric, names in LAYER_SPANS.items():
        own = sum(by_name[n][2] for n in names if n in by_name)
        metrics[metric] = own / traced.attempted * 1e6
    metrics.update(counter_metrics(delta, traced.attempted))
    searches = by_name.get("library.search", (0, 0.0, 0.0))[0]
    metrics["library.search.calls"] = searches / traced.attempted
    metrics["library.search.candidates_per_result"] = candidates
    metrics["rdb.query.plan_us"] = plan_us(workload, seed)
    returned = snapshot.counter_total("rdb.rows_returned")
    if returned:
        metrics["rdb.query.rows_scanned_per_row"] = (
            snapshot.counter_total("rdb.rows_scanned") / returned
        )
    if baseline.shed_latency:
        metrics["admission.shed_reply_us"] = (
            statistics.fmean(baseline.shed_latency) * 1e6
        )

    # Overheads compare service time per operation at the reference speed
    # with the flush device modelled, as the end-to-end metrics do: the
    # host's speed and the device's cost drift between the phases of one
    # run by more than either overhead.  An open loop is compared on
    # service time too, so one formula serves all four workloads.
    per_op = lambda p: sum(p.at_reference()) / p.attempted  # noqa: E731
    metrics["trace.overhead_share"] = per_op(traced) / per_op(baseline) - 1.0
    metrics["obs.enabled_overhead_share"] = (
        per_op(observed) / per_op(baseline) - 1.0
    )
    metrics["layers.unattributed_share"] = (
        1.0 - root_coverage(spans) / traced.busy_s
    )
    if baseline.open_loop:
        late = sorted(v * 1e3 for v in baseline.lateness)
        from_due = sorted(v * 1e3 for v in baseline.from_due)
        metrics["gen.late_p99_ms"] = percentile(late, 0.99)
        metrics["gen.p50_from_due_ms"] = percentile(from_due, 0.50)
        metrics["gen.p99_from_due_ms"] = percentile(from_due, 0.99)
        metrics["gen.achieved_rate"] = baseline.attempted / baseline.schedule_s

    notes["warmup_wrong"] = warm_failed
    notes["phase_ops"] = {
        "baseline": baseline.attempted, "traced": traced.attempted,
        "obs": observed.attempted,
    }
    notes["span_count"] = len(spans)
    writes = sum(baseline.write)
    reads = baseline.attempted - writes
    return PassResult(
        metrics=metrics,
        samples={
            "read_p50_ms": reads, "read_p99_ms": reads,
            "write_p50_ms": writes, "write_p99_ms": writes,
            "gen.late_p99_ms": len(baseline.lateness),
            "gen.p50_from_due_ms": len(baseline.from_due),
            "gen.p99_from_due_ms": len(baseline.from_due),
        },
        attempted=attempted,
        failed=failed,
        correct=sound and warm_failed == 0
        and not any(p.wrong for p in phases),
        notes=notes,
    )
