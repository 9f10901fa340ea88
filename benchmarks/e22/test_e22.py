"""Tests of the benchmark's own machinery (``pytest benchmarks/e22 -q``).

Tier-1 collects only ``tests/``, so these do not lengthen it.  They run
at 1/20 of the stated dataset sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import benchmarks.e22  # noqa: F401  (puts src/ on the path)
from benchmarks.e22 import harness
from benchmarks.e22.audit import crash_audit
from benchmarks.e22.compare import verdict
from benchmarks.e22.dataset import child_rng
from benchmarks.e22.spans import SpanRecorder, root_coverage, self_times
from benchmarks.e22.workloads import WHY, WORKLOADS, stream_hash
from repro.obs.instrument import OBS
from repro.tiers.protocol import Response

SCALE = 0.05
HERE = Path(__file__).resolve().parent


def ready(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name](seed, SCALE, workdir)
    workload.setup()
    workload.prepare()
    return workload


# -- determinism -------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream_other_seed_other_stream(name, tmp_path):
    def digest(seed: int) -> str:
        workload = WORKLOADS[name](seed, SCALE, tmp_path)
        workload.prepare()
        return stream_hash(workload.stream, 500)

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


# -- span arithmetic ---------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    # handle [0,10] > select [1,4] > scan [2,3]; handle > append [5,9]
    spans = [
        ("handle", 0.0, 10.0, -1),
        ("select", 1.0, 4.0, 0),
        ("scan", 2.0, 3.0, 1),
        ("append", 5.0, 9.0, 0),
        ("handle", 20.0, 21.0, -1),
    ]
    times = self_times(spans)
    assert times["handle"] == (2, 11.0, 10.0 - 3.0 - 4.0 + 1.0)
    assert times["select"] == (1, 3.0, 2.0)
    assert times["scan"] == (1, 1.0, 1.0)
    assert times["append"] == (1, 4.0, 4.0)
    assert root_coverage(spans) == 11.0
    assert sum(own for _c, _t, own in times.values()) == root_coverage(spans)


def test_recorder_nests_by_call_stack_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    ticks = iter(range(100))
    layer = Layer()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.install(layer, "outer", "outer")
    recorder.install(layer, "inner", "inner")
    assert layer.outer() == 2
    assert recorder.spans == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    recorder.restore()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    assert layer.outer() == 2 and len(recorder.spans) == 2


# -- the oracle --------------------------------------------------------------
def test_oracle_flags_a_tampered_reply(tmp_path):
    workload = ready("library_browse", 3, tmp_path)
    seen = set()
    while seen != {"transcript", "roster", "search_library"}:
        op = workload.next_op()
        reply = workload.execute(op)
        assert workload.check(op, reply)
        if op.name not in ("transcript", "roster", "search_library"):
            continue
        seen.add(op.name)
        tampered = Response(
            request_id=reply.request_id, ok=True,
            data=list(reply.data) + [reply.data[0] if reply.data else "ghost"],
        )
        assert not workload.check(op, tampered)
    workload.discard()


def test_naive_scan_flags_a_dropped_row(tmp_path):
    workload = ready("catalog_reports", 3, tmp_path)
    flagged = 0
    for _ in range(40):
        op = workload.next_op()
        reply = workload.execute(op)
        assert workload.check(op, reply) and workload.matches_naive(op, reply)
        if reply:
            flagged += not workload.matches_naive(op, reply[:-1])
    assert flagged > 10


# -- the crash audit ---------------------------------------------------------
def _writes(workload, count):
    for _ in range(count):
        op = workload.next_op()
        assert workload.check(op, workload.execute(op))


def test_crash_audit_clean_then_catches_a_late_fsync(tmp_path):
    workload = ready("registration_rush", 5, tmp_path)
    _writes(workload, 120)
    args = (workload.plan, workload.data_dir)
    clean = crash_audit(
        *args, workload.acked, workload.sync_log.lengths,
        child_rng(5, "cut"), tmp_path,
    )
    assert clean.clean and clean.records_recovered == clean.cut

    # Pretend every acknowledgement was sent one fsync too early: the
    # write just before the cut was acknowledged but is not durable.
    early = [(op, syncs - 1) for op, syncs in workload.acked]
    late = crash_audit(
        *args, early, workload.sync_log.lengths, child_rng(5, "cut"), tmp_path
    )
    assert late.cut == clean.cut
    assert late.acked_lost == 1 and late.readback_wrong == 1
    workload.discard()


# -- the traced pass leaves nothing behind -----------------------------------
def test_traced_pass_restores_patches_and_obs(tmp_path):
    workload = WORKLOADS["semester_mix"](2, SCALE, tmp_path)
    result = harness.traced_pass(
        workload, seed=2, seconds=None, ops=300, scratch=tmp_path,
        trace_path=tmp_path / "trace.json",
    )
    assert result.correct, result.notes
    assert set(result.metrics) == set(harness.PER_LAYER)
    for target, attribute, _name in workload.span_points():
        assert attribute not in vars(target)
    assert OBS.enabled is False and OBS.registry is None
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert len(trace["spans"]) == result.notes["span_count"] > 0
    assert result.metrics["net.sim.self_us"] == 0.0  # no network in this one
    assert result.metrics["rdb.wal.records"] > 0.0
    workload.discard()


# -- readings ----------------------------------------------------------------
def _reads(phase, second, times, *, slow=1.0):
    """Record reads finishing in ``second``; the reference kernel read
    ``slow`` that second."""
    phase.tick_at.append(second + 0.1)
    phase.tick_slowness.append(slow)
    for k, took in enumerate(times):
        phase.record(
            took, second + (k + 1) / (len(times) + 1), 0.0, 0, False, True
        )


def test_readings_cover_the_whole_phase_at_the_reference_speed():
    phase = harness.Phase(wall_s=4.0)
    # Four seconds of fifty 1 ms reads; in seconds 2 and 3 the host runs
    # half as fast again (and the kernel reads so), and in second 1 the
    # *program* stalls twice for 40 ms.
    _reads(phase, 0, [0.001] * 50)
    _reads(phase, 1, [0.001] * 48 + [0.040] * 2)
    _reads(phase, 2, [0.0015] * 50, slow=1.5)
    _reads(phase, 3, [0.0015] * 50, slow=1.5)
    assert phase.slowness()[:4] == [1.0, 1.0, 1.5, 1.5]
    readings = harness.end_to_end_metrics(phase)
    assert readings["p50_ms"] == pytest.approx(1.0)  # the host's pace is set aside
    assert readings["p99_ms"] == pytest.approx(40.0)  # the program's stall is not
    assert readings["ops_per_s"] == pytest.approx(200 / (0.198 + 0.080))
    raw = harness.end_to_end_metrics(phase, raw=True)
    assert raw["p50_ms"] == pytest.approx(1.5)
    assert raw["ops_per_s"] == pytest.approx(200 / (0.050 + 0.128 + 0.150))
    # A second without a reading takes the phase's median; none at all, 1.
    assert harness.Phase(wall_s=2.5).slowness() == [1.0, 1.0, 1.0]


def test_flush_device_is_modelled_per_call():
    phase = harness.Phase(wall_s=1.0)
    for k in range(10):  # 1 ms of CPU plus one flush the device took 0.9 ms over
        phase.record(0.0019, 0.05 * (k + 1), 0.0009, 1, True, True)
    modelled_ms = (0.001 + harness.FSYNC_MODEL_S) * 1e3
    assert harness.end_to_end_metrics(phase)["p50_ms"] == pytest.approx(modelled_ms)
    assert harness.end_to_end_metrics(phase, raw=True)["p50_ms"] == pytest.approx(1.9)
    assert phase.latency_ms("write") == pytest.approx([1.9] * 10)


def test_open_loop_median_runs_from_the_due_time_at_the_reference_speed():
    phase = harness.Phase(open_loop=True, wall_s=1.0, schedule_s=1.0)
    phase.tick_at.append(0.0)
    phase.tick_slowness.append(2.0)  # the host ran at half speed
    # Requests due every 3 ms took 4 ms each: the queue grew by 1 ms a
    # request.  At the reference speed they take 2 ms and nobody waits.
    for k in range(10):
        due, done = 0.003 * k, 0.004 * (k + 1)
        phase.record(0.004, done, 0.0, 0, False, True)
        phase.due.append(due)
        phase.from_due.append(done - due)
    raw = harness.end_to_end_metrics(phase, raw=True)
    assert raw["p50_ms"] == pytest.approx(4.0 + 5.0)
    readings = harness.end_to_end_metrics(phase)
    assert readings["p50_ms"] == pytest.approx(2.0)
    assert readings["p99_ms"] == pytest.approx(2.0)
    assert readings["ops_per_s"] == pytest.approx(10.0)  # goodput over the schedule
    # ... and a request that is slow at any speed still delays the next.
    phase.service[4] = 0.020
    assert harness.from_due_at_reference(phase)[4:8] == pytest.approx(
        [0.010, 0.009, 0.008, 0.007]
    )


def test_a_shed_request_is_missed_not_wrong(tmp_path, monkeypatch):
    # A deadline no request can meet: the controller sheds every one.
    workload = ready("semester_mix", 6, tmp_path)
    monkeypatch.setattr(harness, "DEADLINE_S", 0.0)
    shed = harness.run_phase(workload, ops=200, arrivals=child_rng(6, "a"))
    assert shed.missed == 200 and shed.wrong == 0
    assert len(shed.shed_latency) == 200 and not workload.acked
    assert harness.end_to_end_metrics(shed)["ops_per_s"] == 0.0  # no goodput
    # The streams forgot what was refused: the same run goes on cleanly.
    monkeypatch.undo()
    served = harness.run_phase(workload, ops=200, arrivals=child_rng(6, "b"))
    assert served.wrong == 0 and served.missed == 0
    assert workload.table_diff() == 0
    workload.discard()


def test_open_loop_skips_idle_time_and_queues_behind_a_stall(tmp_path):
    workload = ready("semester_mix", 6, tmp_path)
    execute = workload.execute
    calls = []

    def stalling(op, deadline=None):
        calls.append(op)
        if len(calls) == 50:
            time.sleep(0.4)  # longer than the deadline allows
        return execute(op, deadline)

    workload.execute = stalling
    began = time.perf_counter()
    phase = harness.run_phase(workload, ops=400, arrivals=child_rng(6, "a"))
    # 400 arrivals at 350/s are over a second of schedule; idle time is
    # skipped, so serving them takes about the stall and little more.
    assert phase.schedule_s > 1.0 > time.perf_counter() - began - 0.4
    assert phase.due[-1] == pytest.approx(phase.schedule_s, abs=0.5)
    # Everyone due during the stall waited behind it: the ones due in
    # its first 0.15 s missed their deadline (late or shed), not wrong.
    assert phase.wrong == 0 and 30 <= phase.missed <= 110
    assert max(phase.from_due) >= 0.4
    assert workload.table_diff() == 0
    workload.discard()


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e22"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    for section, units in (("end_to_end", harness.END_TO_END),
                           ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
    # The contract: a bound is at least three times the widest spread
    # seen between runs of the same code, and at most a quarter (README,
    # "The bounds").
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds == {
        "setup_s": 0.25, "ops_per_s": 0.25, "p50_ms": 0.25,
        "peak_rss_mb": 0.10,
    }


# -- compare -----------------------------------------------------------------
def test_compare_verdicts():
    lower = dict(better="lower", bound=0.10)
    assert verdict([10, 10.2, 9.9], [11.5, 11.4, 11.6], **lower) == "worse"
    assert verdict([10, 10.2, 9.9], [9.0, 9.1, 8.9], **lower) == "better"
    assert verdict([10, 10.2, 9.9], [10.1, 10.0, 10.3], **lower) == "within bound"
    assert verdict([10, 13, 8, 12], [10.5, 9, 12.5, 8.5], **lower) == "unresolved"
    assert verdict([], [1.0], **lower) == "unresolved"
    assert verdict([100, 101], [80, 81], better="higher", bound=0.1) == "worse"


# -- the command -------------------------------------------------------------
def test_driver_form_prints_the_contract_line(tmp_path):
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "library_browse",
         "--seed", "4", "--seconds", "0.5", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(cell["value"] > 0 for cell in last["metrics"].values())
