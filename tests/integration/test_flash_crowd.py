"""Flash-crowd chaos: overload + node failures, goodput and durability.

The E21 acceptance scenario as a test: a lecture-release flash crowd
hits a replicated middle tier while a fault schedule crashes replicas
mid-surge.  The admission controller sheds what cannot finish in time
and the degradation ladder (stale cache -> lagged replica -> primary)
keeps serving, so

* goodput through the chaos stays above half the calm-weather knee,
* every refusal costs well under a millisecond of wall clock, and
* every **acknowledged** write is durable — shedding loses requests,
  never acked data.
"""

from __future__ import annotations

import pytest

from repro.admission import AdmissionController, ClockBox, run_offered_load
from repro.distribution import MAryTree, MetadataReplicator
from repro.fault.inject import FaultInjector, FaultSchedule
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.tiers import ClassAdministrator, ReplicaSet, Request
from repro.workloads.traces import flash_crowd_arrivals

SERVICE_S = 0.004  # modeled per-request service time (250 rps capacity)


def build_tier(clock, network, data_dir):
    """Primary + two members of its replication tree.  A crashed
    member's station is down, so neither the fresh nor the lagged route
    reaches it: the fault schedule steers both routing paths at once."""
    primary = ClassAdministrator(
        data_dir=data_dir / "admin", sync_policy="none",
        admission=AdmissionController(
            clock=clock, service_estimate_s=SERVICE_S, max_depth=32,
        ),
    )
    replicator = MetadataReplicator(
        network, MAryTree(3, 2, names=["primary", "replica-1", "replica-2"]),
        primary.admin_db, data_dir,
    )
    rs = ReplicaSet(primary, replicator, max_staleness_records=64)
    response = rs.handle(Request(
        op="login", session_id=None,
        params={"user": "registrar", "role": "administrator"},
    ))
    network.quiesce()
    return rs, response.unwrap()["session_id"]


def advance(network, now):
    """Run the simulator up to ``now``: shipped frames land and the
    fault schedule fires as virtual time passes."""
    if network.sim.now < now:
        network.sim.run(until=now)


def make_schedule(session, arrivals, *, deadline_s=0.25, write_every=20):
    """Reads with a sprinkling of writes, all deadline-carrying."""
    schedule = []
    for i, at in enumerate(arrivals):
        if i % write_every == 0:
            request = Request(
                op="admit_student", session_id=session,
                params={"student_id": f"s{i}"}, deadline=at + deadline_s,
            )
        else:
            request = Request(
                op="roster", session_id=session,
                params={"course_number": f"c{i % 7}"},
                deadline=at + deadline_s,
            )
        schedule.append((at, request))
    return schedule


@pytest.fixture
def assembly(tmp_path):
    clock = ClockBox(0.0)
    network = Network(Simulator(), default_latency_s=0.001)
    for name in ("primary", "replica-1", "replica-2"):
        network.add(Station(name))
    rs, session = build_tier(clock, network, tmp_path)
    return clock, network, rs, session


class TestFlashCrowdChaos:
    def test_goodput_survives_surge_and_failures(self, assembly):
        clock, network, rs, session = assembly

        # --- calm baseline: offered ~= capacity, no faults -----------
        calm_arrivals = flash_crowd_arrivals(
            3, base_rps=200, peak_rps=200, duration_s=8.0,
            surge_start_s=0.0, surge_s=0.0001, label="calm",
        )
        knee = run_offered_load(
            rs, make_schedule(session, calm_arrivals),
            service_model=lambda op: SERVICE_S, clock=clock, label="calm",
            parallelism=3,
            on_reply=lambda now, _request, _response: advance(network, now),
        )
        assert knee.goodput_rps > 100.0  # sanity: the tier works

        # --- flash crowd + chaos -------------------------------------
        injector = FaultInjector(network)
        t0 = clock.now
        injector.arm(
            FaultSchedule()
            .crash(t0 + 1.0, "replica-1")
            .crash(t0 + 1.5, "replica-2")
            .restart(t0 + 4.0, "replica-1")
            .restart(t0 + 4.5, "replica-2")
        )
        surge_arrivals = [
            t0 + at for at in flash_crowd_arrivals(
                7, base_rps=150, peak_rps=1200, duration_s=8.0,
                surge_start_s=1.0, surge_s=3.0, label="surge",
            )
        ]
        acked_writes: list[str] = []

        def on_reply(now, request, response):
            advance(network, now)
            if request.op == "admit_student" and response.ok:
                acked_writes.append(request.params["student_id"])

        storm = run_offered_load(
            rs, make_schedule(session, surge_arrivals),
            service_model=lambda op: SERVICE_S, clock=clock,
            label="storm", parallelism=3, on_reply=on_reply,
        )

        # Load was genuinely shed and faults genuinely fired.
        assert storm.shed > 0
        assert injector.crash_count("replica-1") == 1

        # Goodput through the chaos stays above half the knee.
        assert storm.goodput_rps >= 0.5 * knee.goodput_rps

        # Refusals are microsecond-cheap (p99: the max over thousands
        # of sheds measures the OS scheduler, not the policy).
        assert storm.shed_percentile(99) < 1e-3

        # Zero acked-write loss: every acknowledged admit is durable on
        # the primary, chaos or not.
        assert acked_writes, "the storm must ack at least one write"
        rows = rs.primary.connection.cursor().select("students").fetchall()
        present = {row["student_id"] for row in rows}
        missing = [s for s in acked_writes if s not in present]
        assert missing == []

    def test_shed_replies_carry_backoff_hints(self, assembly):
        clock, _network, rs, session = assembly
        hints = []

        def on_reply(_now, _request, response):
            if response.shed:
                hints.append(response.retry_after_s)

        arrivals = flash_crowd_arrivals(
            11, base_rps=2000, peak_rps=2000, duration_s=1.0,
            surge_start_s=0.0, surge_s=0.0001, label="hammer",
        )
        # All writes: the write path always lands on the primary's
        # admission gate (reads would be absorbed by healthy replicas).
        run_offered_load(
            rs, make_schedule(session, arrivals, write_every=1),
            service_model=lambda op: SERVICE_S, clock=clock,
            label="hammer", on_reply=on_reply,
        )
        assert hints and all(h is None or h >= 0.0 for h in hints)
