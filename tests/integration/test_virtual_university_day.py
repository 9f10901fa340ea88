"""End-to-end scenario: one full day of the virtual university.

Every subsystem participates: course authoring and QA, metadata
replication, pre-broadcast, live annotations, presence + discussion,
circulation, assessment, and overnight migration — all over one shared
simulated network, the way the deployed MMU system would run.
"""

import pytest

from repro.annotations import Line, LiveAnnotationSession, Point
from repro.collab import DiscussionBoard, PresenceDaemon
from repro.core import WebDocumentDatabase
from repro.distribution import (
    MAryTree,
    MetadataReplicator,
    PreBroadcaster,
    ReplicaManager,
)
from repro.library import CatalogEntry, CirculationDesk, VirtualLibrary, assess
from repro.qa import QARunner
from repro.fault.crashsim import database_state
from repro.util.units import MIB
from repro.workloads import CourseGenerator

from tests.conftest import build_network

N_STATIONS = 9
LECTURE_BYTES = 10 * MIB
LECTURE_DURATION_S = 45 * 60.0


@pytest.fixture
def day():
    net = build_network(N_STATIONS)
    names = [f"s{k}" for k in range(1, N_STATIONS + 1)]
    tree = MAryTree(N_STATIONS, 2, names=names)
    return net, names, tree


class TestVirtualUniversityDay:
    def test_full_day(self, day, tmp_path):
        net, names, tree = day
        sim = net.sim

        # -- morning: the instructor authors and QAs a course ----------
        wddb = WebDocumentDatabase(
            "s1", data_dir=tmp_path / "authoring", with_integrity=True
        )
        wddb.create_document_database("mmu", author="shih")
        generator = CourseGenerator(seed=99, pages_per_course=5)
        course = generator.generate_course(wddb, "mmu", author="shih")
        outcome = QARunner(wddb, "ma").run(course.implementation.starting_url)
        assert outcome.passed

        # -- metadata replicates to every student station --------------
        # (the journal is the stream, so the morning's work ships too)
        replicator = MetadataReplicator(net, tree, wddb.engine, tmp_path)
        sim.run(until=sim.now + 30.0)
        assert replicator.converged()
        authored = database_state(wddb.engine)
        assert authored["scripts"]
        assert all(
            database_state(replicator.members[name].db) == authored
            for name in names[1:]
        )

        # -- the lecture is pre-broadcast before class ------------------
        broadcaster = PreBroadcaster(net)
        report = broadcaster.broadcast(
            "lecture-1", LECTURE_BYTES, tree, chunk_size_bytes=MIB
        )
        sim.run(until=sim.now + 600.0)
        assert len(report.arrival_times) == N_STATIONS

        managers = {name: ReplicaManager.of(net.station(name))
                    for name in names}
        managers["s1"].hold_persistent("lecture-1", LECTURE_BYTES)
        for name in names[1:]:
            managers[name].touch("lecture-1", LECTURE_DURATION_S)

        # -- class begins: presence, live annotations, discussion -------
        presence = PresenceDaemon(net, "s1", heartbeat_interval_s=60.0,
                                  timeout_s=180.0)
        students = {f"student{k}": f"s{k + 1}" for k in range(1, 6)}
        for user, station in students.items():
            presence.join(user, station, "CS101")
        sim.run(until=sim.now + 5.0)
        assert len(presence.present("CS101")) == 5

        live = LiveAnnotationSession(
            net, tree, session_id="cs101-live", author="shih",
            page_url=course.implementation.starting_url,
        )
        for stroke in range(10):
            live.draw(Line(Point(stroke, 0), Point(stroke, 5)))
            sim.run(until=sim.now + 30.0)
        assert live.replicas_consistent()

        board = DiscussionBoard(net, presence)
        thread = board.create_thread("CS101", "lecture questions")
        board.post("student1", "s2", thread.thread_id, "what was slide 3?")
        sim.run(until=sim.now + 5.0)
        assert len(board.thread(thread.thread_id)) == 1

        # -- afternoon: library circulation and assessment --------------
        library = VirtualLibrary(instructors={"shih"})
        library.add_document("shih", CatalogEntry(
            doc_id="cs101-notes", title="CS101 lecture notes",
            course_number="CS101", instructor="shih",
            keywords=("cs101", "notes"),
        ))
        desk = CirculationDesk(library)
        for offset, user in enumerate(students):
            desk.check_out(user, "cs101-notes", time=sim.now + offset)
        for offset, user in enumerate(students):
            desk.check_in(user, "cs101-notes",
                          time=sim.now + 3600 + offset)
        ranking = assess(desk, library).ranking()
        assert len(ranking) == 5
        assert all(a.checkins == 1 for a in ranking)

        # -- overnight: buffers migrate to references --------------------
        for user, station in students.items():
            presence.leave(user, station)
        sim.run(until=sim.now + 2 * LECTURE_DURATION_S)
        student_buffers = sum(
            managers[name].buffer_bytes for name in names[1:]
        )
        assert student_buffers == 0
        assert managers["s1"].persistent_bytes == LECTURE_BYTES
        migrations = sum(m.migrations for m in managers.values())
        assert migrations == N_STATIONS - 1

        # -- the network carried everything -----------------------------
        stats = net.stats()
        assert stats["bytes"] > (N_STATIONS - 1) * LECTURE_BYTES
        assert stats["dropped"] == 0
