"""Tests for course packages and station-to-station shipping."""

import pytest

from repro.core import ImplementationSCI, ScriptSCI, WebDocumentDatabase
from repro.distribution import (
    CourseShipper,
    ReplicaManager,
    install_package,
    package_course,
)
from repro.fault.crashsim import database_state
from repro.net import Station
from repro.qa import QARunner
from repro.storage.accounting import DiskFullError
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileKind
from repro.util.units import MIB
from repro.workloads import CourseGenerator

from tests.conftest import build_network


def _author(station):
    db = WebDocumentDatabase(station)
    db.create_document_database("mmu", author="shih")
    course = CourseGenerator(seed=31, pages_per_course=4).generate_course(
        db, "mmu", author="shih"
    )
    return db, course


@pytest.fixture
def source():
    return _author("instructor")


def _station_state(db):
    """Rows, files, held BLOBs with their owners, and disk charges."""
    return (
        database_state(db.engine),
        {path: db.files.read(path) for path in db.files.paths()},
        {b.digest: set(b.owners) for b in db.station.blobs.blobs()},
        db.station.disk.categories(),
    )


class TestPackaging:
    def test_package_contents(self, source):
        db, course = source
        package = package_course(db, course.script.script_name)
        assert package.script_row["script_name"] == course.script.script_name
        assert len(package.implementation_rows) == 1
        assert len(package.files) == 4 + 1  # pages + control program
        assert len(package.blob_rows) == len(set(
            d for d in course.implementation.multimedia
        ))

    def test_metadata_package_excludes_blob_bytes(self, source):
        db, course = source
        notes = package_course(db, course.script.script_name)
        full = package_course(db, course.script.script_name,
                              include_blobs=True)
        assert notes.blob_bytes == full.blob_bytes  # same registry info
        assert full.wire_bytes - notes.wire_bytes == full.blob_bytes
        assert notes.wire_bytes < full.wire_bytes

    def test_unknown_script(self, source):
        db, _course = source
        with pytest.raises(LookupError):
            package_course(db, "ghost")


class TestInstall:
    def test_roundtrip_metadata_only(self, source):
        db, course = source
        package = package_course(db, course.script.script_name)
        student = WebDocumentDatabase("student")
        script = install_package(student, package)
        assert student.script(script.script_name) is not None
        impl = student.implementations_of(script.script_name)[0]
        # references preserved, bytes not local
        assert impl.multimedia == course.implementation.multimedia
        assert student.station.blobs.physical_bytes == 0
        assert student.engine.count("blobs") == len(package.blob_rows)

    def test_metadata_only_station_survives_save_load(self, source, tmp_path):
        db, course = source
        student = WebDocumentDatabase("student", data_dir=tmp_path / "state")
        install_package(student, package_course(db, course.script.script_name))
        student.checkpoint()
        student.engine.journal.close()
        loaded = WebDocumentDatabase("student", data_dir=tmp_path / "state")
        assert len(loaded.station.blobs) == 0
        assert loaded.station.blobs.physical_bytes == 0
        assert loaded.engine.count("blobs") == student.engine.count("blobs")

    def test_metadata_only_install_refuses_a_taken_path(self, source):
        db, course = source
        package = package_course(db, course.script.script_name)
        student = WebDocumentDatabase("student")
        student.create_document_database("mmu", author="shih")
        student.add_script(ScriptSCI("mine", "mmu", author="ma"))
        taken = course.implementation.html_files[0].path
        student.add_implementation(
            ImplementationSCI("http://mine/", "mine", author="ma"),
            html_files=[DocumentFile(taken, FileKind.HTML, "mine")],
        )
        with pytest.raises(ValueError, match="already belongs"):
            install_package(student, package)
        assert student.files.read(taken).content == "mine"
        assert student.script(course.script.script_name) is None
        assert student.engine.count("blobs") == 0
        assert student.implementation(
            course.implementation.starting_url
        ) is None

    def test_roundtrip_full_copy(self, source):
        db, course = source
        package = package_course(db, course.script.script_name,
                                 include_blobs=True)
        student = WebDocumentDatabase("student")
        install_package(student, package)
        assert student.station.blobs.physical_bytes == package.blob_bytes

    def test_full_copy_charges_the_station_disk(self, source):
        db, course = source
        package = package_course(db, course.script.script_name,
                                 include_blobs=True)
        student = WebDocumentDatabase("student")
        install_package(student, package)
        disk = student.station.disk
        assert disk.used_bytes == package.blob_bytes
        assert disk.used_in(ReplicaManager.PERSISTENT) == package.blob_bytes
        assert student.station.blobs.physical_bytes == package.blob_bytes

    def test_full_copy_of_a_broadcast_lecture_is_held_once(self):
        source = WebDocumentDatabase("instructor")
        source.create_document_database("mmu", author="shih")
        lecture = source.register_blob("lec", 2 * MIB, BlobKind.VIDEO)
        source.add_script(ScriptSCI("talks", "mmu", author="shih"))
        source.add_implementation(
            ImplementationSCI("http://mmu/talks/", "talks", author="shih",
                              multimedia=[lecture]),
            [DocumentFile("talks/index.html", FileKind.HTML, "<p>lec</p>")],
        )
        student = WebDocumentDatabase("student")
        holdings = ReplicaManager.of(student.station)
        buffered = holdings.hold_buffered(
            "lec", 2 * MIB, instance_station="instructor"
        )
        install_package(
            student, package_course(source, "talks", include_blobs=True)
        )
        # promoted in place: one BLOB, one persistent charge
        assert holdings.holding("lec") is buffered and buffered.persistent
        assert (holdings.persistent_bytes, holdings.buffer_bytes) == (
            2 * MIB, 0,
        )
        assert student.station.disk.used_bytes == 2 * MIB
        assert len(student.station.blobs) == 1
        assert student.station.blobs.physical_bytes == 2 * MIB
        assert student.station.blobs.owners_of(lecture) == {
            "replica:lec", "impl:http://mmu/talks/",
        }

    def test_full_copy_onto_a_small_disk_writes_nothing(self, source):
        db, course = source
        package = package_course(db, course.script.script_name,
                                 include_blobs=True)
        student = WebDocumentDatabase(
            Station("student", disk_capacity=package.blob_bytes)
        )
        ReplicaManager.of(student.station).hold_buffered(
            "other", MIB, instance_station="s1"
        )
        before = _station_state(student)
        with pytest.raises(DiskFullError):
            install_package(student, package)
        assert _station_state(student) == before
        # the notes alone still fit
        install_package(student, package_course(db, course.script.script_name))
        assert student.station.disk.used_bytes == MIB

    def test_installed_course_passes_qa(self, source):
        db, course = source
        package = package_course(db, course.script.script_name,
                                 include_blobs=True)
        student = WebDocumentDatabase("student")
        install_package(student, package)
        outcome = QARunner(student, "qa").run(
            course.implementation.starting_url
        )
        assert outcome.passed, [f.detail for f in outcome.findings]

    def test_double_install_rejected(self, source):
        db, course = source
        package = package_course(db, course.script.script_name)
        student = WebDocumentDatabase("student")
        install_package(student, package)
        with pytest.raises(ValueError, match="already installed"):
            install_package(student, package)

    def test_install_creates_parent_database(self, source):
        db, course = source
        package = package_course(db, course.script.script_name)
        student = WebDocumentDatabase("student")
        install_package(student, package)
        assert student.engine.get("doc_databases", "mmu") is not None


class TestShipping:
    def test_checkout_over_the_network(self):
        net = build_network(3)
        db, course = _author(net.station("s1"))
        shipper = CourseShipper(net)
        shipper.attach(db)
        student_db = WebDocumentDatabase(net.station("s2"))
        shipper.attach(student_db)
        shipper.request_course("s2", "s1", course.script.script_name)
        net.quiesce()
        assert shipper.packages_installed == [
            ("s2", course.script.script_name)
        ]
        assert student_db.script(course.script.script_name) is not None

    def test_a_full_copy_the_disk_cannot_take_is_refused_at_the_station(
        self,
    ):
        net = build_network(2, disk_capacity={"s2": 1000})
        db, course = _author(net.station("s1"))
        shipper = CourseShipper(net)
        shipper.attach(db)
        student_db = WebDocumentDatabase(net.station("s2"))
        shipper.attach(student_db)
        before = _station_state(student_db)
        name = course.script.script_name
        shipper.request_course("s2", "s1", name, include_blobs=True)
        net.quiesce()  # the refusal does not escape the simulator
        assert shipper.packages_installed == []
        ((station, script_name, why),) = shipper.packages_refused
        assert (station, script_name) == ("s2", name)
        assert why.startswith("DiskFullError: ")
        assert _station_state(student_db) == before
        # the notes alone still fit, and a second copy is refused
        for _ in range(2):
            shipper.request_course("s2", "s1", name)
            net.quiesce()
        assert shipper.packages_installed == [("s2", name)]
        assert shipper.packages_refused[1][2] == (
            f"ValueError: script {name!r} already installed"
        )

    def test_full_copy_costs_more_bandwidth(self):
        def shipped_bytes(include_blobs):
            net = build_network(2)
            db, course = _author(net.station("s1"))
            shipper = CourseShipper(net)
            shipper.attach(db)
            shipper.attach(WebDocumentDatabase(net.station("s2")))
            shipper.request_course(
                "s2", "s1", course.script.script_name,
                include_blobs=include_blobs,
            )
            net.quiesce()
            return net.total_bytes

        assert shipped_bytes(True) > shipped_bytes(False) * 2

    def test_unattached_requester_rejected(self):
        net = build_network(2)
        db, _course = _author(net.station("s1"))
        shipper = CourseShipper(net)
        shipper.attach(db)
        with pytest.raises(LookupError, match="no database"):
            shipper.request_course("s2", "s1", "anything")

    def test_database_off_the_network_refused(self, source):
        db, _course = source
        net = build_network(2)
        shipper = CourseShipper(net)
        with pytest.raises(ValueError, match="not on this network"):
            shipper.attach(db)
        with pytest.raises(ValueError, match="not on this network"):
            shipper.attach(WebDocumentDatabase("s1"))  # a lone namesake

    def test_offline_learning_flow(self):
        """Paper §5: check out notes, review off-line, media by reference."""
        net = build_network(2)
        db, course = _author(net.station("s1"))
        shipper = CourseShipper(net)
        shipper.attach(db)
        student_db = WebDocumentDatabase(net.station("s2"))
        shipper.attach(student_db)
        shipper.request_course(
            "s2", "s1", course.script.script_name, include_blobs=False
        )
        net.quiesce()
        # pages readable off-line
        impl = student_db.implementations_of(course.script.script_name)[0]
        assert student_db.files.read(impl.html_files[0].path).content
        # multimedia still only a reference — no local bytes
        assert student_db.station.blobs.physical_bytes == 0
        assert student_db.station.disk.used_bytes == 0
