"""A dropped server or database is freed when its last reference goes.

Reference counting alone must free each of these: with the cyclic
collector switched off, a weak reference to the object is dead right
after ``del``.  A long-lived engine or tier object therefore stores no
bound method of itself (the server dispatches through a class-level
table, the engine is handed its commit hook per call), and a hook it
keeps for another object reaches that object weakly (the integrity
alert trigger).  A restart that drops its loading server then holds
one image, not two.  Served over :mod:`repro.net`, the same holds: a
station reaches its network weakly and a call handler replies through
its station, so a dropped network frees every server behind it.
"""

import gc
import weakref

import pytest

from repro.admission import AdmissionController
from repro.core import ImplementationSCI, ScriptSCI, WebDocumentDatabase
from repro.fault.crashsim import CRASH_SCHEMAS
from repro.net import Network, Simulator, Station
from repro.rdb import (
    Column,
    ColumnType,
    Database,
    Schema,
    TriggerEvent,
    TriggerTiming,
)
from repro.sharding import ShardCluster
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileKind
from repro.tiers import ClassAdministrator, Request
from repro.tiers.remote import RemoteTierClient, RemoteTierServer


@pytest.fixture
def no_collector():
    """Only reference counting frees objects inside the test."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def drive(server: ClassAdministrator) -> None:
    """One request of most kinds, reads twice (the second is a stored
    reply), as a bulk load and a browsing client would send them."""

    def call(session, op, **params):
        return server.handle(Request(op, session, params)).unwrap()

    admin = call(None, "login", user="registrar",
                 role="administrator")["session_id"]
    teacher = call(None, "login", user="shih",
                   role="instructor")["session_id"]
    call(admin, "admit_student", student_id="s00001", name="Ada")
    call(admin, "register_course", course_number="c001", title="Intro",
         instructor="shih")
    call(teacher, "publish_course_document", doc_id="d1", title="Notes",
         course_number="c001", keywords=["intro"], size_bytes=10)
    call(admin, "enroll", student_id="s00001", course_number="c001")
    call(admin, "record_grade", student_id="s00001", course_number="c001",
         grade=3.5)
    student = call(None, "login", user="s00001",
                   role="student")["session_id"]
    for _ in range(2):
        call(admin, "roster", course_number="c001")
        call(student, "transcript", student_id="s00001")
        call(student, "search_library", keywords="intro")
    call(student, "check_out", doc_id="d1")
    call(student, "check_in", doc_id="d1")


def assert_freed_on_del(make, *parts):
    """``make()``'s object and each named attribute of it are freed as
    soon as the object is dropped."""
    obj = make()
    refs = {name: weakref.ref(getattr(obj, name)) for name in parts}
    refs["itself"] = weakref.ref(obj)
    del obj
    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert not alive, (
        f"outlived the dropped object: {alive} (a reference cycle)"
    )


@pytest.mark.usefixtures("no_collector")
class TestFreedWithoutTheCollector:
    def test_in_memory_class_administrator(self):
        def make():
            server = ClassAdministrator(
                admission=AdmissionController(clock=lambda: 0.0)
            )
            drive(server)
            return server

        assert_freed_on_del(make, "admin_db", "library")

    def test_durable_class_administrator_after_a_bulk_load(self, tmp_path):
        """The benchmark's restart: load, checkpoint, close, drop."""

        def make():
            loader = ClassAdministrator(data_dir=tmp_path, sync_policy="none")
            drive(loader)
            loader.checkpoint()
            loader.journal.close()
            return loader

        assert_freed_on_del(make, "admin_db", "library")
        reopened = ClassAdministrator(data_dir=tmp_path)
        assert reopened.admin_db.get("students", ("s00001",)) is not None
        reopened.journal.close()

    def test_journaled_database_with_a_trigger(self, tmp_path):
        fired = []

        def make():
            db = Database.open(
                "lifetime",
                (Schema(
                    name="t",
                    columns=(Column("k", ColumnType.INT, nullable=False),
                             Column("v", ColumnType.TEXT)),
                    primary_key=("k",),
                ),),
                journal_path=tmp_path / "t.wal",
            )
            db.register_trigger("seen", "t", TriggerEvent.INSERT,
                                TriggerTiming.AFTER, fired.append)
            db.begin()
            db.insert("t", {"k": 1, "v": "a"})
            db.commit()
            db.insert("t", {"k": 2, "v": "b"})
            return db

        assert_freed_on_del(make)
        assert len(fired) == 2

    def test_web_document_database(self, tmp_path):
        def make():
            wddb = WebDocumentDatabase("lifetime")
            assert wddb.alerts is not None
            return wddb

        assert_freed_on_del(make, "engine", "alerts")

        def make_durable():
            """Written, checked in, checkpointed and closed."""
            wddb = WebDocumentDatabase("lifetime", data_dir=tmp_path)
            wddb.create_document_database("mmu", author="shih")
            wddb.add_script(ScriptSCI("cs101", "mmu", author="shih"))
            video = wddb.register_blob("lec.mpg", 1_000, BlobKind.VIDEO)
            wddb.add_implementation(
                ImplementationSCI("u/", "cs101", author="shih",
                                  multimedia=[video]),
                html_files=[DocumentFile("p.html", FileKind.HTML, "v1")],
            )
            wddb.scm.check_out("shih", "p.html")
            wddb.scm.check_in("shih", "p.html", "v2")
            wddb.checkpoint()
            wddb.engine.journal.close()
            return wddb

        assert_freed_on_del(make_durable, "station", "engine", "alerts")

    def test_class_administrator_behind_a_remote_tier_server(self):
        """Served over the wire, then the network and server dropped."""

        def make():
            network = Network(Simulator())
            network.add(Station("server"))
            network.add(Station("browser"))
            server = RemoteTierServer(network, "server")
            client = RemoteTierClient(network, "browser", "server")
            client.login("registrar", "administrator")
            client.call_sync("admit_student", student_id="s00001", name="Ada")
            client.call_sync("search_library", keywords="intro")
            network.quiesce()
            return server.administrator

        assert_freed_on_del(make, "admin_db", "library")

    def test_closed_shard_cluster_on_the_wire(self, tmp_path):
        """After ``close()`` and ``del``, each shard's ``Database`` and
        the network the cluster made are freed."""

        def make():
            cluster = ShardCluster(
                tmp_path, CRASH_SCHEMAS, 2, use_net=True, sync="none",
            )
            for shard_id, handle in cluster.handles.items():
                handle.execute([["insert", "crash_docs", {
                    "doc_id": shard_id, "title": f"t{shard_id}",
                }]])
            cluster.close()
            return cluster

        cluster = make()
        refs = [
            weakref.ref(participant.db)
            for participant in cluster.participants.values()
        ] + [weakref.ref(cluster.network)]
        del cluster
        assert [ref() for ref in refs] == [None] * len(refs)
