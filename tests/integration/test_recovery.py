"""Integration test: journaled document database survives a 'crash'."""

import pytest

from repro.core import ScriptSCI, WebDocumentDatabase
from repro.core.schema import ALL_SCHEMAS
from repro.rdb import Database
from repro.rdb.wal import Journal, read_frames


class TestDocumentDatabaseRecovery:
    def test_course_database_replays_from_journal(self, tmp_path):
        journal_path = tmp_path / "wddb.jsonl"
        wddb = WebDocumentDatabase("server")
        wddb.engine.attach_journal(Journal(journal_path))
        wddb.create_document_database("mmu", author="shih")
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih",
                                  keywords=["k1"]))
        wddb.add_script(ScriptSCI("cs2", "mmu", author="ma"))
        wddb.update_script("cs1", {"percent_complete": 50.0})
        wddb.delete_script("cs2")

        recovered = Database.recover(
            "replayed", ALL_SCHEMAS, journal_path=str(journal_path)
        )
        scripts = recovered.select("scripts")
        assert len(scripts) == 1
        assert scripts[0]["script_name"] == "cs1"
        assert scripts[0]["percent_complete"] == 50.0
        assert scripts[0]["version"] == 2
        assert recovered.count("doc_databases") == 1

    def test_snapshot_shortens_replay(self, tmp_path):
        journal_path = tmp_path / "wddb.jsonl"
        snap_path = tmp_path / "snap.json"
        wddb = WebDocumentDatabase("server")
        journal = Journal(journal_path)
        wddb.engine.attach_journal(journal)
        wddb.create_document_database("mmu", author="shih")
        for i in range(10):
            wddb.add_script(ScriptSCI(f"c{i}", "mmu", author="x"))
        wddb.engine.snapshot(str(snap_path))
        wddb.add_script(ScriptSCI("post", "mmu", author="x"))
        # journal now holds only the post-snapshot transaction
        kinds = [f.kind for f in read_frames(journal_path)]
        assert kinds.count("txn") == 1
        recovered = Database.recover(
            "r", ALL_SCHEMAS,
            snapshot_path=str(snap_path), journal_path=str(journal_path),
        )
        assert recovered.count("scripts") == 11
