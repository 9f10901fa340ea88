"""Tests for transactions, rollback and savepoints."""

import pytest

from repro.rdb import Database, DuplicateKeyError, TransactionError, col


class TestBasicTransactions:
    def test_commit_persists(self, db):
        db.begin()
        db.insert("people", {"person_id": 1, "name": "a"})
        db.commit()
        assert db.count("people") == 1

    def test_rollback_undoes_insert(self, db):
        db.begin()
        db.insert("people", {"person_id": 1, "name": "a"})
        db.rollback()
        assert db.count("people") == 0

    def test_rollback_undoes_update(self, populated_db):
        populated_db.begin()
        populated_db.update_pk("people", 1, {"name": "changed"})
        populated_db.rollback()
        assert populated_db.get("people", 1)["name"] == "ada"

    def test_rollback_undoes_delete_and_cascade(self, populated_db):
        populated_db.begin()
        populated_db.delete_pk("people", 1)
        assert populated_db.count("orders") == 1
        populated_db.rollback()
        assert populated_db.count("people") == 3
        assert populated_db.count("orders") == 3
        # Indexes are restored too: PK lookup must work again.
        assert populated_db.get("people", 1)["name"] == "ada"

    def test_rollback_restores_index_consistency(self, populated_db):
        populated_db.begin()
        populated_db.update_pk("people", 1, {"person_id": 100})
        populated_db.rollback()
        assert populated_db.get("people", 100) is None
        assert populated_db.count("orders", col("person_id") == 1) == 2

    def test_mixed_ops_rollback_in_reverse_order(self, db):
        db.insert("people", {"person_id": 1, "name": "a"})
        db.begin()
        db.insert("people", {"person_id": 2, "name": "b"})
        db.update_pk("people", 1, {"name": "a2"})
        db.delete_pk("people", 1)
        db.rollback()
        rows = db.select("people", order_by="person_id")
        assert [(r["person_id"], r["name"]) for r in rows] == [(1, "a")]


class TestTransactionErrors:
    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.rollback()

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_counters(self, db):
        db.begin(); db.commit()
        db.begin(); db.rollback()
        # autocommits also count as commits
        db.insert("people", {"person_id": 1, "name": "a"})
        assert db.commits >= 2 and db.rollbacks == 1


class TestAutocommitAtomicity:
    def test_failed_statement_leaves_no_trace(self, populated_db):
        """A multi-row statement that fails midway fully rolls back."""
        with pytest.raises(DuplicateKeyError):
            populated_db.insert_many(
                "people",
                [
                    {"person_id": 50, "name": "ok"},
                    {"person_id": 1, "name": "dup"},  # fails
                ],
            )
        assert populated_db.get("people", 50) is None

    def test_failed_cascade_delete_is_atomic(self):
        from repro.rdb import (
            Action,
            Column,
            ColumnType,
            ForeignKey,
            ForeignKeyError,
            Schema,
        )

        T = ColumnType
        db = Database("x")
        db.create_table(Schema(
            name="a",
            columns=(Column("k", T.INT, nullable=False),),
            primary_key=("k",),
        ))
        db.create_table(Schema(
            name="b",
            columns=(Column("k", T.INT, nullable=False), Column("pk", T.INT)),
            primary_key=("k",),
            foreign_keys=(ForeignKey(("pk",), "a", ("k",),
                                     on_delete=Action.CASCADE),),
        ))
        db.create_table(Schema(
            name="c",
            columns=(Column("k", T.INT, nullable=False), Column("pk", T.INT)),
            primary_key=("k",),
            foreign_keys=(ForeignKey(("pk",), "b", ("k",),
                                     on_delete=Action.RESTRICT),),
        ))
        db.insert("a", {"k": 1})
        db.insert("b", {"k": 1, "pk": 1})
        db.insert("c", {"k": 1, "pk": 1})
        # deleting a would cascade into b, but c RESTRICTs b's deletion
        with pytest.raises(ForeignKeyError):
            db.delete_pk("a", 1)
        assert db.count("a") == 1 and db.count("b") == 1


class TestContextManager:
    def test_success_commits(self, db):
        with db.transaction():
            db.insert("people", {"person_id": 1, "name": "a"})
        assert db.count("people") == 1 and not db.in_transaction

    def test_exception_rolls_back_and_reraises(self, db):
        with pytest.raises(RuntimeError, match="boom"):
            with db.transaction():
                db.insert("people", {"person_id": 1, "name": "a"})
                raise RuntimeError("boom")
        assert db.count("people") == 0 and not db.in_transaction


class TestSavepoints:
    def test_rollback_to_savepoint(self, db):
        db.begin()
        db.insert("people", {"person_id": 1, "name": "a"})
        db.savepoint("sp1")
        db.insert("people", {"person_id": 2, "name": "b"})
        db.rollback_to("sp1")
        db.commit()
        assert db.count("people") == 1

    def test_multiple_savepoints(self, db):
        db.begin()
        db.insert("people", {"person_id": 1, "name": "a"})
        db.savepoint("s1")
        db.insert("people", {"person_id": 2, "name": "b"})
        db.savepoint("s2")
        db.insert("people", {"person_id": 3, "name": "c"})
        db.rollback_to("s2")
        assert db.count("people") == 2
        db.rollback_to("s1")
        assert db.count("people") == 1
        db.commit()

    def test_rollback_past_savepoint_invalidates_it(self, db):
        db.begin()
        db.savepoint("s1")
        db.insert("people", {"person_id": 1, "name": "a"})
        db.savepoint("s2")
        db.rollback_to("s1")
        with pytest.raises(TransactionError, match="unknown savepoint"):
            db.rollback_to("s2")
        db.rollback()

    def test_unknown_savepoint(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.rollback_to("ghost")
        db.rollback()

    def test_savepoint_outside_transaction(self, db):
        with pytest.raises(TransactionError):
            db.savepoint("s")
        with pytest.raises(TransactionError):
            db.rollback_to("s")

    def test_work_after_partial_rollback_commits(self, db):
        db.begin()
        db.savepoint("s")
        db.insert("people", {"person_id": 1, "name": "a"})
        db.rollback_to("s")
        db.insert("people", {"person_id": 2, "name": "b"})
        db.commit()
        assert [r["person_id"] for r in db.select("people")] == [2]


class TestFailedStatementInsideTransaction:
    """A statement is atomic inside a caller-owned transaction too: one
    that fails part-way is undone back to where it began — rows, undo
    log and WAL buffer — and the transaction carries on without it."""

    def test_multi_row_update_failing_on_its_second_row(self, populated_db):
        db = populated_db
        db.begin()
        db.update_pk("people", 3, {"age": 30})
        before = db.select("people", order_by="person_id")
        with pytest.raises(DuplicateKeyError):
            db.update("people", {"email": "same@mmu.edu"},
                      where=col("person_id") >= 0)
        assert db.select("people", order_by="person_id") == before
        assert db.pending_wal_ops() == [
            ["update", "people", [3], {"age": 30}]
        ]
        db.commit()
        assert db.get("people", 1)["email"] == "ada@mmu.edu"
        assert db.get("people", 3)["age"] == 30

    def test_cascade_delete_stopped_by_a_trigger(self, populated_db):
        from repro.rdb import TriggerEvent, TriggerTiming

        db = populated_db

        def veto_order_11(ctx):
            if ctx.old_row["order_id"] == 11:
                raise ValueError("order 11 stays")

        db.register_trigger("veto", "orders", TriggerEvent.DELETE,
                            TriggerTiming.BEFORE, veto_order_11)
        db.begin()
        with pytest.raises(ValueError):
            db.delete("people", where=col("person_id") == 1)
        # Order 10 was cascade-deleted before the veto: it is back.
        assert db.count("orders") == 3
        assert db.get("orders", 10) is not None
        assert db.pending_wal_ops() == []
        db.commit()
        assert db.count("people") == 3

    def test_insert_many_failing_on_a_later_row(self, db):
        db.begin()
        db.insert("people", {"person_id": 1, "name": "kept"})
        with pytest.raises(DuplicateKeyError):
            db.insert_many("people", [
                {"person_id": 2, "name": "b"},
                {"person_id": 3, "name": "c"},
                {"person_id": 2, "name": "again"},
            ])
        assert [r["person_id"] for r in db.select("people")] == [1]
        assert len(db.pending_wal_ops()) == 1
        db.insert("people", {"person_id": 2, "name": "b"})  # key is free again
        db.commit()
        assert db.count("people") == 2

    def test_savepoint_taken_before_the_failure_still_works(self, populated_db):
        db = populated_db
        db.begin()
        db.savepoint("sp")
        db.update_pk("people", 2, {"age": 21})
        with pytest.raises(DuplicateKeyError):
            db.update("people", {"email": "x@mmu.edu"})
        assert db.get("people", 2)["age"] == 21
        db.rollback_to("sp")
        assert db.get("people", 2)["age"] == 20
        db.commit()

    def test_failed_statement_is_not_journaled_at_commit(
        self, tmp_path, people_schema
    ):
        from repro.rdb.wal import Journal, read_frames

        db = Database("j")
        db.create_table(people_schema)
        db.attach_journal(Journal(tmp_path / "wal"))
        db.insert_many("people", [
            {"person_id": n, "name": f"p{n}", "email": f"p{n}@mmu.edu"}
            for n in (1, 2)
        ])
        db.begin()
        with pytest.raises(DuplicateKeyError):
            db.update("people", {"email": "same@mmu.edu"})
        db.update_pk("people", 2, {"name": "renamed"})
        db.commit()
        frames = [f for f in read_frames(tmp_path / "wal") if f.kind == "txn"]
        assert frames[-1].ops == [["update", "people", [2], {"name": "renamed"}]]
        recovered = Database.recover(
            "r", [people_schema], journal_path=str(tmp_path / "wal")
        )
        assert recovered.select("people") == db.select("people")
