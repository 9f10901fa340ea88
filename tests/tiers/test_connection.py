"""Tests for the ODBC-style connection adapter."""

import pytest

from repro.rdb import col
from repro.tiers import OpenDatabaseConnection


@pytest.fixture
def conn(populated_db) -> OpenDatabaseConnection:
    return OpenDatabaseConnection(populated_db)


class TestCursor:
    def test_select_fetchall(self, conn):
        cursor = conn.cursor().select("people", order_by="person_id")
        rows = cursor.fetchall()
        assert len(rows) == 3 and cursor.rowcount == 3

    def test_fetchone_walks_results(self, conn):
        cursor = conn.cursor().select("people", order_by="person_id")
        assert cursor.fetchone()["person_id"] == 1
        assert cursor.fetchone()["person_id"] == 2
        cursor.fetchone()
        assert cursor.fetchone() is None

    def test_fetchmany(self, conn):
        cursor = conn.cursor().select("people", order_by="person_id")
        assert len(cursor.fetchmany(2)) == 2
        assert len(cursor.fetchmany(2)) == 1

    def test_insert_rowcount(self, conn):
        cursor = conn.cursor().insert(
            "people", {"person_id": 9, "name": "new"}
        )
        assert cursor.rowcount == 1

    def test_update_rowcount(self, conn):
        cursor = conn.cursor().update(
            "people", {"age": 1}, where=col("age").not_null()
        )
        assert cursor.rowcount == 2

    def test_delete_rowcount(self, conn):
        cursor = conn.cursor().delete("orders", where=col("person_id") == 1)
        assert cursor.rowcount == 2

    def test_select_with_filters(self, conn):
        cursor = conn.cursor().select(
            "people", where=col("name") == "ada", columns=["name"]
        )
        assert cursor.fetchall() == [{"name": "ada"}]

    def test_keyed_calls(self, conn, populated_db):
        cursor = conn.cursor()
        assert cursor.get("people", (1,)).fetchone()["name"] == "ada"
        assert cursor.get("people", (99,)).rowcount == 0
        assert cursor.update_pk("people", (2,), {"age": 21}).rowcount == 1
        assert populated_db.get("people", 2)["age"] == 21
        assert cursor.update_pk("people", (99,), {"age": 1}).rowcount == 0
        assert cursor.delete_pk("orders", (12,)).rowcount == 1
        assert cursor.delete_pk("orders", (12,)).rowcount == 0

    def test_a_key_no_row_can_hold_finds_nothing(self, conn, populated_db):
        """An unhashable key gets the answer a WHERE on it gets, not the
        ``TypeError`` of hashing it."""
        cursor = conn.cursor()
        before = populated_db.select("people")
        assert cursor.get("people", ([1],)).fetchone() is None
        assert cursor.select("people", where=col("person_id") == [1]).rowcount == 0
        assert cursor.update_pk("people", ([1],), {"age": 1}).rowcount == 0
        assert cursor.delete_pk("people", ({"id": 1},)).rowcount == 0
        assert populated_db.select("people") == before


class TestConnectionLifecycle:
    def test_transaction_demarcation(self, conn, populated_db):
        conn.begin()
        conn.cursor().insert("people", {"person_id": 9, "name": "x"})
        conn.rollback()
        assert populated_db.get("people", 9) is None

    def test_commit(self, conn, populated_db):
        conn.begin()
        conn.cursor().insert("people", {"person_id": 9, "name": "x"})
        conn.commit()
        assert populated_db.get("people", 9) is not None

    def test_commit_without_begin_is_noop(self, conn):
        conn.commit()  # no raise

    def test_context_manager_commits(self, populated_db):
        with OpenDatabaseConnection(populated_db) as conn:
            conn.begin()
            conn.cursor().insert("people", {"person_id": 9, "name": "x"})
        assert populated_db.get("people", 9) is not None

    def test_context_manager_rolls_back_on_error(self, populated_db):
        with pytest.raises(RuntimeError):
            with OpenDatabaseConnection(populated_db) as conn:
                conn.begin()
                conn.cursor().insert("people", {"person_id": 9, "name": "x"})
                raise RuntimeError("boom")
        assert populated_db.get("people", 9) is None

    def test_closed_connection_rejects_use(self, conn):
        conn.close()
        assert conn.closed
        with pytest.raises(RuntimeError, match="closed"):
            conn.cursor()

    def test_close_rolls_back_open_transaction(self, conn, populated_db):
        conn.begin()
        conn.cursor().insert("people", {"person_id": 9, "name": "x"})
        conn.close()
        assert populated_db.get("people", 9) is None

    def test_cursor_counter(self, conn):
        conn.cursor()
        conn.cursor()
        assert conn.cursors_opened == 2
