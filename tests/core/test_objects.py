"""Tests for SCI object <-> row conversions."""

import dataclasses
import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnnotationSCI,
    BugReportSCI,
    DocumentDatabaseInfo,
    ImplementationSCI,
    ScriptSCI,
    TestRecordSCI,
    TestScope,
)
from repro.core import schema
from repro.rdb import Database
from repro.storage.files import FileDescriptor

#: Each SCI class beside the table it is a row of.
CLASSES = [
    (DocumentDatabaseInfo, schema.DOC_DATABASES),
    (ScriptSCI, schema.SCRIPTS),
    (ImplementationSCI, schema.IMPLEMENTATIONS),
    (TestRecordSCI, schema.TEST_RECORDS),
    (BugReportSCI, schema.BUG_REPORTS),
    (AnnotationSCI, schema.ANNOTATIONS),
]

_TEXT = st.text(max_size=8)
_WHEN = st.datetimes(dt.datetime(1990, 1, 1), dt.datetime(2030, 1, 1))
_FILE = st.builds(FileDescriptor, _TEXT, _TEXT)
#: A value for every field annotation the SCI classes use, drawn from
#: the field's own type: a field with no column cannot hide behind
#: its default.
_VALUES = {
    "str": _TEXT,
    "str | None": st.none() | _TEXT,
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(0.0, 100.0),
    "bool | None": st.sampled_from([None, True, False]),
    "_dt.datetime": _WHEN,
    "_dt.datetime | None": st.none() | _WHEN,
    "list[str]": st.lists(_TEXT, max_size=3),
    "TestScope": st.sampled_from(TestScope),
    "FileDescriptor": _FILE,
    "list[FileDescriptor]": st.lists(_FILE, max_size=3),
}


def _instances(cls):
    return st.builds(cls, **{
        f.name: _VALUES[f.type] for f in dataclasses.fields(cls)
    })


@pytest.mark.parametrize(
    "cls, table", CLASSES, ids=[cls.__name__ for cls, _ in CLASSES]
)
class TestEachClassAgreesWithItsSchema:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_row_is_the_schemas_columns_in_order(self, cls, table, data):
        assert cls.schema is table
        row = data.draw(_instances(cls)).to_row()
        assert list(row) == [column.name for column in table.columns]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_a_stored_object_reads_back_equal(self, cls, table, data):
        instance = data.draw(_instances(cls))
        db = Database("objects")
        # The table alone: its parents' rows are not what is tested.
        db.create_table(dataclasses.replace(table, foreign_keys=()))
        db.insert(table.name, instance.to_row())
        key = getattr(instance, table.primary_key[0])
        assert cls.from_row(db.get(table.name, key)) == instance


class TestRoundTrips:
    def test_database_info(self):
        info = DocumentDatabaseInfo(
            db_name="mmu", author="shih", keywords=["a", "b"], version=3,
            created_at=dt.datetime(1999, 2, 3),
        )
        assert DocumentDatabaseInfo.from_row(info.to_row()) == info

    def test_script(self):
        script = ScriptSCI(
            script_name="cs101", db_name="mmu", author="shih",
            description="desc", keywords=["intro"], version=2,
            created_at=dt.datetime(1999, 5, 1),
            verbal_description="digest123",
            expected_completion=dt.datetime(1999, 9, 1),
            percent_complete=55.5, multimedia=["d1", "d2"],
        )
        assert ScriptSCI.from_row(script.to_row()) == script

    def test_implementation_with_descriptors(self):
        impl = ImplementationSCI(
            starting_url="http://x/", script_name="cs101", author="shih",
            html_files=[FileDescriptor("st", "a.html")],
            program_files=[FileDescriptor("st", "b.class")],
            multimedia=["d1"],
        )
        restored = ImplementationSCI.from_row(impl.to_row())
        assert restored == impl
        assert restored.html_files[0].station == "st"

    def test_test_record_scope_enum(self):
        record = TestRecordSCI(
            test_record_name="tr", script_name="cs101",
            starting_url="http://x/", scope=TestScope.GLOBAL,
            traversal_messages=["OPEN a", "FOLLOW b"], passed=False,
        )
        restored = TestRecordSCI.from_row(record.to_row())
        assert restored == record
        assert restored.scope is TestScope.GLOBAL

    def test_bug_report(self):
        report = BugReportSCI(
            bug_report_name="bug", test_record_name="tr",
            qa_engineer="ma", bad_urls=["u1"], missing_objects=["m1"],
            inconsistency="mismatch", redundant_objects=["r1"],
        )
        assert BugReportSCI.from_row(report.to_row()) == report

    def test_annotation(self):
        annotation = AnnotationSCI(
            annotation_name="ann", author="huang", script_name="cs101",
            starting_url="http://x/",
            annotation_file=FileDescriptor("st", "a.json"), version=4,
        )
        assert AnnotationSCI.from_row(annotation.to_row()) == annotation


class TestSemantics:
    def test_bug_report_is_clean(self):
        clean = BugReportSCI("b", "tr", qa_engineer="ma")
        assert clean.is_clean
        dirty = BugReportSCI("b", "tr", qa_engineer="ma", bad_urls=["x"])
        assert not dirty.is_clean
        described = BugReportSCI("b", "tr", qa_engineer="ma",
                                 bug_description="broken")
        assert not described.is_clean

    def test_row_lists_are_copies(self):
        script = ScriptSCI("s", "db", author="a", keywords=["k"])
        row = script.to_row()
        row["keywords"].append("mutated")
        assert script.keywords == ["k"]

    def test_defaults(self):
        script = ScriptSCI("s", "db", author="a")
        assert script.version == 1
        assert script.percent_complete == 0.0
        assert script.multimedia == []
