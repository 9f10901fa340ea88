"""Property tests for the configuration manager over a station's files."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import (
    CheckoutError,
    ConfigurationManager,
    ImplementationSCI,
    LockConflictError,
    ScriptSCI,
    WebDocumentDatabase,
)
from repro.storage.files import DocumentFile, FileKind

USERS = ["u1", "u2", "u3"]
COMPONENTS = ["c1", "c2", "c3"]

actions = st.lists(
    st.one_of(
        st.tuples(st.just("checkout"), st.sampled_from(USERS),
                  st.sampled_from(COMPONENTS)),
        st.tuples(st.just("checkin"), st.sampled_from(USERS),
                  st.sampled_from(COMPONENTS), st.text(max_size=6)),
        st.tuples(st.just("cancel"), st.sampled_from(USERS),
                  st.sampled_from(COMPONENTS)),
    ),
    max_size=50,
)


def _run(ops) -> ConfigurationManager:
    station = WebDocumentDatabase("station", with_integrity=False)
    station.create_document_database("mmu", author="author")
    station.add_script(ScriptSCI("course", "mmu", author="author"))
    station.add_implementation(
        ImplementationSCI("course/", "course", author="author"),
        html_files=[DocumentFile(component, FileKind.HTML, "v1")
                    for component in COMPONENTS],
    )
    manager = station.scm
    for op in ops:
        try:
            if op[0] == "checkout":
                manager.check_out(op[1], op[2])
            elif op[0] == "checkin":
                manager.check_in(op[1], op[2], op[3])
            else:
                manager.cancel_checkout(op[1], op[2])
        except (CheckoutError, LockConflictError):
            pass
    return manager


@given(actions)
@settings(max_examples=80, deadline=None)
def test_versions_strictly_increase_and_never_vanish(ops):
    manager = _run(ops)
    for component in COMPONENTS:
        versions = [r.version for r in manager.history(component)]
        assert versions == list(range(1, len(versions) + 1))


@given(actions)
@settings(max_examples=80, deadline=None)
def test_at_most_one_holder_and_lock_agreement(ops):
    manager = _run(ops)
    for component in COMPONENTS:
        holder = manager.checked_out_by(component)
        lock_holders = manager.locks.holders(f"file:{component}")
        if holder is None:
            assert lock_holders == {}
        else:
            assert set(lock_holders) == {holder}


@given(actions)
@settings(max_examples=60, deadline=None)
def test_checkins_never_exceed_checkouts(ops):
    manager = _run(ops)
    assert manager.checkins <= manager.checkouts
    # every completed checkout produced exactly one version beyond v1
    total_versions = sum(
        len(manager.history(component)) - 1 for component in COMPONENTS
    )
    assert total_versions == manager.checkins
