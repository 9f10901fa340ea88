"""Property test: the document database's lock tree, files and BLOB
references agree with its rows after any interleaving of writes, a
refused write changes nothing, and closing and reopening a durable
station changes nothing."""

from __future__ import annotations

import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnnotationSCI,
    BugReportSCI,
    ImplementationSCI,
    ScriptSCI,
    TestRecordSCI,
    WebDocumentDatabase,
)
from repro.distribution import install_package, package_course
from repro.fault.crashsim import crash_points, database_state, frame_boundaries
from repro.rdb import RdbError
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileKind

SCRIPTS = ["s0", "s1", "k0", "d0"]
URLS = ["u0", "u1", "u0d0/"]  # duplicate_course(s0, d0) copies u0 to u0d0/
OBJECT_URLS = [*URLS, "k/k0/", "k/k1/"]
HTML = ["p0.html", "p1.html", "k0/p.html", "d0/p0.html"]
PROGRAMS = ["q0.class", "p1.html"]
ANNOTATION_PATHS = ["n0.json", "p0.html"]
TESTS = ["t0", "t1"]
BLOB_LABELS = {"v0": ("v0.mpg", 100), "r0": ("r0.mpg", 500)}
PRIMARY_KEYS = {
    "doc_databases": "db_name",
    "blobs": "digest",
    "scripts": "script_name",
    "implementations": "starting_url",
    "test_records": "test_record_name",
    "bug_reports": "bug_report_name",
    "annotations": "annotation_name",
    "html_files": "path",
    "program_files": "path",
    "annotation_files": "path",
}
PREFIXES = ("db", "script", "impl", "file", "test", "bug", "ann")


def _source() -> tuple[WebDocumentDatabase, dict[str, str]]:
    """A station whose two courses share paths and BLOBs with the drawn
    writes: k0 uses p1.html and r0, k1 uses v0."""
    source = WebDocumentDatabase("source")
    source.create_document_database("mmu", author="shih")
    digests = {
        name: source.register_blob(label, size, BlobKind.VIDEO)
        for name, (label, size) in BLOB_LABELS.items()
    }
    for script, paths, digest in (
        ("k0", ["k0/p.html", "p1.html"], digests["r0"]),
        ("k1", ["k1/p.html"], digests["v0"]),
    ):
        source.add_script(ScriptSCI(script, "mmu", author="shih"))
        source.add_implementation(
            ImplementationSCI(f"k/{script}/", script, author="shih",
                              multimedia=[digest]),
            html_files=[DocumentFile(p, FileKind.HTML, script) for p in paths],
        )
    return source, digests


SOURCE, DIGESTS = _source()
DIGESTS["ghost"] = "not-a-registered-digest"
PACKAGES = {
    (script, full): package_course(SOURCE, script, include_blobs=full)
    for script in ("k0", "k1") for full in (False, True)
}

steps = st.lists(
    st.one_of(
        st.tuples(st.just("script"), st.sampled_from(SCRIPTS)),
        st.tuples(
            st.just("impl"), st.sampled_from(URLS),
            st.sampled_from(["s0", "s1"]),
            st.lists(st.sampled_from(HTML), min_size=1, max_size=2,
                     unique=True),
            st.lists(st.sampled_from(PROGRAMS), max_size=1),
            st.lists(st.sampled_from(["v0", "r0", "v0", "r0", "ghost"]),
                     max_size=2, unique=True),
        ),
        st.tuples(st.just("test"), st.sampled_from(TESTS),
                  st.sampled_from(OBJECT_URLS)),
        st.tuples(st.just("bug"), st.just("b0"), st.sampled_from(TESTS)),
        st.tuples(st.just("ann"), st.sampled_from(["a0", "a1"]),
                  st.sampled_from(OBJECT_URLS),
                  st.sampled_from(ANNOTATION_PATHS)),
        st.tuples(st.just("rename"), st.sampled_from(SCRIPTS),
                  st.sampled_from(SCRIPTS)),
        st.tuples(st.just("delete_script"), st.sampled_from(SCRIPTS)),
        st.tuples(st.just("delete_impl"), st.sampled_from(URLS)),
        st.tuples(st.just("duplicate"), st.sampled_from(["s0", "s0", "k0"]),
                  st.sampled_from(["d0", "d0", "s1"])),
        st.tuples(st.just("install"), st.sampled_from(["k0", "k1"]),
                  st.booleans()),
        st.tuples(st.just("register"), st.sampled_from(sorted(BLOB_LABELS))),
        st.tuples(st.just("checkin"), st.sampled_from([*HTML, *PROGRAMS])),
        st.tuples(st.just("reload"), st.booleans()),
    ),
    max_size=30,
)


def _apply(
    db: WebDocumentDatabase, step: tuple, directory: str
) -> WebDocumentDatabase:
    kind, *args = step
    if kind == "script":
        db.add_script(ScriptSCI(args[0], "mmu", author="shih"))
    elif kind == "impl":
        url, script, html, programs, digests = args
        db.add_implementation(
            ImplementationSCI(url, script, author="shih",
                              multimedia=[DIGESTS[d] for d in digests]),
            html_files=[DocumentFile(p, FileKind.HTML, url) for p in html],
            program_files=[
                DocumentFile(p, FileKind.PROGRAM, url) for p in programs
            ],
        )
    elif kind == "test":
        impl = db.implementation(args[1])
        db.add_test_record(TestRecordSCI(
            args[0], impl.script_name if impl else "s0", args[1]
        ))
    elif kind == "bug":
        db.add_bug_report(BugReportSCI(args[0], args[1], qa_engineer="ma"))
    elif kind == "ann":
        name, url, path = args
        impl = db.implementation(url)
        db.add_annotation(
            AnnotationSCI(name, "huang", impl.script_name if impl else "s0",
                          url, annotation_file=None),
            DocumentFile(path, FileKind.ANNOTATION, name),
        )
    elif kind == "rename":
        db.update_script(args[0], {"script_name": args[1]})
    elif kind == "delete_script":
        db.delete_script(args[0])
    elif kind == "delete_impl":
        db.delete_implementation(args[0])
    elif kind == "duplicate":
        db.duplicate_course(args[0], args[1])
    elif kind == "install":
        install_package(db, PACKAGES[tuple(args)])
    elif kind == "register":
        db.register_blob(*BLOB_LABELS[args[0]], BlobKind.VIDEO)
    elif kind == "checkin":
        db.scm.check_out("ma", args[0])
        db.scm.check_in("ma", args[0], f"{args[0]} edited")
    else:  # close, after a checkpoint or not, and open again
        if args[0]:
            db.checkpoint()
        db.engine.journal.close()
        return WebDocumentDatabase(db.station.name, data_dir=directory)
    return db


def _expected_nodes(db: WebDocumentDatabase) -> dict[str, str]:
    """Each row object's lock-tree node -> its container, from the rows."""
    rows = {table: db.engine.select(table) for table in PRIMARY_KEYS}
    nodes = {f"db:{r['db_name']}": db.tree.root for r in rows["doc_databases"]}
    for table, prefix, key, above, parent_key in (
        ("scripts", "script", "script_name", "db", "db_name"),
        ("implementations", "impl", "starting_url", "script", "script_name"),
        ("html_files", "file", "path", "impl", "starting_url"),
        ("program_files", "file", "path", "impl", "starting_url"),
        ("test_records", "test", "test_record_name", "impl", "starting_url"),
        ("bug_reports", "bug", "bug_report_name", "test", "test_record_name"),
        ("annotations", "ann", "annotation_name", "impl", "starting_url"),
    ):
        for row in rows[table]:
            if row[parent_key] is not None:
                nodes[f"{prefix}:{row[key]}"] = f"{above}:{row[parent_key]}"
    return nodes


def _row_ids(db: WebDocumentDatabase) -> set[str]:
    """Every key any table holds, under every lock-tree prefix."""
    keys = {
        row[key]
        for table, key in PRIMARY_KEYS.items()
        for row in db.engine.select(table)
    }
    return {f"{prefix}:{key}" for prefix in PREFIXES for key in keys}


def _state(db: WebDocumentDatabase, candidates: set[str]) -> tuple:
    return (
        {t: db.engine.select(t, order_by=k) for t, k in PRIMARY_KEYS.items()},
        {f.path: (f.kind, f.content) for f in db.files.files()},
        db.engine.select("versions", order_by="path"),
        {b.digest: set(b.owners) for b in db.station.blobs.blobs()},
        {node for node in candidates if node in db.tree},
    )


def _check(db: WebDocumentDatabase, candidates: set[str]) -> None:
    expected = _expected_nodes(db)
    for node, container in expected.items():
        assert node in db.tree, node
        assert db.tree.parent(node) == container, node
        assert list(db.tree.ancestors(node))[-1] == db.tree.root, node
    for node in candidates - expected.keys():
        assert node not in db.tree, node
    implementations = db.engine.select("implementations")
    registered = [
        (table, fd["path"], row["starting_url"])
        for row in implementations
        for table in ("html_files", "program_files")
        for fd in row[table]
    ] + [
        ("annotation_files", row["annotation_file"]["path"],
         row["starting_url"])
        for row in db.engine.select("annotations")
    ]
    for table, path, starting_url in registered:
        entry = db.engine.get(table, path)
        assert entry["starting_url"] == starting_url, path
        assert entry["checksum"] == db.files.read(path).checksum, path
    # Every file and registry row belongs to a live implementation.
    assert sorted(db.files.paths()) == sorted(path for _t, path, _u in registered)
    assert sum(db.engine.count(table) for table in
               ("html_files", "program_files", "annotation_files")) == \
        len(registered)
    for blob in db.station.blobs.blobs():
        naming = {
            f"impl:{row['starting_url']}"
            for row in implementations
            if blob.digest in (row["multimedia"] or [])
        }
        owners = {o for o in blob.owners if o.startswith("impl:")}
        assert owners == naming, blob.digest


@given(steps)
@settings(max_examples=300, deadline=None)
def test_tree_files_and_blob_references_follow_the_rows(ops):
    with tempfile.TemporaryDirectory() as directory:
        _run(ops, directory)


def _run(ops, directory: str) -> None:
    db = WebDocumentDatabase("prop", data_dir=directory)
    db.create_document_database("mmu", author="shih")
    db.register_blob(*BLOB_LABELS["v0"], BlobKind.VIDEO)
    for script in ("s0", "s1"):
        db.add_script(ScriptSCI(script, "mmu", author="shih"))
    _apply(db, ("impl", "u0", "s0", ["p0.html"], [], ["v0"]), directory)
    _apply(db, ("test", "t0", "u0"), directory)
    candidates = _row_ids(db)
    for step in ops:
        before = _state(db, candidates)
        try:
            after_db = _apply(db, step, directory)
        except (ValueError, LookupError, RdbError):
            assert _state(db, candidates) == before, step
            continue
        if step[0] == "reload":
            assert _state(after_db, candidates) == before
        db = after_db
        candidates |= _row_ids(db)
        _check(db, candidates)


# ---------------------------------------------------------------------------
# Crash gate: an authoring operation is one journal frame
# ---------------------------------------------------------------------------
def _seeded_steps(seed: int, count: int) -> list[tuple]:
    """``count`` authoring steps in :func:`_apply`'s form, drawn from
    ``seed`` against a model of what the station holds, so most of them
    commit; one in five new implementations reuses a taken path and is
    refused."""
    rng = random.Random(seed)
    scripts = {"s0": ["u0"], "s1": []}  # script -> its implementations
    files = {"u0": ["p0.html"]}  # implementation -> its HTML/program paths
    registered = {"v0"}
    packages = {"k0": ("k/k0/", ["k0/p.html", "p1.html"], "r0"),
                "k1": ("k/k1/", ["k1/p.html"], "v0")}
    steps: list[tuple] = []
    for index in range(count):
        kind = rng.choice([
            "impl", "impl", "checkin", "checkin", "checkin", "duplicate",
            "install", "delete_impl", "delete_script", "register", "ann",
        ])
        urls = [url for owned in scripts.values() for url in owned]
        if kind == "impl":
            script, url = rng.choice(sorted(scripts)), f"u{index}/"
            html = [f"f{index}.html"]
            if rng.random() < 0.2 and urls:
                html += files[rng.choice(urls)][:1]
            else:
                scripts[script].append(url)
                files[url] = [*html, f"q{index}.class"]
            steps.append(("impl", url, script, html, files.get(url, [])[1:],
                          rng.sample(sorted(registered), rng.randint(0, 1))))
        elif kind == "checkin" and urls:
            steps.append(("checkin", rng.choice(files[rng.choice(urls)])))
        elif kind == "duplicate":
            source, copy = rng.choice(sorted(scripts)), f"d{index}"
            steps.append(("duplicate", source, copy))
            scripts[copy] = [f"{url}{copy}/" for url in scripts[source]]
            for url in scripts[source]:
                files[f"{url}{copy}/"] = [f"{copy}/{p}" for p in files[url]]
        elif kind == "install" and packages:
            name = rng.choice(sorted(packages))
            url, paths, digest = packages.pop(name)
            steps.append(("install", name, rng.random() < 0.5))
            scripts[name], files[url] = [url], paths
            registered.add(digest)
        elif kind == "delete_impl" and urls:
            url = rng.choice(urls)
            steps.append(("delete_impl", url))
            for owned in scripts.values():
                if url in owned:
                    owned.remove(url)
        elif kind == "delete_script" and len(scripts) > 1:
            script = rng.choice(sorted(scripts)[1:])
            steps.append(("delete_script", script))
            del scripts[script]
        elif kind == "register":
            name = rng.choice(sorted(BLOB_LABELS))
            steps.append(("register", name))
            registered.add(name)
        elif urls:
            steps.append(("ann", f"a{index}", rng.choice(urls),
                          f"n{index}.json"))
    return steps


def _station_state(db: WebDocumentDatabase) -> tuple:
    """What a reopen must bring back: the rows, the lock tree, the held
    BLOBs and their owners, the files and the version chains."""
    return (
        database_state(db.engine),
        {node: db.tree.parent(node) for node in _row_ids(db)
         if node in db.tree},
        {b.digest: frozenset(b.owners) for b in db.station.blobs.blobs()},
        {f.path: f for f in db.files.files()},
        {path: db.scm.history(path) for path in db.scm.components()},
    )


@pytest.mark.parametrize("seed, checkpoint_at", [(3, None), (17, 12)])
def test_a_crash_keeps_or_loses_each_authoring_op_whole(
    tmp_path, seed, checkpoint_at
):
    """Truncate the journal at every frame boundary and every 64th byte:
    the reopened station equals the station after the last op whose
    frame lies wholly below the cut."""
    live_dir, cut_dir = tmp_path / "live", tmp_path / "cut"
    db = WebDocumentDatabase("crash", data_dir=live_dir)
    wal = live_dir / "wddb.wal"
    #: (journal bytes once the op committed, the station after it)
    after_op = [(0, _station_state(db))]
    steps = [
        ("db",), ("register", "v0"), ("script", "s0"), ("script", "s1"),
        ("impl", "u0", "s0", ["p0.html"], [], ["v0"]),
        *_seeded_steps(seed, 40),
    ]
    for index, step in enumerate(steps):
        if index == checkpoint_at:
            db.checkpoint()
            after_op = [(0, _station_state(db))]
        try:
            if step == ("db",):
                db.create_document_database("mmu", author="shih")
            else:
                _apply(db, step, str(live_dir))
        except (ValueError, LookupError, RdbError):
            pass
        after_op.append((wal.stat().st_size, _station_state(db)))
    db.engine.journal.close()
    data = wal.read_bytes()
    shutil.copytree(live_dir, cut_dir)  # the snapshot, if any, stays
    for cut in crash_points(len(data), frame_boundaries(wal)):
        (cut_dir / "wddb.wal").write_bytes(data[:cut])
        reopened = WebDocumentDatabase("crash", data_dir=cut_dir)
        expected = [state for end, state in after_op if end <= cut][-1]
        assert _station_state(reopened) == expected, (seed, cut)
        reopened.engine.journal.close()
