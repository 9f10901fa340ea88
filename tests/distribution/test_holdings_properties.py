"""Property test: a station's holdings, disk and blob store agree.

Pre-broadcast, on-demand fetch, watermark duplication, reference
announcements, lecture expiries and course check-outs into the
station's document database all hold documents through the station's
``ReplicaManager``.  Whatever their interleaving, once the network
drains every station's disk charge equals what its holdings occupy and
what its blob store physically keeps, and each mechanism answers "does
this station hold d?" as the manager does.  A full check-out holds the
course's lectures persistently, or is refused whole when the disk has
no room for those the station does not hold.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ImplementationSCI, ScriptSCI, WebDocumentDatabase
from repro.distribution import (
    BroadcastVector,
    MAryTree,
    OnDemandFetcher,
    PreBroadcaster,
    ReferenceBroadcaster,
    ReplicaManager,
    WatermarkSimulator,
    install_package,
    package_course,
)
from repro.fault.crashsim import database_state
from repro.storage.accounting import DiskFullError
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileKind
from repro.util.units import MIB

from tests.conftest import build_network

N = 6
NAMES = [f"s{k}" for k in range(1, N + 1)]
DOCS = ["d0", "d1", "d2"]
CAPPED = "s3"  # room for one document and a half
DOC_BYTES = MIB
#: courses on s1's document database, by the lectures (documents) they name
COURSES = {"c0": ("d0",), "c1": ("d1", "d2"), "c2": ("d0", "d2")}

stations = st.sampled_from(NAMES)
docs = st.sampled_from(DOCS)
operations = st.one_of(
    st.tuples(st.just("broadcast"), docs),
    st.tuples(
        st.just("seed"), st.sampled_from([n for n in NAMES if n != CAPPED]),
        docs,
    ),
    st.tuples(st.just("request"), stations, docs),
    st.tuples(
        st.just("watermark"), stations, docs,
        st.sampled_from([1, 2, None]), st.integers(1, 3),
    ),
    st.tuples(st.just("reset")),
    st.tuples(st.just("announce"), docs, stations),
    st.tuples(st.just("expire"), stations, docs, st.sampled_from([0.0, 5.0])),
    st.tuples(
        st.just("checkout"), st.sampled_from(NAMES[1:]),
        st.sampled_from(sorted(COURSES)), st.booleans(),
    ),
)


def _author_courses(db):
    db.create_document_database("mmu", author="shih")
    lectures = {
        doc: db.register_blob(doc, DOC_BYTES, BlobKind.VIDEO) for doc in DOCS
    }
    for course, named in COURSES.items():
        db.add_script(ScriptSCI(course, "mmu", author="shih"))
        db.add_implementation(
            ImplementationSCI(
                f"http://mmu/{course}/", course, author="shih",
                multimedia=[lectures[doc] for doc in named],
            ),
            [DocumentFile(f"{course}/index.html", FileKind.HTML, course)],
        )


def _checkout(net, source, databases, held, name, course, include_blobs):
    """Check ``course`` out onto ``name``; a refusal changes nothing."""
    db = databases[name]
    station = net.station(name)
    package = package_course(source, course, include_blobs=include_blobs)
    before = (
        database_state(db.engine), db.files.paths(),
        station.disk.categories(), station.blobs.physical_bytes,
    )
    needed = sum(DOC_BYTES for doc in COURSES[course] if not held[name, doc])
    available = station.disk.available_bytes
    if db.script(course) is not None:
        refusal = ValueError
    elif include_blobs and available is not None and needed > available:
        refusal = DiskFullError
    else:
        install_package(db, package)
        if include_blobs:
            holdings = ReplicaManager.of(station)
            assert all(
                holdings.holding(doc).persistent for doc in COURSES[course]
            )
        return
    with pytest.raises(refusal):
        install_package(db, package)
    assert before == (
        database_state(db.engine), db.files.paths(),
        station.disk.categories(), station.blobs.physical_bytes,
    )


def _holds(net, name, doc):
    return ReplicaManager.of(net.station(name)).holds(doc)


def _check_accounts(net):
    for name in NAMES:
        station = net.station(name)
        charged = (
            station.disk.used_in(ReplicaManager.BUFFER)
            + station.disk.used_in(ReplicaManager.PERSISTENT)
        )
        assert station.disk.used_bytes == charged, name
        assert charged == ReplicaManager.of(station).resident_bytes, name
        assert charged == station.blobs.physical_bytes, name


@given(st.lists(operations, min_size=1, max_size=25))
@example([("checkout", CAPPED, "c1", True)])  # no room: refused whole
@example([("broadcast", "d1"), ("checkout", CAPPED, "c1", True)])
@example([("broadcast", "d0"), ("checkout", CAPPED, "c2", False),
          ("checkout", CAPPED, "c0", True), ("reset",),
          ("expire", CAPPED, "d0", 0.0)])  # promoted in place, kept
@example([("broadcast", "d0"), ("checkout", "s2", "c0", False),
          ("expire", "s2", "d0", 0.0)])  # notes name a copy that expires
@settings(max_examples=80, deadline=None)
def test_holdings_disk_and_blobs_agree(ops):
    net = build_network(N, disk_capacity={CAPPED: DOC_BYTES * 3 // 2})
    tree = MAryTree(N, 2, names=NAMES)
    broadcaster = PreBroadcaster(net)
    watermark = WatermarkSimulator(
        net, "s1", {doc: DOC_BYTES for doc in DOCS}
    )
    fetcher = OnDemandFetcher(net, tree)
    for doc in DOCS:
        fetcher.seed_instance("s1", doc, DOC_BYTES)
    vector = BroadcastVector(net)
    for name in NAMES:
        vector.join(name)
    announcer = ReferenceBroadcaster(vector, m=2)
    source = WebDocumentDatabase(net.station("s1"))
    _author_courses(source)
    databases = {
        name: WebDocumentDatabase(net.station(name)) for name in NAMES[1:]
    }
    copies: set[tuple[str, str]] = set()  # what watermark replays made
    _check_accounts(net)

    for op in ops:
        kind = op[0]
        held = {(n, d): _holds(net, n, d) for n in NAMES for d in DOCS}
        if kind == "broadcast":
            report = broadcaster.broadcast(op[1], DOC_BYTES, tree)
            net.quiesce()
            for name in report.arrival_times:
                assert (name in report.reference_only) != _holds(
                    net, name, op[1]
                )
        elif kind == "seed":
            fetcher.seed_instance(op[1], op[2], DOC_BYTES)
        elif kind == "request":
            _kind, name, doc = op
            before = len(fetcher.reports)
            fetcher.request(name, doc)
            local = len(fetcher.reports) > before
            assert local == held[name, doc]
            net.quiesce()
            assert fetcher.reports[-1].station == name
        elif kind == "watermark":
            _kind, name, doc, threshold, count = op
            trace = [(net.sim.now, name, doc)] * count
            outcomes = watermark.replay(trace, threshold).outcomes
            assert outcomes[0].served_locally == held[name, doc]
            if any(o.duplicated for o in outcomes):
                assert _holds(net, name, doc)
                copies.add((name, doc))
        elif kind == "reset":
            watermark.reset()
            for name, doc in copies:  # migrated, unless made persistent
                holding = ReplicaManager.of(net.station(name)).holding(doc)
                assert holding.persistent or not _holds(net, name, doc)
            copies.clear()
        elif kind == "announce":
            announcer.announce(op[1], op[2])
            net.quiesce()
            # a reference never demotes an instance
            assert all(
                _holds(net, n, d) == held[n, d] for n in NAMES for d in DOCS
            )
        elif kind == "checkout":
            _checkout(net, source, databases, held, *op[1:])
        else:  # a lecture's buffered copy expires
            _kind, name, doc, lifetime = op
            ReplicaManager.of(net.station(name)).touch(doc, lifetime)
        net.quiesce()
        _check_accounts(net)
        assert all(_holds(net, "s1", doc) for doc in DOCS)
