"""Course packages: shipping whole courses between stations.

The paper's off-line learning path (§5): "in order to support off-line
learning, we encourage students to 'check out' lecture notes from a
virtual library" — the notes land on the student's workstation.  And
§4: "Some Web documents can be stored with duplicated copies in
different machines for the ease of real-time information retrieval."

A :class:`CoursePackage` is the serialized compound object: the script
row, its implementation rows, the small document files, and the BLOB
registry entries.  Two shipping modes mirror the paper's size split:

* ``include_blobs=False`` (default) ships metadata + files only; the
  multimedia stays as references, to be pulled later on demand — a
  check-out of the *notes*;
* ``include_blobs=True`` ships everything, paying the BLOB bytes up
  front — a full duplicate copy, charged to the student's disk.

:class:`CourseShipper` runs the request/response exchange over the
simulated network and installs arriving packages into the destination
station's :class:`~repro.core.wddb.WebDocumentDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.objects import ImplementationSCI, ScriptSCI
from repro.core.wddb import WebDocumentDatabase
from repro.net.messages import Message
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb import col
from repro.storage.accounting import DiskFullError
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileDescriptor, FileKind
from repro.storage.holdings import ReplicaManager

__all__ = ["CoursePackage", "package_course", "install_package", "CourseShipper"]

REQUEST_KIND = "course.request"
PACKAGE_KIND = "course.package"
REQUEST_BYTES = 256


@dataclass(frozen=True, slots=True)
class CoursePackage:
    """One serialized course compound."""

    script_row: dict[str, Any]
    implementation_rows: tuple[dict[str, Any], ...]
    #: path -> (kind value, content)
    files: dict[str, tuple[str, str]]
    #: blob registry rows (digest, kind, size, label)
    blob_rows: tuple[dict[str, Any], ...]
    include_blobs: bool

    @property
    def file_bytes(self) -> int:
        return sum(
            len(content.encode("utf-8")) for _kind, content in self.files.values()
        )

    @property
    def blob_bytes(self) -> int:
        return sum(row["size_bytes"] for row in self.blob_rows)

    @property
    def wire_bytes(self) -> int:
        """What crossing the network costs: metadata + files, plus the
        BLOB payload only when it is included."""
        metadata = 512 + 256 * (1 + len(self.implementation_rows))
        total = metadata + self.file_bytes
        if self.include_blobs:
            total += self.blob_bytes
        return total


def package_course(
    db: WebDocumentDatabase, script_name: str, *, include_blobs: bool = False
) -> CoursePackage:
    """Serialize one course from a station database."""
    script_row = db.engine.get("scripts", script_name)
    if script_row is None:
        raise LookupError(f"unknown script {script_name!r}")
    implementation_rows = tuple(
        dict(row)
        for row in db.engine.select(
            "implementations",
            where=col("script_name") == script_name,
            order_by="starting_url",
        )
    )
    files: dict[str, tuple[str, str]] = {}
    digests: set[str] = set(script_row["multimedia"] or [])
    for row in implementation_rows:
        for descriptor in (*row["html_files"], *row["program_files"]):
            document = db.files.read(descriptor["path"])
            files[document.path] = (document.kind.value, document.content)
        digests.update(row["multimedia"] or [])
    blob_rows = tuple(
        dict(db.engine.get("blobs", digest))
        for digest in sorted(digests)
        if db.engine.get("blobs", digest) is not None
    )
    return CoursePackage(
        script_row=dict(script_row),
        implementation_rows=implementation_rows,
        files=files,
        blob_rows=blob_rows,
        include_blobs=include_blobs,
    )


def install_package(
    db: WebDocumentDatabase, package: CoursePackage
) -> ScriptSCI:
    """Install a package into a (different) station database.

    Refuses, before writing anything, what
    :meth:`~repro.core.wddb.WebDocumentDatabase.check_course` refuses,
    and a full copy the disk has no room for (``DiskFullError``).  Then,
    as one authoring operation, creates the parent document database if
    absent, registers BLOBs (held on the station when the package
    carried them, registry-only references otherwise) and adds the
    script and its implementations.
    """
    script = ScriptSCI.from_row(package.script_row)
    if db.engine.get("scripts", script.script_name) is not None:
        raise ValueError(f"script {script.script_name!r} already installed")

    def documents(descriptors: list[FileDescriptor]) -> list[DocumentFile]:
        return [
            DocumentFile(fd.path, FileKind(package.files[fd.path][0]),
                         package.files[fd.path][1])
            for fd in descriptors
        ]

    implementations = [
        (impl, documents(impl.html_files), documents(impl.program_files))
        for impl in map(ImplementationSCI.from_row, package.implementation_rows)
    ]
    db.check_course(script.script_name, implementations)
    if package.include_blobs:
        ReplicaManager.of(db.station).check_persistent(
            {row["label"]: row["size_bytes"] for row in package.blob_rows}
        )
    with db.authoring():
        if db.engine.get("doc_databases", script.db_name) is None:
            db.create_document_database(
                script.db_name, author=script.author,
                created_at=script.created_at,
            )
        for blob_row in package.blob_rows:
            # A metadata check-out registers the BLOB but keeps it remote.
            if package.include_blobs:
                db.register_blob(
                    blob_row["label"], blob_row["size_bytes"],
                    BlobKind(blob_row["kind"]),
                )
            elif db.engine.get("blobs", blob_row["digest"]) is None:
                db.engine.insert("blobs", {**blob_row, "held": False})
        db.add_script(script)
        for impl, html_files, program_files in implementations:
            db.add_implementation(impl, html_files, program_files)
    return script


class CourseShipper:
    """Serves and installs course packages over the network."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: station -> its WebDocumentDatabase
        self._databases: dict[str, WebDocumentDatabase] = {}
        self.requests_served = 0
        self.packages_installed: list[tuple[str, str]] = []
        #: (station, script name, why) of each package the station
        #: refused, installing none of it
        self.packages_refused: list[tuple[str, str, str]] = []

    def attach(self, db: WebDocumentDatabase) -> None:
        """Serve and receive for ``db`` on its station (this network's)."""
        station = db.station
        if station.network is not self.network:
            raise ValueError(
                f"database station {station.name!r} is not on this network"
            )
        self._databases[station.name] = db
        if not station.handles(REQUEST_KIND):
            station.on(REQUEST_KIND, self._on_request)
            station.on(PACKAGE_KIND, self._on_package)

    def request_course(
        self,
        requester: str,
        owner: str,
        script_name: str,
        *,
        include_blobs: bool = False,
    ) -> None:
        """Ask ``owner`` for a course; installs on arrival."""
        if requester not in self._databases:
            raise LookupError(f"station {requester!r} has no database attached")
        self.network.send(
            requester,
            owner,
            REQUEST_KIND,
            {"script_name": script_name, "include_blobs": include_blobs},
            REQUEST_BYTES,
        )

    def _on_request(self, station: Station, message: Message) -> None:
        db = self._databases.get(station.name)
        if db is None:
            return
        payload = message.payload
        package = package_course(
            db, payload["script_name"],
            include_blobs=payload["include_blobs"],
        )
        self.requests_served += 1
        self.network.send(
            station.name,
            message.src,
            PACKAGE_KIND,
            package,
            package.wire_bytes,
        )

    def _on_package(self, station: Station, message: Message) -> None:
        db = self._databases.get(station.name)
        if db is None:
            return
        package: CoursePackage = message.payload
        script_name = package.script_row["script_name"]
        try:
            install_package(db, package)
        except (ValueError, DiskFullError) as exc:
            # install_package refuses before writing anything; the
            # refusal stays at the station, not in the event loop.
            self.packages_refused.append(
                (station.name, script_name, f"{type(exc).__name__}: {exc}")
            )
            return
        self.packages_installed.append((station.name, script_name))
