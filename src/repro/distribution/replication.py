"""Per-station holdings and the instance → reference migration.

The paper stores a Web document at a physical location "in one of the
following three forms: Web Document class, Web Document instance, Web
Document reference to instance", and bounds disk abuse by making
duplicated instances temporary: "After a lecture is presented,
duplicated document instances migrate to document references.
Essentially, buffer spaces are used only.  However, the instructor
workstation has document instances and classes as persistence objects."

:class:`ReplicaManager` tracks one station's holdings by form, charges
the station's :class:`~repro.storage.accounting.DiskAccountant`
(``persistent`` vs ``buffer`` categories), schedules migrations a
lecture-duration after each presentation, and maintains the broadcast
vector of references ("References to the instance are broadcasted and
stored in many remote stations").

Not to be confused with the repo's other replication layer: this
module replicates *course-document BLOBs* onto stations;
:mod:`repro.replication` replicates a *relational database* by WAL
shipping — to a class administrator's read replicas and failover
candidates, and (:mod:`repro.distribution.syncdb`, the same stream down
the member tree) to every station's copy of the document-layer
metadata.  See DESIGN.md §11.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.net.sim import Simulator
from repro.net.station import Station
from repro.storage.blob import BlobKind
from repro.util.validation import check_non_negative, check_positive

__all__ = ["HoldingForm", "StationHolding", "ReplicaManager"]


class HoldingForm(enum.Enum):
    """The three on-station forms of a Web document."""

    CLASS = "class"  # reusable template; holds the physical BLOBs
    INSTANCE = "instance"  # physical element of a Web document
    REFERENCE = "reference"  # mirror pointer to a remote instance


@dataclass(slots=True)
class StationHolding:
    """One document's presence on one station."""

    doc_id: str
    form: HoldingForm
    size_bytes: int
    persistent: bool
    #: where the instance lives, for references
    instance_station: str | None = None
    #: simulation time after which a buffered instance migrates
    expires_at: float | None = None
    #: digest of the BLOB backing this holding (None for references)
    digest: str | None = None

    @property
    def resident_bytes(self) -> int:
        """Disk the holding occupies (references are negligible)."""
        if self.form is HoldingForm.REFERENCE:
            return 0
        return self.size_bytes


class ReplicaManager:
    """Manages one station's document holdings and their lifecycle."""

    #: disk category for persistent class/instance objects
    PERSISTENT = "persistent"
    #: disk category for lecture-duration duplicates
    BUFFER = "buffer"

    def __init__(self, station: Station, sim: Simulator) -> None:
        self.station = station
        self.sim = sim
        self._holdings: dict[str, StationHolding] = {}
        self.migrations = 0

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def hold_persistent(
        self,
        doc_id: str,
        size_bytes: int,
        form: HoldingForm = HoldingForm.INSTANCE,
        kind: BlobKind = BlobKind.OTHER,
    ) -> StationHolding:
        """Install a persistent class or instance (instructor station)."""
        if form is HoldingForm.REFERENCE:
            raise ValueError("a reference cannot be persistent data")
        check_positive(size_bytes, "size_bytes")
        holding = StationHolding(
            doc_id=doc_id, form=form, size_bytes=size_bytes, persistent=True
        )
        self._install(holding, kind, self.PERSISTENT)
        return holding

    def hold_buffered(
        self,
        doc_id: str,
        size_bytes: int,
        *,
        lifetime_s: float,
        instance_station: str,
        kind: BlobKind = BlobKind.OTHER,
    ) -> StationHolding:
        """Install a duplicated instance that expires after ``lifetime_s``.

        The expiry is scheduled on the simulator; when it fires the
        instance migrates to a reference and its bytes are reclaimed.
        """
        check_positive(size_bytes, "size_bytes")
        check_non_negative(lifetime_s, "lifetime_s")
        holding = StationHolding(
            doc_id=doc_id,
            form=HoldingForm.INSTANCE,
            size_bytes=size_bytes,
            persistent=False,
            instance_station=instance_station,
            expires_at=self.sim.now + lifetime_s,
        )
        self._install(holding, kind, self.BUFFER)
        self.sim.schedule(lifetime_s, self._maybe_migrate, doc_id, holding.expires_at)
        return holding

    def hold_reference(self, doc_id: str, instance_station: str) -> StationHolding:
        """Record a broadcast reference (mirror pointer) to a remote
        instance; costs no disk."""
        holding = StationHolding(
            doc_id=doc_id,
            form=HoldingForm.REFERENCE,
            size_bytes=0,
            persistent=False,
            instance_station=instance_station,
        )
        self._holdings[doc_id] = holding
        return holding

    def adopt_broadcast(
        self,
        lecture_id: str,
        size_bytes: int,
        *,
        instance_station: str,
        lifetime_s: float | None = None,
        persistent: bool = False,
        doc_id: str | None = None,
    ) -> StationHolding:
        """Take over a lecture the pre-broadcaster already stored here.

        The BLOB is resident and the disk bytes are charged to
        ``buffer`` by :class:`~repro.distribution.broadcast.PreBroadcaster`;
        this transfers ownership to the replica manager without double
        counting.  ``persistent=True`` (the instructor station) moves
        the bytes to the ``persistent`` category; otherwise
        ``lifetime_s`` schedules the usual migration.
        """
        from repro.storage.blob import synthetic_digest

        doc_id = doc_id if doc_id is not None else lecture_id
        digest = synthetic_digest(lecture_id, size_bytes)
        owner_tag = f"replica:{doc_id}"
        self.station.blobs.acquire(digest, owner_tag)
        self.station.blobs.release(digest, f"lecture:{lecture_id}")
        if persistent:
            self.station.disk.transfer(size_bytes, self.BUFFER, self.PERSISTENT)
            holding = StationHolding(
                doc_id=doc_id,
                form=HoldingForm.INSTANCE,
                size_bytes=size_bytes,
                persistent=True,
                digest=digest,
            )
            self._holdings[doc_id] = holding
            return holding
        if lifetime_s is None:
            raise ValueError("non-persistent adoption needs lifetime_s")
        check_non_negative(lifetime_s, "lifetime_s")
        holding = StationHolding(
            doc_id=doc_id,
            form=HoldingForm.INSTANCE,
            size_bytes=size_bytes,
            persistent=False,
            instance_station=instance_station,
            expires_at=self.sim.now + lifetime_s,
            digest=digest,
        )
        self._holdings[doc_id] = holding
        self.sim.schedule(
            lifetime_s, self._maybe_migrate, doc_id, holding.expires_at
        )
        return holding

    def _install(
        self, holding: StationHolding, kind: BlobKind, category: str
    ) -> None:
        existing = self._holdings.get(holding.doc_id)
        if existing is not None and existing.resident_bytes:
            raise ValueError(
                f"station {self.station.name!r} already holds "
                f"{holding.doc_id!r} as {existing.form.value}"
            )
        self._holdings[holding.doc_id] = holding
        holding.digest = self.station.blobs.put_synthetic(
            holding.doc_id,
            holding.size_bytes,
            kind,
            owner=f"replica:{holding.doc_id}",
        )
        self.station.disk.allocate(holding.size_bytes, category=category)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def touch(self, doc_id: str, extend_s: float) -> None:
        """A replay of ``doc_id`` extends its buffered lifetime."""
        holding = self._holdings.get(doc_id)
        if holding is None or holding.persistent:
            return
        if holding.form is HoldingForm.INSTANCE:
            holding.expires_at = self.sim.now + extend_s
            self.sim.schedule(extend_s, self._maybe_migrate, doc_id, holding.expires_at)

    def _maybe_migrate(self, doc_id: str, expected_expiry: float) -> None:
        holding = self._holdings.get(doc_id)
        if (
            holding is None
            or holding.persistent
            or holding.form is not HoldingForm.INSTANCE
            or holding.expires_at != expected_expiry  # was extended
        ):
            return
        self.migrate_to_reference(doc_id)

    def migrate_to_reference(self, doc_id: str) -> StationHolding:
        """Demote a buffered instance to a reference, reclaiming bytes."""
        holding = self._holdings[doc_id]
        if holding.persistent:
            raise ValueError(
                f"persistent holding {doc_id!r} does not migrate"
            )
        if holding.form is not HoldingForm.INSTANCE:
            return holding
        assert holding.digest is not None
        self.station.blobs.release(holding.digest, f"replica:{doc_id}")
        self.station.disk.free(holding.size_bytes, category=self.BUFFER)
        reference = StationHolding(
            doc_id=doc_id,
            form=HoldingForm.REFERENCE,
            size_bytes=holding.size_bytes,
            persistent=False,
            instance_station=holding.instance_station,
        )
        self._holdings[doc_id] = reference
        self.migrations += 1
        return reference

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def holding(self, doc_id: str) -> StationHolding | None:
        return self._holdings.get(doc_id)

    def form_of(self, doc_id: str) -> HoldingForm | None:
        holding = self._holdings.get(doc_id)
        return None if holding is None else holding.form

    def holdings(self) -> list[StationHolding]:
        return list(self._holdings.values())

    @property
    def resident_bytes(self) -> int:
        return sum(h.resident_bytes for h in self._holdings.values())

    @property
    def buffer_bytes(self) -> int:
        return self.station.disk.used_in(self.BUFFER)

    @property
    def persistent_bytes(self) -> int:
        return self.station.disk.used_in(self.PERSISTENT)
