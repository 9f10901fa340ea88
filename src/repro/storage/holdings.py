"""Per-station holdings and the instance → reference migration.

The paper stores a Web document at a physical location "in one of the
following three forms: Web Document class, Web Document instance, Web
Document reference to instance", and bounds disk abuse by making
duplicated instances temporary: "After a lecture is presented,
duplicated document instances migrate to document references.
Essentially, buffer spaces are used only.  However, the instructor
workstation has document instances and classes as persistence objects."
A station's classes and the instances duplicated from them are its
document rows (:meth:`repro.core.WebDocumentDatabase.duplicate_course`);
the BLOBs they name, and what is broadcast, are held here as an
instance or a reference.

:class:`ReplicaManager` is a station's one record of what it holds, by
form.  It is the only code that puts a document BLOB in the station's
one :class:`~repro.storage.blob.BlobStore`, charges, frees or moves its
one :class:`~repro.storage.accounting.DiskAccountant` (``persistent``
vs ``buffer`` categories), or records a reference ("References to the
instance are broadcasted and stored in many remote stations"); it
migrates a buffered instance to a reference when its lifetime ends.

Every mechanism reaches a station's one manager through
:meth:`ReplicaManager.of` and asks it :meth:`~ReplicaManager.holds`.
The document database holds its BLOBs persistently, so a full course
check-out is bounded by the disk.  Pre-broadcast buffers each
completed lecture (a full disk keeps a reference to the tree root);
on-demand fetch seeds persistent instances and buffers what flows
down; watermark duplication holds the owner's documents persistently,
buffers its copies and migrates them on reset; reference announcements
record references, which never replace an instance.

Not to be confused with the repo's other replication layer: this
module replicates *course-document BLOBs* onto stations;
:mod:`repro.replication` ships a *relational database's* WAL to read
replicas and (:mod:`repro.distribution.syncdb`) down the member tree.
See DESIGN.md §11.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.storage.accounting import DiskFullError
from repro.storage.blob import BlobKind
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.net.station import Station

__all__ = ["HoldingForm", "StationHolding", "ReplicaManager"]

_STATE_KEY = "replicas"


class HoldingForm(enum.Enum):
    """The forms in which a station holds a broadcast Web document."""

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

    #: disk category for persistent instances
    PERSISTENT = "persistent"
    #: disk category for lecture-duration duplicates
    BUFFER = "buffer"

    def __init__(self, station: Station) -> None:
        if _STATE_KEY in station.state:
            raise ValueError(
                f"station {station.name!r} already has a replica manager"
            )
        station.state[_STATE_KEY] = self
        # The station keeps its manager, and the manager reaches the
        # station weakly: the two form no reference cycle.
        self._station = weakref.ref(station)
        self._holdings: dict[str, StationHolding] = {}
        self.migrations = 0

    @property
    def station(self) -> Station:
        station = self._station()
        if station is None:
            raise RuntimeError("the station of this manager was dropped")
        return station

    @classmethod
    def of(cls, station: Station) -> ReplicaManager:
        """The station's one manager, made on first use."""
        manager = station.state.get(_STATE_KEY)
        return cls(station) if manager is None else manager

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def hold_persistent(
        self,
        doc_id: str,
        size_bytes: int,
        kind: BlobKind = BlobKind.OTHER,
    ) -> StationHolding:
        """Install a persistent instance (instructor station).

        Idempotent: a persistent holding is returned as it is, and a
        buffered instance becomes persistent in place.
        """
        check_positive(size_bytes, "size_bytes")
        holding = self._held(doc_id, size_bytes)
        if holding is None:
            return self._install(doc_id, size_bytes, kind, self.PERSISTENT)
        if not holding.persistent:
            self.station.disk.transfer(
                holding.size_bytes, self.BUFFER, self.PERSISTENT
            )
            holding.persistent = True
            holding.expires_at = holding.instance_station = None
        return holding

    def check_persistent(self, sizes: dict[str, int]) -> None:
        """Raise what :meth:`hold_persistent` of each ``doc_id: size``
        would (a size that is not positive or not the instance's held,
        no disk room for the ones not held), holding nothing."""
        for size in sizes.values():
            check_positive(size, "size_bytes")
        needed = sum(
            size for doc_id, size in sizes.items()
            if self._held(doc_id, size) is None
        )
        available = self.station.disk.available_bytes
        if available is not None and needed > available:
            raise DiskFullError(self.station.name, needed, available)

    def hold_buffered(
        self,
        doc_id: str,
        size_bytes: int,
        *,
        instance_station: str,
        kind: BlobKind = BlobKind.OTHER,
    ) -> StationHolding:
        """Install a duplicate of the instance at ``instance_station``.

        A station that already holds an instance keeps it unchanged; one
        whose disk is full "only keeps a document reference".  The
        duplicate never expires until :meth:`touch` gives it a lifetime.
        """
        check_positive(size_bytes, "size_bytes")
        holding = self._held(doc_id, size_bytes)
        if holding is not None:
            return holding
        try:
            holding = self._install(doc_id, size_bytes, kind, self.BUFFER)
        except DiskFullError:
            return self.hold_reference(doc_id, instance_station)
        holding.instance_station = instance_station
        return holding

    def hold_reference(self, doc_id: str, instance_station: str) -> StationHolding:
        """Record a broadcast reference (mirror pointer) to a remote
        instance; costs no disk, and never replaces an instance held."""
        if self.holds(doc_id):
            return self._holdings[doc_id]
        holding = StationHolding(
            doc_id=doc_id,
            form=HoldingForm.REFERENCE,
            size_bytes=0,
            persistent=False,
            instance_station=instance_station,
        )
        self._holdings[doc_id] = holding
        return holding

    def _held(self, doc_id: str, size_bytes: int) -> StationHolding | None:
        """The instance of ``doc_id`` the station holds, if any; a request
        that disagrees with it on size is refused."""
        if not self.holds(doc_id):
            return None
        holding = self._holdings[doc_id]
        if holding.size_bytes != size_bytes:
            raise ValueError(
                f"station {self.station.name!r} already holds {doc_id!r} "
                f"as a {holding.size_bytes}-byte instance"
            )
        return holding

    def _install(
        self,
        doc_id: str,
        size_bytes: int,
        kind: BlobKind,
        category: str,
    ) -> StationHolding:
        self.station.disk.allocate(size_bytes, category=category)
        holding = StationHolding(
            doc_id=doc_id,
            form=HoldingForm.INSTANCE,
            size_bytes=size_bytes,
            persistent=category == self.PERSISTENT,
            digest=self.station.blobs.put_synthetic(
                doc_id, size_bytes, kind, owner=f"replica:{doc_id}"
            ),
        )
        self._holdings[doc_id] = holding
        return holding

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def touch(self, doc_id: str, extend_s: float) -> None:
        """Expire a buffered instance ``extend_s`` from now (a replay of
        ``doc_id`` extends its lifetime) on the station's network's
        clock; a station on no network raises ``RuntimeError``."""
        holding = self._holdings.get(doc_id)
        if holding is None or holding.persistent:
            return
        if holding.form is HoldingForm.INSTANCE:
            network = self.station.network
            if network is None:
                raise RuntimeError(
                    f"station {self.station.name!r} is not attached to a "
                    "network"
                )
            sim = network.sim
            holding.expires_at = sim.now + extend_s
            sim.schedule(extend_s, self._maybe_migrate, doc_id, holding.expires_at)

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
    def holds(self, doc_id: str) -> bool:
        """True when the station has ``doc_id``'s physical data."""
        holding = self._holdings.get(doc_id)
        return holding is not None and holding.form is not HoldingForm.REFERENCE

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
