"""Content-addressed, reference-counted BLOB store.

One :class:`BlobStore` lives on each workstation.  BLOBs are addressed
by digest, so storing the same multimedia resource twice costs nothing
— this is the mechanism behind the paper's rule that "BLOB objects in
the same station should be shared as much as possible among different
documents".  Owners (documents, classes, presentations) take references
with :meth:`BlobStore.acquire`; a BLOB's bytes are reclaimed when its
last reference is released.

Two storage modes:

* **real** BLOBs carry actual ``bytes`` (small fixtures in tests);
* **synthetic** BLOBs carry only a size and a deterministic digest —
  the experiments move gigabytes of simulated video without allocating
  it.

The store meters ``physical_bytes`` (what is resident) and
``logical_bytes`` (what residency *would* cost if every reference held a
private copy); their ratio is the sharing factor reported by E4.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.util.validation import check_non_negative

__all__ = ["BlobKind", "Blob", "BlobStore", "MissingBlobError"]


class MissingBlobError(KeyError):
    """A digest was not present in the store."""

    def __init__(self, digest: str) -> None:
        super().__init__(digest)
        self.digest = digest

    def __str__(self) -> str:
        return f"blob {self.digest!r} is not in this store"


class BlobKind(enum.Enum):
    """The multimedia resource types the paper's BLOB layer enumerates."""

    VIDEO = "video"
    AUDIO = "audio"
    IMAGE = "image"
    ANIMATION = "animation"
    MIDI = "midi"
    OTHER = "other"


@dataclass(slots=True)
class Blob:
    """One stored BLOB: identity, type, size and (optionally) bytes."""

    digest: str
    kind: BlobKind
    size: int
    data: bytes | None = None
    owners: set[str] = field(default_factory=set)

    @property
    def refcount(self) -> int:
        return len(self.owners)

    @property
    def is_synthetic(self) -> bool:
        return self.data is None


def digest_bytes(data: bytes) -> str:
    """Content digest for real BLOB data."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def synthetic_digest(label: str, size: int) -> str:
    """Deterministic digest for a synthetic BLOB identified by ``label``.

    The same (label, size) pair always produces the same digest, so two
    documents generated to reuse "lecture3.mpg" genuinely share storage.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(label.encode("utf-8"))
    h.update(b"\x00")
    h.update(str(int(size)).encode("ascii"))
    return h.hexdigest()


class BlobStore:
    """Per-station BLOB storage with refcounted sharing."""

    def __init__(self, station: str = "local") -> None:
        self.station = station
        self._blobs: dict[str, Blob] = {}
        #: bytes a copy-per-reference design would be holding right now
        self.logical_bytes = 0
        self.puts = 0
        self.dedup_hits = 0

    # -- storing -----------------------------------------------------------
    def put(self, data: bytes, kind: BlobKind = BlobKind.OTHER, *, owner: str) -> str:
        """Store real bytes under their content digest; returns the digest."""
        digest = digest_bytes(data)
        return self._put(digest, kind, len(data), data, owner)

    def put_synthetic(
        self, label: str, size: int, kind: BlobKind = BlobKind.OTHER, *, owner: str
    ) -> str:
        """Store a synthetic BLOB (metadata only); returns its digest."""
        check_non_negative(size, "size")
        digest = synthetic_digest(label, size)
        return self._put(digest, kind, int(size), None, owner)

    def _put(
        self, digest: str, kind: BlobKind, size: int, data: bytes | None, owner: str
    ) -> str:
        self.puts += 1
        blob = self._blobs.get(digest)
        if blob is None:
            blob = Blob(digest=digest, kind=kind, size=size, data=data)
            self._blobs[digest] = blob
        else:
            self.dedup_hits += 1
        if owner not in blob.owners:
            blob.owners.add(owner)
            self.logical_bytes += blob.size
        return digest

    # -- reference management --------------------------------------------------
    def acquire(self, digest: str, owner: str) -> None:
        """Add ``owner``'s reference to an existing BLOB."""
        blob = self._require(digest)
        if owner not in blob.owners:
            blob.owners.add(owner)
            self.logical_bytes += blob.size

    def release(self, digest: str, owner: str) -> bool:
        """Drop ``owner``'s reference; frees the BLOB when it was the last.

        Returns True when the BLOB's bytes were reclaimed.
        """
        blob = self._require(digest)
        if owner in blob.owners:
            blob.owners.discard(owner)
            self.logical_bytes -= blob.size
        if not blob.owners:
            del self._blobs[digest]
            return True
        return False

    def release_owner(self, owner: str) -> int:
        """Drop every reference held by ``owner``; returns bytes reclaimed."""
        reclaimed = 0
        for digest in [d for d, b in self._blobs.items() if owner in b.owners]:
            size = self._blobs[digest].size
            if self.release(digest, owner):
                reclaimed += size
        return reclaimed

    # -- lookup ------------------------------------------------------------
    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)

    def get(self, digest: str) -> Blob:
        return self._require(digest)

    def blobs(self) -> Iterator[Blob]:
        return iter(self._blobs.values())

    def owners_of(self, digest: str) -> frozenset[str]:
        return frozenset(self._require(digest).owners)

    # -- metering ---------------------------------------------------------
    @property
    def physical_bytes(self) -> int:
        """Bytes actually resident (each BLOB counted once)."""
        return sum(blob.size for blob in self._blobs.values())

    @property
    def sharing_factor(self) -> float:
        """logical / physical bytes; 1.0 means no sharing benefit."""
        physical = self.physical_bytes
        if physical == 0:
            return 1.0
        return self.logical_bytes / physical

    def stats(self) -> dict[str, float | int | str]:
        return {
            "station": self.station,
            "blobs": len(self._blobs),
            "physical_bytes": self.physical_bytes,
            "logical_bytes": self.logical_bytes,
            "sharing_factor": self.sharing_factor,
            "puts": self.puts,
            "dedup_hits": self.dedup_hits,
        }

    def _require(self, digest: str) -> Blob:
        try:
            return self._blobs[digest]
        except KeyError:
            raise MissingBlobError(digest) from None
