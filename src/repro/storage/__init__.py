"""Storage substrate: BLOB store, document files, disk accounting.

The paper's BLOB layer holds "multimedia files in standard formats
(video, audio, still image, animation, and MIDI files)" that are *shared
by instances and classes* within a workstation.  :mod:`repro.storage.blob`
implements that sharing with a content-addressed, reference-counted store
so experiment E4 can measure exactly how much disk the sharing design
saves.  :mod:`repro.storage.files` models the smaller document-layer
files (HTML, program, annotation) that are duplicated rather than shared,
and :mod:`repro.storage.accounting` meters per-station disk usage;
:mod:`repro.storage.holdings` is the one record of what a station holds.
"""

from repro.storage.blob import Blob, BlobKind, BlobStore, MissingBlobError
from repro.storage.files import DocumentFile, FileDescriptor, FileKind, FileStore
from repro.storage.accounting import DiskAccountant, DiskFullError

__all__ = [
    "Blob",
    "BlobKind",
    "BlobStore",
    "MissingBlobError",
    "DocumentFile",
    "FileDescriptor",
    "FileKind",
    "FileStore",
    "DiskAccountant",
    "DiskFullError",
]
