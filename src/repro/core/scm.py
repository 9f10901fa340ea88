"""Software-configuration management for course components.

The paper (§1): "A software configuration management system allows
checking in/out of course components and maintain versions of a
course."  A component is a registered HTML or program file of a
station's document database, and its version chain is rows of the
``versions`` table, keyed by (path, version).
:class:`ConfigurationManager` keeps an exclusive check-out protocol
over the station's :class:`~repro.core.locking.LockManager`: a
check-out takes a WRITE lock on the file's own ``file:<path>`` node (so
the compatibility table governs who may work concurrently), and a
check-in writes the new content, the registry row's size and checksum
and the new version row in one transaction, then releases the lock.

Version 1 of a file is the file as it stands until its first check-in,
which writes it down beside version 2.  Who has a component checked out
is session state kept beside the locks; it is not journaled.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import asdict, dataclass

from repro.core.locking import LockManager, LockMode
from repro.rdb import Database, col
from repro.storage.files import DocumentFile, FileKind

__all__ = ["CheckoutError", "VersionRecord", "ConfigurationManager"]

#: The registries whose files are components (their ``file:`` nodes).
_COMPONENT_TABLES = ("html_files", "program_files")


class CheckoutError(RuntimeError):
    """Check-in/out protocol violation (not checked out, wrong user, ...)."""


@dataclass(frozen=True, slots=True)
class VersionRecord:
    """One immutable version of a component (a ``versions`` row)."""

    path: str
    version: int
    author: str
    content: str
    comment: str
    created_at: _dt.datetime


class ConfigurationManager:
    """Version chains + exclusive check-out over a station's files."""

    def __init__(self, engine: Database, locks: LockManager) -> None:
        self.engine = engine
        self.locks = locks
        #: path -> the user who has it checked out
        self._checked_out: dict[str, str] = {}
        self.checkouts = 0
        self.checkins = 0

    # ------------------------------------------------------------------
    def check_out(self, user: str, path: str) -> str:
        """Take the component for editing; returns a working copy.

        Raises :class:`LookupError` for a path that is no registered
        HTML or program file, :class:`LockConflictError` if the
        compatibility table denies the WRITE lock, and
        :class:`CheckoutError` on double check-out.
        """
        self._registry(path)
        holder = self._checked_out.get(path)
        if holder is not None:
            raise CheckoutError(
                f"component {path!r} is already checked out by {holder}"
            )
        self.locks.acquire(user, f"file:{path}", LockMode.WRITE)
        self._checked_out[path] = user
        self.checkouts += 1
        return self.latest(path).content

    def check_in(
        self,
        user: str,
        path: str,
        new_content: str,
        comment: str = "",
        *,
        created_at: _dt.datetime | None = None,
    ) -> VersionRecord:
        """Commit a new version and release the exclusive lock."""
        self._require_holder(user, path)
        registry = self._registry(path)
        history = self.history(path)
        latest = history[-1]
        record = VersionRecord(
            path=path,
            version=latest.version + 1,
            author=user,
            content=new_content,
            comment=comment,
            created_at=created_at or latest.created_at,
        )
        kind = FileKind(self.engine.get("files", path)["kind"])
        document = DocumentFile(path, kind, new_content)
        with self.engine.transaction():
            if len(history) == 1:  # the first check-in writes version 1
                self.engine.insert("versions", asdict(latest))
            self.engine.update_pk("files", path, {"content": new_content})
            self.engine.update_pk(registry, path, {
                "size_bytes": document.size, "checksum": document.checksum,
            })
            self.engine.insert("versions", asdict(record))
        self._release(user, path)
        self.checkins += 1
        return record

    def cancel_checkout(self, user: str, path: str) -> None:
        """Abandon a check-out without creating a version."""
        self._require_holder(user, path)
        self._release(user, path)

    # ------------------------------------------------------------------
    def latest(self, path: str) -> VersionRecord:
        return self.history(path)[-1]

    def version(self, path: str, version: int) -> VersionRecord:
        for record in self.history(path):
            if record.version == version:
                return record
        raise LookupError(f"component {path!r} has no version {version}")

    def history(self, path: str) -> list[VersionRecord]:
        rows = self.engine.select(
            "versions", where=col("path") == path, order_by="version"
        )
        if rows:
            return [VersionRecord(**row) for row in rows]
        registry = self._registry(path)
        implementation = self.engine.get(
            "implementations", self.engine.get(registry, path)["starting_url"]
        )
        return [VersionRecord(
            path=path,
            version=1,
            author=implementation["author"],
            content=self.engine.get("files", path)["content"],
            comment="initial version",
            created_at=implementation["created_at"],
        )]

    def is_checked_out(self, path: str) -> bool:
        return path in self._checked_out

    def checked_out_by(self, path: str) -> str | None:
        return self._checked_out.get(path)

    def components(self) -> list[str]:
        """Paths of the registered HTML and program files."""
        return sorted(
            row["path"]
            for table in _COMPONENT_TABLES
            for row in self.engine.select(table)
        )

    # ------------------------------------------------------------------
    def _registry(self, path: str) -> str:
        """The registry naming ``path``'s file to an implementation; a
        path that is no such file is unknown."""
        if self.engine.exists("files", path):
            for table in _COMPONENT_TABLES:
                if self.engine.exists(table, path):
                    return table
        raise LookupError(f"unknown component {path!r}")

    def _require_holder(self, user: str, path: str) -> None:
        holder = self._checked_out.get(path)
        if holder != user:
            raise CheckoutError(
                f"component {path!r} is not checked out by {user}"
                + (f" (held by {holder})" if holder else "")
            )

    def _release(self, user: str, path: str) -> None:
        del self._checked_out[path]
        self.locks.release(user, f"file:{path}")
