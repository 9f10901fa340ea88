"""Request/response wire objects of the three-tier protocol.

Clients speak to the class administrator exclusively through
:class:`Request` / :class:`Response` — never by touching the DBMS —
which is what makes the middle tier a real tier.  ``Request.op`` names
an operation from :data:`OPERATIONS`; the server validates the op, the
session and the caller's role before dispatch.

Protocol version 2 adds overload-robustness fields: every request may
carry an absolute ``deadline`` (on the caller's clock), a scheduling
``priority`` and a quota ``tenant``; every response may carry a
``retry_after_s`` backoff hint (set when ``shed`` — the server refused
to start the work) and a ``degraded`` marker naming the fallback that
served it (e.g. ``"stale-cache"``).  All six are optional with v1
defaults, so a request that sets none of them is served exactly as a
v1 request was.  The simulated wire carries the objects themselves;
:attr:`Request.wire_size` is the only encoding fact it charges.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, NamedTuple

from repro.admission.controller import PRIORITY_BULK, PRIORITY_INTERACTIVE

__all__ = [
    "Role",
    "Request",
    "Response",
    "OPERATIONS",
    "REPLICA_SAFE_OPS",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_BULK",
]


class Role(enum.Enum):
    """The paper's three user perspectives."""

    STUDENT = "student"
    INSTRUCTOR = "instructor"
    ADMINISTRATOR = "administrator"


#: op name -> roles allowed to invoke it
OPERATIONS: dict[str, frozenset[Role]] = {
    # session
    "login": frozenset(Role),
    "logout": frozenset(Role),
    # administration ("admission records, transcripts, and so on")
    "admit_student": frozenset({Role.ADMINISTRATOR}),
    "register_course": frozenset({Role.ADMINISTRATOR, Role.INSTRUCTOR}),
    "enroll": frozenset({Role.ADMINISTRATOR, Role.STUDENT}),
    "record_grade": frozenset({Role.INSTRUCTOR, Role.ADMINISTRATOR}),
    "transcript": frozenset(Role),  # students may check their own
    "register_station": frozenset(Role),
    "roster": frozenset({Role.INSTRUCTOR, Role.ADMINISTRATOR}),
    # course authoring (instructor tools)
    "publish_course_document": frozenset({Role.INSTRUCTOR}),
    "withdraw_course_document": frozenset({Role.INSTRUCTOR}),
    # virtual library (student tools)
    "search_library": frozenset(Role),
    "check_out": frozenset({Role.STUDENT}),
    "check_in": frozenset({Role.STUDENT}),
    "assessment_report": frozenset({Role.INSTRUCTOR, Role.ADMINISTRATOR}),
}

#: Operations a read-only replica may serve.  Everything here reads
#: only state that WAL-shipping replication carries to followers — the
#: administration tables plus the catalog-backed library search index.
#: Circulation (check_out/check_in) and assessment read loan state that
#: lives only on the primary, so they are deliberately absent.
REPLICA_SAFE_OPS: frozenset[str] = frozenset({
    "search_library",
    "transcript",
    "roster",
})

_request_ids = itertools.count(1)


class _RequestFields(NamedTuple):
    op: str
    session_id: str | None
    params: dict[str, Any]
    request_id: int
    #: absolute deadline on the caller's clock; None = v1 (unbounded)
    deadline: float | None = None
    #: admission priority; None defaults to interactive at the server
    priority: str | None = None
    #: quota tenant (course/department); None -> the shared default
    tenant: str | None = None


_new_request = _RequestFields.__new__


class Request(_RequestFields):
    """One client -> middle-tier call: an immutable tuple-backed record.

    Omitted ``params`` is a fresh empty dict and an omitted
    ``request_id`` the next of one process-wide sequence.  A field added
    to :class:`_RequestFields` with a default needs nothing here: it
    rides ``**more``.
    """

    __slots__ = ()

    def __new__(
        cls,
        op: str,
        session_id: str | None,
        params: dict[str, Any] | None = None,
        request_id: int | None = None,
        deadline: float | None = None,
        priority: str | None = None,
        tenant: str | None = None,
        **more: Any,
    ) -> "Request":
        return _new_request(
            cls, op, session_id, {} if params is None else params,
            next(_request_ids) if request_id is None else request_id,
            deadline, priority, tenant, **more,
        )

    @property
    def wire_size(self) -> int:
        """Approximate bytes on the wire (for network-mode simulations)."""
        size = 64
        for key, value in self.params.items():
            size += len(key) if type(key) is str else len(str(key))
            size += len(value) if type(value) is str else len(str(value))
        return size


class Response(NamedTuple):
    """One middle-tier -> client reply: an immutable tuple-backed record."""

    request_id: int
    ok: bool
    data: Any = None
    error: str | None = None
    #: True when the server refused to *start* the work (admission shed,
    #: breaker open, deadline expired) — retryable after backoff, unlike
    #: a failure that ran
    shed: bool = False
    #: suggested client backoff, seconds (the RETRY_AFTER hint)
    retry_after_s: float | None = None
    #: fallback that served this reply (``"stale-cache"``,
    #: ``"lagged-replica"``, ``"primary-fallback"``), None when fresh
    degraded: str | None = None

    @classmethod
    def success(
        cls, request: Request, data: Any = None, *, degraded: str | None = None
    ) -> "Response":
        return cls(request.request_id, True, data, degraded=degraded)

    @classmethod
    def failure(cls, request: Request, error: str) -> "Response":
        return cls(request.request_id, False, error=error)

    @classmethod
    def overload(
        cls,
        request: Request,
        error: str,
        *,
        retry_after_s: float | None = None,
    ) -> "Response":
        """A shed reply: no work started, retry after ``retry_after_s``."""
        return cls(
            request.request_id, False, error=error, shed=True,
            retry_after_s=retry_after_s,
        )

    def unwrap(self) -> Any:
        """Data on success; raises on failure (client convenience)."""
        if not self.ok:
            raise RuntimeError(f"request failed: {self.error}")
        return self.data
