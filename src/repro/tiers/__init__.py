"""The three-tier architecture (paper §1 and abstract).

"The system is implemented as a three-tier architecture": Web-browser
clients, the **class administrator** middle tier ("performs book
keeping of course registration and network information, which serves as
the front end of the virtual course DBMS"), and the DBMS reached
"using JDBC (or ODBC) as the open database connection".

* :mod:`repro.tiers.protocol` — the request/response wire objects.
* :mod:`repro.tiers.connection` — the ODBC-style connection adapter
  over :mod:`repro.rdb`.
* :mod:`repro.tiers.cache` — the version-stamped result store the
  class administrator puts in front of the DBMS (its stored
  transcript and roster replies, read-through selects, and the
  last-known-good ledger it degrades to under overload).
* :mod:`repro.tiers.server` — the class administrator: sessions, roles,
  admission records, registrations, transcripts, network bookkeeping,
  and routing into the Web document DB and the virtual library.
* :mod:`repro.tiers.client` — typed student / instructor /
  administrator clients.
* :mod:`repro.tiers.replicaset` — read routing across a primary and
  the members of its replication tree
  (:mod:`repro.distribution.syncdb`).
* :mod:`repro.tiers.shards` — the shard-aware coordinator: shard-key
  routing, two-phase commit for cross-shard writes
  (:mod:`repro.sharding`), scatter-gather reads with EXPLAIN fan-out.
"""

from repro.tiers.protocol import REPLICA_SAFE_OPS, Request, Response, Role
from repro.tiers.cache import QueryCache, TableVersions
from repro.tiers.connection import OpenDatabaseConnection
from repro.tiers.server import ClassAdministrator
from repro.tiers.client import AdministratorClient, InstructorClient, StudentClient
from repro.tiers.remote import RemoteTierClient, RemoteTierServer
from repro.tiers.replicaset import ReplicaSet
from repro.tiers.shards import ShardedDatabase

__all__ = [
    "REPLICA_SAFE_OPS",
    "ShardedDatabase",
    "RemoteTierClient",
    "RemoteTierServer",
    "ReplicaSet",
    "Request",
    "Response",
    "Role",
    "QueryCache",
    "TableVersions",
    "OpenDatabaseConnection",
    "ClassAdministrator",
    "AdministratorClient",
    "InstructorClient",
    "StudentClient",
]
