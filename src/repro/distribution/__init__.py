"""Course distribution: the paper's §4 mechanisms.

* :mod:`repro.distribution.mtree` — the full m-ary tree placement
  formulas (the paper's two equations) mapping the linear station join
  order onto a breadth-first tree.
* :mod:`repro.distribution.broadcast` — pre-broadcast (push) of lecture
  material down the tree, with optional chunked pipelining.
* :mod:`repro.distribution.ondemand` — on-demand pull along the inverse
  (parent) function: "a child node copies information from its parent".
* :mod:`repro.distribution.watermark` — the retrieval-frequency
  watermark that promotes remote references to local replicas.
* :mod:`repro.distribution.replication` — the three on-station forms
  (class / instance / reference) and the instance→reference migration
  that bounds buffer usage after a lecture ends.
* :mod:`repro.distribution.adaptive` — selection of ``m`` per media type
  from station count and bandwidth ("adaptive to changing network
  conditions").
"""

from repro.distribution.mtree import MAryTree
from repro.distribution.broadcast import BroadcastReport, PreBroadcaster
from repro.distribution.ondemand import FetchReport, OnDemandFetcher
from repro.distribution.watermark import WatermarkPolicy, WatermarkSimulator
from repro.distribution.replication import (
    HoldingForm,
    ReplicaManager,
    StationHolding,
)
from repro.distribution.adaptive import AdaptiveMSelector, predict_makespan
from repro.distribution.vector import (
    BroadcastVector,
    ReferenceBroadcaster,
    VectorEntry,
)
from repro.distribution.syncdb import MetadataReplicator
from repro.distribution.coursepkg import (
    CoursePackage,
    CourseShipper,
    install_package,
    package_course,
)

__all__ = [
    "CoursePackage",
    "CourseShipper",
    "install_package",
    "package_course",
    "MetadataReplicator",
    "BroadcastVector",
    "ReferenceBroadcaster",
    "VectorEntry",
    "MAryTree",
    "BroadcastReport",
    "PreBroadcaster",
    "FetchReport",
    "OnDemandFetcher",
    "WatermarkPolicy",
    "WatermarkSimulator",
    "HoldingForm",
    "ReplicaManager",
    "StationHolding",
    "AdaptiveMSelector",
    "predict_makespan",
]
