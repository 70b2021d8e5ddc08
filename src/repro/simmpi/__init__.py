"""Simulated MPI over the discrete-event engine, plus the analytic twin.

Two levels of fidelity share one set of machine parameters:

* :class:`Cluster` / :class:`RankComm` — message-level simulation with
  link contention (run real communication schedules);
* :class:`CostModel` — closed-form LogGP-style estimates (drive the
  paper-scale sweeps).
"""

from .comm import ANY_SOURCE, ANY_TAG, Cluster, ClusterResult, RankComm
from .cost import CostModel
from .datatypes import bytes_of, DTYPE_SIZES, FLOAT32, FLOAT64, INT32, INT64
from .p2p import Message, ReliabilityPolicy, Transport
from .reqs import Request
from .subcomm import split_by, SubComm

__all__ = [
    "Cluster",
    "RankComm",
    "ClusterResult",
    "ANY_SOURCE",
    "ANY_TAG",
    "CostModel",
    "Message",
    "ReliabilityPolicy",
    "Transport",
    "Request",
    "DTYPE_SIZES",
    "bytes_of",
    "FLOAT32",
    "FLOAT64",
    "INT32",
    "INT64",
    "SubComm",
    "split_by",
]
