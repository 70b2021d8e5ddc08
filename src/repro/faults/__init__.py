"""Deterministic fault injection and resilience modeling.

The paper's Table 1 machines are big enough that component failure is a
first-class design constraint; this package lets every layer of the
simulator feel it:

* :mod:`repro.faults.plan` — immutable, seed-reproducible schedules of
  link/node failures, bandwidth deratings and message-drop windows;
* :mod:`repro.faults.injector` — applies a plan to a running cluster as
  DES events, answers the transport's "did this message survive?"
  queries, and counts drops/retries/reroutes;
* :mod:`repro.faults.errors` — :class:`FaultError`, raised in a sender
  when the MPI reliability protocol gives up (distinguishable from an
  application deadlock by the sanitizer);
* :mod:`repro.faults.checkpoint` — Young/Daly checkpoint/restart
  economics built on the machine MTBFs and the I/O subsystem model.

Ready-made demonstration scenarios live in
:mod:`repro.faults.scenarios` (loaded on first use by
:mod:`repro.obs.scenarios`: that module pulls in :mod:`repro.simmpi`,
which itself imports this package, so it must stay out of this
namespace to avoid an import cycle).
"""

from .checkpoint import CheckpointModel
from .errors import FaultError
from .injector import FaultInjector, FaultStats
from .plan import (
    FaultEvent,
    FaultPlan,
    LinkDegrade,
    LinkDrop,
    LinkFail,
    NodeFail,
)

__all__ = [
    "CheckpointModel",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "LinkDegrade",
    "LinkDrop",
    "LinkFail",
    "NodeFail",
]
