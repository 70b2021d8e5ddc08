"""Simulated fault tolerance: ULFM-style recovery + checkpoint/restart.

PR 3 (:mod:`repro.faults`) made components *fail*; this package makes
runs *survive*.  Three cooperating pieces:

* :mod:`repro.recovery.policy` — the frozen configuration:
  :class:`RecoveryPolicy` (shrink-and-continue vs
  restart-from-checkpoint) and :class:`CheckpointSchedule` (executable
  checkpoint intervals derived from PR 3's analytic Young/Daly
  :class:`~repro.faults.checkpoint.CheckpointModel`);
* :mod:`repro.recovery.runtime` — :class:`RecoveryRuntime`, the live
  ULFM semantics: node failures kill rank processes and revoke the
  world communicator (every blocked or subsequent operation raises
  :class:`RankFailedError`); survivors ``agree``/``shrink`` onto a
  deterministic live-rank sub-communicator; checkpoints execute as
  real DES events; the timeline is tiled into clean/lost/rework/
  overhead :class:`Segment` s that sum to the walltime exactly;
* :mod:`repro.recovery.driver` — :func:`run_recovered`, the restart
  loop (fresh cluster per attempt, resumed clock, rewind to the last
  completed checkpoint, bounded by ``max_restarts``).

Runnable demonstration scenarios live in
:mod:`repro.recovery.scenarios` (loaded on first use by
:mod:`repro.obs.scenarios`: that module pulls in :mod:`repro.apps`,
which imports :mod:`repro.simmpi`, which imports this package —
keeping it out of this namespace avoids the cycle, mirroring
:mod:`repro.faults.scenarios`).
"""

from .driver import RecoveryOutcome, run_recovered, run_with_recovery
from .errors import RankFailedError, RestartsExhaustedError
from .policy import CheckpointSchedule, RecoveryPolicy
from .runtime import (
    RANK_FAILED,
    RecoveryRuntime,
    RecoveryTimes,
    Segment,
)

__all__ = [
    "CheckpointSchedule",
    "RANK_FAILED",
    "RankFailedError",
    "RecoveryOutcome",
    "RecoveryPolicy",
    "RecoveryRuntime",
    "RecoveryTimes",
    "RestartsExhaustedError",
    "Segment",
    "run_recovered",
    "run_with_recovery",
]
