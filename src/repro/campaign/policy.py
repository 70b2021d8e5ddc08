"""The shared failure policy: one retry brain for batch and service.

:class:`~repro.campaign.runner.CampaignRunner` (batch mode) and
:class:`repro.serve.server.CampaignServer` (service mode) face the same
question after every failed execution attempt: retry with backoff,
quarantine as poison, degrade to fallback params, or record the failure
as final.  The answer must not depend on *which* dispatcher asked — a
job that would be quarantined by ``repro campaign run`` must be
quarantined by the campaign server too, or the chaos drills prove two
different systems.  :class:`FailurePolicy` is that single answer: a
frozen, picklable value object whose :meth:`decide` is a pure function
of the failure classification and the job's bookkeeping, and whose
:meth:`delay` is the seeded backoff both dispatchers record.  The
other pieces both front doors share are the
:class:`~repro.campaign.ledger.Ledger` (every durable write) and the
:class:`~repro.campaign.pool.PoolSupervisor` (worker deaths, hangs and
pool rebuilds); the policy only decides, and each front door enacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .retry import backoff_delay
from .worker import RETRYABLE

__all__ = ["ACTIONS", "FailurePolicy"]

#: Everything :meth:`FailurePolicy.decide` can return.
ACTIONS = ("retry", "quarantine", "degrade", "final")


@dataclass(frozen=True)
class FailurePolicy:
    """How many chances a job gets, and how long it waits between them.

    ``retries`` extra attempts for retryable classifications,
    ``backoff_base``/``backoff_cap`` for the seeded exponential delay,
    ``quarantine_after`` worker kills before a job is poison, and
    ``seed`` for the deterministic jitter.  Both front doors expose
    ``retries``, ``backoff_base`` and ``quarantine_after``; the cap and
    the seed keep their defaults.
    """

    retries: int = 1
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    quarantine_after: int = 2
    seed: int = 0

    def validate(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")

    def decide(
        self,
        classification: str,
        attempts: int,
        kills: int = 0,
        has_fallback: bool = False,
    ) -> str:
        """The action for one failed execution, one of :data:`ACTIONS`.

        ``attempts`` counts *completed* executions including the one
        that just failed; ``kills`` counts workers this job has taken
        down.  Quarantine outranks retry (a poison job must stop
        consuming workers no matter how many attempts remain); degrade
        applies only to budget/timeout failures of jobs that carry
        fallback params; everything else retryable gets ``retries``
        extra attempts.
        """
        cls = classification or "transient"
        if kills >= self.quarantine_after:
            return "quarantine"
        if cls in RETRYABLE and attempts <= self.retries:
            return "retry"
        if cls in ("budget", "timeout") and has_fallback:
            return "degrade"
        return "final"

    def delay(self, job_id: str, attempt: int) -> float:
        """Seeded backoff (host seconds) before retrying ``attempt``."""
        return backoff_delay(
            job_id,
            attempt,
            base=self.backoff_base,
            cap=self.backoff_cap,
            seed=self.seed,
        )
