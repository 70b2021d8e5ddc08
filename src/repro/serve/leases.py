"""Lease lifecycle: the shared failure policy applied to the ledger.

:class:`~repro.serve.store.JobStore` records transitions but holds no
opinions; :class:`~repro.campaign.policy.FailurePolicy` holds opinions
but touches no state.  :class:`LeaseManager` is the glue: it turns
"this lease expired" or "this attempt failed with classification X"
into the exact transition the batch runner would have made — retry with
seeded backoff, quarantine after repeated kills, or a final failure —
so the service and ``repro campaign run`` are provably one system with
two front doors.

Every method returns a :class:`Settled` record describing what was done
(or that the lease was stale and nothing was), which the server uses
for journaling, counters, and spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..campaign.policy import FailurePolicy
from .store import JobRow, JobStore

__all__ = ["Settled", "LeaseManager"]


@dataclass
class Settled:
    """One applied (or rejected-as-stale) lease settlement."""

    key: str
    job_id: str
    #: the policy action taken: retry / quarantine / final / done /
    #: innocent (host's fault, free requeue) / stale (token lost; noop)
    action: str
    #: terminal manifest status when the transition was terminal
    status: str = ""
    classification: str = ""
    error: str = ""
    delay_s: float = 0.0
    #: attempts *after* this settlement (0 when stale)
    attempts: int = 0

    @property
    def applied(self) -> bool:
        return self.action != "stale"


class LeaseManager:
    """Applies :class:`FailurePolicy` to lease outcomes against the store."""

    def __init__(
        self, store: JobStore, policy: FailurePolicy, lease_ttl: float
    ) -> None:
        self.store = store
        self.policy = policy
        self.lease_ttl = lease_ttl

    # -- grants -------------------------------------------------------------
    def acquire(self, worker: int) -> Optional[JobRow]:
        return self.store.acquire(worker, self.lease_ttl)

    def heartbeat(self, keys_tokens: List[Tuple[str, str]]) -> int:
        return self.store.heartbeat(keys_tokens, self.lease_ttl)

    # -- settlements --------------------------------------------------------
    def settle_success(
        self, job: JobRow, token: str, digest: str, artifact: str
    ) -> Settled:
        ok = self.store.complete(job.key, token, digest, artifact)
        if not ok:
            return Settled(key=job.key, job_id=job.job_id, action="stale")
        return Settled(
            key=job.key,
            job_id=job.job_id,
            action="done",
            status="done",
            attempts=job.attempts + 1,
        )

    def settle_failure(
        self,
        job: JobRow,
        token: str,
        classification: str,
        error: str,
        error_type: str,
        add_kill: bool = False,
    ) -> Settled:
        """Apply the policy to one failed attempt and record the result.

        ``job`` is the row *as leased* (attempts = completed executions
        before this one); the attempt that just failed is therefore
        ``job.attempts + 1``, matching the batch runner's bookkeeping
        exactly — same decide() inputs, same backoff stream.
        """
        attempts = job.attempts + 1
        kills = job.kills + (1 if add_kill else 0)
        # A service submission has no fallback params: never "degrade".
        action = self.policy.decide(classification, attempts, kills=kills)
        if action == "retry":
            delay_s = self.policy.delay(job.job_id, attempts)
            ok = self.store.requeue_failure(
                job.key,
                token,
                classification,
                error,
                error_type,
                delay_s,
                add_kill=add_kill,
            )
            if not ok:
                return Settled(key=job.key, job_id=job.job_id, action="stale")
            return Settled(
                key=job.key,
                job_id=job.job_id,
                action="retry",
                classification=classification,
                error=error,
                delay_s=delay_s,
                attempts=attempts,
            )
        status = "quarantined" if action == "quarantine" else "failed"
        cls = "poison" if action == "quarantine" else classification
        ok = self.store.finalize_failure(
            job.key, token, status, cls, error, error_type, add_kill=add_kill
        )
        if not ok:
            return Settled(key=job.key, job_id=job.job_id, action="stale")
        return Settled(
            key=job.key,
            job_id=job.job_id,
            action=action,
            status=status,
            classification=cls,
            error=error,
            attempts=attempts,
        )

    def settle_innocent(self, job: JobRow, token: str) -> Settled:
        """Requeue a lease whose host died under it — free of charge."""
        ok = self.store.release_innocent(job.key, token)
        action = "innocent" if ok else "stale"
        return Settled(
            key=job.key, job_id=job.job_id, action=action, attempts=job.attempts
        )

    # -- expiry sweep -------------------------------------------------------
    def expire(self) -> List[Settled]:
        """Sweep leases that missed their heartbeats.

        An expired lease is the service-mode analogue of a watchdog
        deadline: the worker stopped talking, so the attempt failed with
        classification ``timeout`` and the shared policy decides what
        happens next (retry with backoff, or final failure once retries
        are exhausted).  The fencing token means a worker that was
        merely slow — and later tries to commit — is discarded as stale
        rather than double-recorded.
        """
        settled: List[Settled] = []
        for job in self.store.expired_leases():
            result = self.settle_failure(
                job,
                job.lease_token,
                "timeout",
                (
                    f"lease expired: no heartbeat within "
                    f"{self.lease_ttl:g}s (worker slot {job.lease_worker})"
                ),
                "JobTimeoutError",
            )
            if result.applied:
                settled.append(result)
        return settled
