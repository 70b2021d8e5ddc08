"""repro.campaign: parallel, cached, resumable experiment campaigns.

Every paper artifact and sweep point becomes an *addressable job*: a
declarative :class:`CampaignSpec` expands into a deterministic job
list; a :class:`CampaignRunner` farms the jobs over a process pool
(``jobs=N``), reuses results through a content-addressed
:class:`ResultCache` (key = experiment + canonical params + code
fingerprint, hit ⇒ byte-identical artifact without recompute), and
journals every outcome that changes a job's record so an interrupted
campaign resumes where it stopped.  The ``repro campaign
run|status|clean`` CLI verbs and ``repro run all --jobs N`` sit on top.

Quick start::

    from repro.campaign import CampaignSpec, CampaignRunner

    spec = CampaignSpec.from_ids(["fig2", "fig3", "table3"])
    result = CampaignRunner(spec, "out/campaign", jobs=4).run()
    print(result.summary_line())

The runner is hardened against host-level failure — per-job watchdog
deadlines, seeded exponential backoff, automatic pool rebuild after a
worker death, poison-job quarantine, crash-consistent recovery of torn
cache/journal/manifest writes, and graceful degradation to analytic
fallback params — and all of it is testable under deterministic fault
injection via :mod:`repro.chaos`.  The durable writes live in
:mod:`repro.campaign.ledger` and the worker deaths and hangs in
:mod:`repro.campaign.pool`; the ``repro serve`` service runs on both.

See ``docs/campaigns.md`` for the spec format, cache-key semantics,
the resume/retry model, and failure handling.
"""

from .cache import ResultCache, cache_key, code_fingerprint, text_digest
from .manifest import (
    CAMPAIGN_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    STATUSES,
    JobRecord,
    load_campaign_file,
    load_manifest,
    load_or_rebuild_manifest,
    read_journal,
    rebuild_manifest_doc,
    write_manifest,
)
from .policy import ACTIONS, FailurePolicy
from .pool import pool_map
from .retry import MAX_BACKOFF_EXPONENT, backoff_delay, backoff_sequence
from .runner import CAMPAIGN_PID, CampaignResult, CampaignRunner
from .spec import CampaignSpec, Job, SpecError, canonical_params, params_digest
from .worker import (
    DETERMINISTIC,
    NEVER_RETRY,
    RETRYABLE,
    JobOutcome,
    JobTimeoutError,
    WorkerKilledError,
    classify_failure,
    execute_job,
    job_seed,
)

__all__ = [
    "ACTIONS",
    "CAMPAIGN_FILE",
    "CAMPAIGN_PID",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "DETERMINISTIC",
    "FailurePolicy",
    "Job",
    "JobOutcome",
    "JobRecord",
    "JobTimeoutError",
    "JOURNAL_FILE",
    "MANIFEST_FILE",
    "MAX_BACKOFF_EXPONENT",
    "NEVER_RETRY",
    "RETRYABLE",
    "ResultCache",
    "STATUSES",
    "SpecError",
    "WorkerKilledError",
    "backoff_delay",
    "backoff_sequence",
    "cache_key",
    "canonical_params",
    "classify_failure",
    "code_fingerprint",
    "execute_job",
    "job_seed",
    "load_campaign_file",
    "load_manifest",
    "load_or_rebuild_manifest",
    "params_digest",
    "pool_map",
    "read_journal",
    "rebuild_manifest_doc",
    "text_digest",
    "write_manifest",
]
