"""Deterministic random-number utilities for the simulator.

Every stochastic element of the simulation (XT allocation fragmentation,
load-imbalance jitter, background-traffic contention) draws from a
:class:`numpy.random.Generator` seeded through this module so that runs
are exactly reproducible and independent subsystems do not perturb each
other's streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["make_rng", "spawn", "derive_seed", "DEFAULT_SEED"]

#: Root seed for all simulator randomness unless a caller overrides it.
DEFAULT_SEED = 20080815  # SC'08 era, arbitrary but fixed


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a generator from ``seed`` (default :data:`DEFAULT_SEED`)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn(rng: np.random.Generator, key: str) -> np.random.Generator:
    """Derive an independent child stream from ``rng`` keyed by ``key``.

    The key is hashed into the child seed so that adding a new consumer
    does not shift the streams of existing consumers.
    """
    # Stable 64-bit hash of the key (Python's hash() is salted per run).
    h = 1469598103934665603
    for ch in key.encode():
        h = ((h ^ ch) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    mix = int(rng.integers(0, 2**32))
    return np.random.default_rng((h ^ mix) & 0xFFFFFFFFFFFFFFFF)


def derive_seed(*keys: object) -> int:
    """Derive a 64-bit child seed from a sequence of keys.

    Same scheme as the campaign worker's per-job reseeding
    (:func:`repro.campaign.worker.job_seed`): sha256 over a stable
    textual encoding, first 8 bytes big-endian.  Use this whenever a
    subsystem needs an independent, reproducible stream per logical
    unit (a campaign job, a noise source) — child seeds are stable
    across hosts and Python invocations, and adding a new consumer
    never shifts an existing consumer's stream.
    """
    if not keys:
        raise ValueError("derive_seed needs at least one key")
    text = "\x1f".join(repr(k) for k in keys)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
