"""Deterministic RNG utilities and engine odds and ends."""

import numpy as np
import pytest

from repro.simengine import DEFAULT_SEED, derive_seed, Engine, make_rng, spawn


def test_make_rng_deterministic():
    a = make_rng().integers(0, 1 << 30, size=5)
    b = make_rng().integers(0, 1 << 30, size=5)
    assert np.array_equal(a, b)


def test_make_rng_seed_override():
    a = make_rng(1).integers(0, 1 << 30, size=5)
    b = make_rng(2).integers(0, 1 << 30, size=5)
    assert not np.array_equal(a, b)


def test_spawn_independent_streams():
    root = make_rng()
    child_a = spawn(root, "allocator")
    root2 = make_rng()
    child_b = spawn(root2, "allocator")
    # Same key + same parent state => same stream (reproducible).
    assert np.array_equal(
        child_a.integers(0, 1 << 30, size=4), child_b.integers(0, 1 << 30, size=4)
    )


def test_spawn_different_keys_differ():
    root = make_rng()
    a = spawn(root, "allocator")
    root2 = make_rng()
    b = spawn(root2, "scheduler")
    assert not np.array_equal(
        a.integers(0, 1 << 30, size=4), b.integers(0, 1 << 30, size=4)
    )


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(DEFAULT_SEED, "job", 0) == derive_seed(DEFAULT_SEED, "job", 0)
    seeds = {derive_seed(DEFAULT_SEED, "job", k) for k in range(16)}
    assert len(seeds) == 16  # sha256 derivation: no collisions, no order
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_default_seed_is_stable_constant():
    assert DEFAULT_SEED == 20080815


# ---------------------------------------------------------------------------
# engine odds and ends
# ---------------------------------------------------------------------------
def test_peek_empty_queue():
    assert Engine().peek() == float("inf")


def test_process_yielding_non_event_fails():
    env = Engine()

    def bad(env):
        yield 42  # not an event

    env.process(bad(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run()


def test_failed_event_defused_does_not_crash():
    env = Engine()
    ev = env.event()
    ev.fail(RuntimeError("handled elsewhere"))
    ev.defuse()
    env.run()  # no raise


def test_failed_event_undefused_crashes():
    env = Engine()
    ev = env.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_process_catches_child_failure():
    env = Engine()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child blew up")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught: {exc}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "caught: child blew up"


def test_interrupt_finished_process_rejected():
    env = Engine()

    def quick(env):
        yield env.timeout(0.1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()
