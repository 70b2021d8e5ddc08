"""Unit tests for the discrete-event engine core."""

import pytest

from repro.simengine import EmptySchedule, Engine, US


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_starts_at_initial_time():
    assert Engine(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Engine()

    def proc(env):
        yield env.timeout(2.5)

    env.process(proc(env))
    env.run()
    assert env.now == 2.5


def test_negative_timeout_rejected():
    env = Engine()
    with pytest.raises(ValueError):
        env.timeout(-1.0)  # simlint: ignore[yield-from-comm]


@pytest.mark.parametrize("delay", [-1e-9, float("nan")])
def test_schedule_and_timeout_reject_a_negative_or_nan_delay(delay):
    env = Engine()
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay)
    with pytest.raises(ValueError):
        env.timeout(delay)  # simlint: ignore[yield-from-comm]
    assert env.pending == 0 and env.peek() == float("inf")


def test_an_infinite_delay_is_legal_and_never_due():
    env = Engine()
    env.schedule(env.event(), float("inf"))
    env.timeout(float("inf"))  # simlint: ignore[yield-from-comm]
    assert env.pending == 2 and env.peek() == float("inf")
    env.run()
    assert env.now == 0.0 and env.events_processed == 0 and env.pending == 2
    with pytest.raises(EmptySchedule, match="2 pending"):
        env.run(until=5.0)


def test_run_until_time_stops_early():
    env = Engine()

    def proc(env):
        yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_past_time_rejected():
    env = Engine(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Engine()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42


def test_run_until_event_deadlock_detected():
    env = Engine()
    never = env.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run(until=never)


def test_same_time_events_fifo_order():
    env = Engine()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.process(proc(env, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_step_raises_on_empty_queue():
    with pytest.raises(EmptySchedule):
        Engine().step()


def test_step_empty_schedule_message_is_descriptive():
    env = Engine()

    def proc(env):
        yield env.timeout(2.5)

    env.process(proc(env))
    env.run()
    with pytest.raises(EmptySchedule, match=r"t=2\.5s .*event\(s\) processed"):
        env.step()


def test_run_until_after_drain_explains_the_gap():
    env = Engine()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(
        EmptySchedule, match=r"schedule drained at t=1s before reaching until=8s"
    ):
        env.run(until=8.0)
    # The clock stays at the drain point, not the requested horizon.
    assert env.now == 1.0


def test_events_processed_counter():
    env = Engine()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env.events_processed >= 2


def test_run_all_returns_final_time():
    env = Engine()

    def proc(env):
        yield env.timeout(3 * US)

    env.process(proc(env))
    assert env.run_all() == pytest.approx(3e-6)


def test_unhandled_process_failure_propagates():
    env = Engine()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_nested_processes_wait_for_each_other():
    env = Engine()

    def child(env):
        yield env.timeout(2.0)
        return "child-done"

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    env.run()
    assert p.value == "child-done"
    assert env.now == 2.0
