"""Unit tests for SerialLink."""

import pytest

from repro.simengine import Engine, SerialLink


def test_link_validation():
    env = Engine()
    with pytest.raises(ValueError):
        SerialLink(env, bandwidth=0)
    with pytest.raises(ValueError):
        SerialLink(env, bandwidth=1e9, latency=-1)
    with pytest.raises(ValueError):
        SerialLink(env, bandwidth=1e9).book(-5, earliest=0.0)


def _transfer(env, link, nbytes):
    """Book ``nbytes`` on ``link`` now and wait until its tail has left."""
    _, tail = link.book(nbytes, earliest=env.now)
    yield env.timeout(tail - env.now)


def test_link_transfer_time():
    env = Engine()
    link = SerialLink(env, bandwidth=1e9, latency=1e-6)

    def proc(env, link):
        yield from _transfer(env, link, 1e6)  # 1 MB at 1 GB/s = 1 ms

    env.process(proc(env, link))
    env.run()
    assert env.now == pytest.approx(1e-3 + 1e-6)


def test_link_serializes_transfers():
    env = Engine()
    link = SerialLink(env, bandwidth=1e9)
    done = []

    def proc(env, link, name):
        yield from _transfer(env, link, 1e6)
        done.append((name, env.now))

    env.process(proc(env, link, "a"))
    env.process(proc(env, link, "b"))
    env.run()
    # Second transfer waits for the first to drain.
    assert done[0] == ("a", pytest.approx(1e-3))
    assert done[1] == ("b", pytest.approx(2e-3))


def test_link_book_cut_through_semantics():
    env = Engine()
    link = SerialLink(env, bandwidth=1e9, latency=1e-6)
    head, tail = link.book(1e6, earliest=0.0)
    assert head == pytest.approx(1e-6)
    assert tail == pytest.approx(1e-3 + 1e-6)
    # Second booking queues behind the first regardless of 'earliest'.
    head2, tail2 = link.book(1e6, earliest=0.0)
    assert head2 == pytest.approx(1e-3 + 1e-6)
    assert tail2 == pytest.approx(2e-3 + 1e-6)


def test_link_stats_and_utilization():
    env = Engine()
    link = SerialLink(env, bandwidth=1e9)
    link.book(5e5, earliest=0.0)
    assert link.transfers == 1
    assert link.bytes_carried == 5e5
    assert link.busy_time == pytest.approx(5e-4)
    assert link.utilization(elapsed=1e-3) == pytest.approx(0.5)
