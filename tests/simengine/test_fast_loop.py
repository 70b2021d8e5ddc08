"""``Engine.run``'s inline event loop.

Three properties keep the loop's speed from costing anything:

* it holds the cyclic garbage collector off while it runs and leaves
  ``gc.isenabled()`` as it found it, on every way out;
* the DES runs it drives make no reference cycles, so holding the
  collector off frees nothing later than reference counting would, and
  a dropped cluster, with or without a fault injector, frees by
  reference counting alone;
* it processes the same events in the same (time, sequence) order as
  ``Engine.step``, the one-event reference, driven by hand.
"""

import functools
import gc
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, LinkFail
from repro.machines import BGP, XT4_QC
from repro.simengine import Budget, BudgetExceeded, EmptySchedule, Engine
from repro.simmpi import Cluster, ReliabilityPolicy


# ---------------------------------------------------------------------------
# collector state
# ---------------------------------------------------------------------------
def _sleeper(env):
    yield env.timeout(1.0)
    return "slept"


def _returns(env):
    env.process(_sleeper(env))
    env.run()


def _drains_early(env):
    env.process(_sleeper(env))
    env.run(until=10.0)


def _deadlocks(env):
    env.run(until=env.event())


def _over_budget(env):
    def spin(env):
        while True:
            yield env.timeout(1.0)

    env.process(spin(env))
    env.run(budget=Budget(max_events=10))


def _fails(env):
    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(boom(env))
    env.run()


#: way out of ``run`` -> (body, exception it raises or None)
_EXITS = {
    "return": (_returns, None),
    "empty-schedule": (_drains_early, EmptySchedule),
    "deadlock": (_deadlocks, RuntimeError),
    "budget": (_over_budget, BudgetExceeded),
    "failed-event": (_fails, ValueError),
}


@pytest.fixture
def collector():
    """Restore the collector state the test found, whatever happens."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("on_at_entry", [True, False])
@pytest.mark.parametrize("exit_kind", sorted(_EXITS))
def test_run_leaves_the_collector_as_it_found_it(collector, exit_kind, on_at_entry):
    body, error = _EXITS[exit_kind]
    if on_at_entry:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        body(Engine())
    else:
        with pytest.raises(error):
            body(Engine())
    assert gc.isenabled() is on_at_entry


def test_collector_is_off_inside_the_loop_only(collector):
    gc.enable()
    env = Engine()
    seen = []

    def probe(env):
        seen.append(gc.isenabled())
        yield env.timeout(1.0)
        seen.append(gc.isenabled())

    env.process(probe(env))
    env.run()
    assert seen == [False, False]
    assert gc.isenabled()


def test_nested_run_leaves_the_outer_hold_alone(collector):
    gc.enable()
    outer = Engine()
    seen = []

    def nested(env):
        inner = Engine()
        inner.process(_sleeper(inner))
        inner.run()
        seen.append(gc.isenabled())
        yield env.timeout(1.0)
        seen.append(gc.isenabled())

    outer.process(nested(outer))
    outer.run()
    assert seen == [False, False]
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# no reference cycles
# ---------------------------------------------------------------------------
def _halo(comm, steps):
    px = 4
    i, j = comm.rank % px, comm.rank // px
    py = comm.size // px
    north = i + ((j - 1) % py) * px
    south = i + ((j + 1) % py) * px
    for step in range(steps):
        reqs = [comm.irecv(src=south, tag=step), comm.irecv(src=north, tag=step)]
        yield from comm.send(north, 256, tag=step)
        yield from comm.send(south, 512, tag=step)
        yield from comm.waitall(reqs)
    return comm.now


def _ring(comm, steps):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for step in range(steps):
        req = comm.irecv(src=left, tag=step)
        yield from comm.send(right, 64 * 1024, tag=step)  # rendezvous
        yield from comm.wait(req)
    return comm.now


def _allreduce(dtype, nbytes):
    def program(comm, steps):
        for _ in range(steps):
            yield from comm.allreduce(nbytes, dtype=dtype)
        return comm.now

    return program


def _tree(comm, steps):
    for _ in range(steps):
        yield from comm.allreduce(64, dtype="float64")
        yield from comm.bcast(512)
    return comm.now


_FP32_ALLREDUCE = _allreduce("float32", 16384)  # software, over the torus


@functools.lru_cache(maxsize=None)
def _healthy_seconds(steps):
    return Cluster(BGP, ranks=64, mode="SMP").run(_FP32_ALLREDUCE, steps).elapsed


def _link_kill(steps):
    kill = LinkFail(time=0.4 * _healthy_seconds(steps), link=((0, 0, 0), (1, 0, 0)))
    cluster = Cluster(BGP, ranks=64, mode="SMP", reliability=ReliabilityPolicy())
    result = cluster.run(_FP32_ALLREDUCE, steps, faults=FaultPlan((kill,)))
    assert result.faults.drops >= 1
    return cluster, result


def _plain(machine, ranks, program):
    def run(steps):
        cluster = Cluster(machine, ranks=ranks, mode="VN")
        return cluster, cluster.run(program, steps)

    return run


#: run name -> steps -> (cluster, result)
_RUNS = {
    "halo": _plain(BGP, 16, _halo),
    "ring-rendezvous": _plain(BGP, 32, _ring),
    "allreduce-software": _plain(XT4_QC, 16, _allreduce("float64", 64)),
    "tree": _plain(BGP, 32, _tree),
    "link-kill": _link_kill,
}


@pytest.mark.parametrize("steps", [2, 8])
@pytest.mark.parametrize("name", sorted(_RUNS))
def test_des_runs_leave_no_cyclic_garbage(collector, name, steps):
    run = _RUNS[name]
    run(steps)  # warm-up: lazy imports and the link-kill probe run
    gc.disable()
    gc.collect()
    cluster, result = run(steps)
    assert gc.collect() == 0, f"{name}: the run left cyclic garbage"
    assert result.elapsed > 0 and cluster.env.events_processed > 0
    del cluster, result
    assert gc.collect() == 0, f"{name}: the dropped cluster is a reference cycle"


# ---------------------------------------------------------------------------
# the inline loop against Engine.step
# ---------------------------------------------------------------------------
#: few distinct delays, so many events tie on time and the sequence
#: number decides their order; an event at ``inf`` counts as never
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, math.inf])
_GATES = 3
_ACTIONS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("all_of"), st.lists(_DELAYS, max_size=3)),
    st.tuples(st.just("succeed"), st.integers(0, _GATES - 1)),
    st.tuples(st.just("wait"), st.integers(0, _GATES - 1)),
    st.tuples(st.just("spawn"), st.lists(_DELAYS, max_size=3)),
    # a child process that raises; True = the parent waits and catches
    st.tuples(st.just("raise"), st.booleans()),
)
_PROGRAMS = st.lists(st.lists(_ACTIONS, max_size=6), min_size=1, max_size=5)


class _StepLog:
    """Engine observer: ``(now, pending)`` at every processed event."""

    def __init__(self):
        self.steps = []

    def engine_step(self, now, queue_depth):
        self.steps.append((now, queue_depth))

    def process_spawned(self, env, proc):
        pass


def _simulate(programs, drive, observed):
    """Run ``programs`` on a fresh engine driven by ``drive``.

    Every event the programs create gets a first callback that logs
    ``(now, label, ok)`` as it is processed, labels counting up in
    creation order, so the log is the processing order of the labelled
    events.
    """
    env = Engine()
    log = []
    labels = itertools.count()
    obs = env.obs = _StepLog() if observed else None

    def mark(ev):
        label = next(labels)
        ev.callbacks.append(lambda e: log.append((env.now, label, e.ok)))
        return ev

    gates = [mark(env.event()) for _ in range(_GATES)]

    def child(delays):
        for d in delays:
            yield mark(env.timeout(d, value=d))
        return env.now

    def failing(name):
        yield mark(env.timeout(0.5))
        raise ValueError(name)

    def program(pid, actions):
        got = []
        for step, (kind, arg) in enumerate(actions):
            if kind == "timeout":
                got.append((yield mark(env.timeout(arg, value=(pid, step)))))
            elif kind == "all_of":
                timeouts = [mark(env.timeout(d, value=d)) for d in arg]
                got.append((yield mark(env.all_of(timeouts))))
            elif kind == "succeed":
                if not gates[arg].triggered:
                    gates[arg].succeed((pid, step))
            elif kind == "wait":
                got.append((yield gates[arg]))
            elif kind == "spawn":
                got.append((yield mark(env.process(child(arg)))))
            else:
                proc = mark(env.process(failing(f"{pid}.{step}")))
                if arg:
                    try:
                        yield proc
                    except ValueError as exc:
                        got.append(str(exc))
        return pid, env.now, got

    procs = [mark(env.process(program(pid, acts))) for pid, acts in enumerate(programs)]
    try:
        drive(env)
        error = None
    except ValueError as exc:
        error = str(exc)
    return {
        "log": log,
        "steps": obs.steps if obs is not None else None,
        "now": env.now,
        "events_processed": env.events_processed,
        "pending": env.pending,
        "returns": [repr(p._value) if p.processed else None for p in procs],
        "error": error,
    }


def _run(env):
    env.run()


def _step_by_step(env):
    while env.peek() < math.inf:
        env.step()


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS, st.booleans())
def test_run_processes_events_exactly_as_step_does(programs, observed):
    fast = _simulate(programs, _run, observed)
    reference = _simulate(programs, _step_by_step, observed)
    assert fast == reference
