"""The engine's event order against an independent ``(time, seq)`` heap.

Every event the engine schedules is due at ``now + delay`` and carries
the next sequence number; the engine must process events in increasing
``(time, seq)`` order, whatever its queue looks like inside.  These
tests run random programs through :meth:`Engine.run` (with ``until=``
stops) and through :meth:`Engine.step`, and hold each to
:class:`_Reference`, a plain ``heapq`` of ``(time, seq, label)``
tuples that defines that order.

The delays are chosen to stress a queue that keeps same-time events
apart from later ones: zero, a positive delay too small to move the
clock (``now + delay == now``), a few values whose sums collide
exactly, and ``inf`` (never due).
"""

import heapq
import math

from hypothesis import given, settings, strategies as st

from repro.simengine import EmptySchedule, Engine

_INF = math.inf
#: a positive delay that rounds away at the current time
_ROUNDS_AWAY = "rounds-away"
_DELAYS = st.sampled_from([0.0, 0.0, _ROUNDS_AWAY, 0.25, 0.5, 0.75, _INF])
_CHILD = st.tuples(st.sampled_from(["timeout", "succeed", "schedule"]), _DELAYS)
#: children scheduled by the event labelled ``i`` are ``specs[i % len(specs)]``
_SPECS = st.lists(st.lists(_CHILD, max_size=3), min_size=1, max_size=8)
#: ``("time", d)``: ``run(until=now + d)``; ``("event", k)``: run until
#: the ``k``-th event created so far (modulo their number) is processed
_STOPS = st.lists(
    st.one_of(
        st.tuples(st.just("time"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75])),
        st.tuples(st.just("event"), st.integers(0, 200)),
    ),
    max_size=4,
)
#: once this many events exist, firing events schedule no more children,
#: so every program ends
_MAX_LABELS = 120


def _delay(delay, now):
    return math.ulp(now) / 4 if delay == _ROUNDS_AWAY else delay


class _Reference:
    """The (time, seq) order by definition, run over the same program."""

    def __init__(self, specs):
        self.specs = specs
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.processed = set()
        self.log = []
        for child in specs[0]:
            self.push(child)

    def push(self, child):
        kind, delay = child
        delay = 0.0 if kind == "succeed" else _delay(delay, self.now)
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, self.seq - 1))

    def peek(self):
        return self.heap[0][0] if self.heap else _INF

    def fire(self):
        self.now, _, label = heapq.heappop(self.heap)
        self.processed.add(label)
        self.log.append((self.now, label))
        if self.seq < _MAX_LABELS:
            for child in self.specs[label % len(self.specs)]:
                self.push(child)

    def stop(self, kind, arg):
        if kind == "time":
            until = self.now + arg
            while self.peek() <= until:
                self.fire()
            if self.peek() == _INF:
                return "drained"
            self.now = until
            return "ok"
        label = arg % self.seq
        while label not in self.processed:
            if self.peek() == _INF:
                return "deadlock"
            self.fire()
        return "ok"

    def snapshot(self, outcome):
        return outcome, self.now, self.peek(), len(self.heap), len(self.processed)


class _Program:
    """The same program on a real :class:`Engine`."""

    def __init__(self, specs):
        self.specs = specs
        self.env = Engine()
        self.events = []
        self.log = []
        for child in specs[0]:
            self.push(child)

    def push(self, child):
        env = self.env
        kind, delay = child
        label = len(self.events)
        if kind == "timeout":
            ev = env.timeout(_delay(delay, env.now))
        else:
            ev = env.event()
        ev.callbacks.append(lambda _ev: self.fire(label))
        self.events.append(ev)
        if kind == "succeed":
            ev.succeed()
        elif kind == "schedule":
            ev._value = None  # triggered by hand, as Process and the transport do
            env.schedule(ev, _delay(delay, env.now))

    def fire(self, label):
        self.log.append((self.env.now, label))
        if len(self.events) < _MAX_LABELS:
            for child in self.specs[label % len(self.specs)]:
                self.push(child)

    def stop(self, kind, arg):
        env = self.env
        try:
            if kind == "time":
                env.run(until=env.now + arg)
            else:
                env.run(until=self.events[arg % len(self.events)])
        except EmptySchedule:
            return "drained"
        except RuntimeError:
            return "deadlock"
        return "ok"

    def snapshot(self, outcome):
        env = self.env
        return outcome, env.now, env.peek(), env.pending, env.events_processed


@settings(max_examples=300, deadline=None)
@given(_SPECS, _STOPS)
def test_run_follows_the_reference_order(specs, stops):
    fast, reference = _Program(specs), _Reference(specs)
    got, want = [], []
    for kind, arg in stops:
        if reference.seq == 0:
            break
        got.append(fast.snapshot(fast.stop(kind, arg)))
        want.append(reference.snapshot(reference.stop(kind, arg)))
    fast.env.run()
    while reference.peek() < _INF:
        reference.fire()
    got.append(fast.snapshot("end"))
    want.append(reference.snapshot("end"))
    assert fast.log == reference.log
    assert got == want


@settings(max_examples=150, deadline=None)
@given(_SPECS)
def test_step_follows_the_reference_order(specs):
    stepped, reference = _Program(specs), _Reference(specs)
    env = stepped.env
    got, want = [], []
    while env.peek() < _INF:
        env.step()
        got.append(stepped.snapshot("step"))
    while reference.peek() < _INF:
        reference.fire()
        want.append(reference.snapshot("step"))
    assert stepped.log == reference.log
    assert got == want
