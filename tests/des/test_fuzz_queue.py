"""Seeded fuzz: EventQueue/Engine.cancel interleavings.

Random interleavings of push / cancel / pop / peek against a reference
model, checking the two invariants recovery correctness rests on:

* accounting is exact — ``len(queue)`` always equals the number of live
  events actually in the heap, regardless of when cancellations landed
  relative to pops and peeks;
* a cancelled event is never executed — pops return exactly the live
  events, in ``(time, priority, seq)`` order.

Seeded and deterministic: a failure reproduces from its printed seed.
A hypothesis property additionally mixes the two cancellation styles
(``Event.cancel`` alone, and cancel plus ``note_cancelled``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.des import Component, Engine, Event, EventQueue

SEEDS = list(range(12))


@pytest.mark.parametrize("seed", SEEDS)
def test_queue_accounting_fuzz(seed):
    rng = np.random.default_rng(seed)
    q = EventQueue()
    live: dict[int, Event] = {}  # seq -> event, the reference model
    popped: list[Event] = []
    t_floor = 0.0

    for step in range(400):
        op = rng.random()
        if op < 0.5:
            ev = q.push(
                Event(
                    time=t_floor + float(rng.random() * 10),
                    priority=int(rng.integers(0, 3)) * 50,
                )
            )
            live[ev.seq] = ev
        elif op < 0.7 and live:
            # cancel a random pending event (exactly once)
            seqs = sorted(live)
            victim = live.pop(seqs[int(rng.integers(0, len(seqs)))])
            victim.cancel()
            q.note_cancelled()
        elif op < 0.9 and live:
            ev = q.pop()
            assert not ev.cancelled, "popped a cancelled event"
            assert live.pop(ev.seq) is ev
            popped.append(ev)
            t_floor = max(t_floor, ev.time)
        else:
            t = q.peek_time()
            if live:
                assert t == min(e.sort_key() for e in live.values())[0]
            else:
                assert t == float("inf")
        # the load-bearing invariant: len() is exact at every step
        assert len(q) == len(live), f"accounting drift at step {step}"
        assert bool(q) == bool(live)

    # drain: remaining live events come out cancelled-free and in order
    drained = []
    while q:
        ev = q.pop()
        assert not ev.cancelled
        assert live.pop(ev.seq) is ev
        drained.append(ev)
    assert not live
    keys = [e.sort_key() for e in drained]
    assert keys == sorted(keys)
    # pop times never went backwards (pushes were floored at the last pop)
    times = [e.time for e in popped]
    assert times == sorted(times)


_OP = st.tuples(
    st.sampled_from(["push", "cancel", "cancel_noted", "recount", "pop", "peek"]),
    st.integers(0, 5),
    st.integers(0, 2),
)
# a run of pushes first, so the queue is deep enough for a silently
# cancelled entry to sit in front of live and noted-cancelled ones
_OPS = st.builds(
    lambda pushes, ops: [("push", t, p) for t, p in pushes] + ops,
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), min_size=3, max_size=12),
    st.lists(_OP, max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(_OPS)
# the drift this guards against: a silent cancel discarded at the front
# while a noted one waits behind a live event
@example(
    [
        ("push", 0, 0),
        ("push", 1, 0),
        ("push", 2, 0),
        ("cancel", 0, 0),
        ("cancel_noted", 1, 0),
        ("pop", 0, 0),
    ]
)
def test_mixed_cancellation_property(ops):
    """Pops come out in ``(time, priority, seq)`` order and ``len`` stays
    exact after every operation, whichever way events were cancelled.

    ``len`` counts live events plus events cancelled via
    ``Event.cancel`` alone that are still queued (the queue cannot see
    those until it discards them); with every cancellation noted it is
    exactly the live count.
    """
    q = EventQueue()
    stored: list[Event] = []  # reference: queued entries in pop order
    noted: set[int] = set()
    for op, a, b in ops:
        if op == "push":
            stored.append(q.push(Event(time=float(a), priority=50 * b)))
            stored.sort(key=Event.sort_key)
        elif op in ("cancel", "cancel_noted"):
            live = [e for e in stored if not e.cancelled]
            if live:
                victim = live[a % len(live)]
                victim.cancel()
                if op == "cancel_noted":
                    q.note_cancelled(victim)
                    noted.add(victim.seq)
        elif op == "recount":
            q.note_cancelled()
            noted = {e.seq for e in stored if e.cancelled}
        else:
            # pop and peek discard every cancelled entry at the front
            while stored and stored[0].cancelled:
                noted.discard(stored.pop(0).seq)
            if op == "peek":
                assert q.peek_time() == (stored[0].time if stored else float("inf"))
                assert bool(q) == bool(stored)
            elif stored:
                assert q.pop() is stored.pop(0)
            else:
                with pytest.raises(IndexError):
                    q.pop()
        live = sum(not e.cancelled for e in stored)
        silent = sum(e.cancelled and e.seq not in noted for e in stored)
        assert len(q) == live + silent
    drained = []
    while q:
        drained.append(q.pop())
    assert drained == [e for e in stored if not e.cancelled]
    keys = [e.sort_key() for e in drained]
    assert keys == sorted(keys)


@pytest.mark.parametrize("seed", SEEDS)
def test_double_cancel_is_idempotent_fuzz(seed):
    rng = np.random.default_rng(seed)
    eng = Engine(seed=seed)
    events = [eng.schedule(float(rng.random() * 5), _noop) for _ in range(50)]
    cancelled = set()
    for _ in range(120):
        ev = events[int(rng.integers(0, len(events)))]
        eng.cancel(ev)  # Engine.cancel is idempotent by contract
        cancelled.add(ev.seq)
        assert len(eng.queue) == len(events) - len(cancelled)
    eng.run()
    assert eng.events_fired == len(events) - len(cancelled)


class _CancellingComponent(Component):
    """Schedules bursts and cancels a seeded subset from inside handlers —
    the interleaving the simulator's pause()/rollback() paths produce."""

    def __init__(self, name, seed):
        super().__init__(name)
        self.fired = []
        self.doomed = []
        self.rounds = 6
        self._seed = seed

    def setup(self):
        self.schedule(0.1, self._burst)

    def _burst(self, ev):
        self.rounds -= 1
        rng = self.rng
        pending = [
            self.schedule(float(rng.random() + 0.01), self._work, payload=i)
            for i in range(8)
        ]
        # cancel a random subset before any of them fires
        for i in sorted(set(int(x) for x in rng.integers(0, 8, size=4))):
            self.engine.cancel(pending[i])
            self.doomed.append(pending[i].seq)
        if self.rounds > 0:
            self.schedule(1.5, self._burst)

    def _work(self, ev):
        self.fired.append(ev.seq)

    def handle_event(self, port_name, payload, time):  # pragma: no cover
        pass


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_cancel_from_handlers_never_executes_cancelled(seed):
    eng = Engine(seed=seed)
    comp = eng.register(_CancellingComponent("c", seed))
    eng.run()
    assert not set(comp.fired) & set(comp.doomed)
    assert len(eng.queue) == 0
    # determinism: same seed, same interleaving
    eng2 = Engine(seed=seed)
    comp2 = eng2.register(_CancellingComponent("c", seed))
    eng2.run()
    assert comp2.fired == comp.fired
    assert comp2.doomed == comp.doomed


def _noop(ev):
    pass
