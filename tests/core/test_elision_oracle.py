"""Barrier-to-barrier execution is invisible: the in-place completion oracle.

A fault-free simulator completes a rank's priced batch in place, without
the event queue, when no event can fire before the batch ends (DESIGN
§19).  Tracing turns that off, so every case here runs twice — bare, and
with ``engine.trace = True`` — and the two runs must agree on everything
a run reports: the whole :class:`SimulationResult` (totals, finish times,
every rank's timeline, all fault fields), each rank's restart history,
``events_fired`` and the final queue seq.

The programs are the noise-tape oracle's random programs cut into
segments by collectives, run on 1-4 ranks that each skip a rank-dependent
share of the local instructions, with model noise on or off.  Software,
SDC and straggler faults land mid-run through direct ``inject_fault``
calls, with checkpoint write validation on, so in-place completions must
stop exactly at the first fault and never run past a pending event.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.lulesh import lulesh_appbeo
from repro.core import (
    AppBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Marker,
    RecoveryPolicy,
)
from repro.core.workflow import build_archbeo
from repro.des.engine import Engine, SimulationError
from repro.exps.casestudy import case_scenarios
from repro.obs.flightrec import FlightRecorder
from repro.obs.instrument import EngineObs
from repro.obs.metrics import MetricsRegistry
from repro.testbed.quartz import make_quartz

from tests.core.test_noise_tape import make_arch, make_models, programs
from tests.core.test_paper_golden import load_models


class _SPMD:
    """A shared program in which rank ``r`` skips every compute, exchange
    or marker ``i`` with ``(i + r) % thin == 0`` (``thin=0`` skips none).
    Ranks differ in their work but meet at the same collectives and take
    the same checkpoints, which coordinated rollback relies on."""

    def __init__(self, body, thin: int) -> None:
        self.body = list(body)
        self.thin = thin

    def __call__(self, rank, nranks, params):
        if not self.thin:
            return self.body
        return [
            instr
            for i, instr in enumerate(self.body)
            if isinstance(instr, (Collective, Checkpoint)) or (i + rank) % self.thin
        ]


@st.composite
def spmd_programs(draw):
    body = draw(programs())
    for pos in sorted(draw(st.lists(st.integers(0, len(body)), max_size=8)), reverse=True):
        op = draw(st.sampled_from(("allreduce", "barrier", "broadcast")))
        body.insert(pos, Collective(op, nbytes=8))
    return body


_faults = st.lists(
    st.tuples(
        st.floats(0.02, 0.98), st.integers(0, 3), st.sampled_from(("software", "sdc", "straggler"))
    ),
    max_size=3,
)


def run(program, thin, nranks, seed, monte_carlo, faults, observer=None):
    """One run's result, restart histories, final queue seq and clock, and
    how many batches completed in place.  *observer* is ``"trace"``,
    ``"obs"`` (an :class:`EngineObs`), ``"flight"`` (a flight recorder
    ticking every 4 events) or ``None``."""
    sim = BESSTSimulator(
        AppBEO("elide", _SPMD(program, thin)),
        make_arch(make_models()),
        nranks=nranks,
        seed=seed,
        monte_carlo=monte_carlo,
        record_timelines="all",
        recovery_policy=RecoveryPolicy(ckpt_validate_prob=1.0),
    )
    sim.engine.trace = observer == "trace"
    if observer == "obs":
        sim.engine.attach_obs(EngineObs(registry=MetricsRegistry()))
    elif observer == "flight":
        sim.attach_flightrec(FlightRecorder(capacity=1 << 16, tick_stride=4))
    for t, node, kind in faults:
        sim.engine.schedule(t, lambda ev, n=node, k=kind: sim.inject_fault(n % nranks, kind=k))
    in_place = []
    complete_in_place = Engine.complete_in_place

    def counting(engine, time):
        seq = complete_in_place(engine, time)
        in_place.append(seq >= 0)
        return seq

    with patch.object(Engine, "complete_in_place", counting):
        res = sim.run()
    engine = sim.engine
    if observer == "trace":
        # tracing is the off-switch: every event went through the queue
        assert len(engine.trace_log) == res.events_fired
        assert not any(in_place)
    elif observer == "obs":
        # in-place completions count as events run
        counted = engine._obs.registry.counter("engine_events_total").value
        assert counted == res.events_fired
    elif observer == "flight":
        # one tick per stride of events_fired, popped or in place, in
        # order and none twice, on a clock that never runs backwards
        ticks = [(r["events"], r["t"]) for r in sim._flightrec.ring if r["kind"] == "tick"]
        assert [n for n, _ in ticks] == list(range(4, res.events_fired + 1, 4))
        assert [t for _, t in ticks] == sorted(t for _, t in ticks)
    history = [r.restart_history for r in sim._ranks]
    return (res, history, engine.queue._next_seq, engine.now), sum(in_place)


def check(program, thin, nranks, seed, monte_carlo, fault_fracs, observer=None):
    """Run the case with in-place completion on (bare or under a sampling
    *observer*) and traced, and require identical runs."""
    (clean, *_), _ = run(program, thin, nranks, seed, monte_carlo, [])
    faults = [(f * clean.total_time, node, kind) for f, node, kind in fault_fracs]
    (a, a_history, a_seq, a_now), in_place = run(
        program, thin, nranks, seed, monte_carlo, faults, observer
    )
    (b, b_history, b_seq, b_now), _ = run(program, thin, nranks, seed, monte_carlo, faults, "trace")
    assert a.total_time == b.total_time
    assert a.finish_times == b.finish_times
    assert a.timelines == b.timelines
    assert a_history == b_history
    assert a.events_fired == b.events_fired
    assert a_seq == b_seq
    assert a_now == b_now
    assert a == b  # every fault field
    return in_place


_STEP = [Compute.of("sr5a", epr=2), Exchange(4096, 2), Collective("allreduce", nbytes=8)]
#: twelve timesteps, an L1 checkpoint after every second one
_STEPS = (_STEP * 2 + [Checkpoint.of(1, "sr7", epr=3), Marker("step")]) * 6


@settings(max_examples=60, deadline=None)
@given(
    program=spmd_programs(),
    thin=st.sampled_from((0, 2, 3)),
    nranks=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    monte_carlo=st.booleans(),
    fault_fracs=_faults,
    observer=st.sampled_from((None, "obs", "flight")),
)
# an SDC strike caught at the next checkpoint's write validation: eliding
# on past the strike would start the recovery at the wrong time
@example(program=_STEPS, thin=0, nranks=4, seed=3, monte_carlo=True,
         fault_fracs=[(0.2, 1, "sdc")], observer=None)
# a fail-stop fault while ranks are mid-batch: completing a batch past it
# would skip the rollback's torn-checkpoint and rework accounting
@example(program=_STEPS, thin=2, nranks=4, seed=5, monte_carlo=False,
         fault_fracs=[(0.55, 2, "software")], observer=None)
# a straggler, then a fail-stop fault on the slowed clock, flight recorded
@example(program=_STEPS, thin=0, nranks=3, seed=8, monte_carlo=True,
         fault_fracs=[(0.2, 0, "straggler"), (0.6, 1, "software")], observer="flight")
def test_in_place_completion_equals_queued_execution(
    program, thin, nranks, seed, monte_carlo, fault_fracs, observer
):
    check(program, thin, nranks, seed, monte_carlo, fault_fracs, observer)


@pytest.mark.parametrize("observer", [None, "obs", "flight"])
@pytest.mark.parametrize("monte_carlo", [True, False])
def test_fault_free_steps_complete_in_place(monte_carlo, observer):
    """The oracle is not vacuous: fault-free batches do complete in place,
    also under the sampling observers."""
    in_place = check(_STEPS, 3, 4, 1, monte_carlo, [], observer)
    assert in_place > 0


# -- the max_events budget and the run(until=...) horizon -------------------------------


def paper_sim(nranks=64, record="rank0"):
    """A Fig. 7-style noisy L1+L2 run, 20 timesteps."""
    arch = build_archbeo(make_quartz(allocation_nodes=500), load_models())
    app = lulesh_appbeo(timesteps=20, scenario=case_scenarios()[-1])
    return BESSTSimulator(
        app, arch, nranks=nranks, params={"epr": 10}, seed=1000, record_timelines=record
    )


def test_livelock_guard_counts_in_place_completions():
    """``max_events`` bounds in-place completions too, and stops the run at
    exactly the budget, as on the queued path."""
    events = paper_sim().run().events_fired
    for budget in (events // 2, events - 1):
        sim = paper_sim()
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=budget)
        assert sim.engine.events_fired == budget
    assert paper_sim().run(max_events=events).events_fired == events


def test_run_until_horizon_then_continue():
    """No batch completes past ``run(until=t)``; continuing finishes the
    same run an uninterrupted ``sim.run()`` does."""
    ref_sim = paper_sim(nranks=27, record="all")
    ref = ref_sim.run()
    sim = paper_sim(nranks=27, record="all")
    for frac in (0.25, 0.5, 0.75):
        horizon = frac * ref.total_time
        sim.engine.run(until=horizon)
        assert sim.engine.now == horizon
        assert max(e.t_end for r in sim._ranks for e in r.timeline.entries) <= horizon
        assert all(r.finish_time is None for r in sim._ranks)
    res = sim.run()
    assert res == ref
    assert [r.restart_history for r in sim._ranks] == [
        r.restart_history for r in ref_sim._ranks
    ]
    assert sim.engine.queue._next_seq == ref_sim.engine.queue._next_seq
