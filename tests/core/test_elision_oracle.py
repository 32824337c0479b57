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

Ranks that all run one program form a cohort: each collective release
prices and completes the next segment of every rank as one block (DESIGN
§19, cohort segments).  The cohort cases run shared programs on 8-64
ranks, and every case also compares the order in which each collective
releases its ranks.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
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
    Verify,
)
from repro.core.simulator import _SyncDomain
from repro.core.workflow import build_archbeo
from repro.des.engine import Engine, SimulationError
from repro.exps.casestudy import case_scenarios
from repro.obs.flightrec import FlightRecorder
from repro.obs.instrument import EngineObs
from repro.obs.metrics import MetricsRegistry
from repro.testbed.quartz import make_quartz

from tests.core.test_noise_tape import EPRS, make_arch, make_models, programs
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
    """One run's result, restart histories, final queue seq and clock, its
    flight recorder's lifecycle records, the rank order of every collective
    release, and the size of each in-place completion block (1 for one
    rank's batch, ``nranks`` for a cohort segment).  *observer* is
    ``"trace"`` (with a flight recorder),
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
    elif observer in ("flight", "trace"):
        sim.attach_flightrec(FlightRecorder(capacity=1 << 16, tick_stride=4))
    for t, node, kind in faults:
        sim.engine.schedule(t, lambda ev, n=node, k=kind: sim.inject_fault(n % nranks, kind=k))
    in_place, orders = [], []
    complete_in_place = Engine.complete_in_place
    schedule_release = _SyncDomain._schedule_release

    def recording(sync, t_max, order, instr):
        ranks = order.tolist() if isinstance(order, np.ndarray) else [c.rank for *_k, c in order]
        orders.append(ranks)
        return schedule_release(sync, t_max, order, instr)

    def counting(engine, time, k=1):
        seq = complete_in_place(engine, time, k)
        in_place.append(k if seq >= 0 else 0)
        return seq

    with patch.object(Engine, "complete_in_place", counting), patch.object(
        _SyncDomain, "_schedule_release", recording
    ):
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
    # fault and recovery records, in the order the handlers made them
    records = sim._flightrec and [
        {k: v for k, v in r.items() if k != "seq"}
        for r in sim._flightrec.ring
        if r["kind"] != "tick"
    ]
    return (res, history, engine.queue._next_seq, engine.now, records, orders), [
        k for k in in_place if k
    ]


def check(program, thin, nranks, seed, monte_carlo, fault_fracs, observer=None):
    """Run the case with in-place completion on (bare or under a sampling
    *observer*) and traced, and require identical runs."""
    (clean, *_), _ = run(program, thin, nranks, seed, monte_carlo, [])
    faults = [(f * clean.total_time, node, kind) for f, node, kind in fault_fracs]
    (a, a_history, a_seq, a_now, a_records, a_orders), in_place = run(
        program, thin, nranks, seed, monte_carlo, faults, observer
    )
    (b, b_history, b_seq, b_now, b_records, b_orders), _ = run(
        program, thin, nranks, seed, monte_carlo, faults, "trace"
    )
    # a cohort's stable sort of its batch ends is the queued (time, seq) sort
    assert a_orders == b_orders
    if observer == "flight":
        assert a_records == b_records
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
    assert in_place and set(in_place) == {1}


# -- cohort segments: every rank runs one op list ---------------------------------------


@st.composite
def cohort_programs(draw):
    """Programs whose model calls share one factor-table size, so a
    Monte-Carlo run draws them from noise tapes, with verify points, and
    collectives anywhere: back to back, around marker-only and
    exchange-only segments, first and last."""
    kernel = st.sampled_from(draw(st.sampled_from((("sr5a", "sr5b"), ("sr7",)))))
    epr = st.sampled_from(EPRS)
    instr = st.one_of(
        st.builds(lambda k, e: Compute.of(k, epr=e), kernel, epr),
        st.builds(
            lambda lv, k, e: Checkpoint.of(lv, k, epr=e), st.sampled_from((1, 2)), kernel, epr
        ),
        st.builds(lambda k, e: Verify.of(k, epr=e), kernel, epr),
        st.builds(Exchange, st.sampled_from((0, 4096)), st.integers(1, 6)),
        st.builds(Marker, st.sampled_from(("m", "step"))),
        st.builds(Collective, st.sampled_from(("allreduce", "barrier", "broadcast")), st.just(8)),
    )
    return draw(st.lists(instr, min_size=1, max_size=150))


_COHORT_STEP = [
    Marker("step"),
    Compute.of("sr5a", epr=2),
    Exchange(4096, 2),
    Collective("allreduce", nbytes=8),
]
#: marker-led steps, an exchange-only segment, back-to-back collectives,
#: and a verify and a checkpoint committed inside cohort batches; 80 noise
#: draws per rank, so the tapes refill, once in the middle of a batch
_COHORT_STEPS = (
    _COHORT_STEP * 2
    + [Exchange(4096, 6), Collective("barrier"), Collective("allreduce", nbytes=8)]
    + [Verify.of("sr5b", epr=3), Collective("barrier")]
    + [Checkpoint.of(2, "sr5b", epr=2), Marker("ck")]
) * 20


@settings(max_examples=30, deadline=None)
@given(
    program=cohort_programs(),
    nranks=st.integers(8, 64),
    seed=st.integers(0, 2**16),
    monte_carlo=st.booleans(),
    fault_fracs=_faults,
    observer=st.sampled_from((None, "obs", "flight")),
)
# the cohort runs until an SDC strike, then hands its state back to the
# ranks, whose checkpoint write validation catches the strike
@example(program=_COHORT_STEPS, nranks=27, seed=3, monte_carlo=True,
         fault_fracs=[(0.3, 1, "sdc")], observer="flight")
# correctable SDC strikes on three ranks, all caught at one verify after
# the cohort handed its state back: the ranks commit it in the release
# order the cohort left (ties everywhere without noise), which the
# recorder's correction records show
@example(program=_COHORT_STEPS, nranks=40, seed=0, monte_carlo=False,
         fault_fracs=[(0.31, 2, "sdc"), (0.32, 21, "sdc"), (0.33, 37, "sdc")], observer="flight")
# a fail-stop fault rolls every rank back to a checkpoint the cohort committed
@example(program=_COHORT_STEPS, nranks=8, seed=5, monte_carlo=False,
         fault_fracs=[(0.7, 2, "software")], observer="obs")
def test_cohort_segments_equal_queued_execution(
    program, nranks, seed, monte_carlo, fault_fracs, observer
):
    check(program, 0, nranks, seed, monte_carlo, fault_fracs, observer)


@pytest.mark.parametrize("observer", [None, "obs", "flight"])
@pytest.mark.parametrize("monte_carlo", [True, False])
@pytest.mark.parametrize("nranks", [8, 64])
def test_fault_free_shared_program_runs_as_cohort(nranks, monte_carlo, observer):
    """The cohort oracle is not vacuous: a fault-free shared program
    completes whole segments as one block of ``nranks`` events, also under
    the sampling observers."""
    in_place = check(_COHORT_STEPS, 0, nranks, 1, monte_carlo, [], observer)
    assert in_place.count(nranks) >= 20


@pytest.mark.parametrize("kind", ["software", "sdc", "straggler"])
@pytest.mark.parametrize("monte_carlo", [True, False])
def test_fault_while_the_cohort_waits_at_a_collective(kind, monte_carlo):
    """A fault firing between a cohort block's last batch end and its
    release finds the cohort holding the ranks' state: the ranks get it
    back before any fault handler reads or resets them."""
    (clean, *_), _ = run(_COHORT_STEPS, 0, 27, 2, monte_carlo, [])
    coll = [e for e in clean.timelines[0].entries if e.kind == "collective"][13]
    frac = (coll.t_start + coll.t_end) / 2 / clean.total_time
    live = []
    inject_fault = BESSTSimulator.inject_fault

    def noting(sim, *args, **kwargs):
        live.append(sim.sync._cohort is not None)
        return inject_fault(sim, *args, **kwargs)

    with patch.object(BESSTSimulator, "inject_fault", noting):
        check(_COHORT_STEPS, 0, 27, 2, monte_carlo, [(frac, 5, kind)], "flight")
    assert live == [True, False]  # bare, then traced


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


def _nth_collective(sim, k):
    """Rank 0's ``k``-th collective entry, and every rank's batch end just
    before it (``record="all"``)."""
    ends = []
    for r in sim._ranks:
        entries = r.timeline.entries
        at = [i for i, e in enumerate(entries) if e.kind == "collective"][k]
        ends.append(entries[at - 1].t_end)
        if r.rank == 0:
            coll = entries[at]
    return coll, sorted(ends)


def test_horizon_and_budget_cut_inside_a_cohort_block():
    """A ``run(until=t)`` horizon between the ranks' batch ends, or a
    ``max_events`` budget smaller than the cohort, splits the block: the
    ranks that fit complete in place, the rest are queued (or the budget
    raises at exactly its count), and continuing finishes the
    uninterrupted run."""
    n = 27
    ref_sim = paper_sim(nranks=n, record="all")
    ref = ref_sim.run()
    coll, ends = _nth_collective(ref_sim, 10)
    assert ends[0] < ends[-1]
    horizon = ends[n // 2]

    sim = paper_sim(nranks=n, record="all")
    sim.engine.run(until=horizon)
    queued = [r.rank for r in sim._ranks if r._pending is not None]
    assert 0 < len(queued) < n
    assert sim.sync._cohort is None
    assert sim.run() == ref

    # stopped between the last arrival and the release, the cohort lives
    sim = paper_sim(nranks=n, record="all")
    sim.engine.run(until=(coll.t_start + coll.t_end) / 2)
    assert sim.sync._cohort is not None
    fired = sim.engine.events_fired
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=1 + n // 2)  # the release, then half the cohort
    assert sim.engine.events_fired == fired + 1 + n // 2
    assert sim.run() == ref
    assert [r.restart_history for r in sim._ranks] == [r.restart_history for r in ref_sim._ranks]
    assert sim.engine.queue._next_seq == ref_sim.engine.queue._next_seq


def test_snapshot_restore_mid_cohort_equals_uninterrupted_run():
    """A manual snapshot taken while a cohort holds the ranks' state
    restores to a simulator that finishes the uninterrupted run."""

    def make():
        return BESSTSimulator(
            AppBEO("cohort", _SPMD(_COHORT_STEPS, 0)),
            make_arch(make_models()),
            nranks=27,
            seed=11,
            record_timelines="all",
        )

    ref_sim = make()
    ref = ref_sim.run()
    coll, _ends = _nth_collective(ref_sim, 70)  # past a tape refill
    sim = make()
    sim.engine.run(until=(coll.t_start + coll.t_end) / 2)
    assert sim.sync._cohort is not None
    resumed = BESSTSimulator.restore(sim.snapshot())
    for done in (resumed, sim):
        assert done.run() == ref
        assert [r.restart_history for r in done._ranks] == [
            r.restart_history for r in ref_sim._ranks
        ]
        assert [(r.pc, r.cursor, r.tape) for r in done._ranks] == [
            (r.pc, r.cursor, r.tape) for r in ref_sim._ranks
        ]
        assert done.engine.queue._next_seq == ref_sim.engine.queue._next_seq
