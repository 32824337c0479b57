"""The BE-SST simulator: ranks executing abstract instructions.

Each simulated MPI rank is a DES component; executing an instruction polls
the ArchBEO for its predicted runtime and advances that rank's clock.
Collectives rendezvous all ranks and release them together at
``max(arrival) + modeled cost``.  Consecutive non-synchronizing
instructions are priced as one batch that completes as one event, which
keeps a 1000-rank × 200-timestep case-study simulation at a few hundred
thousand events.  In a fault-free run that is not traced, journaled or
auto-snapshotted, a batch that nothing else can precede completes in
place instead of through the event queue (barrier-to-barrier
execution, DESIGN §19); it still counts as one event
and takes its queue seq, so results, event counts and the seqs of later
events are those of the queued run.  When every rank runs one shared op
list, a collective release goes further (cohort segments, DESIGN §19):
it prices the next segment of all ranks at once with NumPy, completes
their batches in place as one block of events and schedules the next
release, and the ranks' program counters and noise tapes stay in the
shared :class:`_Cohort` until a fallback, a fault or the end of the run
hands them back.

Fault injection (Cases 2 and 4 of Fig. 4) plugs in through
:meth:`BESSTSimulator.run`'s ``fault_injector``: node failures trigger a
coordinated rollback of every rank to its last completed checkpoint (or to
the very beginning when the application carries no checkpoints), plus the
ArchBEO's recovery downtime.

The fault *lifecycle* follows a four-state machine driven by the
:class:`~repro.core.fault_injection.RecoveryPolicy`::

    running ──fault──▶ recovering ──verify ok──▶ running
       ▲                   │  ▲
       │                   │  └── nested fault / failed verification
       │                   │      (escalate L1 → L2 → L4 → restart)
       │            attempts exhausted
       │                   ▼
       └──requeue ok── requeued ──spares+requeues exhausted──▶ aborted

A fault that lands while a rank is *inside* a ``Checkpoint`` instruction
tears that in-progress instance (it never becomes a restart point), and —
with in-place L1 writes — destroys the previous committed L1 copy on the
failed node, pushing recovery one checkpoint further back.

Beyond fail-stop, the simulator handles three more fault kinds
end-to-end:

* ``"sdc"`` — silent data corruption arms a *latent* flag on the victim
  rank.  Nothing happens until a detection point: an ABFT ``Verify``
  instruction commits (primary detector) or a checkpoint write validates
  its data (``RecoveryPolicy.ckpt_validate_prob``).  Checkpoints written
  by a flagged rank are *corrupt*: detection-triggered recovery skips
  them and rolls back past the last clean checkpoint.  Covered,
  correctable strikes are fixed in place at the detection point;
  uncovered strikes evade detection entirely and — if they survive to
  the end of the run — turn the result into a *wrong result*
  (``SimulationResult.wrong_result``).
* ``"straggler"`` — the victim node's compute clock runs slower by the
  drawn factor until the repair event fires (batch granularity: an
  already-priced batch keeps its price).
* ``"burst"`` — a correlated failure: every node in the drawn
  neighborhood fails at once (fail-stop semantics, L2+ recovery).

The network fault domain (``"link"``/``"switch"``/``"netdeg"``) mutates
the topology's :class:`~repro.network.health.NetworkHealth` overlay
instead of felling compute endpoints: traffic reroutes over surviving
paths (the LogGP model prices hop inflation, de-rated bandwidth and
retransmission delay transparently), L2/partner-copy checkpoint traffic
pays the degraded-network cost, and when the participant set is
*partitioned* the job cannot rendezvous — recovery attempts stall
(bounded by the episode's attempt budget) until a repair restores
connectivity or the ladder escalates into requeue/abort.  A checkpoint
whose partner copy cannot cross a partition commits at an *effective*
level of 1 (local-only protection) and is counted in
``net_degraded_commits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Optional

import numpy as np

from repro.core.beo import AppBEO, ArchBEO
from repro.core.fault_injection import (
    FAULT_KINDS,
    FaultDetail,
    FaultEvent,
    RecoveryPolicy,
)
from repro.core.instructions import (
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Instruction,
    Marker,
    Verify,
)
from repro.des.component import Component
from repro.des.engine import Engine
from repro.des.event import Event
from repro.des.snapshot import AutoSnapshotPolicy, Snapshot, SnapshotError
from repro.faults.context import RecoveryContext
from repro.faults.domains import build_domains
from repro.faults.registry import MIN_LEVEL_FOR_KIND
from repro.models.base import ModelError


@dataclass
class TimelineEntry:
    """One executed instruction on one rank."""

    t_start: float
    t_end: float
    kind: str           #: "compute" | "checkpoint" | "verify" | "collective" | "exchange" | "marker" | "rollback"
    label: str
    level: int = 0      #: checkpoint level when kind == "checkpoint"

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class RankTimeline:
    """Recorded execution history of one rank."""

    rank: int
    entries: list[TimelineEntry] = field(default_factory=list)

    def checkpoint_marks(self) -> list[tuple[float, int]]:
        """(completion time, level) of every checkpoint instance — the
        black dots on Figs. 7-8."""
        return [
            (e.t_end, e.level) for e in self.entries if e.kind == "checkpoint"
        ]

    def time_in(self, kind: str) -> float:
        return sum(e.duration for e in self.entries if e.kind == kind)

    def cumulative_curve(self) -> list[tuple[float, int]]:
        """(time, completed instruction count) — runtime-vs-progress data
        for the full-application runtime figures."""
        return [(e.t_end, i + 1) for i, e in enumerate(self.entries)]


@dataclass
class SimulationResult:
    """Output of one BE-SST simulation run."""

    total_time: float
    finish_times: list[float]
    timelines: dict[int, RankTimeline]
    nranks: int
    #: events the run fired, batches completed in place included
    events_fired: int
    checkpoint_time: float          #: rank-0 time spent inside Checkpoint instructions
    compute_time: float             #: rank-0 time in Compute instructions
    collective_time: float          #: rank-0 time in collectives
    faults_injected: int = 0
    rollbacks: int = 0
    wasted_time: float = 0.0        #: recomputed + downtime + requeue attributable to faults
    completed: bool = True          #: False when the job aborted (requeues exhausted)
    nested_faults: int = 0          #: faults that landed inside a recovery window
    torn_checkpoints: int = 0       #: checkpoint instances interrupted mid-write
    verify_failures: int = 0        #: recovery read-backs that failed verification
    escalations: int = 0            #: ladder rungs climbed after failed verifications
    recovery_attempts: int = 0      #: total recovery attempts across all episodes
    requeues: int = 0               #: job resubmissions after recovery exhaustion
    waste_rework: float = 0.0       #: lost forward progress (recomputation)
    waste_downtime: float = 0.0     #: detection + restore + retry delays
    waste_requeue: float = 0.0      #: resubmission + spare-swap/rebuild stalls
    verify_time: float = 0.0        #: rank-0 time inside ABFT Verify kernels
    faults_by_kind: dict = field(default_factory=dict)  #: kind -> injected count
    sdc_injected: int = 0           #: SDC strikes armed
    sdc_detected: int = 0           #: strikes observed at a detection point
    sdc_corrected: int = 0          #: detected strikes fixed in place (ABFT)
    sdc_undetected: int = 0         #: strikes still latent at the end of the run
    wrong_result: bool = False      #: job "completed" but carries undetected SDC
    sdc_detect_latency_s: float = 0.0  #: summed injection→detection latency
    net_faults: int = 0             #: link/switch/netdeg faults applied to the overlay
    net_repairs: int = 0            #: network repairs that restored service
    net_partition_stalls: int = 0   #: recovery attempts stalled by a partitioned group
    net_degraded_commits: int = 0   #: L2+ checkpoints degraded to L1 (partner unreachable)
    net_reroutes: int = 0           #: messages priced over a detour route
    net_retransmits: float = 0.0    #: expected retransmissions on lossy routes
    #: closed forensic recovery-episode summaries (see ``core.forensics``):
    #: each carries its owning fault ids, phase timeline and the exact
    #: per-episode waste charges, so attribution sums to the totals
    episodes: list = field(default_factory=list)
    straggler_excess_s: float = 0.0  #: job-time excess from degraded compute clocks
    straggler_excess_by_node: dict = field(default_factory=dict)  #: node -> excess share

    @property
    def ft_overhead_fraction(self) -> float:
        """Share of rank-0 busy time spent on FT work (checkpoint+verify)."""
        busy = (
            self.compute_time
            + self.collective_time
            + self.checkpoint_time
            + self.verify_time
        )
        ft = self.checkpoint_time + self.verify_time
        return ft / busy if busy > 0 else 0.0

    def checkpoint_marks(self) -> list[tuple[float, int]]:
        tl = self.timelines.get(0)
        return tl.checkpoint_marks() if tl else []


class _SyncDomain:
    """Rendezvous state for one collective call site sequence.

    Collectives are totally ordered per rank (SPMD), so a single counter
    per call-index suffices: the n-th collective executed by each rank is
    matched with every other rank's n-th collective.

    A release's payload is ``(order, instr, cost)``: the released ranks in
    firing order, as the sorted ``(time, seq, rank)`` arrivals, or, for a
    release a cohort scheduled, as an array of rank indices.
    """

    def __init__(self, sim: "BESSTSimulator") -> None:
        self.sim = sim
        self._arrivals: dict[int, list] = {}   # call index -> [(t, seq, comp)]
        self._pending_releases: list[Event] = []
        #: the ranks' shared execution state while they run as one cohort
        self._cohort: Optional[_Cohort] = None

    def arrive(
        self, comp: "_Rank", call_index: int, instr: Collective, t: float, seq: int
    ) -> None:
        """*comp* reached its *call_index*-th collective at *t*, while
        completing the event (or in-place completion) of queue seq *seq*."""
        lst = self._arrivals.setdefault(call_index, [])
        lst.append((t, seq, comp))
        if len(lst) == self.sim.nranks:
            # Arrival order is firing order, (time, seq): ranks that
            # completed in place arrived early in wall-clock terms, and
            # the stable sort puts them back (arrivals inside one event
            # share its key and keep their call order).
            lst.sort(key=_arrival_key)
            self._schedule_release(lst[-1][0], lst, instr)
            del self._arrivals[call_index]

    def _schedule_release(self, t_max: float, order, instr: Collective) -> None:
        cost = self.sim.archbeo.collective_time(instr, self.sim.nranks)
        # One release event frees every rank (equivalent to per-rank
        # events at the same timestamp, at 1/nranks the event count).
        ev = Event(time=t_max + cost, handler=self._release_all, payload=(order, instr, cost))
        self._pending_releases.append(self.sim.engine.schedule_event(ev))

    def _release_all(self, ev: Event) -> None:
        # a fired release no longer needs cancelling on rollback
        self._pending_releases.remove(ev)
        order, instr, cost = ev.payload
        # a simulator with a fault injector never forms a cohort
        if self.sim.fault_injector is None:
            if self._release_cohort(ev, order, instr, cost):
                return
            self.dissolve()
            if isinstance(order, np.ndarray):
                ranks = self.sim._ranks
                # once sorted, only the arrivals' order matters
                order = [(None, None, ranks[i]) for i in order.tolist()]
        now = ev.time
        for _t, _seq, c in order:
            if c.record:
                c.timeline.entries.append(
                    TimelineEntry(now - cost, now, "collective", instr.op)
                )
            c.advance(ev.seq)

    def _release_cohort(self, ev: Event, order, instr: Collective, cost: float) -> bool:
        """Release every rank as one cohort: price the next segment of all
        ranks in NumPy, complete their batches in place as one block of
        events and arrive at the next collective, or finish.  Returns
        False when the segment cannot be taken byte-identically that way
        (DESIGN §19, cohort segments); nothing a rank or the engine shows
        has changed then, and the caller runs the per-rank loop."""
        sim = self.sim
        engine = sim.engine
        ranks = sim._ranks
        n = len(ranks)
        now = ev.time
        if (
            sim._ctx.faults_injected
            or sim._straggler_dom.node_slowdown
            or sim._net_dom.active
            or not engine.in_place_ok(now, n)
        ):
            return False
        co = self._cohort
        if co is None:
            co = _Cohort.form(sim)
            if co is None:
                return False
            self._cohort = co
        if not isinstance(order, np.ndarray):
            order = np.array([c.rank for _t, _seq, c in order])
        seg = co.segment(co.pc)
        if seg is None:
            return False
        markers, lo, hi, steps, draws, commits = seg
        if hi > lo:
            co.draw_ahead(draws, ranks)
            offs, dts, t_off = co.price(steps, sim.archbeo, n)
            t_end = now + t_off
            # The ranks arrive at (t_end, seq), seqs ascending in release
            # order, so a stable sort of t_end in release order is the
            # queued run's (time, seq) sort.
            t_rel = t_end[order]
            perm = np.argsort(t_rel, kind="stable")
            t_max = float(t_rel[perm[-1]])
            if engine.complete_in_place(t_max, n) < 0:
                return False
            co.cursor += draws
            t_start = t_end - t_off
            order_next = order[perm]
        else:  # no batch: every rank arrives, or finishes, right away
            t_end, t_max, order_next = np.full(n, now), now, order
        for c in co.recorded:
            entries = c.timeline.entries
            entries.append(TimelineEntry(now - cost, now, "collective", instr.op))
            for label in markers:
                entries.append(TimelineEntry(now, now, "marker", label))
            if hi > lo:
                r = c.rank
                ts = float(t_start[r])
                for (_c, _i, _m, _p, _t, _l2, kind, label, level, _cm), off, dt in zip(
                    co.ops[lo:hi], offs, dts
                ):
                    off, dt = float(off[r]), float(dt[r])
                    entries.append(
                        TimelineEntry(ts + off, ts + off + dt, kind, label, level=level)
                    )
        if commits:
            self._commit_cohort(co, order, lo, commits, t_start, offs, dts)
        co.pc = hi
        if hi == len(co.ops):
            finish = t_end.tolist()
            for r in order.tolist():
                c = ranks[r]
                c.done = True
                c.finish_time = finish[r]
                sim._rank_finished(c)
            self.dissolve()
            return True
        co.pc += 1
        co.calls += 1
        self._schedule_release(t_max, order_next, co.ops[hi][1])
        return True

    def _commit_cohort(self, co, order, lo, commits, t_start, offs, dts) -> None:
        """Restart points and verify points of a cohort batch, per rank in
        release order, as :meth:`_Rank._commit` records them."""
        ranks = self.sim._ranks
        points = [
            (j, commit, level, ((t_start + offs[j]) + dts[j]).tolist(), dts[j].tolist())
            for j, commit, level in commits
        ]
        for r in order.tolist():
            c = ranks[r]
            for j, commit, level, t_done, cost in points:
                if c._commit_point(commit, lo + j + 1, co.calls, t_done[r], cost[r], level):
                    # only an injected fault can start a recovery
                    raise RuntimeError("a fault-free cohort commit started a recovery")

    def dissolve(self) -> None:
        """Hand the cohort's shared state back to the ranks (a no-op
        without a cohort); the ranks then run on their own."""
        co = self._cohort
        if co is None:
            return
        self._cohort = None
        for r, c in enumerate(self.sim._ranks):
            c.pc = co.pc
            c.collective_calls = co.calls
            if co.tapes is not None:
                c.tape = co.tapes[r].tolist()
                c.cursor = co.cursor

    def reset(self, engine: Engine) -> None:
        """Drop all rendezvous state (used on fault rollback)."""
        for ev in self._pending_releases:
            engine.cancel(ev)
        self._pending_releases.clear()
        self._arrivals.clear()


class _Cohort:
    """Execution state shared by the ranks of a fault-free simulator that
    all run one compiled op list (cohort segments, DESIGN §19).

    Released together from the same collective, such ranks are at the
    same program position, have passed the same collectives and drawn
    the same number of noise indices.  While a cohort exists, it holds
    that state instead of the ranks: ``pc``, ``calls`` (collectives
    passed) and the tape ``cursor`` are common to every rank, and
    ``tapes`` is an ``nranks × width`` int32 array of each rank's
    pre-drawn factor indices (``None`` when Monte Carlo is off).
    :meth:`_SyncDomain.dissolve` writes it back.
    """

    def __init__(self, sim: "BESSTSimulator") -> None:
        r0 = sim._ranks[0]
        self.ops = r0.ops
        self.pc = r0.pc
        self.calls = r0.collective_calls
        self.cursor = r0.cursor
        self.tape_n = r0.tape_n
        self.tapes = None
        if r0.tape is not None:
            self.tapes = np.empty((sim.nranks, len(r0.tape)), dtype=np.int32)
            for r, c in enumerate(sim._ranks):
                # the cohort holds the tapes now (dissolve gives them back)
                self.tapes[r], c.tape = c.tape, []
        self.recorded = [c for c in sim._ranks if c.record]
        #: compiled segments by the ids of their ops (see :meth:`segment`),
        #: and factor tables as arrays by the id of their list
        self._segments: dict[tuple, Optional[tuple]] = {}
        self._factors: dict[int, np.ndarray] = {}

    @classmethod
    def form(cls, sim: "BESSTSimulator") -> Optional["_Cohort"]:
        """The cohort of *sim*'s ranks, released together from one
        collective, or ``None`` unless they share one op list and price
        their model calls from noise tapes or without noise."""
        ranks = sim._ranks
        ops = ranks[0].ops
        if ranks[0].tape is None and sim.monte_carlo:
            return None  # model calls draw through predict, rank by rank
        if any(c.ops is not ops for c in ranks):
            return None
        return cls(sim)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # keyed by object ids: rebuilt on demand after a restore
        state["_segments"], state["_factors"] = {}, {}
        return state

    def segment(self, pc: int) -> Optional[tuple]:
        """The segment from *pc* to the next collective or the end:
        ``(markers, lo, hi, steps, draws, commits)``.  ``markers`` are the
        labels of leading markers; ops ``lo:hi`` are the batch, priced by
        ``steps`` with ``draws`` noise draws; ``commits`` lists the batch's
        restart and verify points as ``(offset, commit, level)``.  ``None``
        when a model call is unbound, so that the rank path raises.  Each
        distinct run of ops (every timestep of an unrolled loop is one)
        is compiled once."""
        ops = self.ops
        end = pc
        while end < len(ops) and ops[end][0] != _COLLECTIVE:
            end += 1
        span = ops[pc:end]
        key = tuple(map(id, span))  # ops live as long as the cohort
        if key not in self._segments:
            self._segments[key] = self._compile(span)
        body = self._segments[key]
        if body is None:
            return None
        markers, steps, draws, commits = body
        return markers, pc + len(markers), end, steps, draws, commits

    def _compile(self, span: list) -> Optional[tuple]:
        """``(markers, steps, draws, commits)`` of a run of local ops."""
        markers = []
        while span and span[0][0] == _MARKER:
            markers.append(span.pop(0)[7])
        steps, commits, draws = [], [], 0
        for j, (code, instr, model, params, table, _l2, _k, _lb, level, commit) in enumerate(span):
            if code == _MODEL:
                if self.tapes is not None:
                    value, factors, floor = table
                    arr = self._factors.get(id(factors))
                    if arr is None:
                        arr = self._factors[id(factors)] = np.array(factors, dtype=np.float64)
                    steps.append((_DRAW, value, arr, floor))
                    draws += 1
                elif model is None:
                    return None
                else:
                    steps.append((_MODEL, model, params, None))
            else:
                steps.append((code, instr, None, None))
            if commit != _NO_COMMIT:
                commits.append((j, commit, level))
        return markers, steps, draws, commits

    def draw_ahead(self, draws: int, ranks: list) -> None:
        """Make sure every rank's tape holds *draws* unread indices,
        refilling each rank from its own stream in blocks, as
        :meth:`_Rank._price_batch` does."""
        tapes = self.tapes
        if tapes is None:
            return
        unread = tapes.shape[1] - self.cursor
        if unread >= draws:
            return
        blocks = -(-(draws - unread) // _TAPE_BLOCK)
        new = np.empty((len(ranks), unread + blocks * _TAPE_BLOCK), dtype=tapes.dtype)
        new[:, :unread] = tapes[:, self.cursor:]
        for r, c in enumerate(ranks):
            rng = c.rng
            for at in range(unread, new.shape[1], _TAPE_BLOCK):
                new[r, at:at + _TAPE_BLOCK] = rng.integers(0, self.tape_n, size=_TAPE_BLOCK)
        self.tapes = new
        self.cursor = 0

    def price(self, steps: list, archbeo: ArchBEO, n: int) -> tuple[list, list, np.ndarray]:
        """Offsets and durations of each batch op, and the batch total,
        per rank: the scalar path's IEEE operations, elementwise."""
        tapes, cursor = self.tapes, self.cursor
        t_off = np.zeros(n)
        offs, dts = [], []
        for code, a, b, floor in steps:
            if code == _DRAW:
                # max(value * factor, floor), as predict() draws it
                value = a * b[tapes[:, cursor]]
                cursor += 1
                dt = np.where(floor > value, floor, value)
            elif code == _MODEL:
                dt = np.full(n, a.predict(b, None))
            elif code == _EXCHANGE:
                dt = np.full(n, archbeo.exchange_time(a))
            else:
                dt = np.zeros(n)
            offs.append(t_off)
            dts.append(dt)
            t_off = t_off + dt
        return offs, dts, t_off


#: opcodes of a compiled program position (see :func:`_compile_op`), and
#: a cohort's pricing step for a model call drawn from the noise tape
_COLLECTIVE, _MARKER, _MODEL, _EXCHANGE, _DRAW = range(5)
#: what completing a position records: nothing, a restart point, or an
#: SDC detection point
_NO_COMMIT, _CKPT_COMMIT, _VERIFY_COMMIT = range(3)
#: model-noise draws taken from a rank's stream per noise-tape refill
_TAPE_BLOCK = 64
#: sort key of a collective arrival: the firing order of its event
_arrival_key = itemgetter(0, 1)


def _compile_op(instr: Instruction, archbeo: ArchBEO, monte_carlo: bool) -> tuple:
    """Resolve *instr* once into its op-table entry.

    The entry is ``(opcode, instr, model, params, table, l2, kind, label,
    level, commit)``: the bound model and frozen ``param_dict()`` of a
    model call (``model`` is ``None`` for an unbound kernel, which then
    raises ArchBEO's ``ModelError`` when priced), its noise table when
    Monte Carlo is on, whether it is an L2+ checkpoint, and the timeline
    ``kind``/``label``/``level`` the rank records for it.
    """
    model = params = table = None
    l2 = False
    commit = _NO_COMMIT
    if isinstance(instr, Collective):
        code, kind = _COLLECTIVE, "collective"
    elif isinstance(instr, Marker):
        code, kind = _MARKER, "marker"
    elif isinstance(instr, (Compute, Checkpoint, Verify)):
        code, kind = _MODEL, "compute"
        model = archbeo.models.get(instr.kernel)
        params = instr.param_dict()
        noise_table = getattr(model, "noise_table", None)
        if monte_carlo and noise_table is not None:
            try:
                table = noise_table(params)
            except ModelError:
                pass  # predict raises it again when the op is priced
        if isinstance(instr, Checkpoint):
            kind, l2, commit = "checkpoint", instr.level >= 2, _CKPT_COMMIT
        elif isinstance(instr, Verify):
            kind, commit = "verify", _VERIFY_COMMIT
    elif isinstance(instr, Exchange):
        code, kind = _EXCHANGE, "exchange"
    else:
        raise TypeError(
            f"the simulator cannot execute {type(instr).__name__} instructions "
            "(expected Compute, Checkpoint, Verify, Exchange, Collective or Marker)"
        )
    label = getattr(instr, "kernel", None) or getattr(
        instr, "name", type(instr).__name__.lower()
    )
    level = getattr(instr, "level", 0)
    return (code, instr, model, params, table, l2, kind, label, level, commit)


def _tape_size(ops: list) -> int:
    """Factor-table size shared by every model op of *ops*, else 0.

    A rank may pre-draw its noise indices in blocks only when each of its
    model calls would draw ``integers(0, n)`` with one common ``n``.
    """
    sizes = {
        len(table[1]) if table is not None else 0
        for code, _i, _m, _p, table, *_ in ops
        if code == _MODEL
    }
    return sizes.pop() if len(sizes) == 1 else 0


class _Rank(Component):
    """One simulated MPI rank executing its compiled instruction stream."""

    def __init__(
        self,
        rank: int,
        sim: "BESSTSimulator",
        ops: list[tuple],
        tape_n: int,
    ):
        super().__init__(f"rank{rank}")
        self.rank = rank
        self.sim = sim
        #: the rank's instruction stream, each position compiled by
        #: :func:`_compile_op`; ranks with equal programs share the list
        self.ops = ops
        #: noise tape: pre-drawn factor indices, consumed from ``cursor``
        #: and refilled a block at a time once read to the end; ``None``
        #: when model calls draw through ``predict`` instead
        self.tape_n = tape_n
        self.tape: Optional[list] = [] if tape_n else None
        self.cursor = 0
        #: ``pc``, ``collective_calls``, ``tape`` and ``cursor`` are held
        #: by the simulator's cohort while one exists (see ``_Cohort``)
        self.pc = 0
        self.collective_calls = 0
        self.done = False
        self.finish_time: Optional[float] = None
        self.record = rank in sim._recorded_ranks
        self.timeline = RankTimeline(rank)
        #: checkpoints completed by this rank
        self.ckpt_seq = 0
        #: ckpt_seq -> (resume pc, collective_calls, completion time,
        #: ckpt cost, checkpoint level); seq 0 is "the beginning" and is
        #: never pruned.  A short history window is retained so
        #: level-aware recovery can walk back to an older, higher-level
        #: checkpoint when the newest one does not cover the fault kind.
        self.restart_history: dict[int, tuple[int, int, float, float, int]] = {
            0: (0, 0, 0.0, 0.0, 0)
        }
        self._pending: Optional[Event] = None

    def setup(self) -> None:
        self._pending = self.schedule(0.0, self._on_resume)

    def _on_resume(self, ev: Event) -> None:
        # Bound-method resume handler (not a lambda) so the whole rank —
        # pending events included — stays snapshot-picklable.
        self.advance(ev.seq)

    # -- execution ---------------------------------------------------------------

    def advance(self, seq: int) -> None:
        """Execute instructions until blocking on a collective or finishing.

        The rank runs from the current time, inside the event of queue
        seq *seq*.  Each run of local instructions is priced as one
        batch, then either scheduled as a completion event (the rank
        resumes in :meth:`_on_batch_done`) or, when the engine allows it
        and the simulator is fault-free, completed in place: committed at
        its end time under the seq the event would have taken, and the
        loop goes on from there (barrier-to-barrier execution).
        """
        self._pending = None
        sim = self.sim
        engine = self.engine
        ops = self.ops
        n = len(ops)
        now = engine.now
        while self.pc < n:
            code, instr, _m, _p, _t, _l2, _k, label, _lv, _c = ops[self.pc]
            if code == _COLLECTIVE:
                self.pc += 1
                self.collective_calls += 1
                sim.sync.arrive(self, self.collective_calls - 1, instr, now, seq)
                return
            if code == _MARKER:
                if self.record:
                    self.timeline.entries.append(TimelineEntry(now, now, "marker", label))
                self.pc += 1
                continue
            # Batch consecutive non-synchronizing instructions.  A batch
            # runs up to the next collective, so the rank schedules at most
            # one, and only while ``now`` is still the engine clock.
            dt, batch = self._price_batch()
            t_end = now + dt
            # Only a fault can act on a rank between two of its events.
            if sim.fault_injector is None and not sim._ctx.faults_injected:
                seq = engine.complete_in_place(t_end)
            else:
                seq = -1
            if seq < 0:
                self._pending = self.schedule(dt, self._on_batch_done, payload=batch)
                return
            now = t_end
            if self._commit(batch, now):
                return
        if not self.done:
            self.done = True
            self.finish_time = now
            sim._rank_finished(self)

    def _price_batch(self) -> tuple[float, list]:
        """Price the run of local instructions starting at ``pc``.

        Returns total duration and ``(instr, start_offset, duration)``
        records for the timeline.
        """
        sim = self.sim
        ops = self.ops
        pc = self.pc
        t_off = 0.0
        batch = []
        # Straggler degradation: local (clocked) work on a degraded node
        # runs slower by the node's slowdown factor.  Exchanges are
        # network-bound and keep their modeled time.  The factor is read
        # once per batch — an already-priced batch keeps its price even
        # if a repair lands mid-flight (batch granularity).
        slow = sim._slowdown_for_rank(self.rank)
        slowed_t = 0.0
        tape, cursor = self.tape, self.cursor
        n = len(ops)
        while pc < n:
            code, instr, model, params, table, l2, _k, _lb, _lv, _c = ops[pc]
            if code == _MODEL:
                if tape is not None:
                    # One draw is exactly what predict() computes from
                    # the same stream position: max(value * factor, floor).
                    if cursor == len(tape):
                        tape = self.tape = self.rng.integers(
                            0, self.tape_n, size=_TAPE_BLOCK
                        ).tolist()
                        cursor = 0
                    value, factors, floor = table
                    value *= factors[tape[cursor]]
                    cursor += 1
                    dt = slow * (floor if floor > value else value)
                elif model is not None:
                    dt = slow * model.predict(params, self._model_rng())
                else:
                    dt = slow * sim.archbeo.predict(instr.kernel, params, self._model_rng())
                if l2 and sim._net_active:
                    # L2/partner-copy traffic crosses the (possibly
                    # degraded) fabric and pays the real network cost.
                    dt *= sim._net_ckpt_factor(self.rank)
                if slow != 1.0:
                    slowed_t += dt
            elif code == _EXCHANGE:
                dt = sim.archbeo.exchange_time(instr)
            elif code == _MARKER:
                dt = 0.0
            else:
                break
            batch.append((instr, t_off, dt))
            t_off += dt
            pc += 1
        self.pc = pc
        self.cursor = cursor
        if slowed_t > 0.0:
            # Forensic accounting only: the excess over healthy-clock time
            # for this batch's slowed instructions (dt includes the factor,
            # so excess = dt - dt/slow).
            sim._note_straggler_excess(self.rank, slowed_t * (1.0 - 1.0 / slow))
        return t_off, batch

    def _on_batch_done(self, ev: Event) -> None:
        # the firing event is no longer pending: a recovery the commit
        # starts must not cancel it
        self._pending = None
        if not self._commit(ev.payload, self.now):
            self.advance(ev.seq)

    def _commit(self, batch: list, t_end: float) -> bool:
        """Complete *batch*, the instructions just before ``pc``, at
        *t_end*: timeline entries, restart points and the domains'
        checkpoint/verify hooks.  Returns True when a hook started a
        recovery episode, which discards the rest of the batch."""
        # the last entry's offset + duration is the batch total, added in
        # program order exactly as when it was priced (sum() would agree
        # only where it does not compensate, i.e. before Python 3.12)
        _instr, off, dt = batch[-1]
        t_start = t_end - (off + dt)
        base = self.pc - len(batch)  # pc of the first batched instruction
        ops = self.ops
        for i, (_instr, off, dt) in enumerate(batch):
            _c, _in, _m, _p, _t, _l2, kind, label, level, commit = ops[base + i]
            if self.record:
                self.timeline.entries.append(
                    TimelineEntry(
                        t_start + off, t_start + off + dt, kind, label, level=level
                    )
                )
            if commit != _NO_COMMIT and self._commit_point(
                commit, base + i + 1, self.collective_calls, t_start + off + dt, dt, level
            ):
                # Detection (a verify, or write validation) caught latent
                # SDC: recovery has paused every rank and the rest of the
                # batch is discarded by the rollback — do not advance.
                return True
        return False

    def _commit_point(
        self, commit: int, pc: int, calls: int, t_done: float, cost: float, level: int
    ) -> bool:
        """Commit the checkpoint or verify instruction just before *pc*,
        done at *t_done* after *calls* collectives.  Returns True when a
        domain hook started a recovery episode."""
        if commit == _VERIFY_COMMIT:
            return self.sim._on_verify_point(self)
        # Restart point: resume AFTER this checkpoint instruction.  The
        # recorded level is the protection actually achieved (a
        # partitioned partner degrades an L2+ write to L1).
        self.ckpt_seq += 1
        self.restart_history[self.ckpt_seq] = (
            pc,
            calls,
            t_done,
            cost,
            self.sim._effective_ckpt_level(self.rank, level),
        )
        stale = self.ckpt_seq - 6
        if stale > 0:
            self.restart_history.pop(stale, None)
        return self.sim._on_checkpoint_commit(self, self.ckpt_seq)

    def _model_rng(self) -> Optional[np.random.Generator]:
        return self.rng if self.sim.monte_carlo else None

    # -- fault handling -----------------------------------------------------------

    def rollback(self, seq: int, resume_delay: float) -> None:
        """Reset to checkpoint *seq*; resume after *resume_delay*."""
        if self._pending is not None:
            self.engine.cancel(self._pending)
            self._pending = None
        pc, coll, t_ckpt, ckpt_cost, _level = self.restart_history[seq]
        # discard any checkpoint taken after the committed one
        for later in [s for s in self.restart_history if s > seq]:
            del self.restart_history[later]
        self.ckpt_seq = seq
        self.pc = pc
        self.collective_calls = coll
        self.done = False
        self.finish_time = None
        if self.record:
            self.timeline.entries.append(
                TimelineEntry(self.now, self.now + resume_delay, "rollback", "rollback")
            )
        # Track the resume event so a second fault during recovery can
        # cancel it (otherwise the rank would resume twice).
        self._pending = self.schedule(resume_delay, self._on_resume)

    def pause(self) -> None:
        """Cancel whatever this rank is doing (fault arrived)."""
        if self._pending is not None:
            self.engine.cancel(self._pending)
            self._pending = None

    def checkpoint_in_progress(self, t: float) -> Optional[int]:
        """Level of the Checkpoint instruction this rank is inside at *t*,
        or None.  Batched instructions commit only when the batch event
        fires, so the pending batch localises the write window exactly."""
        ev = self._pending
        if ev is None or ev.cancelled or not isinstance(ev.payload, list):
            return None
        batch = ev.payload
        _instr, off, dt = batch[-1]
        start = ev.time - (off + dt)
        for instr, off, dt in batch:
            if (
                isinstance(instr, Checkpoint)
                and dt > 0
                and start + off <= t < start + off + dt
            ):
                return instr.level
        return None

    def handle_event(self, port_name, payload, time) -> None:  # pragma: no cover
        raise RuntimeError("rank components do not use ports")


class BESSTSimulator:
    """Drives one BE-SST simulation of an AppBEO on an ArchBEO.

    Parameters
    ----------
    appbeo / archbeo:
        The application and architecture models.
    nranks:
        MPI ranks to simulate.
    params:
        Application parameters (merged over the AppBEO defaults).
    seed:
        Seed for per-rank model-noise streams.
    monte_carlo:
        When true (default), model predictions draw from calibration
        distributions; when false, deterministic central predictions.
    record_timelines:
        Which ranks record full timelines: ``"rank0"`` (default),
        ``"all"``, or ``"none"``.
    fault_injector:
        Optional :class:`~repro.core.fault_injection.FaultInjector`
        enabling Cases 2/4.
    recovery_policy:
        Optional :class:`~repro.core.fault_injection.RecoveryPolicy`
        enabling the full fault lifecycle (torn checkpoints, verification
        failures, escalation, requeue).  ``None`` keeps the seed
        semantics: one atomic, always-successful rollback per fault.
    """

    def __init__(
        self,
        appbeo: AppBEO,
        archbeo: ArchBEO,
        nranks: int,
        params: Optional[Mapping[str, float]] = None,
        seed: int = 0,
        monte_carlo: bool = True,
        record_timelines: str = "rank0",
        fault_injector=None,
        recovery_policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        if record_timelines not in ("rank0", "all", "none"):
            raise ValueError(f"invalid record_timelines {record_timelines!r}")
        appbeo.check_ranks(nranks)
        self.appbeo = appbeo
        self.archbeo = archbeo
        self.nranks = nranks
        self.params = dict(params or {})
        self.monte_carlo = monte_carlo
        self.engine = Engine(seed=seed)
        self.sync = _SyncDomain(self)
        self.fault_injector = fault_injector
        self.policy = recovery_policy or RecoveryPolicy.legacy()
        self._recorded_ranks = (
            set(range(nranks))
            if record_timelines == "all"
            else {0}
            if record_timelines == "rank0"
            else set()
        )
        self._ranks: list[_Rank] = []
        self._finished = 0
        self._result: Optional[SimulationResult] = None
        self._flightrec = None
        # Pluggable fault machinery: the shared recovery context owns the
        # lifecycle (ladder walk, episodes, waste buckets, metric/forensic
        # plumbing); one domain object per registered fault family owns
        # the kind-specific state and behaviour (repro.faults).  Named RNG
        # streams are keyed by name, not creation order, so the domains'
        # draw streams are identical to the pre-refactor monolith.
        self._ctx = RecoveryContext(self)
        self._domains = build_domains(self, self._ctx)
        self._ctx.domains = self._domains
        self._domain_by_kind = {
            kind: domain for domain in self._domains for kind in domain.kinds
        }
        by_name = {domain.name: domain for domain in self._domains}
        # hot-path shortcuts (batch pricing reads these every event)
        self._straggler_dom = by_name["straggler"]
        self._net_dom = by_name["network"]

        # Compile each rank's program once into an op table.  Ops are
        # memoized per distinct instruction *by value* (instructions are
        # shared value objects, never keyed on identity), and a rank whose
        # program equals the previous rank's reuses its op list and tape
        # decision wholesale.
        memo: dict[Instruction, tuple] = {}
        program = ops = None
        tape_n = 0
        for r in range(nranks):
            built = self.appbeo.build(r, nranks, self.params)
            if built != program:
                program = built
                ops = []
                for instr in program:
                    op = memo.get(instr)
                    if op is None:
                        op = memo[instr] = _compile_op(instr, archbeo, monte_carlo)
                    ops.append(op)
                tape_n = _tape_size(ops) if monte_carlo else 0
            self._ranks.append(self.engine.register(_Rank(r, self, ops, tape_n)))

        if fault_injector is not None:
            fault_injector.attach(self)

    # -- callbacks ---------------------------------------------------------------------

    def _rank_finished(self, rank: "_Rank") -> None:
        self._finished += 1
        if self._finished == self.nranks and self.fault_injector is not None:
            self.fault_injector.detach()

    #: per-kind minimum recovery checkpoint level (see
    #: ``repro.faults.registry`` for the rationale table)
    MIN_LEVEL_FOR_KIND = MIN_LEVEL_FOR_KIND

    @property
    def wasted_time(self) -> float:
        """Total fault-attributable waste (rework + downtime + requeue)."""
        return self._ctx.wasted_time

    @property
    def faults_injected(self) -> int:
        """Faults injected so far (lifecycle counter on the context)."""
        return self._ctx.faults_injected

    @property
    def rollbacks(self) -> int:
        """Coordinated rollbacks performed so far."""
        return self._ctx.rollbacks

    @property
    def state(self) -> str:
        """Lifecycle state: running | recovering | requeued | aborted | done."""
        ctx = self._ctx
        if ctx.aborted:
            return "aborted"
        if self._result is not None or self._finished == self.nranks:
            return "done"
        if ctx.recovery is not None:
            return "requeued" if ctx.recovery.requeued else "recovering"
        return "running"

    # -- forensics ---------------------------------------------------------------------

    def attach_flightrec(self, rec):
        """Attach (or with ``None`` detach) a flight recorder.

        The recorder receives every fault/recovery lifecycle record plus
        the engine's periodic progress ticks.  Recording is strictly
        observational: it never draws randomness or schedules events, so
        simulation output is identical with it on or off.
        """
        self._flightrec = rec
        self.engine.attach_flightrec(rec)
        return rec

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_flightrec"] = None  # open spill handle: reattach post-restore
        return state

    # -- fault lifecycle ---------------------------------------------------------------
    #
    # The lifecycle itself lives in repro.faults (RecoveryContext + one
    # domain per fault family).  What remains here is the registry
    # dispatch in inject_fault plus the thin hot-path hooks the rank
    # components call every batch/commit.

    def _slowdown_for_rank(self, rank: int) -> float:
        return self._straggler_dom.slowdown_for_rank(rank)

    def _note_straggler_excess(self, rank: int, excess: float) -> None:
        self._straggler_dom.note_excess(rank, excess)

    @property
    def _net_active(self) -> bool:
        return self._net_dom.active

    def _net_ckpt_factor(self, rank: int) -> float:
        return self._net_dom.ckpt_factor(rank)

    def _effective_ckpt_level(self, rank: int, level: int) -> int:
        return self._net_dom.effective_ckpt_level(rank, level)

    def _on_checkpoint_commit(self, rank: "_Rank", seq: int) -> bool:
        for domain in self._domains:
            if domain.on_checkpoint_commit(rank, seq):
                return True
        return False

    def _on_verify_point(self, rank: "_Rank") -> bool:
        for domain in self._domains:
            if domain.on_verify_point(rank):
                return True
        return False

    def inject_fault(
        self,
        node: int,
        kind: str = "software",
        detail: Optional[FaultDetail] = None,
        event: Optional[FaultEvent] = None,
    ) -> None:
        """Coordinated, level-aware, lifecycle-realistic failure handling.

        The simulator core only dispatches: the kind is resolved to its
        registered :class:`~repro.faults.domains.FaultDomain`, which owns
        the semantics (see ``repro.faults``).  Fail-stop kinds
        (``software``/``node``/``burst``) start (or re-enter, for nested
        faults) a recovery episode walking the escalation ladder; ``sdc``
        arms a latent corruption flag; ``straggler`` degrades the node's
        compute clock until repair; ``link``/``switch``/``netdeg`` mutate
        the topology health overlay.

        *detail* carries the kind-specific parameters drawn by the
        injector (domain defaults applied when called directly); *event*
        is the injector's log record, updated in place with detection
        outcomes.
        """
        # the fault handlers read and reset the ranks' own state
        self.sync.dissolve()
        ctx = self._ctx
        if ctx.aborted or self._finished == self.nranks:
            return
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected "
                f"{sorted(FAULT_KINDS)}"
            )
        if ctx.recovery is not None and ctx.recovery.requeued:
            # The job is sitting in the scheduler queue: node failures
            # during the resubmission window do not hit it.
            return
        domain = self._domain_by_kind[kind]
        if detail is None:
            detail = domain.default_detail(kind, node)
        if event is None:
            event = FaultEvent(
                self.engine.now,
                node,
                kind,
                victims=detail.victims,
                slowdown=detail.slowdown,
            )
        ctx.count_injection(kind)
        # Forensic fault id: the injector appends its log record before
        # dispatching here, so the id is simply that record's log index
        # (joined by identity, not by a parallel counter — early returns
        # above cannot desynchronise it).  Direct calls carry no id.
        fid = -1
        if self.fault_injector is not None and event is not None:
            log = self.fault_injector.log.entries
            if log and log[-1] is event:
                fid = len(log) - 1
        ctx.note("inject", fault=fid, fault_kind=kind, node=node)
        domain.apply(kind, node, detail, event, fid)

    # -- snapshot / restore -----------------------------------------------------------------

    def enable_snapshots(
        self,
        directory: str,
        every_events: Optional[int] = None,
        every_wall_s: Optional[float] = None,
        keep: int = 2,
    ) -> AutoSnapshotPolicy:
        """Checkpoint the *whole simulator* periodically during :meth:`run`.

        The capture root is this simulator (not just its engine), so
        :meth:`restore` rebuilds ranks, sync domains, recovery state and
        the fault injector together and the run can simply continue.
        """
        return self.engine.enable_autosnapshot(
            directory,
            every_events=every_events,
            every_wall_s=every_wall_s,
            keep=keep,
            root=self,
        )

    def snapshot(self, meta: Optional[dict] = None) -> Snapshot:
        """Capture the full simulator state between events."""
        extra = {
            "sim_time": float(self.engine.now),
            "events_fired": self.engine.events_fired,
        }
        if meta:
            extra.update(meta)
        return Snapshot.capture(self, meta=extra)

    @classmethod
    def restore(cls, source) -> "BESSTSimulator":
        """Rebuild a simulator from a :class:`Snapshot` or a saved path.

        The returned simulator resumes exactly where the capture stopped:
        call :meth:`run` to continue to completion.  The final result is
        byte-identical to a run that was never interrupted.
        """
        snap = Snapshot.load(source) if isinstance(source, str) else source
        sim = snap.restore()
        if not isinstance(sim, cls):
            raise SnapshotError(
                f"snapshot holds a {type(sim).__name__}, expected "
                f"{cls.__name__} (or a subclass)"
            )
        sim.engine._running = False
        return sim

    # -- run --------------------------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Execute the simulation to completion and return the result."""
        if self._result is not None:
            return self._result
        self.engine.run(max_events=max_events)
        ctx = self._ctx
        if not ctx.aborted:
            unfinished = [r.rank for r in self._ranks if not r.done]
            if unfinished:
                raise RuntimeError(
                    f"simulation ended with unfinished ranks {unfinished[:5]}"
                )
        tl0 = self._ranks[0].timeline
        # Lifecycle counters come from the recovery context; each fault
        # domain contributes its own fields (in registry order, which
        # also fixes the order of end-of-run metric emission).
        fields = ctx.result_fields()
        for domain in self._domains:
            fields.update(domain.result_fields())
        self._result = SimulationResult(
            total_time=(
                ctx.abort_time
                if ctx.aborted
                else max(r.finish_time for r in self._ranks)
            ),
            finish_times=(
                [] if ctx.aborted else [r.finish_time for r in self._ranks]
            ),
            timelines={r.rank: r.timeline for r in self._ranks if r.record},
            nranks=self.nranks,
            events_fired=self.engine.events_fired,
            checkpoint_time=tl0.time_in("checkpoint"),
            compute_time=tl0.time_in("compute") + tl0.time_in("exchange"),
            collective_time=tl0.time_in("collective"),
            verify_time=tl0.time_in("verify"),
            **fields,
        )
        return self._result
