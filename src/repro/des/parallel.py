"""Conservative parallel discrete-event engine (YAWNS-style windows).

SST executes its component graph across MPI ranks using conservative
synchronisation: because every cross-rank interaction crosses a link with
non-zero latency, each rank may safely process all events in the window
``[t, t + lookahead)`` without hearing from its peers, where ``lookahead``
is the minimum cross-rank link latency.  At each window boundary the ranks
exchange the remote events they generated.

This class reproduces that algorithm with in-process partitions.  Each
partition owns a private event queue; windows are computed from the global
minimum next-event time; partitions are processed one after another inside
a window (which is legitimate precisely because the conservative invariant
guarantees they cannot affect each other within the window).  The result
is, by construction, identical to the sequential engine's — a property the
test suite checks event-trace-for-event-trace.

**Partition failover.**  With :meth:`ParallelEngine.enable_failover`, the
engine additionally simulates *rank failures* the way fault-tolerant PDES
systems (D'Angelo et al.) handle them: a failure process (reusing the
campaign's :class:`~repro.core.fault_injection.FaultModel` draws) kills a
partition during a window; the loss is detected at the window boundary;
the engine restores itself from the snapshot it captured at the start of
that window, optionally migrates the dead partition's components onto the
survivors (:func:`~repro.des.partition.migrate_assignment`), recomputes
the lookahead, and re-executes.  Because the restore rewinds every queue,
clock, counter and RNG stream to the boundary, the recovered run's event
trace is byte-identical to a failure-free run — the same invariant the
sequential engine's snapshot/restore provides, proven by
``tests/des/test_failover.py``.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, Mapping, Optional

import numpy as np

from repro.des.engine import Engine, SimulationError
from repro.des.event import Event, EventQueue
from repro.des.snapshot import Snapshot


class PartitionFailover:
    """Simulated rank-failure process for :class:`ParallelEngine`.

    Parameters
    ----------
    model:
        Failure process with ``draw_interarrival(rng, n) -> float`` —
        e.g. :class:`repro.core.fault_injection.FaultModel` (duck-typed
        so the DES layer stays import-independent of ``repro.core``).
    seed:
        Private RNG seed.  Failure draws deliberately live *outside*
        engine snapshots: restoring a window must not rewind the failure
        stream, or the same failure would recur forever.
    migrate:
        When true, a failed partition's components are rebalanced onto
        the survivors (the partition stays dead); when false, the
        partition itself restarts from the boundary snapshot (a
        transient rank crash).
    max_failures:
        Stop injecting after this many failures.
    """

    def __init__(
        self,
        model,
        seed: int = 0,
        migrate: bool = True,
        max_failures: int = 4,
    ) -> None:
        if max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {max_failures}")
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.migrate = migrate
        self.max_failures = max_failures
        #: partitions permanently lost (``migrate=True`` only)
        self.failed_parts: set[int] = set()
        # telemetry
        self.failures_injected = 0
        self.restores = 0
        self.migrations = 0
        self.failure_log: list[tuple[float, int]] = []  #: (sim time, partition)
        self._next_at: Optional[float] = None

    def _live_parts(self, engine: "ParallelEngine") -> list[int]:
        """Partitions that own at least one component and are not dead."""
        owning = set((engine._assignment or {}).values())
        return sorted(owning - self.failed_parts)

    def poll(
        self, engine: "ParallelEngine", t_start: float, window_end: float
    ) -> Optional[tuple[int, float]]:
        """Did a rank fail before *window_end*?  Returns (victim, time)."""
        if self.failures_injected >= self.max_failures:
            return None
        live = self._live_parts(engine)
        if len(live) < 2:
            return None  # nobody to fail over to (or onto)
        if self._next_at is None:
            self._next_at = t_start + float(
                self.model.draw_interarrival(self.rng, len(live))
            )
        if self._next_at >= window_end:
            return None
        t_fail = self._next_at
        victim = int(live[int(self.rng.integers(0, len(live)))])
        self._next_at = None  # redrawn from the post-recovery boundary
        self.failures_injected += 1
        self.failure_log.append((t_fail, victim))
        return victim, t_fail

    def apply(self, engine: "ParallelEngine", victim: int) -> None:
        """Post-restore recovery: kill-and-migrate, or restart in place."""
        self.restores += 1
        if self.migrate:
            self.failed_parts.add(victim)
            engine._migrate_partition(victim, self.failed_parts)
            self.migrations += 1


class ParallelEngine(Engine):
    """Partitioned conservative engine.

    Parameters
    ----------
    nparts:
        Number of partitions ("virtual ranks").  Must not exceed the
        number of registered components at ``run()`` time.
    partitioner:
        Optional callable ``(names, nparts, edges) -> {name: part}``.  By
        default a contiguous block partition over sorted names is used.
        A precomputed mapping may also be supplied via *assignment*.
    assignment:
        Optional explicit ``{component name: partition}`` mapping; wins
        over *partitioner*.
    """

    def __init__(
        self,
        nparts: int = 2,
        seed: int = 0,
        trace: bool = False,
        partitioner: Optional[Callable] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> None:
        super().__init__(seed=seed, trace=trace)
        if nparts < 1:
            raise SimulationError(f"nparts must be >= 1, got {nparts}")
        self.nparts = nparts
        self._partitioner = partitioner
        self._assignment: Optional[dict[str, int]] = (
            dict(assignment) if assignment is not None else None
        )
        self._queues: list[EventQueue] = []
        self.lookahead: float = float("inf")
        self.windows_executed = 0
        self._active_part: Optional[int] = None
        self._window_end: float = float("inf")
        #: partition receiving engine-level (``dst=None``) events; moves
        #: to the lowest live partition when partition 0 fails over
        self._home_part = 0
        self._failover: Optional[PartitionFailover] = None

    # -- event routing -------------------------------------------------------

    def _part_of(self, name: Optional[str]) -> int:
        if self._assignment is None:
            return self._home_part
        if name is None:
            return self._home_part
        return self._assignment.get(name, self._home_part)

    def schedule_event(self, event: Event) -> Event:
        if event.time < self.now:
            raise SimulationError(
                f"event scheduled in the past: {event.time} < now={self.now}"
            )
        if not self._queues:
            # Not yet running: stage through the base queue; run() will
            # distribute staged events to partition queues.
            return self.queue.push(event)
        target = self._part_of(event.dst)
        if (
            self._active_part is not None
            and target != self._active_part
            and event.time < self._window_end
        ):
            # A conservative engine must never receive an event inside the
            # current safe window from another partition.
            raise SimulationError(
                "conservative violation: cross-partition event at "
                f"t={event.time} inside window ending {self._window_end} "
                f"({event.src} -> {event.dst}); link latency below lookahead?"
            )
        if event.seq < 0:
            event.seq = self.queue.take_seq()
        return self._queues[target].push(event)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event, counting it in the queue that holds it."""
        if not self._queues:
            super().cancel(event)
        elif not event.cancelled:
            event.cancel()
            self._queues[self._part_of(event.dst)].note_cancelled(event)

    # -- lookahead -----------------------------------------------------------

    def _compute_lookahead(self) -> float:
        assert self._assignment is not None
        la = float("inf")
        for link in self.links:
            pa = self._part_of(link.a.component.name)
            pb = self._part_of(link.b.component.name)
            if pa != pb:
                if link.latency <= 0.0:
                    raise SimulationError(
                        f"zero-latency cross-partition link {link.name!r} "
                        f"(partition {pa} <-> {pb}): conservative windows "
                        "require strictly positive lookahead — raise the "
                        "link latency or co-locate its endpoints"
                    )
                la = min(la, link.latency)
        return la

    def _edge_triples(self) -> list[tuple[str, str, float]]:
        return [
            (ln.a.component.name, ln.b.component.name, ln.latency)
            for ln in self.links
        ]

    # -- failover ------------------------------------------------------------

    def enable_failover(
        self,
        model,
        seed: int = 0,
        migrate: bool = True,
        max_failures: int = 4,
    ) -> PartitionFailover:
        """Inject simulated partition failures at window boundaries.

        *model* supplies interarrival draws (duck-typed
        :class:`~repro.core.fault_injection.FaultModel`).  Failures are
        detected at the boundary of the window they land in; the engine
        restores from its boundary snapshot, optionally migrates the
        victim's components onto surviving partitions, and re-executes —
        producing a final event trace identical to a failure-free run.
        """
        if self._running:
            raise SimulationError("cannot enable failover while running")
        self._failover = PartitionFailover(
            model, seed=seed, migrate=migrate, max_failures=max_failures
        )
        return self._failover

    def _migrate_partition(self, victim: int, dead: set[int]) -> None:
        """Rebalance the victim's components and queue onto survivors."""
        from repro.des.partition import migrate_assignment

        assert self._assignment is not None
        self._assignment = migrate_assignment(self._assignment, victim, dead)
        live = sorted(set(self._assignment.values()))
        self._home_part = live[0] if live else 0
        # Re-route the victim's pending events to their components' new
        # homes (sequence numbers ride along, so global ordering holds).
        stranded = self._queues[victim]
        while stranded:
            ev = stranded.pop()
            self._queues[self._part_of(ev.dst)].push(ev)
        self.lookahead = self._compute_lookahead()

    def _restore_in_place(self, snap: Snapshot) -> None:
        """Rewind this engine to *snap* without changing its identity.

        The failure stream, journal and auto-snapshot policy survive the
        rewind (a restored failure RNG would re-draw the same failure
        forever; the journal holds an open file handle).
        """
        keep_failover = self._failover
        keep_journal = self._journal
        keep_autosnap = self._autosnap
        keep_obs = self._obs
        restored = snap.restore()
        self.__dict__.clear()
        self.__dict__.update(restored.__dict__)
        self._failover = keep_failover
        self._journal = keep_journal
        self._autosnap = keep_autosnap
        self._obs = keep_obs
        self._running = True
        for comp in self.components.values():
            comp.engine = self

    # -- execution -----------------------------------------------------------

    def _prepare_run(self) -> None:
        if self.nparts > len(self.components):
            raise SimulationError(
                f"nparts={self.nparts} exceeds the {len(self.components)} "
                "registered component(s); every partition must own at "
                "least one component — reduce nparts or register more "
                "components"
            )
        if self._assignment is None:
            names = list(self.components)
            if self._partitioner is not None:
                self._assignment = dict(
                    self._partitioner(names, self.nparts, self._edge_triples())
                )
            else:
                from repro.des.partition import partition_components

                self._assignment = partition_components(
                    names, self.nparts, method="block"
                )
        self.lookahead = self._compute_lookahead()
        if not self._queues:
            self._queues = [EventQueue() for _ in range(self.nparts)]
            for comp in self.components.values():
                comp.setup()
            self._setup_done = True
            # Distribute events staged before run() started.
            while self.queue:
                ev = self.queue.pop()
                self._queues[self._part_of(ev.dst)].push(ev)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        obs = self._obs
        if obs is not None:
            obs.run_started(self)
        try:
            self._prepare_run()
            end = float("inf") if until is None else float(until)
            fired_this_run = 0
            while True:
                t_min = min(q.peek_time() for q in self._queues)
                if t_min == float("inf") or t_min > end:
                    break
                # nextafter(end) lets events scheduled exactly at the end
                # horizon fire, matching the sequential engine's `t > end`
                # stop rule.
                window_end = min(t_min + self.lookahead, math.nextafter(end, math.inf))
                boundary: Optional[Snapshot] = None
                if self._failover is not None:
                    boundary = self.snapshot()
                self._window_end = window_end
                self.windows_executed += 1
                journal_buffer: list[Event] = []
                fired_this_run = self._execute_window(
                    window_end, end, max_events, fired_this_run, journal_buffer
                )
                self._active_part = None
                if self._failover is not None and boundary is not None:
                    failure = self._failover.poll(self, t_min, window_end)
                    if failure is not None:
                        victim, _t_fail = failure
                        # The window's work on the victim is lost: rewind
                        # everything to the boundary, recover, re-execute.
                        # (The journal buffer is discarded with it.)
                        self._restore_in_place(boundary)
                        self._failover.apply(self, victim)
                        continue
                if self._journal is not None:
                    for ev in journal_buffer:
                        self._journal.record(ev)
                # Global clock advances to the end of the processed window.
                if window_end != float("inf"):
                    self.now = max(self.now, min(window_end, end))
                if self._autosnap is not None:
                    self._autosnap.maybe_take(self)
            if until is not None and end != float("inf"):
                self.now = max(self.now, end)
            empty = all(not q for q in self._queues)
            if not self._finished and empty:
                for comp in self.components.values():
                    comp.finish()
                self._finished = True
            return self.now
        finally:
            if obs is not None:
                obs.run_finished(self)
            self._running = False
            self._active_part = None

    def _execute_window(
        self,
        window_end: float,
        end: float,
        max_events: Optional[int],
        fired_this_run: int,
        journal_buffer: list,
    ) -> int:
        """Process one safe window across every partition queue."""
        obs = self._obs
        obs_busy = obs.busy if obs is not None else None
        for part, q in enumerate(self._queues):
            self._active_part = part
            while True:
                t = q.peek_time()
                if t == float("inf") or t >= window_end or t > end:
                    break
                if max_events is not None and fired_this_run >= max_events:
                    # Same accounting as the sequential engine: the
                    # limit trips before the pop, so events_fired
                    # only counts events whose handlers ran.  Windows
                    # re-executed after a failover count again — the
                    # budget bounds *work*, not unique events.
                    raise SimulationError(f"exceeded max_events={max_events}")
                ev = q.pop()
                self.now = ev.time
                self.events_fired += 1
                fired_this_run += 1
                if self.trace:
                    self.trace_log.append(
                        (ev.time, ev.priority, ev.seq, ev.src, ev.dst)
                    )
                if self._journal is not None:
                    # Buffered: a failover rewind discards the window's
                    # records so the append-only journal never holds a
                    # rolled-back prefix.
                    journal_buffer.append(ev)
                if ev.handler is not None:
                    if obs_busy is None:
                        ev.handler(ev)
                    else:
                        _t0 = perf_counter()
                        ev.handler(ev)
                        _dst = ev.dst or ""
                        obs_busy[_dst] = (
                            obs_busy.get(_dst, 0.0) + perf_counter() - _t0
                        )
                        if not (self.events_fired & 63):
                            obs.queue_depth.observe(len(q))
        return fired_this_run
