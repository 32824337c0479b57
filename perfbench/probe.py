"""Benchmark-side instrumentation of the program's public layer calls.

Nothing here edits the program: wrappers are swapped onto public
functions and methods (class attributes and module globals) and the
originals are put back on exit.  Two grades of wrapper exist:

* **spans** around coarse calls (a simulator build, an engine run, a
  supervisor run, a kernel fit).  Each is recorded with
  :class:`repro.obs.tracing.Tracer`, kept in memory and written once as
  a Chrome trace at the end.
* **fine** wrappers around hot calls (model ``predict``, network
  pricing, fault injection, app-stream build, WAL append).  A span per
  call would cost more than the call, so these only add their time and
  call count to the innermost open span.

Every call's self time is its duration minus the durations of the layer
calls made directly inside it, so the self times below one phase add up
to the phase's wall time; :meth:`Probe.check_phase` verifies this.

:class:`Counters` is the cheap subset installed on every run: it wraps
only calls made a handful of times per simulation, fit or replica and
reads the deterministic work counts their results already carry.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter as perf
from typing import Callable

from repro.core import campaign as campaign_mod
from repro.core import supervisor as supervisor_mod
from repro.core.beo import AppBEO, ArchBEO
from repro.core.simulator import BESSTSimulator
from repro.core.trace import save_spans_chrome_trace
from repro.exps import casestudy as casestudy_mod
from repro.models import calibration as calibration_mod
from repro.models.symreg.gp import SymbolicRegressor
from repro.obs.tracing import Tracer


class Patches:
    """Attribute swaps, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def undo(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


class Counters:
    """Deterministic work counters read off the program's own results."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(int)
        self.patches = Patches()

    def install(self) -> "Counters":
        c = self.counts

        def run(orig):
            def wrapped(sim, *a, **k):
                res = orig(sim, *a, **k)
                c["engine.events"] += res.events_fired
                c["faults.injected"] += res.faults_injected
                c["faults.rollbacks"] += res.rollbacks
                c["faults.recovery_attempts"] += res.recovery_attempts
                c["network.reroutes"] += res.net_reroutes
                c["sim.simulated_s"] += res.total_time
                c["sim.wasted_s"] += res.wasted_time
                return res

            return wrapped

        def gp_fit(orig):
            def wrapped(*a, **k):
                res = orig(*a, **k)
                c["symreg.generations"] += res.generations_run
                return res

            return wrapped

        def app_build(orig):
            def wrapped(*a, **k):
                out = orig(*a, **k)
                c["apps.instructions"] += len(out)
                return out

            return wrapped

        def wal_append(orig):
            def wrapped(*a, **k):
                c["wal.appends"] += 1
                return orig(*a, **k)

            return wrapped

        self.patches.set(BESSTSimulator, "run", run)
        self.patches.set(SymbolicRegressor, "fit", gp_fit)
        self.patches.set(AppBEO, "build", app_build)
        self.patches.set(supervisor_mod.WriteAheadJournal, "append", wal_append)
        return self

    def uninstall(self) -> None:
        self.patches.undo()

    def take(self) -> dict[str, float]:
        """Return the counts so far and start again from zero."""
        out = dict(self.counts)
        self.counts.clear()
        return out


class _Frame:
    __slots__ = ("path", "t0", "fine")

    def __init__(self, path: tuple, t0: float) -> None:
        self.path = path
        self.t0 = t0
        self.fine: dict[str, float] = defaultdict(float)  # fine layer -> self s


class _TimedModel:
    """A bound performance model whose ``predict`` is a fine layer call."""

    def __init__(self, model, probe: "Probe") -> None:
        self._model = model
        self.predict = probe.fine("models.predict", model.predict)

    def __getattr__(self, name):
        return getattr(self._model, name)


def layer_of(name: str) -> str:
    """Span and layer names are ``<module>.<call>``; the module is the layer."""
    return name.split(".", 1)[0]


class Probe:
    """Per-layer timing for the traced run of one workload."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._frames: list[_Frame] = []
        self._acc: list[list[float]] = []  # child-time accumulators, innermost last
        self.self_time: dict[tuple, float] = defaultdict(float)  # node path -> self s
        self.inclusive: dict[str, float] = defaultdict(float)  # span name -> s
        self.fine_self: dict[str, float] = defaultdict(float)
        self.fine_calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.patches = Patches()

    # -- recording -------------------------------------------------------------

    @contextmanager
    def region(self, name: str, keep_duration: bool = False):
        """One span named *name* around the enclosed block."""
        parent = self._frames[-1].path if self._frames else ()
        frame = _Frame(parent + (name,), perf())
        acc = [0.0]
        span = self.tracer.start_span(name)
        self._frames.append(frame)
        self._acc.append(acc)
        try:
            yield
        finally:
            dur = perf() - frame.t0
            self._acc.pop()
            self._frames.pop()
            own = dur - acc[0]
            self.self_time[frame.path] += own
            for layer, t in frame.fine.items():
                self.self_time[frame.path + (layer,)] += t
            self.inclusive[name] += dur
            if keep_duration:
                self.durations[name].append(dur)
            if self._acc:
                self._acc[-1][0] += dur
            span.end(self_s=own, **{f"{k}_s": v for k, v in frame.fine.items()})

    def span(self, name: str, fn: Callable, keep_duration: bool = False) -> Callable:
        """*fn* with every call recorded as one span."""

        def wrapped(*a, **k):
            with self.region(name, keep_duration):
                return fn(*a, **k)

        return wrapped

    def fine(self, layer: str, fn: Callable, keep_duration: bool = False) -> Callable:
        """*fn* with every call timed and counted, without a span."""
        frames, stack = self._frames, self._acc
        fine_self, fine_calls = self.fine_self, self.fine_calls
        durs = self.durations[layer] if keep_duration else None

        def wrapped(*a, **k):
            acc = [0.0]
            stack.append(acc)
            t0 = perf()
            try:
                return fn(*a, **k)
            finally:
                dur = perf() - t0
                stack.pop()
                own = dur - acc[0]
                fine_self[layer] += own
                fine_calls[layer] += 1
                if durs is not None:
                    durs.append(dur)
                if stack:
                    stack[-1][0] += dur
                if frames:
                    frames[-1].fine[layer] += own

        return wrapped

    # -- wiring ------------------------------------------------------------------

    def install_host(self) -> None:
        """Wrap the campaign calls made in the supervising process."""
        p = self.patches
        p.set(supervisor_mod.TaskSupervisor, "run", lambda f: self.span("supervisor.run", f))
        p.set(campaign_mod, "aggregate_point", lambda f: self.span("campaign.aggregate_point", f))
        p.set(
            supervisor_mod.WriteAheadJournal,
            "append",
            lambda f: self.fine("wal.append", f, keep_duration=True),
        )

    def install_inprocess(self) -> None:
        """Wrap the model, simulator and replica calls.

        Only valid while every simulation runs in this process: a forked
        pool worker would inherit the wrappers but keep its timings.
        """
        p = self.patches

        def bind(orig):
            def wrapped(arch, kernel, model):
                if not isinstance(model, _TimedModel):
                    model = _TimedModel(model, self)
                return orig(arch, kernel, model)

            return wrapped

        p.set(ArchBEO, "bind", bind)
        p.set(ArchBEO, "collective_time", lambda f: self.fine("network.price", f))
        p.set(ArchBEO, "exchange_time", lambda f: self.fine("network.price", f))
        p.set(BESSTSimulator, "inject_fault", lambda f: self.fine("faults.inject", f))
        p.set(AppBEO, "build", lambda f: self.fine("apps.build", f))
        p.set(BESSTSimulator, "__init__", lambda f: self.span("simulator.build", f))
        p.set(BESSTSimulator, "run", lambda f: self.span("engine.run", f))
        p.set(
            campaign_mod,
            "build_campaign_simulator",
            lambda f: self.span("simulator.build_campaign", f),
        )
        p.set(
            campaign_mod,
            "_run_replica",
            lambda f: self.span("campaign.replica", f, keep_duration=True),
        )
        p.set(calibration_mod, "dataset_mape", lambda f: self.span("calibration.dataset_mape", f))
        p.set(SymbolicRegressor, "fit", lambda f: self.span("symreg.gp_fit", f))
        p.set(
            casestudy_mod,
            "measure_application_run",
            lambda f: self.span("testbed.measure_run", f),
        )

    def uninstall(self) -> None:
        self.patches.undo()

    @contextmanager
    def phase(self, name: str, inprocess: bool = True):
        """A top-level span with the wrappers installed for its duration."""
        self.install_host()
        if inprocess:
            self.install_inprocess()
        try:
            with self.region(name):
                yield
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        """Self time of every node of *layer*, wherever it sits in the tree."""
        return sum(t for path, t in self.self_time.items() if layer_of(path[-1]) == layer)

    def check_phase(self, phase: str, wall: float) -> tuple[bool, float]:
        """Do the self times under *phase* add up to its wall time?"""
        total = sum(t for path, t in self.self_time.items() if path[0] == phase)
        negative = any(t < -1e-9 for path, t in self.self_time.items() if path[0] == phase)
        return (not negative and abs(total - wall) <= 1e-6 * max(wall, 1.0)), total

    def tree(self, phase: str) -> list[str]:
        """Indented per-layer self-time tree of one phase."""
        nodes = sorted(p for p in self.self_time if p[0] == phase)
        wall = self.inclusive[phase] or 1.0
        lines = []
        for path in nodes:
            t = self.self_time[path]
            lines.append(f"{'  ' * len(path)}{path[-1]:<{40 - 2 * len(path)}s}{t:10.4f} s {100 * t / wall:6.1f}%")
        return lines

    def save_chrome_trace(self, path) -> int:
        spans = self.tracer.finished_spans()
        save_spans_chrome_trace(spans, path)
        return len(spans)


def percentile(xs: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted *xs*."""
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest of a few standard percentiles that still has at least
    *beyond* samples above it (the median if none has), and its value."""
    xs = sorted(samples)
    pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if len(xs) * (1 - p / 100) >= beyond),
               50.0)
    return pct, percentile(xs, pct)
