"""The benchmark's three workloads, driven through the program's public API.

``paper``
    The paper path: FT-aware Model Development on the virtual Quartz
    (benchmark campaign, symbolic-regression fit of the three case-study
    kernels, ``build_archbeo``), then the Fig. 7 (64 ranks) and Fig. 8
    (1000 ranks) Monte-Carlo sets of the three FT scenarios with model
    noise, each beside its virtual-Quartz reference run.  The only
    workload that runs the GP fit and noisy ``SymbolicRegressionModel``
    predictions; it injects no faults and never touches the campaign
    supervisor or the WAL.
``campaign-short``
    A journaled resilience grid of short replicas (40 timesteps, 8 ranks,
    constant models, fail-stop faults).  Fixed per-replica costs dominate:
    simulator build, pool dispatch and pickling, one WAL fsync per
    replica, aggregation.  Bypasses GP fitting and symreg prediction.
``campaign-storm``
    Long, fault-heavy replicas (300 timesteps, 16 ranks on an 8-node
    torus, six fault kinds, ABFT verification every 5 timesteps).  Nearly
    all time is the engine, rework after rollbacks, the fault domains and
    degraded-route pricing; dispatch cost is negligible.

Each workload returns a :class:`Outcome`: the timings the user waits on,
the deterministic work counts, the output checks and what was attempted.
Model Development always runs the case-study calibration at seed 0, the
seed the paper path pins: the GP's amount of work depends on its seed
(12-22 s across seeds 1-5 against 14 s at seed 0), so a seed-driven fit
would measure the seed, not the program.  ``--seed`` drives every other
input: the Monte-Carlo noise draws, the reference runs, the Table III
validation samples and the campaign replicas.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter as perf

from hostref import HostSpeed

from repro.core.campaign import CampaignSpec, ResilienceCampaign
from repro.core.fault_injection import RecoveryPolicy
from repro.core.workflow import ModelDevelopmentResult, build_archbeo
from repro.exps.casestudy import CASE_KERNELS, CaseStudyContext
from repro.exps.fig7_8 import full_system_curves
from repro.exps.table3 import instance_model_mape
from repro.models.calibration import CalibrationPipeline
from repro.testbed.executor import run_benchmark_campaign
from repro.testbed.quartz import make_quartz

DEFAULT_SEED = 0

#: case-study calibration seed of Model Development (see module docstring)
MODELDEV_SEED = 0
FIG7_RANKS, FIG7_REPS = 64, 2
FIG8_RANKS, FIG8_REPS = 1000, 1

#: sha256 of the three fitted expression strings; Model Development is
#: seeded identically on every run, so this holds at every --seed
MODELS_DIGEST = "6aba69be0f3752c08c3bbb06f32d9080fce636682af264c62ca5104d372473bf"
#: sha256 of the expressions plus every simulated and measured Fig. 7/8
#: total, and of the first campaign pass's report, at DEFAULT_SEED
PAPER_DIGEST = "abf742ff76a4d3dec954e7986aa2fbd0a2ac2384d952dfab265703c7f9bfe651"
CAMPAIGN_DIGESTS = {
    "campaign-short": "30564453d7e4afb4935b242c66f2be0a89647353917b0c449333c1bd0b6de5a7",
    "campaign-storm": "57bdae017862ef63bbf279a6194cd1a5d1d3c63231ea5ce814a7f7f13cf58fb0",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    timings: dict[str, float] = field(default_factory=dict)  # workload-specific metrics
    counts: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    sim_events_per_s: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)  # phase -> wall s
    probes: dict = field(default_factory=dict)  # phase -> Probe that traced it

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"CHECK FAILED {name} {detail}")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- paper ---------------------------------------------------------------------


def setup_paper():
    return make_quartz(allocation_nodes=500)


def run_paper(machine, seed: int, probe, counters, speed: HostSpeed) -> Outcome:
    """One fixed pass: Model Development, then the Fig. 7 and Fig. 8 sets.

    The pass takes longer than any ``--seconds`` the benchmark uses, so
    it is not repeated.
    """
    out = Outcome()
    region = probe.region if probe is not None else (lambda name: nullcontext())
    phase = probe.phase if probe is not None else (lambda name: nullcontext())

    # Model Development: benchmark campaign -> fitted kernels -> bound ArchBEO
    t0 = speed.mark()
    with phase("modeldev"):
        with region("testbed.run_benchmark_campaign"):
            datasets = run_benchmark_campaign(
                machine, CASE_KERNELS, samples_per_point=10, seed=MODELDEV_SEED
            )
        pipeline = CalibrationPipeline(seed=MODELDEV_SEED)
        fitted = {}
        for kernel, ds in sorted(datasets.items()):
            with region(f"symreg.fit_kernel.{kernel}"):
                fitted[kernel] = pipeline.fit_kernel(ds)
        archbeo = build_archbeo(machine, {k: f.model for k, f in fitted.items()})
    modeldev_s = speed.record("modeldev", t0, speed.mark())
    dev_counts = counters.take()
    ctx = CaseStudyContext(
        machine=machine,
        dev=ModelDevelopmentResult(datasets=datasets, fitted=fitted),
        archbeo=archbeo,
        seed=seed,
    )

    t0 = speed.mark()
    with phase("fig7"):
        curves7 = full_system_curves(FIG7_RANKS, ctx=ctx, reps=FIG7_REPS)
    fig7_s = speed.record("fig7", t0, speed.mark())
    fig7_counts = counters.take()

    t0 = speed.mark()
    with phase("fig8"):
        curves8 = full_system_curves(FIG8_RANKS, ctx=ctx, reps=FIG8_REPS)
    fig8_s = speed.record("fig8", t0, speed.mark())
    fig8_counts = counters.take()

    # -- output checks (untimed) ------------------------------------------------
    reports = instance_model_mape(ctx)
    mapes = {k: r.mape for k, r in reports.items()}
    out.check("table3_bounds", mapes["lulesh_timestep"] < 15.0 and mapes["fti_l1"] < 30.0
              and mapes["fti_l2"] < 30.0, str(mapes))
    out.check("table3_order", mapes["lulesh_timestep"] < min(mapes["fti_l1"], mapes["fti_l2"]))
    for fig, curves, bound in (("fig7", curves7, 35.0), ("fig8", curves8, 50.0)):
        by = {c.scenario: c for c in curves}
        for fld in ("measured_total", "simulated_total_mean"):
            vals = [getattr(by[s], fld) for s in ("no_ft", "l1", "l1+l2")]
            out.check(f"{fig}_order_{fld}", vals[0] < vals[1] < vals[2], str(vals))
        out.check(f"{fig}_error", all(c.percent_error < bound for c in curves),
                  str([round(c.percent_error, 2) for c in curves]))
    by7 = {c.scenario: c for c in curves7}
    out.check("fig7_ckpt_marks", len(by7["l1"].checkpoint_marks) == 5
              and len(by7["l1+l2"].checkpoint_marks) == 10)
    by8 = {c.scenario: c for c in curves8}
    out.check("fig8_ckpt_gap", by8["l1+l2"].simulated_total_mean
              > 2.0 * by8["no_ft"].simulated_total_mean)

    exprs = {k: str(f.model.expression) for k, f in sorted(fitted.items())}
    models_digest = digest(exprs)
    out.check("models_digest", models_digest == MODELS_DIGEST, models_digest)
    totals = [[c.scenario, c.ranks, repr(c.simulated_total_mean), repr(c.measured_total)]
              for c in curves7 + curves8]
    result_digest = digest({"expressions": exprs, "totals": totals})
    out.notes.append(f"digest models={models_digest} results={result_digest}")
    if seed == DEFAULT_SEED:
        out.check("results_digest", result_digest == PAPER_DIGEST, result_digest)

    sims = len(curves7) * FIG7_REPS + len(curves8) * FIG8_REPS
    out.attempted = len(fitted) + sims + len(curves7) + len(curves8)
    events = fig7_counts.get("engine.events", 0) + fig8_counts.get("engine.events", 0)
    out.wall_s = modeldev_s + fig7_s + fig8_s
    out.sim_events_per_s = events / (fig7_s + fig8_s)
    curves = curves7 + curves8
    out.timings = {
        "modeldev_s": modeldev_s,
        "fig7_s": fig7_s,
        "fig8_s": fig8_s,
        "model_mape_pct": statistics.fmean(mapes.values()),
        "sim_err_pct": statistics.fmean(c.percent_error for c in curves),
    }
    out.counts = {
        "testbed.samples": sum(ds.n_samples for ds in datasets.values()),
        "symreg.generations": dev_counts.get("symreg.generations", 0),
        "engine.events.fig7": fig7_counts.get("engine.events", 0),
        "engine.events.fig8": fig8_counts.get("engine.events", 0),
        "apps.instructions": fig7_counts.get("apps.instructions", 0)
        + fig8_counts.get("apps.instructions", 0),
        "faults.injected": fig7_counts.get("faults.injected", 0)
        + fig8_counts.get("faults.injected", 0),
    }
    out.phases = dict(speed.raw)
    if probe is not None:
        out.probes = dict.fromkeys(out.phases, probe)
    return out


# -- campaigns -------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    mtbfs: tuple
    periods: tuple
    reps: int
    spec: dict
    policy: RecoveryPolicy


#: realistic recovery: read-back verification failures escalate, then requeue
_POLICY = RecoveryPolicy(verify_fail_prob=0.1, max_attempts=4, max_requeues=1,
                         requeue_delay_s=5.0, n_spares=2)

GRIDS = {
    "campaign-short": Grid(
        mtbfs=(4.0, 8.0, 16.0, 32.0), periods=(5, 10), reps=25,
        spec={"timesteps": 40, "nranks": 8, "nnodes": 4, "software_fraction": 0.7},
        policy=_POLICY,
    ),
    "campaign-storm": Grid(
        mtbfs=(8.0, 32.0), periods=(10,), reps=6,
        spec={
            "timesteps": 300, "nranks": 16, "nnodes": 8, "net_topology": "torus",
            "verify_period": 5,
            "fault_mix": {"node": 0.2, "software": 0.3, "sdc": 0.2,
                          "straggler": 0.1, "link": 0.1, "netdeg": 0.1},
        },
        policy=_POLICY,
    ),
}


def setup_campaign(name: str):
    grid = GRIDS[name]
    # Spec validation builds each point's topology and fault model, the
    # same work run_grid repeats per point.
    for m in grid.mtbfs:
        for p in grid.periods:
            CampaignSpec(node_mtbf_s=m, ckpt_period=p, **grid.spec)
    return grid


def _grid_pass(grid: Grid, base_seed: int, workers: int, journal: str, speed: HostSpeed):
    """One journaled run of the grid; returns the report, the host-speed
    marks around ``run_grid`` and the supervisor's stats."""
    if os.path.exists(journal):
        os.remove(journal)
    camp = ResilienceCampaign(reps=grid.reps, base_seed=base_seed, policy=grid.policy,
                              n_workers=workers, journal_path=journal)
    try:
        start = speed.mark()
        report = camp.run_grid(grid.mtbfs, grid.periods, **grid.spec)
        end = speed.mark()
    finally:
        camp.close()
    return report, (start, end), camp.harness_stats


def _check_pass(out: Outcome, grid: Grid, rep1, rep2, j1: str, j2: str, stats) -> None:
    text = rep1.to_json()
    out.check("workers_byte_identical", text == rep2.to_json())
    for j in (j1, j2):
        out.check("journal_reproduces_report",
                  ResilienceCampaign.report_from_journal(j).to_json() == text)
    out.check("complete", not rep1.partial and not rep2.partial
              and all(p.replicas_done == grid.reps for p in rep1.points + rep2.points))
    out.check("no_quarantine", all(not s.quarantined for s in stats))
    for period in grid.periods:
        faults = [p.mean_faults for p in rep1.points if p.spec.ckpt_period == period]
        out.check("faults_fall_with_mtbf",
                  all(a > b for a, b in zip(faults, faults[1:])), str(faults))


def _events(report) -> int:
    return sum(r["events_fired"] for p in report.points for r in p.replicas)


def run_campaign(grid: Grid, name: str, seed: int, seconds: float, workdir: str,
                 new_probe, counters, speed: HostSpeed) -> Outcome:
    """Alternate 1-worker and 2-worker passes over the grid until *seconds*.

    Pass *k* uses base seed ``1000 * seed + k`` so a run averages over
    several replica sets.  The traced run (*new_probe* set) makes exactly
    one pass, each half under its own probe.
    """
    out = Outcome()
    per_pass: list[tuple[float, float, int, int]] = []  # 1w s, 2w s, replicas, events
    t_start = perf()
    k = 0
    while k == 0 or (new_probe is None and perf() - t_start < seconds):
        base = 1000 * seed + k
        j1 = os.path.join(workdir, f"wal-{k}-1w.jsonl")
        j2 = os.path.join(workdir, f"wal-{k}-2w.jsonl")
        # Traced: the 1-worker pass runs every replica in this process, so
        # every layer is wrapped; the 2-worker pass wraps only the calls
        # the supervising process makes.
        if new_probe is not None:
            out.probes = {"grid_1w": new_probe(), "grid_2w": new_probe()}
        with out.probes["grid_1w"].phase("grid_1w") if out.probes else nullcontext():
            rep1, marks1, st1 = _grid_pass(grid, base, 1, j1, speed)
        wall1 = speed.record("grid_1w", *marks1)
        counts1 = counters.take()
        speed.disarm()  # both cores busy: borrow the 1-worker pass's samples
        try:
            with (out.probes["grid_2w"].phase("grid_2w", inprocess=False)
                  if out.probes else nullcontext()):
                rep2, marks2, st2 = _grid_pass(grid, base, 2, j2, speed)
        finally:
            speed.arm()
        wall2 = speed.record("grid_2w", *marks2, ref=marks1)
        counters.take()
        _check_pass(out, grid, rep1, rep2, j1, j2, (st1, st2))
        ev1, ev2 = _events(rep1), _events(rep2)
        out.check("events_match_across_workers", ev1 == ev2, f"{ev1} != {ev2}")
        if k == 0:
            out.counts = {key: counts1.get(key, 0) for key in (
                "engine.events", "faults.injected", "faults.rollbacks",
                "faults.recovery_attempts", "network.reroutes", "apps.instructions",
                "wal.appends", "sim.simulated_s", "sim.wasted_s")}
            out.counts.update({
                "campaign.replicas": sum(p.replicas_done for p in rep1.points),
                "supervisor.retries": st1.retries + st2.retries,
                "supervisor.pool_rebuilds": st1.pool_rebuilds + st2.pool_rebuilds,
            })
            report_digest = digest(rep1.to_dict())
            out.notes.append(f"digest report={report_digest}")
            if seed == DEFAULT_SEED:
                out.check("report_digest", report_digest == CAMPAIGN_DIGESTS[name],
                          report_digest)
        done = sum(p.replicas_done for p in rep1.points)
        per_pass.append((wall1, wall2, done, ev1))
        if k == 0:
            out.phases = dict(speed.raw)
        out.attempted += 2 * len(rep1.points) * grid.reps
        out.failed += 2 * len(rep1.points) * grid.reps - done - sum(
            p.replicas_done for p in rep2.points)
        for j in (j1, j2):
            os.remove(j)
        k += 1
    out.wall_s = statistics.median(p[0] + p[1] for p in per_pass)
    out.sim_events_per_s = statistics.median(p[3] / p[0] for p in per_pass)
    out.timings = {
        "replicas_per_s_1w": statistics.median(p[2] / p[0] for p in per_pass),
        "replicas_per_s_2w": statistics.median(p[2] / p[1] for p in per_pass),
    }
    out.notes.append(f"passes {len(per_pass)} replicas/pass {per_pass[0][2]}")
    return out
