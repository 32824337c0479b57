#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 15 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
checkout root; ``perfbench/WORKLOADS.md`` says why each was chosen.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it report the paper-level metrics, the deterministic work
counts, every output check and, when traced, the per-layer self-time
tree of each phase and the tracing overhead.

Everything the run writes stays under ``.perfbench_out/`` in the
checkout: a scratch home/cache/tmp directory (removed at exit), the
Chrome trace of traced runs, the work counts per (workload, seed,
source hash) that later runs must repeat exactly, and the last
untraced metrics per workload that a traced run compares against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper", "campaign-short", "campaign-storm")
#: set-up is measured in this many fresh interpreters; the median is reported
SETUP_RUNS = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument(
        "--slow",
        default="",
        metavar="LAYER:MICROSECONDS",
        help="sensitivity self-test only: busy-wait this long in every call "
        "of LAYER (symreg.predict or wal.append)",
    )
    return ap.parse_args(argv)


def source_hash() -> str:
    """Content hash of the program and benchmark sources, so work counts
    are compared only between runs of the same code and workloads."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(args, speed) -> tuple[float, list[float]]:
    """Median time from interpreter start to the end of set-up (imports,
    machine/spec construction) over fresh processes, at the nominal host
    speed; also returns the raw times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        start, t0 = speed.mark(), time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_end"] - t0)
        scaled.append(speed.scale(raw[-1], start, speed.mark()))
    return statistics.median(scaled), raw


def setup(workload: str):
    import workloads

    if workload == "paper":
        return workloads.setup_paper()
    return workloads.setup_campaign(workload)


def install_slowdown(spec: str):
    """Benchmark-side slowdown for the sensitivity self-test."""
    from probe import Patches

    from repro.core.supervisor import WriteAheadJournal
    from repro.models.symreg.model import SymbolicRegressionModel

    layer, _, micros = spec.partition(":")
    owner = {"symreg.predict": (SymbolicRegressionModel, "predict"),
             "wal.append": (WriteAheadJournal, "append")}[layer]
    delay = float(micros) * 1e-6

    def make(orig):
        def slowed(*a, **k):
            end = time.perf_counter() + delay
            while time.perf_counter() < end:
                pass
            return orig(*a, **k)

        return slowed

    patches = Patches()
    patches.set(*owner, make)
    return patches


def layer_metrics(out, workload: str, names: list[str]) -> dict[str, float]:
    """Per-layer metrics of a traced run (0 where the workload bypasses a layer)."""
    from probe import percentile, tail_percentile

    main = out.probes["grid_1w" if workload != "paper" else "modeldev"]
    c = out.counts
    events = c.get("engine.events", c.get("engine.events.fig7", 0) + c.get("engine.events.fig8", 0))
    replica_s = main.inclusive.get("campaign.replica", 0.0)
    wal = main.durations.get("wal.append", [])
    pct, tail = tail_percentile(wal) if wal else (0.0, 0.0)
    if wal:
        out.notes.append(f"wal.append_tail_ms is p{pct:g} of {len(wal)} appends")
    run_s = main.inclusive.get("engine.run", 0.0)
    sim_s = c.get("sim.simulated_s", 0.0)
    wall_2w = out.phases.get("grid_2w")
    values = {
        "testbed.measure_s": main.inclusive.get("testbed.run_benchmark_campaign", 0.0),
        "testbed.samples": c.get("testbed.samples", 0),
        "symreg.generations": c.get("symreg.generations", 0),
        "calibration.mape_s": main.inclusive.get("calibration.dataset_mape", 0.0),
        "apps.build_s": main.fine_self.get("apps.build", 0.0),
        "apps.instructions": c.get("apps.instructions", 0),
        "simulator.build_s": main.layer_self("simulator"),
        "engine.self_s": main.layer_self("engine"),
        "engine.events": events,
        "engine.events_per_s": events / run_s if run_s else 0.0,
        "models.predict_s": main.fine_self.get("models.predict", 0.0),
        "models.predict_calls": main.fine_calls.get("models.predict", 0),
        "network.price_s": main.fine_self.get("network.price", 0.0),
        "network.calls": main.fine_calls.get("network.price", 0),
        "network.reroutes": c.get("network.reroutes", 0),
        "faults.inject_s": main.fine_self.get("faults.inject", 0.0),
        "faults.injected": c.get("faults.injected", 0),
        "faults.rollbacks": c.get("faults.rollbacks", 0),
        "faults.recovery_attempts": c.get("faults.recovery_attempts", 0),
        "faults.waste_sim_frac": c.get("sim.wasted_s", 0.0) / sim_s if sim_s else 0.0,
        "supervisor.run_s": main.inclusive.get("supervisor.run", 0.0),
        "supervisor.dispatch_s": main.inclusive.get("supervisor.run", 0.0) - replica_s,
        "supervisor.worker_util": replica_s / (2 * wall_2w) if wall_2w else 0.0,
        "supervisor.retries": c.get("supervisor.retries", 0),
        "supervisor.pool_rebuilds": c.get("supervisor.pool_rebuilds", 0),
        "supervisor.worker_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if wall_2w else 0.0
        ),
        "wal.appends": main.fine_calls.get("wal.append", 0),
        "wal.append_s": main.fine_self.get("wal.append", 0.0),
        "wal.append_p50_ms": 1e3 * percentile(sorted(wal), 50.0) if wal else 0.0,
        "wal.append_tail_ms": 1e3 * tail,
        "campaign.aggregate_s": main.inclusive.get("campaign.aggregate_point", 0.0),
    }
    for kernel in ("lulesh_timestep", "fti_l1", "fti_l2"):
        values[f"symreg.fit_s.{kernel}"] = main.inclusive.get(f"symreg.fit_kernel.{kernel}", 0.0)
    return {name: values[name] for name in names}


def compare_counts(counts: dict, workload: str, seed: int) -> tuple[bool, str]:
    """Counts must repeat exactly across runs of one (workload, seed, source)."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{source_hash()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    diff = {k: (stored[k], v) for k, v in counts.items() if k in stored and stored[k] != v}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**stored, **counts}, sort_keys=True))
    return not diff, f"{len(stored)} stored counts; differing: {diff}" if stored else "first run"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup(args.workload)
        print(json.dumps({"setup_end": time.time()}))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # A fresh, empty home/cache/tmp per run: any on-disk cache the program
    # may grow starts cold here and shows up as set-up or phase time.
    work = OUT / f"work-{os.getpid()}-{time.time_ns()}"
    for sub in ("home", "cache", "tmp"):
        (work / sub).mkdir(parents=True)
    os.environ.update(HOME=str(work / "home"), XDG_CACHE_HOME=str(work / "cache"),
                      TMPDIR=str(work / "tmp"))
    try:
        return run(args, bench, work)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        shutil.rmtree(work, ignore_errors=True)


def run(args, bench: dict, work: Path) -> int:
    from hostref import HostSpeed

    speed = HostSpeed().arm()
    try:
        setup_s, setup_runs = (None, [])
        if not args.trace:
            setup_s, setup_runs = measure_setup(args, speed)
        t_setup = time.perf_counter()
        state = setup(args.workload)
        main_setup_s = time.perf_counter() - t_setup

        import workloads
        from probe import Counters, Probe

        from repro.obs.tracing import Tracer

        slowdown = install_slowdown(args.slow) if args.slow else None
        counters = Counters().install()
        tracer = Tracer() if args.trace else None
        try:
            if args.workload == "paper":
                out = workloads.run_paper(state, args.seed, Probe(tracer) if tracer else None,
                                          counters, speed)
            else:
                out = workloads.run_campaign(
                    state, args.workload, args.seed, args.seconds, str(work),
                    (lambda: Probe(tracer)) if tracer else None, counters, speed)
        finally:
            counters.uninstall()
            if slowdown is not None:
                slowdown.undo()
    finally:
        speed.disarm()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from hostref import NOMINAL_S

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
          f"{' slow=' + args.slow if args.slow else ''}")
    reported = dict(out.timings)
    reported["peak_rss_mb"] = peak_rss_mb
    reported["fail_frac"] = out.failed / out.attempted
    units = {"modeldev_s": "s", "fig7_s": "s", "fig8_s": "s", "model_mape_pct": "%",
             "sim_err_pct": "%", "replicas_per_s_1w": "1/s", "replicas_per_s_2w": "1/s",
             "peak_rss_mb": "MB", "fail_frac": "ratio"}
    if setup_s is not None:
        reported["setup_s"] = setup_s
        units["setup_s"] = "s"
        print(f"setup runs (s): {' '.join(f'{t:.4f}' for t in setup_runs)}; "
              f"in this process {main_setup_s:.4f}")
    for name, value in reported.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"host reference: {len(speed.samples)} loop passes, mean "
          f"{1e3 * statistics.fmean(speed.samples):.4f} ms (nominal {1e3 * NOMINAL_S:.4f} ms)")
    for name, raw in speed.raw.items():
        print(f"phase {name} raw {raw:.4f} s, at nominal host speed {speed.scaled[name]:.4f} s"
              " (summed over passes)")

    ok, detail = compare_counts(out.counts, args.workload, args.seed)
    out.check("counts_repeat", ok, detail)
    for name, value in sorted(out.counts.items()):
        print(f"count {name} {value:g}")

    e2e = {"setup_s": setup_s, "wall_s": out.wall_s,
           "sim_events_per_s": out.sim_events_per_s, "peak_rss_mb": peak_rss_mb}
    last = OUT / f"last-untraced-{args.workload}-seed{args.seed}.json"
    if not args.trace:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        last.write_text(json.dumps({"seed": args.seed, "metrics": {**reported, **e2e}}))
    else:
        metrics = traced_report(args, bench, out, {**reported, **e2e}, last)
    for name, passed in sorted(out.checks.items()):
        print(f"check {name} {'ok' if passed else 'FAILED'}")
    for note in out.notes:
        print(note)
    correct = all(out.checks.values())
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def traced_report(args, bench, out, traced: dict, last: Path) -> dict:
    """Self-time trees, phase sums, tracing overhead and the per-layer metrics."""
    for phase in out.phases:
        probe = out.probes[phase]
        wall = probe.inclusive[phase]
        ok, total = probe.check_phase(phase, wall)
        out.check("self_times_sum_to_phase_wall", ok, f"{phase}: {total} vs {wall}")
        print(f"phase {phase}: wall {wall:.4f} s, "
              f"self times sum {total:.4f} s ({'ok' if ok else 'MISMATCH'})")
        for line in probe.tree(phase):
            print(line)
    if not last.exists():  # fall back to the latest untraced run at any seed
        last = max(OUT.glob(f"last-untraced-{args.workload}-seed*.json"),
                   key=lambda p: p.stat().st_mtime, default=last)
    if last.exists():
        base = json.loads(last.read_text())
        print(f"tracing overhead against the last untraced run at seed {base['seed']}"
              f"{'' if base['seed'] == args.seed else ' (another seed: the work differs)'}; "
              "the traced run makes one pass:")
        for name, untraced in base["metrics"].items():
            if traced.get(name) is not None and untraced:
                diff = traced[name] - untraced
                print(f"overhead {name} traced {traced[name]:.6g} untraced {untraced:.6g} "
                      f"diff {diff:+.6g} ({100 * diff / untraced:+.1f}%)")
    else:
        print("tracing overhead: no untraced run of this workload in this checkout yet")
    first = next(iter(out.probes.values()))
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    n = first.save_chrome_trace(trace_path)
    print(f"chrome trace: {trace_path.relative_to(ROOT)} ({n} spans)")
    names = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    values = layer_metrics(out, args.workload, names)
    for name in names:
        print(f"layer {name} {values[name]:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in names}


if __name__ == "__main__":
    sys.exit(main())
