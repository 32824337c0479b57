#!/usr/bin/env python3
"""Sensitivity self-test: does the benchmark catch a 10% slowdown injected
into one layer, and only on the workloads that run that layer?

From the root of a checkout (about ten minutes with the default 3 runs)::

    python3 perfbench/selftest.py [--runs 3] [--seed 11]

Two experiments, each a benchmark-side busy-wait added to every call of
one public layer call (``run.py --slow``); no program code changes:

A. ``SymbolicRegressionModel.predict``, the noisy model prediction the
   ``models`` layer runs on ``paper``.  The per-call delay is sized so the
   calls add 10% to paper's simulation phases (``fig7_s + fig8_s``).
   Predicted: paper ``sim_events_per_s`` worsens beyond its spread;
   ``campaign-short`` (constant models, no symreg) stays inside every bound.
B. ``WriteAheadJournal.append``, sized to add 10% to campaign-short's
   1-worker pass.  Predicted: campaign-short ``sim_events_per_s`` (taken on
   the 1-worker pass) worsens beyond its spread; ``campaign-storm``, which
   appends once per 180 ms replica instead of once per 7 ms one, stays
   inside every bound.

Each side is the median of ``--runs`` runs at the same seeds.  The
predicted metric must worsen by more than its baseline runs' spread (the
run prints whether that also passes its bound), every other metric must
stay inside its bound.  Exits 0 when every prediction holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCH = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
SECONDS = str(BENCH["run_seconds"])


def run(workload: str, seed: int, trace: int = 0, slow: str = "") -> tuple[dict, dict]:
    """One benchmark run: (final JSON metrics, the ``metric``/``count`` lines)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    if slow:
        cmd += ["--slow", slow]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"run failed: {' '.join(cmd)}\n{proc.stdout}\n{proc.stderr}")
    extra = {}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind in ("metric", "count", "layer"):
            name, value = rest.split()[:2]
            extra[name] = float(value)
    shown = {m["name"] for m in BENCH["end_to_end"]} if not trace else {"engine.events"}
    print(f"  {workload} seed {seed}{' traced' if trace else ''}"
          f"{' slow ' + slow if slow else ''}: "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in shown),
          flush=True)
    return result["metrics"], extra


def medians(workload: str, seeds, slow: str = "") -> tuple[dict, dict, dict]:
    """Median end-to-end metrics, median extra lines, and each end-to-end
    metric's spread (interquartile range / median) over the runs."""
    runs = [run(workload, s, slow=slow) for s in seeds]
    e2e, spread = {}, {}
    for m in runs[0][0]:
        values = [r[0][m]["value"] for r in runs]
        e2e[m] = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        spread[m] = (q[2] - q[0]) / e2e[m]
    extra = {k: statistics.median(r[1][k] for r in runs) for k in runs[0][1]}
    return e2e, extra, spread


def judge(label: str, workload: str, base: tuple, slowed: dict, target: str = "") -> bool:
    """Compare medians.  The *target* metric must worsen by more than the
    baseline runs' spread (and is reported against its bound); every
    other metric must stay inside its bound."""
    ok = True
    for m in BENCH["end_to_end"]:
        name, bound = m["name"], m["bound"]
        b, s = base[0][name], slowed[name]
        w = (s - b) / b if m["better"] == "lower" else (b - s) / b
        spread = base[2][name]
        if name == target:
            good = w > spread
            verdict = "past its bound" if w > bound else (
                "visible above the spread, inside the bound" if good else "NOT VISIBLE")
        else:
            good = w <= bound
            verdict = "inside its bound" if good else "PAST ITS BOUND"
        ok &= good
        print(f"{label} {workload:15s} {name:17s} worse by {100 * w:+6.1f}% "
              f"(bound {100 * bound:.0f}%, baseline spread {100 * spread:.1f}%): {verdict}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11, help="first of the held-out seeds")
    args = ap.parse_args()
    seeds = range(args.seed, args.seed + args.runs)

    print("baselines")
    paper = medians("paper", seeds)
    short = medians("campaign-short", seeds)
    storm = medians("campaign-storm", seeds)
    _, traced = run("paper", args.seed, trace=1)
    paper_x, short_x = paper[1], short[1]

    sim_s = paper_x["fig7_s"] + paper_x["fig8_s"]
    predict_us = 1e6 * 0.10 * sim_s / traced["models.predict_calls"]
    pass_1w_s = short_x["campaign.replicas"] / short_x["replicas_per_s_1w"]
    append_us = 1e6 * 0.10 * pass_1w_s / short_x["wal.appends"]
    print(f"A: {predict_us:.2f} us per symreg predict "
          f"({traced['models.predict_calls']:.0f} calls, {sim_s:.2f} s of simulation)")
    print(f"B: {append_us:.1f} us per WAL append "
          f"({short_x['wal.appends']:.0f} appends, {pass_1w_s:.3f} s per 1-worker pass)")

    slow_a, slow_b = f"symreg.predict:{predict_us}", f"wal.append:{append_us}"
    print("experiment A (symreg predict)")
    ok = judge("A", "paper", paper, medians("paper", seeds, slow_a)[0], "sim_events_per_s")
    ok &= judge("A", "campaign-short", short, medians("campaign-short", seeds, slow_a)[0])
    print("experiment B (WAL append)")
    ok &= judge("B", "campaign-short", short, medians("campaign-short", seeds, slow_b)[0],
                "sim_events_per_s")
    ok &= judge("B", "campaign-storm", storm, medians("campaign-storm", seeds, slow_b)[0])
    print("all predictions hold" if ok else "SOME PREDICTIONS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
