"""BE-SST simulator semantics: execution, synchronization, Monte Carlo."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Instruction,
    Marker,
    MonteCarloRunner,
    RecoveryPolicy,
)
from repro.core.fault_injection import FaultDetail
from repro.core.montecarlo import Distribution
from repro.models import CallableModel, ConstantModel, ModelError
from repro.models.symreg import SymbolicRegressionModel
from repro.network import FullyConnected


def make_arch(compute=0.1, ckpt=0.5, stochastic=False):
    arch = ArchBEO("m", topology=FullyConnected(64), cores_per_node=2)
    if stochastic:
        arch.bind(
            "k",
            CallableModel(
                lambda p, rng: compute * (1 + (0.1 * rng.random() if rng else 0)),
                (),
                stochastic=True,
            ),
        )
    else:
        arch.bind("k", ConstantModel(compute))
    arch.bind("ckpt", ConstantModel(ckpt))
    return arch


def simple_app(n_steps=3, with_ckpt=False, with_collective=True):
    def builder(rank, nranks, params):
        body = []
        for ts in range(1, n_steps + 1):
            body.append(Compute.of("k"))
            if with_collective:
                body.append(Collective("allreduce", nbytes=8))
            if with_ckpt and ts == n_steps:
                body.append(Checkpoint.of(1, "ckpt"))
        return body

    return AppBEO("app", builder)


def test_single_rank_compute_only():
    sim = BESSTSimulator(simple_app(3, with_collective=False), make_arch(), nranks=1)
    res = sim.run()
    assert res.total_time == pytest.approx(0.3)
    assert res.nranks == 1
    assert res.compute_time == pytest.approx(0.3)


def test_collective_synchronizes_ranks():
    # heterogeneous compute: rank 0 slow
    arch = ArchBEO("m", topology=FullyConnected(4), cores_per_node=2)
    arch.bind(
        "k",
        CallableModel(lambda p: 1.0 if p.get("rank") == 0 else 0.1, ()),
    )

    def builder(rank, nranks, params):
        return [Compute.of("k", rank=rank), Collective("barrier")]

    app = AppBEO("het", builder)
    res = BESSTSimulator(app, arch, nranks=4, monte_carlo=False).run()
    # everyone finishes at slowest arrival + barrier cost (same for all)
    assert max(res.finish_times) - min(res.finish_times) < 1e-12
    assert res.total_time > 1.0


def test_checkpoint_time_accounted():
    sim = BESSTSimulator(
        simple_app(2, with_ckpt=True), make_arch(compute=0.1, ckpt=0.5), nranks=4
    )
    res = sim.run()
    assert res.checkpoint_time == pytest.approx(0.5)
    assert res.ft_overhead_fraction > 0
    marks = res.checkpoint_marks()
    assert len(marks) == 1 and marks[0][1] == 1


def test_timeline_recording_modes():
    for mode, expect in (("rank0", {0}), ("all", {0, 1}), ("none", set())):
        sim = BESSTSimulator(
            simple_app(1), make_arch(), nranks=2, record_timelines=mode
        )
        res = sim.run()
        assert set(res.timelines) == expect
    with pytest.raises(ValueError):
        BESSTSimulator(simple_app(1), make_arch(), nranks=2, record_timelines="some")


def test_timeline_entries_ordered_and_labeled():
    sim = BESSTSimulator(simple_app(2, with_ckpt=True), make_arch(), nranks=2)
    res = sim.run()
    tl = res.timelines[0]
    kinds = [e.kind for e in tl.entries]
    assert "compute" in kinds and "collective" in kinds and "checkpoint" in kinds
    times = [e.t_start for e in tl.entries]
    assert times == sorted(times)
    assert all(e.t_end >= e.t_start for e in tl.entries)


def test_exchange_priced_into_compute_time():
    def builder(rank, nranks, params):
        return [Exchange(nbytes=1000, neighbors=2)]

    app = AppBEO("x", builder)
    res = BESSTSimulator(app, make_arch(), nranks=2).run()
    assert res.total_time > 0
    assert res.compute_time == pytest.approx(res.total_time)


def test_marker_is_free():
    def builder(rank, nranks, params):
        return [Marker("a"), Compute.of("k"), Marker("b")]

    app = AppBEO("m", builder)
    res = BESSTSimulator(app, make_arch(compute=0.2), nranks=1).run()
    assert res.total_time == pytest.approx(0.2)
    labels = [e.label for e in res.timelines[0].entries if e.kind == "marker"]
    assert labels == ["a", "b"]


def test_monte_carlo_draws_vary():
    def total(seed, mc):
        sim = BESSTSimulator(
            simple_app(5),
            make_arch(stochastic=True),
            nranks=4,
            seed=seed,
            monte_carlo=mc,
        )
        return sim.run().total_time

    assert total(1, True) != total(2, True)
    assert total(1, False) == total(2, False)  # deterministic central prediction
    assert total(3, True) == total(3, True)  # same seed reproducible


def test_run_twice_returns_same_result():
    sim = BESSTSimulator(simple_app(2), make_arch(), nranks=2)
    r1 = sim.run()
    r2 = sim.run()
    assert r1 is r2


def test_mismatched_collective_counts_detected():
    def builder(rank, nranks, params):
        if rank == 0:
            return [Collective("barrier"), Collective("barrier")]
        return [Collective("barrier")]

    app = AppBEO("bad", builder)
    sim = BESSTSimulator(app, make_arch(), nranks=2)
    with pytest.raises(RuntimeError, match="unfinished"):
        sim.run()


def test_monte_carlo_runner():
    runner = MonteCarloRunner(reps=5, base_seed=0)
    mc = runner.run(
        lambda seed: BESSTSimulator(
            simple_app(3), make_arch(stochastic=True), nranks=4, seed=seed
        )
    )
    assert mc.total_time.samples.size == 5
    assert mc.total_time.std > 0
    assert mc.total_time.min <= mc.total_time.mean <= mc.total_time.max
    with pytest.raises(ValueError):
        MonteCarloRunner(reps=0)


def test_distribution_stats():
    d = Distribution(np.array([1.0, 2.0, 3.0, 4.0]))
    assert d.mean == 2.5
    assert d.percentile(50) == 2.5
    assert d.cv > 0
    summary = d.to_dict()
    assert summary["n"] == 4 and summary["p95"] <= 4.0
    with pytest.raises(ValueError):
        Distribution(np.array([]))


def test_event_batching_reduces_events():
    """Consecutive local instructions fire as one event."""

    def builder(rank, nranks, params):
        return [Compute.of("k") for _ in range(10)]

    app = AppBEO("batch", builder)
    sim = BESSTSimulator(app, make_arch(), nranks=1)
    res = sim.run()
    # 1 setup event + 1 batch event (10 instructions)
    assert res.events_fired <= 3
    assert res.total_time == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["software", "sdc"])
def test_queue_len_counts_live_events_after_rollback(kind):
    """A rollback cancels only pending events: fired releases are not kept
    for it, and the batch event being handled when SDC write validation
    starts a recovery is no longer pending, so ``len(queue)`` stays exact."""

    def builder(rank, nranks, params):
        step = [Compute.of("k"), Collective("allreduce", nbytes=8)]
        return (step * 5 + [Checkpoint.of(1, "ckpt")]) * 8

    sim = BESSTSimulator(
        AppBEO("app", builder),
        make_arch(),
        nranks=4,
        monte_carlo=False,
        recovery_policy=RecoveryPolicy(ckpt_validate_prob=1.0),
    )
    detail = FaultDetail(covered=True, correctable=False) if kind == "sdc" else None
    sim.engine.schedule(1.25, lambda ev: sim.inject_fault(0, kind=kind, detail=detail))
    sim.engine.run(until=2.5)
    assert sim.rollbacks == 1
    assert len(sim.sync._pending_releases) <= 1
    queue = sim.engine.queue
    assert len(queue) == sum(not entry[3].cancelled for entry in queue._heap)
    assert sim.run().completed


@dataclass(frozen=True)
class Sleep(Instruction):
    """An instruction type the simulator has no execution rule for."""

    seconds: float = 1.0


def test_unknown_instruction_type_is_rejected_at_construction():
    # it used to price as an empty zero-time batch and reschedule forever
    app = AppBEO("sleepy", lambda rank, nranks, params: [Compute.of("k"), Sleep()])
    with pytest.raises(TypeError, match="Sleep"):
        BESSTSimulator(app, make_arch(), nranks=2)


@pytest.mark.parametrize(
    "kernel, match", [("unbound", "no model for kernel 'unbound'"), ("sr", "missing parameters")]
)
def test_unpriceable_model_call_raises_when_run_not_when_built(kernel, match):
    arch = make_arch()
    arch.bind("sr", SymbolicRegressionModel("(2.0 * epr)", ("epr",), noise_factors=[1.0, 1.5]))
    app = AppBEO("bad", lambda rank, nranks, params: [Compute.of(kernel)])
    sim = BESSTSimulator(app, arch, nranks=1)
    with pytest.raises(ModelError, match=match):
        sim.run()
