"""Coordinated rollback correctness under adversarial fault timing.

The subtle failure mode: a fault arriving while some ranks have committed
checkpoint N and others are still writing it must roll everyone back to
the last *globally committed* checkpoint, or collectives deadlock.
"""

import pytest

from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
)
from repro.models import CallableModel, ConstantModel
from repro.network import FullyConnected


def make_arch(recovery=0.1):
    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    # rank-dependent compute time so checkpoint completions are staggered
    arch.bind("k", CallableModel(lambda p: 0.1 + 0.05 * p.get("rank", 0), ()))
    arch.bind("ckpt", ConstantModel(0.2))
    arch.recovery_time_s = recovery
    return arch


def staggered_app(n_steps=6, period=2):
    def builder(rank, nranks, params):
        body = []
        for ts in range(1, n_steps + 1):
            body.append(Compute.of("k", rank=rank))
            if ts % period == 0:
                body.append(Checkpoint.of(1, "ckpt"))
            body.append(Collective("allreduce", nbytes=8))
        return body

    return AppBEO("staggered", builder)


def inject_at(sim, t):
    sim.engine.schedule(t, lambda ev: sim.inject_fault(0))


@pytest.mark.parametrize("fault_time", [0.05, 0.31, 0.45, 0.62, 0.95, 1.4])
def test_fault_at_any_instant_completes(fault_time):
    """Whenever the fault lands — mid-compute, mid-checkpoint, while some
    ranks wait at a collective — the run completes consistently."""
    sim = BESSTSimulator(
        staggered_app(), make_arch(), nranks=4, monte_carlo=False
    )
    inject_at(sim, fault_time)
    res = sim.run(max_events=200_000)
    assert res.rollbacks == 1
    assert max(res.finish_times) - min(res.finish_times) < 1e-9
    clean = BESSTSimulator(
        staggered_app(), make_arch(), nranks=4, monte_carlo=False
    ).run()
    assert res.total_time > clean.total_time  # rollback cost is visible


def test_rollback_targets_globally_committed_checkpoint():
    """Fault lands when rank 0 finished ckpt 1 but rank 3 (slower) has
    not: everyone must restart from checkpoint 0 (the beginning)."""
    sim = BESSTSimulator(
        staggered_app(n_steps=2, period=1), make_arch(), nranks=4,
        monte_carlo=False,
    )
    # rank 0's first checkpoint completes at 0.1 + 0.2 = 0.3; rank 3's at
    # 0.25 + 0.2 = 0.45. Fire in between.
    inject_at(sim, 0.35)
    res = sim.run(max_events=200_000)
    assert res.rollbacks == 1
    # wasted time reflects restarting from t~0, not from rank 0's ckpt
    assert res.wasted_time > 0.3


def test_rollback_to_common_checkpoint_when_all_committed():
    sim = BESSTSimulator(
        staggered_app(n_steps=4, period=1), make_arch(), nranks=4,
        monte_carlo=False,
    )
    # All ranks commit checkpoint 1 by t=0.45; allreduce releases later.
    # Fire well after, mid-second-timestep.
    inject_at(sim, 0.6)
    res = sim.run(max_events=200_000)
    assert res.rollbacks == 1
    # progress from the first checkpoint was preserved: wasted time is
    # bounded by (fault time - earliest commit) + downtime + read-back
    assert res.wasted_time < 0.6


def test_two_faults_back_to_back():
    sim = BESSTSimulator(
        staggered_app(n_steps=6, period=2), make_arch(), nranks=4,
        monte_carlo=False,
    )
    inject_at(sim, 0.5)
    inject_at(sim, 0.55)  # second fault lands during recovery
    res = sim.run(max_events=200_000)
    assert res.rollbacks == 2
    assert max(res.finish_times) - min(res.finish_times) < 1e-9


def test_fault_after_completion_is_ignored():
    sim = BESSTSimulator(
        staggered_app(n_steps=2, period=2), make_arch(), nranks=4,
        monte_carlo=False,
    )
    clean_total = BESSTSimulator(
        staggered_app(n_steps=2, period=2), make_arch(), nranks=4,
        monte_carlo=False,
    ).run().total_time
    inject_at(sim, clean_total + 1.0)
    res = sim.run(max_events=200_000)
    assert res.rollbacks == 0
    assert res.total_time == pytest.approx(clean_total)


def test_rollback_skips_checkpoints_taken_at_different_collectives():
    """A checkpoint seq that ranks committed after different numbers of
    collectives is no consistent cut: resuming there would leave the
    ranks waiting at different collectives.  Recovery skips it and
    restarts from the beginning instead of deadlocking."""
    from tests.core.test_noise_tape import make_arch as make_const_arch

    c, ar, ck = Compute.of("work"), Collective("allreduce", nbytes=8), Checkpoint.of(1, "ckpt")
    programs = [[c, ar, c, ar, ck, c, ar, c], [c, ck, ar, c, ar, c, ar, c]]

    def make():
        arch = make_const_arch({"work": ConstantModel(1.0), "ckpt": ConstantModel(0.25)})
        app = AppBEO("skewed", lambda rank, nranks, params: programs[rank])
        return BESSTSimulator(app, arch, nranks=2, monte_carlo=False)

    clean = make().run()
    sim = make()
    inject_at(sim, 0.9 * clean.total_time)
    res = sim.run()
    assert res.rollbacks == 1
    assert len(res.finish_times) == 2
    # each rank committed its one checkpoint (seq 1) at its own collective count
    assert [r.restart_history[1][1] for r in sim._ranks] == [2, 0]
    # the rework charged is the whole run up to the fault: a restart from 0
    assert res.waste_rework == pytest.approx(0.9 * clean.total_time)
