"""The compiled-program noise tape is a byte-identical stand-in for predict().

A rank whose model calls all resample empirical factor tables of one size
pre-draws its factor indices in blocks from its own stream.  These tests
pin that the result equals calling ``predict(params, rng)`` in program
order, exactly (``==``), over random programs mixing every model kind —
including the mixed-bound programs that must fall back — and that the
numpy block draw it relies on matches scalar draws value for value and in
the final bit-generator state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.lulesh import lulesh_appbeo
from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Compute,
    Exchange,
    Marker,
    Verify,
)
from repro.core.workflow import build_archbeo
from repro.des.rng import RNGRegistry
from repro.exps.casestudy import case_scenarios
from repro.models import ConstantModel, LookupTableModel
from repro.models.base import ScaledModel
from repro.models.dataset import BenchmarkDataset
from repro.models.symreg import SymbolicRegressionModel
from repro.network import FullyConnected
from repro.testbed.quartz import make_quartz

from tests.core.test_paper_golden import load_models

EPRS = (2, 3)


def _symreg(expr: str, factors=None, noise_rel_std: float = 0.0, floor: float = 0.0):
    return SymbolicRegressionModel(
        expr, ("epr",), noise_rel_std=noise_rel_std, noise_factors=factors, floor=floor
    )


def _lut() -> LookupTableModel:
    ds = BenchmarkDataset(("epr",))
    for e in EPRS:
        ds.add_samples({"epr": e}, [0.1 * e, 0.12 * e, 0.09 * e, 0.2 * e])
    return LookupTableModel(ds, sample_mode="draw")


def make_models() -> dict:
    return {
        "sr5a": _symreg("(0.5 + epr)", [0.9, 1.0, 1.1, 0.8, 1.3]),
        # the floor binds on some draws: 0.2 * (0.25 * epr) < 0.3 at epr 2, 3
        "sr5b": _symreg("(0.25 * epr)", [0.2, 1.5, 1.0, 0.7, 2.0], floor=0.3),
        "sr7": _symreg("(1.0 + (epr * epr))", [1.0, 0.95, 1.05, 1.2, 0.85, 1.1, 0.6]),
        "lognormal": _symreg("(0.1 * epr)", noise_rel_std=0.3),
        "const": ConstantModel(0.25),
        "scaled": ScaledModel(_symreg("(2.0 * epr)", [0.5, 1.0, 1.5, 1.25, 0.75]), 0.5),
        "lut": _lut(),
    }


def make_arch(models: dict) -> ArchBEO:
    arch = ArchBEO("tape", topology=FullyConnected(4), cores_per_node=1)
    for kernel, model in models.items():
        arch.bind(kernel, model)
    return arch


class _Program:
    """A fixed one-rank program (module-level, so simulators pickle)."""

    def __init__(self, body) -> None:
        self.body = list(body)

    def __call__(self, rank, nranks, params):
        return self.body


def oracle(program, models: dict, arch: ArchBEO, seed: int, monte_carlo: bool):
    """Timeline ``(kind, t_start, t_end)`` and total time from scalar predict() calls.

    A one-rank program with no collectives is a leading run of markers
    followed by one batch starting at 0.0, so the simulator's float
    arithmetic is reproduced exactly: offsets accumulate in program order.
    """
    rng = RNGRegistry(seed).get("rank0") if monte_carlo else None
    entries, off = [], 0.0
    for instr in program:
        if isinstance(instr, Marker):
            entries.append(("marker", off, off))
            continue
        if isinstance(instr, Exchange):
            dt, kind = arch.exchange_time(instr), "exchange"
        else:
            dt = models[instr.kernel].predict(instr.param_dict(), rng)
            kind = "checkpoint" if isinstance(instr, Checkpoint) else "compute"
        entries.append((kind, off, off + dt))
        off += dt
    return entries, off


def simulate(program, models: dict, seed: int, monte_carlo: bool):
    arch = make_arch(models)
    sim = BESSTSimulator(
        AppBEO("tape", _Program(program)), arch, nranks=1, seed=seed, monte_carlo=monte_carlo
    )
    res = sim.run()
    got = [(e.kind, e.t_start, e.t_end) for e in res.timelines[0].entries]
    return got, res.total_time, arch


_kernel_sets = st.lists(st.sampled_from(sorted(make_models())), min_size=1, max_size=3, unique=True)


@st.composite
def programs(draw):
    kernels = draw(_kernel_sets)
    epr = st.sampled_from(EPRS)
    instr = st.one_of(
        st.builds(lambda k, e: Compute.of(k, epr=e), st.sampled_from(kernels), epr),
        st.builds(
            lambda lv, k, e: Checkpoint.of(lv, k, epr=e),
            st.sampled_from((1, 2)),
            st.sampled_from(kernels),
            epr,
        ),
        st.builds(Exchange, st.sampled_from((0, 4096)), st.integers(1, 6)),
        st.builds(Marker, st.sampled_from(("m", "step"))),
    )
    return draw(st.lists(instr, min_size=1, max_size=150))


def _run_both(program, seed, monte_carlo):
    models = make_models()
    got, total, arch = simulate(program, models, seed, monte_carlo)
    # fresh models for the oracle: nothing is shared with the simulated run
    fresh = make_models()
    expected, expected_total = oracle(program, fresh, make_arch(fresh), seed, monte_carlo)
    assert got == expected
    assert total == expected_total


# mixed bounds 5 and 7: a tape wrongly enabled would draw integers(0, 5)
# for the 7-factor model and diverge from the oracle
_MIXED_BOUNDS = [Compute.of("sr5a", epr=2), Checkpoint.of(1, "sr7", epr=3)] * 40
# one bound, 130 model calls: the tape refills twice mid-program
_LONG_TAPE = [Compute.of("sr5a", epr=2), Marker("m"), Checkpoint.of(2, "sr5b", epr=3)] * 65


@settings(max_examples=60, deadline=None)
@given(program=programs(), seed=st.integers(0, 2**16), monte_carlo=st.booleans())
@example(program=_MIXED_BOUNDS, seed=0, monte_carlo=True)
@example(program=_LONG_TAPE, seed=1, monte_carlo=True)
@example(program=[Marker("m"), Compute.of("lut", epr=3), Compute.of("sr5a", epr=2)], seed=2,
         monte_carlo=True)
def test_timeline_equals_scalar_predict_oracle(program, seed, monte_carlo):
    _run_both(program, seed, monte_carlo)


@pytest.mark.parametrize("n", [1, 5, 7, 190, 1000, 2**40])
@pytest.mark.parametrize("k", [1, 63, 64, 65])
def test_block_draw_equals_scalar_draws(n, k):
    """``integers(0, n, size=k)`` is k scalar ``integers(0, n)`` draws.

    Checked from a fresh stream and after an odd number of 32-bit draws
    (a half-used buffered word), values and final bit-generator state.
    """
    for prefix in (0, 3):
        block, scalar = np.random.default_rng(11), np.random.default_rng(11)
        for g in (block, scalar):
            for _ in range(prefix):
                g.integers(0, 190)
        drawn = block.integers(0, n, size=k).tolist()
        assert drawn == [int(scalar.integers(0, n)) for _ in range(k)]
        assert block.bit_generator.state == scalar.bit_generator.state


# -- exact work counters ----------------------------------------------------------


def _count_predicts(monkeypatch) -> list:
    calls = [0]
    orig = SymbolicRegressionModel.predict

    def counting(self, params, rng=None):
        calls[0] += 1
        return orig(self, params, rng)

    monkeypatch.setattr(SymbolicRegressionModel, "predict", counting)
    return calls


def _fig7_style(models: dict):
    arch = build_archbeo(make_quartz(allocation_nodes=500), models)
    app = lulesh_appbeo(timesteps=40, scenario=case_scenarios()[-1])
    sim = BESSTSimulator(app, arch, nranks=64, params={"epr": 10}, seed=1000)
    return sim, app


def test_paper_models_draw_from_the_tape_only(monkeypatch):
    calls = _count_predicts(monkeypatch)
    sim, _app = _fig7_style(load_models())
    sim.run()
    assert calls[0] == 0


def test_mixed_factor_counts_fall_back_to_one_predict_per_model_op(monkeypatch):
    calls = _count_predicts(monkeypatch)
    models = load_models()
    l1 = models["fti_l1"]
    models["fti_l1"] = SymbolicRegressionModel(
        l1.expression, l1.param_names, noise_factors=l1.noise_factors[:100]
    )
    sim, app = _fig7_style(models)
    sim.run()
    model_ops = sum(
        isinstance(instr, (Compute, Checkpoint, Verify))
        for rank in range(64)
        for instr in app.build(rank, 64, {"epr": 10})
    )
    assert model_ops > 0
    assert calls[0] == model_ops
