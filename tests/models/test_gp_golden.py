"""Golden bit-identity gate for the GP symbolic-regression engine.

``golden/gp_fits.json`` pins small, pinned-seed fits of
:class:`SymbolicRegressor`: the champion expression string, the
``repr`` of its train/test error, the generation count and the ``repr``
of every per-generation best error.  Any optimization of the engine
(memoized gene columns, shared genes, finite fast paths) must reproduce
these bytes; only an intentional change of the search may regenerate
them, with::

    PYTHONPATH=src python -m tests.models.test_gp_golden

The cases cover both fitness modes, the full operator set on data that
drives intermediates to ``inf`` (so the protected operators' non-finite
fallback runs), a log-target dataset fit, a fit without a test split,
and two consecutive fits on one regressor with different data, which
catches any cache that outlives a ``fit()`` call.

The work-counter test at the end pins how much evaluation one fit
does: each distinct gene is evaluated once per data split and each
distinct gene set is solved once, counted exactly rather than timed.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.models import BenchmarkDataset
from repro.models.symreg import (
    Binary,
    Const,
    GPConfig,
    SymbolicRegressionModel,
    SymbolicRegressor,
    Unary,
    Var,
)
from repro.models.symreg.expr import BINARY_OPS, UNARY_OPS

GOLDEN_FILE = Path(__file__).parent / "golden" / "gp_fits.json"

NAMES = ("epr", "ranks")
SMALL = GPConfig(population_size=60, generations=8, n_genes=3)
FULL_OPS = replace(
    SMALL, unary_ops=tuple(UNARY_OPS), binary_ops=tuple(BINARY_OPS), max_depth=6
)


def grid_data(seed: int, scale: float = 1.0):
    """A Table II-like 5x5 (epr, ranks) grid with a LULESH-shaped target,
    split 19 train / 6 test rows (unequal sizes, so counters can tell the
    splits apart)."""
    rng = np.random.default_rng(seed)
    epr, ranks = np.meshgrid([5.0, 10.0, 15.0, 20.0, 25.0], [8.0, 64.0, 216.0, 512.0, 1000.0])
    X = np.column_stack([epr.ravel(), ranks.ravel()]) * scale
    y = 2e-6 * X[:, 0] ** 3 * (1.0 + 0.05 * np.log(X[:, 1])) + 1e-4
    y = y * rng.lognormal(0.0, 0.02, size=y.shape)
    order = rng.permutation(len(y))
    tr, te = order[:19], order[19:]
    return X[tr], y[tr], X[te], y[te]


def wild_data(seed: int):
    """Signed inputs and a second input spanning 1e-3..1e60, so products,
    squares and powers of a few nodes overflow to ``inf`` mid-tree."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-40.0, 40.0, 16)
    z = rng.permutation(np.logspace(-3, 60, 16))
    X = np.column_stack([x, z])
    y = 3.0 * x**2 - 0.5 * np.log(z) + rng.normal(0.0, 0.1, size=16)
    return X[:12], y[:12], X[12:], y[12:]


def record(result) -> dict:
    return {
        "expression": str(result.expression),
        "train_nrmse": repr(result.train_nrmse),
        "test_nrmse": None if result.test_nrmse is None else repr(result.test_nrmse),
        "generations_run": result.generations_run,
        "history": [repr(h) for h in result.history],
    }


def fit(config: GPConfig, seed: int, data, with_test: bool = True):
    X, y, Xt, yt = data
    reg = SymbolicRegressor(NAMES, config=config, seed=seed)
    return reg.fit(X, y, Xt, yt) if with_test else reg.fit(X, y)


def log_target_model() -> dict:
    rng = np.random.default_rng(21)
    ds = BenchmarkDataset(NAMES, kernel="toy")
    for e in (5.0, 10.0, 15.0, 20.0, 25.0):
        for r in (8.0, 64.0, 216.0, 1000.0):
            mean = 1e-6 * e**3 * np.sqrt(r)
            ds.add_samples({"epr": e, "ranks": r}, mean * rng.lognormal(0.0, 0.03, size=3))
    train, test = ds.split(0.25, seed=0)
    model = SymbolicRegressionModel.fit_dataset(train, test, config=SMALL, seed=3, log_target=True)
    return {"expression": str(model.expression), "noise_rel_std": repr(model.noise_rel_std)}


def consecutive_fits() -> list[dict]:
    """Two fits on one regressor; same row count and gene alphabet, new data."""
    reg = SymbolicRegressor(NAMES, config=SMALL, seed=5)
    first = reg.fit(*grid_data(1))
    second = reg.fit(*grid_data(2, scale=1.5))
    return [record(first), record(second)]


def compute_cases() -> dict:
    return {
        "relative_default_ops": record(fit(SMALL, 0, grid_data(0))),
        "nrmse": record(fit(replace(SMALL, fitness="nrmse"), 1, grid_data(0))),
        "full_ops_nonfinite": record(fit(FULL_OPS, 2, wild_data(0))),
        "log_target_fit_dataset": log_target_model(),
        "no_test_split": record(fit(SMALL, 4, grid_data(3), with_test=False)),
        "consecutive_fits": consecutive_fits(),
    }


def test_gp_fits_byte_identical():
    expected = json.loads(GOLDEN_FILE.read_text())
    actual = compute_cases()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_wild_data_overflows_mid_tree():
    # the full-ops case only exercises the non-finite fallback if its data
    # can overflow: z * square(square(square(z))) is inf before protection.
    # Overflowing genes never win that fit, so the replacement values are
    # pinned here rather than by the golden.
    X, _, _, _ = wild_data(0)
    env = {"epr": X[:, 0], "ranks": X[:, 1]}
    z = env["ranks"]
    with np.errstate(over="ignore"):
        assert not np.isfinite(z * np.square(np.square(np.square(z)))).all()
    eighth = Unary("square", Unary("square", Unary("square", Var("ranks"))))
    out = Binary("*", Var("ranks"), eighth).evaluate(env)
    assert np.isfinite(out).all() and (out == 1e30).any()
    assert (Binary("pow", Var("ranks"), Const(6.0)).evaluate(env) == 1e30).any()


def test_fit_evaluates_each_gene_and_gene_set_once(monkeypatch):
    """Exact work counters for one pinned fit: top-level gene evaluations
    equal the distinct (split, gene) pairs scored, least-squares solves
    equal the distinct gene sets evaluated."""
    evaluated: list[tuple[int, str]] = []
    depth = [0]

    def count_top_level(evaluate):
        def shim(self, env):
            if depth[0] == 0 and env:  # env is {} when simplify folds constants
                evaluated.append((len(next(iter(env.values()))), str(self)))
            depth[0] += 1
            try:
                return evaluate(self, env)
            finally:
                depth[0] -= 1

        return shim

    for cls in (Const, Var, Unary, Binary):
        monkeypatch.setattr(cls, "evaluate", count_top_level(cls.evaluate))

    solved: list[tuple[str, ...]] = []
    tested: list[tuple[str, ...]] = []
    real_evaluate, real_score_on = SymbolicRegressor._evaluate, SymbolicRegressor._score_on

    def evaluate(self, ind, split, scored):
        solved.append(tuple(str(g) for g in ind.genes))
        return real_evaluate(self, ind, split, scored)

    def score_on(self, ind, split):
        if ind.coeffs is not None:
            tested.append(tuple(str(g) for g in ind.genes))
        return real_score_on(self, ind, split)

    monkeypatch.setattr(SymbolicRegressor, "_evaluate", evaluate)
    monkeypatch.setattr(SymbolicRegressor, "_score_on", score_on)
    lstsq_calls = [0]
    real_lstsq = np.linalg.lstsq

    def lstsq(*args, **kwargs):
        lstsq_calls[0] += 1
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)

    result = fit(SMALL, 0, grid_data(0))

    n_train, n_test = 19, 6
    pairs = {(n_train, g) for genes in solved for g in genes}
    pairs |= {(n_test, g) for genes in tested for g in genes}
    assert sorted(evaluated) == sorted(pairs)
    assert lstsq_calls[0] == len(set(solved))
    # the pinned fit's exact counts; a change here is an algorithmic change
    assert (len(solved), lstsq_calls[0], len(evaluated)) == (524, 393, 252)
    assert str(result.expression) == json.loads(GOLDEN_FILE.read_text())[
        "relative_default_ops"
    ]["expression"]


def _regenerate() -> None:
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(compute_cases(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")


if __name__ == "__main__":
    _regenerate()
