"""Block invariance: a seed's row and training report do not depend on the
block it trains in.

``run_sweep`` trains the missing seeds of a sweep in lockstep blocks of up
to ``trainer.BLOCK_SEEDS``.  Each seed's metrics row, status, failing step,
loss history and final parameters must come out byte for byte as when the
seed trains alone: in a block of 16, beside seeds that go ``Unstable``,
under two workers, after a resume from a metrics file holding a scattered
set of seeds, and with per-seed datasets.
"""

import os
import pickle

import numpy as np
import pytest

from residual_lab import harness
from residual_lab.evaluation import write_metrics
from residual_lab.harness import (
    ExperimentConfig,
    _dataset_for,
    _run_block,
    make_train_config,
    resolve_arch,
    run_sweep,
)
from residual_lab.hybridcell import HybridSystem
from residual_lab.dynamics import oscillator
from residual_lab.netcore import ResidualBranch, init_params
from residual_lab.trainer import BLOCK_SEEDS, TrainConfig, adam_step, init_moments

SMALL_DATA = dict(n_train_ics=3, n_test_ics=1, data_steps=120)
CASES = {
    "mlp-small-bptt": dict(system="vanderpol", config="mlp-small", paradigm="bptt",
                           steps=3, horizon=10, **SMALL_DATA),
    "mlp-small-teacher-forcing": dict(system="vanderpol", config="mlp-small",
                                      paradigm="teacher_forcing", steps=3, **SMALL_DATA),
    "A-teacher-forcing": dict(system="duffing", config="A", paradigm="teacher_forcing",
                              steps=4, **SMALL_DATA),
    # Criterion 9's forced-failure setup on its default data, where seed 0
    # goes Unstable at step 1.
    "kan-deep-bptt-lr10": dict(system="duffing", config="kan-deep", paradigm="bptt",
                               learning_rate=10.0, steps=2, n_test_ics=1),
}
SEEDS = BLOCK_SEEDS


def config(case, tmp_path, **extra):
    return ExperimentConfig(**CASES[case], n_seeds=SEEDS,
                            out=str(tmp_path), **extra)


@pytest.fixture
def reports(monkeypatch, tmp_path):
    """Record every training report by seed.  Reports go through files, so
    the ones trained in worker processes are recorded too."""
    store = tmp_path / "reports"
    store.mkdir()

    def save(seeds, results):
        for seed, report in zip(seeds, results):
            with open(store / f"{seed}.pkl", "wb") as fh:
                pickle.dump(report, fh)
        return results

    real_block = harness.train_block
    monkeypatch.setattr(harness, "train_block",
                        lambda s, d, c, seeds: save(seeds, real_block(s, d, c, seeds)))

    def take():
        out = {}
        for path in store.iterdir():
            with open(path, "rb") as fh:
                out[int(path.stem)] = pickle.load(fh)
            path.unlink()
        return out

    return take


def metrics_lines(path) -> dict[int, str]:
    with open(path) as fh:
        rows = fh.read().splitlines()[2:]
    return {int(line.split(",")[4]): line for line in rows}


def row_lines(rows, tmp_path) -> dict[int, str]:
    path = tmp_path / "rows.csv"
    write_metrics(path, rows)
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return {int(line.split(",")[4]): line for line in lines}


def assert_same_report(got, want):
    assert got.status == want.status
    assert got.fail_step == want.fail_step
    assert got.loss_history == want.loss_history
    assert got.params.tobytes() == want.params.tobytes()


def alone(cfg, seeds, reports, tmp_path):
    """Rows and reports of each seed trained on its own, in a block of one."""
    rows = [row for s in seeds for row in _run_block((0, cfg, [s]))[1]]
    return row_lines(rows, tmp_path), reports()


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param


def test_block_of_16_under_workers_and_resume(case, reports, tmp_path):
    cfg = config(case, tmp_path / "one")
    want_rows, want_reports = alone(cfg, range(SEEDS), reports, tmp_path)
    statuses = {r.status for r in want_reports.values()}
    if case.startswith("kan-deep"):
        assert statuses == {"Unstable", "MaxSteps"}

    # One block of 16.
    result = run_sweep(cfg)
    metrics = os.path.join(result.directory, "metrics.csv")
    assert metrics_lines(metrics) == want_rows
    got = reports()
    assert sorted(got) == list(range(SEEDS))
    for seed, report in got.items():
        assert_same_report(report, want_reports[seed])

    # Resume from a scattered subset: the missing seeds form new blocks.
    with open(metrics) as fh:
        full = fh.read()
    head = full.splitlines()[:2]
    kept = [want_rows[s] for s in (1, 4, 5, 9, 14)]
    with open(metrics, "w") as fh:
        fh.write("\n".join(head + kept) + "\n")
    run_sweep(cfg)
    with open(metrics) as fh:
        assert fh.read() == full
    got = reports()
    assert sorted(got) == sorted(set(range(SEEDS)) - {1, 4, 5, 9, 14})
    for seed, report in got.items():
        assert_same_report(report, want_reports[seed])

    # Two workers: two blocks of 8, trained in child processes.
    two = run_sweep(config(case, tmp_path / "two"), workers=2)
    with open(os.path.join(two.directory, "metrics.csv")) as fh:
        assert fh.read() == full
    got = reports()
    assert sorted(got) == list(range(SEEDS))
    for seed, report in got.items():
        assert_same_report(report, want_reports[seed])


def test_per_seed_data_blocks(case, reports, tmp_path):
    cfg = config(case, tmp_path, per_seed_data=True, data_seed=5)
    seeds = range(6)
    want_rows, want_reports = alone(cfg, seeds, reports, tmp_path)
    result = run_sweep(ExperimentConfig(**{**cfg.__dict__, "n_seeds": len(seeds)}))
    assert metrics_lines(os.path.join(result.directory, "metrics.csv")) == want_rows
    got = reports()
    for seed in seeds:
        assert_same_report(got[seed], want_reports[seed])


def test_block_beside_diverging_seeds(case, reports, tmp_path):
    # Seeds whose parameters are scaled by 1e6 diverge on both attempts of
    # step 1; the seeds between them must not notice.
    cfg = config(case, tmp_path)
    healthy = [0, 1, 2, 3]
    _, want_reports = alone(cfg, healthy, reports, tmp_path)
    arch, _ = resolve_arch(cfg)
    order = [100, 0, 1, 101, 2, 3, 102]
    params = np.stack([init_params(arch, s) * (1e6 if s >= 100 else 1.0) for s in order])
    ds = _dataset_for(cfg, 0)
    system = HybridSystem(oscillator(cfg.system), ResidualBranch(arch, params), ds.dt,
                          cfg.integrator, ds.scale)
    got = harness.train_block(system, [ds] * len(order), make_train_config(cfg, arch), order)
    for seed, report in zip(order, got):
        if seed >= 100:
            assert (report.status, report.fail_step, report.loss_history) == ("Unstable", 1, [])
            assert report.params.tobytes() == params[order.index(seed)].tobytes()
        else:
            assert_same_report(report, want_reports[seed])


def reference_adam(params, grads, moments, t, cfg):
    """One seed's Adam step as a lone 1-D vector: clipped by np.linalg.norm."""
    norm = float(np.linalg.norm(grads))
    if cfg.grad_clip > 0 and norm > cfg.grad_clip:
        grads = grads * (cfg.grad_clip / norm)
    m, v = moments
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grads ** 2
    mhat = m / (1.0 - cfg.beta1 ** t)
    vhat = v / (1.0 - cfg.beta2 ** t)
    return params - cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.eps), (m, v)


@pytest.mark.parametrize("n_params", [3, 120, 337, 1185])
def test_batched_adam_rows_match_one_seed(n_params):
    rng = np.random.default_rng(n_params)
    cfg = TrainConfig(grad_clip=1.0, learning_rate=3e-3)
    rows = 80
    grads = rng.normal(size=(rows, n_params)) * rng.uniform(0.0, 3.0 / np.sqrt(n_params),
                                                             size=(rows, 1))
    norms = [np.linalg.norm(g) for g in grads]
    assert min(norms) < cfg.grad_clip < max(norms)
    params = rng.normal(size=(rows, n_params))
    moments = (0.1 * rng.normal(size=(rows, n_params)),
               0.01 * rng.uniform(size=(rows, n_params)))
    for t, block in ((1, init_moments((rows, n_params))), (7, moments)):
        new, (m, v) = adam_step(params, grads, block, t, cfg)
        for s in range(rows):
            one = reference_adam(params[s], grads[s], (block[0][s], block[1][s]), t, cfg)
            assert new[s].tobytes() == one[0].tobytes()
            assert m[s].tobytes() == one[1][0].tobytes()
            assert v[s].tobytes() == one[1][1].tobytes()
            solo = adam_step(params[s], grads[s], (block[0][s], block[1][s]), t, cfg)
            assert solo[0].tobytes() == one[0].tobytes()
