"""The benchmark's span tracer (perfbench/spans.py) rebinds package functions
by name at trace time.  These tests install it on the package namespace the
benchmark builds and train one short seed per paradigm, so a rename or
deletion of a traced function fails here and not only in a traced benchmark
run."""

from pathlib import Path

import pytest

from residual_lab import hybridcell, trainer
from residual_lab.harness import ExperimentConfig, _run_block

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import worker

    return spans, worker


@pytest.mark.parametrize("config,paradigm", [("A", "teacher_forcing"),
                                             ("mlp-small", "bptt")])
def test_traced_training_reaches_the_cell(perfbench, config, paradigm):
    spans, worker = perfbench
    cfg = ExperimentConfig(config=config, paradigm=paradigm, steps=2, horizon=10,
                           n_train_ics=2, n_test_ics=1, data_steps=50)
    tracer = spans.Tracer(worker.load_package())
    originals = (hybridcell.step_batch, trainer.tf_loss_grads, trainer.bptt_grads_arrays)
    restore = tracer.install()
    try:
        assert trainer.tf_loss_grads is not originals[1]
        assert trainer.bptt_grads_arrays is not originals[2]
        _, (row,) = _run_block((0, cfg, [0]))
    finally:
        restore()
    assert (hybridcell.step_batch, trainer.tf_loss_grads,
            trainer.bptt_grads_arrays) == originals
    assert row.status == "MaxSteps"
    metrics = tracer.metrics(seeds=1)
    assert metrics["hybridcell.loss.calls"] == 2
    assert metrics["hybridcell.step.calls"] > 0
    assert metrics["hybridcell.step_vjp.calls"] > 0
    assert metrics["trainer.adam.calls"] == 2
