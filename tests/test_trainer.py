from dataclasses import replace

import numpy as np
import pytest
from conftest import with_params

from residual_lab import trainer
from residual_lab.dynamics import (
    EULER,
    RK4,
    DivergenceError,
    duffing,
    generate_dataset,
    oscillator,
    vanderpol,
)
from residual_lab.harness import ExperimentConfig, resolve_arch
from residual_lab.hybridcell import HybridSystem, tf_loss_grads, transitions_of
from residual_lab.netcore import (
    KanArch,
    MlpArch,
    ResidualBranch,
    new_branch,
    param_count,
    trainable_mask,
)
from residual_lab.rng import stream
from residual_lab.splines import SplineSpec
from residual_lab.trainer import (
    BPTT,
    CONVERGED,
    MAX_STEPS,
    TEACHER_FORCING,
    UNSTABLE,
    GradCheckReport,
    TrainConfig,
    TrainReport,
    adam_step,
    init_moments,
    load_report,
    save_report,
    train,
    verify_gradients,
)

KAN53 = SplineSpec(grid_size=5, order=3)


@pytest.fixture(scope="module")
def duffing_data():
    return generate_dataset(duffing(), 8, 2, 0.01, 300, seed=0)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.paradigm == TEACHER_FORCING
        assert cfg.steps == 2000
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
        assert cfg.grad_clip == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(paradigm="sgd")
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestAdamStep:
    def test_zero_grads_leave_params(self):
        cfg = TrainConfig()
        params = np.array([1.0, -2.0, 3.0])
        m0, v0 = np.array([0.5, 0.5, 0.5]), np.array([0.25, 0.25, 0.25])
        new, (m, v) = adam_step(params, np.zeros(3), (m0, v0), 5, cfg)
        assert np.array_equal(m, cfg.beta1 * m0)
        assert np.array_equal(v, cfg.beta2 * v0)
        # Moments decay but with zero first moment history the update is the
        # decayed-moment drift; with zero moments it is exactly zero.
        new2, _ = adam_step(params, np.zeros(3), init_moments(3), 1, cfg)
        assert np.array_equal(new2, params)

    def test_first_step_magnitude(self):
        # Bias correction makes the first update exactly -lr * sign(g) when
        # eps = 0; the default eps shifts it by about lr * eps.
        cfg = TrainConfig(learning_rate=0.1, eps=0.0)
        new, _ = adam_step(np.zeros(1), np.ones(1), init_moments(1), 1, cfg)
        assert abs(new[0] - (-0.1)) < 1e-12
        cfg_eps = TrainConfig(learning_rate=0.1)
        new_eps, _ = adam_step(np.zeros(1), np.ones(1), init_moments(1), 1, cfg_eps)
        assert abs(new_eps[0] - (-0.1)) < 1e-8

    def test_clipping_definition(self):
        cfg = TrainConfig(grad_clip=1.0)
        g = np.array([6.0, 8.0])  # norm 10
        full, _ = adam_step(np.zeros(2), g, init_moments(2), 1, cfg)
        tenth, _ = adam_step(np.zeros(2), g / 10.0, init_moments(2), 1, cfg)
        assert np.array_equal(full, tenth)

    def test_below_clip_untouched(self):
        cfg = TrainConfig(grad_clip=10.0)
        g = np.array([0.3, -0.4])
        a, _ = adam_step(np.zeros(2), g, init_moments(2), 1, cfg)
        b, _ = adam_step(np.zeros(2), g.copy(), init_moments(2), 1, cfg)
        assert np.array_equal(a, b)

    def test_pure(self):
        params = np.array([1.0, 2.0])
        grads = np.array([0.1, 0.2])
        m, v = init_moments(2)
        adam_step(params, grads, (m, v), 1, TrainConfig())
        assert np.array_equal(params, [1.0, 2.0])
        assert np.array_equal(grads, [0.1, 0.2])
        assert np.array_equal(m, np.zeros(2))

    def test_errors(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.zeros(3), init_moments(2), 1, cfg)
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.zeros(2), init_moments(2), 0, cfg)
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.array([np.nan, 0.0]), init_moments(2), 1, cfg)


class TestTrain:
    def test_single_step_history(self, duffing_data):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=0)
        h = HybridSystem(duffing(), b, duffing_data.dt)
        report = train(h, duffing_data, TrainConfig(steps=1), 0)
        assert len(report.loss_history) == 1
        assert report.status == MAX_STEPS

    def test_deterministic(self, duffing_data):
        reports = []
        for _ in range(2):
            b = new_branch(MlpArch((2, 16, 16, 1)), seed=3)
            h = HybridSystem(duffing(), b, duffing_data.dt)
            reports.append(train(h, duffing_data, TrainConfig(steps=40), 3))
        assert np.array_equal(reports[0].params, reports[1].params)
        assert reports[0].loss_history == reports[1].loss_history

    def test_seed_changes_run(self, duffing_data):
        finals = []
        for seed in (0, 1):
            b = new_branch(MlpArch((2, 16, 16, 1)), seed=0)
            h = HybridSystem(duffing(), b, duffing_data.dt)
            finals.append(train(h, duffing_data, TrainConfig(steps=20), seed).params)
        assert not np.array_equal(finals[0], finals[1])

    def test_loss_decreases(self, duffing_data):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=1)
        h = HybridSystem(duffing(), b, duffing_data.dt)
        report = train(h, duffing_data, TrainConfig(steps=300), 1)
        assert report.loss_history[-1] < report.loss_history[0]

    def test_bptt_paradigm_runs(self, duffing_data):
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=2)
        h = HybridSystem(duffing(), b, duffing_data.dt)
        cfg = TrainConfig(paradigm=BPTT, horizon=10, steps=5, learning_rate=3e-3,
                          batch_size=8)
        report = train(h, duffing_data, cfg, 2)
        assert len(report.loss_history) == 5
        assert np.isfinite(report.params).all()

    def test_unstable_run_recorded(self, duffing_data):
        # Huge parameters make every rollout diverge, so both the step and
        # its retry fail; the report must carry the failure step and finite
        # last-good parameters.
        b = new_branch(KanArch((2, 8, 8, 1), KAN53), seed=0)
        b = with_params(b, np.full_like(b.params, 1e9))
        h = HybridSystem(duffing(), b, duffing_data.dt)
        cfg = TrainConfig(paradigm=BPTT, horizon=50, steps=50, learning_rate=3e-3,
                          batch_size=4)
        report = train(h, duffing_data, cfg, 0)
        assert report.status == UNSTABLE
        assert report.fail_step == 1
        assert len(report.loss_history) == report.fail_step - 1
        assert np.isfinite(report.params).all()

    def test_converge_tol(self, duffing_data):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=4)
        h = HybridSystem(duffing(), b, duffing_data.dt)
        report = train(h, duffing_data, TrainConfig(steps=500, converge_tol=1e3), 4)
        assert report.status == CONVERGED
        assert len(report.loss_history) == 1

    def test_frozen_base_scales_stay_put(self, duffing_data):
        from residual_lab.netcore import _kan_layers, trainable_mask

        arch = KanArch((2, 4, 1), KAN53, base_blend=False)
        b = new_branch(arch, seed=5)
        before = b.params.copy()
        h = HybridSystem(duffing(), b, duffing_data.dt)
        train(h, duffing_data, TrainConfig(steps=10, learning_rate=3e-3), 5)
        mask = trainable_mask(arch)
        assert np.array_equal(b.params[~mask], before[~mask])
        assert not np.array_equal(b.params[mask], before[mask])

    def test_wall_time_recorded(self, duffing_data):
        b = new_branch(MlpArch((2, 26, 1)), seed=6)
        h = HybridSystem(duffing(), b, duffing_data.dt)
        report = train(h, duffing_data, TrainConfig(steps=2), 6)
        assert report.wall_time > 0


@pytest.mark.parametrize("paradigm,diverge", [(TEACHER_FORCING, False), (BPTT, False),
                                              (BPTT, True)])
def test_lone_seed_makes_only_stacked_loss_calls(monkeypatch, duffing_data, paradigm, diverge):
    # ``train`` is the block of one: every loss call, the retry of a failed
    # step included, gets an (S, P) block with S = 1, never a (P,) vector.
    real, ndims = trainer.bptt_grads_arrays, []

    def record(h, *inputs):
        ndims.append(h.branch.params.ndim)
        return real(h, *inputs)

    monkeypatch.setattr(trainer, "bptt_grads_arrays", record)
    b = new_branch(KanArch((2, 4, 1), KAN53), seed=2)
    if diverge:
        b = with_params(b, np.full_like(b.params, 1e9))
    h = HybridSystem(duffing(), b, duffing_data.dt)
    cfg = TrainConfig(paradigm=paradigm, horizon=10, steps=3, learning_rate=3e-3, batch_size=8)
    report = train(h, duffing_data, cfg, 2)
    assert report.status == (UNSTABLE if diverge else MAX_STEPS)
    assert ndims == [2] * (2 if diverge else 3)


def reference_teacher_forcing(system, data, cfg, seed):
    """The teacher-forcing loop ``train`` ran before both paradigms shared
    the window path: batches of ``transitions_of`` pairs through
    ``tf_loss_grads``, for a lone seed that never fails.  Returns the final
    parameters and the loss history."""
    arch = system.branch.arch
    params = system.branch.params[None].copy()
    mask = trainable_mask(arch)
    rng = stream(seed, "batches")
    s0, s1 = transitions_of(data.train)
    moments = init_moments(params.shape)
    history = []
    for t in range(1, cfg.steps + 1):
        i = rng.choice(len(s0), size=min(cfg.batch_size, len(s0)), replace=False)
        one = replace(system, branch=ResidualBranch(arch, params[0]))
        loss, grads, ok = tf_loss_grads(one, s0[i], s1[i])
        assert ok
        grads = grads[None]
        grads[:, ~mask] = 0.0
        params, moments = adam_step(params, grads, moments, t, cfg)
        history.append(float(loss))
    return params[0], history


@pytest.mark.parametrize("config", ["A", "mlp-small"])
def test_teacher_forcing_trains_as_the_transition_loop(duffing_data, config):
    # Teacher forcing trains on one-step windows; the pool is the same
    # transitions in the same order, so every draw and bit is the old loop's.
    arch, _ = resolve_arch(ExperimentConfig(config=config))
    b = new_branch(arch, seed=3)
    h = HybridSystem(duffing(), b, duffing_data.dt)
    cfg = TrainConfig(steps=5, learning_rate=3e-3)
    want_params, want_history = reference_teacher_forcing(h, duffing_data, cfg, 3)
    report = train(h, duffing_data, cfg, 3)
    assert report.loss_history == want_history
    assert report.params.tobytes() == want_params.tobytes()


class TestReportSerialization:
    def test_roundtrip(self, tmp_path):
        report = TrainReport(
            params=np.zeros(3),
            loss_history=[1.0, 0.5, 0.25],
            status=MAX_STEPS,
            wall_time=1.25,
            fail_step=None,
            checkpoint="branch.txt",
        )
        path = tmp_path / "report.json"
        save_report(report, path)
        back = load_report(path)
        assert back["status"] == MAX_STEPS
        assert back["loss_history"] == [1.0, 0.5, 0.25]
        assert back["checkpoint"] == "branch.txt"
        assert back["fail_step"] is None


class TestVerifyGradients:
    def test_zero_mlp_exact_agreement(self):
        arch = MlpArch((2, 16, 16, 1))
        b = ResidualBranch(arch, np.zeros(param_count(arch)))
        h = HybridSystem(duffing(), b, 0.01)
        report = verify_gradients(h, n_points=3)
        assert report.tf_error == 0.0
        assert report.bptt_error == 0.0
        assert report.passed

    def test_kan_config_a_passes(self):
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=0)
        h = HybridSystem(vanderpol(), b, 0.01)
        report = verify_gradients(h, n_points=5)
        assert report.tf_error < 1e-4
        assert report.bptt_error < 1e-3
        assert report.passed
        assert report.max_rel_error == max(report.tf_error, report.bptt_error)

    def test_mlp_passes(self):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=1)
        h = HybridSystem(duffing(), b, 0.01)
        assert verify_gradients(h, n_points=5).passed

    def test_failure_reports_worst_index(self):
        report = GradCheckReport(tf_error=0.5, bptt_error=0.0, worst_index=17,
                                 tolerance=1e-4, bptt_tolerance=1e-3)
        assert not report.passed
        assert report.worst_index == 17

    def test_validation(self):
        b = new_branch(MlpArch((2, 26, 1)), seed=0)
        h = HybridSystem(duffing(), b, 0.01)
        with pytest.raises(ValueError):
            verify_gradients(h, n_points=0)

    def test_non_finite_analytic_gradient_fails(self, monkeypatch):
        # A NaN entry fails every comparison, so it must count as error inf
        # rather than be skipped as agreement.
        real = trainer.tf_loss_grads

        def nan_grads(h, *inputs):
            loss, grads, ok = real(h, *inputs)
            if grads.ndim == 1:
                grads[3] = np.nan
            return loss, grads, ok

        monkeypatch.setattr(trainer, "tf_loss_grads", nan_grads)
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=0)
        report = verify_gradients(HybridSystem(vanderpol(), b, 0.01), n_points=2)
        assert report.tf_error == np.inf and report.worst_index == 3
        assert not report.passed

    def test_diverging_probe_raises(self):
        # A NaN finite difference would pass the tolerance comparison, so a
        # probe that diverges stops the check instead.
        b = with_params(new_branch(KanArch((2, 4, 1), KAN53), seed=0), np.full(120, 1e9))
        h = HybridSystem(duffing(), b, 0.01)
        with pytest.raises(DivergenceError):
            verify_gradients(h, n_points=1)


def loop_max_rel_error(analytic, fd):
    """The entry-by-entry loop the vectorised check replaced, for finite
    inputs: the first index of the worst relative error, (0.0, -1) if none."""
    worst, idx = 0.0, -1
    for i in range(analytic.size):
        a, f = analytic[i], fd[i]
        if abs(a) < 1e-9 and abs(f) < 1e-9:
            continue
        err = abs(a - f) / max(abs(a), abs(f))
        if err > worst:
            worst, idx = err, i
    return worst, idx


def test_max_rel_error_matches_loop_and_flags_non_finite():
    rng = np.random.default_rng(0)
    for n in (1, 7, 300):
        a = rng.normal(size=n) * 10.0 ** rng.integers(-12, 2, size=n)
        f = a * (1 + rng.normal(scale=1e-6, size=n))
        f[::5] = a[::5]  # exact agreement
        f[1::7] = 0.0  # one side zero
        for other in (f, a):
            assert trainer._max_rel_error(a, other) == loop_max_rel_error(a, other)
    a = np.array([1.0, 2.0, 3.0, 1e-12])
    for bad in (np.nan, np.inf, -np.inf):
        for i in (1, 3):
            f = a.copy()
            f[i] = bad
            assert trainer._max_rel_error(a, f) == (np.inf, i)
            assert trainer._max_rel_error(f, a) == (np.inf, i)


def sequential_fd_gradient(h, loss_grads, inputs, eps=1e-5):
    """The reference check: perturb the lone branch's parameters in place,
    one at a time, and take each loss from a call of its own."""
    params = h.branch.params
    grad = np.zeros(params.size)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + eps
        up = loss_grads(h, *inputs)[0]
        params[i] = orig - eps
        dn = loss_grads(h, *inputs)[0]
        params[i] = orig
        grad[i] = (up - dn) / (2.0 * eps)
    return grad


@pytest.mark.parametrize("system", ["duffing", "vanderpol"])
@pytest.mark.parametrize("config", ["A", "D", "G", "mlp-small"])
def test_block_gradient_check_equals_sequential_reference(monkeypatch, config, system):
    # The 2P perturbed copies run as seed blocks, and each copy's loss is the
    # float it is alone, so the whole report is the sequential one's.
    arch, _ = resolve_arch(ExperimentConfig(config=config))
    for integrator in (RK4, EULER):
        b = new_branch(arch, 0)
        h = HybridSystem(oscillator(system), b, 0.01, integrator)
        got = verify_gradients(h)
        with monkeypatch.context() as m:
            m.setattr(trainer, "_fd_gradient", sequential_fd_gradient)
            want = verify_gradients(h)
        assert got == want
        assert np.array_equal(b.params, new_branch(arch, 0).params)
