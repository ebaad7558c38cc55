import numpy as np
import pytest
from conftest import with_params, zero_branch

from residual_lab.dynamics import (
    DivergenceError,
    duffing,
    generate_dataset,
    integrate_batch,
    vanderpol,
)
from residual_lab.hybridcell import (
    DIVERGE_BOUND,
    EULER,
    RK4,
    HybridSystem,
    OracleResidual,
    bptt_grads_arrays,
    oracle_system,
    rollout,
    step_batch,
    step_vjp,
    tf_loss_grads,
    transitions_of,
    windows_of,
)
from residual_lab.netcore import (
    KanArch,
    MlpArch,
    ResidualBranch,
    init_params,
    l1_penalty,
    new_branch,
)
from residual_lab.splines import SplineSpec

KAN53 = SplineSpec(grid_size=5, order=3)


def zero_system(spec, dt, integrator=RK4):
    return HybridSystem(spec, zero_branch(), dt, integrator)


@pytest.fixture(scope="module")
def duffing_data():
    return generate_dataset(duffing(), 4, 1, 0.01, 200, seed=0)


@pytest.fixture(scope="module")
def vdp_data():
    return generate_dataset(vanderpol(), 2, 1, 0.01, 200, seed=4)


def fd_loss_gradient(loss_of_params, branch, eps=1e-5):
    out = np.zeros_like(branch.params)
    for i in range(branch.params.size):
        p = branch.params.copy()
        p[i] += eps
        up = loss_of_params(p)
        p[i] -= 2 * eps
        dn = loss_of_params(p)
        out[i] = (up - dn) / (2 * eps)
    return out


def max_rel_error(a, b, floor=1e-6):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def step_rows(h, states):
    """One step of every (x, v) row in a single batched call, as an (S, 2) array."""
    states = np.asarray(states, dtype=float)
    XP, VP, _ = step_batch(h.prepare(), states[:, 0], states[:, 1], np.ones((), dtype=bool))
    return np.stack([XP, VP], axis=1)


class TestHybridStep:
    def test_euler_hand_example(self):
        h = zero_system(duffing(), 0.1, EULER)
        for S in (1, 3):
            out = step_rows(h, [[1.0, 0.0]] * S)
            assert out.shape == (S, 2)
            assert np.allclose(out, [[1.0, -0.1]], rtol=0.0, atol=1e-15)

    def test_fixed_point_of_known_part(self):
        for integrator in (EULER, RK4):
            h = zero_system(vanderpol(), 0.05, integrator)
            assert np.array_equal(step_rows(h, [[0.0, 0.0]]), [[0.0, 0.0]])
            out = step_rows(h, [[0.0, 0.0], [1.0, 0.5]])
            assert np.array_equal(out[0], [0.0, 0.0])

    def test_oracle_matches_reference_integrator(self):
        # Same RK4, same RHS: the only difference is roundoff in the
        # normalize/denormalize roundtrip inside the oracle.
        starts = np.array([[1.0, 0.0], [-0.5, 1.2], [2.0, -1.0]])
        for spec in (duffing(), vanderpol()):
            h = oracle_system(spec, 0.01)
            ref = integrate_batch(spec, starts, 0.01, 1000)
            for block in (starts[:1], starts):
                states = rollout(h, block, 1000)
                assert states.shape == (len(block), 1001, 2)
                assert np.abs(states - ref[: len(block)]).max() < 1e-9

    def test_hard_constraint_x_slope_is_v(self):
        # Euler makes the kinematic update directly observable: x' = x + dt*v
        # exactly, whatever the branch outputs.
        b = new_branch(KanArch((2, 8, 1), KAN53), seed=0)
        h = HybridSystem(duffing(), b, 0.07, EULER)
        starts = np.array([(0.3, -1.2), (2.0, 0.5), (-1.7, 1.7)])
        batched = step_rows(h, starts)
        for (x, v), row in zip(starts, batched):
            assert row[0] == x + 0.07 * v
            assert step_rows(h, [[x, v]])[0, 0] == x + 0.07 * v

    def test_divergence_error_carries_step(self):
        h = zero_system(duffing(), 1e9, EULER)  # absurd dt blows the bound
        for starts in ([[1.0, 1.0]], [[1.0, 1.0], [0.0, 0.0], [-0.5, 0.2]]):
            with pytest.raises(DivergenceError) as err:
                rollout(h, starts, 100)
            assert err.value.step == 1

    def test_divergence_clears_only_its_seed(self):
        # Seed 1 of the block has every parameter at 1e9, so its state passes
        # DIVERGE_BOUND in one step; seeds 0 and 2 must not notice.
        arch = KanArch((2, 4, 1), KAN53)
        params = np.stack([init_params(arch, s) for s in range(3)])
        params[1] = 1e9
        rng = np.random.default_rng(0)
        X, V = rng.uniform(-1.5, 1.5, size=(2, 3, 4))
        for integrator in (RK4, EULER):
            h = HybridSystem(duffing(), ResidualBranch(arch, params), 0.01, integrator)
            ok = np.ones(3, dtype=bool)
            with np.errstate(all="ignore"):
                XP, VP, _ = step_batch(h.prepare(), X, V, ok)
            assert ok.tolist() == [True, False, True]
            assert not (np.abs(VP[1]) <= DIVERGE_BOUND).all()
            for s in (0, 2):
                lone = HybridSystem(duffing(), ResidualBranch(arch, params[s]), 0.01, integrator)
                lone_ok = np.ones((), dtype=bool)
                lx, lv, _ = step_batch(lone.prepare(), X[s], V[s], lone_ok)
                assert lone_ok
                assert XP[s].tobytes() == lx.tobytes() and VP[s].tobytes() == lv.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridSystem(duffing(), zero_branch(), 0.01, "leapfrog")
        with pytest.raises(ValueError):
            HybridSystem(duffing(), zero_branch(), -0.01)
        with pytest.raises(ValueError):
            HybridSystem(duffing(), zero_branch(), 0.01, RK4, scale=0.0)


class TestRollout:
    def test_single_step_equals_step_batch(self):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=1)
        h = HybridSystem(vanderpol(), b, 0.01)
        starts = np.array([[0.8, -0.4], [-1.1, 0.3]])
        for block in (starts[:1], starts):
            states = rollout(h, block, 1)
            assert states.shape == (len(block), 2, 2)
            assert np.array_equal(states[:, 0], block)
            assert np.array_equal(states[:, 1], step_rows(h, block))

    def test_zero_branch_center_stays_bounded(self):
        # Known part alone is the linear center x'' = -x: energy conserved,
        # so the orbit from (2, 0) keeps ||state||_inf <= 2.01 under RK4.
        h = zero_system(vanderpol(), 0.01)
        for starts in ([[2.0, 0.0]], [[2.0, 0.0], [0.0, -2.0], [-1.2, 1.6]]):
            states = rollout(h, starts, 2000)
            assert np.isfinite(states).all()
            assert np.abs(states).max() <= 2.01

    def test_needs_positive_steps(self):
        h = zero_system(duffing(), 0.01)
        for starts in ([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError):
                rollout(h, starts, 0)
        for bad in ([1.0, 0.0], np.zeros((2, 3))):
            with pytest.raises(ValueError):
                rollout(h, bad, 10)


def tf_loss(h, trajectories):
    return tf_loss_grads(h, *transitions_of(trajectories))


def local_only_bptt_grads(h, starts, targets):
    """BPTT gradient with the adjoint cut between steps: each step adds only
    its own local parameter gradient, built from step_batch + step_vjp."""
    n, horizon = targets.shape[:2]
    norm = n * horizon
    X, V = starts[:, 0], starts[:, 1]
    grads = np.zeros_like(h.branch.params)
    h = h.prepare(grads)
    for t in range(horizon):
        X, V, cache = step_batch(h, X, V, np.ones((), dtype=bool))
        step_vjp(h, cache, (2.0 / norm) * (X - targets[:, t, 0]),
                 (2.0 / norm) * (V - targets[:, t, 1]))
    h.branch.l1_grad_into(grads)
    return grads


class TestTeacherForcing:
    def test_oracle_closure(self, duffing_data):
        h = oracle_system(duffing(), duffing_data.dt)
        s0, s1 = transitions_of(duffing_data.train)
        for n in (1, len(s0)):
            loss, grads, _ = tf_loss_grads(h, s0[:n], s1[:n])
            assert loss < 1e-16
            assert grads.shape == (0,)

    def test_zero_branch_positive_loss(self, duffing_data):
        h = zero_system(duffing(), duffing_data.dt)
        s0, s1 = transitions_of(duffing_data.train)
        for n in (1, len(s0)):
            assert tf_loss_grads(h, s0[:n], s1[:n])[0] > 0.0

    def test_oracle_beats_zero_branch(self, duffing_data):
        oracle = tf_loss(oracle_system(duffing(), 0.01), duffing_data.train)[0]
        zero = tf_loss(zero_system(duffing(), 0.01), duffing_data.train)[0]
        assert oracle < zero

    def test_gradient_matches_finite_differences(self, duffing_data):
        # 120-parameter KAN on 1 and 3 transitions, both integrators.
        s0, s1 = transitions_of(duffing_data.train)
        for n in (1, 3):
            for integrator in (RK4, EULER):
                b = new_branch(KanArch((2, 4, 1), KAN53), seed=3)
                h = HybridSystem(duffing(), b, 0.01, integrator)
                _, grads, _ = tf_loss_grads(h, s0[:n], s1[:n])

                def loss_at(p, integrator=integrator, n=n):
                    h2 = HybridSystem(duffing(), with_params(b, p), 0.01, integrator)
                    return tf_loss_grads(h2, s0[:n], s1[:n])[0]

                fd = fd_loss_gradient(loss_at, b)
                assert max_rel_error(grads, fd) < 1e-4

    def test_l1_term_included(self, duffing_data):
        plain = new_branch(KanArch((2, 4, 1), KAN53, l1_weight=0.0), seed=5)
        sparse = with_params(new_branch(KanArch((2, 4, 1), KAN53, l1_weight=1e-2), seed=5),
                             plain.params)
        l0 = tf_loss(HybridSystem(duffing(), plain, 0.01), duffing_data.train)[0]
        l1 = tf_loss(HybridSystem(duffing(), sparse, 0.01), duffing_data.train)[0]
        assert l1 == pytest.approx(l0 + l1_penalty(sparse), rel=1e-12)
        assert l1_penalty(sparse) > 0

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="no trajectories"):
            transitions_of(np.zeros((0, 5, 2)))


class TestWindows:
    def test_non_overlapping_cover(self):
        # 100 transitions -> 3 full windows of 30 per trajectory, stacked
        # trajectory by trajectory.
        ds = generate_dataset(duffing(), 3, 0, 0.01, 100, seed=2)
        for trajs in (ds.train[:1], ds.train):
            starts, targets = windows_of(trajs, 30)
            assert starts.shape == (3 * len(trajs), 2)
            assert targets.shape == (3 * len(trajs), 30, 2)
            for i, traj in enumerate(trajs):
                for j in range(3):
                    assert np.array_equal(starts[3 * i + j], traj[30 * j])
                    assert np.array_equal(targets[3 * i + j], traj[30 * j + 1 : 30 * j + 31])

    def test_horizon_one(self):
        ds = generate_dataset(duffing(), 2, 0, 0.01, 10, seed=2)
        starts, targets = windows_of(ds.train[:1], 1)
        assert starts.shape == (10, 2) and targets.shape == (10, 1, 2)
        s0, s1 = transitions_of(ds.train)
        starts, targets = windows_of(ds.train, 1)
        assert np.array_equal(starts, s0)
        assert np.array_equal(targets[:, 0], s1)

    def test_validation(self):
        ds = generate_dataset(duffing(), 2, 0, 0.01, 20, seed=2)
        with pytest.raises(ValueError):
            windows_of(ds.train, 0)
        with pytest.raises(ValueError):
            windows_of(ds.train[:0], 0)
        with pytest.raises(ValueError, match="shorter than one BPTT window"):
            windows_of(ds.train, 21)


class TestBptt:
    def test_oracle_closure_k50(self, vdp_data):
        h = oracle_system(vanderpol(), vdp_data.dt)
        starts, targets = windows_of(vdp_data.train, 50)
        for n in (1, len(starts)):
            loss, _, _ = bptt_grads_arrays(h, starts[:n], targets[:n])
            assert loss < 1e-14

    def test_k1_reproduces_teacher_forcing(self, vdp_data):
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=6)
        h = HybridSystem(vanderpol(), b, vdp_data.dt)
        s0, s1 = transitions_of(vdp_data.train)
        starts, targets = windows_of(vdp_data.train, 1)
        for n in (1, len(s0)):
            tf_loss_n, tf_grads, _ = tf_loss_grads(h, s0[:n], s1[:n])
            bp_loss, bp_grads, _ = bptt_grads_arrays(h, starts[:n], targets[:n])
            assert abs(tf_loss_n - bp_loss) < 1e-12
            assert np.abs(tf_grads - bp_grads).max() < 1e-12

    def test_gradient_matches_finite_differences(self, vdp_data):
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=7)
        h = HybridSystem(vanderpol(), b, vdp_data.dt)
        starts, targets = windows_of(vdp_data.train, 5)
        for n in (1, 4):
            _, grads, _ = bptt_grads_arrays(h, starts[:n], targets[:n])

            def loss_at(p, n=n):
                return bptt_grads_arrays(
                    HybridSystem(vanderpol(), with_params(b, p), vdp_data.dt),
                    starts[:n], targets[:n])[0]

            fd = fd_loss_gradient(loss_at, b)
            assert max_rel_error(grads, fd) < 1e-3

    def test_state_path_completeness(self, vdp_data):
        # Train briefly so the branch is nontrivial, then check that dropping
        # the through-state adjoint visibly changes the K=10 gradient.
        from residual_lab.trainer import TrainConfig, train

        b = new_branch(KanArch((2, 4, 1), KAN53), seed=8)
        h = HybridSystem(vanderpol(), b, vdp_data.dt)
        cfg = TrainConfig(paradigm="bptt", horizon=10, steps=10, learning_rate=3e-3,
                          batch_size=4, seed=8)
        train(h, vdp_data, cfg)
        # At K=1 there is no path between steps, so the two must agree.
        starts, targets = windows_of(vdp_data.train, 1)
        _, full, _ = bptt_grads_arrays(h, starts[:8], targets[:8])
        assert np.allclose(local_only_bptt_grads(h, starts[:8], targets[:8]), full,
                           rtol=1e-12, atol=0.0)
        starts, targets = windows_of(vdp_data.train, 10)
        _, full, _ = bptt_grads_arrays(h, starts[:8], targets[:8])
        local = local_only_bptt_grads(h, starts[:8], targets[:8])
        assert np.linalg.norm(full - local) / np.linalg.norm(full) > 1e-3

    def test_divergence_identifies_window(self):
        huge = new_branch(KanArch((2, 4, 1), KAN53), seed=9)
        huge = with_params(huge, huge.params * 0 + 1e9)
        ds = generate_dataset(duffing(), 1, 0, 0.01, 20, seed=9)
        h = HybridSystem(duffing(), huge, 0.01)
        starts, targets = windows_of(ds.train, 10)
        for n in (1, len(starts)):
            assert not bptt_grads_arrays(h, starts[:n], targets[:n])[2]

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError, match="shorter than one BPTT window"):
            windows_of(np.zeros((0, 21, 2)), 10)


class TestOracleResidual:
    def test_input_vjp_matches_finite_differences(self):
        # Input partials of combined_vjp against central differences, at one
        # point and at three.
        orc = OracleResidual(vanderpol(), 2.5)
        for xn, vn in (([0.3], [-0.5]), ([0.3, -0.8, 0.1], [-0.5, 0.2, 0.9])):
            xn, vn = np.array(xn), np.array(vn)
            _, cache = orc.eval_batch(xn, vn)
            g, (dx, dv) = orc.combined_vjp(cache, np.ones(len(xn)))
            assert g.shape == (0,)
            eps = 1e-6
            fdx = (orc.eval_batch(xn + eps, vn)[0] - orc.eval_batch(xn - eps, vn)[0]) / (2 * eps)
            fdv = (orc.eval_batch(xn, vn + eps)[0] - orc.eval_batch(xn, vn - eps)[0]) / (2 * eps)
            assert dx == pytest.approx(fdx, rel=1e-6)
            assert dv == pytest.approx(fdv, rel=1e-6)

    def test_zero_residual_interface(self):
        # The zero-weight linear branch that stands in for "known part only":
        # outputs are +0.0 (never -0.0), input partials are zero.
        for n in (1, 3):
            z = zero_branch().prepare(np.zeros(3))
            xn, vn = -np.arange(1.0, n + 1), -np.ones(n)
            vals, cache = z.eval_batch(xn, vn)
            assert np.array_equal(vals, np.zeros(n))
            assert not np.signbit(vals).any()
            g, (dx, dv) = z.combined_vjp(cache, np.ones(n))
            assert g is z.grads and g.shape == (3,)
            assert np.array_equal(dx, np.zeros(n)) and np.array_equal(dv, np.zeros(n))
        assert z.l1_value() == 0.0
