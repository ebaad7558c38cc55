import numpy as np
import pytest
from conftest import with_params, zero_branch

from residual_lab.dynamics import (
    EULER,
    RK4,
    SCHEMES,
    DivergenceError,
    duffing,
    generate_dataset,
    integrate_batch,
    vanderpol,
)
from residual_lab.harness import ExperimentConfig, resolve_arch
from residual_lab.hybridcell import (
    DIVERGE_BOUND,
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
    BufferStore,
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
    return step_batch(h.prepare(), states, np.ones((), dtype=bool))[0]


def split_eval(h, X, V):
    """The branch on split (X, V) states, its normalized input assembled
    column by column."""
    U = np.empty(np.shape(X) + (2,))
    U[..., 0] = X / h.scale
    U[..., 1] = V / h.scale
    return h.branch.eval_batch(U)


def reference_step_batch(h, X, V, ok):
    """The cell's step written out by hand for each integrator."""
    def vdot(X, V):
        vals, cache = split_eval(h, X, V)
        return h.spec.known_vdot(X, V) + vals, cache

    dt = h.dt
    if h.integrator == EULER:
        F, bc = vdot(X, V)
        XP = X + dt * V
        VP = V + dt * F
        cache = [(X, V, bc)]
    else:
        F1, bc1 = vdot(X, V)
        X2, V2 = X + 0.5 * dt * V, V + 0.5 * dt * F1
        F2, bc2 = vdot(X2, V2)
        X3, V3 = X + 0.5 * dt * V2, V + 0.5 * dt * F2
        F3, bc3 = vdot(X3, V3)
        X4, V4 = X + dt * V3, V + dt * F3
        F4, bc4 = vdot(X4, V4)
        XP = X + (dt / 6.0) * (V + 2.0 * V2 + 2.0 * V3 + V4)
        VP = V + (dt / 6.0) * (F1 + 2.0 * F2 + 2.0 * F3 + F4)
        cache = [(X, V, bc1), (X2, V2, bc2), (X3, V3, bc3), (X4, V4, bc4)]
    ok &= (np.abs(XP) <= DIVERGE_BOUND).all(-1) & (np.abs(VP) <= DIVERGE_BOUND).all(-1)
    return XP, VP, cache


def split_rk_step(accel, X, V, dt, scheme):
    """``dynamics.rk_step`` on split (X, V) states, as the cell stepped before
    it carried one packed [x, v] array: returns (X', V', stages), each stage
    (X_i, V_i, aux_i)."""
    feeds, weights, div = SCHEMES[scheme]
    Xi, Vi, stages = X, V, []
    for i, w in enumerate(weights):
        a, aux = accel(Xi, Vi)
        stages.append((Xi, Vi, aux))
        sx, sv = (sx + w * Vi, sv + w * a) if i else (w * Vi, w * a)
        if i < len(feeds):
            Xi, Vi = X + feeds[i] * dt * Vi, V + feeds[i] * dt * a
    return X + dt / div * sx, V + dt / div * sv, stages


def split_step_batch(h, X, V, ok):
    """``step_batch`` on split states: (X', V', cache)."""
    def vdot(X, V):
        vals, cache = split_eval(h, X, V)
        return h.spec.known_vdot(X, V) + vals, cache

    XP, VP, cache = split_rk_step(vdot, X, V, h.dt, h.integrator)
    ok &= (np.abs(XP) <= DIVERGE_BOUND).all(-1) & (np.abs(VP) <= DIVERGE_BOUND).all(-1)
    return XP, VP, cache


def split_step_vjp(h, cache, lx, lv):
    """``step_vjp`` on split adjoints (lx, lv): returns the adjoints on (X, V)."""
    dt, branch, spec, scale = h.dt, h.branch, h.spec, h.scale
    feeds, weights, div = SCHEMES[h.integrator]
    weights = [w * (dt / div) for w in weights]
    feeds = [f * dt for f in feeds]
    ax, av = lx, lv
    sx = sv = None
    for i in range(len(cache) - 1, -1, -1):
        X, V, bc = cache[i]
        if sx is None:
            wx, wv = lx * weights[i], lv * weights[i]
        else:
            wx, wv = lx * weights[i] + feeds[i] * sx, lv * weights[i] + feeds[i] * sv
        dU = branch.combined_vjp(bc, wv)
        dxn, dvn = dU[..., 0], dU[..., 1]
        kx, kv = spec.known_vdot_partials(X, V)
        sx = wv * kx + dxn / scale
        sv = wx + wv * kv + dvn / scale
        ax, av = ax + sx, av + sv
    return ax, av


def split_window_loss(h, starts, targets):
    """``bptt_grads_arrays`` on split states: (loss, grads, ok)."""
    n, horizon = targets.shape[-3], targets.shape[-2]
    grads = np.zeros_like(h.branch.params)
    ok = np.ones(starts.shape[:-2], dtype=bool)
    h = h.prepare(grads, None, horizon)
    X, V = starts[..., 0], starts[..., 1]
    caches, diffs = [], []
    total = np.zeros(ok.shape)
    with np.errstate(all="ignore"):
        for t in range(horizon):
            X, V, cache = split_step_batch(h, X, V, ok)
            dx, dv = X - targets[..., t, 0], V - targets[..., t, 1]
            total += (dx ** 2 + dv ** 2).sum(-1)
            caches.append(cache)
            diffs.append((dx, dv))
        norm = n * horizon
        loss = total / norm + h.branch.l1_value()
        lx = np.zeros(X.shape)
        lv = np.zeros(X.shape)
        for t in range(horizon - 1, -1, -1):
            dx, dv = diffs[t]
            lx = lx + (2.0 / norm) * dx
            lv = lv + (2.0 / norm) * dv
            lx, lv = split_step_vjp(h, caches[t], lx, lv)
        h.branch.l1_grad_into(grads)
        ok &= np.isfinite(loss) & np.isfinite(grads).all(-1)
        return loss, grads, ok


class TestPackedState:
    """The cell on packed [x, v] states against the split (X, V) cell above:
    both do the same float operations, so every state, stage state,
    adjoint, loss and gradient agrees bit for bit."""

    @pytest.mark.parametrize("seeds", [1, 3])
    @pytest.mark.parametrize("config", ["A", "mlp-small", "oracle"])
    @pytest.mark.parametrize("integrator", [RK4, EULER])
    def test_packed_cell_matches_split_cell(self, integrator, config, seeds):
        lead = () if seeds == 1 else (seeds,)
        if config == "oracle":
            branch = OracleResidual(vanderpol(), 2.5)
        else:
            arch, _ = resolve_arch(ExperimentConfig(config=config))
            params = np.stack([init_params(arch, s) for s in range(seeds)])
            branch = ResidualBranch(arch, params.reshape(lead + params.shape[-1:]))
        h = HybridSystem(vanderpol(), branch, 0.01, integrator)
        rng = np.random.default_rng(seeds)
        Z = rng.uniform(-2.0, 2.0, lead + (8, 2))
        L = rng.normal(size=Z.shape)

        grads, ref_grads = np.zeros_like(branch.params), np.zeros_like(branch.params)
        hp, hr = h.prepare(grads), h.prepare(ref_grads)
        ok, ref_ok = np.ones(lead, dtype=bool), np.ones(lead, dtype=bool)
        ZP, cache = step_batch(hp, Z, ok)
        XP, VP, ref_cache = split_step_batch(hr, Z[..., 0], Z[..., 1], ref_ok)
        assert ZP[..., 0].tobytes() == XP.tobytes() and ZP[..., 1].tobytes() == VP.tobytes()
        assert ok.tolist() == ref_ok.tolist()
        assert len(cache) == len(ref_cache)
        for (sz, _), (sx, sv, _) in zip(cache, ref_cache):
            assert sz[..., 0].tobytes() == sx.tobytes() and sz[..., 1].tobytes() == sv.tobytes()
        A = step_vjp(hp, cache, L)
        ax, av = split_step_vjp(hr, ref_cache, L[..., 0], L[..., 1])
        assert A[..., 0].tobytes() == ax.tobytes() and A[..., 1].tobytes() == av.tobytes()
        assert grads.tobytes() == ref_grads.tobytes()

        ds = generate_dataset(vanderpol(), 2, 0, 0.01, 40, seed=seeds)
        for horizon in (1, 10):
            starts, targets = windows_of(ds.train, horizon)
            starts = np.broadcast_to(starts, lead + starts.shape)
            targets = np.broadcast_to(targets, lead + targets.shape)
            got = bptt_grads_arrays(h, starts, targets)
            want = split_window_loss(h, starts, targets)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        if config != "oracle":
            assert np.abs(got[1]).max() > 0


class TestHybridStep:
    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.037, 0.3])
    @pytest.mark.parametrize("integrator", [RK4, EULER])
    def test_step_matches_hand_expanded_reference(self, integrator, dt):
        # The scheme-table step against the step written out by hand, for
        # one seed and for a block of 3, state by state and stage by stage.
        X, V = np.random.default_rng(1).uniform(-2.0, 2.0, size=(2, 3, 8))
        cases = [(OracleResidual(vanderpol(), 2.5), X[0], V[0])]
        for arch in (KanArch((2, 4, 1), KAN53), MlpArch((2, 16, 16, 1))):
            params = np.stack([init_params(arch, s) for s in range(3)])
            cases += [(ResidualBranch(arch, params[0]), X[0], V[0]),
                      (ResidualBranch(arch, params), X, V)]
        for branch, x, v in cases:
            h = HybridSystem(vanderpol(), branch, dt, integrator).prepare()
            ok, ref_ok = np.ones(x.shape[:-1], bool), np.ones(x.shape[:-1], bool)
            ZP, cache = step_batch(h, np.stack([x, v], axis=-1), ok)
            XP, VP = ZP[..., 0], ZP[..., 1]
            RX, RV, ref_cache = reference_step_batch(h, x, v, ref_ok)
            assert XP.tobytes() == RX.tobytes() and VP.tobytes() == RV.tobytes()
            assert ok.tolist() == ref_ok.tolist()
            assert len(cache) == len(ref_cache)
            for (sz, _), (rx, rv, _) in zip(cache, ref_cache):
                sx, sv = sz[..., 0], sz[..., 1]
                assert sx.tobytes() == rx.tobytes() and sv.tobytes() == rv.tobytes()


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
        Z = rng.uniform(-1.5, 1.5, size=(2, 3, 4)).transpose(1, 2, 0)
        for integrator in (RK4, EULER):
            h = HybridSystem(duffing(), ResidualBranch(arch, params), 0.01, integrator)
            ok = np.ones(3, dtype=bool)
            with np.errstate(all="ignore"):
                ZP, _ = step_batch(h.prepare(), Z, ok)
            XP, VP = ZP[..., 0], ZP[..., 1]
            assert ok.tolist() == [True, False, True]
            assert not (np.abs(VP[1]) <= DIVERGE_BOUND).all()
            for s in (0, 2):
                lone = HybridSystem(duffing(), ResidualBranch(arch, params[s]), 0.01, integrator)
                lone_ok = np.ones((), dtype=bool)
                LZ, _ = step_batch(lone.prepare(), Z[s], lone_ok)
                lx, lv = LZ[..., 0], LZ[..., 1]
                assert lone_ok
                assert XP[s].tobytes() == lx.tobytes() and VP[s].tobytes() == lv.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridSystem(duffing(), zero_branch(), 0.01, "leapfrog")
        for bad in (-0.01, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt"):
                HybridSystem(duffing(), zero_branch(), bad)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="scale"):
                HybridSystem(duffing(), zero_branch(), 0.01, RK4, scale=bad)


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
    Z = starts
    grads = np.zeros_like(h.branch.params)
    h = h.prepare(grads, None, horizon)
    for t in range(horizon):
        Z, cache = step_batch(h, Z, np.ones((), dtype=bool))
        step_vjp(h, cache, (2.0 / norm) * (Z - targets[:, t]))
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
                          batch_size=4)
        train(h, vdp_data, cfg, 8)
        # At K=1 there is no path between steps, so the two must agree.
        starts, targets = windows_of(vdp_data.train, 1)
        _, full, _ = bptt_grads_arrays(h, starts[:8], targets[:8])
        assert np.allclose(local_only_bptt_grads(h, starts[:8], targets[:8]), full,
                           rtol=1e-12, atol=0.0)
        starts, targets = windows_of(vdp_data.train, 10)
        _, full, _ = bptt_grads_arrays(h, starts[:8], targets[:8])
        local = local_only_bptt_grads(h, starts[:8], targets[:8])
        assert np.linalg.norm(full - local) / np.linalg.norm(full) > 1e-3

    @pytest.mark.parametrize("integrator", [RK4, EULER])
    def test_mlp_block_gradient_matches_finite_differences(self, vdp_data, integrator):
        # A 3-seed mlp-small block at horizon 5, each seed on its own windows:
        # raising or lowering parameter k in every row moves each seed's loss
        # by its own partial, since seeds do not interact.
        arch, _ = resolve_arch(ExperimentConfig(config="mlp-small"))
        params = np.stack([init_params(arch, s) for s in range(3)])
        starts, targets = windows_of(vdp_data.train, 5)
        idx = np.arange(12).reshape(3, 4)
        starts, targets = starts[idx], targets[idx]

        def block_loss(p):
            h = HybridSystem(vanderpol(), ResidualBranch(arch, p), vdp_data.dt, integrator)
            return bptt_grads_arrays(h, starts, targets)

        _, grads, ok = block_loss(params)
        assert ok.all() and grads.shape == params.shape
        fd, eps = np.zeros_like(params), 1e-5
        for k in range(params.shape[1]):
            up, dn = params.copy(), params.copy()
            up[:, k] += eps
            dn[:, k] -= eps
            fd[:, k] = (block_loss(up)[0] - block_loss(dn)[0]) / (2 * eps)
        for s in range(3):
            assert max_rel_error(grads[s], fd[s]) < 1e-3
        assert np.abs(grads).max() > 0

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


STORE_CONFIGS = ("A", "G", "mlp-small")


class TestBufferStore:
    @pytest.mark.parametrize("integrator", [RK4, EULER])
    @pytest.mark.parametrize("config", STORE_CONFIGS)
    def test_reused_store_matches_fresh_ones(self, vdp_data, config, integrator):
        # One store serves a 16-seed BPTT loss, then a 3-seed retry of some
        # of its seeds on other windows, then a 16-seed loss again and a
        # teacher-forcing loss on one-step windows, as a training block uses
        # it: each call gives the bytes of a call on a fresh store, and none
        # maps a new array.  Each seed of the first call also gives the bytes
        # of its call alone: with ten steps of slots in the store, a slot laid
        # out seed-major, not contiguous, fails there.
        arch, _ = resolve_arch(ExperimentConfig(config=config))
        params = np.stack([init_params(arch, s) for s in range(16)])
        rng = np.random.default_rng(3)
        bptt, tf = windows_of(vdp_data.train, 10), windows_of(vdp_data.train, 1)
        rows = np.array([2, 7, 11])
        calls = [(params, bptt, rng.choice(len(bptt[0]), (16, 16))),
                 (params[rows], bptt, rng.choice(len(bptt[0]), (3, 16))),
                 (params, bptt, rng.choice(len(bptt[0]), (16, 16))),
                 (params[rows], tf, rng.choice(len(tf[0]), (3, 64)))]
        store = BufferStore()
        for i, (p, (starts, targets), pick) in enumerate(calls):
            h = HybridSystem(vanderpol(), ResidualBranch(arch, p), vdp_data.dt, integrator)
            got = bptt_grads_arrays(h, starts[pick], targets[pick], store)
            want = bptt_grads_arrays(h, starts[pick], targets[pick])
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            assert got[2].all() and np.abs(got[1]).max() > 0
            if i == 0:
                for s in range(len(p)):
                    h1 = HybridSystem(vanderpol(), ResidualBranch(arch, p[s : s + 1]),
                                      vdp_data.dt, integrator)
                    alone = bptt_grads_arrays(h1, starts[pick[s : s + 1]], targets[pick[s : s + 1]])
                    for g, w in zip(got, alone):
                        assert g[s].tobytes() == w[0].tobytes()
                sized = dict(store.flat)
            assert store.flat.keys() == sized.keys()
            assert all(store.flat[key] is buf for key, buf in sized.items())

    @pytest.mark.parametrize("config", STORE_CONFIGS)
    def test_block_shares_one_store(self, monkeypatch, vdp_data, config):
        # train_block hands every loss call of the block the same store.
        from residual_lab import trainer

        seen = []
        original = trainer.bptt_grads_arrays

        def spy(h, starts, targets, store=None):
            seen.append(store)
            return original(h, starts, targets, store)

        monkeypatch.setattr(trainer, "bptt_grads_arrays", spy)
        arch, _ = resolve_arch(ExperimentConfig(config=config))
        h = HybridSystem(vanderpol(), ResidualBranch(arch, np.stack(
            [init_params(arch, s) for s in range(2)])), vdp_data.dt)
        cfg = trainer.TrainConfig(paradigm="bptt", horizon=5, steps=3, batch_size=4)
        trainer.train_block(h, [vdp_data] * 2, cfg, [0, 1])
        assert len(seen) == 3 and isinstance(seen[0], BufferStore)
        assert all(b is seen[0] for b in seen)


class TestOracleResidual:
    def test_input_vjp_matches_finite_differences(self):
        # Input partials of combined_vjp against central differences, at one
        # point and at three.
        orc = OracleResidual(vanderpol(), 2.5)

        def ev(xn, vn):
            return orc.eval_batch(np.stack([xn, vn], axis=-1))

        for xn, vn in (([0.3], [-0.5]), ([0.3, -0.8, 0.1], [-0.5, 0.2, 0.9])):
            xn, vn = np.array(xn), np.array(vn)
            _, cache = ev(xn, vn)
            dU = orc.combined_vjp(cache, np.ones(len(xn)))
            dx, dv = dU[..., 0], dU[..., 1]
            assert orc.params.shape == (0,)
            eps = 1e-6
            fdx = (ev(xn + eps, vn)[0] - ev(xn - eps, vn)[0]) / (2 * eps)
            fdv = (ev(xn, vn + eps)[0] - ev(xn, vn - eps)[0]) / (2 * eps)
            assert dx == pytest.approx(fdx, rel=1e-6)
            assert dv == pytest.approx(fdv, rel=1e-6)

    def test_zero_residual_interface(self):
        # The zero-weight linear branch that stands in for "known part only":
        # outputs are +0.0 (never -0.0), input partials are zero.
        for n in (1, 3):
            grads = np.zeros(3)
            z = zero_branch().prepare(grads)
            xn, vn = -np.arange(1.0, n + 1), -np.ones(n)
            vals, cache = z.eval_batch(np.stack([xn, vn], axis=-1))
            assert np.array_equal(vals, np.zeros(n))
            assert not np.signbit(vals).any()
            dU = z.combined_vjp(cache, np.ones(n))
            dx, dv = dU[..., 0], dU[..., 1]
            # The gradient lands in the plan's buffer: [sum xn, sum vn, n].
            assert z.grads is grads and np.array_equal(grads, [xn.sum(), vn.sum(), n])
            assert np.array_equal(dx, np.zeros(n)) and np.array_equal(dv, np.zeros(n))
        assert z.l1_value() == 0.0
