import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from residual_lab.dynamics import (
    Dataset,
    DivergenceError,
    duffing,
    generate_dataset,
    integrate_batch,
    load_dataset,
    oscillator,
    save_dataset,
    vanderpol,
)

finite_coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def rhs_rows(spec, states):
    """(x', v') of every (x, v) row in one batched call, as an (S, 2) array."""
    states = np.asarray(states, dtype=float)
    X, V = states[:, 0], states[:, 1]
    return np.stack([V, spec.known_vdot(X, V) + spec.true_residual(X, V)], axis=1)


def reference_integrate_batch(spec, ics, dt, n_steps):
    """The generator's RK4 loop written out by hand, stage by stage."""
    def rhs(X, V):
        return V, spec.known_vdot(X, V) + spec.true_residual(X, V)

    out = np.empty((len(ics), n_steps + 1, 2))
    out[:, 0] = ics
    X, V = ics[:, 0].copy(), ics[:, 1].copy()
    for t in range(n_steps):
        k1x, k1v = rhs(X, V)
        k2x, k2v = rhs(X + dt / 2 * k1x, V + dt / 2 * k1v)
        k3x, k3v = rhs(X + dt / 2 * k2x, V + dt / 2 * k2v)
        k4x, k4v = rhs(X + dt * k3x, V + dt * k3v)
        X = X + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        V = V + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        out[:, t + 1, 0] = X
        out[:, t + 1, 1] = V
    return out


class TestFullRhs:
    def test_duffing_example(self):
        for S in (1, 3):
            out = rhs_rows(duffing(), [[1.0, 0.0]] * S)
            assert np.array_equal(out[:, 0], np.zeros(S))
            assert np.allclose(out[:, 1], -1.3, rtol=0.0, atol=1e-15)

    def test_vanderpol_example(self):
        out = rhs_rows(vanderpol(), [[0.0, 1.0]])
        assert np.array_equal(out, [[1.0, 1.0]])
        out = rhs_rows(vanderpol(), [[0.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(out, [[1.0, 1.0], [2.0, -1.0]])

    def test_duffing_fixed_point(self):
        assert np.array_equal(rhs_rows(duffing(), [[0.0, 0.0]]), [[0.0, 0.0]])
        out = rhs_rows(duffing(), [[0.0, 0.0], [1.0, 0.5]])
        assert np.array_equal(out[0], [0.0, 0.0])

    @given(finite_coord, finite_coord)
    def test_residual_never_enters_xdot(self, x, v):
        for spec in (duffing(), vanderpol()):
            assert rhs_rows(spec, [[x, v]])[0, 0] == v
            assert np.array_equal(rhs_rows(spec, [[x, v], [v, x]])[:, 0], [v, x])

    def test_duffing_odd_symmetry(self):
        g = np.linspace(-2.5, 2.5, 11)
        X, V = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
        pos = rhs_rows(duffing(), np.stack([X, V], axis=1))
        neg = rhs_rows(duffing(), np.stack([-X, -V], axis=1))
        assert np.array_equal(neg[:, 0], -pos[:, 0])
        assert np.allclose(neg[:, 1], -pos[:, 1], rtol=0.0, atol=1e-12)
        for i in (0, 37, 120):
            assert np.array_equal(rhs_rows(duffing(), [[-X[i], -V[i]]]), neg[i : i + 1])


class TestRk4:
    def test_zero_rhs_identity(self):
        # The origin is a rest point of both systems: the right-hand side
        # vanishes there, so every RK4 step returns it unchanged.
        for spec in (duffing(), vanderpol()):
            for ics in ([[0.0, 0.0]], [[0.0, 0.0], [0.3, -0.7]]):
                out = integrate_batch(spec, np.array(ics), 0.1, 5)
                assert np.array_equal(out[0], np.zeros((6, 2)))

    def test_step_halving_convergence(self):
        spec = duffing()
        coarse = integrate_batch(spec, np.array([[1.0, 0.0]]), 0.01, 1000)[0]
        fine = integrate_batch(spec, np.array([[1.0, 0.0]]), 0.005, 2000)[0]
        err = np.abs(coarse[-1] - fine[-1]).max()
        assert err < 1e-7

    def test_fourth_order_error_ratio(self):
        spec = duffing()
        ref = integrate_batch(spec, np.array([[1.0, 0.0]]), 0.0005, 2000)[0][-1]
        e1 = np.abs(integrate_batch(spec, np.array([[1.0, 0.0]]), 0.02, 50)[0][-1] - ref).max()
        e2 = np.abs(integrate_batch(spec, np.array([[1.0, 0.0]]), 0.01, 100)[0][-1] - ref).max()
        assert e1 / e2 >= 12.0

    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.037, 0.3])
    def test_matches_hand_expanded_reference(self, dt):
        ics = np.random.default_rng(0).uniform(-2.0, 2.0, size=(5, 2))
        for spec in (duffing(), vanderpol()):
            for block in (ics[:1], ics):
                got = integrate_batch(spec, block, dt, 200)
                assert got.tobytes() == reference_integrate_batch(spec, block, dt, 200).tobytes()

    def test_divergent_rhs_raises(self):
        # -0.3 x^3 overflows at x = 1e103, so the state after the first step
        # is non-finite: the error names step 1, as rollout does.
        for ics in ([[1e103, 0.0]], [[1e103, 0.0], [1.0, 0.0]]):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DivergenceError) as err:
                integrate_batch(duffing(), np.array(ics), 0.01, 5)
            assert err.value.step == 1


class TestDataset:
    def test_cardinality_contract(self):
        ds = generate_dataset(duffing(), 20, 5, 0.01, 1000, seed=0)
        assert ds.train.shape == (20, 1001, 2)
        assert ds.test.shape == (5, 1001, 2)
        assert ds.dt == 0.01
        assert ds.scale == 2.5

    def test_determinism(self):
        a = generate_dataset(duffing(), 3, 2, 0.01, 100, seed=0)
        b = generate_dataset(duffing(), 3, 2, 0.01, 100, seed=0)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)

    def test_seed_changes_data(self):
        a = generate_dataset(duffing(), 2, 1, 0.01, 50, seed=0)
        b = generate_dataset(duffing(), 2, 1, 0.01, 50, seed=1)
        assert not np.array_equal(a.train[0], b.train[0])

    def test_vanderpol_sanity_box(self):
        ds = generate_dataset(vanderpol(), 20, 5, 0.01, 1000, seed=1)
        assert np.abs(ds.train).max() <= 10.0
        assert np.abs(ds.test).max() <= 10.0

    def test_serialization_roundtrip(self, tmp_path):
        ds = generate_dataset(vanderpol(), 3, 2, 0.02, 64, seed=7)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.oscillator == ds.oscillator
        assert back.dt == ds.dt
        assert back.scale == ds.scale
        assert np.array_equal(ds.train, back.train)
        assert np.array_equal(ds.test, back.test)

    def test_serialization_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(generate_dataset(duffing(), 2, 1, 0.01, 40, seed=3), a)
        save_dataset(generate_dataset(duffing(), 2, 1, 0.01, 40, seed=3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_noise_flag(self):
        clean = generate_dataset(duffing(), 2, 1, 0.01, 50, seed=0)
        noisy = generate_dataset(duffing(), 2, 1, 0.01, 50, seed=0, noise_std=0.01)
        assert not np.array_equal(clean.train[0], noisy.train[0])

    def test_non_finite_or_negative_parameters_rejected(self):
        for dt in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt"):
                generate_dataset(duffing(), 2, 1, dt, 50, seed=0)
        for noise in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="noise_std"):
                generate_dataset(duffing(), 2, 1, 0.01, 50, seed=0, noise_std=noise)


class TestTypes:
    def test_trajectory_invariants(self):
        ok = np.zeros((2, 5, 2))
        assert Dataset("duffing", 0.1, ok, ok[:1]).test.shape == (1, 5, 2)
        assert Dataset("duffing", 0.1, ok[:0], ok).train.shape == (0, 5, 2)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt"):
                Dataset("duffing", bad, ok, ok)
            with pytest.raises(ValueError, match="scale"):
                Dataset("duffing", 0.1, ok, ok, scale=bad)
        for train, test in ((ok, np.zeros((2, 1, 2))), (np.zeros((2, 1, 2)), ok),
                            (ok, ok[0]), (ok, np.zeros((2, 5, 3))), (ok, ok[:, :4])):
            with pytest.raises(ValueError, match="splits"):
                Dataset("duffing", 0.1, train, test)

    def test_oscillator_factory(self):
        assert oscillator("duffing").kind == "duffing"
        assert oscillator("vanderpol").kind == "vanderpol"
        with pytest.raises(ValueError):
            oscillator("lorenz")

    def test_true_residuals(self):
        assert duffing().true_residual(2.0, 5.0) == pytest.approx(-2.4)
        assert vanderpol().true_residual(2.0, 3.0) == pytest.approx(-9.0)
