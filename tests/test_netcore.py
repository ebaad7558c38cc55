import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import with_params

from residual_lab.harness import ExperimentConfig, builtin_configs, resolve_arch
from residual_lab.netcore import (
    KanArch,
    MlpArch,
    ResidualBranch,
    add_l1_gradient,
    backward_batch,
    forward_batch,
    init_params,
    l1_penalty,
    load_branch,
    new_branch,
    param_count,
    product_construction,
    save_branch,
    trainable_mask,
)
from residual_lab.rng import stream
from residual_lab.splines import SplineSpec

KAN53 = SplineSpec(grid_size=5, order=3)

interior = st.floats(-0.9, 0.9, allow_nan=False)


def fd_param_gradient(branch, xs, vs, ws, eps=1e-5):
    out = np.zeros_like(branch.params)
    for i in range(branch.params.size):
        for sgn in (1.0, -1.0):
            p = branch.params.copy()
            p[i] += sgn * eps
            vals, _ = forward_batch(with_params(branch, p).prepare(), np.stack([xs, vs], -1))
            out[i] += sgn * float(ws @ vals) / (2 * eps)
    return out


def values(branch, xs, vs):
    U = np.stack([np.atleast_1d(xs), np.atleast_1d(vs)], -1)
    return forward_batch(branch.prepare(), U)[0]


def forward_backward(branch, xs, vs, ws):
    """Forward then backward through one prepared branch: (param gradient
    of sum(ws * R(xs, vs)), (dR/dxn, dR/dvn) weighted by ws)."""
    grads = np.zeros_like(branch.params)
    x = branch.prepare(grads)
    _, cache = forward_batch(x, np.stack([xs, vs], -1))
    grads, dU = backward_batch(x, cache, ws, grads)
    return grads, (dU[..., 0], dU[..., 1])


def param_grads(branch, xs, vs, ws):
    """Gradient of sum(ws * R(xs, vs)) over the parameters."""
    return forward_backward(branch, xs, vs, ws)[0]


def input_grads(branch, xs, vs):
    """(dR/dxn, dR/dvn) at every point."""
    xs, vs = np.atleast_1d(xs), np.atleast_1d(vs)
    return forward_backward(branch, xs, vs, np.ones(len(xs)))[1]


def max_rel_error(a, b, floor=1e-6):
    # Floor keeps near-zero entries from amplifying central-difference noise.
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


class TestParamCount:
    # The eight registry architectures and their published totals.
    CASES = [
        (KanArch((2, 4, 1), KAN53), 120),
        (KanArch((2, 8, 1), KAN53), 240),
        (KanArch((2, 16, 1), KAN53), 480),
        (KanArch((2, 8, 8, 1), KAN53), 880),
        (MlpArch((2, 26, 1)), 105),
        (MlpArch((2, 16, 16, 1)), 337),
        (MlpArch((2, 32, 32, 1)), 1185),
        (MlpArch((2, 64, 64, 1)), 4417),
    ]

    @pytest.mark.parametrize("arch,expected", CASES)
    def test_registry_totals(self, arch, expected):
        assert param_count(arch) == expected

    def test_per_edge_count(self):
        # One edge costs G + k + 2 parameters.
        for G, k in [(3, 3), (8, 3), (20, 3), (5, 0)]:
            arch = KanArch((2, 1), SplineSpec(grid_size=G, order=k))
            assert param_count(arch) == 2 * (G + k + 2)

    def test_widths_validation(self):
        with pytest.raises(ValueError):
            MlpArch((2,))
        with pytest.raises(ValueError):
            MlpArch((3, 4, 1))
        with pytest.raises(ValueError):
            KanArch((2, 0, 1), KAN53)

    def test_branch_length_validation(self):
        with pytest.raises(ValueError):
            ResidualBranch(MlpArch((2, 4, 1)), np.zeros(5))


class TestForward:
    def test_zero_mlp_outputs_zero(self):
        b = ResidualBranch(MlpArch((2, 16, 16, 1)), np.zeros(337))
        xs, vs = np.array([0.0, 0.7, 5.0]), np.array([0.0, -0.3, -5.0])
        assert np.array_equal(values(b, xs, vs), np.zeros(3))
        for xn, vn in zip(xs, vs):
            assert np.array_equal(values(b, xn, vn), [0.0])

    def test_zero_scale_kan_outputs_zero(self):
        arch = KanArch((2, 4, 1), KAN53)
        b = ResidualBranch(arch, np.zeros(param_count(arch)))
        xs, vs = np.array([0.0, 0.5, 3.0]), np.array([0.0, 0.4, -3.0])
        assert np.array_equal(values(b, xs, vs), np.zeros(3))
        for xn, vn in zip(xs, vs):
            assert np.array_equal(values(b, xn, vn), [0.0])

    def test_batch_matches_scalar(self):
        b = new_branch(KanArch((2, 8, 1), KAN53), seed=3)
        rng = stream(0, "gradcheck")
        xs, vs = rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)
        vals, _ = forward_batch(b.prepare(), np.stack([xs, vs], -1))
        for i in range(10):
            assert values(b, xs[i], vs[i])[0] == pytest.approx(vals[i], abs=1e-14)

    @given(interior, interior)
    def test_deterministic(self, xn, vn):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=1)
        assert np.array_equal(values(b, xn, vn), values(b, xn, vn))
        pair = ([xn, vn], [vn, xn])
        assert np.array_equal(values(b, *pair), values(b, *pair))

    @pytest.mark.parametrize("config", ["A", "B", "G", "kan-deep", "mlp-small"])
    def test_forward_only_plan_keeps_no_cache(self, config):
        # A plan without a gradient buffer gives the bits of a plan with one
        # and an empty cache, for one seed and for a block of 3, on inputs
        # that reach past the spline domain, and on no rows at all.
        arch, _ = resolve_arch(ExperimentConfig(config=config))
        block = np.stack([init_params(arch, s) for s in range(3)])
        for n in (40, 0):
            xs, vs = stream(5, "forward-only").uniform(-1.6, 1.6, (2, 3, n))
            for params, xn, vn in ((block[1], xs[1], vs[1]), (block, xs, vs)):
                b = ResidualBranch(arch, params)
                U = np.stack([xn, vn], -1)
                vals, cache = forward_batch(b.prepare(), U)
                ref, ref_cache = forward_batch(b.prepare(np.zeros_like(params)), U)
                assert cache == [] and len(ref_cache) == len(arch.widths) - 1
                assert vals.shape == ref.shape == xn.shape
                assert vals.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("config", ["A", "B", "G", "kan-deep"])
    def test_kan_cache_holds_backward_operands(self, config):
        # A plan with a gradient buffer caches what backward reads and
        # nothing else: the dense basis, both input slopes and the domain
        # mask, and neither the layer input, the local basis and its first
        # column, the basis derivatives nor the edge spline values.  For one
        # seed and a block of 3, on inputs past the spline domain.
        arch, _ = resolve_arch(ExperimentConfig(config=config))
        M = arch.spline.n_basis
        block = np.stack([init_params(arch, s) for s in range(3)])
        xs, vs = stream(6, "cache-layout").uniform(-1.6, 1.6, (2, 3, 40))
        for params, xn, vn in ((block[1], xs[1], vs[1]), (block, xs, vs)):
            b = ResidualBranch(arch, params)
            _, cache = forward_batch(b.prepare(np.zeros_like(params)), np.stack([xn, vn], -1))
            assert len(cache) == len(arch.widths) - 1
            for c, n_in, n_out in zip(cache, arch.widths[:-1], arch.widths[1:]):
                row = xn.shape + (n_in,)
                assert {key: a.shape for key, a in c.items()} == {
                    "silu": row, "dsilu": row, "dense": row + (M,),
                    "dspl": row + (n_out,), "mask": row}

    def test_finite_on_wild_inputs(self):
        for arch in (KanArch((2, 8, 1), KAN53), MlpArch((2, 16, 16, 1))):
            b = new_branch(arch, seed=2)
            xs, vs = np.array([50.0, -1e3]), np.array([-50.0, 1e3])
            assert np.isfinite(values(b, xs, vs)).all()
            for xn, vn in zip(xs, vs):
                assert np.isfinite(values(b, xn, vn)).all()


class TestGradients:
    def test_zero_upstream_zero_gradient(self):
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=0)
        for n in (1, 2):
            g = param_grads(b, np.array([0.2, 0.6])[:n], np.array([-0.4, 0.1])[:n], np.zeros(n))
            assert np.array_equal(g, np.zeros_like(b.params))

    def test_mlp_matches_finite_differences(self):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=5)
        rng = stream(5, "gradcheck")
        xs, vs = rng.uniform(-0.9, 0.9, 4), rng.uniform(-0.9, 0.9, 4)
        ws = rng.uniform(-1, 1, 4)
        for n in (1, 4):
            g = param_grads(b, xs[:n], vs[:n], ws[:n])
            fd = fd_param_gradient(b, xs[:n], vs[:n], ws[:n])
            assert max_rel_error(g, fd) < 1e-4

    def test_kan_matches_finite_differences(self):
        # Twenty random interior points through the (G=5, k=3) network.
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=7)
        rng = stream(7, "gradcheck")
        xs, vs = rng.uniform(-0.9, 0.9, 20), rng.uniform(-0.9, 0.9, 20)
        ws = rng.uniform(-1, 1, 20)
        for n in (1, 20):
            g = param_grads(b, xs[:n], vs[:n], ws[:n])
            fd = fd_param_gradient(b, xs[:n], vs[:n], ws[:n])
            assert max_rel_error(g, fd) < 1e-4

    def test_deep_kan_matches_finite_differences(self):
        b = new_branch(KanArch((2, 4, 4, 1), KAN53), seed=11)
        rng = stream(11, "gradcheck")
        xs, vs = rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3)
        ws = rng.uniform(-1, 1, 3)
        for n in (1, 3):
            g = param_grads(b, xs[:n], vs[:n], ws[:n])
            fd = fd_param_gradient(b, xs[:n], vs[:n], ws[:n])
            assert max_rel_error(g, fd) < 1e-4

    @pytest.mark.parametrize("widths", [(2, 26, 1), (2, 16, 16, 1), (2, 8, 8, 8, 1)])
    @pytest.mark.parametrize("seeds", [None, 3])
    @pytest.mark.parametrize("n", [1, 16, 256])
    def test_mlp_bias_fold_matches_separate_bias(self, widths, seeds, n):
        # An MLP layer adds its bias inside the [W; b] GEMM and takes the
        # bias gradient from the same GEMM; the separate-bias arithmetic it
        # replaced sums in another order, so the two agree to rounding.
        arch = MlpArch(widths)
        lead = () if seeds is None else (seeds,)
        rng = stream(n, "bias-fold")
        params = rng.normal(0.0, 0.5, lead + (param_count(arch),))
        xs, vs, ws = (rng.uniform(-1.0, 1.0, lead + (n,)) for _ in range(3))
        b = ResidualBranch(arch, params)
        got, cache = forward_batch(b.prepare(np.zeros_like(params)), np.stack([xs, vs], -1))
        got_grads, (got_dx, got_dv) = forward_backward(b, xs, vs, ws)

        U, inputs, layers, off = np.stack([xs, vs], axis=-1), [], [], 0
        for li, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            W = params[..., off : off + n_in * n_out].reshape(lead + (n_in, n_out))
            bias = params[..., off + n_in * n_out : off + (n_in + 1) * n_out]
            off += (n_in + 1) * n_out
            layers.append((W, bias))
            inputs.append(U)
            Z = U @ W + bias[..., None, :]
            U = np.maximum(Z, 0.0) if li < len(widths) - 2 else Z
        want = U[..., 0]
        want_grads, Wy = [], ws[..., None]
        for li in range(len(layers) - 1, -1, -1):
            W, _ = layers[li]
            Wz = Wy if li == len(layers) - 1 else Wy * (inputs[li + 1] > 0)
            want_grads[:0] = [(inputs[li].swapaxes(-1, -2) @ Wz).reshape(lead + (-1,)),
                              Wz.sum(axis=-2)]
            Wy = Wz @ W.swapaxes(-1, -2)
        want_grads = np.concatenate(want_grads, axis=-1)

        for a, w in ((got, want), (got_grads, want_grads),
                     (got_dx, Wy[..., 0]), (got_dv, Wy[..., 1])):
            assert a.shape == w.shape
            assert np.abs(a - w).max() <= 1e-12 * max(1.0, np.abs(w).max())
        assert np.abs(want_grads).max() > 0

    def test_gradient_is_linear_in_upstream(self):
        b = new_branch(KanArch((2, 8, 1), KAN53), seed=2)
        xs, vs = np.array([0.3, -0.7]), np.array([-0.2, 0.5])
        for n in (1, 2):
            g1 = param_grads(b, xs[:n], vs[:n], np.ones(n))
            g2 = param_grads(b, xs[:n], vs[:n], np.full(n, 2.5))
            assert np.allclose(g2, 2.5 * g1, atol=1e-14)


class TestInputJacobian:
    def test_zero_branch(self):
        arch = MlpArch((2, 26, 1))
        b = ResidualBranch(arch, np.zeros(param_count(arch)))
        for xs, vs in ((0.4, -0.6), ([0.4, -1.2, 3.0], [-0.6, 0.1, 0.0])):
            dx, dv = input_grads(b, xs, vs)
            assert not dx.any() and not dv.any()

    def test_product_jacobian(self):
        # d(xn * vn) = (vn, xn).
        b = product_construction(KAN53)
        for xs, vs in ((0.3, 0.7), ([0.3, -0.5, 0.9], [0.7, 0.2, -0.4])):
            dx, dv = input_grads(b, xs, vs)
            assert dx == pytest.approx(np.atleast_1d(vs), abs=1e-5)
            assert dv == pytest.approx(np.atleast_1d(xs), abs=1e-5)

    def test_mlp_matches_finite_differences_away_from_kinks(self):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=9)
        rng = stream(9, "gradcheck")
        pts = np.array([rng.uniform(-0.9, 0.9, 2) for _ in range(50)])
        xs, vs = pts[:, 0], pts[:, 1]
        from residual_lab.netcore import _mlp_layers

        # Hidden pre-activations, from each layer's cached input.
        _, cache = forward_batch(b.prepare(np.zeros_like(b.params)), np.stack([xs, vs], -1))
        hidden = zip(cache[:-1], _mlp_layers(b.arch, b.params))
        smooth = np.min([np.abs(c["U"] @ Wb).min(axis=1) for c, Wb in hidden], axis=0) >= 1e-3
        assert smooth.sum() > 10
        eps = 1e-6
        fdx = (values(b, xs + eps, vs) - values(b, xs - eps, vs)) / (2 * eps)
        fdv = (values(b, xs, vs + eps) - values(b, xs, vs - eps)) / (2 * eps)
        dx, dv = input_grads(b, xs, vs)
        for i in np.flatnonzero(smooth):
            assert abs(dx[i] - fdx[i]) < 1e-4 * max(1.0, abs(fdx[i]))
            assert abs(dv[i] - fdv[i]) < 1e-4 * max(1.0, abs(fdv[i]))
            one_dx, one_dv = input_grads(b, xs[i], vs[i])
            assert one_dx[0] == pytest.approx(dx[i], rel=1e-12)
            assert one_dv[0] == pytest.approx(dv[i], rel=1e-12)

    def test_spline_partial_vanishes_outside_domain(self):
        # With the base term off, clamping kills the input partial beyond the domain.
        b = new_branch(KanArch((2, 4, 1), KAN53, base_blend=False), seed=4)
        for xs, vs in ((1.5, 2.0), ([1.5, -1.1, 3.0], [2.0, -4.0, 1.2])):
            dx, dv = input_grads(b, xs, vs)
            assert not dx.any() and not dv.any()


class TestInit:
    def test_deterministic(self):
        for arch in (KanArch((2, 8, 1), KAN53), MlpArch((2, 32, 32, 1))):
            assert np.array_equal(init_params(arch, 13), init_params(arch, 13))
            assert not np.array_equal(init_params(arch, 13), init_params(arch, 14))

    def test_length(self):
        for arch, expected in TestParamCount.CASES:
            assert init_params(arch, 0).shape == (expected,)

    def test_mlp_bias_zero(self):
        arch = MlpArch((2, 16, 16, 1))
        from residual_lab.netcore import _mlp_layers

        params = init_params(arch, 3)
        for Wb in _mlp_layers(arch, params):
            assert np.array_equal(Wb[-1], np.zeros(Wb.shape[1]))

    def test_mlp_weight_mean_unbiased(self):
        # First-layer weight over 1000 seeds: mean within 3 standard errors of 0.
        arch = MlpArch((2, 26, 1))
        w = np.array([init_params(arch, s)[0] for s in range(1000)])
        se = np.sqrt(2.0 / 2.0) / np.sqrt(1000)
        assert abs(w.mean()) < 3 * se

    def test_kan_scales_start_at_one(self):
        from residual_lab.netcore import _kan_layers

        arch = KanArch((2, 8, 1), KAN53)
        for coef, base, scale in _kan_layers(arch, init_params(arch, 0)):
            assert np.array_equal(base, np.ones_like(base))
            assert np.array_equal(scale, np.ones_like(scale))
            assert np.abs(coef).max() < 0.1  # small coefficients near known physics

    def test_base_blend_off_zeroes_base_scales(self):
        from residual_lab.netcore import _kan_layers

        arch = KanArch((2, 8, 1), KAN53, base_blend=False)
        for _, base, _ in _kan_layers(arch, init_params(arch, 0)):
            assert np.array_equal(base, np.zeros_like(base))


class TestTrainableMask:
    def test_all_trainable_by_default(self):
        for arch in (KanArch((2, 8, 1), KAN53), MlpArch((2, 26, 1))):
            assert trainable_mask(arch).all()

    def test_base_blend_off_freezes_base_scales(self):
        arch = KanArch((2, 4, 1), KAN53)
        frozen = trainable_mask(KanArch((2, 4, 1), KAN53, base_blend=False))
        n_edges = 2 * 4 + 4 * 1
        assert (~frozen).sum() == n_edges
        assert frozen.shape == (param_count(arch),)
        # Frozen slots are exactly the base scales.
        from residual_lab.netcore import _kan_layers

        probe = np.zeros(param_count(arch))
        for _, base, _ in _kan_layers(arch, probe):
            base[:] = 1.0
        assert np.array_equal(~frozen, probe == 1.0)


class TestProductConstruction:
    def test_corner(self):
        b = product_construction(KAN53)
        assert values(b, 1.0, 1.0)[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_line(self):
        b = product_construction(KAN53)
        vns = np.array([-1.0, -0.3, 0.0, 0.8])
        assert values(b, np.zeros(4), vns) == pytest.approx(np.zeros(4), abs=1e-9)
        for vn in vns:
            assert values(b, 0.0, vn)[0] == pytest.approx(0.0, abs=1e-9)

    def test_example_point(self):
        b = product_construction(KAN53)
        assert values(b, 0.5, 0.4)[0] == pytest.approx(0.2, abs=1e-6)

    def test_dense_grid(self):
        b = product_construction(KAN53)
        g = np.linspace(-1, 1, 50)
        X, V = np.meshgrid(g, g, indexing="ij")
        vals, _ = forward_batch(b.prepare(), np.stack([X.ravel(), V.ravel()], -1))
        assert np.abs(vals - (X * V).ravel()).max() < 1e-6

    def test_requires_quadratic_order(self):
        with pytest.raises(ValueError):
            product_construction(SplineSpec(grid_size=5, order=1))

    def test_order_two_works(self):
        b = product_construction(SplineSpec(grid_size=5, order=2))
        assert values(b, -0.6, 0.9)[0] == pytest.approx(-0.54, abs=1e-6)
        assert values(b, [-0.6, 0.5], [0.9, 0.4]) == pytest.approx([-0.54, 0.2], abs=1e-6)


class TestL1:
    def test_zero_weight(self):
        b = new_branch(KanArch((2, 8, 1), KAN53, l1_weight=0.0), seed=0)
        assert l1_penalty(b) == 0.0

    def test_zero_coefficients(self):
        arch = KanArch((2, 8, 1), KAN53, l1_weight=1e-2)
        assert l1_penalty(ResidualBranch(arch, np.zeros(param_count(arch)))) == 0.0

    def test_arithmetic_example(self):
        from residual_lab.netcore import _kan_layers

        arch = KanArch((2, 4, 1), KAN53, l1_weight=1e-2)
        params = np.zeros(param_count(arch))
        coef, _, _ = _kan_layers(arch, params)[0]
        coef[0, 0, 0] = 0.5
        coef[1, 2, 3] = -0.25
        assert l1_penalty(ResidualBranch(arch, params)) == pytest.approx(0.0075, abs=1e-15)

    def test_scales_excluded(self):
        # init sets all scales to 1; only coefficients should enter the penalty.
        arch = KanArch((2, 4, 1), KAN53, l1_weight=1.0)
        b = new_branch(arch, seed=0)
        from residual_lab.netcore import _kan_layers

        expected = sum(np.abs(c).sum() for c, _, _ in _kan_layers(arch, b.params))
        assert l1_penalty(b) == pytest.approx(expected, rel=1e-12)

    def test_mlp_penalty_zero(self):
        assert l1_penalty(new_branch(MlpArch((2, 26, 1)), seed=0)) == 0.0

    def test_subgradient_matches_finite_differences(self):
        arch = KanArch((2, 4, 1), KAN53, l1_weight=1e-2)
        b = new_branch(arch, seed=6)
        grads = np.zeros_like(b.params)
        add_l1_gradient(b, grads)
        eps = 1e-7
        for i in range(0, b.params.size, 17):
            if abs(b.params[i]) < 10 * eps:
                continue
            p = b.params.copy()
            p[i] += eps
            up = l1_penalty(with_params(b, p))
            p[i] -= 2 * eps
            dn = l1_penalty(with_params(b, p))
            assert grads[i] == pytest.approx((up - dn) / (2 * eps), abs=1e-6)


class TestCheckpoint:
    def test_roundtrip_kan(self, tmp_path):
        b = new_branch(KanArch((2, 8, 1), KAN53, l1_weight=1e-4), seed=21)
        path = tmp_path / "kan.txt"
        save_branch(b, path, seed=21)
        back, seed = load_branch(path)
        assert seed == 21
        assert back.arch == b.arch
        assert np.array_equal(back.params, b.params)

    def test_roundtrip_mlp(self, tmp_path):
        b = new_branch(MlpArch((2, 16, 16, 1)), seed=3)
        path = tmp_path / "mlp.txt"
        save_branch(b, path, seed=3)
        back, seed = load_branch(path)
        assert seed == 3
        assert back.arch == b.arch
        assert np.array_equal(back.params, b.params)

    def test_header_format(self, tmp_path):
        b = new_branch(KanArch((2, 4, 1), KAN53), seed=0)
        path = tmp_path / "b.txt"
        save_branch(b, path, seed=5)
        header = path.read_text().splitlines()[0]
        assert header == "v2,kan,2x4x1,5,3,0,1,-1,1,5"
        save_branch(new_branch(MlpArch((2, 26, 1)), seed=0), path, seed=5)
        assert path.read_text().splitlines()[0] == "v2,mlp,2x26x1,5"

    def test_non_unit_domain_roundtrip(self, tmp_path):
        b = product_construction(KAN53)  # internally uses domain (-2, 2)
        path = tmp_path / "p.txt"
        save_branch(b, path)
        back, _ = load_branch(path)
        assert back.arch == b.arch
        assert np.array_equal(back.params, b.params)
        assert np.array_equal(values(back, 0.5, 0.4), values(b, 0.5, 0.4))
        xs, vs = np.linspace(-1, 1, 7), np.linspace(1, -1, 7)
        assert np.array_equal(values(back, xs, vs), values(b, xs, vs))

    @pytest.mark.parametrize("name", sorted(builtin_configs()))
    def test_roundtrip_every_builtin_config(self, tmp_path, name):
        arch, _ = resolve_arch(ExperimentConfig(config=name))
        b = new_branch(arch, seed=4)
        path = tmp_path / f"{name}.txt"
        save_branch(b, path, seed=4)
        back, seed = load_branch(path)
        assert seed == 4
        assert back.arch == b.arch
        assert np.array_equal(back.params, b.params)
        assert np.array_equal(trainable_mask(back.arch), trainable_mask(b.arch))

    def test_spline_forced_keeps_its_frozen_base_scales(self, tmp_path):
        # Config B freezes the 12 base scales: 108 of 120 params train.
        arch, _ = resolve_arch(ExperimentConfig(config="B"))
        path = tmp_path / "b.txt"
        save_branch(new_branch(arch, seed=0), path)
        back, _ = load_branch(path)
        assert trainable_mask(back.arch).sum() == 108

    @pytest.mark.parametrize("header", [
        "kan,2x4x1,5,3,0,5",  # unversioned header of the first format
        "v3,kan,2x4x1,5,3,0,1,-1,1,5",
        "",
    ])
    def test_unknown_version_rejected(self, tmp_path, header):
        path = tmp_path / "old.txt"
        path.write_text(header + "\n0.5\n")
        with pytest.raises(ValueError, match="checkpoint version"):
            load_branch(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("v2,kan,2x4x1,5,3,0,5\n0.5\n")
        with pytest.raises(ValueError, match="malformed"):
            load_branch(path)
