"""The spline kernel against two references.

``splines.basis_and_derivative`` returns only the order+1 nonzero basis
weights per point; ``splines.scatter_to_dense`` places them in all
grid_size + order columns, and a KAN layer is one GEMM of that dense basis
with its scaled coefficients.  The references below are

* the full-width Cox-de Boor recursion over all knot intervals with
  full-width einsum contractions, independent of the local basis;
* the gather kernel the GEMM replaced: per point and input it gathers the
  order+1 coefficients of its knot interval from a table and contracts over
  them, and its scatter is a 2-D fancy index.  It sums in another order, so
  the two agree to rounding, not to the bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from residual_lab.harness import ExperimentConfig, resolve_arch
from residual_lab.netcore import (
    FORWARD_ROWS,
    KanArch,
    ResidualBranch,
    _kan_layers,
    _silu,
    backward_batch,
    forward_batch,
    param_count,
)
from residual_lab.rng import stream
from residual_lab.splines import (
    SplineSpec,
    basis_and_derivative,
    dense_basis,
    knot_vector,
    scatter_to_dense,
)

DOMAINS = [(-1.0, 1.0), (-2.0, 2.0), (0.0, 1.0), (-0.5, 3.0), (-7.5, -2.5), (10.0, 12.0)]


def reference_basis(spec, u):
    """Full-width Cox-de Boor: all n_basis columns of B and dB/du."""
    G, k = spec.grid_size, spec.order
    T = knot_vector(spec)
    u = np.asarray(u, dtype=float)
    idx = np.clip(np.searchsorted(T, u, side="right") - 1, k, k + G - 1)
    B = (idx[..., None] == np.arange(G + 2 * k)).astype(float)
    B_prev = B
    for d in range(1, k + 1):
        m = B.shape[-1] - 1
        left = (u[..., None] - T[:m]) / (T[d : d + m] - T[:m]) * B[..., :-1]
        right = (T[d + 1 : d + 1 + m] - u[..., None]) / (T[d + 1 : d + 1 + m] - T[1 : 1 + m]) * B[..., 1:]
        B_prev = B
        B = left + right
    if k == 0:
        return B, np.zeros_like(B)
    n = G + k
    dB = k * (B_prev[..., :-1] / (T[k : k + n] - T[:n]) - B_prev[..., 1:] / (T[k + 1 :] - T[1 : n + 1]))
    return B, dB


def reference_forward(branch, xn, vn):
    """Dense-contraction KAN forward; returns (values, per-layer cache)."""
    spec = branch.arch.spline
    lo, hi = spec.domain
    U = np.stack([np.atleast_1d(xn), np.atleast_1d(vn)], axis=1).astype(float)
    layers = []
    for coef, base, scale in _kan_layers(branch.arch, branch.params):
        B, dB = reference_basis(spec, np.clip(U, lo, hi))
        sig, silu = _silu(U)
        spl = np.einsum("nim,iom->nio", B, coef)
        layers.append({"U": U, "sig": sig, "silu": silu, "B": B, "dB": dB, "spl": spl,
                       "mask": (U >= lo) & (U <= hi)})
        U = silu @ base + np.einsum("nio,io->no", spl, scale)
    return U[:, 0], layers


def reference_backward(branch, layers, upstream):
    """Dense-contraction reverse sweep: (flat param gradient, (d/dxn, d/dvn))."""
    Wy = np.asarray(upstream, dtype=float)[:, None]
    grads = np.zeros_like(branch.params)
    views = _kan_layers(branch.arch, branch.params)
    gviews = _kan_layers(branch.arch, grads)
    for li in range(len(views) - 1, -1, -1):
        (coef, base, scale), (gcoef, gbase, gscale), c = views[li], gviews[li], layers[li]
        gbase += c["silu"].T @ Wy
        gscale += np.einsum("nio,no->io", c["spl"], Wy)
        gcoef += scale[:, :, None] * np.einsum("no,nim->iom", Wy, c["B"])
        dsilu = c["sig"] * (1.0 + c["U"] * (1.0 - c["sig"]))
        dspl = np.einsum("nim,iom->nio", c["dB"], coef)
        Wy = dsilu * (Wy @ base.T) + c["mask"] * np.einsum("no,io,nio->ni", Wy, scale, dspl)
    return grads, (Wy[:, 0], Wy[:, 1])


@st.composite
def spec_and_points(draw):
    spec = SplineSpec(draw(st.integers(1, 25)), draw(st.integers(0, 5)),
                      draw(st.sampled_from(DOMAINS)))
    lo, hi = spec.domain
    # Fractions of the domain width; those outside [0, 1] are clamped, as the
    # network layers clamp before evaluating the basis.
    z = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40)))
    knots = knot_vector(spec)[spec.order : spec.order + spec.grid_size + 1]
    u = np.concatenate([np.clip(lo + (hi - lo) * z, lo, hi), knots, [lo, hi]])
    return spec, u


def assert_matches_reference(spec, u):
    B, dB = dense_basis(spec, u)
    ref_B, ref_dB = reference_basis(spec, u)
    h = (spec.domain[1] - spec.domain[0]) / spec.grid_size
    assert np.abs(B - ref_B).max() <= 1e-13
    # dB scales as 1/h; compare it in units of the knot spacing.
    assert h * np.abs(dB - ref_dB).max() <= 1e-13


class TestLocalBasis:
    @settings(max_examples=200)
    @given(spec_and_points())
    def test_scattered_local_basis_matches_dense_reference(self, case):
        assert_matches_reference(*case)

    def test_every_order_grid_size_and_domain(self):
        z = np.linspace(-0.5, 1.5, 203)
        for k in range(6):
            for G in range(1, 26):
                for lo, hi in DOMAINS:
                    spec = SplineSpec(G, k, (lo, hi))
                    knots = knot_vector(spec)[k : k + G + 1]
                    u = np.concatenate([np.clip(lo + (hi - lo) * z, lo, hi), knots])
                    assert_matches_reference(spec, u)

    @given(spec_and_points())
    def test_local_shape_and_first_column(self, case):
        spec, u = case
        B, dB, first = basis_and_derivative(spec, u)
        assert B.shape == dB.shape == u.shape + (spec.order + 1,)
        assert first.shape == u.shape
        assert first.min() >= 0 and first.max() <= spec.grid_size - 1

    def test_scalar_input(self):
        B, dB, first = basis_and_derivative(SplineSpec(), np.asarray(0.3))
        assert B.shape == dB.shape == (4,) and first.shape == ()


def _random_kan(widths, seed):
    arch = KanArch(widths, SplineSpec(5, 3))
    # Coefficients large enough that the spline term is not swamped by silu,
    # small enough that deep layers still see inputs inside the domain.
    params = stream(seed, "local-kernel").normal(0.0, 0.3, param_count(arch))
    return ResidualBranch(arch, params)


class TestKanContraction:
    @pytest.mark.parametrize("widths", [(2, 4, 1), (2, 8, 8, 1)], ids=["2-4-1", "2-8-8-1"])
    @pytest.mark.parametrize("n", [1, 256])
    def test_matches_dense_reference(self, widths, n):
        branch = _random_kan(widths, seed=n)
        rng = stream(n, "local-kernel-inputs")
        # Inputs reach past the domain, so clamping and the mask are covered.
        xn, vn = rng.uniform(-1.3, 1.3, n), rng.uniform(-1.3, 1.3, n)
        upstream = rng.normal(size=n)

        grads = np.zeros_like(branch.params)
        x = branch.prepare(grads)
        vals, cache = forward_batch(x, xn, vn)
        ref_vals, ref_cache = reference_forward(branch, xn, vn)
        assert np.abs(vals - ref_vals).max() <= 1e-12 * max(1.0, np.abs(ref_vals).max())

        grads, (dx, dv) = backward_batch(x, cache, upstream, grads)
        ref_grads, (ref_dx, ref_dv) = reference_backward(branch, ref_cache, upstream)
        assert np.abs(grads - ref_grads).max() <= 1e-12 * max(1.0, np.abs(ref_grads).max())
        for got, want in ((dx, ref_dx), (dv, ref_dv)):
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def fancy_scatter(local, first, n_basis):
    """The 2-D fancy-index scatter that ``scatter_to_dense`` replaced."""
    K = local.shape[-1]
    out = np.zeros((first.size, n_basis))
    out[np.arange(first.size)[:, None], first.reshape(-1, 1) + np.arange(K)] = local.reshape(-1, K)
    return out.reshape(first.shape + (n_basis,))


def gather_forward(branch, xn, vn):
    """The gather kernel's forward for one seed's (P,) vector; returns
    (values, per-layer cache)."""
    spec = branch.arch.spline
    lo, hi = spec.domain
    G, K = spec.grid_size, spec.order + 1
    windows = np.arange(G)[:, None] + np.arange(K)
    U = np.stack([xn, vn], axis=-1)
    layers = []
    for coef, base, scale in _kan_layers(branch.arch, branch.params):
        n_in, n_out = base.shape
        # Row first + G i holds the K coefficients of input i's interval for
        # every out unit: local[n, i, c, o] = coef[i, o, first[n, i] + c].
        table = np.moveaxis(coef[..., windows], -3, -1).reshape(-1, K * n_out)
        B, dB, first = basis_and_derivative(spec, np.minimum(np.maximum(U, lo), hi))
        local = np.take(table, first + G * np.arange(n_in), axis=0).reshape(first.shape + (K, -1))
        sig, silu = _silu(U)
        spl = np.einsum("nic,nico->nio", B, local)
        layers.append({"silu": silu, "dsilu": sig * (1.0 + U * (1.0 - sig)), "B": B,
                       "first": first, "spl": spl, "dspl": np.einsum("nic,nico->nio", dB, local),
                       "mask": (U >= lo) & (U <= hi)})
        U = silu @ base + np.einsum("nio,io->no", spl, scale)
    return U[..., 0], layers


def gather_backward(branch, layers, upstream):
    """The gather kernel's reverse sweep: (flat param gradient, (d/dxn, d/dvn))."""
    Wy = upstream[..., None]
    grads = np.zeros_like(branch.params)
    views = _kan_layers(branch.arch, branch.params)
    gviews = _kan_layers(branch.arch, grads)
    for li in range(len(views) - 1, -1, -1):
        (coef, base, scale), (gcoef, gbase, gscale), c = views[li], gviews[li], layers[li]
        n_in, _, M = coef.shape
        gbase += c["silu"].T @ Wy
        gscale += np.einsum("nio,no->io", c["spl"], Wy)
        gsum = fancy_scatter(c["B"], c["first"], M).reshape(len(Wy), n_in * M).T @ Wy
        gcoef += scale[..., None] * gsum.reshape(n_in, M, -1).transpose(0, 2, 1)
        Wy = c["dsilu"] * (Wy @ base.T) + c["mask"] * np.einsum(
            "nio,nio->ni", c["dspl"], Wy[:, None, :] * scale)
    return grads, (Wy[:, 0], Wy[:, 1])


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestGatherKernel:
    @pytest.mark.parametrize("n", [1, 5, 256, FORWARD_ROWS + 1])
    @pytest.mark.parametrize("seeds", [1, 16])
    @pytest.mark.parametrize("config", ["A", "G", "kan-deep"])
    def test_gemm_matches_gather_kernel(self, config, seeds, n):
        # seeds = 1 is a (P,) vector, 16 an (S, P) block compared seed by
        # seed; FORWARD_ROWS + 1 rows take two passes of a forward-only call.
        arch, _ = resolve_arch(ExperimentConfig(config=config))
        lead = () if seeds == 1 else (seeds,)
        params = stream(n, "gather-kernel").normal(0.0, 0.3, lead + (param_count(arch),))
        rng = stream(n, "gather-kernel-inputs")
        # Inputs reach past the domain, so clamping and the mask are covered.
        xn, vn = rng.uniform(-1.3, 1.3, (2,) + lead + (n,))
        upstream = rng.normal(size=lead + (n,))

        branch = ResidualBranch(arch, params)
        only, _ = forward_batch(branch.prepare(), xn, vn)
        x = branch.prepare(np.zeros_like(params))
        vals, cache = forward_batch(x, xn, vn)
        grads, (dx, dv) = backward_batch(x, cache, upstream, x.grads)
        for s in np.ndindex(lead):
            seed = ResidualBranch(arch, params[s])
            want, layers = gather_forward(seed, xn[s], vn[s])
            assert_close(vals[s], want)
            assert_close(only[s], want)
            want_grads, (want_dx, want_dv) = gather_backward(seed, layers, upstream[s])
            assert_close(grads[s], want_grads)
            assert_close(dx[s], want_dx)
            assert_close(dv[s], want_dv)


@st.composite
def scatter_case(draw):
    G, k = draw(st.integers(1, 25)), draw(st.integers(0, 5))
    lead = tuple(draw(st.lists(st.integers(0, 5), max_size=3)))
    first = draw(hnp.arrays(np.int64, lead, elements=st.integers(0, G - 1)))
    local = draw(hnp.arrays(np.float64, lead + (k + 1,),
                            elements=st.floats(allow_nan=False, allow_infinity=False)))
    return local, first, G + k


@settings(max_examples=200)
@given(scatter_case())
def test_window_scatter_matches_fancy_index_scatter(case):
    local, first, n_basis = case
    got, want = scatter_to_dense(local, first, n_basis), fancy_scatter(local, first, n_basis)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
