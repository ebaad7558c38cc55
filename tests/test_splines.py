import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import local_basis

from residual_lab.netcore import KanArch, forward_batch, new_branch
from residual_lab.splines import (
    SplineSpec,
    _local_matrix,
    dense_basis,
    fit_coefficients,
    knot_vector,
)

ALL_SPECS = [
    SplineSpec(grid_size=G, order=k)
    for G in (3, 5, 8, 20)
    for k in (0, 1, 2, 3)
]


class TestSpec:
    def test_n_basis(self):
        assert SplineSpec(grid_size=5, order=3).n_basis == 8
        assert SplineSpec(grid_size=2, order=0).n_basis == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SplineSpec(grid_size=0)
        with pytest.raises(ValueError):
            SplineSpec(order=-1)
        with pytest.raises(ValueError):
            SplineSpec(domain=(1.0, 1.0))

    def test_knot_vector_uniform_extension(self):
        T = knot_vector(SplineSpec(grid_size=2, order=1, domain=(-1.0, 1.0)))
        assert np.allclose(T, [-2.0, -1.0, 0.0, 1.0, 2.0])
        spacing = np.diff(knot_vector(SplineSpec(grid_size=7, order=3)))
        assert np.allclose(spacing, spacing[0])


class TestBasis:
    def test_degree_zero_indicator(self):
        spec = SplineSpec(grid_size=2, order=0)
        assert np.array_equal(dense_basis(spec, np.array([-0.5]))[0], [[1.0, 0.0]])
        assert np.array_equal(dense_basis(spec, np.array([-0.5, 0.5]))[0],
                              [[1.0, 0.0], [0.0, 1.0]])

    def test_partition_of_unity_at_origin(self):
        spec = SplineSpec(grid_size=5, order=3)
        out, _ = dense_basis(spec, np.array(0.0))
        assert out.shape == (8,)
        assert abs(out.sum() - 1.0) < 1e-12
        out, _ = dense_basis(spec, np.zeros(3))
        assert out.shape == (3, 8)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"G{s.grid_size}k{s.order}")
    def test_partition_of_unity_dense(self, spec):
        u = np.linspace(spec.domain[0], spec.domain[1], 1000)
        B, _ = dense_basis(spec, u)
        assert np.abs(B.sum(axis=-1) - 1.0).max() < 1e-10
        assert B.min() >= 0.0
        assert B.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"G{s.grid_size}k{s.order}")
    def test_local_support(self, spec):
        # Degree-k splines overlap at most k+1 basis functions per point.
        u = np.linspace(spec.domain[0], spec.domain[1], 1000)
        B, _ = dense_basis(spec, u)
        assert (B > 1e-14).sum(axis=-1).max() <= spec.order + 1

    def test_right_endpoint_included(self):
        for spec in ALL_SPECS:
            out, _ = dense_basis(spec, np.array([spec.domain[1]]))
            assert abs(out.sum() - 1.0) < 1e-10
            out, _ = dense_basis(spec, np.array(spec.domain))
            assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-10

    def test_clamps_out_of_domain(self):
        # KAN layers clamp their input to the domain before the basis: with
        # the base term off, a point beyond the domain evaluates as the edge.
        arch = KanArch((2, 1), SplineSpec(grid_size=5, order=3), base_blend=False)
        b = new_branch(arch, seed=0)
        for xs, ys in (([3.0], [1.0]), ([-3.0], [-1.0]), ([3.0, -3.0], [1.0, -1.0])):
            x = b.prepare()
            U, W = np.stack([xs, xs], -1), np.stack([ys, ys], -1)
            assert np.array_equal(forward_batch(x, U)[0], forward_batch(x, W)[0])

    @given(st.floats(-1.0, 1.0, allow_nan=False))
    def test_pointwise_unity_property(self, u):
        spec = SplineSpec(grid_size=8, order=2)
        out, _ = dense_basis(spec, np.array([u]))
        assert abs(out.sum() - 1.0) < 1e-10
        out, _ = dense_basis(spec, np.array([u, -u]))
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-10


def reference_basis_and_derivative(spec, u):
    """The basis as it located the interval before the interior-knot search:
    ``searchsorted`` on the whole knot vector, minus 1, clipped to the
    domain's intervals [k, k + G - 1], minus k."""
    G, k = spec.grid_size, spec.order
    T = knot_vector(spec)
    h = (spec.domain[1] - spec.domain[0]) / G
    M = _local_matrix(k).copy()
    M[:, k + 1 :] /= h
    u = np.asarray(u, dtype=float)
    idx = np.minimum(np.maximum(np.searchsorted(T, u, side="right") - 1, k), k + G - 1)
    V = np.empty((u.size, 2, k + 1))
    V[..., 0] = 1.0
    if k:
        np.minimum((u.ravel() - T[idx.ravel()]) / h, 1.0, out=V[:, 0, 1])
        np.subtract(1.0, V[:, 0, 1], out=V[:, 1, 1])
        for p in range(2, k + 1):
            np.multiply(V[..., p - 1], V[..., 1], out=V[..., p])
    P = V.reshape(u.size, -1) @ M
    shape = u.shape + (k + 1,)
    return P[:, : k + 1].reshape(shape), P[:, k + 1 :].reshape(shape), idx - k


class TestIntervalSearch:
    @pytest.mark.parametrize("domain", [(-1.0, 1.0), (-2.5, 0.7)])
    @pytest.mark.parametrize("G,k", [(1, 3), (3, 2), (4, 0), (5, 3), (6, 1), (20, 3)])
    def test_bitwise_equal_to_whole_knot_vector_search(self, G, k, domain):
        # Every knot with both float neighbours, the domain ends, -0.0, NaN
        # and uniform points: the same bits and the same first column.
        spec = SplineSpec(grid_size=G, order=k, domain=domain)
        T = knot_vector(spec)
        u = np.concatenate([
            T, np.nextafter(T, -np.inf), np.nextafter(T, np.inf),
            domain, [-0.0, 0.0, np.nan],
            np.random.default_rng(G * 10 + k).uniform(*domain, 10_000),
        ])
        for points in (u, u.reshape(-1, 3)[:, :2]):
            want = reference_basis_and_derivative(spec, points)
            for g, w in zip(local_basis(spec, points), want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()


class TestDerivative:
    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.order >= 1],
                             ids=lambda s: f"G{s.grid_size}k{s.order}")
    def test_matches_central_difference(self, spec):
        # Stay strictly interior and away from knots so FD sees one polynomial
        # piece; the offset keeps every point off the G in {3,5,8,20} grids.
        u = np.linspace(-0.9, 0.9, 37) + 0.00123
        _, dB = dense_basis(spec, u)
        eps = 1e-6
        fd = (dense_basis(spec, u + eps)[0] - dense_basis(spec, u - eps)[0]) / (2 * eps)
        assert np.abs(dB - fd).max() < 1e-5

    def test_order_zero_derivative_is_zero(self):
        _, dB = dense_basis(SplineSpec(grid_size=5, order=0), np.linspace(-1, 1, 50))
        assert np.array_equal(dB, np.zeros_like(dB))

    def test_derivatives_sum_to_zero(self):
        # d/du of the partition of unity.
        spec = SplineSpec(grid_size=5, order=3)
        _, dB = dense_basis(spec, np.linspace(-1, 1, 200))
        assert np.abs(dB.sum(axis=-1)).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 5, 2048, 2049, 10_000])
    @pytest.mark.parametrize("G,k", [(5, 3), (20, 3), (4, 0)])
    def test_values_only_call_gives_the_full_calls_bits(self, G, k, n):
        # A forward-only KAN layer computes the values alone: a GEMM with
        # k + 1 output columns instead of 2k + 2; B must keep its bits
        # whatever the BLAS kernel does with the narrower product.
        spec = SplineSpec(grid_size=G, order=k)
        u = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
        B, _, first = local_basis(spec, u)
        only, dB, only_first = local_basis(spec, u, values_only=True)
        assert dB is None
        assert only.shape == u.shape + (k + 1,) and only.tobytes() == B.tobytes()
        assert only_first.tobytes() == first.tobytes()


class TestFit:
    def test_cubic_reproduction(self):
        spec = SplineSpec(grid_size=5, order=3)
        coef = fit_coefficients(spec, lambda u: u**3, n_samples=200)
        u = np.linspace(-1, 1, 1000)
        B, _ = dense_basis(spec, u)
        assert np.abs(B @ coef - u**3).max() < 1e-9

    def test_cubic_reproduction_minimal_grid(self):
        spec = SplineSpec(grid_size=1, order=3)
        coef = fit_coefficients(spec, lambda u: u**3)
        u = np.linspace(-1, 1, 1000)
        B, _ = dense_basis(spec, u)
        assert np.abs(B @ coef - u**3).max() < 1e-9

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_reproduces_polynomials_up_to_order(self, degree):
        spec = SplineSpec(grid_size=4, order=3)
        coef = fit_coefficients(spec, lambda u: u**degree)
        u = np.linspace(-1, 1, 500)
        B, _ = dense_basis(spec, u)
        assert np.abs(B @ coef - u**degree).max() < 1e-9

    def test_constant_coefficients_are_one(self):
        # Partition of unity means the constant function has all-ones coefficients.
        coef = fit_coefficients(SplineSpec(grid_size=6, order=2), lambda u: np.ones_like(u))
        assert np.abs(coef - 1.0).max() < 1e-9
