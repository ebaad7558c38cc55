"""Uniform B-spline bases on a closed interval, evaluated locally.

The knot vector is the uniform grid over the domain, extended past each end
by ``order`` extra knots at the same spacing (uniform extension, not the
clamped-open convention).  That yields ``grid_size + order`` basis functions
of degree ``order``.  With uniform extension no knot interval degenerates,
and on the domain itself the basis inherits the partition of unity of the
biinfinite uniform family.

Only ``order + 1`` of those functions are nonzero at any point, and on a
uniform grid each of them is a translate of one cardinal B-spline.  So
``basis_and_derivative`` returns just those ``order + 1`` local weights plus
the index of the first nonzero column.  It finds the knot interval among the
``grid_size - 1`` interior knots, takes the local coordinate ``t`` in [0, 1]
inside it, and multiplies the powers of ``t`` and ``1 - t`` by one small
matrix, built once per order from the Cox-de Boor recursion in the local
coordinate and cached, that gives the values and the derivatives.
``scatter_to_dense`` places them in all ``grid_size + order`` columns, the
dense basis a KAN layer multiplies with its coefficients in one GEMM, and
``dense_basis`` returns the basis and its derivative in that form.

The right domain endpoint belongs to the last interior interval (closed on
the right), so evaluation at the boundary is exact and derivatives there are
the interior one-sided values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class SplineSpec:
    """Grid size (interval count), polynomial order, and evaluation domain."""

    grid_size: int = 5
    order: int = 3
    domain: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if not self.domain[0] < self.domain[1]:
            raise ValueError(f"degenerate domain {self.domain}")

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.order


def knot_vector(spec: SplineSpec) -> np.ndarray:
    lo, hi = spec.domain
    h = (hi - lo) / spec.grid_size
    return lo + (np.arange(spec.grid_size + 2 * spec.order + 1) - spec.order) * h


@lru_cache(maxsize=None)
def _local_matrix(order: int) -> np.ndarray:
    """Matrix mapping the powers ``[t**0 .. t**k, s**0 .. s**k]`` (k = order,
    s = 1 - t) of one point to ``[B | dB/dt]``, its k+1 nonzero basis values
    and their t-derivatives; shape (2k+2, 2k+2).

    Column r of B is the piece ``b_r`` of the recursion below: the basis
    function whose support ends r intervals to the right of this one.  The
    pieces come from the Cox-de Boor recursion on unit-spaced knots in the
    local coordinate t,

        b^0_0 = 1,   b^d_r = ((t + d - r) b^{d-1}_{r-1} + (r + 1 - t) b^{d-1}_r) / d,

    run on integer coefficients of powers of t for d! b^d_r, so the only
    rounding is the final division by k!.  By symmetry
    ``b_r(t) = b_{k-r}(1 - t)``; the pieces with 2r < k, which fall toward
    t = 1, are evaluated that way in powers of s, so each piece that vanishes
    at an end of the interval is a single monomial there: exactly zero at
    the end and never negative.
    """
    k, K = order, order + 1
    pieces = [[1] + [0] * k]  # 0! b^0_0, ascending powers of t
    for d in range(1, K):
        nxt = []
        for r in range(d + 1):
            poly = [0] * K
            if r >= 1:  # (t + d - r) * b^{d-1}_{r-1}
                for p, c in enumerate(pieces[r - 1][:k]):
                    poly[p] += (d - r) * c
                    poly[p + 1] += c
            if r < d:  # (r + 1 - t) * b^{d-1}_r
                for p, c in enumerate(pieces[r][:k]):
                    poly[p] += (r + 1) * c
                    poly[p + 1] -= c
            nxt.append(poly)
        pieces = nxt
    Ci = np.array(pieces).T  # Ci[p, r], integers
    C = Ci / math.factorial(k)
    D = np.zeros_like(C)  # t-derivative: p t**(p-1) for each t**p
    D[:k] = np.arange(1, K)[:, None] * Ci[1:] / math.factorial(k)
    out = np.zeros((2 * K, 2 * K))
    for r in range(K):
        if 2 * r < k:
            out[K:, r], out[K:, K + r] = C[:, k - r], -D[:, k - r]
        else:
            out[:K, r], out[:K, K + r] = C[:, r], D[:, r]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _tables(spec: SplineSpec) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Interior knots, the left knot of each interval, knot spacing h, and the
    order's local matrix with its derivative columns divided by h (d/du = d/dt / h)."""
    h = (spec.domain[1] - spec.domain[0]) / spec.grid_size
    M = _local_matrix(spec.order).copy()
    M[:, spec.order + 1 :] /= h
    T = knot_vector(spec)
    T.flags.writeable = M.flags.writeable = False
    return T[spec.order + 1 : spec.n_basis], T[spec.order : spec.n_basis], h, M


def basis_and_derivative(spec: SplineSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the nonzero basis functions and their u-derivatives.

    ``u`` may have any shape but must already lie inside the domain (callers
    clamp first).  Returns ``(B, dB, first)``: ``B`` and ``dB`` have shape
    ``u.shape + (order + 1,)`` and hold basis columns ``first .. first +
    order`` of the full ``n_basis``-column basis; ``first`` has shape
    ``u.shape``.
    """
    k = spec.order
    interior, left, h, M = _tables(spec)
    u = np.asarray(u, dtype=float)
    # Interval containing u: the count of interior knots <= u, so the right
    # boundary (and NaN) fall in the last interval and the domain is closed.
    first = np.searchsorted(interior, u, side="right")
    # Powers of the local coordinate t in [0, 1] and of s = 1 - t; the
    # minimum only removes rounding at the right end of the interval.
    V = np.empty((u.size, 2, k + 1))
    V[..., 0] = 1.0
    if k:
        np.minimum((u.ravel() - left[first.ravel()]) / h, 1.0, out=V[:, 0, 1])
        np.subtract(1.0, V[:, 0, 1], out=V[:, 1, 1])
        for p in range(2, k + 1):
            np.multiply(V[..., p - 1], V[..., 1], out=V[..., p])
    P = V.reshape(u.size, -1) @ M
    shape = u.shape + (k + 1,)
    return P[:, : k + 1].reshape(shape), P[:, k + 1 :].reshape(shape), first


def scatter_to_dense(local: np.ndarray, first: np.ndarray, n_basis: int) -> np.ndarray:
    """Place local columns ``local[..., c]`` at column ``first + c`` of a
    zero array of shape ``first.shape + (n_basis,)``.

    Each row's ``K`` local columns are one length-``K`` window of the flat
    output, starting at ``row * n_basis + first``, so one assignment through
    a view of all overlapping windows writes every row; ``K`` spare zeros at
    the end keep the last windows inside the buffer."""
    K = local.shape[-1]
    size = first.size * n_basis
    flat = np.zeros(size + K)
    windows = np.ndarray((size, K), buffer=flat, strides=(flat.itemsize, flat.itemsize))
    windows[np.arange(0, size, n_basis) + first.ravel()] = local.reshape(-1, K)
    return flat[:size].reshape(first.shape + (n_basis,))


def dense_basis(spec: SplineSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ``n_basis`` columns of the basis and its derivative at ``u``: the
    local result of ``basis_and_derivative`` scattered into zeros, two arrays
    of shape ``u.shape + (n_basis,)``."""
    B, dB, first = basis_and_derivative(spec, u)
    return scatter_to_dense(B, first, spec.n_basis), scatter_to_dense(dB, first, spec.n_basis)


def fit_coefficients(spec: SplineSpec, fn, n_samples: int = 200) -> np.ndarray:
    """Least-squares coefficients reproducing ``fn`` on the domain.

    Exact (to roundoff) whenever fn is a polynomial of degree <= order.
    """
    u = np.linspace(spec.domain[0], spec.domain[1], n_samples)
    B, _ = dense_basis(spec, u)
    coef, *_ = np.linalg.lstsq(B, fn(u), rcond=None)
    return coef
