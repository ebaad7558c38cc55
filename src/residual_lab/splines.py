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
coordinate and cached, that gives the values and the derivatives.  The
caller hands it the arrays to work in, so a network layer can reuse them
pass after pass, and picks the values alone or the values and derivatives
by the width of the product array it passes.  ``scatter_windows`` places a
local basis in all ``grid_size + order`` columns of a dense basis, the form
a KAN layer multiplies with its coefficients in one GEMM, and
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


def basis_and_derivative(spec: SplineSpec, u: np.ndarray, V: np.ndarray, P: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Evaluate the nonzero basis functions and, optionally, their
    u-derivatives, in the caller's arrays.

    ``u`` may have any shape but must already lie inside the domain (callers
    clamp first).  ``V`` is (u.size, 2, order + 1) with ones in ``V[..., 0]``,
    which the call leaves in place, and receives the powers; ``P`` is
    (u.size, order + 1) for the values alone or (u.size, 2 (order + 1)) for
    the values and the derivatives, and receives them.  Returns ``(B, dB,
    first)``: ``B`` and ``dB`` are views of ``P`` of shape ``u.shape +
    (order + 1,)`` that hold basis columns ``first .. first + order`` of the
    full ``n_basis``-column basis, ``dB`` None for the values alone, and
    ``first`` has shape ``u.shape``.  Either width gives ``B`` the same bytes.
    """
    k = spec.order
    interior, left, h, M = _tables(spec)
    # Interval containing u: the count of interior knots <= u, so the right
    # boundary (and NaN) fall in the last interval and the domain is closed.
    first = interior.searchsorted(u, side="right")
    # Powers of the local coordinate t in [0, 1] and of s = 1 - t; the
    # minimum only removes rounding at the right end of the interval.
    if k:
        np.minimum((u.ravel() - left[first.ravel()]) / h, 1.0, out=V[:, 0, 1])
        np.subtract(1.0, V[:, 0, 1], out=V[:, 1, 1])
        for p in range(2, k + 1):
            np.multiply(V[..., p - 1], V[..., 1], out=V[..., p])
    np.matmul(V.reshape(u.size, 2 * k + 2), M[:, : P.shape[-1]], out=P)
    shape = u.shape + (k + 1,)
    dB = P[:, k + 1 :].reshape(shape) if P.shape[-1] > k + 1 else None
    return P[:, : k + 1].reshape(shape), dB, first


def window_view(dense: np.ndarray, K: int) -> np.ndarray:
    """Every ``K``-entry window of the contiguous array ``dense``, flattened:
    row r of the (dense.size - K + 1, K) view is entries r .. r + K - 1.  A
    strided ``dense`` raises rather than giving a view of a copy."""
    return np.ndarray((max(dense.size - K + 1, 0), K), buffer=dense,
                      strides=(dense.itemsize, dense.itemsize))


def scatter_windows(dense: np.ndarray, windows: np.ndarray, starts: np.ndarray,
                    local: np.ndarray) -> np.ndarray:
    """Zero ``dense`` and write each row's local columns into it, returning it.

    ``windows`` is ``window_view(dense, K)`` and ``starts`` holds each row's
    flat window start, ``row * n_basis + first``: row r of the (.., K)
    ``local`` lands in columns ``first .. first + K - 1`` of its
    ``n_basis``-wide row, through one assignment to the overlapping
    windows."""
    dense[...] = 0.0
    windows[starts.reshape(-1)] = local.reshape(-1, local.shape[-1])
    return dense


def dense_basis(spec: SplineSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ``n_basis`` columns of the basis and its derivative at ``u``: the
    local result of ``basis_and_derivative`` scattered into zeros, two arrays
    of shape ``u.shape + (n_basis,)``."""
    u = np.asarray(u, dtype=float)
    K, M = spec.order + 1, spec.n_basis
    V = np.empty((u.size, 2, K))
    V[..., 0] = 1.0
    B, dB, first = basis_and_derivative(spec, u, V, np.empty((u.size, 2 * K)))
    starts = np.arange(0, u.size * M, M) + first.ravel()
    out = np.empty((2,) + u.shape + (M,))
    for dense, local in zip(out, (B, dB)):
        scatter_windows(dense, window_view(dense, K), starts, local)
    return out[0], out[1]


def fit_coefficients(spec: SplineSpec, fn, n_samples: int = 200) -> np.ndarray:
    """Least-squares coefficients reproducing ``fn`` on the domain.

    Exact (to roundoff) whenever fn is a polynomial of degree <= order.
    """
    u = np.linspace(spec.domain[0], spec.domain[1], n_samples)
    B, _ = dense_basis(spec, u)
    coef, *_ = np.linalg.lstsq(B, fn(u), rcond=None)
    return coef
