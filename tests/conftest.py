from dataclasses import replace

import hypothesis
import numpy as np

from residual_lab.netcore import MlpArch, ResidualBranch
from residual_lab.splines import basis_and_derivative, scatter_windows, window_view

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("ci")


def zero_branch() -> ResidualBranch:
    """Zero-weight linear branch: every output is exactly 0.0, so a hybrid
    cell carrying it integrates the known part alone."""
    return ResidualBranch(MlpArch((2, 1)), np.zeros(3))


def with_params(branch: ResidualBranch, params) -> ResidualBranch:
    """Copy of ``branch`` with a copy of ``params`` as its parameters."""
    return replace(branch, params=np.asarray(params, dtype=float).copy())


def local_basis(spec, u, values_only: bool = False):
    """``basis_and_derivative`` on fresh arrays: (B, dB, first), dB None
    for the values alone."""
    u = np.asarray(u, dtype=float)
    K = spec.order + 1
    V = np.empty((u.size, 2, K))
    V[..., 0] = 1.0
    return basis_and_derivative(spec, u, V, np.empty((u.size, K if values_only else 2 * K)))


def scatter_to_dense(local, first, n_basis):
    """Local columns ``local[..., c]`` placed at column ``first + c`` of a
    fresh zero array of shape ``first.shape + (n_basis,)``."""
    dense = np.empty(first.shape + (n_basis,))
    starts = np.arange(0, dense.size, n_basis) + first.reshape(-1)
    return scatter_windows(dense, window_view(dense, local.shape[-1]), starts, local)
