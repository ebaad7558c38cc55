from dataclasses import replace

import hypothesis
import numpy as np

from residual_lab.netcore import MlpArch, ResidualBranch

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
