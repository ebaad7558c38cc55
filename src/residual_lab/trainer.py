"""Seed-deterministic Adam training of residual branches.

One ``train`` call is one seed of the protocol: sample batches with a named
PRNG stream, take Adam steps on the chosen loss (teacher forcing or BPTT),
and record the loss history.  Divergence is data, not an exception: a failed
step is retried once with a fresh batch, then the run halts with status
``Unstable`` and keeps the last finite parameters as its checkpoint.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import Dataset, DivergenceError
from .hybridcell import (
    HybridSystem,
    bptt_grads_arrays,
    bptt_value_arrays,
    rollout,
    tf_loss_grads,
    tf_loss_value,
    transitions_of,
    windows_of,
)
from .netcore import MlpArch, ResidualBranch, trainable_mask
from .rng import stream

TEACHER_FORCING = "teacher_forcing"
BPTT = "bptt"

CONVERGED = "Converged"
MAX_STEPS = "MaxSteps"
UNSTABLE = "Unstable"


@dataclass(frozen=True)
class TrainConfig:
    paradigm: str = TEACHER_FORCING
    steps: int = 2000
    learning_rate: float = 1e-3
    batch_size: int = 256
    horizon: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 10.0
    seed: int = 0
    converge_tol: float = 0.0

    def __post_init__(self):
        if self.paradigm not in (TEACHER_FORCING, BPTT):
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.batch_size < 1 or self.horizon < 1:
            raise ValueError("batch_size and horizon must be >= 1")


@dataclass
class TrainReport:
    params: np.ndarray
    loss_history: list[float]
    status: str
    wall_time: float
    fail_step: int | None = None
    checkpoint: str | None = None


def adam_step(params, grads, moments, t: int, cfg: TrainConfig):
    """One bias-corrected Adam update; gradients are pre-clipped to
    cfg.grad_clip by global norm.  Pure: returns new (params, moments)."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape:
        raise ValueError("params and grads must have the same length")
    if t < 1:
        raise ValueError("step index t starts at 1")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradients")
    norm = float(np.linalg.norm(grads))
    if cfg.grad_clip > 0 and norm > cfg.grad_clip:
        grads = grads * (cfg.grad_clip / norm)
    m, v = moments
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grads ** 2
    mhat = m / (1.0 - cfg.beta1 ** t)
    vhat = v / (1.0 - cfg.beta2 ** t)
    new_params = params - cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.eps)
    return new_params, (m, v)


def init_moments(n: int):
    return np.zeros(n), np.zeros(n)


def train(system: HybridSystem, data: Dataset, cfg: TrainConfig) -> TrainReport:
    """Run cfg.steps Adam iterations; pure function of (system, data, cfg).

    Mutates system.branch.params in place (single writer) and returns the
    final parameters in the report as a copy.
    """
    t0 = time.perf_counter()
    branch = system.branch
    rng = stream(cfg.seed, "batches")
    mask = trainable_mask(branch.arch)

    if cfg.paradigm == TEACHER_FORCING:
        inputs, loss_grads = transitions_of(data.train), tf_loss_grads
    else:
        inputs, loss_grads = windows_of(data.train, cfg.horizon), bptt_grads_arrays
    pool = len(inputs[0])

    def sample_loss():
        idx = rng.choice(pool, size=min(cfg.batch_size, pool), replace=False)
        return loss_grads(system, inputs[0][idx], inputs[1][idx])

    moments = init_moments(branch.params.size)
    history: list[float] = []
    status = MAX_STEPS
    fail_step = None
    for t in range(1, cfg.steps + 1):
        loss = grads = None
        for _attempt in range(2):
            try:
                loss, grads = sample_loss()
            except DivergenceError:
                loss = grads = None
                continue
            if np.isfinite(loss) and np.all(np.isfinite(grads)):
                break
            loss = grads = None
        if loss is None:
            status = UNSTABLE
            fail_step = t
            break
        grads[~mask] = 0.0
        new_params, moments = adam_step(branch.params, grads, moments, t, cfg)
        branch.params[:] = new_params
        history.append(float(loss))
        if cfg.converge_tol > 0 and loss < cfg.converge_tol:
            status = CONVERGED
            break
    return TrainReport(
        params=branch.params.copy(),
        loss_history=history,
        status=status,
        wall_time=time.perf_counter() - t0,
        fail_step=fail_step,
    )


def save_report(report: TrainReport, path) -> None:
    payload = {
        "status": report.status,
        "wall_time": report.wall_time,
        "fail_step": report.fail_step,
        "checkpoint": report.checkpoint,
        "loss_history": report.loss_history,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass
class GradCheckReport:
    tf_error: float
    bptt_error: float
    worst_index: int
    tolerance: float
    bptt_tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.tf_error, self.bptt_error)

    @property
    def passed(self) -> bool:
        return self.tf_error < self.tolerance and self.bptt_error < self.bptt_tolerance


def _max_rel_error(analytic: np.ndarray, fd: np.ndarray):
    """Worst relative disagreement; entries where both sides are below 1e-9
    in magnitude count as exact agreement (0/0 -> 0)."""
    worst, idx = 0.0, -1
    for i in range(analytic.size):
        a, f = analytic[i], fd[i]
        if abs(a) < 1e-9 and abs(f) < 1e-9:
            continue
        err = abs(a - f) / max(abs(a), abs(f))
        if err > worst:
            worst, idx = err, i
    return worst, idx


def _fd_gradient(branch, loss_value, eps: float = 1e-5) -> np.ndarray:
    # eps trades O(eps^2) truncation against roundoff ~ulp(loss)/eps; at 1e-5
    # both stay below the check tolerances even for near-zero gradient entries.
    grad = np.zeros(branch.params.size)
    for i in range(branch.params.size):
        orig = branch.params[i]
        branch.params[i] = orig + eps
        up = loss_value()
        branch.params[i] = orig - eps
        dn = loss_value()
        branch.params[i] = orig
        grad[i] = (up - dn) / (2.0 * eps)
    return grad


def verify_gradients(branch, system: HybridSystem, n_points: int = 5,
                     tolerance: float = 1e-4, bptt_tolerance: float = 1e-3,
                     horizon: int = 5, seed: int = 0) -> GradCheckReport:
    """Pre-flight check: analytic vs central-difference gradients on both
    loss paths, over probe transitions rolled out from the known part alone
    (so an all-zero branch agrees bitwise on both sides)."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = stream(seed, "gradcheck")
    ics = rng.uniform(-1.5, 1.5, size=(n_points, 2))
    # A zero-weight linear branch outputs exactly 0.0: the known part alone.
    zero = ResidualBranch(MlpArch((2, 1)), np.zeros(3))
    probe = HybridSystem(system.spec, zero, system.dt, system.integrator, system.scale)
    path = rollout(probe, ics, horizon)

    h = HybridSystem(system.spec, branch, system.dt, system.integrator, system.scale)
    s0, s1 = path[:, 0], path[:, 1]
    _, tf_g = tf_loss_grads(h, s0, s1)
    tf_fd = _fd_gradient(branch, lambda: tf_loss_value(h, s0, s1))
    tf_err, tf_idx = _max_rel_error(tf_g, tf_fd)

    starts, targets = path[:, 0], path[:, 1:]
    _, bp_g = bptt_grads_arrays(h, starts, targets)
    bp_fd = _fd_gradient(branch, lambda: bptt_value_arrays(h, starts, targets))
    bp_err, bp_idx = _max_rel_error(bp_g, bp_fd)

    worst_index = tf_idx if tf_err >= bp_err else bp_idx
    return GradCheckReport(tf_err, bp_err, worst_index, tolerance, bptt_tolerance)
