"""Seed-deterministic Adam training of residual branches.

``train_block`` trains a block of seeds of the protocol in lockstep: each
seed samples batches from its own named PRNG stream, and every step takes
one batched window loss call and one batched Adam step for the seeds still
training, recording each seed's loss history.  Both paradigms cut the
training trajectories into windows and train on the same loss: BPTT on
windows of ``horizon`` steps, teacher forcing on one-step windows.
Divergence is data, not an exception: a seed whose step fails is retried
once with a fresh batch, then halts with status ``Unstable`` and keeps its
last finite parameters as its checkpoint, while the rest of the block goes
on.  A seed's result does not depend on the block it trains in; ``train``
is the block of one, for a lone seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Dataset, DivergenceError
from .hybridcell import (
    HybridSystem,
    bptt_grads_arrays,
    rollout,
    tf_loss_grads,
    windows_of,
)
from .netcore import MlpArch, ResidualBranch, trainable_mask
from .rng import stream

TEACHER_FORCING = "teacher_forcing"
BPTT = "bptt"

# Seeds evaluated in lockstep by one block, in a sweep or a gradient check.
# Memory bounds the block, not speed (config A BPTT still costs less per seed
# at 64): a BPTT loss keeps every step's and RK4 stage's KAN cache, 582 bytes
# per row and stage for config A, 1302 for G and 2162 for kan-deep.
BLOCK_SEEDS = 16

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
        if not (self.steps >= 1):
            raise ValueError("steps must be >= 1")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("Adam betas must lie in (0, 1)")
        if not (self.batch_size >= 1 and self.horizon >= 1):
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
    """One bias-corrected Adam update of a (P,) vector or of each row of an
    (S, P) block; each row's gradient is pre-clipped to cfg.grad_clip by its
    own global norm.  Pure: returns new (params, moments)."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape:
        raise ValueError("params and grads must have the same shape")
    if t < 1:
        raise ValueError("step index t starts at 1")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradients")
    # The row-wise dot product rounds exactly as the 1-D np.linalg.norm does;
    # np.linalg.norm(grads, axis=-1) does not.
    norm = np.sqrt((grads[..., None, :] @ grads[..., :, None])[..., 0, 0])
    if cfg.grad_clip > 0:
        # clip / norm on the rows above the clip, exactly 1.0 on the others.
        grads = grads * (cfg.grad_clip / np.maximum(norm, cfg.grad_clip))[..., None]
    m, v = moments
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grads ** 2
    mhat = m / (1.0 - cfg.beta1 ** t)
    vhat = v / (1.0 - cfg.beta2 ** t)
    new_params = params - cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.eps)
    return new_params, (m, v)


def init_moments(shape):
    return np.zeros(shape), np.zeros(shape)


def train(system: HybridSystem, data: Dataset, cfg: TrainConfig) -> TrainReport:
    """Run cfg.steps Adam iterations on one seed: ``train_block`` with a
    block of one.  Pure function of (system, data, cfg).

    Mutates system.branch.params in place (single writer) and returns the
    final parameters in the report as a copy.
    """
    branch = ResidualBranch(system.branch.arch, system.branch.params[None])
    return train_block(replace(system, branch=branch), [data], [cfg])[0]


def train_block(system: HybridSystem, data: list[Dataset],
                cfgs: list[TrainConfig]) -> list[TrainReport]:
    """Train the S seeds of an (S, P) parameter block in lockstep.

    Seed s trains on ``data[s]`` with ``cfgs[s]``; the configs differ only
    in their seed, and the datasets (often one shared object) only in their
    values.  Every step makes one loss call and one ``adam_step`` call for
    the seeds still training.  A seed whose attempt diverges or gives a
    non-finite loss or gradient is retried once, on a fresh batch from its
    own stream, in a second loss call over only the failed seeds; a seed
    that fails twice stops ``Unstable`` and keeps its last finite
    parameters, and one that converges stops too.  Each seed draws the same
    batches and does the same float operations as it would in a block of
    its own, so its report does not depend on the block.

    Mutates system.branch.params in place and returns one report per seed,
    each timed with the block's wall time.
    """
    t0 = time.perf_counter()
    arch, params = system.branch.arch, system.branch.params
    cfg, S = cfgs[0], len(cfgs)
    mask = trainable_mask(arch)
    rngs = [stream(c.seed, "batches") for c in cfgs]
    horizon = 1 if cfg.paradigm == TEACHER_FORCING else cfg.horizon
    cuts = {id(ds): windows_of(ds.train, horizon) for ds in data}
    inputs = [cuts[id(ds)] for ds in data]
    pools = [len(pair[0]) for pair in inputs]

    def sample_loss(seeds):
        batches = []
        for s in seeds:
            i = rngs[s].choice(pools[s], size=min(cfg.batch_size, pools[s]), replace=False)
            batches.append((inputs[s][0][i], inputs[s][1][i]))
        if len(seeds) == 1:
            # A lone seed drops the seed axis, which spares the stacked calls
            # their overhead; the float operations are the same.
            one = replace(system, branch=ResidualBranch(arch, params[seeds[0]]))
            return tuple(r[None] for r in bptt_grads_arrays(one, *batches[0]))
        a, b = (np.stack(part) for part in zip(*batches))
        return bptt_grads_arrays(replace(system, branch=ResidualBranch(arch, params[seeds])), a, b)

    m, v = init_moments((S, params.shape[-1]))
    history: list[list[float]] = [[] for _ in range(S)]
    status, fail_step = [MAX_STEPS] * S, [None] * S
    active = np.arange(S)
    for t in range(1, cfg.steps + 1):
        loss, grads, ok = sample_loss(active)
        failed = ~ok
        if failed.any():
            for full, retried in zip((loss, grads, ok), sample_loss(active[failed])):
                full[failed] = retried
        for s in active[~ok]:
            status[s], fail_step[s] = UNSTABLE, t
        active, loss, grads = active[ok], loss[ok], grads[ok]
        if not active.size:
            break
        grads[:, ~mask] = 0.0
        new_params, (new_m, new_v) = adam_step(params[active], grads, (m[active], v[active]),
                                               t, cfg)
        params[active], m[active], v[active] = new_params, new_m, new_v
        for s, value in zip(active, loss.tolist()):
            history[s].append(value)
        if cfg.converge_tol > 0:
            done = loss < cfg.converge_tol
            for s in active[done]:
                status[s] = CONVERGED
            active = active[~done]
            if not active.size:
                break
    wall = time.perf_counter() - t0
    return [TrainReport(params=params[s].copy(), loss_history=history[s], status=status[s],
                        wall_time=wall, fail_step=fail_step[s]) for s in range(S)]


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
    """Worst relative disagreement and its first index, (0.0, -1) if none.
    Entries where both sides are below 1e-9 in magnitude agree exactly (0/0
    -> 0); an entry not finite on either side is error inf."""
    a, f = np.abs(analytic), np.abs(fd)
    with np.errstate(all="ignore"):
        err = np.abs(analytic - fd) / np.maximum(a, f)
    err[(a < 1e-9) & (f < 1e-9)] = 0.0
    err[~(np.isfinite(analytic) & np.isfinite(fd))] = np.inf
    idx = int(np.argmax(err))
    return (float(err[idx]), idx) if err[idx] > 0.0 else (0.0, -1)


def _fd_gradient(h: HybridSystem, loss_grads, inputs, eps: float = 1e-5) -> np.ndarray:
    """Central differences of the loss ``loss_grads(h, *inputs)`` in every
    parameter of ``h``'s branch.  Copy k < P of the parameters has entry k
    raised by eps and copy P + k has it lowered; the 2P copies go through
    ``loss_grads`` as (S, P) blocks of up to BLOCK_SEEDS, each copy's loss
    the same float as it would be alone."""
    # eps trades O(eps^2) truncation against roundoff ~ulp(loss)/eps; at 1e-5
    # both stay below the check tolerances even for near-zero gradient entries.
    params = h.branch.params
    P = params.size
    shifted = np.concatenate([params + eps, params - eps])
    stacked = [np.repeat(x[None], BLOCK_SEEDS, axis=0) for x in inputs]
    loss = np.empty(2 * P)
    for lo in range(0, 2 * P, BLOCK_SEEDS):
        k = np.arange(lo, min(lo + BLOCK_SEEDS, 2 * P))
        block = np.tile(params, (len(k), 1))
        block[np.arange(len(k)), k % P] = shifted[k]
        probe = replace(h, branch=ResidualBranch(h.branch.arch, block))
        loss[k], _, ok = loss_grads(probe, *(x[: len(k)] for x in stacked))
        if not ok.all():
            raise DivergenceError("a finite-difference probe diverged")
    return (loss[:P] - loss[P:]) / (2.0 * eps)


def verify_gradients(branch, system: HybridSystem, n_points: int = 5,
                     tolerance: float = 1e-4, bptt_tolerance: float = 1e-3,
                     horizon: int = 5, seed: int = 0) -> GradCheckReport:
    """Pre-flight check: analytic vs central-difference gradients on both
    loss paths, over probe transitions rolled out from the known part alone
    (so an all-zero branch agrees bitwise on both sides)."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not (0 < tolerance < np.inf and 0 < bptt_tolerance < np.inf):
        raise ValueError("gradient check tolerances must be finite and positive")
    rng = stream(seed, "gradcheck")
    ics = rng.uniform(-1.5, 1.5, size=(n_points, 2))
    # A zero-weight linear branch outputs exactly 0.0: the known part alone.
    zero = ResidualBranch(MlpArch((2, 1)), np.zeros(3))
    probe = HybridSystem(system.spec, zero, system.dt, system.integrator, system.scale)
    path = rollout(probe, ics, horizon)

    h = HybridSystem(system.spec, branch, system.dt, system.integrator, system.scale)
    errors = []
    for loss_grads, inputs in ((tf_loss_grads, (path[:, 0], path[:, 1])),
                               (bptt_grads_arrays, (path[:, 0], path[:, 1:]))):
        _, analytic, _ = loss_grads(h, *inputs)
        errors.append(_max_rel_error(analytic, _fd_gradient(h, loss_grads, inputs)))
    (tf_err, tf_idx), (bp_err, bp_idx) = errors
    worst_index = tf_idx if tf_err >= bp_err else bp_idx
    return GradCheckReport(tf_err, bp_err, worst_index, tolerance, bptt_tolerance)
