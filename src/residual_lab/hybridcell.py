"""Hard-constrained recurrent cell: known physics plus a learned residual.

The cell advances the state z = [x, v] by integrating

    dx/dt = v                                  (hard constraint, exact)
    dv/dt = known_vdot(x, v) + R(x/scale, v/scale)

so the branch can only ever model the missing v-dot term.  A state batch
is one (N, 2) array of [x, v] rows, the layout of the datasets.  A branch is
any object with a flat ``params`` array and a ``prepare(grads=None,
store=None, steps=1, stages=1)`` method; ``netcore.ResidualBranch`` and
``OracleResidual`` are the two.  Every loss, rollout and
``HybridSystem.prepare`` call prepares the branch once, for a call of
``steps`` integrator steps of the scheme's ``stages`` stages, and
``step_batch`` and ``step_vjp`` use what that returns through four methods:
``eval_batch(U) -> (values, cache)`` on normalized (..., 2) states U, values
shaped ``U.shape[:-1]``, called once per stage in step and stage order;
``combined_vjp(cache, upstream) -> dU``, the (..., 2) adjoint on U,
called for a step's stages last to first, which adds the parameter
gradient into the ``grads`` buffer given to ``prepare``: a KAN's at every
stage, an MLP's for the whole step at its stage 0; ``l1_value()``; and
``l1_grad_into(grads)``.  The oracle has no parameters, prepares to itself
and ignores the layout.

The cell steps with ``dynamics.rk_step`` and its adjoint reads the same
``dynamics.SCHEMES`` table, so the cell and the data generator share one
scheme.  The BPTT loss on ``windows_of`` windows of an (n, T, 2) array has
an exact reverse-mode gradient through every stage and, via the branch input
jacobian, the state path; teacher forcing is its one-step window.

Everything here is batched over a sample axis; batch size 1 is a batch of
one row, not a separate scalar API.  A branch whose ``params`` is an (S, P)
block of S seeds adds a leading seed axis: states are (S, N, 2), loss inputs
(S, N, ...), and the losses return per-seed losses (S,), gradients (S, P)
and an (S,) ok-mask.  Seed s does exactly the float operations it would do
in a block of its own.  A one-seed (P,) branch drops the axis, and its mask
is 0-d.

Divergence has one policy: ``step_batch`` clears the ``ok`` entry of every
seed whose state leaves ``DIVERGE_BOUND`` or turns non-finite, and raises
nothing, so a diverging seed marks itself and leaves the others of its
block alone.  The losses fold that mask into the one they return;
``rollout`` turns a cleared mask into ``DivergenceError`` with the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DEFAULT_SCALE, RK4, SCHEMES, DivergenceError, OscillatorSpec, rk_step

# A state is divergent once any component is non-finite or exceeds this.
DIVERGE_BOUND = 1.0e6


class OracleResidual:
    """Analytical residual wearing the branch interface (zero parameters).

    Substituting it for a trained branch closes the loop exactly: the hybrid
    cell then integrates the true dynamics, which pins down every loss and
    metric in this package against a known answer.
    """

    def __init__(self, spec: OscillatorSpec, scale: float):
        self.spec = spec
        self.scale = float(scale)
        self.params = np.zeros(0)

    def prepare(self, grads=None, store=None, steps=1, stages=1) -> OracleResidual:
        return self

    def eval_batch(self, U):
        Z = np.asarray(U, dtype=float) * self.scale
        return self.spec.true_residual(Z[..., 0], Z[..., 1]), Z

    def combined_vjp(self, cache, upstream):
        px, pv = self.spec.true_residual_partials(cache[..., 0], cache[..., 1])
        return np.stack((upstream * px, upstream * pv), -1) * self.scale

    def l1_value(self) -> float:
        return 0.0

    def l1_grad_into(self, grads) -> None:
        pass


@dataclass(frozen=True)
class HybridSystem:
    spec: OscillatorSpec
    branch: object
    dt: float
    integrator: str = RK4
    scale: float = DEFAULT_SCALE

    def __post_init__(self):
        if self.integrator not in SCHEMES:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    def prepare(self, grads: np.ndarray | None = None, store=None,
                steps: int = 1) -> HybridSystem:
        """This system with its branch prepared for one call (see
        ``netcore.PreparedBranch``) of ``steps`` integrator steps, each of
        the scheme's stages; ``step_batch`` and ``step_vjp`` take only
        prepared systems."""
        stages = len(SCHEMES[self.integrator][1])
        return replace(self, branch=self.branch.prepare(grads, store, steps, stages))


def oracle_system(spec: OscillatorSpec, dt: float, integrator: str = RK4,
                  scale: float = DEFAULT_SCALE) -> HybridSystem:
    return HybridSystem(spec, OracleResidual(spec, scale), dt, integrator, scale)


def step_batch(h: HybridSystem, Z, ok):
    """One integrator step over a batch of ``[x, v]`` states; returns (Z', cache).

    ``Z`` is (N, 2), or (S, N, 2) for a system prepared from an (S, P)
    block, row s by seed s.  ``ok`` is the per-seed bool mask, shape
    ``Z.shape[:-2]`` (0-d for one seed): the step clears, in place, the
    entry of each seed with a row past ``DIVERGE_BOUND`` or non-finite, and
    raises nothing.  The cache is ``rk_step``'s stages, each stage's input
    state and branch cache, which is exactly what ``step_vjp`` consumes.
    """
    def vdot(Z):
        vals, cache = h.branch.eval_batch(Z / h.scale)
        return h.spec.known_vdot(Z[..., 0], Z[..., 1]) + vals, cache

    ZP, cache = rk_step(vdot, Z, h.dt, h.integrator)
    # NaN and inf fail the comparison, so this also clears non-finite rows.
    ok &= (np.abs(ZP) <= DIVERGE_BOUND).all((-2, -1))
    return ZP, cache


def step_vjp(h: HybridSystem, cache, L):
    """Reverse one step: given the adjoint ``L`` on Z', shaped like it, add
    the branch parameter gradients into the buffer ``h.branch`` was
    prepared with and return the adjoint on Z.

    Stages run last to first.  Each stage's slope [v, F], F = known_vdot +
    R, takes the adjoint W: the step's adjoint times the stage's weight plus
    the adjoint that flowed into the next stage's state times its feed, both
    from ``SCHEMES``.  Its v column feeds F, and its x column the slope's x
    entry, the stage's v.
    """
    dt, branch, spec, scale = h.dt, h.branch, h.spec, h.scale
    feeds, weights, div = SCHEMES[h.integrator]
    weights, feeds = [w * (dt / div) for w in weights], [f * dt for f in feeds]
    A, S = L, None
    for i in range(len(cache) - 1, -1, -1):
        Z, bc = cache[i]
        W = L * weights[i] if S is None else L * weights[i] + feeds[i] * S
        wx, wv = W[..., 0], W[..., 1]
        dU = branch.combined_vjp(bc, wv) / scale
        kx, kv = spec.known_vdot_partials(Z[..., 0], Z[..., 1])
        S = np.empty(W.shape)
        S[..., 0] = wv * kx + dU[..., 0]
        S[..., 1] = wx + wv * kv + dU[..., 1]
        A = A + S
    return A


def rollout(h: HybridSystem, starts, n: int) -> np.ndarray:
    """Free rollout of W trajectories in lockstep, one forward-only ``step_batch``
    call per time step: (W, 2) starts in, one (W, n + 1, 2) array of states out.
    Raises ``DivergenceError`` with the number of the step that diverged."""
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2 or n < 1:
        raise ValueError("rollout needs (W, 2) start states and n >= 1 steps")
    h = h.prepare()
    ok = np.ones((), dtype=bool)
    out = np.empty((len(starts), n + 1, 2))
    out[:, 0] = Z = starts
    for step in range(1, n + 1):
        Z, _ = step_batch(h, Z, ok)
        if not ok:
            raise DivergenceError(f"state diverged at step {step}", step=step)
        out[:, step] = Z
    return out


def transitions_of(trajectories: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All consecutive state pairs of an (n, T, 2) trajectory array,
    trajectory-major: (S0, S1) each (n (T - 1), 2), possibly views of it."""
    if len(trajectories) == 0:
        raise ValueError("no trajectories")
    return trajectories[:, :-1].reshape(-1, 2), trajectories[:, 1:].reshape(-1, 2)


def windows_of(trajectories: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Every non-overlapping K-step window of each trajectory of an (n, T, 2)
    array in turn: starts (W, 2) and targets (W, K, 2), trajectory-major."""
    if horizon < 1:
        raise ValueError("window horizon must be >= 1")
    n = (trajectories.shape[1] - 1) // horizon
    if len(trajectories) * n == 0:
        raise ValueError("trajectories shorter than one BPTT window")
    starts = trajectories[:, : n * horizon : horizon].reshape(-1, 2)
    return starts, trajectories[:, 1 : n * horizon + 1].reshape(-1, horizon, 2)


def _loss_result(h: HybridSystem, loss, grads, ok):
    """Add the l1 gradient and fold non-finite losses and gradients into
    the per-seed ``ok`` mask."""
    h.branch.l1_grad_into(grads)
    ok &= np.isfinite(loss) & np.isfinite(grads).all(-1)
    return loss, grads, ok


def bptt_grads_arrays(h: HybridSystem, starts: np.ndarray, targets: np.ndarray, store=None):
    """K-step free-rollout loss on (W, 2) starts and (W, K, 2) targets, or on
    (S, W, 2) and (S, W, K, 2) for a system with an (S, P) block, and its
    gradient from the full adjoint sweep back through every step.  A
    network branch lays its stage operands out in ``store`` (a
    ``netcore.BufferStore`` that successive calls may share) or in a fresh one.

    Returns (loss, grads, ok): per seed the loss, the gradient and whether
    every state stayed bounded and both are finite.  A seed that is not ok
    raises nothing; its loss and gradient are not to be used.  Each seed's
    loss is summed step by step, the same float additions whatever the block.
    """
    n, horizon = targets.shape[-3], targets.shape[-2]
    grads = np.zeros_like(h.branch.params)
    ok = np.ones(starts.shape[:-2], dtype=bool)
    h = h.prepare(grads, store, horizon)
    Z, caches, diffs = starts, [], []
    total = np.zeros(ok.shape)
    with np.errstate(all="ignore"):
        for t in range(horizon):
            Z, cache = step_batch(h, Z, ok)
            D = Z - targets[..., t, :]
            total += (D[..., 0] ** 2 + D[..., 1] ** 2).sum(-1)
            caches.append(cache)
            diffs.append(D)
        norm = n * horizon
        loss = total / norm + h.branch.l1_value()

        L = np.zeros(Z.shape)
        for t in range(horizon - 1, -1, -1):
            L = step_vjp(h, caches[t], L + (2.0 / norm) * diffs[t])
        return _loss_result(h, loss, grads, ok)


# The window loss under a private name: perfbench's tracer rebinds the
# public one in this module, which would count each teacher-forcing loss twice.
_window_loss_grads = bptt_grads_arrays


def tf_loss_grads(h: HybridSystem, s0: np.ndarray, s1: np.ndarray):
    """Teacher-forcing (loss, grads, ok) on (N, 2) ``transitions_of`` pairs,
    or (S, N, 2) for an (S, P) block: the window loss of one-step windows."""
    return _window_loss_grads(h, s0, s1[..., None, :])
