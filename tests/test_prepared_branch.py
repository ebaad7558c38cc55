"""The prepared branch against the per-call path it replaced.

``netcore.PreparedBranch`` builds the layer views, each KAN layer's scaled
weight matrix and the gradient-buffer views once per loss or rollout call,
and its backward pass adds straight into the loss's gradient buffer.  The
reference below is the per-call path: every forward and backward rebuilds
the views and the weight matrix from the flat vectors, every backward
returns a fresh zero-initialized gradient, and ``step_vjp`` adds that into
the loss's buffer.  Both do the same arithmetic in the same order, so losses
and gradients must agree bit for bit.
"""

import numpy as np
import pytest
from conftest import with_params

from residual_lab import netcore
from residual_lab.dynamics import EULER, RK4, duffing, generate_dataset, vanderpol
from residual_lab.evaluation import GridSpec, sample_surface
from residual_lab.harness import ExperimentConfig, resolve_arch
from residual_lab.hybridcell import (
    HybridSystem,
    OracleResidual,
    bptt_grads_arrays,
    rollout,
    step_batch,
    tf_loss_grads,
    transitions_of,
    windows_of,
)
from residual_lab.netcore import (
    KanArch,
    _kan_layers,
    _mlp_layers,
    _silu,
    add_l1_gradient,
    l1_penalty,
    new_branch,
)
from residual_lab.splines import basis_and_derivative, scatter_to_dense

CONFIGS = ("A", "B", "C", "G", "kan-deep", "mlp-small", "oracle")
HORIZON = 10


def scaled_weights(coef, scale):
    """W[i M + m, o] = scale[i, o] coef[i, o, m], rebuilt on every call."""
    n_in, n_out, M = coef.shape
    return (scale[:, :, None] * coef).transpose(0, 2, 1).reshape(n_in * M, n_out)


def reference_forward(branch, xn, vn):
    """Per-call forward: views and weight matrices rebuilt from the flat vector."""
    U = np.stack([np.atleast_1d(xn), np.atleast_1d(vn)], axis=1).astype(float)
    layers = []
    if isinstance(branch.arch, KanArch):
        spec = branch.arch.spline
        lo, hi = spec.domain
        M = spec.n_basis
        for coef, base, scale in _kan_layers(branch.arch, branch.params):
            B, dB, first = basis_and_derivative(spec, np.minimum(np.maximum(U, lo), hi))
            dense = scatter_to_dense(B, first, M)
            sig, silu = _silu(U)
            layers.append({"U": U, "sig": sig, "silu": silu, "dense": dense, "dB": dB,
                           "first": first, "mask": (U >= lo) & (U <= hi)})
            U = silu @ base + dense.reshape(len(U), -1) @ scaled_weights(coef, scale)
    else:
        mlp = _mlp_layers(branch.arch, branch.params)
        for li, (W, b) in enumerate(mlp):
            Z = U @ W + b
            layers.append({"U": U, "Z": Z})
            U = np.maximum(Z, 0.0) if li < len(mlp) - 1 else Z
    return U[:, 0], layers


def reference_backward(branch, cache, upstream):
    """Per-call backward: a fresh zero gradient and a second view build."""
    Wy = np.asarray(upstream, dtype=float)[:, None]
    grads = np.zeros_like(branch.params)
    if isinstance(branch.arch, KanArch):
        views = _kan_layers(branch.arch, branch.params)
        gviews = _kan_layers(branch.arch, grads)
        for li in range(len(views) - 1, -1, -1):
            (coef, base, scale), (gcoef, gbase, gscale), c = views[li], gviews[li], cache[li]
            n_in, n_out, M = coef.shape
            gbase += c["silu"].T @ Wy
            gsum = c["dense"].reshape(len(Wy), n_in * M).T @ Wy
            gsum = gsum.reshape(n_in, M, n_out).transpose(0, 2, 1)
            gcoef += scale[:, :, None] * gsum
            gscale += (coef * gsum).sum(-1)
            dsilu = c["sig"] * (1.0 + c["U"] * (1.0 - c["sig"]))
            ddense = scatter_to_dense(c["dB"], c["first"], M)
            W = scaled_weights(coef, scale).reshape(n_in, M, n_out)
            dspl = (ddense.transpose(1, 0, 2) @ W).transpose(1, 0, 2)
            Wy = dsilu * (Wy @ base.T) + c["mask"] * np.einsum("nio,no->ni", dspl, Wy)
    else:
        views = _mlp_layers(branch.arch, branch.params)
        gviews = _mlp_layers(branch.arch, grads)
        for li in range(len(views) - 1, -1, -1):
            (W, _), (gW, gb), c = views[li], gviews[li], cache[li]
            Wz = Wy if li == len(views) - 1 else Wy * (c["Z"] > 0)
            gW += c["U"].T @ Wz
            gb += Wz.sum(axis=0)
            Wy = Wz @ W.T
    return grads, (Wy[:, 0].copy(), Wy[:, 1].copy())


class PerCallBranch:
    """A ``ResidualBranch`` wearing the cell's branch interface directly."""

    def __init__(self, branch):
        self.branch, self.params = branch, branch.params

    def eval_batch(self, xn, vn):
        return reference_forward(self.branch, xn, vn)

    def combined_vjp(self, cache, upstream):
        return reference_backward(self.branch, cache, upstream)

    def l1_value(self):
        return l1_penalty(self.branch)

    def l1_grad_into(self, grads):
        add_l1_gradient(self.branch, grads)


def reference_step_vjp(h, cache, lx, lv, grads):
    """Per-call adjoint step: a closure per stage, array partials of the
    known part, and each stage's fresh gradient added into ``grads``."""
    dt = h.dt

    def stage_adjoint(stage, wx, wv):
        X, V, bc = stage
        g, (dxn, dvn) = h.branch.combined_vjp(bc, wv)
        if g.size:
            grads[...] += g
        kx, kv = -np.ones_like(X), np.zeros_like(X)
        return wv * kx + dxn / h.scale, wx + wv * kv + dvn / h.scale

    if h.integrator == EULER:
        sX, sV = stage_adjoint(cache[0], lx * dt, lv * dt)
        return lx + sX, lv + sV
    w6, w3 = dt / 6.0, dt / 3.0
    ax, av = lx.copy(), lv.copy()
    l4x, l4v = stage_adjoint(cache[3], lx * w6, lv * w6)
    ax += l4x
    av += l4v
    l3x, l3v = stage_adjoint(cache[2], lx * w3 + dt * l4x, lv * w3 + dt * l4v)
    ax += l3x
    av += l3v
    l2x, l2v = stage_adjoint(cache[1], lx * w3 + 0.5 * dt * l3x, lv * w3 + 0.5 * dt * l3v)
    ax += l2x
    av += l2v
    l1x, l1v = stage_adjoint(cache[0], lx * w6 + 0.5 * dt * l2x, lv * w6 + 0.5 * dt * l2v)
    return ax + l1x, av + l1v


def reference_tf_loss_grads(h, s0, s1):
    n = s0.shape[0]
    XP, VP, cache = step_batch(h, s0[:, 0], s0[:, 1], np.ones((), dtype=bool))
    dx, dv = XP - s1[:, 0], VP - s1[:, 1]
    loss = float((dx ** 2 + dv ** 2).mean()) + h.branch.l1_value()
    grads = np.zeros_like(h.branch.params)
    reference_step_vjp(h, cache, (2.0 / n) * dx, (2.0 / n) * dv, grads)
    h.branch.l1_grad_into(grads)
    return loss, grads


def reference_bptt_grads(h, starts, targets):
    n, horizon = targets.shape[:2]
    X, V = starts[:, 0], starts[:, 1]
    caches, diffs, total = [], [], 0.0
    for t in range(horizon):
        X, V, cache = step_batch(h, X, V, np.ones((), dtype=bool))
        dx, dv = X - targets[:, t, 0], V - targets[:, t, 1]
        total += float((dx ** 2 + dv ** 2).sum())
        caches.append(cache)
        diffs.append((dx, dv))
    norm = n * horizon
    loss = total / norm + h.branch.l1_value()
    grads = np.zeros_like(h.branch.params)
    lx, lv = np.zeros(n), np.zeros(n)
    for t in range(horizon - 1, -1, -1):
        lx = lx + (2.0 / norm) * diffs[t][0]
        lv = lv + (2.0 / norm) * diffs[t][1]
        lx, lv = reference_step_vjp(h, caches[t], lx, lv, grads)
    h.branch.l1_grad_into(grads)
    return loss, grads


@pytest.fixture(scope="module")
def datasets():
    return {spec.kind: generate_dataset(spec, 4, 1, 0.01, 200, seed=2)
            for spec in (duffing(), vanderpol())}


def systems(config, spec, integrator=RK4):
    """(system under test, per-call reference system) for one config."""
    if config == "oracle":
        branch = OracleResidual(spec, 2.5)
        return (HybridSystem(spec, branch, 0.01, integrator),
                HybridSystem(spec, branch, 0.01, integrator))
    arch, _ = resolve_arch(ExperimentConfig(config=config))
    branch = new_branch(arch, seed=1)
    return (HybridSystem(spec, branch, 0.01, integrator),
            HybridSystem(spec, PerCallBranch(branch), 0.01, integrator))


def batch(pair, n):
    idx = np.random.default_rng(n).choice(len(pair[0]), size=n, replace=False)
    return pair[0][idx], pair[1][idx]


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("system", ["duffing", "vanderpol"])
def test_tf_loss_and_gradient_match_per_call_path(datasets, system, config, n):
    ds = datasets[system]
    s0, s1 = batch(transitions_of(ds.train), n)
    for integrator in (RK4, EULER):
        h, ref = systems(config, duffing() if system == "duffing" else vanderpol(),
                         integrator)
        loss, grads, _ = tf_loss_grads(h, s0, s1)
        ref_loss, ref_grads = reference_tf_loss_grads(ref, s0, s1)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("system", ["duffing", "vanderpol"])
def test_bptt_loss_and_gradient_match_per_call_path(datasets, system, config, n):
    ds = datasets[system]
    starts, targets = batch(windows_of(ds.train, HORIZON), n)
    h, ref = systems(config, duffing() if system == "duffing" else vanderpol())
    loss, grads, _ = bptt_grads_arrays(h, starts, targets)
    ref_loss, ref_grads = reference_bptt_grads(ref, starts, targets)
    assert loss == ref_loss
    assert np.array_equal(grads, ref_grads)
    if config != "oracle":
        assert np.abs(grads).max() > 0


def reference_rollout(h, starts, n):
    states, ok = [starts], np.ones((), dtype=bool)
    for _ in range(n):
        X, V, _ = step_batch(h, states[-1][:, 0], states[-1][:, 1], ok)
        states.append(np.stack([X, V], axis=1))
    assert ok
    return np.stack(states, axis=1)


@pytest.mark.parametrize("config", CONFIGS)
def test_forward_only_paths_match_per_call_path(datasets, config):
    h, ref = systems(config, vanderpol())
    starts = datasets["vanderpol"].test[:, 0]
    assert np.array_equal(rollout(h, starts, 50), reference_rollout(ref, starts, 50))
    X, V = np.meshgrid(np.linspace(-2.5, 2.5, 7), np.linspace(-2.5, 2.5, 5), indexing="ij")
    surface = sample_surface(h.branch, vanderpol(), GridSpec(nx=7, nv=5))
    want, _ = ref.branch.eval_batch((X / 2.5).ravel(), (V / 2.5).ravel())
    assert np.array_equal(surface.values.ravel(), want)


@pytest.mark.parametrize("config", ["A", "kan-deep", "mlp-small"])
def test_plan_does_not_outlive_an_in_place_write(datasets, config):
    # train and the finite-difference check write branch.params in place
    # between loss calls; the next call must see the new values.
    starts, targets = batch(windows_of(datasets["duffing"].train, HORIZON), 16)
    h, _ = systems(config, duffing())
    first = bptt_grads_arrays(h, starts, targets)[1]
    h.branch.params[:] += 0.01 * np.sign(first)
    loss, grads, _ = bptt_grads_arrays(h, starts, targets)
    fresh = HybridSystem(duffing(), with_params(h.branch, h.branch.params), 0.01)
    fresh_loss, fresh_grads, _ = bptt_grads_arrays(fresh, starts, targets)
    assert loss == fresh_loss
    assert np.array_equal(grads, fresh_grads)
    assert not np.array_equal(grads, first)


@pytest.mark.parametrize("config,views", [("A", "_kan_layers"), ("kan-deep", "_kan_layers"),
                                          ("mlp-small", "_mlp_layers")])
def test_one_plan_per_call(monkeypatch, datasets, config, views):
    # One plan per loss or rollout: the parameter vector is viewed once, and
    # the gradient buffer once when there is one.
    h, _ = systems(config, duffing())
    seen = []
    original = getattr(netcore, views)

    def counted(arch, vector):
        seen.append(vector)
        return original(arch, vector)

    monkeypatch.setattr(netcore, views, counted)
    starts, targets = batch(windows_of(datasets["duffing"].train, HORIZON), 16)
    _, grads, _ = bptt_grads_arrays(h, starts, targets)
    assert len(seen) == 2
    assert seen[0] is h.branch.params and seen[1] is grads
    seen.clear()
    rollout(h, starts, HORIZON)
    assert len(seen) == 1 and seen[0] is h.branch.params
