"""The prepared branch against the per-call path it replaced.

``netcore.PreparedBranch`` builds the layer views, each KAN layer's scaled
weight matrix and the gradient-buffer views once per loss or rollout call,
and its backward pass adds straight into the loss's gradient buffer.  The
reference below is the per-call path: every forward and backward rebuilds
the views and the weight matrix from the flat vectors, every KAN backward
returns a fresh zero-initialized gradient, and ``step_vjp`` adds that into
the loss's buffer.  An MLP backward keeps each stage's layer inputs and
output adjoints instead, and once a step's stages are all reversed, its
parameter gradient is one GEMM per layer over them, stacked in stage order,
and is added into the buffer.  Both do the same arithmetic in the same
order, so losses and gradients must agree bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import local_basis, scatter_to_dense, with_params

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
    ResidualBranch,
    _kan_layers,
    _mlp_layers,
    _silu,
    add_l1_gradient,
    forward_batch,
    l1_penalty,
    new_branch,
)
from residual_lab.splines import SplineSpec, knot_vector
from residual_lab.trainer import TrainConfig, train_block

CONFIGS = ("A", "B", "C", "G", "kan-deep", "mlp-small", "oracle")
HORIZON = 10


def scaled_weights(coef, scale):
    """W[i M + m, o] = scale[i, o] coef[i, o, m], rebuilt on every call."""
    n_in, n_out, M = coef.shape
    return (scale[:, :, None] * coef).transpose(0, 2, 1).reshape(n_in * M, n_out)


def reference_forward(branch, U):
    """Per-call forward: views and weight matrices rebuilt from the flat vector."""
    U = np.asarray(U, dtype=float)
    layers = []
    if isinstance(branch.arch, KanArch):
        spec = branch.arch.spline
        lo, hi = spec.domain
        M = spec.n_basis
        for coef, base, scale in _kan_layers(branch.arch, branch.params):
            B, dB, first = local_basis(spec, np.minimum(np.maximum(U, lo), hi))
            dense = scatter_to_dense(B, first, M)
            sig, silu = _silu(U)
            layers.append({"U": U, "sig": sig, "silu": silu, "dense": dense, "dB": dB,
                           "first": first, "mask": (U >= lo) & (U <= hi)})
            U = silu @ base + dense.reshape(len(U), -1) @ scaled_weights(coef, scale)
    else:
        mlp = _mlp_layers(branch.arch, branch.params)
        for li, Wb in enumerate(mlp):
            U = np.concatenate([U, np.ones((len(U), 1))], axis=1)
            Z = U @ Wb
            layers.append({"U": U, "Z": Z})
            U = np.maximum(Z, 0.0) if li < len(mlp) - 1 else Z
    return U[:, 0], layers


def reference_backward(branch, cache, upstream, operands):
    """Per-call backward: a fresh zero gradient and a second view build.  An
    MLP's gradient stays zero: each layer's (input, output adjoint) pair is
    appended to ``operands`` for the step's one GEMM."""
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
        pairs = [None] * len(views)
        for li in range(len(views) - 1, -1, -1):
            Wb, c = views[li], cache[li]
            Wz = Wy if li == len(views) - 1 else Wy * (c["Z"] > 0)
            pairs[li] = (c["U"], Wz)
            # A contiguous W^T, as the plan holds it: on one row, a GEMV on
            # the transposed view rounds differently.
            Wy = Wz @ np.ascontiguousarray(Wb[:-1].T)
        operands.append(pairs)
    return grads, Wy.copy()


def add_step_gradient(branch, operands, grads):
    """An MLP step's parameter gradient: per layer, the stages' inputs and
    output adjoints stacked in stage order (``operands`` holds them last
    stage first), one GEMM, one add."""
    if operands:
        gviews = _mlp_layers(branch.arch, grads)
        for li, gWb in enumerate(gviews):
            U = np.concatenate([pairs[li][0] for pairs in operands[::-1]])
            Wz = np.concatenate([pairs[li][1] for pairs in operands[::-1]])
            gWb += U.T @ Wz
        operands.clear()


class PerCallBranch:
    """A ``ResidualBranch`` wearing the cell's branch interface directly."""

    def __init__(self, branch):
        self.branch, self.params, self.operands = branch, branch.params, []

    def eval_batch(self, U):
        return reference_forward(self.branch, U)

    def combined_vjp(self, cache, upstream):
        """The input adjoint; the call's fresh parameter gradient is left in
        ``fresh`` for the adjoint step to add into the loss's buffer."""
        self.fresh, dU = reference_backward(self.branch, cache, upstream, self.operands)
        return dU

    def end_step(self, grads):
        add_step_gradient(self.branch, self.operands, grads)

    def l1_value(self):
        return l1_penalty(self.branch)

    def l1_grad_into(self, grads):
        add_l1_gradient(self.branch, grads)


def reference_step_vjp(h, cache, L, grads):
    """Per-call adjoint step: a closure per stage, array partials of the
    known part, each stage's fresh gradient added into ``grads``, and an
    MLP's gradient added once the step's last stage is reversed."""
    A = reference_stage_sweep(h, cache, L, grads)
    if isinstance(h.branch, PerCallBranch):
        h.branch.end_step(grads)
    return A


def reference_stage_sweep(h, cache, L, grads):
    dt = h.dt

    def stage_adjoint(stage, W):
        Z, bc = stage
        wx, wv = W[:, 0], W[:, 1]
        dU = h.branch.combined_vjp(bc, wv)
        if isinstance(h.branch, PerCallBranch):
            grads[...] += h.branch.fresh
        kx, kv = -np.ones_like(wx), np.zeros_like(wx)
        return np.stack([wv * kx + dU[:, 0] / h.scale,
                         wx + wv * kv + dU[:, 1] / h.scale], axis=1)

    if h.integrator == EULER:
        return L + stage_adjoint(cache[0], L * dt)
    w6, w3 = dt / 6.0, dt / 3.0
    A = L.copy()
    l4 = stage_adjoint(cache[3], L * w6)
    A += l4
    l3 = stage_adjoint(cache[2], L * w3 + dt * l4)
    A += l3
    l2 = stage_adjoint(cache[1], L * w3 + 0.5 * dt * l3)
    A += l2
    l1 = stage_adjoint(cache[0], L * w6 + 0.5 * dt * l2)
    return A + l1


def reference_tf_loss_grads(h, s0, s1):
    n = s0.shape[0]
    ZP, cache = step_batch(h, s0, np.ones((), dtype=bool))
    D = ZP - s1
    loss = float((D[:, 0] ** 2 + D[:, 1] ** 2).mean()) + h.branch.l1_value()
    grads = np.zeros_like(h.branch.params)
    reference_step_vjp(h, cache, (2.0 / n) * D, grads)
    h.branch.l1_grad_into(grads)
    return loss, grads


def reference_bptt_grads(h, starts, targets):
    n, horizon = targets.shape[:2]
    Z = starts
    caches, diffs, total = [], [], 0.0
    for t in range(horizon):
        Z, cache = step_batch(h, Z, np.ones((), dtype=bool))
        D = Z - targets[:, t]
        total += float((D[:, 0] ** 2 + D[:, 1] ** 2).sum())
        caches.append(cache)
        diffs.append(D)
    norm = n * horizon
    loss = total / norm + h.branch.l1_value()
    grads = np.zeros_like(h.branch.params)
    L = np.zeros((n, 2))
    for t in range(horizon - 1, -1, -1):
        L = reference_step_vjp(h, caches[t], L + (2.0 / norm) * diffs[t], grads)
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
        Z, _ = step_batch(h, states[-1], ok)
        states.append(Z)
    assert ok
    return np.stack(states, axis=1)


@pytest.mark.parametrize("config", CONFIGS)
def test_forward_only_paths_match_per_call_path(datasets, config):
    h, ref = systems(config, vanderpol())
    starts = datasets["vanderpol"].test[:, 0]
    assert np.array_equal(rollout(h, starts, 50), reference_rollout(ref, starts, 50))
    X, V = np.meshgrid(np.linspace(-2.5, 2.5, 7), np.linspace(-2.5, 2.5, 5), indexing="ij")
    surface = sample_surface(h.branch, vanderpol(), GridSpec(nx=7, nv=5))
    want, _ = ref.branch.eval_batch(np.stack([(X / 2.5).ravel(), (V / 2.5).ravel()], axis=1))
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


def per_pass_forward_only(x, U):
    """The forward-only body before plans kept a store: every pass of at
    most ``FORWARD_ROWS`` rows builds fresh arrays for each layer."""
    values = np.empty(U.shape[:-1])
    for a in range(0, U.shape[-2], netcore.FORWARD_ROWS):
        Y = U[..., a : a + netcore.FORWARD_ROWS, :]
        if isinstance(x.arch, KanArch):
            spec = x.arch.spline
            lo, hi = spec.domain
            with np.errstate(over="ignore"):
                for _, base, _, W in x.layers:
                    B, _, first = local_basis(spec, np.minimum(np.maximum(Y, lo), hi))
                    dense = scatter_to_dense(B, first, spec.n_basis)
                    Y = _silu(Y)[1] @ base + dense.reshape(Y.shape[:-1] + (-1,)) @ W
        else:
            for li, Wb in enumerate(x.layers):
                if li:
                    Y = np.maximum(Y, 0.0)
                Y = np.concatenate([Y, np.ones(Y.shape[:-1] + (1,))], -1) @ Wb
        values[..., a : a + netcore.FORWARD_ROWS] = Y[..., 0]
    return values


def awkward_inputs(arch, shape, rng):
    """Normal draws reaching past the spline domain, with NaN, +-0.0, the
    knots and the domain ends planted at random places."""
    U = rng.normal(0.0, 1.5, shape)
    special = [np.nan, 0.0, -0.0]
    if isinstance(arch, KanArch):
        special += list(knot_vector(arch.spline))
    k = min(U.size, len(special))
    U.reshape(-1)[rng.choice(U.size, k, replace=False)] = special[:k]
    return U


def block(config, seeds):
    """The config's branch as a (P,) vector (``seeds`` None) or an (S, P) block."""
    arch, _ = resolve_arch(ExperimentConfig(config=config))
    params = np.stack([new_branch(arch, seed=s).params for s in range(seeds or 1)])
    return ResidualBranch(arch, params if seeds else params[0])


WORKSPACE_CONFIGS = ("A", "B", "G", "kan-deep", "mlp-small")


@pytest.mark.parametrize("seeds", [None, 1, 3])
@pytest.mark.parametrize("config", WORKSPACE_CONFIGS)
def test_workspace_passes_match_per_pass_body(config, seeds):
    # Each plan meets one row count; N = FORWARD_ROWS + 1 and 10^4 take
    # several passes, the last in leading slices of the first pass's arrays.
    branch = block(config, seeds)
    rng = np.random.default_rng(7)
    lead = () if seeds is None else (seeds,)
    for n in (1, 5, netcore.FORWARD_ROWS, netcore.FORWARD_ROWS + 1, 10**4):
        U = awkward_inputs(branch.arch, lead + (n, 2), rng)
        x = branch.prepare()
        got, cache = forward_batch(x, U)
        assert cache == []
        assert got.tobytes() == per_pass_forward_only(x, U).tobytes()


@pytest.mark.parametrize("config", ["A", "G", "kan-deep"])
def test_successive_passes_leave_no_stale_windows(config):
    # One plan, passes of varying size whose inputs sit in other knot
    # intervals each time: a window left over from an earlier pass would
    # add a basis column the fresh plan does not have.
    branch = block(config, None)
    spec = branch.arch.spline
    lo, hi = spec.domain
    h = (hi - lo) / spec.grid_size
    mids = lo + (np.arange(spec.grid_size) + 0.5) * h
    x = branch.prepare()
    for i, n in enumerate([7, 7, 3, 5, 7, 1, 6]):
        U = np.empty((n, 2))
        U[:, 0] = mids[i % spec.grid_size]
        U[:, 1] = mids[-1 - (2 * i) % spec.grid_size]
        U[::2] += 0.1 * h
        got = forward_batch(x, U)[0]
        assert got.tobytes() == forward_batch(branch.prepare(), U)[0].tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_one_plan_across_row_counts_for_every_order(order):
    # The store maps larger arrays for a pass with more rows than it holds
    # and serves smaller ones from leading slices; order 0 has no powers.
    arch = KanArch((2, 3, 2, 1), SplineSpec(4, order, (-1.5, 0.5)))
    branch = new_branch(arch, seed=0)
    rng = np.random.default_rng(order)
    x = branch.prepare()
    for n in (5, 1, 3000, 4, 5):
        U = awkward_inputs(arch, (n, 2), rng)
        assert forward_batch(x, U)[0].tobytes() == per_pass_forward_only(x, U).tobytes()


@pytest.mark.parametrize("n", [5, netcore.FORWARD_ROWS + 1])
@pytest.mark.parametrize("config", ["A", "kan-deep", "mlp-small"])
def test_a_pass_result_survives_the_next_pass(config, n):
    branch = block(config, None)
    rng = np.random.default_rng(3)
    x = branch.prepare()
    first = forward_batch(x, rng.normal(size=(n, 2)))[0]
    kept = first.copy()
    forward_batch(x, rng.normal(size=(n, 2)))
    assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("config", ["A", "kan-deep", "mlp-small"])
def test_one_workspace_per_forward_only_call(monkeypatch, datasets, config):
    # A rollout's steps and a test-set call's FORWARD_ROWS passes share one
    # store; the losses of a training block share the block's store.
    built = []
    original = netcore.BufferStore.__init__

    def counted(store):
        built.append(store)
        original(store)

    monkeypatch.setattr(netcore.BufferStore, "__init__", counted)
    h, _ = systems(config, duffing())
    starts = datasets["duffing"].test[:, 0]
    rollout(h, starts, HORIZON)
    assert len(built) == 1
    Z = np.random.default_rng(0).normal(size=(netcore.FORWARD_ROWS + 7, 2))
    step_batch(h.prepare(), Z, np.ones((), dtype=bool))
    assert len(built) == 2
    cfg = TrainConfig(paradigm="bptt", horizon=5, steps=3, batch_size=4)
    train_block(replace(h, branch=block(config, 2)), [datasets["duffing"]] * 2, cfg, [0, 1])
    assert len(built) == 3
