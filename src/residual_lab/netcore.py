"""Residual branch families over the normalized state [xn, vn] -> scalar.

Two families share one flat-parameter interface:

* ``KanArch`` — every edge (input i -> unit j) of every layer carries a
  learnable univariate function: ``base_scale * silu(u) + spline_scale *
  sum_c coef_c * basis_c(clamp(u))``.  Units sum their incoming edges; there
  are no node biases.  Inputs are clamped to the spline domain for the basis
  but passed unclamped to the silu base term, which keeps the forward total
  and gradients alive during early-training excursions.
* ``MlpArch`` — standard affine layers, ReLU on hidden units, identity output.

Flat parameter layout, in layer order:

* KAN layer (n_in -> n_out, M = grid_size + order basis functions):
  spline coefficients (n_in, n_out, M) C-order, then base scales (n_in,
  n_out), then spline scales (n_in, n_out).
* MLP layer: weights (n_in, n_out) C-order, then biases (n_out,), so the
  pair reads as one (n_in + 1, n_out) block [W; b] with the bias as its
  last row.

A KAN layer is one GEMM over its spline basis, the basis-expansion form of
Liu et al.'s KAN (2024).  ``splines.basis_and_derivative`` returns the K =
order + 1 nonzero basis functions of each input and the first nonzero
column, and ``splines.scatter_windows`` places them in a dense (N, n_in, M)
basis.  With the spline scale folded into the coefficients, W[i M + m, o] =
spline_scale[i, o] coef[i, o, m], a layer's values are ``silu(U) @ base_scale
+ dense @ W``; in a loss the dense basis derivative times W, one GEMM per
input, gives the edge splines' input slopes.  Backward sums the coefficient
gradient from the cached dense basis, one GEMM per seed, and takes the spline
scale's gradient from it: the edge spline is sum_m coef_m B_m.

An MLP layer is one GEMM too.  Every layer input carries a trailing ones
column, so ``Z = U @ [W; b]`` adds the bias in the product, and ``U^T @ Wz``
gives the weight and bias gradients in one GEMM.  A loss adds them once per
integrator step: once a step's last reversed stage, stage 0, is done, each
layer's gradient is one GEMM over the inputs and output adjoints of all the
step's stages and one add, with no copy; the input adjoint multiplies by a
contiguous W^T the plan builds once.

The cell does not call a ``ResidualBranch`` directly.  Each loss, rollout
or surface call first turns it into a ``PreparedBranch`` with
``branch.prepare(grads)``, which does the per-parameter work once for every
RK4 stage of that call: it holds the per-layer views of ``params``, for a
KAN each layer's scaled weight matrix W, and, for a loss, the per-layer
views of the caller's gradient buffer ``grads``.  The plan is built fresh per
call and never cached on the branch, because training writes ``params`` in
place between calls.

Each family has one forward body, which loss and forward-only plans share,
and every pass lays its arrays out in a ``BufferStore``.  A loss plan
prepared for ``steps`` integrator steps of ``stages`` stages has that many
slots in its store, and its c-th forward call, stage j of step t for (t, j)
= divmod(c, stages), runs in slot c, whose arrays are the call's cache.  A
training block hands all its losses one store, and any other loss call gets
a fresh one through the same code.  A forward-only plan (``grads=None``)
serves ``rollout``, ``test_mse``, ``sample_surface`` and the probe rollout
of the gradient check, thousands of passes for one rollout: it makes a
fresh store, runs every pass in its one slot and keeps no cache.  The views
of each slot are built at the first pass of each row count and kept, so a
pass looks up no array in the store.  The float operations and their
operands are those of fresh arrays, so the values are the same bytes.

A KAN slot holds each layer's cache, laid out slot-major so that every slot
is contiguous; the basis scratch (clamped inputs, basis powers with their
ones column written once, local product, row starts and, in a loss, the dB
scatter) is shared by all slots and layers, and a forward-only plan's
layers share its slot too.  Each pass zeroes its slot's dense basis before
it writes its windows, so no window of an earlier pass or call is left.  An
MLP slot holds each layer's input, its ones column written once, laid out
(.., steps, stages, N, n_in + 1), and a loss also keeps each stage's output
adjoints (.., stages, N, n_out), so that a step's stages of each are one
matrix per seed.

A branch's ``params`` may also be an (S, P) block: S seeds of one
architecture, evaluated together.  Every layer view then keeps a leading S
axis, the inputs are (S, N, 2), and each contraction is a stack of per-seed
ones (stacked ``matmul``, ``einsum`` over the leading axes), so seed s gets
the same float operations as in a block of its own.  A (P,) vector is the
one-seed case with no seed axis at all.

``forward_batch(x, U)`` takes a prepared branch and (N, 2) normalized [xn,
vn] rows U and returns the values and one cache dict per layer, which
``backward_batch(x, cache, upstream, grads)`` consumes without re-evaluating
anything.  Backward adds the parameter gradient into ``grads``, the buffer
``x`` was prepared with, and returns that buffer with the (N, 2) input
adjoint, so the stages of one loss accumulate into one array with no
per-call zero buffer: a KAN's stage by stage, an MLP's step by step.  A
forward-only plan cannot run backward: its cache is ``[]``, it computes no
basis derivative, and it runs at most ``FORWARD_ROWS`` rows per pass, so a
large surface grid never holds its whole dense basis.  A KAN layer in a
loss caches backward's operands and nothing else, so forward also computes
the two input slopes: ``dense`` (N, n_in, M) dense basis, ``dspl`` (N,
n_in, n_out) scaled edge spline u-slopes, ``silu``/``dsilu`` (N, n_in) base
term and its u-slope, ``mask`` (N, n_in) inputs inside the domain.  MLP
layer cache: ``U``, the layer input with its ones column, ``Wz``, the slot
backward writes its output adjoint into, and ``step``, for stage 0 only, the
step's inputs (transposed) and output adjoints as one matrix each; backward
reads a hidden layer's ReLU mask off the next layer's input.  With a seed
axis, every cache array has a leading S.

All gradients are exact reverse-mode; finite-difference tests pin them down.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import stream
from .splines import (
    SplineSpec,
    basis_and_derivative,
    fit_coefficients,
    scatter_windows,
    window_view,
)

# The family names: a checkpoint header's kind field and ``harness.ArchEntry.kind``.
KAN = "kan"
MLP = "mlp"

_FLOAT_FMT = "%.17g"
# First field of a checkpoint header; load_branch rejects any other.
CHECKPOINT_VERSION = "v2"
# Rows per pass of a forward-only call: bounds the store a plan builds,
# whose KAN dense bases hold one pass of each layer.
FORWARD_ROWS = 2048


def _check_widths(widths):
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise ValueError("widths needs at least input and output entries")
    if widths[0] != 2 or widths[-1] != 1:
        raise ValueError(f"residual branches map (xn, vn) -> scalar; got widths {widths}")
    if any(w < 1 for w in widths):
        raise ValueError(f"layer widths must be positive: {widths}")
    return widths


@dataclass(frozen=True)
class KanArch:
    widths: tuple[int, ...]
    spline: SplineSpec = SplineSpec()
    base_blend: bool = True
    l1_weight: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "widths", _check_widths(self.widths))
        if self.l1_weight < 0:
            raise ValueError("l1_weight must be nonnegative")


@dataclass(frozen=True)
class MlpArch:
    widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", _check_widths(self.widths))


Arch = Union[KanArch, MlpArch]


def param_count(arch: Arch) -> int:
    pairs = zip(arch.widths[:-1], arch.widths[1:])
    if isinstance(arch, KanArch):
        per_edge = arch.spline.n_basis + 2
        return sum(n_in * n_out * per_edge for n_in, n_out in pairs)
    return sum((n_in + 1) * n_out for n_in, n_out in pairs)


def _kan_layers(arch: KanArch, params: np.ndarray):
    """Per-layer views (coef, base_scale, spline_scale) into the flat vector,
    or into each row of an (S, P) block, with the leading S axis kept."""
    M = arch.spline.n_basis
    lead = params.shape[:-1]
    out, off = [], 0
    for n_in, n_out in zip(arch.widths[:-1], arch.widths[1:]):
        e = n_in * n_out
        coef = params[..., off : off + e * M].reshape(lead + (n_in, n_out, M))
        base = params[..., off + e * M : off + e * M + e].reshape(lead + (n_in, n_out))
        scale = params[..., off + e * (M + 1) : off + e * (M + 2)].reshape(lead + (n_in, n_out))
        out.append((coef, base, scale))
        off += e * (M + 2)
    return out


def _mlp_layers(arch: MlpArch, params: np.ndarray):
    """Per-layer (n_in + 1, n_out) views [W; b]: weights, then the bias row."""
    lead = params.shape[:-1]
    out, off = [], 0
    for n_in, n_out in zip(arch.widths[:-1], arch.widths[1:]):
        out.append(params[..., off : off + (n_in + 1) * n_out].reshape(lead + (n_in + 1, n_out)))
        off += (n_in + 1) * n_out
    return out


@dataclass
class ResidualBranch:
    """A branch family plus its flat parameter vector, or an (S, P) block of
    S seeds' vectors that every call evaluates in lockstep."""

    arch: Arch
    params: np.ndarray

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if self.params.ndim not in (1, 2) or self.params.shape[-1] != param_count(self.arch):
            raise ValueError(
                f"params length {self.params.shape} != param_count {param_count(self.arch)}"
            )

    def prepare(self, grads: np.ndarray | None = None, store: BufferStore | None = None,
                steps: int = 1, stages: int = 1) -> PreparedBranch:
        """The branch as the hybrid cell uses it for one loss, rollout or
        surface call; ``grads`` is the buffer its backward passes add into.
        A loss lays out ``steps`` integrator steps of ``stages`` stages in
        ``store``, or in a fresh one."""
        return PreparedBranch(self, grads, store, steps, stages)


class BufferStore:
    """Memory that prepared branches lay their per-pass arrays in, reusable
    by one call after another: one flat array per key.  A call views the
    leading entries of each, so a call with fewer seeds or rows than the
    largest one uses leading slices, and an array is mapped afresh only for
    a call that needs more.  ``fill`` writes the entries that every view of
    an array shares, such as a ones column, once, when the array is mapped;
    they depend on the architecture, so a store serves one architecture's
    plans.

    The arrays are anonymous memory maps, not ``malloc`` blocks.  glibc
    raises its mmap threshold to the size of each mapped block it frees,
    so the next set, the same size, would land on the heap, where the
    process grew by about one array in some training blocks and not in
    others."""

    def __init__(self):
        self.flat: dict = {}

    def take(self, key, shape, dtype=np.float64, fill=None) -> np.ndarray:
        size = math.prod(shape)
        buf = self.flat.get(key)
        if buf is None or buf.size < size:
            # A map cannot be empty, so a call on no rows maps one entry.
            raw = mmap.mmap(-1, np.dtype(dtype).itemsize * max(size, 1))
            buf = self.flat[key] = np.frombuffer(raw, dtype)[:size]
            if fill is not None:
                fill(buf)
        return buf[:size].reshape(shape)


class PreparedBranch:
    """Per-parameter work of one call, done once for all its passes.

    Holds the per-layer views of ``params`` (an MLP layer's is its [W; b]
    block), for a KAN each layer's scaled weight matrix W (n_in M, n_out),
    and, given a gradient buffer, the per-layer views of that buffer.  For
    an (S, P) block the views and W keep the leading S axis.  W copies the
    coefficients, so a plan goes stale once ``params`` is written: build a
    fresh one per call.  For an MLP with a gradient buffer it also holds
    each layer's contiguous W^T.

    Its passes lay their arrays out in a ``BufferStore``: a loss plan's in
    the one it is given, or a fresh one, in ``steps * stages`` slots, its
    c-th pass in slot c; a forward-only plan's in a fresh store, every pass
    in one slot.  The views of each slot are built once per row count and
    kept.  Its four methods are the branch interface of ``hybridcell``.
    """

    def __init__(self, branch: ResidualBranch, grads: np.ndarray | None = None,
                 store: BufferStore | None = None, steps: int = 1, stages: int = 1):
        self.arch, self.params, self.grads = branch.arch, branch.params, grads
        if isinstance(self.arch, KanArch):
            self.layers = []
            for coef, base, scale in _kan_layers(self.arch, self.params):
                n_in, n_out, M = coef.shape[-3:]
                # One GEMM row per (input, basis column), spline scale folded
                # in: W[.., i M + m, o] = scale[.., i, o] coef[.., i, o, m].
                W = (scale[..., None] * coef).swapaxes(-1, -2)
                self.layers.append((coef, base, scale, W.reshape(W.shape[:-3] + (n_in * M, n_out))))
            self.body, self.lay_out, views = _kan_forward, _kan_slots, _kan_layers
        else:
            self.layers = _mlp_layers(self.arch, self.params)
            self.body, self.lay_out, views = _mlp_forward, _mlp_slots, _mlp_layers
            if grads is not None:
                # Backward's input adjoint multiplies by W^T, made contiguous once.
                self.wt = [np.ascontiguousarray(Wb[..., :-1, :].swapaxes(-1, -2))
                           for Wb in self.layers]
        self.glayers = None if grads is None else views(self.arch, grads)
        self.store = BufferStore() if store is None else store
        # A forward-only plan runs every pass in one slot.
        self.steps, self.stages = (1, 1) if grads is None else (steps, stages)
        self.calls, self.slots = 0, {}

    def eval_batch(self, U):
        return forward_batch(self, U)

    def combined_vjp(self, cache, upstream):
        return backward_batch(self, cache, upstream, self.grads)[1]

    def l1_value(self) -> float:
        return l1_penalty(self)

    def l1_grad_into(self, grads: np.ndarray) -> None:
        add_l1_gradient(self, grads)


def init_params(arch: Arch, seed: int) -> np.ndarray:
    """Seed-deterministic initialization.

    MLP weights use He fan-in scaling with zero biases.  KAN spline
    coefficients are small (std 0.1 / n_basis) so the hybrid integrator
    starts near the known physics; base and spline scales start at 1, except
    that ``base_blend=False`` pins base scales at 0.
    """
    rng = stream(seed, "init")
    params = np.zeros(param_count(arch))
    if isinstance(arch, KanArch):
        M = arch.spline.n_basis
        for coef, base, scale in _kan_layers(arch, params):
            coef[:] = rng.normal(0.0, 0.1 / M, size=coef.shape)
            base[:] = 1.0 if arch.base_blend else 0.0
            scale[:] = 1.0
    else:
        for Wb in _mlp_layers(arch, params):
            W = Wb[:-1]
            W[:] = rng.normal(0.0, np.sqrt(2.0 / W.shape[0]), size=W.shape)
            Wb[-1] = 0.0
    return params


def new_branch(arch: Arch, seed: int) -> ResidualBranch:
    return ResidualBranch(arch, init_params(arch, seed))


def trainable_mask(arch: Arch) -> np.ndarray:
    """Boolean mask over the flat vector; False entries are frozen."""
    mask = np.ones(param_count(arch), dtype=bool)
    if isinstance(arch, KanArch) and not arch.base_blend:
        for _, base, _ in _kan_layers(arch, mask):
            base[:] = False
    return mask


def _silu(u, sig=None, silu=None):
    """sigmoid(u) and silu(u) = u sigmoid(u), written into ``sig`` and
    ``silu`` when given."""
    sig = np.negative(u, out=sig)
    np.exp(sig, out=sig)
    np.add(1.0, sig, out=sig)
    np.divide(1.0, sig, out=sig)
    return sig, np.multiply(u, sig, out=silu)


def forward_batch(x: PreparedBranch, U: np.ndarray):
    """Evaluate the prepared branch on (N, 2) normalized ``[xn, vn]`` rows,
    or on (S, N, 2) rows for a plan of an (S, P) block, row s by seed s.

    Returns (values, cache), values shaped ``U.shape[:-1]``; the cache holds
    everything ``backward_batch`` needs, so gradients never re-evaluate the
    network.  A loss plan's c-th call runs in slot c of its store.  A plan
    without a gradient buffer gets ``[]`` and runs at most ``FORWARD_ROWS``
    rows per pass, each in its one slot.
    """
    if x.glayers is not None:
        x.calls += 1
        return x.body(x, U, x.calls - 1)
    if U.shape[-2] <= FORWARD_ROWS:
        return x.body(x, U, 0)[0], []
    values = np.empty(U.shape[:-1])
    for a in range(0, values.shape[-1], FORWARD_ROWS):
        values[..., a : a + FORWARD_ROWS] = x.body(x, U[..., a : a + FORWARD_ROWS, :], 0)[0]
    return values, []


def _slot(x: PreparedBranch, n: int, c: int):
    """Slot c's views for passes of ``n`` rows, laid out at the first such pass."""
    slots = x.slots.get(n)
    if slots is None:
        slots = x.slots[n] = x.lay_out(x, n)
    return slots[c]


def _by_slot(per_layer: list) -> list:
    """Each layer's (views, cache entry) per slot, regrouped as one (layer
    views, cache) pair per slot."""
    return [tuple(map(list, zip(*slot))) for slot in zip(*per_layer)]


def _kan_slots(x: PreparedBranch, n: int) -> list:
    """Per slot, each KAN layer's views for a pass of ``n`` rows and the
    slot's cache, whose entries a forward-only plan leaves None.

    Each layer's slot arrays are laid out slot-major, (steps, stages, ..,
    n, ..), so that each slot is contiguous and its dense basis can be
    written through its flat windows.  The basis scratch (clamped inputs,
    powers, local product, row starts and, in a loss, the dB scatter) is
    shared by every slot and layer, each layer viewing its leading entries.
    """
    spec, lead, store, grid = x.arch.spline, x.params.shape[:-1], x.store, (x.steps, x.stages)
    K, M = spec.order + 1, spec.n_basis
    loss = x.glayers is not None
    per_layer = [None] * len(x.layers)
    # The widest layer first, so that an array the layers share is mapped once.
    for li in sorted(range(len(x.layers)), key=lambda li: -x.layers[li][1].shape[-2]):
        _, base, _, W = x.layers[li]
        n_in, n_out = base.shape[-2:]
        rows = lead + (n, n_in)
        points = math.prod(rows)
        scratch = (store.take("clamped", rows),
                   store.take("powers", (points, 2, K),
                              fill=lambda flat: flat.reshape(-1, K)[:, 0].fill(1.0)),
                   store.take("product", (points, 2 * K if loss else K)),
                   store.take("starts", rows, np.intp,
                              fill=lambda flat: np.multiply(np.arange(flat.size), M, out=flat)))
        # A forward-only pass needs a layer's arrays only until the next
        # layer's, so its layers share them.
        own = li if loss else 0
        dense = store.take(("dense", own), grid + rows + (M,))
        silu = store.take(("silu", own), grid + rows)
        # sigmoid(u), which a loss turns into the silu slope in place.
        dsilu = store.take(("dsilu", own), grid + rows)
        if loss:
            mask = store.take(("mask", li), grid + rows, np.bool_)
            dspl = store.take(("dspl", li), grid + lead + (n_in, n, n_out))
            ddense = store.take("ddense", rows + (M,))
            slope = (ddense, window_view(ddense, K), W.reshape(lead + (n_in, M, n_out)))
        views = []
        for t, j in np.ndindex(grid):
            d = dense[t, j]
            layer = scratch + (d, window_view(d, K), d.reshape(lead + (n, n_in * M)),
                               silu[t, j], dsilu[t, j])
            if loss:
                views.append((layer + (mask[t, j], dspl[t, j]) + slope, {
                    "dense": d, "dspl": dspl[t, j].swapaxes(-2, -3), "silu": silu[t, j],
                    "dsilu": dsilu[t, j], "mask": mask[t, j]}))
            else:
                views.append((layer, None))
        per_layer[li] = views
    return _by_slot(per_layer)


def _kan_forward(x: PreparedBranch, U: np.ndarray, c: int):
    """A KAN's forward pass on (.., N, 2) rows ``U`` in slot c of the plan's
    store.  A forward-only pass computes the basis values alone; a loss
    pass also fills the slot's cache, which backward reads."""
    layers, cache = _slot(x, U.shape[-2], c)
    spec = x.arch.spline
    lo, hi = spec.domain
    with np.errstate(over="ignore"):
        for (_, base, _, W), (u, V, P, starts, dense, windows, flat, silu, dsilu, *loss) in zip(
                x.layers, layers):
            np.maximum(U, lo, out=u)
            np.minimum(u, hi, out=u)
            B, dB, first = basis_and_derivative(spec, u, V, P)
            # Each row's window starts at its row start plus its first column.
            at = np.add(first, starts, out=first)
            scatter_windows(dense, windows, at, B)
            sig, _ = _silu(U, dsilu, silu)
            Y = silu @ base + flat @ W
            if loss:
                mask, dspl, ddense, dwindows, W3 = loss
                # U lies in the domain exactly where clamping leaves it as it is.
                np.equal(U, u, out=mask)
                # The scaled edge splines' u-slopes, one GEMM per input.
                np.matmul(scatter_windows(ddense, dwindows, at, dB).swapaxes(-2, -3), W3,
                          out=dspl)
                # silu'(u) = sig (1 + u (1 - sig)), over sig.
                np.subtract(1.0, sig, out=u)
                np.multiply(U, u, out=u)
                np.add(1.0, u, out=u)
                np.multiply(sig, u, out=sig)
            U = Y
    return U[..., 0], cache


def _mlp_slots(x: PreparedBranch, n: int) -> list:
    """Per slot, each MLP layer's input view for a pass of ``n`` rows and
    the slot's cache, whose entries a forward-only plan leaves None.

    Each layer's inputs are laid out (.., steps, stages, n, n_in + 1), the
    ones column written once, and a loss's output adjoints (.., stages, n,
    n_out), so that a step's stages of each are one matrix per seed."""
    lead, widths, store = x.params.shape[:-1], x.arch.widths, x.store
    per_layer = []
    for li, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        inputs = store.take(("inputs", li), lead + (x.steps, x.stages, n, n_in + 1),
                            fill=lambda flat: flat.reshape(-1, n_in + 1)[:, -1].fill(1.0))
        if x.glayers is not None:
            adjoints = store.take(("adjoints", li), lead + (x.stages, n, n_out))
            step_adjoints = adjoints.reshape(lead + (x.stages * n, n_out))
        views = []
        for t, j in np.ndindex(x.steps, x.stages):
            Ui = inputs[..., t, j, :, :]
            if x.glayers is None:
                views.append((Ui, None))
                continue
            # Stage 0 is the last stage a step reverses: it adds the step's
            # gradient, one GEMM over the inputs and adjoints of all its stages.
            step = None if j else (
                inputs[..., t, :, :, :].reshape(lead + (x.stages * n, n_in + 1)).swapaxes(-1, -2),
                step_adjoints)
            views.append((Ui, {"U": Ui, "Wz": adjoints[..., j, :, :], "step": step}))
        per_layer.append(views)
    return _by_slot(per_layer)


def _mlp_forward(x: PreparedBranch, U: np.ndarray, c: int):
    """An MLP's forward pass on (.., N, 2) rows ``U`` in slot c of the
    plan's store: it writes each layer's input into the slot, whose views
    are a loss pass's cache."""
    inputs, cache = _slot(x, U.shape[-2], c)
    inputs[0][..., :-1] = U
    for Wb, Ui, Un in zip(x.layers, inputs, inputs[1:]):
        np.maximum(Ui @ Wb, 0.0, out=Un[..., :-1])
    return (inputs[-1] @ x.layers[-1])[..., 0], cache


def backward_batch(x: PreparedBranch, cache, upstream: np.ndarray, grads: np.ndarray):
    """Reverse sweep for d(sum_n upstream_n * R(x_n, v_n)) / d(params, inputs),
    per seed for a block.

    Adds the parameter gradient into ``grads``, the buffer ``x`` was
    prepared with, through its layer views: a KAN's on every call, an MLP's
    on a step's stage 0, for all that step's stages.  Returns (grads, dU),
    dU the input adjoint shaped ``upstream.shape + (2,)``: [d/dxn, d/dvn]
    per row.
    """
    Wy = upstream[..., None]
    if isinstance(x.arch, KanArch):
        for li in range(len(x.layers) - 1, -1, -1):
            coef, base, scale, _ = x.layers[li]
            gcoef, gbase, gscale = x.glayers[li]
            c = cache[li]
            n_in, n_out, M = coef.shape[-3:]
            gbase += c["silu"].swapaxes(-1, -2) @ Wy
            # gsum[.., i, o, m] = sum_n dense[.., n, i, m] Wy[.., n, o], one
            # GEMM per seed; the edge spline is sum_m coef_m B_m, scaled.
            gsum = c["dense"].reshape(Wy.shape[:-1] + (n_in * M,)).swapaxes(-1, -2) @ Wy
            gsum = gsum.reshape(gsum.shape[:-2] + (n_in, M, n_out)).swapaxes(-1, -2)
            gcoef += scale[..., None] * gsum
            gscale += (coef * gsum).sum(-1)
            Wy = c["dsilu"] * (Wy @ base.swapaxes(-1, -2)) + c["mask"] * np.einsum(
                "...nio,...no->...ni", c["dspl"], Wy)
    else:
        last = len(x.layers) - 1
        for li in range(last, -1, -1):
            c = cache[li]
            Wz = c["Wz"]
            if li == last:
                Wz[...] = Wy
            else:
                # The next layer's input, less its ones column, is max(Z, 0):
                # positive exactly where Z is.
                np.multiply(Wy, cache[li + 1]["U"][..., :-1] > 0, out=Wz)
            if c["step"] is not None:
                # The step's [W; b] gradient, U_step^T @ Wz_step: the ones
                # column makes the bias row's gradient the row-sum of Wz.
                x.glayers[li] += np.matmul(*c["step"])
            Wy = Wz @ x.wt[li]
    return grads, Wy


def l1_penalty(branch: ResidualBranch | PreparedBranch):
    """Sparsity penalty: l1_weight * sum |spline coefficients| (0 for MLPs),
    one value per seed for a block."""
    if not isinstance(branch.arch, KanArch) or branch.arch.l1_weight == 0:
        return 0.0
    lead = branch.params.shape[:-1]
    total = sum(np.abs(coef).reshape(lead + (-1,)).sum(-1)
                for coef, _, _ in _kan_layers(branch.arch, branch.params))
    return branch.arch.l1_weight * total


def add_l1_gradient(branch: ResidualBranch | PreparedBranch, grads: np.ndarray) -> None:
    """Accumulate the l1 subgradient (sign convention: 0 at 0) into grads."""
    if not isinstance(branch.arch, KanArch) or branch.arch.l1_weight == 0:
        return
    lam = branch.arch.l1_weight
    for (coef, _, _), (gcoef, _, _) in zip(
        _kan_layers(branch.arch, branch.params), _kan_layers(branch.arch, grads)
    ):
        gcoef += lam * np.sign(coef)


def product_construction(spec: SplineSpec) -> ResidualBranch:
    """Hand-set two-layer KAN computing xn * vn exactly on [-1, 1]^2.

    Uses the polarization identity xy = ((x+y)^2 - (x-y)^2) / 4: the first
    layer forms (xn + vn, xn - vn) from linear edge splines, the second
    squares and differences them.  Both layers share the domain [-2, 2] so
    the intermediate sums stay inside it; requires order >= 2 for exact
    quadratics.
    """
    if spec.order < 2:
        raise ValueError("product construction needs spline order >= 2")
    pspec = SplineSpec(spec.grid_size, spec.order, (-2.0, 2.0))
    arch = KanArch((2, 2, 1), pspec, base_blend=False, l1_weight=0.0)
    params = np.zeros(param_count(arch))
    (c0, b0, s0), (c1, b1, s1) = _kan_layers(arch, params)
    ident = fit_coefficients(pspec, lambda u: u)
    c0[0, 0] = ident
    c0[1, 0] = ident
    c0[0, 1] = ident
    c0[1, 1] = -ident
    s0[:] = 1.0
    c1[0, 0] = fit_coefficients(pspec, lambda u: 0.25 * u * u)
    c1[1, 0] = -c1[0, 0]
    s1[:] = 1.0
    return ResidualBranch(arch, params)


def save_branch(branch: ResidualBranch, path, seed: int = 0) -> None:
    """Checkpoint format: one header line, then one parameter per line at 17
    significant digits.  The header is ``v2,kan,widths,G,k,lambda,base_blend,
    lo,hi,seed`` for a KAN (base_blend 1 or 0, [lo, hi] the spline domain) and
    ``v2,mlp,widths,seed`` for an MLP, so it carries every arch field."""
    widths = "x".join(str(w) for w in branch.arch.widths)
    if isinstance(branch.arch, KanArch):
        sp = branch.arch.spline
        fields = [KAN, widths, sp.grid_size, sp.order, _FLOAT_FMT % branch.arch.l1_weight,
                  int(branch.arch.base_blend), _FLOAT_FMT % sp.domain[0], _FLOAT_FMT % sp.domain[1]]
    else:
        fields = [MLP, widths]
    header = ",".join(str(f) for f in [CHECKPOINT_VERSION, *fields, seed])
    lines = [header] + [_FLOAT_FMT % p for p in branch.params]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_branch(path) -> tuple[ResidualBranch, int]:
    """Inverse of save_branch; returns (branch, seed).  Files without the
    current version tag are rejected, and so are a malformed header, a
    parameter line that is not a finite number and a parameter count that
    does not fit the header, each with ``path:line``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[0].split(",") if lines else [""]
    if fields[0] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {fields[0]!r} in {path}; "
                         f"expected {CHECKPOINT_VERSION!r}")
    try:
        kind, widths_s, *arch_s, seed_s = fields[1:]
        widths = tuple(int(w) for w in widths_s.split("x"))
        if kind == KAN and len(arch_s) == 6:
            g_s, k_s, lam_s, blend_s, lo_s, hi_s = arch_s
            spline = SplineSpec(int(g_s), int(k_s), (float(lo_s), float(hi_s)))
            arch: Arch = KanArch(widths, spline, base_blend=bool(int(blend_s)),
                                 l1_weight=float(lam_s))
        elif kind == MLP and not arch_s:
            arch = MlpArch(widths)
        else:
            raise ValueError("unknown kind or wrong field count")
        seed = int(seed_s)
    except ValueError as exc:
        raise ValueError(f"{path}:1: malformed checkpoint header {lines[0]!r}: {exc}") from None
    params = []
    for no, text in enumerate(lines[1:], start=2):
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise ValueError(f"{path}:{no}: checkpoint parameter {text!r} is not a finite number")
        params.append(value)
    if len(params) != param_count(arch):
        raise ValueError(f"{path}:{len(lines)}: {len(params)} parameter lines, but the header's "
                         f"architecture has {param_count(arch)} parameters")
    return ResidualBranch(arch, np.array(params)), seed
