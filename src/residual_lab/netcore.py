"""Residual branch families over the normalized state (xn, vn) -> scalar.

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
* MLP layer: weights (n_in, n_out) C-order, then biases (n_out,).

A KAN layer is one GEMM over its spline basis, the basis-expansion form of
Liu et al.'s KAN (2024).  ``splines.basis_and_derivative`` returns the K =
order + 1 nonzero basis functions of each input and the first nonzero
column, and ``splines.scatter_to_dense`` places them in a dense (N, n_in, M)
basis.  With the spline scale folded into the coefficients, W[i M + m, o] =
spline_scale[i, o] coef[i, o, m], a layer's values are ``silu(U) @ base_scale
+ dense @ W``; in a loss the dense basis derivative times W, one GEMM per
input, gives the edge splines' input slopes.  Backward sums the coefficient
gradient from the cached dense basis, one GEMM per seed, and takes the spline
scale's gradient from it: the edge spline is sum_m coef_m B_m.

The cell does not call a ``ResidualBranch`` directly.  Each loss, rollout
or surface call first turns it into a ``PreparedBranch`` with
``branch.prepare(grads)``, which does the per-parameter work once for every
RK4 stage of that call: it holds the per-layer views of ``params``, for a
KAN each layer's scaled weight matrix W, and, for a loss, the per-layer
views of the caller's gradient buffer ``grads``.  The plan is built fresh per
call and never cached on the branch, because training writes ``params`` in
place between calls.

A branch's ``params`` may also be an (S, P) block: S seeds of one
architecture, evaluated together.  Every layer view then keeps a leading S
axis, the inputs are (S, N), and each contraction is a stack of per-seed
ones (stacked ``matmul``, ``einsum`` over the leading axes), so seed s gets
the same float operations as in a block of its own.  A (P,) vector is the
one-seed case with no seed axis at all.

``forward_batch(x, xn, vn)`` takes a prepared branch and returns the values
and one cache dict per layer, which ``backward_batch(x, cache, upstream,
grads)`` consumes without re-evaluating anything.  Backward adds the
parameter gradient into ``grads``, the buffer ``x`` was prepared with, and
returns that buffer with the input adjoints, so the stages of one loss
accumulate into one array with no per-call zero buffer.  A forward-only plan
(``grads=None``) cannot run backward, so its cache is ``[]``, and it runs at
most ``FORWARD_ROWS`` rows per pass, so a large surface grid never holds its
whole dense basis.  A KAN layer caches backward's operands and nothing else,
so forward also computes the two input slopes: ``dense`` (N, n_in, M) dense
basis, ``dspl`` (N, n_in, n_out) scaled edge spline u-slopes, ``silu``/
``dsilu`` (N, n_in) base term and its u-slope, ``mask`` (N, n_in) inputs
inside the domain.  MLP layer cache: the layer input ``U`` (N, n_in);
backward reads a hidden layer's ReLU mask off the next layer's input.  With
a seed axis, every cache array has a leading S.

All gradients are exact reverse-mode; finite-difference tests pin them down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import stream
from .splines import SplineSpec, basis_and_derivative, fit_coefficients, scatter_to_dense

KAN = "kan"
MLP = "mlp"

_FLOAT_FMT = "%.17g"
# First field of a checkpoint header; load_branch rejects any other.
CHECKPOINT_VERSION = "v2"
# Rows per pass of a forward-only call: bounds the dense basis it holds.
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
    lead = params.shape[:-1]
    out, off = [], 0
    for n_in, n_out in zip(arch.widths[:-1], arch.widths[1:]):
        W = params[..., off : off + n_in * n_out].reshape(lead + (n_in, n_out))
        b = params[..., off + n_in * n_out : off + (n_in + 1) * n_out]
        out.append((W, b))
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

    def prepare(self, grads: np.ndarray | None = None) -> PreparedBranch:
        """The branch as the hybrid cell uses it for one loss, rollout or
        surface call; ``grads`` is the buffer its backward passes add into."""
        return PreparedBranch(self, grads)


class PreparedBranch:
    """Per-parameter work of one call, done once for all its RK4 stages.

    Holds the per-layer views of ``params``, for a KAN each layer's scaled
    weight matrix W (n_in M, n_out), and, given a gradient buffer, the
    per-layer views of that buffer.  For an (S, P) block the views and W keep
    the leading S axis.  W copies the coefficients, so a plan goes stale once
    ``params`` is written: build a fresh one per call.  Its four methods are
    the branch interface of ``hybridcell``.
    """

    def __init__(self, branch: ResidualBranch, grads: np.ndarray | None = None):
        self.arch, self.params, self.grads = branch.arch, branch.params, grads
        if isinstance(self.arch, KanArch):
            self.layers = []
            for coef, base, scale in _kan_layers(self.arch, self.params):
                n_in, n_out, M = coef.shape[-3:]
                # One GEMM row per (input, basis column), spline scale folded
                # in: W[.., i M + m, o] = scale[.., i, o] coef[.., i, o, m].
                W = (scale[..., None] * coef).swapaxes(-1, -2)
                self.layers.append((coef, base, scale, W.reshape(W.shape[:-3] + (n_in * M, n_out))))
            views = _kan_layers
        else:
            # Biases broadcast over the rows of each seed.
            self.layers = [(W, b[..., None, :]) for W, b in _mlp_layers(self.arch, self.params)]
            views = _mlp_layers
        self.glayers = None if grads is None else views(self.arch, grads)

    def eval_batch(self, xn, vn):
        return forward_batch(self, xn, vn)

    def combined_vjp(self, cache, upstream):
        return backward_batch(self, cache, upstream, self.grads)

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
        for W, b in _mlp_layers(arch, params):
            W[:] = rng.normal(0.0, np.sqrt(2.0 / W.shape[0]), size=W.shape)
            b[:] = 0.0
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


def _silu(u):
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-u))
    return sig, u * sig


def forward_batch(x: PreparedBranch, xn: np.ndarray, vn: np.ndarray):
    """Evaluate the prepared branch on (N,) arrays of normalized coordinates,
    or on (S, N) arrays for a plan of an (S, P) block, row s by seed s.

    Returns (values, cache), values shaped like ``xn``; the cache holds
    everything ``backward_batch`` needs, so gradients never re-evaluate the
    network.  A plan without a gradient buffer gets ``[]`` and runs at most
    ``FORWARD_ROWS`` rows per pass.
    """
    U = np.empty(np.asarray(xn).shape + (2,))
    U[..., 0] = xn
    U[..., 1] = vn
    if x.glayers is not None:
        cache = []
        return _forward_rows(x, U, cache), cache
    values = np.empty(U.shape[:-1])
    for a in range(0, values.shape[-1], FORWARD_ROWS):
        values[..., a : a + FORWARD_ROWS] = _forward_rows(x, U[..., a : a + FORWARD_ROWS, :], None)
    return values, []


def _forward_rows(x: PreparedBranch, U: np.ndarray, cache: list | None) -> np.ndarray:
    """The branch's values on the (.., N, 2) inputs ``U``; appends each
    layer's backward operands to ``cache`` unless it is None."""
    if isinstance(x.arch, KanArch):
        spec = x.arch.spline
        lo, hi = spec.domain
        M = spec.n_basis
        for _, base, _, W in x.layers:
            B, dB, first = basis_and_derivative(spec, np.minimum(np.maximum(U, lo), hi))
            dense = scatter_to_dense(B, first, M)
            sig, silu = _silu(U)
            Y = silu @ base + dense.reshape(U.shape[:-1] + (-1,)) @ W
            if cache is not None:
                # The scaled edge splines' u-slopes, one GEMM per input.
                n_in, n_out = base.shape[-2:]
                dspl = (scatter_to_dense(dB, first, M).swapaxes(-2, -3)
                        @ W.reshape(W.shape[:-2] + (n_in, M, n_out))).swapaxes(-2, -3)
                cache.append({"dense": dense, "dspl": dspl, "silu": silu,
                              "dsilu": sig * (1.0 + U * (1.0 - sig)),
                              "mask": (U >= lo) & (U <= hi)})
            U = Y
    else:
        last = len(x.layers) - 1
        for li, (W, b) in enumerate(x.layers):
            if cache is not None:
                cache.append({"U": U})
            Z = U @ W + b
            U = np.maximum(Z, 0.0) if li < last else Z
    return U[..., 0]


def backward_batch(x: PreparedBranch, cache, upstream: np.ndarray, grads: np.ndarray):
    """Reverse sweep for d(sum_n upstream_n * R(x_n, v_n)) / d(params, inputs),
    per seed for a block.

    Adds the parameter gradient into ``grads``, the buffer ``x`` was
    prepared with, through its layer views.  Returns (grads, (d/dxn,
    d/dvn) arrays shaped like ``upstream``).
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
            W, _ = x.layers[li]
            gW, gb = x.glayers[li]
            # The next layer's input max(Z, 0) is positive exactly where Z is.
            Wz = Wy if li == last else Wy * (cache[li + 1]["U"] > 0)
            gW += cache[li]["U"].swapaxes(-1, -2) @ Wz
            gb += np.add.reduce(Wz, axis=-2)
            Wy = Wz @ W.swapaxes(-1, -2)
    return grads, (Wy[..., 0], Wy[..., 1])


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
