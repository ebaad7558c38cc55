"""Metrics: Discovery R^2 on a dense phase-space grid, held-out one-step MSE,
STLSQ symbolic candidate fitting, bootstrap confidence intervals, and
residual-surface export (CSV + portable pixmaps).

Discovery R^2 is the coefficient of determination of the predicted residual
against the analytical one over all grid nodes; it can be arbitrarily
negative for bad models, which is exactly why it is used (failed seeds stay
in the statistics).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_SCALE, DivergenceError, OscillatorSpec
from .hybridcell import HybridSystem, rollout, step_batch, transitions_of
from .rng import stream
from .trainer import CONVERGED, MAX_STEPS, UNSTABLE

_FLOAT_FMT = "%.17g"

# Recorded for seeds with no finite evaluation at all (divergent surface);
# keeps failures inside means instead of dropping them.
R2_SENTINEL = -10.0


@dataclass(frozen=True)
class GridSpec:
    x_range: tuple[float, float] = (-DEFAULT_SCALE, DEFAULT_SCALE)
    v_range: tuple[float, float] = (-DEFAULT_SCALE, DEFAULT_SCALE)
    nx: int = 100
    nv: int = 100

    def __post_init__(self):
        if self.nx < 2 or self.nv < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        if self.x_range[0] >= self.x_range[1] or self.v_range[0] >= self.v_range[1]:
            raise ValueError("grid ranges must be nondegenerate")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    def vs(self) -> np.ndarray:
        return np.linspace(self.v_range[0], self.v_range[1], self.nv)

    def mesh(self):
        return np.meshgrid(self.xs(), self.vs(), indexing="ij")


@dataclass(frozen=True)
class SurfaceSample:
    """Predicted residual values and analytical truth on a shared grid,
    stored row-major with x varying slowest: values[ix, iv]."""

    grid: GridSpec
    values: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.nv)
        if self.values.shape != shape or self.truth.shape != shape:
            raise ValueError(f"surface matrices must have grid shape {shape}")

    @property
    def flagged(self) -> bool:
        return not np.all(np.isfinite(self.values))


def sample_surface(branch, spec: OscillatorSpec, grid: GridSpec = GridSpec(),
                   scale: float = DEFAULT_SCALE) -> SurfaceSample:
    X, V = grid.mesh()
    vals, _ = branch.prepare().eval_batch(np.stack((X, V), -1).reshape(-1, 2) / scale)
    return SurfaceSample(grid, vals.reshape(X.shape), spec.true_residual(X, V))


def discovery_r2(s: SurfaceSample) -> float:
    """1 - SSres/SStot over all grid nodes; -inf if the surface has
    non-finite nodes; exact 1.0 for an elementwise match."""
    if s.flagged:
        return float("-inf")
    truth = s.truth
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("truth surface has zero variance")
    ss_res = float(((s.values - truth) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def test_mse(system: HybridSystem, test: np.ndarray) -> float:
    """One-step teacher-forced mean squared error on the transitions of an
    (n, T, 2) held-out array; +inf if any transition diverges."""
    s0, s1 = transitions_of(test)
    ok = np.ones((), dtype=bool)
    ZP, _ = step_batch(system.prepare(), s0, ok)
    if not ok:
        return float("inf")
    sq = (ZP[:, 0] - s1[:, 0]) ** 2 + (ZP[:, 1] - s1[:, 1]) ** 2
    mse = float(sq.mean())
    return mse if np.isfinite(mse) else float("inf")


def rollout_mse(system: HybridSystem, test: np.ndarray) -> float:
    """Free-rollout mean squared error over an (n, T, 2) held-out array, from
    one lockstep ``rollout`` of all start states, summed trajectory by
    trajectory, step by step; +inf if any trajectory diverges."""
    if len(test) == 0:
        raise ValueError("no trajectories")
    try:
        pred = rollout(system, test[:, 0], test.shape[1] - 1)
    except DivergenceError:
        return float("inf")
    d = (pred[:, 1:] - test[:, 1:]).reshape(-1, 2)
    total = 0.0
    for e in (d[:, 0] ** 2 + d[:, 1] ** 2).tolist():
        total += e
    return total / len(d) if np.isfinite(total) else float("inf")


@dataclass(frozen=True)
class CandidateDictionary:
    names: tuple[str, ...]
    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate candidate names")
        if len(self.names) != len(self.exponents):
            raise ValueError("names and exponents must align")

    def design_matrix(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        cols = [x ** px * v ** pv for px, pv in self.exponents]
        return np.stack(cols, axis=1)


def _monomial_name(px: int, pv: int) -> str:
    if px == 0 and pv == 0:
        return "1"
    parts = []
    if px:
        parts.append("x" if px == 1 else f"x^{px}")
    if pv:
        parts.append("v" if pv == 1 else f"v^{pv}")
    return "*".join(parts)


def polynomial_dictionary(max_degree: int = 3) -> CandidateDictionary:
    """Monomials in (x, v) up to the given total degree, ordered by degree:
    1, x, v, x^2, x*v, v^2, x^3, x^2*v, x*v^2, v^3 for the default."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    exps = [(d - j, j) for d in range(max_degree + 1) for j in range(d + 1)]
    return CandidateDictionary(tuple(_monomial_name(px, pv) for px, pv in exps), tuple(exps))


@dataclass(frozen=True)
class SymbolicFit:
    names: tuple[str, ...]
    coefficients: np.ndarray
    r2: float
    iterations: int

    @property
    def active(self) -> dict[str, float]:
        return {n: float(c) for n, c in zip(self.names, self.coefficients) if c != 0.0}

    def __str__(self) -> str:
        if not self.active:
            return "0"
        return " + ".join(f"{c:.6g}*{n}" for n, c in self.active.items())


def _fit_r2(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else float("-inf")
    return 1.0 - ss_res / ss_tot


def stlsq_fit(s: SurfaceSample, dictionary: CandidateDictionary | None = None,
              threshold: float = 0.05, max_iters: int = 10) -> SymbolicFit:
    """Sequentially thresholded least squares of the predicted surface on the
    candidate dictionary; threshold 0 with max_iters 1 is plain OLS."""
    if not 0 <= threshold < np.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if dictionary is None:
        dictionary = polynomial_dictionary()
    X, V = s.grid.mesh()
    A = dictionary.design_matrix(X.ravel(), V.ravel())
    y = s.values.ravel()

    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        active = np.abs(coef) >= threshold
        new_coef = np.zeros_like(coef)
        if active.any():
            new_coef[active], *_ = np.linalg.lstsq(A[:, active], y, rcond=None)
        converged = np.array_equal(active, np.abs(new_coef) >= threshold)
        coef = new_coef
        if converged:
            break
    pred = A @ coef
    return SymbolicFit(dictionary.names, coef, _fit_r2(y, pred), iterations)


def bootstrap_ci(values, n_resamples: int = 10000, level: float = 0.95,
                 seed: int = 0) -> tuple[float, float, float]:
    """Percentile bootstrap of the mean: (mean, lo, hi) at the given level."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ValueError("bootstrap needs at least one value")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    rng = stream(seed, "bootstrap")
    idx = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[idx].mean(axis=1)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [alpha, 100.0 - alpha])
    return float(values.mean()), float(lo), float(hi)


def _colormap(t: np.ndarray) -> np.ndarray:
    """Linear blue-white-red: 0 -> (0,0,255), 0.5 -> white, 1 -> (255,0,0)."""
    t = np.clip(t, 0.0, 1.0)
    low = t <= 0.5
    rgb = np.empty(t.shape + (3,))
    u = 2.0 * t
    rgb[..., 0] = np.where(low, 255.0 * u, 255.0)
    rgb[..., 1] = np.where(low, 255.0 * u, 255.0 * (2.0 - u))
    rgb[..., 2] = np.where(low, 255.0, 255.0 * (2.0 - u))
    return np.rint(rgb).astype(int)


def _write_ppm(panel: np.ndarray, path) -> tuple[float, float]:
    """Panel is (nx, nv); image rows run from v-max down to v-min, columns
    from x-min to x-max.  Returns the (min, max) used for the color scale."""
    lo, hi = float(panel.min()), float(panel.max())
    t = np.full_like(panel, 0.5) if hi == lo else (panel - lo) / (hi - lo)
    img = _colormap(t.T[::-1, :])
    h, w = img.shape[0], img.shape[1]
    row = " ".join(["%d"] * (3 * w)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"P3\n{w} {h}\n255\n" + (row * h) % tuple(img.ravel().tolist()))
    return lo, hi


def export_surface(s: SurfaceSample, prefix) -> list[str]:
    """Write <prefix>.csv (exact round-trip), <prefix>.pred.ppm and
    <prefix>.truth.ppm heat maps, and <prefix>.scale.txt recording each
    panel's independent color-scale min/max."""
    if s.flagged or not np.all(np.isfinite(s.truth)):
        raise ValueError("cannot export a surface with non-finite nodes")
    prefix = str(prefix)
    csv_path = prefix + ".csv"
    # One (x, v, value, truth) row per node, x slowest, in one format call.
    table = np.stack([*s.grid.mesh(), s.values, s.truth], axis=-1).reshape(-1, 4)
    row = ",".join([_FLOAT_FMT] * 4) + "\n"
    with open(csv_path, "w") as fh:
        fh.write("x,v,value,truth\n" + (row * len(table)) % tuple(table.ravel().tolist()))

    pred_path, truth_path = prefix + ".pred.ppm", prefix + ".truth.ppm"
    pred_lo, pred_hi = _write_ppm(s.values, pred_path)
    truth_lo, truth_hi = _write_ppm(s.truth, truth_path)
    scale_path = prefix + ".scale.txt"
    with open(scale_path, "w") as fh:
        for name, val in (("pred_min", pred_lo), ("pred_max", pred_hi),
                          ("truth_min", truth_lo), ("truth_max", truth_hi)):
            fh.write(f"{name} {_FLOAT_FMT % val}\n")
    return [csv_path, pred_path, truth_path, scale_path]


def load_surface(csv_path) -> SurfaceSample:
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    data = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    xs = np.unique(data[:, 0])
    nv = data.shape[0] // xs.size
    grid = GridSpec((float(data[0, 0]), float(data[-1, 0])),
                    (float(data[0, 1]), float(data[nv - 1, 1])), xs.size, nv)
    return SurfaceSample(grid, data[:, 2].reshape(xs.size, nv),
                         data[:, 3].reshape(xs.size, nv))


@dataclass(frozen=True)
class MetricRow:
    system: str
    arch: str
    config: str
    paradigm: str
    seed: int
    discovery_r2: float
    test_mse: float
    fit_r2: float
    fit_terms: str
    status: str


METRIC_COLUMNS = ("system", "arch", "config", "paradigm", "seed",
                  "discovery_r2", "test_mse", "fit_r2", "fit_terms", "status")
# The status of an oracle sweep's rows, which train nothing, and every status
# a row can carry.
ORACLE = "Oracle"
ROW_STATUSES = (MAX_STEPS, CONVERGED, UNSTABLE, ORACLE)


def format_fit_terms(fit: SymbolicFit) -> str:
    return ";".join(f"{n}:{_FLOAT_FMT % c}" for n, c in fit.active.items())


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and ``os.replace``,
    so a reader, or a run killed mid-write, never sees a torn file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_metrics(path, rows, fingerprint: str | None = None) -> None:
    lines = []
    if fingerprint is not None:
        lines.append(f"# fingerprint {fingerprint}")
    lines.append(",".join(METRIC_COLUMNS))
    for r in rows:
        lines.append(",".join([
            r.system, r.arch, r.config, r.paradigm, str(r.seed),
            _FLOAT_FMT % r.discovery_r2, _FLOAT_FMT % r.test_mse,
            _FLOAT_FMT % r.fit_r2, r.fit_terms, r.status,
        ]))
    write_atomic(path, "\n".join(lines) + "\n")


def read_metrics(path) -> tuple[list[MetricRow], str | None]:
    """Inverse of ``write_metrics``; a row without one field per column, with
    a seed or number that does not parse, a score no evaluation writes (a
    non-finite discovery_r2, a NaN or +inf fit_r2, a NaN or negative
    test_mse), a fit term that is not ``name:coef`` with a finite coef, or
    a status ``write_metrics`` never writes raises ``ValueError`` naming the
    file and line."""
    with open(path) as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), start=1) if ln]
    fingerprint = None
    if lines and lines[0][1].startswith("# fingerprint "):
        fingerprint = lines[0][1].split(" ", 2)[2]
        lines = lines[1:]
    if not lines or lines[0][1] != ",".join(METRIC_COLUMNS):
        raise ValueError(f"unrecognized metrics header in {path}")
    rows = []
    for no, ln in lines[1:]:
        f = ln.split(",")
        try:
            if len(f) != len(METRIC_COLUMNS):
                raise ValueError(f"expected {len(METRIC_COLUMNS)} fields, got {len(f)}")
            r2, mse, fit_r2 = float(f[5]), float(f[6]), float(f[7])
            if not np.isfinite(r2):
                raise ValueError(f"discovery_r2 {f[5]!r} is not finite")
            if not mse >= 0:
                raise ValueError(f"test_mse {f[6]!r} is NaN or negative")
            if not fit_r2 < np.inf:
                raise ValueError(f"fit_r2 {f[7]!r} is NaN or +inf")
            for term in f[8].split(";") if f[8] else ():
                name, _, coef = term.rpartition(":")
                if not (name and np.isfinite(float(coef))):
                    raise ValueError(f"fit term {term!r} is not name:coef with a finite coef")
            if f[9] not in ROW_STATUSES:
                raise ValueError(f"unknown status {f[9]!r}")
            rows.append(MetricRow(f[0], f[1], f[2], f[3], int(f[4]), r2, mse, fit_r2,
                                  f[8], f[9]))
        except ValueError as exc:
            raise ValueError(f"{path}:{no}: malformed metrics row {ln!r}: {exc}") from None
    return rows, fingerprint
