"""Benchmark oscillators and reference data generation.

Two second-order systems, each split into a declared known part and a
ground-truth residual acting only on the acceleration:

* Duffing:     x' = v,  v' = -x - 0.3 x^3      (known -x, residual -0.3 x^3)
* Van der Pol: x' = v,  v' = -x + (1 - x^2) v  (known -x, residual (1 - x^2) v)

Reference trajectories come from ``rk_step`` RK4 on the full right-hand
side; ``SCHEMES`` is the one scheme table, which the hybrid cell and its
adjoint read too.  Datasets bundle (n, T, 2) train/test trajectory arrays
with the normalization constant used by residual branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream

DUFFING = "duffing"
VANDERPOL = "vanderpol"
OSCILLATOR_KINDS = (DUFFING, VANDERPOL)

RK4 = "rk4"
EULER = "euler"
# Per scheme: the feeds f_i (stage i + 1 starts from the step's state plus
# f_i dt times stage i's slope), the whole-number stage weights and their
# divisor, so the step adds dt / divisor times the weighted slope sum.
SCHEMES = {RK4: ((0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0),
           EULER: ((), (1.0,), 1.0)}

# Normalization divisor applied to states before they enter a residual branch;
# matches the evaluation window so normalized inputs land in roughly [-1, 1].
DEFAULT_SCALE = 2.5
# Initial conditions are drawn uniformly from [-IC_BOX, IC_BOX]^2.
IC_BOX = 2.0
# Any trajectory leaving |x|,|v| <= SANITY_BOUND has its IC redrawn.
SANITY_BOUND = 10.0
RESAMPLE_CAP = 100

_FLOAT_FMT = "%.17g"  # round-trip exact for IEEE doubles


class DivergenceError(RuntimeError):
    """Integration produced a non-finite or runaway state."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class OscillatorSpec:
    """One benchmark system: known physics plus ground-truth residual.

    The known part is the undamped, unforced linear oscillator v' = -x for
    both systems; the residual is everything the learned branch is supposed
    to recover.  All maps accept scalars or numpy arrays.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in OSCILLATOR_KINDS:
            raise ValueError(f"unknown oscillator kind {self.kind!r}")

    def known_vdot(self, x, v):
        return -x

    def known_vdot_partials(self, x, v):
        """(d/dx, d/dv) of the known acceleration: constants, which
        broadcast against any state."""
        return -1.0, 0.0

    def true_residual(self, x, v):
        if self.kind == DUFFING:
            return -0.3 * x**3
        return (1.0 - x * x) * v

    def true_residual_partials(self, x, v):
        """(d/dx, d/dv) of the ground-truth residual."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == DUFFING:
            return -0.9 * x * x, np.zeros_like(v)
        return -2.0 * x * v, 1.0 - x * x


def duffing() -> OscillatorSpec:
    return OscillatorSpec(DUFFING)


def vanderpol() -> OscillatorSpec:
    return OscillatorSpec(VANDERPOL)


def oscillator(kind: str) -> OscillatorSpec:
    return OscillatorSpec(kind)


def rk_step(accel, Z, dt: float, scheme: str):
    """One ``SCHEMES[scheme]`` step of x' = v, v' = a on (..., 2) [x, v] states
    ``Z``, with ``accel(Z)`` returning (a, aux).  Returns (Z', stages): per
    stage its state Z_i, whose v column is also its x-slope, and its aux."""
    feeds, weights, div = SCHEMES[scheme]
    Zi, stages = Z, []
    for i, w in enumerate(weights):
        a, aux = accel(Zi)
        stages.append((Zi, aux))
        K = np.empty(Zi.shape)
        K[..., 0] = Zi[..., 1]
        K[..., 1] = a
        # The sum starts from its first term, not 0.0, to keep a -0.0's sign.
        s = s + w * K if i else w * K
        if i < len(feeds):
            Zi = Z + feeds[i] * dt * K
    return Z + dt / div * s, stages


def integrate_batch(spec: OscillatorSpec, ics: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """RK4-integrate a (n, 2) block of initial conditions; returns (n, n_steps+1, 2).

    Raises ``DivergenceError`` whose ``step`` is the index of the first
    non-finite state, as ``hybridcell.rollout`` reports it."""
    out = np.empty((ics.shape[0], n_steps + 1, 2))
    out[:, 0] = Z = ics

    def accel(Z):
        x, v = Z[..., 0], Z[..., 1]
        return spec.known_vdot(x, v) + spec.true_residual(x, v), None

    for t in range(n_steps):
        Z, _ = rk_step(accel, Z, dt, RK4)
        if not np.all(np.isfinite(Z)):
            raise DivergenceError("batch integration diverged", step=t + 1)
        out[:, t + 1] = Z
    return out


@dataclass
class Dataset:
    """Train and test splits, each an (n, T, 2) array of [x, v] states
    sampled every ``dt``, plus the branch-input normalization."""

    oscillator: str
    dt: float
    train: np.ndarray
    test: np.ndarray
    scale: float = DEFAULT_SCALE

    def __post_init__(self):
        if self.oscillator not in OSCILLATOR_KINDS:
            raise ValueError(f"unknown oscillator kind {self.oscillator!r}")
        # Chained comparisons fail for NaN as well as for inf.
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        shape = self.test.shape
        if len(shape) != 3 or shape[1] < 2 or shape[2] != 2 or self.train.shape[1:] != shape[1:]:
            raise ValueError(f"splits must be (n, T>=2, 2) arrays of one T, "
                             f"got {self.train.shape} and {shape}")


def _sample_trajectories(spec, n, dt, n_steps, rng, sanity_bound) -> np.ndarray:
    """Draw n ICs from the IC box, integrating and redrawing any that escape
    the sanity box.  Returns the trajectories, (n, n_steps+1, 2)."""
    ics = rng.uniform(-IC_BOX, IC_BOX, size=(n, 2))
    trajs = integrate_batch(spec, ics, dt, n_steps)
    for _ in range(RESAMPLE_CAP):
        bad = np.flatnonzero(np.abs(trajs).max(axis=(1, 2)) > sanity_bound)
        if bad.size == 0:
            return trajs
        ics[bad] = rng.uniform(-IC_BOX, IC_BOX, size=(bad.size, 2))
        trajs[bad] = integrate_batch(spec, ics[bad], dt, n_steps)
    raise RuntimeError(
        f"IC resampling exceeded {RESAMPLE_CAP} attempts (sanity bound {sanity_bound})"
    )


def generate_dataset(
    spec: OscillatorSpec,
    n_train_ics: int,
    n_test_ics: int,
    dt: float,
    n_steps: int,
    seed: int,
    noise_std: float = 0.0,
    sanity_bound: float = SANITY_BOUND,
    scale: float = DEFAULT_SCALE,
) -> Dataset:
    """Integrate seeded random ICs into a train/test dataset.

    Train ICs are drawn before test ICs from the same stream, so the two
    splits are disjoint with probability one.  ``noise_std`` adds optional
    i.i.d. Gaussian observation noise to the stored states (never fed back
    into the integration); it defaults to none.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not 0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if n_train_ics + n_test_ics < 1:
        raise ValueError("a dataset needs at least one trajectory")
    rng = stream(seed, "dataset")
    train = _sample_trajectories(spec, n_train_ics, dt, n_steps, rng, sanity_bound)
    test = _sample_trajectories(spec, n_test_ics, dt, n_steps, rng, sanity_bound)
    if noise_std > 0:
        train = train + rng.normal(0.0, noise_std, size=train.shape)
        test = test + rng.normal(0.0, noise_std, size=test.shape)
    return Dataset(spec.kind, dt, train, test, scale)


def save_dataset(ds: Dataset, path) -> None:
    """Write the line-oriented dataset format.

    First line: ``oscillator,dt,scale,n_train,n_test`` values in that order.
    Then, per trajectory, a ``#traj <split> <index>`` line followed by
    ``t,x,v`` rows printed with 17 significant digits (round-trip exact).
    """
    lines = [
        "%s,%s,%s,%d,%d"
        % (ds.oscillator, _FLOAT_FMT % ds.dt, _FLOAT_FMT % ds.scale, len(ds.train), len(ds.test))
    ]
    times = np.arange(ds.test.shape[1]) * ds.dt
    for split, trajs in (("train", ds.train), ("test", ds.test)):
        for i, states in enumerate(trajs):
            lines.append(f"#traj {split} {i}")
            for t, (x, v) in zip(times, states):
                lines.append(f"{_FLOAT_FMT % t},{_FLOAT_FMT % x},{_FLOAT_FMT % v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    """Read a ``save_dataset`` file.  A malformed header or state row, an
    unknown split, rows before the first ``#traj`` line, ragged or miscounted
    trajectories and header values ``Dataset`` rejects raise ``ValueError``
    naming the file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"empty dataset file {path}")
    header = lines[0].split(",")
    try:
        if len(header) != 5:
            raise ValueError(f"expected 5 fields, got {len(header)}")
        osc, dt, scale, n_train, n_test = (header[0], float(header[1]), float(header[2]),
                                           int(header[3]), int(header[4]))
    except ValueError as exc:
        raise ValueError(f"{path}:1: malformed dataset header {lines[0]!r}: {exc}") from None
    splits: dict[str, list] = {"train": [], "test": []}
    current = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("#traj"):
            fields = line.split()
            if len(fields) < 2 or fields[1] not in splits:
                raise ValueError(f"{path}:{lineno}: unknown split in {line!r}")
            current = []
            splits[fields[1]].append(current)
        elif line:
            if current is None:
                raise ValueError(f"{path}:{lineno}: state row before the first #traj line")
            try:
                _, x, v = (float(f) for f in line.split(","))
                ok = math.isfinite(x) and math.isfinite(v)
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(f"{path}:{lineno}: malformed state row {line!r}; "
                                 "expected t,x,v with finite x and v")
            current.append([x, v])
    if len(splits["train"]) != n_train or len(splits["test"]) != n_test:
        raise ValueError(f"dataset file {path} is inconsistent with its header")
    lengths = sorted({len(traj) for trajs in splits.values() for traj in trajs})
    if len(lengths) != 1:
        raise ValueError(f"dataset file {path} needs trajectories of one length, has {lengths}")
    train, test = (np.array(trajs, dtype=float).reshape(len(trajs), lengths[0], 2)
                   for trajs in splits.values())
    try:
        return Dataset(osc, dt, train, test, scale)
    except ValueError as exc:
        raise ValueError(f"dataset file {path}: {exc}") from None
