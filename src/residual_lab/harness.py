"""Experiment registry, seed sweeps, and table aggregation.

The registry carries the named KAN configurations A-G plus the eight
architecture-scale entries whose parameter counts pin them down uniquely
(120/240/480/880 for the KANs, 105/337/1185/4417 for the MLPs).  Configs B-E
and G are declared reconstructions: the source tables name them without
publishing their hyperparameters, so they are flagged ``reconstructed`` and
every report caveats them.

Sweeps are resumable and deterministic: each (config minus output/seed-count)
hashes to a fingerprint, per-seed rows live in a metrics CSV keyed by that
fingerprint, and reruns, different worker counts and different blocks of
seeds trained together reproduce the output byte for byte.  One scheduler,
``run_sweeps``, trains the seed blocks of any number of sweeps, in-process
or in one worker pool; ``run_sweep`` is its one-sweep call.  A sweep's rows
are saved after each block, and every file is replaced whole, so a killed
run keeps its finished blocks and never leaves a torn file.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import types
import typing
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .dynamics import DUFFING, RK4, SCHEMES, VANDERPOL, Dataset, generate_dataset, oscillator
from .evaluation import (
    GridSpec,
    MetricRow,
    ORACLE,
    R2_SENTINEL,
    bootstrap_ci,
    discovery_r2,
    format_fit_terms,
    read_metrics,
    sample_surface,
    stlsq_fit,
    test_mse,
    write_atomic,
    write_metrics,
)
from .hybridcell import HybridSystem, OracleResidual
from .netcore import (
    KAN,
    MLP,
    Arch,
    KanArch,
    MlpArch,
    ResidualBranch,
    SplineSpec,
    init_params,
    param_count,
)
from .trainer import BLOCK_SEEDS, BPTT, TEACHER_FORCING, TrainConfig, TrainReport, train_block

ENV_OUT = "RESIDUAL_LAB_OUT"


@dataclass(frozen=True)
class ArchEntry:
    name: str
    label: str
    kind: str
    widths: tuple[int, ...]


ARCH_REGISTRY: dict[str, ArchEntry] = {
    e.name: e
    for e in (
        ArchEntry("kan-very-small", "KAN Very Small", KAN, (2, 4, 1)),
        ArchEntry("kan-small", "KAN Small", KAN, (2, 8, 1)),
        ArchEntry("kan-wide", "KAN Wide", KAN, (2, 16, 1)),
        ArchEntry("kan-deep", "KAN Deep", KAN, (2, 8, 8, 1)),
        ArchEntry("mlp-tiny", "MLP Tiny", MLP, (2, 26, 1)),
        ArchEntry("mlp-small", "MLP Small", MLP, (2, 16, 16, 1)),
        ArchEntry("mlp-medium", "MLP Medium", MLP, (2, 32, 32, 1)),
        ArchEntry("mlp-large", "MLP Large", MLP, (2, 64, 64, 1)),
    )
}


@dataclass(frozen=True)
class PresetConfig:
    name: str
    label: str
    arch: str
    grid_size: int = 5
    order: int = 3
    l1_weight: float = 0.0
    base_blend: bool = True
    reconstructed: bool = False


def builtin_configs() -> dict[str, PresetConfig]:
    """Named presets: configuration ablation A-G (on the smallest KAN) plus
    one preset per architecture-scale registry entry."""
    presets = [
        PresetConfig("A", "Config A (G=5, k=3)", "kan-very-small"),
        PresetConfig("B", "Spline-Forced", "kan-very-small", base_blend=False,
                     reconstructed=True),
        PresetConfig("C", "Sparse-Low", "kan-very-small", l1_weight=1e-4,
                     reconstructed=True),
        PresetConfig("D", "Sparse-High", "kan-very-small", l1_weight=1e-2,
                     reconstructed=True),
        PresetConfig("E", "Aggressive-Grid", "kan-very-small", grid_size=8,
                     reconstructed=True),
        PresetConfig("F", "Config F (G=3, k=3)", "kan-very-small", grid_size=3),
        PresetConfig("G", "Fine-Grid", "kan-very-small", grid_size=20,
                     reconstructed=True),
    ]
    presets.extend(
        PresetConfig(e.name, e.label, e.name) for e in ARCH_REGISTRY.values()
    )
    return {p.name: p for p in presets}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, file-loadable description of one sweep cell."""

    system: str = DUFFING
    config: str = "A"
    paradigm: str = TEACHER_FORCING
    n_seeds: int = 100
    out: str = ""
    # training
    steps: int = 2000
    learning_rate: float = 0.0  # 0 = family default: 1e-3 MLP, 3e-3 KAN
    batch_size: int = 0  # 0 = paradigm default: 256 transitions / 16 windows
    horizon: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 10.0
    converge_tol: float = 0.0
    integrator: str = RK4
    # data
    data_seed: int = 0
    n_train_ics: int = 20
    n_test_ics: int = 5
    dt: float = 0.01
    data_steps: int = 1000
    noise_std: float = 0.0
    per_seed_data: bool = False
    # preset overrides (None = keep the preset's value)
    grid_size: int | None = None
    order: int | None = None
    l1_weight: float | None = None
    base_blend: bool | None = None
    # evaluation
    stlsq_threshold: float = 0.05
    oracle: bool = False

    def __post_init__(self):
        if self.system not in (DUFFING, VANDERPOL):
            raise ValueError(f"unknown system {self.system!r}")
        if self.paradigm not in (TEACHER_FORCING, BPTT):
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if self.integrator not in SCHEMES:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not (self.n_seeds >= 1):
            raise ValueError("n_seeds must be >= 1")
        if not (self.n_test_ics >= 1):
            raise ValueError("n_test_ics must be >= 1")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and positive")
        if not (self.data_steps >= 2):
            raise ValueError("data_steps must be >= 2")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be finite and >= 0")
        if not 0 <= self.stlsq_threshold < math.inf:
            raise ValueError("stlsq_threshold must be finite and nonnegative")
        if not self.oracle:
            if not (self.n_train_ics >= 1):
                raise ValueError("n_train_ics must be >= 1 unless oracle")
            if self.paradigm == BPTT and not (self.horizon <= self.data_steps):
                raise ValueError(f"horizon {self.horizon} exceeds data_steps "
                                 f"{self.data_steps}: no BPTT window fits")
            # Apply the sweep's TrainConfig bounds before any sweep output exists,
            # and the Adam fields it leaves open: eps = 0 makes a frozen entry 0/0.
            make_train_config(self, resolve_arch(self)[0])
            if not 0 < self.eps < math.inf:
                raise ValueError("eps must be finite and positive")
            if not (0 <= self.grad_clip < math.inf and 0 <= self.converge_tol < math.inf):
                raise ValueError("grad_clip and converge_tol must be finite and >= 0")


_FINGERPRINT_EXCLUDED = ("out", "n_seeds")


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """Content hash of all result-affecting fields.  Output location and
    seed count are excluded so a sweep can move or grow without invalidating
    its completed rows."""
    payload = dataclasses.asdict(cfg)
    for key in _FINGERPRINT_EXCLUDED:
        payload.pop(key)
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def resolve_arch(cfg: ExperimentConfig) -> tuple[Arch, PresetConfig]:
    presets = builtin_configs()
    if cfg.config not in presets:
        raise ValueError(f"unknown config {cfg.config!r}; see list-configs")
    preset = presets[cfg.config]
    entry = ARCH_REGISTRY[preset.arch]
    if entry.kind == KAN:
        spline = SplineSpec(
            cfg.grid_size if cfg.grid_size is not None else preset.grid_size,
            cfg.order if cfg.order is not None else preset.order,
        )
        arch: Arch = KanArch(
            entry.widths,
            spline,
            base_blend=(cfg.base_blend if cfg.base_blend is not None
                        else preset.base_blend),
            l1_weight=(cfg.l1_weight if cfg.l1_weight is not None
                       else preset.l1_weight),
        )
    else:
        arch = MlpArch(entry.widths)
    return arch, preset


def make_train_config(cfg: ExperimentConfig, arch: Arch) -> TrainConfig:
    lr = cfg.learning_rate
    if lr == 0:
        lr = 3e-3 if isinstance(arch, KanArch) else 1e-3
    batch = cfg.batch_size
    if batch == 0:
        batch = 256 if cfg.paradigm == TEACHER_FORCING else 16
    return TrainConfig(
        paradigm=cfg.paradigm, steps=cfg.steps, learning_rate=lr,
        batch_size=batch, horizon=cfg.horizon, beta1=cfg.beta1, beta2=cfg.beta2,
        eps=cfg.eps, grad_clip=cfg.grad_clip, converge_tol=cfg.converge_tol,
    )


def _dataset_for(cfg: ExperimentConfig, seed: int):
    data_seed = cfg.data_seed + seed if cfg.per_seed_data else cfg.data_seed
    return _shared_dataset(cfg.system, cfg.n_train_ics, cfg.n_test_ics, cfg.dt,
                           cfg.data_steps, data_seed, cfg.noise_std)


@functools.lru_cache(maxsize=2)
def _shared_dataset(system, n_train_ics, n_test_ics, dt, data_steps, data_seed, noise_std):
    """The dataset of one set of data fields, generated once and shared by
    every seed and config that asks for it; two are kept, for runs that alternate
    oscillators.  Its splits are read-only, so no consumer alters what a later seed sees."""
    ds = generate_dataset(oscillator(system), n_train_ics, n_test_ics, dt, data_steps,
                          seed=data_seed, noise_std=noise_std)
    ds.train.flags.writeable = False
    ds.test.flags.writeable = False
    return ds


def run_single_seed(cfg: ExperimentConfig, seed: int, report: TrainReport | None,
                    ds: Dataset) -> MetricRow:
    """Evaluate one seed of a sweep into its row, from the ``report`` of its
    training on ``ds`` (``None`` for an oracle sweep, which trains nothing)."""
    spec = oscillator(cfg.system)
    arch, preset = resolve_arch(cfg)
    if cfg.oracle:
        branch = OracleResidual(spec, ds.scale)
        status = ORACLE
    else:
        branch = ResidualBranch(arch, report.params)
        status = report.status
    system = HybridSystem(spec, branch, ds.dt, cfg.integrator, ds.scale)
    surface = sample_surface(branch, spec, GridSpec(), ds.scale)
    r2 = discovery_r2(surface)
    if not np.isfinite(r2):
        r2 = R2_SENTINEL
    mse = test_mse(system, ds.test)
    if surface.flagged:
        fit_r2, terms = R2_SENTINEL, ""
    else:
        fit = stlsq_fit(surface, threshold=cfg.stlsq_threshold)
        fit_r2, terms = fit.r2, format_fit_terms(fit)
    return MetricRow(cfg.system, preset.arch, cfg.config, cfg.paradigm, seed,
                     r2, mse, fit_r2, terms, status)


def _run_block(task: tuple[int, ExperimentConfig, list[int]]) -> tuple[int, list[MetricRow]]:
    """Train a block of seeds of sweep ``index`` together, then evaluate each
    into its row; returns the rows tagged with the index.  Top-level so
    worker processes can receive it."""
    index, cfg, seeds = task
    datasets = [_dataset_for(cfg, s) for s in seeds]
    if cfg.oracle:
        reports = [None] * len(seeds)
    else:
        arch, _ = resolve_arch(cfg)
        branch = ResidualBranch(arch, np.stack([init_params(arch, s) for s in seeds]))
        system = HybridSystem(oscillator(cfg.system), branch, datasets[0].dt, cfg.integrator,
                              datasets[0].scale)
        reports = train_block(system, datasets, make_train_config(cfg, arch), seeds)
    return index, [run_single_seed(cfg, s, r, d) for s, r, d in zip(seeds, reports, datasets)]


@dataclass
class SweepResult:
    config: ExperimentConfig
    fingerprint: str
    rows: list[MetricRow]
    summary: dict
    directory: str


def output_root(out: str = "") -> str:
    return out or os.environ.get(ENV_OUT, "") or "results"


def sweep_directory(cfg: ExperimentConfig) -> str:
    name = f"{cfg.system}-{cfg.config}-{cfg.paradigm}-{config_fingerprint(cfg)}"
    return os.path.join(output_root(cfg.out), name)


def _top_term(row: MetricRow) -> str:
    best, best_mag = "", -1.0
    for part in row.fit_terms.split(";"):
        if not part:
            continue
        name, coef = part.rsplit(":", 1)
        mag = abs(float(coef))
        if mag > best_mag:
            best, best_mag = name, mag
    return best


def _summarize(cfg: ExperimentConfig, fingerprint: str, rows: list[MetricRow]) -> dict:
    arch, preset = resolve_arch(cfg)
    r2s = [r.discovery_r2 for r in rows]
    mses = [r.test_mse for r in rows]
    mean, lo, hi = bootstrap_ci(r2s, seed=0)
    finite_mses = [m for m in mses if np.isfinite(m)]
    statuses = Counter(r.status for r in rows)
    tops = Counter(top for top in map(_top_term, rows) if top)
    n_no_ckpt = sum(1 for r in rows if r.discovery_r2 == R2_SENTINEL)
    summary = {
        "fingerprint": fingerprint,
        "label": preset.label,
        "reconstructed": preset.reconstructed,
        "arch": preset.arch,
        "params": param_count(arch),
        "system": cfg.system,
        "config": cfg.config,
        "paradigm": cfg.paradigm,
        "n_seeds": len(rows),
        "discovery_r2": {"mean": mean, "ci_lo": lo, "ci_hi": hi},
        "test_mse_mean": (sum(finite_mses) / len(finite_mses)
                          if finite_mses else None),
        "statuses": statuses,
        "top_term_counts": tops,
        "captured_cubic_fraction": tops.get("x^3", 0) / len(rows),
        "no_finite_checkpoint_fraction": n_no_ckpt / len(rows),
    }
    return summary


def _resume(cfg: ExperimentConfig) -> dict[int, MetricRow]:
    """Create the sweep directory of ``cfg`` and return the rows it holds,
    checking that they belong to its fingerprint."""
    resolve_arch(cfg)  # an unknown config fails before its directory exists
    fingerprint, directory = config_fingerprint(cfg), sweep_directory(cfg)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "metrics.csv")
    if not os.path.exists(path):
        return {}
    rows, stored = read_metrics(path)
    if stored is not None and stored != fingerprint:
        raise ValueError(f"{path} belongs to fingerprint {stored}, not {fingerprint}")
    return {r.seed: r for r in rows}


def _finish(cfg: ExperimentConfig, rows: dict[int, MetricRow]) -> SweepResult:
    """Write the config echo and the summary of a sweep whose seeds are all in ``rows``."""
    directory, fingerprint = sweep_directory(cfg), config_fingerprint(cfg)
    save_config_file(cfg, os.path.join(directory, "config.txt"))
    result_rows = [rows[s] for s in range(cfg.n_seeds)]
    summary = _summarize(cfg, fingerprint, result_rows)
    write_atomic(os.path.join(directory, "summary.json"),
                 json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return SweepResult(cfg, fingerprint, result_rows, summary, directory)


def run_sweeps(cfgs, workers: int = 1) -> Iterator[SweepResult]:
    """Train and evaluate the ``n_seeds`` seeds of every config, resuming the
    rows already on disk, and yield each sweep's result as it completes.

    Every sweep is opened, and its fingerprint checked, before any training.
    The missing seeds of all sweeps are cut into blocks of one sweep each by
    one rule, ``min(BLOCK_SEEDS, ceil(total missing / workers))``, so every
    worker gets a block.  The blocks train in-process with one worker, else
    in one fork pool, in any order.  After each block its sweep's
    ``metrics.csv`` is rewritten sorted by seed, so a killed run keeps every
    finished block; ``config.txt`` and ``summary.json`` follow the sweep's
    last block.  A seed's row does not depend on its block, so output bytes
    depend only on the configs, never on scheduling.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cfgs = list(cfgs)
    if len({sweep_directory(cfg) for cfg in cfgs}) < len(cfgs):
        raise ValueError("two configs share one sweep directory")
    done = [_resume(cfg) for cfg in cfgs]
    missing = [[s for s in range(cfg.n_seeds) if s not in rows] for cfg, rows in zip(cfgs, done)]
    size = max(1, min(BLOCK_SEEDS, -(-sum(map(len, missing)) // workers)))
    tasks = [(i, cfgs[i], seeds[j : j + size])
             for i, seeds in enumerate(missing) for j in range(0, len(seeds), size)]
    pending = Counter(i for i, _, _ in tasks)
    # A sweep with no seed missing is finished by one empty block, before any training.
    idle = [(i, []) for i in range(len(cfgs)) if not pending[i]]
    pending.update(i for i, _ in idle)

    def collect(blocks):
        for i, rows in blocks:
            done[i].update((r.seed, r) for r in rows)
            write_metrics(os.path.join(sweep_directory(cfgs[i]), "metrics.csv"),
                          [done[i][s] for s in sorted(done[i])],
                          fingerprint=config_fingerprint(cfgs[i]))
            pending[i] -= 1
            if not pending[i]:
                yield _finish(cfgs[i], done[i])

    yield from collect(idle)
    if workers > 1 and tasks:
        with get_context("fork").Pool(workers) as pool:
            yield from collect(pool.imap_unordered(_run_block, tasks))
    else:
        yield from collect(map(_run_block, tasks))


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """One sweep through ``run_sweeps``: in-process with one worker, else
    in a fork pool of ``workers``."""
    [result] = run_sweeps([cfg], workers)
    return result


def load_sweep(directory: str) -> SweepResult:
    """The result of a completed sweep; ``ValueError`` naming the directory
    unless its rows cover seeds ``0..n_seeds-1`` and its summary counts as
    many, as a sweep killed before its last block leaves them."""
    cfg = load_config_file(os.path.join(directory, "config.txt"))
    rows, fingerprint = read_metrics(os.path.join(directory, "metrics.csv"))
    with open(os.path.join(directory, "summary.json")) as fh:
        summary = json.load(fh)
    by_seed = {r.seed: r for r in rows}
    lost = [s for s in range(cfg.n_seeds) if s not in by_seed]
    if lost or summary.get("n_seeds") != cfg.n_seeds:
        raise ValueError(f"{directory}: incomplete sweep: {cfg.n_seeds} seeds in config.txt, "
                         f"{summary.get('n_seeds')} in summary.json, seeds {lost} missing "
                         f"from metrics.csv")
    return SweepResult(cfg, fingerprint or config_fingerprint(cfg),
                       [by_seed[s] for s in range(cfg.n_seeds)], summary, directory)


_PARADIGM_HEADS = {TEACHER_FORCING: "TF", BPTT: "BPTT"}


def _cell_text(result: SweepResult) -> str:
    rows = result.rows
    n_no_ckpt = sum(1 for r in rows if r.discovery_r2 == R2_SENTINEL)
    if n_no_ckpt * 2 > len(rows):
        return "(Unstable)"
    agg = result.summary["discovery_r2"]
    half = (agg["ci_hi"] - agg["ci_lo"]) / 2.0
    return f"{agg['mean']:.3f} ± {half:.3f}"


def aggregate_tables(results: list[SweepResult], out_prefix: str):
    """Emit <prefix>.csv and an aligned <prefix>.txt shaped like the source
    tables: one row per (arch, config, params), one Discovery R^2 column per
    (system, paradigm) present in the inputs."""
    results = list(results)
    if not results:
        raise ValueError("no sweep results to aggregate")
    presets = builtin_configs()
    col_order = [(s, p) for s in (DUFFING, VANDERPOL)
                 for p in (TEACHER_FORCING, BPTT)]
    cols: list[tuple[str, str]] = []
    cells: dict[tuple, dict[tuple, SweepResult]] = {}  # row key -> column key -> sweep
    for res in results:
        preset = presets[res.config.config]
        arch, _ = resolve_arch(res.config)
        label = preset.label + (" *" if preset.reconstructed else "")
        row_key = (label, res.config.config, param_count(arch))
        col_key = (res.config.system, res.config.paradigm)
        if col_key not in cols:
            cols.append(col_key)
        cell_map = cells.setdefault(row_key, {})
        if col_key in cell_map and cell_map[col_key].fingerprint != res.fingerprint:
            raise ValueError(
                f"conflicting sweeps for {row_key} / {col_key}: "
                f"{cell_map[col_key].fingerprint} vs {res.fingerprint}"
            )
        cell_map[col_key] = res
    cols.sort(key=col_order.index)

    headers = (["arch", "config", "params"]
               + [f"{s} {_PARADIGM_HEADS[p]} R2" for s, p in cols])
    table = [[label, config, str(params)]
             + [_cell_text(row[col]) if col in row else "" for col in cols]
             for (label, config, params), row in cells.items()]

    csv_path, txt_path = out_prefix + ".csv", out_prefix + ".txt"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([headers, *table])
    write_atomic(csv_path, buf.getvalue())
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    if any(presets[r.config.config].reconstructed for r in results):
        lines += ["", "* reconstructed configuration (hyperparameters not published)"]
    write_atomic(txt_path, "\n".join(lines) + "\n")
    return csv_path, txt_path


_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)
_TRUE_WORDS = ("true", "1", "yes", "on")
_FALSE_WORDS = ("false", "0", "no", "off")


def _coerce(field: str, text: str):
    tp = _CONFIG_TYPES[field]
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if text.lower() in ("none", "null", ""):
            return None
        tp = args[0]
    if tp is bool:
        low = text.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ValueError(f"cannot parse boolean {field} = {text!r}")
    if tp is int:
        return int(text)
    if tp is float:
        value = float(text)
        if not np.isfinite(value):
            raise ValueError(f"{field} = {text!r} is not a finite number")
        return value
    return text


def load_config_file(path) -> ExperimentConfig:
    """Flat ``key = value`` config format; '#' starts a comment; keys must be
    ExperimentConfig fields (unknown keys are errors, not typos to ignore)."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _coerce(key, text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config_file(cfg: ExperimentConfig, path) -> None:
    lines = []
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            text = "none"
        elif isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = repr(val)
        else:
            text = str(val)
        lines.append(f"{f.name} = {text}")
    write_atomic(path, "\n".join(lines) + "\n")
