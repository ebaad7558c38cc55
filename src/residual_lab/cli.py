"""Command-line front end.

``_COMMANDS`` is the one table of subcommands: each lists the option groups
it reads, and parses no other flag (nor any prefix of one).  A flag named
after an ExperimentConfig field overrides that field of ``--config-file``
or of the defaults, so ``fit-symbolic --threshold`` overrides
``stlsq_threshold`` as ``train --steps`` overrides ``steps``.

Exit codes: 0 success, 1 validation error (bad flags, unknown names,
malformed config files, paths that name no file), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import harness
from .dynamics import (
    DEFAULT_SCALE,
    DUFFING,
    VANDERPOL,
    generate_dataset,
    load_dataset,
    oscillator,
    save_dataset,
)
from .evaluation import (
    discovery_r2,
    export_surface,
    rollout_mse,
    sample_surface,
    stlsq_fit,
    test_mse,
)
from .harness import (
    ARCH_REGISTRY,
    ExperimentConfig,
    aggregate_tables,
    builtin_configs,
    load_config_file,
    load_sweep,
    make_train_config,
    output_root,
    resolve_arch,
    run_sweep,
)
from .hybridcell import HybridSystem, OracleResidual
from .netcore import KAN, load_branch, new_branch, param_count, save_branch
from .trainer import save_report, train, verify_gradients


class _Validation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _Validation(message)


def _experiment_config(args) -> ExperimentConfig:
    """The config file's fields, or the defaults, with every config field
    that a flag of the same name sets replaced by the flag's value."""
    cfg = load_config_file(args.config_file) if args.config_file else ExperimentConfig()
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return dataclasses.replace(cfg, **{name: value for name, value in vars(args).items()
                                       if name in fields and value is not None})


def _branch_for(args, cfg: ExperimentConfig, spec, scale: float):
    """The oracle if the run's config asks for it (``--oracle`` sets the
    config's field), else the checkpoint, else a fresh branch of the config."""
    if cfg.oracle:
        return OracleResidual(spec, scale)
    if args.checkpoint:
        branch, _ = load_branch(args.checkpoint)
        return branch
    arch, _ = resolve_arch(cfg)
    return new_branch(arch, args.seed)


def _surface(args):
    """The run's config and the residual surface of its branch."""
    cfg = _experiment_config(args)
    spec = oscillator(cfg.system)
    return cfg, sample_surface(_branch_for(args, cfg, spec, DEFAULT_SCALE), spec)


def _cmd_gen_data(args) -> int:
    spec = oscillator(args.system)
    ds = generate_dataset(spec, args.n_train, args.n_test, args.dt, args.steps,
                          seed=args.seed, noise_std=args.noise)
    root = output_root(args.out)
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"{args.system}-seed{args.seed}.dataset")
    save_dataset(ds, path)
    print(path)
    return 0


def _cmd_train(args) -> int:
    cfg = _experiment_config(args)
    spec = oscillator(cfg.system)
    ds = harness._dataset_for(cfg, args.seed)
    arch, _ = resolve_arch(cfg)
    branch = new_branch(arch, args.seed)
    system = HybridSystem(spec, branch, ds.dt, cfg.integrator, ds.scale)
    report = train(system, ds, make_train_config(cfg, arch), args.seed)
    root = output_root(cfg.out)
    os.makedirs(root, exist_ok=True)
    stem = f"{cfg.system}-{cfg.config}-{cfg.paradigm}-seed{args.seed}"
    ckpt = os.path.join(root, stem + ".ckpt")
    save_branch(branch, ckpt, seed=args.seed)
    report.checkpoint = ckpt
    save_report(report, os.path.join(root, stem + ".report.json"))
    final = report.loss_history[-1] if report.loss_history else float("nan")
    print(f"status={report.status} steps={len(report.loss_history)} "
          f"final_loss={final:.6g} checkpoint={ckpt}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _experiment_config(args)
    spec = oscillator(cfg.system)
    if args.data:
        ds = load_dataset(args.data)
        if ds.oscillator != cfg.system:
            raise _Validation(f"{args.data} holds {ds.oscillator} data, but the run's "
                              f"system is {cfg.system}")
        if len(ds.test) == 0:
            raise _Validation(f"{args.data} holds no test trajectories; eval scores "
                              "the test split")
    else:
        ds = harness._dataset_for(cfg, args.seed)
    branch = _branch_for(args, cfg, spec, ds.scale)
    system = HybridSystem(spec, branch, ds.dt, cfg.integrator, ds.scale)
    surface = sample_surface(branch, spec, scale=ds.scale)
    r2 = discovery_r2(surface)
    mse = test_mse(system, ds.test)
    rmse = rollout_mse(system, ds.test)
    print(f"discovery_r2={r2:.6g} test_mse={mse:.6g} rollout_mse={rmse:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    result = run_sweep(cfg, workers=args.workers)
    agg = result.summary["discovery_r2"]
    print(f"{result.directory}: {len(result.rows)} seeds, discovery_r2 "
          f"{agg['mean']:.4f} [{agg['ci_lo']:.4f}, {agg['ci_hi']:.4f}]")
    return 0


def _cmd_aggregate(args) -> int:
    results = [load_sweep(d) for d in args.sweeps]
    prefix = args.out or os.path.join(output_root(""), "report")
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    csv_path, txt_path = aggregate_tables(results, prefix)
    with open(txt_path) as fh:
        print(fh.read(), end="")
    print(f"wrote {csv_path} and {txt_path}")
    return 0


def _cmd_fit_symbolic(args) -> int:
    cfg, surface = _surface(args)
    fit = stlsq_fit(surface, threshold=cfg.stlsq_threshold)
    for name, coef in fit.active.items():
        print(f"{name} {coef:+.6g}")
    print(f"fit_r2={fit.r2:.6g} iterations={fit.iterations}")
    return 0


def _cmd_export_surface(args) -> int:
    cfg, surface = _surface(args)
    root = output_root(cfg.out)
    os.makedirs(root, exist_ok=True)
    prefix = os.path.join(root, f"{cfg.system}-surface")
    for path in export_surface(surface, prefix):
        print(path)
    return 0


def _cmd_verify_grads(args) -> int:
    cfg = _experiment_config(args)
    spec = oscillator(cfg.system)
    arch, _ = resolve_arch(cfg)
    system = HybridSystem(spec, new_branch(arch, args.seed), cfg.dt, cfg.integrator,
                          DEFAULT_SCALE)
    report = verify_gradients(system, n_points=args.points, tolerance=args.tolerance,
                              bptt_tolerance=args.bptt_tolerance)
    print(f"teacher_forcing max_rel_error={report.tf_error:.3e} "
          f"(tol {report.tolerance:g})")
    print(f"bptt            max_rel_error={report.bptt_error:.3e} "
          f"(tol {report.bptt_tolerance:g})")
    if not report.passed:
        print(f"FAILED at parameter index {report.worst_index}")
        return 2
    print("OK")
    return 0


def _cmd_list_configs(args) -> int:
    presets = builtin_configs()
    rows = []
    for preset in presets.values():
        entry = ARCH_REGISTRY[preset.arch]
        cfg = ExperimentConfig(config=preset.name)
        arch, _ = resolve_arch(cfg)
        spline = (f"G={preset.grid_size} k={preset.order} "
                  f"l1={preset.l1_weight:g} base={'on' if preset.base_blend else 'off'}"
                  if entry.kind == KAN else "-")
        rows.append((preset.name, preset.label, entry.kind,
                     "x".join(map(str, entry.widths)), str(param_count(arch)),
                     spline, "yes" if preset.reconstructed else "no"))
    headers = ("name", "label", "kind", "widths", "params", "spline", "reconstructed")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def _opt(flag: str, **spec):
    return flag, spec


# Option groups.  A flag whose dest names an ExperimentConfig field overrides
# that field (see _experiment_config), so those flags default to None.
_SEED = [_opt("--seed", type=int, default=0, help="primary seed")]
_OUT = [_opt("--out", help="output directory or prefix "
             f"(default from ${harness.ENV_OUT} or ./results)")]
_CONFIG = [
    _opt("--config", help="registry config name (see list-configs)"),
    _opt("--config-file", help="path to a key = value experiment file"),
    _opt("--system", choices=[DUFFING, VANDERPOL]),
]
_TRAINING = [
    _opt("--paradigm", choices=["teacher_forcing", "bptt"]),
    _opt("--steps", type=int),
    _opt("--learning-rate", type=float),
]
_BRANCH = [
    _opt("--checkpoint"),
    _opt("--oracle", action="store_true", default=None,
         help="use the analytical residual instead"),
]

# Each subcommand's handler, help line and the options it reads; no other
# option parses.
_COMMANDS = {
    "gen-data": (_cmd_gen_data, "generate and save a dataset", _SEED + _OUT + [
        _opt("--system", choices=[DUFFING, VANDERPOL], required=True),
        _opt("--n-train", type=int, default=20),
        _opt("--n-test", type=int, default=5),
        _opt("--dt", type=float, default=0.01),
        _opt("--steps", type=int, default=1000),
        _opt("--noise", type=float, default=0.0),
    ]),
    "train": (_cmd_train, "train one seed and save a checkpoint",
              _SEED + _OUT + _CONFIG + _TRAINING),
    "eval": (_cmd_eval, "evaluate a checkpoint or the oracle", _SEED + _CONFIG + _BRANCH + [
        _opt("--data", help="saved dataset path"),
    ]),
    "sweep": (_cmd_sweep, "run a multi-seed sweep (resumable)", _OUT + _CONFIG + _TRAINING + [
        _opt("--seeds", type=int, dest="n_seeds", help="number of sweep seeds"),
        _opt("--workers", type=int, default=1),
    ]),
    "aggregate": (_cmd_aggregate, "combine sweep directories into tables", _OUT + [
        _opt("sweeps", nargs="+", help="sweep output directories"),
    ]),
    "fit-symbolic": (_cmd_fit_symbolic, "STLSQ fit of a residual surface",
                     _SEED + _CONFIG + _BRANCH + [
        _opt("--threshold", type=float, dest="stlsq_threshold", metavar="THRESHOLD",
             help="STLSQ threshold (default: the config's stlsq_threshold, 0.05)"),
    ]),
    "export-surface": (_cmd_export_surface, "CSV + pixmap heat maps",
                       _SEED + _OUT + _CONFIG + _BRANCH),
    "verify-grads": (_cmd_verify_grads, "finite-difference gradient check", _SEED + _CONFIG + [
        _opt("--points", type=int, default=5),
        _opt("--tolerance", type=float, default=1e-4),
        _opt("--bptt-tolerance", type=float, default=1e-3),
    ]),
    "list-configs": (_cmd_list_configs, "print the experiment registry", []),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The one parser of this process; parsing leaves it as it was."""
    # No prefix matching: a removed flag must not resolve to a longer one.
    parser = _Parser(prog="residual-lab", allow_abbrev=False,
                     description="KAN vs MLP residual branches in a "
                                 "hard-constrained recurrent integrator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Validation:
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_Validation, ValueError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError) as exc:
        # A path that names no readable file is a bad flag.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
