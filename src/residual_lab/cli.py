"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad flags, unknown names,
malformed config files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    GridSpec,
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
from .netcore import load_branch, new_branch, param_count, save_branch
from .trainer import save_report, train, verify_gradients


class _Validation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _Validation(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="primary seed")
    p.add_argument("--out", default="", help="output directory or prefix "
                   f"(default from ${harness.ENV_OUT} or ./results)")


def _add_config_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="registry config name (see list-configs)")
    p.add_argument("--config-file", default=None,
                   help="path to a key = value experiment file")
    p.add_argument("--system", choices=[DUFFING, VANDERPOL], default=None)
    p.add_argument("--paradigm", choices=["teacher_forcing", "bptt"], default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--seeds", type=int, default=None, dest="n_seeds",
                   help="number of sweep seeds")


def _experiment_config(args) -> ExperimentConfig:
    if args.config_file:
        cfg = load_config_file(args.config_file)
    else:
        cfg = ExperimentConfig(config=args.config or "A")
    overrides = {}
    if args.config and args.config_file:
        overrides["config"] = args.config
    for field, attr in (("system", "system"), ("paradigm", "paradigm"),
                        ("steps", "steps"), ("learning_rate", "learning_rate"),
                        ("n_seeds", "n_seeds")):
        val = getattr(args, attr, None)
        if val is not None:
            overrides[field] = val
    if args.out:
        overrides["out"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _branch_for(args, cfg: ExperimentConfig, spec, scale: float):
    if getattr(args, "oracle", False):
        return OracleResidual(spec, scale)
    if getattr(args, "checkpoint", None):
        branch, _ = load_branch(args.checkpoint)
        return branch
    arch, _ = resolve_arch(cfg)
    return new_branch(arch, args.seed)


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
    report = train(system, ds, make_train_config(cfg, arch, args.seed))
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
    else:
        ds = harness._dataset_for(cfg, args.seed)
    branch = _branch_for(args, cfg, spec, ds.scale)
    system = HybridSystem(spec, branch, ds.dt, cfg.integrator, ds.scale)
    surface = sample_surface(branch, spec, GridSpec(), ds.scale)
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
    cfg = _experiment_config(args)
    spec = oscillator(cfg.system)
    branch = _branch_for(args, cfg, spec, DEFAULT_SCALE)
    surface = sample_surface(branch, spec, GridSpec(), DEFAULT_SCALE)
    fit = stlsq_fit(surface, threshold=args.threshold)
    for name, coef in fit.active.items():
        print(f"{name} {coef:+.6g}")
    print(f"fit_r2={fit.r2:.6g} iterations={fit.iterations}")
    return 0


def _cmd_export_surface(args) -> int:
    cfg = _experiment_config(args)
    spec = oscillator(cfg.system)
    branch = _branch_for(args, cfg, spec, DEFAULT_SCALE)
    surface = sample_surface(branch, spec, GridSpec(), DEFAULT_SCALE)
    root = output_root(args.out)
    os.makedirs(root, exist_ok=True)
    prefix = os.path.join(root, f"{cfg.system}-surface")
    for path in export_surface(surface, prefix):
        print(path)
    return 0


def _cmd_verify_grads(args) -> int:
    cfg = _experiment_config(args)
    spec = oscillator(cfg.system)
    arch, _ = resolve_arch(cfg)
    branch = new_branch(arch, args.seed)
    system = HybridSystem(spec, branch, cfg.dt, cfg.integrator, DEFAULT_SCALE)
    report = verify_gradients(branch, system, n_points=args.points,
                              tolerance=args.tolerance,
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
                  if entry.kind == "kan" else "-")
        rows.append((preset.name, preset.label, entry.kind,
                     "x".join(map(str, entry.widths)), str(param_count(arch)),
                     spline, "yes" if preset.reconstructed else "no"))
    headers = ("name", "label", "kind", "widths", "params", "spline", "reconstructed")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="residual-lab",
                     description="KAN vs MLP residual branches in a "
                                 "hard-constrained recurrent integrator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and save a dataset")
    _add_common(p)
    p.add_argument("--system", choices=[DUFFING, VANDERPOL], required=True)
    p.add_argument("--n-train", type=int, default=20)
    p.add_argument("--n-test", type=int, default=5)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one seed and save a checkpoint")
    _add_common(p)
    _add_config_source(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or the oracle")
    _add_common(p)
    _add_config_source(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="evaluate the analytical residual instead")
    p.add_argument("--data", default=None, help="saved dataset path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run a multi-seed sweep (resumable)")
    _add_common(p)
    _add_config_source(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("aggregate", help="combine sweep directories into tables")
    _add_common(p)
    p.add_argument("sweeps", nargs="+", help="sweep output directories")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("fit-symbolic", help="STLSQ fit of a residual surface")
    _add_common(p)
    _add_config_source(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--threshold", type=float, default=0.05)
    p.set_defaults(func=_cmd_fit_symbolic)

    p = sub.add_parser("export-surface", help="CSV + pixmap heat maps")
    _add_common(p)
    _add_config_source(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_export_surface)

    p = sub.add_parser("verify-grads", help="finite-difference gradient check")
    _add_common(p)
    _add_config_source(p)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--bptt-tolerance", type=float, default=1e-3)
    p.set_defaults(func=_cmd_verify_grads)

    p = sub.add_parser("list-configs", help="print the experiment registry")
    _add_common(p)
    p.set_defaults(func=_cmd_list_configs)

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
    except (_Validation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
