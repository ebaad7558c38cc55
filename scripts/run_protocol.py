"""The published protocol as one resumable job.

A gradient pre-flight first checks one branch of every registry architecture
against central differences, on both loss paths at the default tolerances,
and exits 1 before any training if one fails.  Then the 46 cells, configs
A-G under teacher forcing and every registry architecture under both
paradigms, each on both oscillators, run through one ``run_sweeps``
scheduler, which saves a cell's rows after each of its seed blocks: the same
command resumes a killed run.  It prints one line per finished cell and
writes ``config-ablation.{csv,txt}`` and ``scale-ablation.{csv,txt}`` under
``--out``.  --seeds and --steps shrink the protocol (100 seeds x 2000 steps)
to a desk run, and --paradigms limits it:

    PYTHONPATH=src python3 scripts/run_protocol.py --seeds 2 --steps 3 --workers 2
"""

import argparse
import functools
import os
import sys
import time

from residual_lab.dynamics import DUFFING, VANDERPOL, oscillator
from residual_lab.harness import (ARCH_REGISTRY, ExperimentConfig, aggregate_tables, output_root,
                                  resolve_arch, run_sweeps, sweep_directory)
from residual_lab.hybridcell import HybridSystem
from residual_lab.netcore import new_branch
from residual_lab.trainer import BPTT, TEACHER_FORCING, verify_gradients

SYSTEMS = (DUFFING, VANDERPOL)
PARADIGMS = (TEACHER_FORCING, BPTT)


def preflight() -> bool:
    """Print one gradient check per registry architecture; True if all pass."""
    passed = True
    for name in ARCH_REGISTRY:
        branch = new_branch(resolve_arch(ExperimentConfig(config=name))[0], 0)
        t0 = time.perf_counter()
        rep = verify_gradients(HybridSystem(oscillator(DUFFING), branch, 0.01))
        print(f"grads {name:15s} tf={rep.tf_error:.3e} bptt={rep.bptt_error:.3e} "
              f"{'ok' if rep.passed else 'FAILED'} ({time.perf_counter() - t0:.1f}s)", flush=True)
        passed = passed and rep.passed
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="", help="output root (default: results)")
    parser.add_argument("--paradigms", nargs="+", default=list(PARADIGMS), choices=PARADIGMS)
    args = parser.parse_args(argv)
    if not preflight():
        print("gradient pre-flight failed: nothing trained", file=sys.stderr)
        return 1

    out = output_root(args.out)
    cell = functools.partial(ExperimentConfig, n_seeds=args.seeds, steps=args.steps, out=out)
    tables = {
        "config-ablation": [cell(system=s, config=c, paradigm=TEACHER_FORCING)
                            for s in SYSTEMS for c in "ABCDEFG"],
        "scale-ablation": [cell(system=s, config=a, paradigm=p)
                           for p in PARADIGMS for s in SYSTEMS for a in ARCH_REGISTRY],
    }
    tables = {name: [c for c in cfgs if c.paradigm in args.paradigms]
              for name, cfgs in tables.items()}
    results = {}
    for res in run_sweeps([c for cfgs in tables.values() for c in cfgs], workers=args.workers):
        cfg, agg = res.config, res.summary["discovery_r2"]
        unstable = res.summary["statuses"].get("Unstable", 0)
        print(f"sweep {cfg.system}/{cfg.config}/{cfg.paradigm} ({cfg.n_seeds} seeds): "
              f"discovery R2 {agg['mean']:.3f} [{agg['ci_lo']:.3f}, {agg['ci_hi']:.3f}]"
              + (f", {unstable} unstable" if unstable else ""), flush=True)
        results[res.directory] = res
    for name, cfgs in tables.items():
        if cfgs:
            for path in aggregate_tables([results[sweep_directory(c)] for c in cfgs],
                                         os.path.join(out, name)):
                print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
