"""One benchmark process: set up one workload, run its repetitions and check
them.

Started by ``run.py`` with the BLAS thread count pinned; the last line of
its standard output is one JSON object.  ``--t0`` is the launcher's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports and workload set-up.  ``--seconds`` is
this process's share of the timed phase, and ``--first-rep`` the index of
its first repetition within the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import types


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-rep", type=int, default=0)
    p.add_argument("--oracle", type=int, choices=(0, 1), default=1)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default="")
    return p.parse_args(argv)


def load_package():
    import numpy as np

    from residual_lab import cli, dynamics, evaluation, harness, hybridcell, netcore, splines, trainer

    return types.SimpleNamespace(
        np=np, cli=cli, dynamics=dynamics, evaluation=evaluation, harness=harness,
        hybridcell=hybridcell, netcore=netcore, splines=splines, trainer=trainer,
        clock=time.perf_counter, reference={},
    )


def environment(np) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _record(rep, wall: float, traced: bool, probe_s: float = 0.0, probes: int = 0) -> dict:
    return {"kind": rep.kind, "digest": rep.digest, "seeds": rep.seeds, "wall": wall,
            "probe_s": probe_s, "probes": probes,
            "attempted": rep.attempted, "failed": rep.failed, "traced": traced}


def _timed(work, pkg, args, probe):
    """Untraced repetitions until this process's share of the timed phase is
    used: another one starts only if it should end less than half a
    repetition past the share.  Always at least one.  The host probe samples
    the host's speed meanwhile; a record's ``wall`` leaves its time out."""
    reps, records = [], []
    start = pkg.clock()
    with probe.sampling():
        while not records or (pkg.clock() - start
                              + statistics.mean(r["wall"] + r["probe_s"] for r in records) / 2
                              < args.seconds):
            index = args.first_rep + len(reps)
            t0, t1, rep = work.rep(os.path.join(args.workdir, f"rep{index}"), index)
            samples = probe.between(t0, t1)
            reps.append(rep)
            records.append(_record(rep, t1 - t0 - sum(samples), False, sum(samples), len(samples)))
    return reps, records


def _traced(work, pkg, args):
    """Pairs of an untraced and a traced repetition of the same index until
    ``--seconds`` have passed; returns the repetitions, their records and the
    per-layer metrics of each traced one."""
    from spans import Tracer

    reps, records, layers = [], [], []
    tracer = None
    start = pkg.clock()
    index = 0
    while not layers or pkg.clock() - start < args.seconds:
        t0, t1, rep = work.rep(os.path.join(args.workdir, f"rep{index}-plain"), index)
        reps.append(rep)
        records.append(_record(rep, t1 - t0, False))
        tracer = Tracer(pkg)
        restore = tracer.install()
        try:
            t0, t1, rep = work.rep(os.path.join(args.workdir, f"rep{index}-traced"), index)
        finally:
            restore()
        reps.append(rep)
        records.append(_record(rep, t1 - t0, True))
        layers.append((rep.kind, tracer.metrics(rep.seeds)))
        index += 1
    if args.trace_out:
        tracer.write_spans(args.trace_out)
    return reps, records, layers


def _layer_metrics(workload: str, records, layers) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run and the problems its gate found."""
    from spans import UNITS, combine

    metrics = combine([m for _, m in layers])
    plain = [r["wall"] for r in records if not r["traced"]]
    traced = [r["wall"] for r in records if r["traced"]]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    problems = [f"{k} = {metrics[k]} on {workload}, predicted 0"
                for k in PREDICTED_ZEROS[workload] if metrics[k] != 0]
    counted = [k for k, u in UNITS.items() if u == "count"]
    first = {}
    for kind, m in layers:
        ref = first.setdefault(kind, m)
        if any(m[k] != ref[k] for k in counted):
            problems.append(f"per-layer counts differ between traced {kind} repetitions")
    return {k: {"value": metrics[k], "unit": u} for k, u in UNITS.items()}, problems


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    from probe import SETUP_INTERVAL_S, HostProbe
    from workloads import VARIANTS, WORKLOADS, load_reference

    # The probe samples the host's speed during set-up, for correcting setup_s.
    probe = HostProbe(numpy, time.perf_counter)
    with probe.sampling(SETUP_INTERVAL_S):
        pkg = load_package()
        pkg.reference = load_reference()
        work = WORKLOADS[args.workload](pkg, args.seed % VARIANTS)
        os.makedirs(args.workdir)
        setup_ops, problems = work.setup(args.workdir)
    setup_s = time.monotonic() - args.t0 - sum(s for _, s in probe.samples)
    setup_probe = statistics.mean(s for _, s in probe.samples)

    attempted, failed = setup_ops, len(problems)
    out = {}
    if args.trace:
        reps, records, layers = _traced(work, pkg, args)
        out["layers"], gate = _layer_metrics(args.workload, records, layers)
        attempted += len(PREDICTED_ZEROS[args.workload]) + 1
        failed += len(gate)
        problems += gate
    else:
        reps, records = _timed(work, pkg, args, probe)
    for rep in reps:
        attempted += rep.attempted
        failed += rep.failed
        problems += rep.problems
    if args.oracle and hasattr(work, "oracle_check"):
        n, bad, oracle_problems = work.oracle_check()
        attempted += n
        failed += bad
        problems += oracle_problems
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(dict(
        out, setup_s=setup_s, setup_probe_s=setup_probe, env=environment(pkg.np),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        reps=records, attempted=attempted, failed=failed, problems=len(problems))))
    return 0


# Layers each workload claims to bypass; a traced repetition must show zero.
PREDICTED_ZEROS = {
    "tf-kan": ("evaluation.rollout_mse.calls",),
    "bptt-mlp": ("splines.basis.calls", "evaluation.rollout_mse.calls"),
    "eval-ckpt": ("trainer.adam.calls",),
}


if __name__ == "__main__":
    sys.exit(main())
