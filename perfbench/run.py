"""residual-lab benchmark.

    python3 perfbench/run.py --workload tf-kan --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``tf-kan``, ``bptt-mlp``, ``eval-ckpt``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the run environment.

With ``--trace 0`` the metrics are the end-to-end ones: ``seeds_per_s``,
``setup_s``, ``peak_rss_mb`` and ``ok_frac``.  ``seeds_per_s`` and ``setup_s``
are corrected for the host's speed at the time (see ``probe.py``); the line
before the result gives the uncorrected values.  Set-up is paid once per worker
process, so the launcher starts ``PROCESSES`` processes one after another;
each imports the package, sets the workload up and runs its share of the
timed repetitions.  The set-up samples are thus spread over the whole run,
and ``setup_s`` is their median.  With ``--trace 1`` one process alternates
untraced and traced repetitions and the metrics are the per-layer ones from
``spans.py``.

The launcher applies the part of the correctness gate that spans processes:
every repetition of a kind must produce the same output bytes.

This launcher imports nothing from the package: every workload process
starts with the BLAS and OpenMP thread counts pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import probe
from workloads import WORKLOADS  # stdlib-only at import time

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESSES = 3
DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORK_ROOT = ".perfbench"


def _parse(argv):
    p = argparse.ArgumentParser(description="residual-lab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, seconds: float, first_rep: int, oracle: bool, workdir: str, env: dict,
            deadline: float, trace_out: str):
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--first-rep", str(first_rep), "--oracle", str(int(oracle)),
           "--t0", repr(t0), "--workdir", workdir, "--trace-out", trace_out]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest_misses(reps: list[dict]) -> int:
    """Operations of repetitions whose output differs from the first
    repetition of the same kind."""
    first, missed = {}, 0
    for i, rep in enumerate(reps):
        if rep["digest"] != first.setdefault(rep["kind"], rep["digest"]):
            missed += rep["attempted"] - rep["failed"]
            print(f"check failed: repetition {i} output differs from the first "
                  f"{rep['kind']} repetition", file=sys.stderr)
    return missed


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, exit through subprocess.run, which kills and waits for the
    # running worker, and through the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "residual_lab", "__init__.py")):
        print("error: src/residual_lab not found; run from the root of a "
              "residual-lab checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, **PINNED_ENV)
    run_dir = os.path.abspath(os.path.join(
        WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"))
    trace_out = ""
    if args.trace:
        os.makedirs(WORK_ROOT, exist_ok=True)
        trace_out = os.path.abspath(os.path.join(
            WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.csv"))
    n = PROCESSES if args.trace == 0 else 1
    outs, reps = [], []
    try:
        for i in range(n):
            out = _worker(args, args.seconds / n, len(reps), i == n - 1,
                          os.path.join(run_dir, f"p{i}"), env, deadline, trace_out)
            outs.append(out)
            reps += out["reps"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs) + _digest_misses(reps)
    correct = failed == 0 and not any(o["problems"] for o in outs)
    # How much slower than the reference the host ran during each process's
    # set-up, and over the timed repetitions.
    setup_slowdown = [o["setup_probe_s"] / probe.REFERENCE_S for o in outs]
    setup_s = [o["setup_s"] / f for o, f in zip(outs, setup_slowdown)]
    timed = [r for r in reps if not r["traced"]]
    raw_seeds_per_s = sum(r["seeds"] for r in timed) / sum(r["wall"] for r in timed)
    probes = sum(r["probes"] for r in timed)
    host_slowdown = sum(r["probe_s"] for r in timed) / (probes * probe.REFERENCE_S) if probes else None
    if args.trace:
        metrics = outs[0]["layers"]
    else:
        metrics = {
            "seeds_per_s": {"value": raw_seeds_per_s * host_slowdown, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": max(o["rss_mb"] for o in outs), "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
    print("env " + json.dumps(dict(
        outs[-1]["env"], workload=args.workload, seed=args.seed, reps=len(reps),
        rep_walls_s=[round(r["wall"], 6) for r in timed],
        raw_seeds_per_s=raw_seeds_per_s, host_slowdown=host_slowdown, probes=probes,
        raw_setup_s=[o["setup_s"] for o in outs], setup_slowdown=setup_slowdown),
        sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
