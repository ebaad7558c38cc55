"""Byte-identity digests: run a fixed set of sweeps, CLI commands and
gradient checks in a temporary directory and print one sha256 per output.

Every file the runs write is hashed, plus the standard output of each CLI
command and each ``verify_gradients`` report.  Run it on two checkouts and
diff the two listings: equal digests mean equal bytes.  The runs use paths
relative to the temporary directory, so no absolute path enters an output;
the one nondeterministic field, ``wall_time`` in the training report, is
dropped before hashing.

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt

``--keep DIR`` runs in DIR instead, which must not exist yet, and leaves
it in place, so two checkouts' outputs can be compared file by file, e.g.
``diff -r old/sweeps new/sweeps``.

``--seeds`` and ``--steps-scale`` shrink the runs to a smoke test.  The
block sweeps keep their 18 seeds whatever ``--seeds`` says, since their
point is the boundary between a block of 16 seeds and the next block of 2.
The MLP one runs once, again with per-seed datasets, again with two workers,
and once more resumed from a metrics file cut down to a scattered set of its
seeds; the KAN one runs once, so that stacked KAN weight matrices and
caches cross that boundary too.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

from residual_lab import cli
from residual_lab.dynamics import oscillator
from residual_lab.harness import ExperimentConfig, resolve_arch, run_sweep, sweep_directory
from residual_lab.hybridcell import HybridSystem
from residual_lab.netcore import new_branch
from residual_lab.trainer import verify_gradients

# (system, config, paradigm, training steps, integrator) of each sweep.
SWEEPS = (
    ("duffing", "A", "teacher_forcing", 200, "rk4"),
    ("vanderpol", "mlp-small", "bptt", 40, "rk4"),
    ("duffing", "G", "bptt", 40, "rk4"),
    ("duffing", "kan-deep", "bptt", 40, "rk4"),
    ("vanderpol", "A", "teacher_forcing", 100, "euler"),
)
# (digest key suffix, system, config, paradigm, training steps, scored on the
# saved gen-data set) of each checkpoint taken through train, eval, fit-symbolic
# and export-surface.  The KAN is scored on the default held-out set of 5
# trajectories x 1000 steps, as the eval-ckpt benchmark scores its checkpoints.
CLI_CHECKPOINTS = (
    ("", "vanderpol", "mlp-small", "bptt", 20, True),
    (" A", "duffing", "A", "teacher_forcing", 100, False),
)
# D adds the l1 term to the checked losses and G a 20-interval spline grid.
# Each is checked under both integrators.
GRADIENT_CHECKS = ("A", "D", "G", "mlp-small")
# (system, config, paradigm, training steps, seeds) of the block sweep, and
# the seeds its resumed copy keeps.
BLOCK_SWEEP = ("vanderpol", "mlp-small", "bptt", 5, 18)
RESUME_KEEP = (0, 3, 4, 9, 17)
# The same for the KAN block sweep, which runs once.
KAN_BLOCK_SWEEP = ("vanderpol", "A", "bptt", 5, 18)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv) -> bytes:
    """Standard output of one ``cli.main`` call; a nonzero exit is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"residual-lab {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".report.json"):
        report = json.loads(data)
        del report["wall_time"]
        data = json.dumps(report, sort_keys=True).encode()
    return sha256(data)


def digests(seeds: int, steps_scale: float) -> dict[str, str]:
    out: dict[str, str] = {}

    def steps(n):
        return max(1, round(n * steps_scale))

    for system, config, paradigm, n, integrator in SWEEPS:
        run_sweep(ExperimentConfig(system=system, config=config, paradigm=paradigm,
                                   n_seeds=seeds, steps=steps(n), integrator=integrator,
                                   out="sweeps"))

    system, config, paradigm, n, seeds = BLOCK_SWEEP
    block = ExperimentConfig(system=system, config=config, paradigm=paradigm, n_seeds=seeds,
                             steps=steps(n), out="blocks")
    run_sweep(block)
    run_sweep(dataclasses.replace(block, per_seed_data=True))
    run_sweep(dataclasses.replace(block, out="blocks-workers2"), workers=2)
    resumed = dataclasses.replace(block, out="blocks-resume")
    shutil.copytree(sweep_directory(block), sweep_directory(resumed))
    metrics = os.path.join(sweep_directory(resumed), "metrics.csv")
    with open(metrics) as fh:
        lines = fh.read().splitlines()
    kept = [line for line in lines[2:] if int(line.split(",")[4]) in RESUME_KEEP]
    with open(metrics, "w") as fh:
        fh.write("\n".join(lines[:2] + kept) + "\n")
    run_sweep(resumed)
    system, config, paradigm, n, seeds = KAN_BLOCK_SWEEP
    run_sweep(ExperimentConfig(system=system, config=config, paradigm=paradigm, n_seeds=seeds,
                               steps=steps(n), out="blocks"))

    data = run_cli(["gen-data", "--system", "vanderpol", "--n-train", "4", "--n-test", "2",
                    "--steps", "300", "--seed", "1", "--out", "data"]).decode().strip()
    out["stdout gen-data"] = sha256(data.encode())
    out["stdout eval --oracle"] = sha256(run_cli(["eval", "--system", "vanderpol", "--oracle",
                                                  "--data", data]))
    for suffix, system, config, paradigm, n, saved_data in CLI_CHECKPOINTS:
        printed = run_cli(["train", "--system", system, "--config", config, "--paradigm", paradigm,
                           "--steps", str(steps(n)), "--seed", "2", "--out", "runs"])
        out[f"stdout train{suffix}"] = sha256(printed)
        ckpt = printed.decode().rsplit("checkpoint=", 1)[1].strip()
        source = ["--system", system, "--checkpoint", ckpt]
        data_args = ["--data", data] if saved_data else []
        for name, argv in (
            ("eval", ["eval", *source, *data_args]),
            ("fit-symbolic", ["fit-symbolic", *source]),
            ("export-surface", ["export-surface", *source, "--out", "surface"]),
        ):
            out[f"stdout {name}{suffix}"] = sha256(run_cli(argv))

    for config in GRADIENT_CHECKS:
        arch, _ = resolve_arch(ExperimentConfig(config=config))
        branch = new_branch(arch, 0)
        for integrator, suffix in (("rk4", ""), ("euler", " euler")):
            system = HybridSystem(oscillator("duffing"), branch, 0.01, integrator)
            rep = verify_gradients(system)
            fields = (rep.tf_error.hex(), rep.bptt_error.hex(), str(rep.worst_index))
            out[f"verify_gradients {config}{suffix}"] = sha256(" ".join(fields).encode())

    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path)] = file_digest(path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=2, help="seeds per sweep")
    parser.add_argument("--steps-scale", type=float, default=1.0,
                        help="multiplier on every training step count")
    parser.add_argument("--keep", metavar="DIR",
                        help="run in DIR, which must not exist yet, and leave it in place")
    args = parser.parse_args(argv)
    if args.keep is not None:
        try:
            os.makedirs(args.keep)
        except FileExistsError:
            parser.error(f"--keep {args.keep}: already exists")
    cwd = os.getcwd()
    with (contextlib.nullcontext(args.keep) if args.keep is not None
          else tempfile.TemporaryDirectory()) as tmp:
        os.chdir(tmp)
        try:
            table = digests(args.seeds, args.steps_scale)
        finally:
            os.chdir(cwd)
    for key in sorted(table):
        print(f"{table[key]}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
