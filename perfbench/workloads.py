"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop with one client: a repetition starts only
after the previous one has finished, and everything runs in this process
with ``workers=1``.  A repetition always writes into a fresh directory,
because ``run_sweep`` resumes completed rows and would otherwise do no work.

* ``tf-kan``: teacher-forcing sweeps on Duffing with configs A (G=5) and
  G (G=20).  Spline basis and the KAN path of netcore dominate.
* ``bptt-mlp``: a BPTT sweep on Van der Pol with ``mlp-small``.  No spline
  calls; many 16-row network calls down a 50-step chain and its adjoint.
* ``eval-ckpt``: set-up trains short checkpoints through ``cli.main train``;
  a repetition runs ``eval``, ``fit-symbolic`` and ``export-surface``
  through ``cli.main`` on the checkpoints of one system, and repetitions
  alternate between the systems.  Forward-only network calls, mostly 1-row
  calls from ``rollout_mse`` over the default held-out set.

The workload seed picks one of ``VARIANTS`` input variants; the variant is
the sweep's ``data_seed`` and the checkpoints' seed, and selects the
reference outcomes in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re

VARIANTS = 8
# Discovery R^2 may move this much from the recorded reference before a seed
# counts as failed.  Perf work may change float rounding: relative noise of
# 2e-16 injected into every spline basis (tf-kan) or branch output
# (bptt-mlp) moved R^2 by at most 2.2e-16.
R2_TOL = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclasses.dataclass
class Rep:
    """Outcome of one repetition."""

    seeds: int  # seeds (sweeps) or checkpoints (eval) completed
    attempted: int
    failed: int
    kind: str  # repetitions of one kind do the same work
    digest: str  # hash of the output bytes, equal for every repetition of a kind
    outcomes: dict  # per-seed results compared with the reference
    problems: list


class _Counter:
    """Counts calls to ``module.attr`` for the length of a ``with`` block."""

    def __init__(self, module, attr):
        self.module, self.attr, self.n = module, attr, 0

    def __enter__(self):
        inner = self.original = getattr(self.module, self.attr)

        def counted(*args, **kwargs):
            self.n += 1
            return inner(*args, **kwargs)

        setattr(self.module, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def _r2_matches(ref_r2: float, r2: float, tol: float = R2_TOL) -> bool:
    if not (math.isfinite(ref_r2) and math.isfinite(r2)):
        return ref_r2 == r2
    return abs(ref_r2 - r2) <= tol


def _printed_tol(ref_r2: float) -> float:
    """Tolerance for an R^2 read from the CLI, which prints 6 significant
    digits: two units in the last printed digit of the reference."""
    if ref_r2 == 0 or not math.isfinite(ref_r2):
        return R2_TOL
    return max(R2_TOL, 2 * 10.0 ** (math.floor(math.log10(abs(ref_r2))) - 5))


class SweepWorkload:
    """Sweeps through ``harness.run_sweep(cfg, workers=1)``."""

    KINDS = ("sweep",)

    def __init__(self, pkg, name: str, variant: int, templates: list[dict]):
        self.pkg, self.name, self.variant = pkg, name, variant
        self.cfgs = [pkg.harness.ExperimentConfig(data_seed=variant, **t) for t in templates]

    def setup(self, workdir: str) -> tuple[int, list[str]]:
        # Warm-up: one short seed per config, so the timed repetitions do not
        # pay first-call costs.  It writes into its own directory.
        warm = os.path.join(workdir, "warmup")
        for cfg in self.cfgs:
            self.pkg.harness.run_sweep(
                dataclasses.replace(cfg, out=warm, n_seeds=1, steps=2), workers=1)
        return 0, []

    def rep(self, out: str, index: int) -> tuple[float, float, Rep]:
        """Run repetition ``index`` into ``out``; returns the clock readings
        at its start and end, and its checked outcome."""
        harness = self.pkg.harness
        os.makedirs(out)
        clock = self.pkg.clock
        with _Counter(harness, "run_single_seed") as trained:
            t0 = clock()
            results = [harness.run_sweep(dataclasses.replace(cfg, out=out), workers=1)
                       for cfg in self.cfgs]
            t1 = clock()
        return t0, t1, self._check(results, trained.n)

    def _check(self, results, trained: int) -> Rep:
        problems = []
        seeds = sum(cfg.n_seeds for cfg in self.cfgs)
        digest = hashlib.sha256()
        outcomes = {}
        failed = 0
        if trained != seeds:
            problems.append(f"trained {trained} seeds, reported {seeds}")
        for cfg, res in zip(self.cfgs, results):
            with open(os.path.join(res.directory, "metrics.csv"), "rb") as fh:
                digest.update(fh.read())
            rows = [[r.status, r.discovery_r2] for r in res.rows]
            outcomes[cfg.config] = rows
            if len(rows) != cfg.n_seeds:
                problems.append(f"{cfg.config}: {len(rows)} rows for {cfg.n_seeds} seeds")
        ref = self.pkg.reference.get(self.name, {}).get(str(self.variant))
        for cfg in self.cfgs:
            got = outcomes.get(cfg.config, [])
            want = ref.get(cfg.config, []) if ref else []
            for i in range(cfg.n_seeds):
                bad = (i >= len(got) or i >= len(want) or got[i][0] == "Unstable"
                       or got[i][0] != want[i][0] or not _r2_matches(want[i][1], got[i][1]))
                if bad:
                    failed += 1
                    problems.append(f"{cfg.config} seed {i}: got {got[i] if i < len(got) else None}, "
                                    f"reference {want[i] if i < len(want) else None}")
        if problems and not failed:
            failed = seeds
        return Rep(seeds, seeds, failed, "sweep", digest.hexdigest(), outcomes, problems)


_KV = re.compile(r"(\w+)=(\S+)")


class EvalWorkload:
    """Evaluation of trained checkpoints through ``cli.main``."""

    SYSTEMS = ("duffing", "vanderpol")
    KINDS = SYSTEMS  # repetition i evaluates the checkpoints of SYSTEMS[i % 2]
    CONFIGS = ("A", "G", "mlp-small")
    # The default held-out set (5 trajectories x 1000 steps) is kept, so
    # rollout_mse makes 1000 one-row step_batch calls per trajectory.
    CONFIG_FIELDS = {"paradigm": "teacher_forcing", "steps": 100}

    def __init__(self, pkg, name: str, variant: int):
        self.pkg, self.name, self.variant = pkg, name, variant
        # system -> [(key, config file, checkpoint)]
        self.ckpts: dict[str, list[tuple[str, str, str]]] = {s: [] for s in self.SYSTEMS}
        self.train_status: dict[str, str] = {}

    def _cli(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pkg.cli.main(argv)
        return rc, buf.getvalue()

    def setup(self, workdir: str) -> tuple[int, list[str]]:
        """Train one checkpoint per (system, config); returns the number of
        train calls and the problems seen."""
        problems = []
        ckdir = os.path.join(workdir, "checkpoints")
        os.makedirs(ckdir)
        for system in self.SYSTEMS:
            for config in self.CONFIGS:
                key = f"{system}-{config}"
                cfg_path = os.path.join(ckdir, key + ".cfg")
                fields = dict(self.CONFIG_FIELDS, system=system, config=config,
                              data_seed=self.variant)
                with open(cfg_path, "w") as fh:
                    fh.writelines(f"{k} = {v}\n" for k, v in fields.items())
                rc, text = self._cli(["train", "--config-file", cfg_path,
                                      "--seed", str(self.variant), "--out", ckdir])
                kv = dict(_KV.findall(text))
                if rc != 0 or "checkpoint" not in kv:
                    problems.append(f"train {key}: exit {rc}: {text.strip()}")
                    continue
                self.train_status[key] = kv["status"]
                self.ckpts[system].append((key, cfg_path, kv["checkpoint"]))
        return len(self.SYSTEMS) * len(self.CONFIGS), problems

    def rep(self, out: str, index: int) -> tuple[float, float, Rep]:
        system = self.KINDS[index % len(self.KINDS)]
        os.makedirs(out)
        clock = self.pkg.clock
        calls = []
        t0 = clock()
        for key, cfg_path, ckpt in self.ckpts[system]:
            common = ["--config-file", cfg_path, "--checkpoint", ckpt]
            calls.append((key, "eval", self._cli(["eval", *common, "--seed", str(self.variant)])))
            calls.append((key, "fit-symbolic", self._cli(["fit-symbolic", *common])))
            calls.append((key, "export-surface", self._cli(
                ["export-surface", *common, "--out", os.path.join(out, key)])))
        t1 = clock()
        return t0, t1, self._check(system, out, calls)

    def _check(self, system: str, out: str, calls) -> Rep:
        problems = []
        failed = 0
        digest = hashlib.sha256()
        outcomes = {}
        ref = self.pkg.reference.get(self.name, {}).get(str(self.variant), {})
        for key, cmd, (rc, text) in calls:
            bad = rc != 0
            digest.update(f"{key} {cmd} {rc}\n{text.replace(out, '<out>')}".encode())
            if cmd == "eval" and not bad:
                r2 = float(dict(_KV.findall(text)).get("discovery_r2", "nan"))
                outcomes[key] = [self.train_status.get(key), r2]
                want = ref.get(key)
                bad = (want is None or want[0] != self.train_status.get(key)
                       or not _r2_matches(want[1], r2, _printed_tol(want[1])))
            if cmd == "export-surface" and not bad:
                for path in text.split():
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
            if bad:
                failed += 1
                problems.append(f"{cmd} {key}: exit {rc}: {text.strip()[:200]} "
                                f"(reference {ref.get(key)})")
        if len(outcomes) != len(self.CONFIGS):
            problems.append(f"evaluated {len(outcomes)} checkpoints of {system}")
            failed = max(failed, 1)
        return Rep(len(self.ckpts[system]), len(calls), failed, system, digest.hexdigest(),
                   outcomes, problems)

    def oracle_check(self) -> tuple[int, int, list[str]]:
        """The analytical residual must score Discovery R^2 of exactly 1.0,
        both as printed by ``eval --oracle`` and through the API."""
        pkg = self.pkg
        problems = []
        for system in self.SYSTEMS:
            if not self.ckpts[system]:
                problems.append(f"no checkpoint of {system} to take the oracle's settings from")
                continue
            cfg_path = self.ckpts[system][0][1]
            rc, text = self._cli(["eval", "--config-file", cfg_path, "--oracle"])
            if rc != 0 or dict(_KV.findall(text)).get("discovery_r2") != "1":
                problems.append(f"eval --oracle {system}: exit {rc}: {text.strip()}")
            spec = pkg.dynamics.oscillator(system)
            scale = pkg.dynamics.DEFAULT_SCALE
            surface = pkg.evaluation.sample_surface(
                pkg.hybridcell.OracleResidual(spec, scale), spec,
                pkg.evaluation.GridSpec(), scale)
            r2 = pkg.evaluation.discovery_r2(surface)
            if r2 != 1.0:
                problems.append(f"oracle surface R^2 {r2!r} on {system}, not 1.0")
        return 2 * len(self.SYSTEMS), len(problems), problems


WORKLOADS = {
    "tf-kan": lambda pkg, v: SweepWorkload(pkg, "tf-kan", v, [
        dict(system="duffing", config=c, paradigm="teacher_forcing", n_seeds=2, steps=100)
        for c in ("A", "G")]),
    "bptt-mlp": lambda pkg, v: SweepWorkload(pkg, "bptt-mlp", v, [
        dict(system="vanderpol", config="mlp-small", paradigm="bptt", n_seeds=4, steps=25)]),
    "eval-ckpt": lambda pkg, v: EvalWorkload(pkg, "eval-ckpt", v),
}
