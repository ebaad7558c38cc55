"""End-to-end acceptance suite: one test per release criterion, in order.

Each test exercises a finished-toolkit claim at a stated tolerance and prints
a single ``[PASS]/[FAIL] criterion N`` line with its wall time (visible under
``pytest -v -s``).  Criteria 7-9 run real sweeps into a session-scoped tmp
directory; the whole module is sized for a single core.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from residual_lab.dynamics import duffing, oscillator, vanderpol, generate_dataset
from residual_lab.evaluation import (
    GridSpec,
    R2_SENTINEL,
    SurfaceSample,
    discovery_r2,
    export_surface,
    load_surface,
    sample_surface,
    stlsq_fit,
)
from residual_lab.evaluation import test_mse as one_step_mse  # avoid pytest collection
from residual_lab.harness import (
    ARCH_REGISTRY,
    ExperimentConfig,
    SweepResult,
    aggregate_tables,
    resolve_arch,
    run_sweep,
)
from residual_lab.hybridcell import (
    HybridSystem,
    OracleResidual,
    bptt_grads_arrays,
    oracle_system,
    tf_loss_grads,
    transitions_of,
    windows_of,
)
from residual_lab.netcore import new_branch, param_count, product_construction
from residual_lab.splines import SplineSpec, dense_basis, fit_coefficients
from residual_lab.trainer import verify_gradients

EXPECTED_PARAMS = {
    "kan-very-small": 120,
    "kan-small": 240,
    "kan-wide": 480,
    "kan-deep": 880,
    "mlp-tiny": 105,
    "mlp-small": 337,
    "mlp-medium": 1185,
    "mlp-large": 4417,
}


def check(n: int, label: str, ok: bool, detail: str, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    line = f"[{verdict}] criterion {n}: {label} ({detail}; {elapsed:.1f}s)"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_01_parameter_counts():
    t0 = time.perf_counter()
    got = {}
    for name in ARCH_REGISTRY:
        arch, _ = resolve_arch(ExperimentConfig(config=name))
        got[name] = param_count(arch)
    check(1, "registry parameter counts exact", got == EXPECTED_PARAMS,
          f"{sorted(got.values())}", t0)


def test_criterion_02_oracle_closure():
    t0 = time.perf_counter()
    details, ok = [], True
    for name in ("duffing", "vanderpol"):
        spec = oscillator(name)
        ds = generate_dataset(spec, 4, 2, 0.01, 120, seed=0)
        h = oracle_system(spec, ds.dt)
        tf, _, _ = tf_loss_grads(h, *transitions_of(ds.train))
        bp, _, _ = bptt_grads_arrays(h, *windows_of(ds.train, 50))
        surface = sample_surface(OracleResidual(spec, ds.scale), spec,
                                 GridSpec(), ds.scale)
        r2 = discovery_r2(surface)
        mse = one_step_mse(h, ds.test)
        ok &= tf < 1e-16 and bp < 1e-14 and r2 == 1.0 and mse < 1e-16
        details.append(f"{name}: tf={tf:.2e} bptt={bp:.2e} r2={r2} mse={mse:.2e}")
    check(2, "oracle closure on both oscillators", ok, "; ".join(details), t0)


def test_criterion_03_gradient_suite():
    t0 = time.perf_counter()
    worst_tf = worst_bp = 0.0
    ok = True
    for name in ARCH_REGISTRY:
        arch, _ = resolve_arch(ExperimentConfig(config=name))
        branch = new_branch(arch, 0)
        rep = verify_gradients(HybridSystem(duffing(), branch, 0.01))
        worst_tf = max(worst_tf, rep.tf_error)
        worst_bp = max(worst_bp, rep.bptt_error)
        ok &= rep.passed
    check(3, "gradients match central differences for every architecture", ok,
          f"worst tf={worst_tf:.2e} (<1e-4), worst bptt={worst_bp:.2e} (<1e-3)", t0)


def test_criterion_04_spline_properties():
    t0 = time.perf_counter()
    u = np.linspace(-1.0, 1.0, 1000)
    worst_unity, worst_support = 0.0, 0
    for grid in (3, 5, 8, 20):
        for order in (0, 1, 2, 3):
            B, _ = dense_basis(SplineSpec(grid, order), u)
            worst_unity = max(worst_unity, float(np.abs(B.sum(axis=-1) - 1.0).max()))
            worst_support = max(worst_support,
                                int(np.count_nonzero(B, axis=-1).max()) - (order + 1))
    cubic = lambda z: 0.7 * z**3 - 0.4 * z**2 + 0.25 * z - 0.11
    dense = np.linspace(-1.0, 1.0, 2001)
    worst_cubic = 0.0
    for grid in (3, 5, 8, 20):
        spec = SplineSpec(grid, 3)
        coef = fit_coefficients(spec, cubic)
        B, _ = dense_basis(spec, dense)
        worst_cubic = max(worst_cubic, float(np.abs(B @ coef - cubic(dense)).max()))
    ok = worst_unity < 1e-10 and worst_support <= 0 and worst_cubic < 1e-9
    check(4, "partition of unity, local support, cubic reproduction", ok,
          f"unity={worst_unity:.2e} (<1e-10), support excess={worst_support}, "
          f"cubic={worst_cubic:.2e} (<1e-9)", t0)


def test_criterion_05_product_construction():
    t0 = time.perf_counter()
    branch = product_construction(SplineSpec(5, 3))
    xs = np.linspace(-1.0, 1.0, 50)
    X, V = np.meshgrid(xs, xs, indexing="ij")
    vals, _ = branch.prepare().eval_batch(np.stack([X.ravel(), V.ravel()], -1))
    err = float(np.abs(vals - (X * V).ravel()).max())
    check(5, "hand-set two-layer KAN computes x*v", err < 1e-6,
          f"max error {err:.2e} on 50x50 grid (<1e-6)", t0)


def test_criterion_06_symbolic_recovery():
    t0 = time.perf_counter()
    grid = GridSpec()
    X, V = grid.mesh()

    cubic = -0.234 * X**3
    fit1 = stlsq_fit(SurfaceSample(grid, cubic, cubic))
    ok1 = (set(fit1.active) == {"x^3"}
           and abs(fit1.active["x^3"] + 0.234) <= 1e-10 and fit1.r2 == 1.0)

    vdp = (1.0 - X**2) * V
    fit2 = stlsq_fit(SurfaceSample(grid, vdp, vdp))
    ok2 = (set(fit2.active) == {"v", "x^2*v"}
           and abs(fit2.active["v"] - 1.0) <= 1e-10
           and abs(fit2.active["x^2*v"] + 1.0) <= 1e-10)

    check(6, "STLSQ recovers -0.234x^3 and (1-x^2)v", ok1 and ok2,
          f"fit1={fit1}, fit2={fit2}", t0)


def test_criterion_07_qualitative_ordering(sweep_root):
    t0 = time.perf_counter()
    out = str(sweep_root / "ordering")

    def mean_r2(system, config):
        cfg = ExperimentConfig(system=system, config=config,
                               paradigm="teacher_forcing", n_seeds=10, out=out)
        return run_sweep(cfg).summary["discovery_r2"]["mean"]

    mlp_duffing = mean_r2("duffing", "mlp-small")
    mlp_vdp = mean_r2("vanderpol", "mlp-small")
    kan_vdp = mean_r2("vanderpol", "A")
    kan_duffing = mean_r2("duffing", "kan-very-small")

    ok_a = mlp_duffing >= 0.85
    ok_b = (mlp_vdp > kan_vdp) or (mlp_vdp > 0.5 and kan_vdp > 0.5)
    ok_c = kan_duffing >= 0.6
    check(7, "qualitative ordering at 10 seeds", ok_a and ok_b and ok_c,
          f"(a) mlp duffing {mlp_duffing:.3f}>=0.85; "
          f"(b) mlp vdp {mlp_vdp:.3f} vs kan vdp {kan_vdp:.3f}; "
          f"(c) kan duffing {kan_duffing:.3f}>=0.6", t0)


def _read_files(directory, names):
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_08_determinism_and_parallelism(sweep_root):
    t0 = time.perf_counter()
    base = dict(system="duffing", config="mlp-small", paradigm="teacher_forcing",
                n_seeds=3)
    names = ("metrics.csv", "summary.json", "config.txt")

    first = run_sweep(ExperimentConfig(**base, out=str(sweep_root / "det1")))
    snap1 = _read_files(first.directory, names)
    second = run_sweep(ExperimentConfig(**base, out=str(sweep_root / "det1")))
    snap2 = _read_files(second.directory, names)
    rerun_ok = snap1 == snap2

    parallel = run_sweep(ExperimentConfig(**base, out=str(sweep_root / "det2")),
                         workers=8)
    snap3 = _read_files(parallel.directory, names[:2])
    # config.txt echoes the differing out= path; the result files must match.
    workers_ok = all(snap1[n] == snap3[n] for n in names[:2])

    check(8, "byte-identical outputs across reruns and workers 1 vs 8",
          rerun_ok and workers_ok,
          f"rerun identical={rerun_ok}, workers identical={workers_ok}", t0)


def test_criterion_09_failure_path(sweep_root):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(system="duffing", config="kan-deep", paradigm="bptt",
                           learning_rate=10.0, steps=40, n_seeds=3,
                           out=str(sweep_root / "diverge"))
    result = run_sweep(cfg)
    statuses = [row.status for row in result.rows]
    csv_path, txt_path = aggregate_tables(
        [result], str(sweep_root / "diverge" / "report"))
    files_ok = os.path.exists(csv_path) and os.path.exists(txt_path)

    # Majority-divergence rendering, exercised through the same public path:
    # rows whose training never reached a finite checkpoint carry the R^2
    # sentinel, and a >50% sentinel cell must print as "(Unstable)".
    flagged = [dataclasses.replace(row, discovery_r2=R2_SENTINEL)
               for row in result.rows[:2]] + list(result.rows[2:])
    flagged_result = SweepResult(result.config, result.fingerprint, flagged,
                                 result.summary, result.directory)
    _, flagged_txt = aggregate_tables(
        [flagged_result], str(sweep_root / "diverge" / "flagged"))
    with open(flagged_txt) as fh:
        cell_ok = "(Unstable)" in fh.read()

    ok = (len(result.rows) == 3 and "Unstable" in statuses
          and files_ok and cell_ok)
    check(9, "divergent sweep completes; aggregate renders (Unstable)", ok,
          f"statuses={statuses}, unstable cell rendered={cell_ok}", t0)


def test_criterion_10_surface_export(tmp_path):
    t0 = time.perf_counter()
    spec = duffing()
    grid = GridSpec()
    X, V = grid.mesh()
    truth = spec.true_residual(X, V)
    surface = SurfaceSample(grid, truth, truth)
    paths = export_surface(surface, tmp_path / "duffing_truth")
    back = load_surface(paths[0])
    roundtrip_ok = (np.array_equal(back.values, surface.values)
                    and np.array_equal(back.truth, surface.truth)
                    and back.grid == grid)

    sidecar = {}
    with open(paths[3]) as fh:
        for line in fh:
            key, val = line.split()
            sidecar[key] = float(val)
    sidecar_ok = (sidecar["pred_min"] == truth.min()
                  and sidecar["pred_max"] == truth.max()
                  and sidecar["truth_min"] == truth.min()
                  and sidecar["truth_max"] == truth.max())

    check(10, "truth surface CSV round-trips; sidecar records per-panel range",
          roundtrip_ok and sidecar_ok and len(paths) == 4,
          f"roundtrip={roundtrip_ok}, sidecar={sidecar}", t0)
