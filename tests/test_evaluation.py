import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import zero_branch

from residual_lab import hybridcell
from residual_lab.dynamics import (
    duffing,
    generate_dataset,
    oscillator,
    vanderpol,
)
from residual_lab.evaluation import (
    R2_SENTINEL,
    CandidateDictionary,
    GridSpec,
    MetricRow,
    SurfaceSample,
    SymbolicFit,
    _colormap,
    bootstrap_ci,
    discovery_r2,
    export_surface,
    format_fit_terms,
    load_surface,
    polynomial_dictionary,
    read_metrics,
    rollout_mse,
    sample_surface,
    stlsq_fit,
    write_metrics,
)
from residual_lab.evaluation import test_mse as one_step_mse  # avoid pytest collection
from residual_lab.harness import ExperimentConfig, make_train_config, resolve_arch
from residual_lab.hybridcell import (
    HybridSystem,
    OracleResidual,
    oracle_system,
    step_batch,
)
from residual_lab.netcore import new_branch
from residual_lab.rng import stream
from residual_lab.trainer import train


@pytest.fixture(scope="module")
def vdp_data():
    return generate_dataset(vanderpol(), 2, 2, 0.01, 100, seed=0)

SMALL_GRID = GridSpec(nx=20, nv=20)


def surface_from(fn, grid=SMALL_GRID):
    X, V = grid.mesh()
    return SurfaceSample(grid, fn(X, V), fn(X, V))


def surface_pair(pred_fn, truth_fn, grid=SMALL_GRID):
    X, V = grid.mesh()
    return SurfaceSample(grid, pred_fn(X, V), truth_fn(X, V))


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.nx == 100 and g.nv == 100
        assert g.x_range == (-2.5, 2.5) and g.v_range == (-2.5, 2.5)
        assert g.xs()[0] == -2.5 and g.xs()[-1] == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(nx=1)
        with pytest.raises(ValueError):
            GridSpec(x_range=(1.0, 1.0))


class TestSampleSurface:
    def test_oracle_matches_truth(self):
        orc = OracleResidual(duffing(), 2.5)
        s = sample_surface(orc, duffing(), SMALL_GRID)
        # The only difference is the (x/scale)*scale roundtrip, < 1 ulp.
        assert np.allclose(s.values, s.truth, rtol=1e-15, atol=1e-15)

    def test_zero_branch_all_zero(self):
        s = sample_surface(zero_branch(), vanderpol(), SMALL_GRID)
        assert np.array_equal(s.values, np.zeros_like(s.values))

    def test_duffing_truth_at_grid_corner(self):
        s = sample_surface(zero_branch(), duffing(), GridSpec())
        # truth at x = 2.5 is -0.3 * 2.5^3 for every v
        assert np.allclose(s.truth[-1, :], -4.6875, atol=1e-12)

    def test_shape_convention(self):
        # values[ix, iv]: x varies along the first axis.
        grid = GridSpec(nx=5, nv=3)
        s = sample_surface(zero_branch(), duffing(), grid)
        assert s.truth.shape == (5, 3)
        xs = grid.xs()
        assert np.allclose(s.truth[:, 0], -0.3 * xs**3)

    def test_flagged_on_non_finite(self):
        vals = np.zeros((20, 20))
        vals[3, 7] = np.nan
        s = SurfaceSample(SMALL_GRID, vals, np.ones((20, 20)))
        assert s.flagged

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SurfaceSample(SMALL_GRID, np.zeros((20, 19)), np.zeros((20, 20)))

    def test_peak_memory_below_one_whole_dense_basis(self):
        # The forward-only pass runs FORWARD_ROWS rows at a time, so the 10^4
        # nodes of the default grid never hold config G's whole dense basis:
        # 10^4 rows x 4 inputs x 23 columns x 8 bytes in its second layer.
        arch, _ = resolve_arch(ExperimentConfig(config="G"))
        branch = new_branch(arch, seed=0)
        grid = GridSpec()
        whole = grid.nx * grid.nv * arch.widths[1] * arch.spline.n_basis * 8
        assert whole > 7.3e6
        sample_surface(branch, duffing(), grid)
        tracemalloc.start()
        try:
            sample_surface(branch, duffing(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole


class TestDiscoveryR2:
    def test_exact_match_is_one(self):
        s = surface_from(lambda X, V: -0.3 * X**3)
        assert discovery_r2(s) == 1.0

    def test_mean_predictor_is_zero(self):
        X, V = SMALL_GRID.mesh()
        truth = (1 - X**2) * V
        s = SurfaceSample(SMALL_GRID, np.full_like(truth, truth.mean()), truth)
        assert discovery_r2(s) == pytest.approx(0.0, abs=1e-12)

    def test_zero_predictor_on_odd_truth_is_zero(self):
        # mean of -0.3 x^3 over the symmetric grid is 0, so SSres = SStot.
        X, V = GridSpec().mesh()
        s = SurfaceSample(GridSpec(), np.zeros_like(X), -0.3 * X**3)
        assert discovery_r2(s) == pytest.approx(0.0, abs=1e-12)

    def test_can_be_arbitrarily_negative(self):
        X, V = SMALL_GRID.mesh()
        s = SurfaceSample(SMALL_GRID, 1e3 * np.ones_like(X), -0.3 * X**3)
        assert discovery_r2(s) < -1e4

    def test_constant_offset_below_one(self):
        X, V = SMALL_GRID.mesh()
        truth = (1 - X**2) * V
        s = SurfaceSample(SMALL_GRID, truth + 0.5, truth)
        assert discovery_r2(s) < 1.0

    def test_non_finite_gives_minus_inf(self):
        vals = np.zeros((20, 20))
        vals[0, 0] = np.inf
        X, V = SMALL_GRID.mesh()
        s = SurfaceSample(SMALL_GRID, vals, -0.3 * X**3)
        assert discovery_r2(s) == float("-inf")

    def test_zero_variance_truth_rejected(self):
        s = SurfaceSample(SMALL_GRID, np.zeros((20, 20)), np.ones((20, 20)))
        with pytest.raises(ValueError):
            discovery_r2(s)

    def test_sentinel_constant(self):
        assert R2_SENTINEL == -10.0


class TestOneStepMse:
    def test_oracle_below_budget(self, vdp_data):
        h = oracle_system(vanderpol(), vdp_data.dt)
        assert one_step_mse(h, vdp_data.test) < 1e-16

    def test_zero_branch_positive(self, vdp_data):
        h = HybridSystem(vanderpol(), zero_branch(), vdp_data.dt)
        assert one_step_mse(h, vdp_data.test) > 0

    def test_halved_dt_still_exact(self):
        ds = generate_dataset(vanderpol(), 1, 1, 0.005, 100, seed=0)
        h = oracle_system(vanderpol(), 0.005)
        assert one_step_mse(h, ds.test) < 1e-16

    def test_divergence_gives_inf(self, vdp_data):
        h = HybridSystem(vanderpol(), zero_branch(), 1e9)
        assert one_step_mse(h, vdp_data.test) == float("inf")

    def test_rollout_mse_oracle(self, vdp_data):
        h = oracle_system(vanderpol(), vdp_data.dt)
        assert rollout_mse(h, vdp_data.test) < 1e-14
        zero = HybridSystem(vanderpol(), zero_branch(), vdp_data.dt)
        assert rollout_mse(zero, vdp_data.test) > one_step_mse(zero, vdp_data.test)


def reference_rollout_mse(system, trajectories):
    """Per-trajectory free rollout at batch size 1, summed step by step in a
    Python float: the loop the lockstep rollout_mse must reproduce."""
    total, count = 0.0, 0
    system = system.prepare()
    for states in trajectories:
        X, V, ok = states[:1, 0], states[:1, 1], np.ones((), dtype=bool)
        for t in range(1, len(states)):
            X, V, _ = step_batch(system, X, V, ok)
            if not ok:
                return float("inf")
            total += float((X[0] - states[t, 0]) ** 2 + (V[0] - states[t, 1]) ** 2)
            count += 1
    return total / count if np.isfinite(total) else float("inf")


class Softening:
    """Residual +0.3 x^3 on Duffing's linear part: the well has a barrier at
    |x| = 1.83, so a start beyond it runs away in a few time units and one
    inside it stays bounded."""

    params = np.zeros(0)

    def prepare(self, grads=None):
        return self

    def eval_batch(self, xn, vn):
        return 0.3 * (2.5 * np.asarray(xn)) ** 3, None


def softening_system():
    return HybridSystem(duffing(), Softening(), 0.01, scale=2.5)


def free_trajectory(x0, v0, n):
    """A (1, n + 1, 2) trajectory array starting at (x0, v0)."""
    states = np.zeros((1, n + 1, 2))
    states[0, 0] = (x0, v0)
    return states


def count_steps(monkeypatch):
    calls = []
    original = hybridcell.step_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(hybridcell, "step_batch", counted)
    return calls


@pytest.fixture(scope="module", params=["duffing", "vanderpol"])
def trained_systems(request):
    """Briefly trained A, G and mlp-small systems and a small held-out set."""
    spec = oscillator(request.param)
    ds = generate_dataset(spec, 4, 4, 0.01, 250, seed=3)
    systems = {}
    for config in ("A", "G", "mlp-small"):
        cfg = ExperimentConfig(system=request.param, config=config, steps=30)
        arch, _ = resolve_arch(cfg)
        h = HybridSystem(spec, new_branch(arch, 3), ds.dt, scale=ds.scale)
        train(h, ds, make_train_config(cfg, arch, 3))
        systems[config] = h
    return systems, ds.test


class TestRolloutMse:
    def test_matches_per_trajectory_reference(self, trained_systems):
        systems, test = trained_systems
        for config, h in systems.items():
            got, want = rollout_mse(h, test), reference_rollout_mse(h, test)
            assert np.isfinite(want), config
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), config

    def test_one_diverging_trajectory_gives_inf(self):
        h = softening_system()
        finite = np.concatenate([free_trajectory(0.3, 0.0, 600), free_trajectory(-0.5, 0.2, 600)])
        assert np.isfinite(rollout_mse(h, finite))
        runaway = np.concatenate([finite[:1], free_trajectory(2.5, 0.0, 600), finite[1:]])
        assert rollout_mse(h, runaway) == float("inf")
        assert reference_rollout_mse(h, runaway) == float("inf")

    def test_lockstep_one_step_call_per_time_step(self, monkeypatch, vdp_data):
        h = HybridSystem(vanderpol(), zero_branch(), vdp_data.dt)
        test = np.concatenate([vdp_data.test, vdp_data.train])  # 4 trajectories of 100 steps
        calls = count_steps(monkeypatch)
        rollout_mse(h, test)
        assert len(calls) == 100

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="no trajectories"):
            rollout_mse(HybridSystem(vanderpol(), zero_branch(), 0.01), np.zeros((0, 2, 2)))


class TestDictionary:
    def test_default_ordering(self):
        d = polynomial_dictionary()
        assert d.names == ("1", "x", "v", "x^2", "x*v", "v^2",
                           "x^3", "x^2*v", "x*v^2", "v^3")

    def test_design_matrix(self):
        d = polynomial_dictionary()
        A = d.design_matrix(np.array([2.0]), np.array([3.0]))
        assert np.array_equal(A[0], [1, 2, 3, 4, 6, 9, 8, 12, 18, 27])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            CandidateDictionary(("x", "x"), ((1, 0), (1, 0)))

    def test_degree_knob(self):
        assert len(polynomial_dictionary(2).names) == 6
        assert len(polynomial_dictionary(4).names) == 15


class TestStlsq:
    def test_duffing_style_cubic(self):
        s = surface_from(lambda X, V: -0.234 * X**3, GridSpec())
        fit = stlsq_fit(s)
        assert set(fit.active) == {"x^3"}
        assert fit.active["x^3"] == pytest.approx(-0.234, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_vanderpol_style_terms(self):
        s = surface_from(lambda X, V: (1 - X**2) * V, GridSpec())
        fit = stlsq_fit(s)
        assert set(fit.active) == {"v", "x^2*v"}
        assert fit.active["v"] == pytest.approx(1.0, abs=1e-10)
        assert fit.active["x^2*v"] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_surface(self):
        s = surface_from(lambda X, V: np.zeros_like(X))
        fit = stlsq_fit(s, threshold=0.05)
        assert fit.active == {}
        assert fit.r2 == 1.0  # exact zero-variance match, by convention

    def test_threshold_zero_is_ols(self):
        rng = stream(0, "bootstrap")
        X, V = SMALL_GRID.mesh()
        noise = rng.normal(0, 0.1, size=X.shape)
        s = SurfaceSample(SMALL_GRID, -0.3 * X**3 + noise, -0.3 * X**3)
        fit = stlsq_fit(s, threshold=0.0, max_iters=1)
        d = polynomial_dictionary()
        A = d.design_matrix(X.ravel(), V.ravel())
        ols, *_ = np.linalg.lstsq(A, s.values.ravel(), rcond=None)
        assert np.allclose(fit.coefficients, ols, atol=1e-12)

    def test_inactive_terms_exactly_zero(self):
        s = surface_from(lambda X, V: -0.3 * X**3 + 0.001 * V)
        fit = stlsq_fit(s, threshold=0.05)
        inactive = [c for n, c in zip(fit.names, fit.coefficients) if n not in fit.active]
        assert all(c == 0.0 for c in inactive)

    @given(st.lists(st.sampled_from(range(10)), min_size=1, max_size=3, unique=True),
           st.integers(0, 2**31 - 1))
    def test_sparse_recovery_property(self, terms, seed):
        # Any surface built from <= 3 dictionary terms with coefficients at
        # least twice the threshold is recovered exactly.
        rng = stream(seed, "bootstrap")
        d = polynomial_dictionary()
        coef = np.zeros(10)
        signs = rng.choice([-1.0, 1.0], size=len(terms))
        coef[list(terms)] = signs * rng.uniform(0.1, 2.0, size=len(terms))
        X, V = SMALL_GRID.mesh()
        A = d.design_matrix(X.ravel(), V.ravel())
        s = SurfaceSample(SMALL_GRID, (A @ coef).reshape(X.shape), np.zeros_like(X) + X)
        fit = stlsq_fit(s, threshold=0.05)
        assert np.abs(fit.coefficients - coef).max() < 1e-8

    def test_iterations_capped(self):
        s = surface_from(lambda X, V: -0.3 * X**3)
        fit = stlsq_fit(s, max_iters=1)
        assert fit.iterations == 1

    def test_validation(self):
        s = surface_from(lambda X, V: X)
        for threshold in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="threshold"):
                stlsq_fit(s, threshold=threshold)
        with pytest.raises(ValueError):
            stlsq_fit(s, max_iters=0)

    def test_str_rendering(self):
        fit = SymbolicFit(("1", "x"), np.array([0.0, -0.5]), 1.0, 1)
        assert str(fit) == "-0.5*x"
        assert str(SymbolicFit(("1",), np.zeros(1), 1.0, 1)) == "0"


class TestBootstrap:
    def test_constant_values(self):
        assert bootstrap_ci([0.5, 0.5, 0.5]) == (0.5, 0.5, 0.5)

    def test_two_point_extremes(self):
        mean, lo, hi = bootstrap_ci([0.0, 1.0], n_resamples=10000, seed=0)
        assert mean == 0.5
        assert lo == 0.0 and hi == 1.0  # all-0 and all-1 resamples occur

    def test_deterministic_per_seed(self):
        vals = list(stream(1, "bootstrap").normal(0, 1, 30))
        assert bootstrap_ci(vals, seed=7) == bootstrap_ci(vals, seed=7)
        assert bootstrap_ci(vals, seed=7) != bootstrap_ci(vals, seed=8)

    def test_ordering(self):
        vals = list(stream(2, "bootstrap").normal(0, 1, 25))
        _, lo, hi = bootstrap_ci(vals)
        assert lo <= hi

    def test_width_shrinks_with_sample_size(self):
        # Median CI width at N=100 < at N=10 over 50 synthetic trials.
        rng = stream(3, "bootstrap")
        widths = {10: [], 100: []}
        for trial in range(50):
            for n in (10, 100):
                vals = rng.normal(0.0, 1.0, n)
                _, lo, hi = bootstrap_ci(vals, n_resamples=500, seed=trial)
                widths[n].append(hi - lo)
        assert np.median(widths[100]) < np.median(widths[10])

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], n_resamples=0)


def reference_write_ppm(panel, path):
    """The heat-map writer as it was: one f-string per pixel."""
    lo, hi = float(panel.min()), float(panel.max())
    t = np.full_like(panel, 0.5) if hi == lo else (panel - lo) / (hi - lo)
    img = _colormap(t.T[::-1, :])
    lines = ["P3", f"{img.shape[1]} {img.shape[0]}", "255"]
    for row in img:
        lines.append(" ".join(f"{r} {g} {b}" for r, g, b in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_export_csv(s, path):
    """The CSV writer as it was: one format call per field."""
    xs, vs = s.grid.xs(), s.grid.vs()
    rows = ["x,v,value,truth"]
    for i in range(s.grid.nx):
        for j in range(s.grid.nv):
            rows.append(",".join("%.17g" % f for f in
                                 (xs[i], vs[j], s.values[i, j], s.truth[i, j])))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


class TestExport:
    def test_bytes_equal_to_per_field_writer(self, tmp_path):
        # A -0.0 node, a flat panel (hi == lo) on each side in turn, and the
        # default 100 x 100 grid of a Duffing oracle surface.
        grid = GridSpec((-1.5, 2.0), (-0.5, 0.75), nx=7, nv=4)
        X, V = grid.mesh()
        varied = 0.3 * X * V - X**3 / 7.0
        varied[2, 1] = -0.0
        flat = np.full(X.shape, 1.25)
        cases = [SurfaceSample(grid, varied, flat), SurfaceSample(grid, flat, varied),
                 sample_surface(OracleResidual(duffing(), 2.5), duffing())]
        for n, s in enumerate(cases):
            export_surface(s, tmp_path / f"new{n}")
            reference_export_csv(s, tmp_path / f"ref{n}.csv")
            reference_write_ppm(s.values, tmp_path / f"ref{n}.pred.ppm")
            reference_write_ppm(s.truth, tmp_path / f"ref{n}.truth.ppm")
            for suffix in (".csv", ".pred.ppm", ".truth.ppm"):
                got = (tmp_path / f"new{n}{suffix}").read_bytes()
                assert got == (tmp_path / f"ref{n}{suffix}").read_bytes(), (n, suffix)
        assert b",-0,1.25\n" in (tmp_path / "new0.csv").read_bytes()

    def test_csv_roundtrip(self, tmp_path):
        grid = GridSpec(nx=2, nv=2)
        X, V = grid.mesh()
        s = SurfaceSample(grid, 0.25 * X * V, -0.3 * X**3)
        files = export_surface(s, tmp_path / "surf")
        back = load_surface(files[0])
        assert np.array_equal(back.values, s.values)
        assert np.array_equal(back.truth, s.truth)
        assert back.grid == s.grid

    def test_writes_all_four_files(self, tmp_path):
        s = surface_from(lambda X, V: X + V)
        files = export_surface(s, tmp_path / "surf")
        assert [f.rsplit(".", 2)[-1] for f in files] == ["csv", "ppm", "ppm", "txt"]
        for f in files:
            assert (tmp_path / f.split("/")[-1]).exists()

    def test_constant_surface_uniform_midcolor(self, tmp_path):
        grid = GridSpec(nx=4, nv=4)
        s = SurfaceSample(grid, np.full((4, 4), 2.0), np.full((4, 4), 2.0) + np.eye(4))
        export_surface(s, tmp_path / "flat")
        body = (tmp_path / "flat.pred.ppm").read_text().splitlines()
        assert body[0] == "P3"
        pixels = " ".join(body[3:]).split()
        assert set(pixels) == {"255"}  # t = 0.5 maps to white

    def test_duffing_max_x_column_most_negative_color(self, tmp_path):
        s = sample_surface(OracleResidual(duffing(), 2.5), duffing(), GridSpec(nx=10, nv=5))
        export_surface(s, tmp_path / "duf")
        lines = (tmp_path / "duf.truth.ppm").read_text().splitlines()
        w, h = (int(t) for t in lines[1].split())
        assert (w, h) == (10, 5)
        first_row = [int(t) for t in lines[3].split()]
        # Rightmost pixel = max x = most negative residual = pure blue.
        assert first_row[-3:] == [0, 0, 255]

    def test_sidecar_records_independent_scales(self, tmp_path):
        grid = GridSpec(nx=3, nv=3)
        X, V = grid.mesh()
        s = SurfaceSample(grid, X, 10.0 * X)
        export_surface(s, tmp_path / "sc")
        side = dict(line.split() for line in (tmp_path / "sc.scale.txt").read_text().splitlines())
        assert float(side["pred_min"]) == -2.5 and float(side["pred_max"]) == 2.5
        assert float(side["truth_min"]) == -25.0 and float(side["truth_max"]) == 25.0

    def test_non_finite_surface_rejected(self, tmp_path):
        vals = np.zeros((20, 20))
        vals[0, 0] = np.nan
        s = SurfaceSample(SMALL_GRID, vals, np.zeros((20, 20)))
        with pytest.raises(ValueError):
            export_surface(s, tmp_path / "bad")


class TestMetricsFile:
    def row(self, seed=0, r2=0.9):
        return MetricRow("duffing", "kan-very-small", "A", "teacher_forcing", seed,
                         r2, 1e-8, 0.99, "x^3:-0.29", "MaxSteps")

    def test_roundtrip(self, tmp_path):
        rows = [self.row(seed=s, r2=0.9 - 0.1 * s) for s in range(3)]
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows, fingerprint="abc123")
        back, fp = read_metrics(path)
        assert fp == "abc123"
        assert back == rows

    def test_no_fingerprint(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics(path, [self.row()])
        back, fp = read_metrics(path)
        assert fp is None
        assert len(back) == 1

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_metrics(path)

    @pytest.mark.parametrize("terms,status", [("", "Unstable"), ("1:0.5;x^2*v:-1", "Converged"),
                                              ("x^3:-0.3", "Oracle")])
    def test_written_terms_and_statuses_read_back(self, tmp_path, terms, status):
        row = MetricRow("vanderpol", "mlp-small", "mlp-small", "bptt", 4, -10.0, np.inf, 0.0,
                        terms, status)
        path = tmp_path / "metrics.csv"
        write_metrics(path, [row])
        assert read_metrics(path)[0] == [row]

    @pytest.mark.parametrize("column,text", [(8, "nan"), (8, "x:abc"), (8, "x:inf"), (8, ":1"),
                                             (8, "x:1;"), (9, "Bogus"), (9, "")])
    def test_bad_terms_or_status_named(self, tmp_path, column, text):
        path = tmp_path / "metrics.csv"
        write_metrics(path, [self.row()])
        header, line = path.read_text().splitlines()
        fields = line.split(",")
        fields[column] = text
        path.write_text(header + "\n" + ",".join(fields) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed metrics row")):
            read_metrics(path)

    def test_format_fit_terms(self):
        fit = SymbolicFit(("1", "x^3"), np.array([0.0, -0.234]), 1.0, 2)
        assert format_fit_terms(fit) == "x^3:-0.23400000000000001"
