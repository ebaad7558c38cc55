import dataclasses
import json

import numpy as np
import pytest

from residual_lab.evaluation import MetricRow, R2_SENTINEL, read_metrics, write_metrics
from residual_lab.harness import (
    ARCH_REGISTRY,
    ExperimentConfig,
    PresetConfig,
    SweepResult,
    _run_block,
    aggregate_tables,
    builtin_configs,
    config_fingerprint,
    load_config_file,
    load_sweep,
    make_train_config,
    output_root,
    resolve_arch,
    run_sweep,
    save_config_file,
    sweep_directory,
)
from residual_lab.netcore import KanArch, MlpArch, param_count
from residual_lab.trainer import BPTT, TEACHER_FORCING


def oracle_config(tmp_path, **kw):
    base = dict(system="duffing", config="A", paradigm=TEACHER_FORCING, n_seeds=3,
                out=str(tmp_path), oracle=True, n_train_ics=2, n_test_ics=1,
                data_steps=100)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRegistry:
    def test_config_a_and_f_grids(self):
        presets = builtin_configs()
        assert (presets["A"].grid_size, presets["A"].order) == (5, 3)
        assert (presets["F"].grid_size, presets["F"].order) == (3, 3)
        assert not presets["A"].reconstructed
        assert not presets["F"].reconstructed

    def test_reconstructed_variants(self):
        presets = builtin_configs()
        assert presets["B"].base_blend is False
        assert presets["C"].l1_weight == 1e-4
        assert presets["D"].l1_weight == 1e-2
        assert presets["E"].grid_size == 8
        assert presets["G"].grid_size == 20
        for name in "BCDEG":
            assert presets[name].reconstructed
            assert presets[name].arch == "kan-very-small"

    def test_scale_entry_param_counts(self):
        counts = set()
        for entry in ARCH_REGISTRY.values():
            cfg = ExperimentConfig(config=entry.name)
            arch, _ = resolve_arch(cfg)
            counts.add(param_count(arch))
        assert counts == {120, 240, 480, 880, 105, 337, 1185, 4417}

    def test_all_fifteen_presets(self):
        presets = builtin_configs()
        assert set(presets) == set("ABCDEFG") | set(ARCH_REGISTRY)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(system="lorenz")
        with pytest.raises(ValueError):
            ExperimentConfig(paradigm="sgd")
        with pytest.raises(ValueError):
            ExperimentConfig(integrator="verlet")
        with pytest.raises(ValueError):
            ExperimentConfig(n_seeds=0)

    @pytest.mark.parametrize("fields", [
        dict(n_test_ics=0),
        dict(n_test_ics=0, oracle=True),
        dict(dt=0.0),
        dict(dt=-0.01),
        dict(data_steps=1),
        dict(n_train_ics=0),
        dict(paradigm=BPTT, horizon=51, data_steps=50),
        dict(dt=float("nan")),
        dict(dt=float("inf")),
        dict(noise_std=-1.0),
        dict(noise_std=float("nan")),
        dict(noise_std=float("inf")),
    ])
    def test_data_fields_that_fail_every_seed_rejected(self, fields):
        with pytest.raises(ValueError):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("fields,message", [
        (dict(steps=0), "steps"),
        (dict(learning_rate=-1.0), "learning_rate"),
        (dict(batch_size=-1), "batch_size"),
        (dict(horizon=0), "horizon"),
        (dict(beta1=1.0), "betas"),
        (dict(beta2=0.0), "betas"),
    ])
    def test_training_fields_that_fail_every_seed_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)
        ExperimentConfig(oracle=True, **fields)

    def test_oracle_needs_no_training_data(self):
        ExperimentConfig(oracle=True, n_train_ics=0)
        ExperimentConfig(oracle=True, paradigm=BPTT, horizon=51, data_steps=50)
        ExperimentConfig(paradigm=BPTT, horizon=50, data_steps=50)

    def test_resolve_arch_preset(self):
        arch, preset = resolve_arch(ExperimentConfig(config="A"))
        assert isinstance(arch, KanArch)
        assert arch.widths == (2, 4, 1)
        assert (arch.spline.grid_size, arch.spline.order) == (5, 3)
        arch, _ = resolve_arch(ExperimentConfig(config="mlp-small"))
        assert isinstance(arch, MlpArch)
        assert arch.widths == (2, 16, 16, 1)

    def test_resolve_arch_overrides(self):
        arch, _ = resolve_arch(ExperimentConfig(config="A", grid_size=8, l1_weight=0.5,
                                                base_blend=False))
        assert arch.spline.grid_size == 8
        assert arch.l1_weight == 0.5
        assert arch.base_blend is False

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            resolve_arch(ExperimentConfig(config="Z"))

    def test_train_config_defaults_by_family(self):
        kan_cfg = ExperimentConfig(config="A")
        kan_arch, _ = resolve_arch(kan_cfg)
        assert make_train_config(kan_cfg, kan_arch, 0).learning_rate == 3e-3
        mlp_cfg = ExperimentConfig(config="mlp-small")
        mlp_arch, _ = resolve_arch(mlp_cfg)
        assert make_train_config(mlp_cfg, mlp_arch, 0).learning_rate == 1e-3

    def test_train_config_batch_by_paradigm(self):
        arch, _ = resolve_arch(ExperimentConfig(config="A"))
        tf = ExperimentConfig(config="A", paradigm=TEACHER_FORCING)
        bp = ExperimentConfig(config="A", paradigm=BPTT)
        assert make_train_config(tf, arch, 0).batch_size == 256
        assert make_train_config(bp, arch, 0).batch_size == 16

    def test_explicit_values_pass_through(self):
        cfg = ExperimentConfig(config="A", learning_rate=7e-4, batch_size=32)
        arch, _ = resolve_arch(cfg)
        tc = make_train_config(cfg, arch, 3)
        assert tc.learning_rate == 7e-4
        assert tc.batch_size == 32
        assert tc.seed == 3


class TestFingerprint:
    def test_deterministic(self):
        a = ExperimentConfig(config="A", steps=100)
        b = ExperimentConfig(config="A", steps=100)
        assert config_fingerprint(a) == config_fingerprint(b)
        assert len(config_fingerprint(a)) == 16

    def test_result_fields_change_it(self):
        base = config_fingerprint(ExperimentConfig(config="A"))
        assert config_fingerprint(ExperimentConfig(config="A", steps=7)) != base
        assert config_fingerprint(ExperimentConfig(config="F")) != base

    def test_out_and_n_seeds_excluded(self):
        a = ExperimentConfig(config="A", out="here", n_seeds=3)
        b = ExperimentConfig(config="A", out="there", n_seeds=100)
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_stable_across_file_reordering(self, tmp_path):
        cfg = ExperimentConfig(config="B", steps=77, learning_rate=5e-4)
        path = tmp_path / "cfg.txt"
        save_config_file(cfg, path)
        lines = path.read_text().splitlines()
        (tmp_path / "reordered.txt").write_text("\n".join(reversed(lines)) + "\n")
        reloaded = load_config_file(tmp_path / "reordered.txt")
        assert config_fingerprint(reloaded) == config_fingerprint(cfg)


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(system="vanderpol", config="D", paradigm=BPTT,
                               steps=123, grid_size=8, base_blend=False)
        path = tmp_path / "cfg.txt"
        save_config_file(cfg, path)
        assert load_config_file(path) == cfg

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\nconfig = F\n\nsteps= 9 # trailing\n")
        cfg = load_config_file(path)
        assert cfg.config == "F"
        assert cfg.steps == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("stepz = 10\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("config A\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config_file(path)

    def test_booleans_and_none(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("oracle = true\nbase_blend = none\ngrid_size = 8\n")
        cfg = load_config_file(path)
        assert cfg.oracle is True
        assert cfg.base_blend is None
        assert cfg.grid_size == 8

    def test_output_root_env(self, monkeypatch):
        monkeypatch.delenv("RESIDUAL_LAB_OUT", raising=False)
        assert output_root("") == "results"
        assert output_root("custom") == "custom"
        monkeypatch.setenv("RESIDUAL_LAB_OUT", "/tmp/envout")
        assert output_root("") == "/tmp/envout"
        assert output_root("custom") == "custom"


class TestRunSweep:
    def test_oracle_sweep_exact(self, tmp_path):
        result = run_sweep(oracle_config(tmp_path))
        assert len(result.rows) == 3
        assert [r.seed for r in result.rows] == [0, 1, 2]
        assert all(r.status == "Oracle" for r in result.rows)
        assert all(r.discovery_r2 == 1.0 for r in result.rows)
        agg = result.summary["discovery_r2"]
        assert (agg["mean"], agg["ci_lo"], agg["ci_hi"]) == (1.0, 1.0, 1.0)

    def test_rerun_is_byte_identical_and_free(self, tmp_path):
        cfg = oracle_config(tmp_path)
        first = run_sweep(cfg)
        metrics = open(f"{first.directory}/metrics.csv", "rb").read()
        summary = open(f"{first.directory}/summary.json", "rb").read()
        second = run_sweep(cfg)
        assert open(f"{second.directory}/metrics.csv", "rb").read() == metrics
        assert open(f"{second.directory}/summary.json", "rb").read() == summary

    def test_growing_seed_count_resumes(self, tmp_path):
        small = run_sweep(oracle_config(tmp_path, n_seeds=2))
        rows_before = small.rows
        grown = run_sweep(oracle_config(tmp_path, n_seeds=4))
        assert grown.rows[:2] == rows_before
        assert len(grown.rows) == 4
        assert grown.directory == small.directory  # n_seeds not in the path

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg1 = oracle_config(tmp_path / "w1")
        cfg2 = oracle_config(tmp_path / "w2")
        r1 = run_sweep(cfg1, workers=1)
        r2 = run_sweep(cfg2, workers=2)
        assert (open(f"{r1.directory}/metrics.csv", "rb").read()
                == open(f"{r2.directory}/metrics.csv", "rb").read())
        assert (open(f"{r1.directory}/summary.json", "rb").read()
                == open(f"{r2.directory}/summary.json", "rb").read())

    def test_foreign_fingerprint_rejected(self, tmp_path):
        cfg = oracle_config(tmp_path)
        result = run_sweep(cfg)
        rows, _ = read_metrics(f"{result.directory}/metrics.csv")
        write_metrics(f"{result.directory}/metrics.csv", rows, fingerprint="deadbeef")
        with pytest.raises(ValueError, match="fingerprint"):
            run_sweep(cfg)

    def test_trained_sweep_smoke(self, tmp_path):
        cfg = ExperimentConfig(system="duffing", config="A", n_seeds=1,
                               out=str(tmp_path), steps=5, n_train_ics=2,
                               n_test_ics=1, data_steps=50)
        result = run_sweep(cfg)
        row = result.rows[0]
        assert row.status == "MaxSteps"
        assert np.isfinite(row.discovery_r2)
        assert row.arch == "kan-very-small"

    def test_load_sweep_roundtrip(self, tmp_path):
        cfg = oracle_config(tmp_path)
        result = run_sweep(cfg)
        back = load_sweep(result.directory)
        assert back.config == cfg
        assert back.rows == result.rows
        assert back.fingerprint == result.fingerprint

    def test_summary_records_capture_fraction(self, tmp_path):
        result = run_sweep(oracle_config(tmp_path))
        # Oracle Duffing surfaces always fit -0.3 x^3 as the top term.
        assert result.summary["captured_cubic_fraction"] == 1.0
        assert result.summary["no_finite_checkpoint_fraction"] == 0.0
        assert result.summary["statuses"] == {"Oracle": 3}


def fake_result(tmp_path, mean, lo, hi, *, config="A", system="duffing",
                paradigm=TEACHER_FORCING, sentinel_rows=0, n_rows=4,
                fingerprint="f" * 16):
    rows = [
        MetricRow(system, "kan-very-small", config, paradigm, s,
                  R2_SENTINEL if s < sentinel_rows else mean,
                  1e-6, 0.9, "x^3:-0.3", "MaxSteps")
        for s in range(n_rows)
    ]
    cfg = ExperimentConfig(system=system, config=config, paradigm=paradigm,
                           n_seeds=n_rows, out=str(tmp_path))
    summary = {"discovery_r2": {"mean": mean, "ci_lo": lo, "ci_hi": hi}}
    return SweepResult(cfg, fingerprint, rows, summary, str(tmp_path))


class TestAggregateTables:
    def test_cell_formatting(self, tmp_path):
        res = fake_result(tmp_path, 0.5, 0.4, 0.6)
        csv_path, txt_path = aggregate_tables([res], str(tmp_path / "table"))
        csv = open(csv_path).read()
        assert "0.500 ± 0.100" in csv
        assert csv.splitlines()[0] == "arch,config,params,duffing TF R2"

    def test_unstable_cell(self, tmp_path):
        res = fake_result(tmp_path, -5.0, -9.0, -1.0, sentinel_rows=3, n_rows=4)
        csv_path, _ = aggregate_tables([res], str(tmp_path / "table"))
        assert "(Unstable)" in open(csv_path).read()

    def test_minority_sentinels_still_aggregate(self, tmp_path):
        res = fake_result(tmp_path, 0.2, 0.1, 0.3, sentinel_rows=2, n_rows=5)
        csv_path, _ = aggregate_tables([res], str(tmp_path / "table"))
        assert "0.200 ± 0.100" in open(csv_path).read()

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            aggregate_tables([], str(tmp_path / "table"))

    def test_reconstructed_footnote(self, tmp_path):
        res = fake_result(tmp_path, 0.5, 0.4, 0.6, config="B")
        _, txt_path = aggregate_tables([res], str(tmp_path / "table"))
        text = open(txt_path).read()
        assert "Spline-Forced *" in text
        assert "* reconstructed configuration" in text

    def test_plain_configs_no_footnote(self, tmp_path):
        res = fake_result(tmp_path, 0.5, 0.4, 0.6, config="A")
        _, txt_path = aggregate_tables([res], str(tmp_path / "table"))
        assert "reconstructed" not in open(txt_path).read()

    def test_multiple_columns_ordered(self, tmp_path):
        results = [
            fake_result(tmp_path, 0.5, 0.4, 0.6, system="vanderpol", paradigm=BPTT),
            fake_result(tmp_path, 0.9, 0.8, 1.0, system="duffing"),
        ]
        csv_path, _ = aggregate_tables(results, str(tmp_path / "table"))
        header = open(csv_path).read().splitlines()[0]
        assert header == "arch,config,params,duffing TF R2,vanderpol BPTT R2"

    def test_conflicting_fingerprints_rejected(self, tmp_path):
        a = fake_result(tmp_path, 0.5, 0.4, 0.6, fingerprint="a" * 16)
        b = fake_result(tmp_path, 0.7, 0.6, 0.8, fingerprint="b" * 16)
        with pytest.raises(ValueError, match="conflicting"):
            aggregate_tables([a, b], str(tmp_path / "table"))

    def test_txt_table_aligned(self, tmp_path):
        res = fake_result(tmp_path, 0.5, 0.4, 0.6)
        _, txt_path = aggregate_tables([res], str(tmp_path / "table"))
        lines = open(txt_path).read().splitlines()
        assert lines[1].startswith("-")
        assert "Config A (G=5, k=3)" in lines[2]


class TestRunSingleSeed:
    def test_oracle_row(self, tmp_path):
        cfg = oracle_config(tmp_path, system="vanderpol")
        row, = _run_block((cfg, [7]))
        assert row.seed == 7
        assert row.status == "Oracle"
        assert row.discovery_r2 == 1.0
        assert row.test_mse < 1e-16
        # Oracle VdP surface is (1 - x^2) v: top term by |coef| is x^2*v.
        assert "x^2*v:" in row.fit_terms


class TestSharedDataset:
    @pytest.fixture
    def generations(self, monkeypatch):
        """Count dataset generations, starting from an empty memo."""
        from residual_lab import harness

        calls = []
        real = harness.generate_dataset

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real(*args, **kwargs)

        harness._shared_dataset.cache_clear()
        monkeypatch.setattr(harness, "generate_dataset", counting)
        yield calls
        harness._shared_dataset.cache_clear()

    def test_seeds_and_configs_of_one_dataset_generate_it_once(self, tmp_path, generations):
        run_sweep(oracle_config(tmp_path, n_seeds=2))
        run_sweep(oracle_config(tmp_path, n_seeds=2, config="G"))
        assert generations == [0]

    def test_per_seed_data_generates_per_seed(self, tmp_path, generations):
        run_sweep(oracle_config(tmp_path, n_seeds=2, per_seed_data=True, data_seed=3))
        assert generations == [3, 4]

    def test_cached_trajectories_are_read_only(self, generations):
        from residual_lab.harness import _dataset_for

        cfg = ExperimentConfig(n_train_ics=2, n_test_ics=1, data_steps=50)
        ds = _dataset_for(cfg, 0)
        assert _dataset_for(cfg, 1) is ds
        for split in (ds.train, ds.test):
            with pytest.raises(ValueError):
                split[0, 0, 0] = 1.0
