import csv
import dataclasses
import json
import os
import re
import shutil

import numpy as np
import pytest

from residual_lab import harness
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
    run_sweeps,
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


def files_of(directory) -> dict[str, bytes]:
    """Every file of a sweep directory, by name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


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
        dict(stlsq_threshold=-1.0),
        dict(stlsq_threshold=float("nan")),
        dict(stlsq_threshold=float("inf")),
        dict(stlsq_threshold=float("nan"), oracle=True),
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
        (dict(config="B", eps=0.0), "eps"),
        (dict(eps=-1e-8), "eps"),
        (dict(eps=float("nan")), "eps"),
        (dict(grad_clip=-1.0), "grad_clip"),
        (dict(grad_clip=float("inf")), "grad_clip"),
        (dict(converge_tol=-1.0), "converge_tol"),
        (dict(converge_tol=float("nan")), "converge_tol"),
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
        assert make_train_config(kan_cfg, kan_arch).learning_rate == 3e-3
        mlp_cfg = ExperimentConfig(config="mlp-small")
        mlp_arch, _ = resolve_arch(mlp_cfg)
        assert make_train_config(mlp_cfg, mlp_arch).learning_rate == 1e-3

    def test_train_config_batch_by_paradigm(self):
        arch, _ = resolve_arch(ExperimentConfig(config="A"))
        tf = ExperimentConfig(config="A", paradigm=TEACHER_FORCING)
        bp = ExperimentConfig(config="A", paradigm=BPTT)
        assert make_train_config(tf, arch).batch_size == 256
        assert make_train_config(bp, arch).batch_size == 16

    def test_explicit_values_pass_through(self):
        cfg = ExperimentConfig(config="A", learning_rate=7e-4, batch_size=32)
        arch, _ = resolve_arch(cfg)
        tc = make_train_config(cfg, arch)
        assert tc.learning_rate == 7e-4
        assert tc.batch_size == 32


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

    def test_killed_sweep_keeps_finished_blocks(self, tmp_path, monkeypatch):
        cfg = oracle_config(tmp_path, n_seeds=20)
        whole = files_of(run_sweep(cfg).directory)
        directory = sweep_directory(cfg)
        shutil.rmtree(directory)

        real, blocks = harness._run_block, []

        def run_block(task, kill_at):
            blocks.append(task[2])
            if len(blocks) == kill_at:
                raise RuntimeError("killed")
            return real(task)

        monkeypatch.setattr(harness, "_run_block", lambda task: run_block(task, kill_at=2))
        with pytest.raises(RuntimeError, match="killed"):
            run_sweep(cfg)
        assert blocks == [list(range(16)), list(range(16, 20))]
        # The first block's rows are saved; nothing else is written yet.
        assert os.listdir(directory) == ["metrics.csv"]
        rows, _ = read_metrics(os.path.join(directory, "metrics.csv"))
        assert [r.seed for r in rows] == list(range(16))

        blocks.clear()
        monkeypatch.setattr(harness, "_run_block", lambda task: run_block(task, kill_at=None))
        run_sweep(cfg)
        assert blocks == [list(range(16, 20))]
        assert files_of(directory) == whole

    def test_load_sweep_of_a_shrunk_sweep(self, tmp_path):
        run_sweep(oracle_config(tmp_path, n_seeds=4))
        result = run_sweep(oracle_config(tmp_path, n_seeds=2))
        back = load_sweep(result.directory)
        assert [r.seed for r in back.rows] == [0, 1]
        assert back.rows == result.rows

    @pytest.mark.parametrize("damage", ["lost-row", "summary-count"])
    def test_load_sweep_rejects_incomplete(self, tmp_path, damage):
        result = run_sweep(oracle_config(tmp_path))
        if damage == "lost-row":
            metrics = os.path.join(result.directory, "metrics.csv")
            rows, fingerprint = read_metrics(metrics)
            write_metrics(metrics, [rows[0], rows[2]], fingerprint=fingerprint)
        else:
            path = os.path.join(result.directory, "summary.json")
            with open(path) as fh:
                summary = json.load(fh)
            summary["n_seeds"] = 2
            with open(path, "w") as fh:
                json.dump(summary, fh)
        with pytest.raises(ValueError, match=re.escape(f"{result.directory}: incomplete")):
            load_sweep(result.directory)

    def test_summary_records_capture_fraction(self, tmp_path):
        result = run_sweep(oracle_config(tmp_path))
        # Oracle Duffing surfaces always fit -0.3 x^3 as the top term.
        assert result.summary["captured_cubic_fraction"] == 1.0
        assert result.summary["no_finite_checkpoint_fraction"] == 0.0
        assert result.summary["statuses"] == {"Oracle": 3}


class TestRunSweeps:
    @staticmethod
    def cells(out):
        trained = ExperimentConfig(system="duffing", config="A", n_seeds=3, steps=2,
                                   out=out, n_train_ics=2, n_test_ics=1, data_steps=50)
        return [trained, oracle_config(out, system="vanderpol", n_seeds=2)]

    def test_one_pool_matches_one_sweep_at_a_time(self, tmp_path):
        out = str(tmp_path / "out")
        want = [files_of(run_sweep(cfg, workers=1).directory) for cfg in self.cells(out)]
        shutil.rmtree(out)
        # 5 missing seeds over 2 workers: blocks of up to 3, one per cell, one per child.
        results = list(run_sweeps(self.cells(out), workers=2))
        directories = [sweep_directory(cfg) for cfg in self.cells(out)]
        assert sorted(r.directory for r in results) == sorted(directories)
        assert [files_of(d) for d in directories] == want

    def test_every_fingerprint_checked_before_training(self, tmp_path):
        first, second = self.cells(str(tmp_path))
        os.makedirs(sweep_directory(second))
        write_metrics(os.path.join(sweep_directory(second), "metrics.csv"), [],
                      fingerprint="deadbeef")
        with pytest.raises(ValueError, match="fingerprint"):
            list(run_sweeps([first, second]))
        assert os.listdir(sweep_directory(first)) == []

    def test_one_directory_twice_rejected(self, tmp_path):
        cfg = oracle_config(tmp_path)
        with pytest.raises(ValueError, match="share one sweep directory"):
            list(run_sweeps([cfg, dataclasses.replace(cfg, n_seeds=5)]))


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

    def test_csv_rows_read_back_one_field_per_column(self, tmp_path):
        # Config A's and F's labels hold commas.
        results = [fake_result(tmp_path, 0.5, 0.4, 0.6, config=c, fingerprint=c * 16)
                   for c in "AF"]
        csv_path, _ = aggregate_tables(results, str(tmp_path / "table"))
        with open(csv_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [row[0] for row in rows] == ["Config A (G=5, k=3)", "Config F (G=3, k=3)"]
        assert all(len(row) == len(header) for row in rows)

    def test_txt_table_aligned(self, tmp_path):
        res = fake_result(tmp_path, 0.5, 0.4, 0.6)
        _, txt_path = aggregate_tables([res], str(tmp_path / "table"))
        lines = open(txt_path).read().splitlines()
        assert lines[1].startswith("-")
        assert "Config A (G=5, k=3)" in lines[2]


class TestRunSingleSeed:
    def test_oracle_row(self, tmp_path):
        cfg = oracle_config(tmp_path, system="vanderpol")
        _, (row,) = _run_block((0, cfg, [7]))
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
