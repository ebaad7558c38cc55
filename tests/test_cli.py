import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from residual_lab.cli import build_parser, main
from residual_lab.dynamics import load_dataset
from residual_lab.evaluation import METRIC_COLUMNS, read_metrics
from residual_lab.netcore import KanArch, new_branch, save_branch

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

# The flags each subcommand parses, 54 (subcommand, flag) slots in all.
FLAGS = {
    "gen-data": {"--seed", "--out", "--system", "--n-train", "--n-test", "--dt", "--steps",
                 "--noise"},
    "train": {"--seed", "--out", "--config", "--config-file", "--system", "--paradigm",
              "--steps", "--learning-rate"},
    "eval": {"--seed", "--config", "--config-file", "--system", "--checkpoint", "--oracle",
             "--data"},
    "sweep": {"--out", "--config", "--config-file", "--system", "--paradigm", "--steps",
              "--learning-rate", "--seeds", "--workers"},
    "aggregate": {"--out"},
    "fit-symbolic": {"--seed", "--config", "--config-file", "--system", "--checkpoint",
                     "--oracle", "--threshold"},
    "export-surface": {"--seed", "--out", "--config", "--config-file", "--system",
                       "--checkpoint", "--oracle"},
    "verify-grads": {"--seed", "--config", "--config-file", "--system", "--points",
                     "--tolerance", "--bptt-tolerance"},
    "list-configs": set(),
}
# The 24 flags that subcommands once parsed and never read, and a value for each.
REMOVED = [("train", "--seeds"), ("sweep", "--seed"), ("aggregate", "--seed"),
           ("list-configs", "--seed"), ("list-configs", "--out")]
REMOVED += [(command, flag) for command in ("eval", "fit-symbolic", "verify-grads")
            for flag in ("--out", "--paradigm", "--steps", "--learning-rate", "--seeds")]
REMOVED += [("export-surface", flag)
            for flag in ("--paradigm", "--steps", "--learning-rate", "--seeds")]
VALUES = {"--seed": "3", "--seeds": "3", "--out": "x", "--paradigm": "bptt", "--steps": "3",
          "--learning-rate": "0.1"}
# A tiny oracle cell, so that a run which wrongly gets past parsing ends fast.
TINY = "config = A\noracle = true\nsteps = 1\nn_train_ics = 1\nn_test_ics = 1\ndata_steps = 20\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "gen-data" in out and "verify-grads" in out

    def test_one_parser_per_process(self, capsys):
        # main builds its parser once per process: a rejected argv and then a
        # valid one exit and print as they do each in a process of its own.
        argvs = (["list-configs", "--nope"], ["list-configs"])
        here = [run(capsys, *argv)[:2] for argv in argvs]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        apart = []
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "residual_lab.cli", *argv],
                                  capture_output=True, text=True, env=env, check=False)
            apart.append((proc.returncode, proc.stdout))
        assert here == apart
        assert [code for code, _ in here] == [1, 0] and here[1][1]
        assert build_parser() is build_parser()

    def test_unknown_subcommand_is_validation_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run(capsys, "list-configs", "--nope")
        assert code == 1
        assert "usage" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 1

    @staticmethod
    def _subparsers():
        parser = build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return parser, action.choices

    def test_each_subcommand_parses_exactly_its_flags(self):
        _, commands = self._subparsers()
        flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                 for name, p in commands.items()}
        assert flags == FLAGS
        assert sum(map(len, flags.values())) == 54

    def test_no_prefix_matching(self):
        parser, commands = self._subparsers()
        assert not parser.allow_abbrev
        assert not any(p.allow_abbrev for p in commands.values())

    @pytest.mark.parametrize("command,flag", REMOVED)
    def test_removed_flag_is_validation_error(self, capsys, tmp_path, monkeypatch, command,
                                              flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.cfg").write_text(TINY)
        extra = {"aggregate": [str(tmp_path)], "list-configs": []}.get(
            command, ["--config-file", "tiny.cfg"])
        code, out, err = run(capsys, command, *extra, flag, VALUES[flag])
        assert code == 1 and out == ""
        assert "usage" in err and f"unrecognized arguments: {flag} " in err
        assert sorted(os.listdir(tmp_path)) == ["tiny.cfg"]

    @pytest.mark.parametrize("argv", [("sweep", "--seed", "3"),
                                      ("eval", "--oracle", "--check", "x.ckpt"),
                                      ("train", "--learn", "0.1")],
                             ids=["sweep-seed", "eval-check", "train-learn"])
    def test_prefix_is_no_alias(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.cfg").write_text(TINY)
        code, out, err = run(capsys, *argv, "--config-file", "tiny.cfg")
        assert code == 1 and out == ""
        assert "usage" in err and f"unrecognized arguments: {argv[-2]} " in err
        assert sorted(os.listdir(tmp_path)) == ["tiny.cfg"]


class TestReadme:
    """The README's commands and flag table stay true to the parser."""

    @staticmethod
    def _commands():
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        return [shlex.split(line, comments=True) for line in lines
                if line.startswith("residual-lab ")]

    def test_every_command_parses(self):
        commands = self._commands()
        assert len(commands) >= 8
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_flag_table_matches_parser(self):
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README.read_text(), re.M)
        assert {name: set(re.findall(r"`(--[a-z-]+)`", flags)) for name, flags in rows} == FLAGS


class TestListConfigs:
    def test_registry_table(self, capsys):
        code, out, _ = run(capsys, "list-configs")
        assert code == 0
        for name in "ABCDEFG":
            assert f"\n{name} " in out or out.startswith(f"{name} ")
        for name in ("kan-very-small", "kan-small", "kan-wide", "kan-deep",
                     "mlp-tiny", "mlp-small", "mlp-medium", "mlp-large"):
            assert name in out
        for count in ("120", "240", "480", "880", "105", "337", "1185", "4417"):
            assert count in out


class TestGenData:
    def test_writes_loadable_dataset(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "--system", "duffing",
                           "--n-train", "2", "--n-test", "1", "--steps", "50",
                           "--out", str(tmp_path), "--seed", "3")
        assert code == 0
        path = out.strip()
        assert path.startswith(str(tmp_path))
        ds = load_dataset(path)
        assert ds.oscillator == "duffing"
        assert len(ds.train) == 2 and len(ds.test) == 1

    def test_requires_system(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path))
        assert code == 1
        assert "required" in err

    @pytest.mark.parametrize("flags", [("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"),
                                       ("--noise", "nan"), ("--noise", "-1")])
    def test_bad_parameter_is_validation_error(self, capsys, tmp_path, flags):
        code, out, err = run(capsys, "gen-data", "--system", "duffing", "--n-train", "1",
                             "--n-test", "1", "--steps", "20", *flags, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert flags[0][2:] in err
        assert not list(tmp_path.iterdir())

    def test_no_trajectories_is_validation_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen-data", "--system", "duffing", "--n-train", "0",
                             "--n-test", "0", "--out", str(tmp_path))
        assert code == 1
        assert "at least one trajectory" in err
        assert out == ""


class TestDatasetInput:
    """``eval --data`` on saved dataset files, well-formed and not."""

    @staticmethod
    def _saved(capsys, tmp_path, n_train="2", n_test="2"):
        code, out, _ = run(capsys, "gen-data", "--system", "duffing", "--n-train", n_train,
                           "--n-test", n_test, "--steps", "20", "--out", str(tmp_path))
        assert code == 0
        return out.strip()

    @staticmethod
    def _eval(capsys, path):
        return run(capsys, "eval", "--oracle", "--system", "duffing", "--data", path)

    def test_empty_train_split_round_trips(self, capsys, tmp_path):
        path = self._saved(capsys, tmp_path, n_train="0")
        ds = load_dataset(path)
        assert ds.train.shape == (0, 21, 2) and ds.test.shape == (2, 21, 2)
        code, out, _ = self._eval(capsys, path)
        assert code == 0
        assert "discovery_r2=1 " in out

    def test_empty_test_split_is_validation_error(self, capsys, tmp_path):
        path = self._saved(capsys, tmp_path, n_test="0")
        assert load_dataset(path).test.shape == (0, 21, 2)
        code, out, err = self._eval(capsys, path)
        assert code == 1 and out == ""
        assert path in err and "no test trajectories" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: [l.replace("#traj test 1", "#traj tset 1") for l in lines],
         "unknown split"),
        (lambda lines: lines[:1] + ["0,0.5,0.5"] + lines[1:], "before the first #traj"),
        (lambda lines: [l for i, l in enumerate(lines) if i != 22], "one length"),
        (lambda lines: [lines[0].rsplit(",", 1)[0]] + lines[1:], ":1: malformed dataset header"),
        (lambda lines: lines[:2] + ["0,nan,0.5"] + lines[3:], ":3: malformed state row"),
        (lambda lines: lines[:2] + ["0,0.5"] + lines[3:], ":3: malformed state row"),
        (lambda lines: [lines[0].replace("duffing", "lorenz")] + lines[1:],
         "unknown oscillator kind 'lorenz'"),
        (lambda lines: ["duffing,nan,nan,2,2"] + lines[1:], "dt must be finite"),
        (lambda lines: ["duffing,0.01,inf,2,2"] + lines[1:], "scale must be finite"),
    ], ids=["unknown-split", "stray-row", "ragged", "short-header", "nan-row", "short-row",
            "unknown-oscillator", "nan-dt-and-scale", "inf-scale"])
    def test_malformed_file_is_validation_error(self, capsys, tmp_path, edit, message):
        path = self._saved(capsys, tmp_path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(edit(lines)) + "\n")
        code, _, err = self._eval(capsys, path)
        assert code == 1
        assert message in err and path in err

    def test_other_systems_data_is_validation_error(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "--system", "vanderpol", "--n-train", "1",
                           "--n-test", "1", "--steps", "20", "--out", str(tmp_path))
        assert code == 0
        path = out.strip()
        code, out, err = self._eval(capsys, path)
        assert code == 1 and out == ""
        assert path in err and "vanderpol" in err


class TestTrainEval:
    def test_train_then_eval_checkpoint(self, capsys, tmp_path):
        code, out, _ = run(capsys, "train", "--config", "A", "--system", "duffing",
                           "--steps", "3", "--out", str(tmp_path), "--seed", "0",
                           "--config-file", self._write_cfg(tmp_path))
        assert code == 0
        assert "status=MaxSteps" in out
        ckpt = out.strip().split("checkpoint=")[1]
        assert os.path.exists(ckpt)
        assert os.path.exists(ckpt.replace(".ckpt", ".report.json"))

        code, out, _ = run(capsys, "eval", "--checkpoint", ckpt,
                           "--system", "duffing",
                           "--config-file", self._write_cfg(tmp_path))
        assert code == 0
        assert "discovery_r2=" in out and "rollout_mse=" in out

    @staticmethod
    def _write_cfg(tmp_path):
        # Tiny dataset keeps CLI smoke tests fast.
        path = tmp_path / "exp.txt"
        if not path.exists():
            path.write_text("config = A\nn_train_ics = 2\nn_test_ics = 1\n"
                            "data_steps = 50\nsteps = 3\n")
        return str(path)

    def test_eval_oracle(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "--oracle", "--system", "vanderpol",
                           "--config-file", self._write_cfg(tmp_path))
        assert code == 0
        value = float(out.split("discovery_r2=")[1].split()[0])
        assert value == 1.0

    @pytest.mark.parametrize("command,want", [("eval", "discovery_r2=1 "),
                                              ("fit-symbolic", "fit_r2=1 ")])
    def test_oracle_from_the_config_file(self, capsys, tmp_path, command, want):
        # The file's oracle = true picks the oracle without --oracle, as the
        # sweep of the same file does, and wins over a checkpoint.
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("system = duffing\noracle = true\nn_train_ics = 1\n"
                       "n_test_ics = 1\ndata_steps = 50\n")
        code, out, _ = run(capsys, command, "--config-file", str(cfg))
        assert code == 0 and want in out
        ckpt = tmp_path / "A.ckpt"
        save_branch(new_branch(KanArch((2, 4, 1)), 0), ckpt)
        code, out, _ = run(capsys, command, "--config-file", str(cfg), "--checkpoint", str(ckpt))
        assert code == 0 and want in out

    def test_missing_config_file_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--config-file",
                           str(tmp_path / "absent.txt"), "--out", str(tmp_path))
        assert code == 1
        assert "error" in err and str(tmp_path / "absent.txt") in err

    def test_malformed_config_file_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a key value line\n")
        code, _, err = run(capsys, "train", "--config-file", str(bad),
                           "--out", str(tmp_path))
        assert code == 1
        assert "error" in err


class TestSweepAggregate:
    def test_sweep_writes_rows(self, capsys, tmp_path):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\noracle = true\nn_train_ics = 2\n"
                       "n_test_ics = 1\ndata_steps = 50\n")
        code, out, _ = run(capsys, "sweep", "--config-file", str(cfg),
                           "--seeds", "5", "--workers", "2",
                           "--out", str(tmp_path))
        assert code == 0
        assert "5 seeds" in out
        directory = out.split(":")[0]
        rows, _ = read_metrics(os.path.join(directory, "metrics.csv"))
        assert len(rows) == 5

    @pytest.mark.parametrize("fields", [
        "n_test_ics = 0\n",
        "n_train_ics = 0\n",
        "paradigm = bptt\nhorizon = 60\ndata_steps = 50\n",
        "steps = 0\n",
        "learning_rate = -1\n",
        "config = B\nsteps = 5\neps = 0\n",
        "grad_clip = -1\n",
        "converge_tol = -1\n",
        "noise_std = -1\n",
        "stlsq_threshold = -1\n",
        "oracle = true\nstlsq_threshold = -1\n",
    ])
    def test_sweep_rejects_config_that_fails_every_seed(self, capsys, tmp_path, fields):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\nsteps = 2\n" + fields)
        out = tmp_path / "out"
        code, _, err = run(capsys, "sweep", "--config-file", str(cfg),
                           "--seeds", "1", "--out", str(out))
        assert code == 1
        assert "error" in err
        assert not out.exists()

    def test_resume_on_truncated_metrics_is_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\noracle = true\nn_train_ics = 2\n"
                       "n_test_ics = 1\ndata_steps = 50\n")
        argv = ("sweep", "--config-file", str(cfg), "--seeds", "2", "--out", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        metrics = os.path.join(out.split(":")[0], "metrics.csv")
        with open(metrics) as fh:
            text = fh.read()
        with open(metrics, "w") as fh:
            fh.write(text[: text.rindex(",")])
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"{metrics}:4: malformed metrics row" in err

    @pytest.mark.parametrize("column,text", [(8, "nan"), (8, "x:abc"), (9, "Bogus")])
    def test_resume_on_bad_fit_terms_or_status_is_named(self, capsys, tmp_path, column, text):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\noracle = true\nn_train_ics = 2\n"
                       "n_test_ics = 1\ndata_steps = 50\n")
        argv = ["sweep", "--config-file", str(cfg), "--seeds", "1", "--out", str(tmp_path)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        metrics = os.path.join(out.split(":")[0], "metrics.csv")
        with open(metrics) as fh:
            lines = fh.read().splitlines()
        fields = lines[2].split(",")
        fields[column] = text
        with open(metrics, "w") as fh:
            fh.write("\n".join(lines[:2] + [",".join(fields)]) + "\n")
        argv[4] = "2"
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"{metrics}:3: malformed metrics row" in err

    @pytest.mark.parametrize("field,text,code", [
        ("discovery_r2", "nan", 1), ("discovery_r2", "inf", 1), ("discovery_r2", "-inf", 1),
        ("test_mse", "nan", 1), ("test_mse", "-1", 1), ("test_mse", "inf", 0),
        ("fit_r2", "nan", 1), ("fit_r2", "inf", 1),
    ])
    def test_resume_on_non_finite_score(self, capsys, tmp_path, field, text, code):
        """Rows carry only the scores an evaluation writes: a finite
        discovery_r2, a fit_r2 that is not NaN or +inf, and a test_mse that is
        not NaN or negative (+inf is a diverged held-out step)."""
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\noracle = true\nn_train_ics = 2\n"
                       "n_test_ics = 1\ndata_steps = 50\n")
        argv = ["sweep", "--config-file", str(cfg), "--seeds", "1", "--out", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        directory = next(p for p in tmp_path.iterdir() if p.is_dir())
        metrics = directory / "metrics.csv"
        lines = metrics.read_text().splitlines()
        fields = lines[2].split(",")
        fields[METRIC_COLUMNS.index(field)] = text
        metrics.write_text("\n".join(lines[:2] + [",".join(fields)]) + "\n")
        argv[4] = "2"
        result, _, err = run(capsys, *argv)
        assert result == code
        if code:
            assert f"{metrics}:3: malformed metrics row" in err and field in err
        else:
            assert "NaN" not in (directory / "summary.json").read_text()

    def test_aggregate_from_sweep_dirs(self, capsys, tmp_path):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\noracle = true\nn_train_ics = 2\n"
                       "n_test_ics = 1\ndata_steps = 50\n")
        code, out, _ = run(capsys, "sweep", "--config-file", str(cfg),
                           "--seeds", "2", "--out", str(tmp_path))
        assert code == 0
        directory = out.split(":")[0]
        code, out, _ = run(capsys, "aggregate", directory,
                           "--out", str(tmp_path / "report"))
        assert code == 0
        assert "1.000 ± 0.000" in out
        assert os.path.exists(tmp_path / "report.csv")
        assert os.path.exists(tmp_path / "report.txt")

    def test_aggregate_rejects_an_incomplete_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\noracle = true\nn_train_ics = 2\n"
                       "n_test_ics = 1\ndata_steps = 50\n")
        code, out, _ = run(capsys, "sweep", "--config-file", str(cfg),
                           "--seeds", "3", "--out", str(tmp_path))
        assert code == 0
        directory = out.split(":")[0]
        metrics = Path(directory) / "metrics.csv"
        lines = metrics.read_text().splitlines()
        metrics.write_text("\n".join(lines[:3] + lines[4:]) + "\n")  # seed 1 lost
        code, out, err = run(capsys, "aggregate", directory,
                             "--out", str(tmp_path / "report"))
        assert code == 1 and out == ""
        assert f"{directory}: incomplete sweep" in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("argv,path", [
        (("eval", "--system", "duffing", "--checkpoint", "{missing}"), "missing"),
        (("eval", "--oracle", "--system", "duffing", "--data", "{missing}"), "missing"),
        (("sweep", "--config-file", "{missing}", "--out", "{out}"), "missing"),
        (("sweep", "--config-file", "{empty}", "--out", "{out}"), "empty"),
        (("aggregate", "{empty}", "--out", "{out}"), "empty"),
        (("aggregate", "{plain}", "--out", "{out}"), "plain"),
    ], ids=["eval-checkpoint", "eval-data", "sweep-config-file", "config-file-directory",
            "aggregate-no-config", "aggregate-file"])
    def test_path_that_names_no_file_is_validation_error(self, capsys, tmp_path, argv, path):
        """A missing file, a directory where a file belongs and a file where
        a directory belongs are bad flags; the message names the path."""
        (tmp_path / "empty").mkdir()
        (tmp_path / "plain").write_text("")
        paths = {name: str(tmp_path / name) for name in ("missing", "empty", "plain", "out")}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 1 and out == ""
        assert paths[path] in err
        assert not (tmp_path / "out").exists()

    def test_aggregate_missing_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "aggregate", str(tmp_path / "nowhere"),
                           "--out", str(tmp_path / "r"))
        assert code == 1
        assert str(tmp_path / "nowhere") in err


class TestFitSymbolic:
    def test_oracle_duffing_recovers_cubic(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fit-symbolic", "--oracle", "--system", "duffing")
        assert code == 0
        assert "x^3 -0.3" in out
        assert "fit_r2=1" in out

    def test_oracle_vanderpol_terms(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fit-symbolic", "--oracle", "--system", "vanderpol")
        assert code == 0
        assert "v +1" in out
        assert "x^2*v -1" in out

    def test_threshold_comes_from_the_config(self, capsys, tmp_path):
        """fit-symbolic fits at the config's stlsq_threshold, as the sweep of
        the same file does, and --threshold overrides it."""
        cfg = tmp_path / "exp.txt"
        cfg.write_text("system = duffing\noracle = true\nstlsq_threshold = 0.5\n"
                       "n_train_ics = 2\nn_test_ics = 1\ndata_steps = 50\n")
        code, out, _ = run(capsys, "fit-symbolic", "--oracle", "--config-file", str(cfg))
        assert code == 0
        assert [line.split("=")[0] for line in out.splitlines()] == ["fit_r2"]
        code, out, _ = run(capsys, "sweep", "--config-file", str(cfg), "--seeds", "1",
                           "--out", str(tmp_path))
        assert code == 0
        rows, _ = read_metrics(os.path.join(out.split(":")[0], "metrics.csv"))
        assert rows[0].fit_terms == ""
        code, out, _ = run(capsys, "fit-symbolic", "--oracle", "--config-file", str(cfg),
                           "--threshold", "0.05")
        assert code == 0
        assert "x^3 -0.3" in out

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_threshold_is_validation_error(self, capsys, tmp_path, threshold):
        code, out, err = run(capsys, "fit-symbolic", "--oracle", "--system", "duffing",
                             "--threshold", threshold)
        assert code == 1
        assert out == ""
        assert "threshold must be finite and nonnegative" in err


class TestCheckpointInput:
    """A checkpoint with a bad parameter line exits 1 and names its line."""

    @pytest.mark.parametrize("edit,line", [
        (lambda lines: lines[:5] + ["nan"] + lines[6:], 6),
        (lambda lines: lines[:5] + ["abc"] + lines[6:], 6),
        (lambda lines: lines[:-5], 116),
        (lambda lines: lines + ["0.5"], 122),
        (lambda lines: ["v2,kan,2x4x1,5,3,0,1,-1,1,s"] + lines[1:], 1),
    ], ids=["nan", "text", "short", "long", "header-seed"])
    def test_bad_checkpoint_is_named(self, capsys, tmp_path, edit, line):
        path = tmp_path / "A.ckpt"
        save_branch(new_branch(KanArch((2, 4, 1)), 0), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 121
        path.write_text("\n".join(edit(lines)) + "\n")
        code, out, err = run(capsys, "fit-symbolic", "--checkpoint", str(path),
                             "--system", "duffing")
        assert code == 1 and out == ""
        assert f"{path}:{line}:" in err


class TestConfigFileInput:
    """A config file with a non-finite or unparsable number exits 1, names
    its line and leaves no sweep directory."""

    @pytest.mark.parametrize("text", [
        "learning_rate = nan", "learning_rate = inf", "dt = -inf", "grad_clip = nan",
        "steps = nan", "steps = 2.5", "horizon = x",
    ])
    def test_bad_number_is_named(self, capsys, tmp_path, text):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("config = A\nsteps = 1\n" + text + "\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "sweep", "--config-file", str(cfg),
                           "--seeds", "1", "--out", str(out))
        assert code == 1
        assert f"{cfg}:3:" in err
        assert not out.exists()


class TestExportSurface:
    def test_oracle_export(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export-surface", "--oracle",
                           "--system", "duffing", "--out", str(tmp_path))
        assert code == 0
        paths = out.strip().splitlines()
        assert len(paths) == 4
        for p in paths:
            assert os.path.exists(p)
        assert paths[0].endswith(".csv")
        assert paths[3].endswith(".scale.txt")

    def test_out_from_the_config_file_or_the_flag(self, capsys, tmp_path, monkeypatch):
        # The files go under the config file's out, which --out overrides.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cell.cfg").write_text("system = duffing\noracle = true\nout = fromfile\n")
        code, out, _ = run(capsys, "export-surface", "--config-file", "cell.cfg")
        assert code == 0
        assert [os.path.dirname(p) for p in out.split()] == ["fromfile"] * 4
        code, out, _ = run(capsys, "export-surface", "--config-file", "cell.cfg",
                           "--out", "fromflag")
        assert code == 0
        assert [os.path.dirname(p) for p in out.split()] == ["fromflag"] * 4
        assert sorted(os.listdir(tmp_path)) == ["cell.cfg", "fromfile", "fromflag"]


class TestVerifyGrads:
    def test_kan_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify-grads", "--config", "A",
                           "--system", "duffing", "--points", "3")
        assert code == 0
        assert "OK" in out

    def test_impossible_tolerance_fails_with_runtime_code(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify-grads", "--config", "A",
                           "--system", "duffing", "--points", "3",
                           "--tolerance", "1e-18", "--bptt-tolerance", "1e-18")
        assert code == 2
        assert "FAILED at parameter index" in out

    @pytest.mark.parametrize("flag,value", [("--tolerance", "nan"), ("--tolerance", "-1"),
                                            ("--bptt-tolerance", "0"),
                                            ("--bptt-tolerance", "inf")])
    def test_bad_tolerance_is_validation_error(self, capsys, tmp_path, flag, value):
        code, out, err = run(capsys, "verify-grads", "--config", "A",
                             "--system", "duffing", "--points", "3", flag, value)
        assert code == 1 and out == ""
        assert "tolerances must be finite and positive" in err
