"""Desk-scale runs of the protocol and digest scripts, so a harness change
that breaks them fails the suite and not only a full protocol run."""

import contextlib
import csv
import importlib.util
import io
import types
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_main(name):
    return load_module(name).main


def stub_gradient_check(monkeypatch, module, failing=()):
    """Replace the protocol's gradient check with a report that passes
    except for the architectures in ``failing``; ``test_acceptance`` checks
    the real gradients of every architecture."""
    def check(system):
        failed = any(system.branch.arch.widths == module.ARCH_REGISTRY[n].widths for n in failing)
        return types.SimpleNamespace(passed=not failed, tf_error=float(failed), bptt_error=0.0)

    monkeypatch.setattr(module, "verify_gradients", check)


@pytest.fixture(scope="module")
def protocol_run(tmp_path_factory):
    """One desk run of the protocol: 1 seed, 2 steps, teacher forcing only."""
    out = tmp_path_factory.mktemp("protocol") / "out"
    module = load_module("run_protocol")
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf):
        stub_gradient_check(mp, module)
        code = module.main(["--seeds", "1", "--steps", "2", "--out", str(out),
                            "--paradigms", "teacher_forcing"])
    return code, buf.getvalue(), out


@pytest.mark.parametrize("table,rows", [("config-ablation", 7), ("scale-ablation", 8)],
                         ids=["config", "scale"])
def test_ablation_script_writes_tables(protocol_run, table, rows):
    code, printed, out = protocol_run
    assert code == 0
    assert f"wrote {out / table}.txt" in printed
    assert (out / f"{table}.txt").is_file()
    with open(out / f"{table}.csv", newline="") as fh:
        header, *body = csv.reader(fh)
    assert len(body) == rows
    assert all(len(row) == len(header) for row in body)


def test_protocol_prints_one_line_per_cell(protocol_run):
    _, printed, out = protocol_run
    lines = printed.splitlines()
    assert sum(line.startswith("grads ") for line in lines) == 8
    assert sum(line.startswith("sweep ") for line in lines) == 14 + 16
    assert len(list(out.glob("*/summary.json"))) == 30


def test_failing_preflight_trains_nothing(capsys, monkeypatch, tmp_path):
    module = load_module("run_protocol")
    stub_gradient_check(monkeypatch, module, failing=("kan-deep",))
    out = tmp_path / "out"
    assert module.main(["--seeds", "1", "--steps", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "kan-deep" in captured.out and "FAILED" in captured.out
    assert "pre-flight failed" in captured.err
    assert not out.exists()


def test_output_digests_lists_every_output(capsys, tmp_path):
    kept = tmp_path / "kept" / "tree"
    assert load_main("output_digests")(["--seeds", "1", "--steps-scale", "0.05",
                                        "--keep", str(kept)]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = {key: digest for digest, key in (line.split("  ", 1) for line in lines)}
    # --keep leaves every hashed file in place, and nothing else.
    files = {str(p.relative_to(kept)) for p in kept.rglob("*") if p.is_file()}
    assert files == {key for key in table if not key.startswith(("stdout ", "verify_gradients "))}
    assert all(len(digest) == 64 for digest in table.values())
    # Five sweeps, one of them Euler, the MLP block sweep four ways and the
    # KAN block sweep once.
    assert sum(key.endswith("/metrics.csv") for key in table) == 10
    for key in ("stdout eval", "stdout train", "stdout eval A", "stdout export-surface A",
                "surface/duffing-surface.csv", "verify_gradients A",
                "verify_gradients mlp-small", "verify_gradients A euler",
                "data/vanderpol-seed1.dataset"):
        assert key in table


def test_output_digests_keep_refuses_an_existing_directory(capsys, tmp_path):
    (tmp_path / "old").mkdir()
    with pytest.raises(SystemExit) as exc:
        load_main("output_digests")(["--keep", str(tmp_path / "old")])
    assert exc.value.code == 2
    assert "already exists" in capsys.readouterr().err
    assert list((tmp_path / "old").iterdir()) == []
