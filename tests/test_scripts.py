"""Desk-scale runs of the ablation scripts, so a harness change that breaks
them fails the suite and not only a full ablation run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name,extra,table,rows", [
    ("run_config_ablation", [], "config-ablation", 7),
    ("run_scale_ablation", ["--paradigms", "teacher_forcing"], "scale-ablation", 8),
], ids=["config", "scale"])
def test_ablation_script_writes_tables(capsys, tmp_path, name, extra, table, rows):
    out = tmp_path / "out"
    assert load_main(name)(["--seeds", "1", "--steps", "2", "--out", str(out), *extra]) == 0
    assert f"wrote {out / table}.txt" in capsys.readouterr().out
    assert (out / f"{table}.txt").is_file()
    assert len((out / f"{table}.csv").read_text().splitlines()) == 1 + rows


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
