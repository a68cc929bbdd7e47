"""The experiment scripts in scripts/ clean up after themselves."""
import importlib.util
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_fig1b_leaves_no_temporary_files(tmp_path, monkeypatch):
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    out = tmp_path / "out"
    assert load_script("run_fig1b").run(["--outdir", str(out), "--var-sqrt", "0.0"]) == 0
    assert (out / "rate_vs_squeezing_var0.csv").exists()
    assert list(scratch.iterdir()) == []
