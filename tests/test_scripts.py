"""The experiment scripts in scripts/ run, write their tables and clean up after themselves."""
import tempfile
from pathlib import Path

import pytest

from conftest import SCRIPTS, load_script


def test_run_fig1b_leaves_no_temporary_files(tmp_path, monkeypatch):
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    out = tmp_path / "out"
    assert load_script("run_fig1b").run(["--outdir", str(out), "--var-sqrt", "0.0"]) == 0
    assert (out / "rate_vs_squeezing_var0.csv").exists()
    assert list(scratch.iterdir()) == []


def test_run_fig3_writes_both_tables(tmp_path):
    out = tmp_path / "out"
    assert load_script("run_fig3").run(["--outdir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "rate_vs_distance_loss4db_sr0.56.csv", "rate_vs_distance_loss6db_sr0.56.csv"]
    for table in out.iterdir():
        assert len(table.read_text().splitlines()) == 2 + 13 * 3  # metadata, header, 13 distances x 3 variants


@pytest.mark.parametrize("name", ["run_fig3", "run_daily"])
def test_scripts_take_no_sample_count(name, tmp_path):
    with pytest.raises(SystemExit) as exc:
        load_script(name).run(["--outdir", str(tmp_path), "--n", "1000"])
    assert exc.value.code == 2


def test_diff_outputs_names_the_first_differing_line():
    """scripts/diff_outputs.py: the verdict on two outputs, and scenario paths that exist."""
    diff = load_script("diff_outputs")
    assert diff.first_difference(b"a\r\nb\r\n", b"a\r\nb\r\n") is None
    assert diff.first_difference(b"a\nb\nc", b"a\nx\nc") == "line 2: b'b' != b'x'"
    assert diff.first_difference(b"a", b"a\nb") == "line 2: one side ends (1 vs 2 lines)"
    for name, argv in diff.commands():
        for arg in argv:
            if "{tree}" in arg:
                assert Path(arg.replace("{tree}", str(SCRIPTS.parent))).exists(), name
