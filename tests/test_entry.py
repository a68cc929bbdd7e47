"""The package entry points: an `import cvfade` that loads no numpy, a CLI
entry that runs on one thread, and rate and stats commands that load no
OpenSSL (hashlib's _hashlib maps libcrypto, 3.4 MB resident)."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI as `python -m cvfade` does, then prints the process's thread
# count and its OPENBLAS_NUM_THREADS as one JSON line.
CLI_CODE = """\
import json, os, runpy
try:
    runpy.run_module("cvfade", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps([len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def run_python(args, env):
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_numpy_and_leaves_the_environment_alone():
    code = ("import os, sys, cvfade; before = 'numpy' in sys.modules; import cvfade.cli; "
            "print(before, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert run_python(["-c", code], child_env()).split() == ["False", "True", "None"]


@pytest.fixture
def keyrate_args(tmp_path):
    cfg = tmp_path / "cfg.scenario"
    cfg.write_text(json.dumps({"protocol": {"family": "squeezed", "v_m": 5.0},
                               "channel": {"fading": {"stats": {"mean_eta": 0.5}}}}))
    return ["keyrate", "--config", str(cfg), "--out", str(tmp_path / "kr.csv")]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_runs_on_one_thread(keyrate_args):
    threads, variable = json.loads(run_python(["-c", CLI_CODE, *keyrate_args], child_env()))
    assert (threads, variable) == (1, "1")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_keeps_a_thread_count_the_user_set(keyrate_args):
    _, variable = json.loads(run_python(["-c", CLI_CODE, *keyrate_args], child_env(OPENBLAS_NUM_THREADS="2")))
    assert variable == "2"


def imports_at_import_time(body):
    """The modules that statements import when their module is imported:
    within if, try, with and class blocks, not within function bodies."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").partition(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from imports_at_import_time(getattr(node, field, []))


def test_no_module_imports_hashlib_at_module_level():
    found = {path.name: names for path in sorted(SRC.glob("cvfade/**/*.py"))
             if (names := {"hashlib", "_hashlib"}.intersection(imports_at_import_time(ast.parse(path.read_text()).body)))}
    assert not found, found


# Runs cvfade.__main__.main on each argument list of argv[1] (JSON), then
# prints their exit codes and whether _hashlib is loaded as one JSON line.
FOOTPRINT_CODE = """\
import json, sys
from cvfade.__main__ import main
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps([codes, "_hashlib" in sys.modules]))
"""


def test_sweep_and_stats_load_no_openssl(tmp_path):
    if run_python(["-c", "import sys, numpy; print('_hashlib' in sys.modules)"], child_env()).strip() == "True":
        pytest.skip("this numpy loads _hashlib at import")
    cfg = tmp_path / "sweep.scenario"
    cfg.write_text(json.dumps({"protocol": {"family": "squeezed", "v_s": 0.5, "v_m": 5.0},
                               "channel": {"fading": {"stats": {"mean_eta": 0.5}}},
                               "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]}}))
    samples = tmp_path / "eta.csv"
    samples.write_text("eta\n0.5\n0.25\n")
    commands = [["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")],
                ["stats", str(samples), "--out", str(tmp_path / "stats.json")]]
    codes, loaded = json.loads(run_python(["-c", FOOTPRINT_CODE, json.dumps(commands)], child_env()))
    assert codes == [0, 0]
    assert "config_sha256" in (tmp_path / "sweep.csv").read_text().splitlines()[0]  # the digest was computed
    assert not loaded
