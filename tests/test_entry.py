"""The package entry points: an `import cvfade` that loads no numpy, and a CLI entry that runs on one thread."""
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
