"""The package entry points: an `import cvfade` that loads no numpy, an
`import cvfade.cli` that binds every module but runs none it does not use, a
CLI entry that runs on one thread, and commands that load no OpenSSL
(hashlib's _hashlib maps libcrypto, 3.4 MB resident), no numpy.polynomial
and, for `stats`, no rate modules."""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIOS = SRC.parent / "scenarios"

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


def test_cli_import_binds_every_module_on_the_package():
    """perfbench's set-up probe reaches cvfade.scenario through the package."""
    code = ("import cvfade, cvfade.cli, sys; config = cvfade.scenario.load_scenario(sys.argv[1]); "
            "print(len(config.variants))")
    assert int(run_python(["-c", code, str(SCENARIOS / "fig3.scenario")], child_env())) > 0


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


def test_cli_imports_only_at_module_level():
    """cli reaches each module one way: no import inside a function, and none
    under `if TYPE_CHECKING` for annotations."""
    tree = ast.parse((SRC / "cvfade" / "cli.py").read_text())
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert not nested, f"imports below module level at lines {nested}"


def test_cli_reads_no_scenario_document():
    """Each command takes its inputs from a scenario function: cli reads no
    document attribute of a ScenarioConfig and computes no fading moments."""
    tree = ast.parse((SRC / "cvfade" / "cli.py").read_text())
    names = {*names_in_code(tree), *(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))}
    found = sorted(names & {"channel_doc", "sweep", "raw", "fading_moments"})
    assert not found, found


def test_no_module_imports_hashlib_at_module_level():
    found = {path.name: names for path in sorted(SRC.glob("cvfade/**/*.py"))
             if (names := {"hashlib", "_hashlib"}.intersection(imports_at_import_time(ast.parse(path.read_text()).body)))}
    assert not found, found


def names_in_code(tree):
    """The attribute names and imported names of a module's code, comments
    and strings left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield getattr(node, "module", None) or ""
            yield from (alias.name for alias in node.names)


def test_no_module_names_numpy_polynomial():
    """The beam rule's nodes and weights are literals: no module imports
    numpy.polynomial or reaches it as an attribute, at any level."""
    found = [path.name for path in sorted(SRC.glob("cvfade/**/*.py"))
             if any("polynomial" in name.split(".") for name in names_in_code(ast.parse(path.read_text())))]
    assert not found, found


# Runs cvfade.__main__.main on each argument list of argv[1] (JSON), then
# prints their exit codes, whether _hashlib and numpy.polynomial are loaded
# and the cvfade modules whose code ran, as one JSON line.  A module the entry
# marked absent is None in sys.modules: not loaded.  A module the CLI bound
# lazily and never used is still a LazyLoader module, a subclass of the
# module type.
FOOTPRINT_CODE = """\
import json, sys
from cvfade.__main__ import main
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps([codes, sys.modules.get("_hashlib") is not None, "numpy.polynomial" in sys.modules,
                  sorted(name for name, module in sys.modules.items()
                         if name.startswith("cvfade.") and type(module) is type(sys))]))
"""

# FOOTPRINT_CODE in a CPython that has no built-in SHA-256 module.
NO_BUILTIN_SHA256_CODE = "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n" + FOOTPRINT_CODE


def run_main(commands, code=FOOTPRINT_CODE):
    """The exit codes of the CLI commands run in one child through
    cvfade.__main__.main, whether _hashlib was loaded, whether
    numpy.polynomial was and the cvfade modules whose code ran."""
    return json.loads(run_python(["-c", code, json.dumps(commands)], child_env()))


def has_builtin_sha256():
    return any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.fixture
def simulate_args(tmp_path):
    cfg = tmp_path / "beam.scenario"
    cfg.write_text(json.dumps({"protocol": {"family": "squeezed", "v_m": 5.0},
                               "channel": {"fading": {"beam": {"wavelength": 1.55e-6, "w0": 0.02, "aperture": 0.02,
                                                               "distance": 1750.0, "sigma_r2": 0.56}}}}))
    # two generator chunks and a part, several render chunks
    return ["simulate", "--config", str(cfg), "--n", "20000", "--seed", "7", "--out", str(tmp_path / "eta.csv")]


@pytest.mark.skipif(not has_builtin_sha256(), reason="hashlib needs _hashlib in a CPython without built-in SHA-256")
def test_simulate_loads_no_openssl(simulate_args, tmp_path):
    codes, hashlib_loaded, *_ = run_main([simulate_args])
    assert codes == [0]
    assert "config_sha256" in json.loads((tmp_path / "eta.csv.json").read_text())
    assert not hashlib_loaded


def test_simulate_without_openssl_writes_the_samples_of_a_process_with_it(simulate_args, tmp_path):
    """The CLI's Philox draws, made without _hashlib, are those of this
    process, in which _hashlib stays importable."""
    pytest.importorskip("_hashlib")
    from cvfade import beam, outputs
    from cvfade.scenario import beam_scenario, load_scenario

    assert run_main([simulate_args])[0] == [0]
    text = (tmp_path / "eta.csv").read_bytes()
    meta = json.loads(text.split(b"\r\n", 1)[0].removeprefix(b"# metadata: "))
    chunks = beam.sample_chunks(beam_scenario(load_scenario(simulate_args[2])), 20000, 7)
    assert text == outputs.render_csv(meta, ["eta"], [np.concatenate(list(chunks))]).encode()


def test_fig3_sweep_and_daily_load_no_numpy_polynomial(tmp_path):
    commands = [["sweep", "--config", str(SCENARIOS / "fig3.scenario"), "--out", str(tmp_path / "fig3.csv")],
                ["daily", str(SCENARIOS / "prague-like.csv"), "--config", str(SCENARIOS / "fig2b_caption.scenario"),
                 "--out", str(tmp_path / "daily.csv")]]
    codes, _, polynomial_loaded, modules = run_main(commands)
    assert codes == [0, 0]
    assert not polynomial_loaded
    assert RATE_MODULES <= set(modules)  # the lazily bound modules ran when used


def test_keyrate_without_builtin_sha256_keeps_openssl_for_the_digest(keyrate_args):
    """Where CPython has no built-in SHA-256 module, the entry leaves _hashlib
    importable: hashlib needs it for the config digest."""
    pytest.importorskip("_hashlib")
    codes, hashlib_loaded, *_ = run_main([keyrate_args], NO_BUILTIN_SHA256_CODE)
    assert codes == [0]
    assert "config_sha256" in Path(keyrate_args[-1]).read_text().splitlines()[0]
    assert hashlib_loaded


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
    codes, loaded, *_ = run_main(commands)
    assert codes == [0, 0]
    assert "config_sha256" in (tmp_path / "sweep.csv").read_text().splitlines()[0]  # the digest was computed
    assert not loaded


# The modules that only the rate commands and `simulate` run.
RATE_MODULES = {f"cvfade.{name}" for name in ("beam", "specialfn", "keyrate", "sources", "optimizer", "scenario")}


def test_stats_loads_no_rate_modules(tmp_path):
    samples = tmp_path / "eta.csv"
    samples.write_text("eta\n0.5\n0.25\n")
    codes, _, _, modules = run_main([["stats", str(samples), "--out", str(tmp_path / "stats.json")]])
    assert codes == [0]
    assert json.loads((tmp_path / "stats.json").read_text())["n_samples"] == 2
    assert "cvfade.channel" in modules and not RATE_MODULES.intersection(modules)
