"""The benchmark harness in perfbench/ reaches into cvfade by name.

perfbench/tracer.py wraps each function in TARGETS by module attribute, and the
harness modules import cvfade names directly.  A deletion or rename that breaks
either fails here, before it breaks a traced benchmark run; so does a change
that takes the CLI's CSV reading or writing around the functions followed here.
"""
import ast
import csv
import importlib
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
FIG3 = ROOT / "scenarios" / "fig3.scenario"


def tracer_targets():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def cvfade_imports():
    """(file, module, name) for every `from cvfade... import name` in perfbench/."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cvfade":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert "keyrate.key_rate" in targets
    for target in targets:
        module_name, attr = target.split(".")
        module = importlib.import_module(f"cvfade.{module_name}")
        assert callable(getattr(module, attr, None)), f"TARGETS entry {target} does not resolve"


def test_harness_imports_resolve():
    found = cvfade_imports()
    assert ("checks.py", "cvfade.keyrate", "key_rate_equivalent_fixed") in found
    for path, module_name, name in found:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"perfbench/{path}: from {module_name} import {name}"


def traced_span_counts(tmp_path, argv):
    """Span name -> count of one `perfbench/tracer.py` run of the CLI on argv, in a fresh process."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), "--spans", str(spans), "--", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return Counter(span[0] for span in json.loads(spans.read_text())["spans"])


def test_traced_runs_wrap_the_lazily_loaded_layers(tmp_path):
    """`import cvfade.cli` runs no scenario, optimizer, beam or specialfn code,
    but binds those modules, so the tracer, which lists the cvfade modules
    right after that import, still wraps their functions."""
    sweep = traced_span_counts(tmp_path, ["sweep", "--config", str(FIG3), "--out", str(tmp_path / "fig3.csv")])
    assert sweep["scenario.load_scenario"] == 1
    assert sweep["optimizer.optimize"] == 13 * 3  # every point of every optimized variant
    assert sweep["scenario.resolve_fading"] == sweep["scenario.build_channel"] == 13
    assert sweep["specialfn.bessel_i0e"] > 0
    simulate = traced_span_counts(tmp_path, ["simulate", "--config", str(FIG3), "--n", "1000",
                                             "--out", str(tmp_path / "eta.csv")])
    assert simulate["scenario.load_scenario"] == 1 and simulate["specialfn.lambert_w_exp"] > 0


def traced_calls(monkeypatch, target, record=lambda args, kwargs, result: result):
    """Record calls of a cvfade function the way tracer.Tracer.install wraps
    a TARGETS function: under every cvfade module attribute bound to it.  Each
    call is recorded as record(args, kwargs, result)."""
    module_name, attr = target.split(".")
    original = getattr(importlib.import_module(f"cvfade.{module_name}"), attr)
    calls = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(record(args, kwargs, result))
        return result

    for name, module in list(sys.modules.items()):
        if name == "cvfade" or name.startswith("cvfade."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)
    return calls


def written_tables(monkeypatch):
    """The arguments of each outputs.write_csv call, by parameter name."""
    from cvfade.outputs import write_csv

    signature = inspect.signature(write_csv)
    return traced_calls(monkeypatch, "outputs.write_csv",
                        lambda args, kwargs, result: signature.bind(*args, **kwargs).arguments)


def check_written_table(call, out, columns=None) -> str:
    """The text of the file one write_csv call wrote to out, checked to be
    render_csv's text of the call's metadata and header and of `columns`, by
    default the call's one row block."""
    from cvfade.outputs import render_csv

    assert Path(call["path"]) == out
    if columns is None:
        (columns,) = call["blocks"]
    text = out.read_bytes().decode()
    assert text == render_csv(call["meta"], call["header"], columns)
    return text


def test_eta_csv_counters_reach_their_layers(tmp_path, monkeypatch):
    """simulate writes its sample file in one outputs.write_csv call, whose
    file is render_csv's text of its metadata and header and of
    beam.simulate's samples (its row blocks come from a generator, which the
    call consumes).  stats streams the file into the moments through one
    channel.read_eta_csv call, which holds no array of the samples and
    returns the moments and their count, the rows the tracer's counter reads
    from .size.  The calls go through module attributes that the tracer can
    replace."""
    from conftest import read_samples
    from cvfade.beam import simulate
    from cvfade.channel import FadingStats, fading_stats
    from cvfade.cli import main  # imports every layer
    from cvfade.scenario import beam_scenario, load_scenario

    tracer = load_tracer()
    csv_rows_cells = tracer.csv_rows_cells
    assert {"outputs.render_csv", "channel.read_eta_csv"} <= set(tracer_targets())
    written = written_tables(monkeypatch)
    read = traced_calls(monkeypatch, "channel.read_eta_csv", lambda args, kwargs, result: (args, kwargs, result))
    samples = tmp_path / "eta.csv"
    n = 1234
    assert main(["simulate", "--config", str(FIG3), "--n", str(n), "--seed", "3", "--out", str(samples)]) == 0
    assert len(written) == 1
    text = check_written_table(written[0], samples, [simulate(beam_scenario(load_scenario(FIG3)), n, 3).samples])
    assert text.count("\n") - 2 == n  # one metadata line, one header line
    assert csv_rows_cells(text) == [n, n]
    assert main(["stats", str(samples), "--out", str(tmp_path / "stats.json")]) == 0
    assert len(read) == 1
    args, kwargs, result = read[0]
    assert args == (str(samples),) and kwargs == {}
    stats, count = result
    assert isinstance(stats, FadingStats) and count == n == tracer.COUNTERS["channel.read_eta_csv"](args, kwargs, result)
    assert stats == fading_stats(read_samples(samples))


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_tables_reach_write_csv_once(tmp_path, monkeypatch):
    """sweep, keyrate --trace, optimize and daily each write their table in
    one outputs.write_csv call, through a module attribute that the tracer
    can replace.  The file is render_csv's text of that call's arguments, so
    rows and cells counted from those arguments are the table's."""
    from cvfade.cli import ROW_FIELDS, main  # imports every layer

    csv_rows_cells = load_tracer().csv_rows_cells
    written = written_tables(monkeypatch)
    daily_header = 6 + 4 * 3  # three variants in fig2b_caption
    runs = {
        "sweep": (["sweep", "--config", str(PERFBENCH / "fading_sweep.scenario")], 500 * 3, len(ROW_FIELDS)),
        "keyrate": (["keyrate", "--config", str(FIG3), "--trace"], 3, len(ROW_FIELDS)),
        "optimize": (["optimize", "--config", str(FIG3)], 3, len(ROW_FIELDS)),
        "daily": (["daily", str(ROOT / "scenarios" / "prague-like.csv"),
                   "--config", str(ROOT / "scenarios" / "fig2b_caption.scenario")], 24, daily_header),
    }
    for command, (argv, rows, columns) in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main(argv + ["--out", str(out), "--jobs", "1"]) == 0, command
        assert len(written) == 1, command
        text = check_written_table(written.pop(), out)
        assert csv_rows_cells(text) == [rows, rows * columns], command
        table = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
        assert len(table) == rows + 1 and {len(row) for row in table} == {columns}, command


def test_optimizer_evaluation_counter(tmp_path, monkeypatch):
    """The tracer's optimizer counter reads OptimizationResult.evaluations, the
    number of distinct (v_s, v_m) points one optimize call evaluated."""
    from cvfade.cli import main  # imports every layer

    assert "optimizer.optimize" in tracer_targets()
    results = traced_calls(monkeypatch, "optimizer.optimize")
    doc = {
        "protocols": [
            {"label": "coherent", "family": "coherent", "beta": 0.95,
             "optimizer": {"vm_max": 40.0, "grid": [2, 9]}},
            {"label": "squeezed", "family": "squeezed", "beta": 0.95,
             "optimizer": {"vs_cap_db": -6.0, "vm_max": 40.0, "grid": [7, 9]}},
        ],
        "channel": {"eta1_db": -3.0, "eps2": 0.01, "fading": {"stats": {"mean_eta": 0.6}}},
        "finite_size": {"n": 1e6},
        "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]},
    }
    cfg = tmp_path / "opt.scenario"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "opt.csv"), "--trace"]) == 0
    assert len(results) == 4
    for result in results:
        assert type(result.evaluations) is int
        assert result.evaluations == len({(v_s, v_m) for v_s, v_m, _ in result.trace})
