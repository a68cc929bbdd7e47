"""Self-tests of the benchmark harness:  python3 -m pytest perfbench -q

They check the span arithmetic on synthetic trees, that the timed child runs
the CLI and reports its own peak memory, and that every workload's output
check accepts real output and rejects it with one digit flipped or one row
dropped.  Outputs come from the CLI in this process, at small sizes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
from cvfade.cli import main as cvfade_main  # noqa: E402
from cvfade.scenario import load_scenario, sweep_values  # noqa: E402

FIG3 = ROOT / "scenarios" / "fig3.scenario"
SEED = 11


def span(name, start, end, parent, value=None):
    return [name, start, end, parent, value]


# root [0, 100] -> a [10, 40] -> a1 [15, 25];  root -> b [50, 90]
TREE = [
    span("cli.main", 0, 100, -1),
    span("optimizer.optimize", 10, 40, 0, 7),
    span("keyrate.key_rate", 15, 25, 1),
    span("keyrate.key_rate", 50, 90, 0),
]


def test_self_times_subtract_direct_children():
    assert tracer.self_times(TREE) == [30, 20, 10, 40]


def test_self_times_add_up_to_root_duration():
    assert sum(tracer.self_times(TREE)) == TREE[0][2] - TREE[0][1]


def test_aggregate_counts_calls_values_and_calls_under_optimize():
    agg = tracer.aggregate(TREE)
    assert agg["keyrate.key_rate"] == {"calls": 2, "ns": 50, "self_ns": 50, "value": 0}
    assert agg["optimizer.optimize"]["value"] == 7
    assert agg["keyrate.key_rate.under_optimize"]["calls"] == 1


def test_csv_rows_cells():
    assert tracer.csv_rows_cells("# metadata: {}\r\na,b,c\r\n1,2,3\r\n4,5,6\r\n") == [2, 6]


def test_traced_cli_run_matches_untraced_bytes(tmp_path):
    csv = tmp_path / "eta.csv"
    assert cvfade_main(["simulate", "--config", str(FIG3), "--n", "3000", "--seed", "3", "--out", str(csv)]) == 0
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cvfade_main(["stats", str(csv), "--out", str(plain)]) == 0
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--",
                    "stats", str(csv), "--out", str(traced)], check=True, env=env, timeout=120)
    assert traced.read_bytes() == plain.read_bytes()
    doc = json.loads(spans.read_text())
    names = [s[0] for s in doc["spans"]]
    assert names[0] == "cli.main" and "channel.read_eta_csv" in names
    agg = tracer.aggregate(doc["spans"])
    assert agg["channel.read_eta_csv"]["value"] == 3000
    assert sum(t.get("self_ns", 0) for t in agg.values()) == agg["cli.main"]["ns"]


def test_timed_child_runs_the_cli_and_reports_its_own_peak_rss(tmp_path):
    import run

    csv = tmp_path / "eta.csv"
    assert cvfade_main(["simulate", "--config", str(FIG3), "--n", "3000", "--seed", "3", "--out", str(csv)]) == 0
    plain, timed, rss = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "rss_kb"
    assert cvfade_main(["stats", str(csv), "--out", str(plain)]) == 0
    ballast = np.ones(8_000_000)  # 64 MB held by the process that spawns the child
    *_, code = run.run_child(run.cli(["stats", str(csv), "--out", str(timed)], rss), run.child_env(), tmp_path / "log")
    assert code == 0 and timed.read_bytes() == plain.read_bytes()
    assert 0 < int(rss.read_text()) < ballast.nbytes / 1024
    rss.unlink()
    *_, code = run.run_child(run.cli(["stats", str(tmp_path / "none.csv")], rss), run.child_env(), tmp_path / "log")
    assert code != 0 and int(rss.read_text()) > 0


def flip_digit(data: bytes, line: int, column: int) -> bytes:
    """Change the first nonzero digit of one CSV cell (line counts the metadata line)."""
    lines = data.decode().split("\r\n")
    cells = lines[line].split(",")
    cell = cells[column]
    k = next(i for i, ch in enumerate(cell) if ch in "123456789")
    cells[column] = cell[:k] + str(int(cell[k]) % 9 + 1) + cell[k + 1:]
    lines[line] = ",".join(cells)
    return "\r\n".join(lines).encode()


def drop_line(data: bytes, line: int) -> bytes:
    lines = data.decode().split("\r\n")
    return "\r\n".join(lines[:line] + lines[line + 1:]).encode()


def small_scenario(tmp_path, source: Path, **changes) -> Path:
    raw = json.loads(source.read_text())
    raw.update(changes)
    path = tmp_path / source.name
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def fading_table(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fading")
    scenario = small_scenario(tmp, HERE / "fading_sweep.scenario",
                              sweep={"variable": "var_sqrt", "start": 0.0, "stop": 0.02, "steps": 4})
    out = tmp / "rates.csv"
    assert cvfade_main(["sweep", "--config", str(scenario), "--out", str(out)]) == 0
    config = load_scenario(scenario)
    return out.read_bytes(), config, sweep_values(config.sweep)


@pytest.fixture(scope="module")
def fig3_table(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fig3")
    raw = json.loads(FIG3.read_text())
    for p in raw["protocols"]:
        p["optimizer"]["grid"] = [5, 5]
    raw["channel"]["fading"]["beam"]["n_samples"] = 5000
    raw["sweep"] = {"variable": "distance", "values": [1000.0]}
    scenario = tmp / "fig3_small.scenario"
    scenario.write_text(json.dumps(raw))
    out = tmp / "rates.csv"
    assert cvfade_main(["sweep", "--config", str(scenario), "--out", str(out), "--seed", str(SEED)]) == 0
    return out.read_bytes(), load_scenario(scenario), [1000.0]


@pytest.mark.parametrize("table", ["fading_table", "fig3_table"])
def test_rate_check_accepts_real_output(table, request):
    data, config, values = request.getfixturevalue(table)
    assert checks.check_rate_table(data, config, values) == []


# columns: 3 v_s, 4 v_m, 10 mean_sqrt_eta, 15 i_ab, 18 rate_finite
@pytest.mark.parametrize("table", ["fading_table", "fig3_table"])
@pytest.mark.parametrize("line,column", [(2, 18), (3, 15), (4, 4), (4, 3), (2, 10)])
def test_rate_check_rejects_flipped_digit(table, line, column, request):
    data, config, values = request.getfixturevalue(table)
    assert checks.check_rate_table(flip_digit(data, line, column), config, values)


def test_rate_check_rejects_flip_outside_recomputed_rows(fading_table):
    data, config, values = fading_table
    # sweep point 1 is not recomputed with every=2; identities still catch it
    corrupt = flip_digit(data, 2 + 3 * 1, 18)
    assert checks.check_rate_table(data, config, values, key_rate_every=2) == []
    assert checks.check_rate_table(corrupt, config, values, key_rate_every=2)


@pytest.mark.parametrize("table", ["fading_table", "fig3_table"])
def test_rate_check_rejects_dropped_row(table, request):
    data, config, values = request.getfixturevalue(table)
    assert checks.check_rate_table(drop_line(data, 3), config, values)


def test_reference_gap_finds_room_left_by_a_coarse_grid(fig3_table):
    data, config, _ = fig3_table
    gap, rows = checks.reference_gap(data, config)
    assert rows == 3
    assert 0.0 < gap < 0.5  # the table's optimizer used a 5 x 5 grid


@pytest.fixture(scope="module")
def eta_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eta")
    out = tmp / "eta.csv"
    n = 2000
    assert cvfade_main(["simulate", "--config", str(FIG3), "--n", str(n), "--seed", str(SEED), "--out", str(out)]) == 0
    stats = tmp / "stats.json"
    assert cvfade_main(["stats", str(out), "--out", str(stats)]) == 0
    reference = checks.beam_reference(load_scenario(FIG3), n, SEED)
    return out.read_bytes(), Path(f"{out}.json").read_bytes(), stats.read_bytes(), reference, tmp


def test_eta_check_accepts_real_output(eta_files):
    data, sidecar, _, reference, _ = eta_files
    assert checks.check_eta_csv(data, sidecar, reference, SEED) == []


def test_eta_check_rejects_flipped_digit_and_dropped_row(eta_files):
    data, sidecar, _, reference, _ = eta_files
    assert checks.check_eta_csv(flip_digit(data, 100, 0), sidecar, reference, SEED)
    assert checks.check_eta_csv(drop_line(data, 100), sidecar, reference, SEED)


def test_stats_check(eta_files):
    data, _, stats, reference, tmp = eta_files
    assert checks.check_stats_json(stats, reference) == []
    text = stats.decode()
    k = text.index('"mean_eta": 0.') + len('"mean_eta": 0.') + 4  # fifth decimal
    flipped = text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    assert checks.check_stats_json(flipped.encode(), reference)
    # stats of an input with one row dropped
    short = tmp / "short.csv"
    short.write_bytes(drop_line(data, 100))
    out = tmp / "short.json"
    assert cvfade_main(["stats", str(short), "--out", str(out)]) == 0
    assert checks.check_stats_json(out.read_bytes(), reference)
