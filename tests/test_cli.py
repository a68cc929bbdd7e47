import contextlib
import csv
import gc
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOCK_OF_LINES, MALFORMED_CN2, hex_values, number_keys, read_samples, sample_values
from cvfade import __version__, beam, cli, optimizer
from cvfade.beam import simulate
from cvfade.cli import main
from cvfade.errors import DomainError, NumericalFailure
from cvfade.keyrate import key_rate, key_rates
from cvfade.outputs import _CHUNK, _tables, metadata_line, render_csv, write_csv, write_text
from cvfade.scenario import SCHEMA, SWEEP_VARIABLES, beam_scenario, build_channel, load_scenario, resolve_fading

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

BEAM_DOC = {
    "seed": 11,
    "protocol": {"family": "coherent", "v_m": 3.0, "beta": 0.95},
    "channel": {
        "eta1_db": -3.0,
        "eps2": 0.01,
        "fading": {
            "beam": {
                "wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02,
                "distance": 1500.0, "sigma_r2": 0.25, "n_samples": 4000,
            }
        },
    },
}


def write_cfg(tmp_path, doc, name="cfg.scenario"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestSimulateCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        cfg = write_cfg(tmp_path, BEAM_DOC)
        out = tmp_path / "etas.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--n", "500"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# metadata: ")
        assert lines[1] == "eta"
        assert len(lines) == 2 + 500
        sidecar = json.loads((tmp_path / "etas.csv.json").read_text())
        assert sidecar["seed"] == 11
        assert sidecar["generator"] == "philox"
        assert sidecar["n"] == 500
        assert sidecar["coefficient_table_version"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BEAM_DOC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(a), "--n", "2000"])
        main(["simulate", "--config", cfg, "--out", str(b), "--n", "2000", "--jobs", "4"])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text('{"channel": {"fading": {}}, "unknown": 1')
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_stats_fading_config_rejected(self, tmp_path):
        doc = {"protocol": {"family": "coherent"}, "channel": {"fading": {"stats": {"mean_eta": 0.5}}}}
        cfg = write_cfg(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "y.csv")]) == 2

    def test_missing_distance_exits_2(self, tmp_path):
        doc = json.loads(json.dumps(BEAM_DOC))
        del doc["channel"]["fading"]["beam"]["distance"]
        cfg = write_cfg(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "z.csv")]) == 2


class TestStatsCommand:
    def make_samples(self, tmp_path, values, name="s.csv"):
        p = tmp_path / name
        p.write_text("eta\n" + "\n".join(str(v) for v in values) + "\n")
        return str(p)

    def test_uniform_grid(self, tmp_path, capsys):
        n = 100_000
        path = self.make_samples(tmp_path, (np.arange(n) + 0.5) / n)
        assert main(["stats", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["var_sqrt"] == pytest.approx(1.0 / 18.0, abs=1e-4)
        assert doc["var_sqrt"] == pytest.approx(0.055, abs=1e-3)

    def test_constant_channel(self, tmp_path, capsys):
        path = self.make_samples(tmp_path, [0.7] * 50)
        main(["stats", path])
        doc = json.loads(capsys.readouterr().out)
        assert doc["var_sqrt"] == pytest.approx(0.0, abs=1e-12)

    def test_on_off_channel(self, tmp_path, capsys):
        path = self.make_samples(tmp_path, [0.0, 1.0] * 20)
        main(["stats", path])
        doc = json.loads(capsys.readouterr().out)
        assert doc["var_sqrt"] == pytest.approx(0.25)

    def test_out_file(self, tmp_path):
        path = self.make_samples(tmp_path, [0.5, 0.5])
        out = tmp_path / "st.json"
        main(["stats", path, "--out", str(out)])
        assert json.loads(out.read_text())["n_samples"] == 2

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["stats", str(tmp_path / "absent.csv")]) == 4

    def test_bad_header_exits_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("transmission\n0.5\n")
        assert main(["stats", str(p)]) == 2


class TestKeyrateCommand:
    def test_single_row(self, tmp_path):
        doc = {
            "protocol": {"family": "squeezed", "v_s": 0.5, "v_m": 1.5},
            "channel": {"fading": {"stats": {"mean_eta": 1.0}}},
        }
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "kr.csv"
        assert main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["i_ab"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows[0]["chi"]) == pytest.approx(0.0, abs=1e-9)

    def test_keyrate_ignores_optimizer_optimize_uses_it(self, tmp_path):
        doc = {
            "protocol": {
                "family": "squeezed", "v_s": 0.9, "v_m": 1.0, "label": "sq",
                "optimizer": {"vs_cap_db": -10.0, "vm_max": 40.0, "grid": [7, 9]},
            },
            "channel": {"fading": {"stats": {"mean_eta": 0.5}}},
        }
        cfg = write_cfg(tmp_path, doc)
        kr, op = tmp_path / "kr.csv", tmp_path / "op.csv"
        main(["keyrate", "--config", cfg, "--out", str(kr)])
        main(["optimize", "--config", cfg, "--out", str(op)])
        assert float(read_rows(kr)[0]["v_m"]) == 1.0
        opt_row = read_rows(op)[0]
        assert float(opt_row["v_m"]) > 1.0
        assert float(opt_row["v_s"]) == pytest.approx(0.1, rel=1e-5)

    def test_trace_flag_writes_sidecar(self, tmp_path):
        doc = {
            "protocol": {
                "family": "coherent", "optimizer": {"vm_max": 20.0, "grid": [3, 5]},
            },
            "channel": {"fading": {"stats": {"mean_eta": 0.8}}},
        }
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "o.csv"
        main(["optimize", "--config", cfg, "--out", str(out), "--trace"])
        trace = json.loads((tmp_path / "o.csv.trace.json").read_text())
        assert trace["traces"][0]["evaluations"] > 0


class TestSweepCommand:
    def test_block_size_sweep_monotone(self, tmp_path):
        doc = {
            "protocol": {"family": "squeezed", "v_s": 0.5, "v_m": 2.0, "beta": 0.95},
            "channel": {"fading": {"stats": {"mean_eta": 0.6}}},
            "finite_size": {"n": 1e6},
            "sweep": {"variable": "block_size", "values": [1e4, 1e6, 1e8]},
        }
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rates = [float(r["rate_finite"]) for r in read_rows(out)]
        assert rates[0] < rates[1] < rates[2]

    def test_sweep_requires_section(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "protocol": {"family": "coherent"},
            "channel": {"fading": {"stats": {"mean_eta": 0.5}}},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_trace_flag_writes_one_entry_per_point(self, tmp_path):
        doc = {
            "protocol": {
                "family": "coherent", "optimizer": {"vm_max": 20.0, "grid": [3, 5]},
            },
            "channel": {"fading": {"stats": {"mean_eta": 0.8}}},
            "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]},
        }
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--trace"]) == 0
        traces = json.loads((tmp_path / "sw.csv.trace.json").read_text())["traces"]
        assert [(t["label"], t["sweep_value"]) for t in traces] == [("coherent", 0.0), ("coherent", 0.01)]
        assert all(t["evaluations"] == len(t["trace"]) > 0 for t in traces)

    def test_jobs_do_not_change_output(self, tmp_path):
        doc = {
            "seed": 3,
            "protocol": {"family": "coherent", "v_m": 4.0, "beta": 0.95},
            "channel": {"fading": {"stats": {"mean_eta": 0.9, "var_sqrt": 0.001}}},
            "sweep": {"variable": "mean_eta_db", "start": -6.0, "stop": -1.0, "steps": 6},
        }
        cfg = write_cfg(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", cfg, "--out", str(a), "--jobs", "1"])
        main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "6"])
        assert a.read_bytes() == b.read_bytes()

    def test_vs_sweep_leaves_coherent_variant_at_vs_1(self, tmp_path):
        doc = {
            "protocols": [
                {"label": "coh", "family": "coherent", "optimizer": {"vm_max": 20.0, "grid": [3, 5]}},
                {"label": "sq", "family": "squeezed", "v_s": 0.5, "v_m": 3.0},
            ],
            "channel": {"fading": {"stats": {"mean_eta": 0.6}}},
            "sweep": {"variable": "v_s", "values": [1.0, 0.5, 0.2]},
        }
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        rows = read_rows(out)
        coh = [r for r in rows if r["label"] == "coh"]
        sq = [r for r in rows if r["label"] == "sq"]
        assert [float(r["v_s"]) for r in coh] == [1.0, 1.0, 1.0]
        assert len({(r["v_m"], r["rate_asymptotic"]) for r in coh}) == 1
        assert [float(r["v_s"]) for r in sq] == [1.0, 0.5, 0.2]
        assert len({r["rate_asymptotic"] for r in sq}) == 3

    @pytest.mark.parametrize("variable,values,resolutions", [
        ("block_size", [1e5, 1e6, 1e7], 1), ("v_m", [1.0, 3.0, 5.0], 1), ("distance", [1000.0, 2000.0], 2),
    ])
    def test_beam_channel_resolved_once_unless_swept(self, tmp_path, monkeypatch, variable, values, resolutions):
        import cvfade.scenario

        calls = []
        moments = cvfade.scenario.fading_moments

        def counted(scen):
            calls.append(scen)
            return moments(scen)

        monkeypatch.setattr(cvfade.scenario, "fading_moments", counted)
        doc = {**BEAM_DOC, "sweep": {"variable": variable, "values": values}}
        assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "sw.csv")]) == 0
        assert len(calls) == resolutions
        assert len(read_rows(tmp_path / "sw.csv")) == len(values)

    def test_fig1b_shipped_scenario_trend(self, tmp_path):
        out = tmp_path / "fig1b.csv"
        assert main(["sweep", "--config", str(SCENARIOS / "fig1b.scenario"), "--out", str(out)]) == 0
        rows = read_rows(out)
        vs = [float(r["sweep_value"]) for r in rows]
        rates = [float(r["rate_asymptotic"]) for r in rows]
        assert vs == sorted(vs, reverse=True)
        # stronger squeezing never hurts on the fluctuation-free slice
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def reduced_daily_cfg(tmp_path, eta1_db=-4.5):
    doc = {
        "seed": 9,
        "protocols": [
            {"label": "coherent", "family": "coherent", "beta": 0.95,
             "optimizer": {"vm_max": 60.0, "grid": [5, 9]}},
            {"label": "squeezed3", "family": "squeezed", "beta": 0.95,
             "optimizer": {"vs_cap_db": -3.0, "vm_max": 60.0, "grid": [5, 9]}},
        ],
        "channel": {
            "eta1_db": eta1_db,
            "eps2": 0.01,
            "fading": {"beam": {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.03}},
        },
        "finite_size": {"n": 1e6},
        "daily": {"n_samples": 2500},
    }
    return write_cfg(tmp_path, doc, "daily.scenario")


class TestDailyCommand:
    def test_all_rows_populated(self, tmp_path):
        cfg = reduced_daily_cfg(tmp_path)
        out = tmp_path / "daily.csv"
        assert main(["daily", str(SCENARIOS / "prague-like.csv"), "--config", cfg,
                     "--out", str(out), "--jobs", "4"]) == 0
        rows = read_rows(out)
        assert len(rows) == 24
        for row in rows:
            for key, value in row.items():
                assert value != "", f"empty field {key}"

    def test_lowest_cn2_hour_has_highest_coherent_rate(self, tmp_path):
        cfg = reduced_daily_cfg(tmp_path)
        out = tmp_path / "daily.csv"
        main(["daily", str(SCENARIOS / "prague-like.csv"), "--config", cfg,
              "--out", str(out), "--jobs", "4"])
        rows = read_rows(out)
        lowest = min(rows, key=lambda r: float(r["cn2"]))
        best = max(rows, key=lambda r: float(r["coherent_rate_finite"]))
        assert lowest["label"] == best["label"]

    def test_doubling_cn2_never_increases_rates(self, tmp_path):
        cfg = reduced_daily_cfg(tmp_path)
        doubled = tmp_path / "cn2x2.csv"
        src_lines = (SCENARIOS / "prague-like.csv").read_text().splitlines()
        out_lines = []
        for ln in src_lines:
            if ln.startswith("#") or ln.startswith("hour"):
                out_lines.append(ln)
            elif ln.strip():
                label, value = ln.split(",")
                out_lines.append(f"{label},{2.0 * float(value):.6e}")
        doubled.write_text("\n".join(out_lines) + "\n")

        base_out, dbl_out = tmp_path / "base.csv", tmp_path / "dbl.csv"
        main(["daily", str(SCENARIOS / "prague-like.csv"), "--config", cfg,
              "--out", str(base_out), "--jobs", "4"])
        main(["daily", str(doubled), "--config", cfg, "--out", str(dbl_out), "--jobs", "4"])
        base_rows, dbl_rows = read_rows(base_out), read_rows(dbl_out)
        for b, d in zip(base_rows, dbl_rows):
            for col in ("coherent_rate_finite", "squeezed3_rate_finite"):
                assert float(d[col]) <= float(b[col]) + 1e-9

    def test_daily_releases_its_searches_before_writing(self, tmp_path, monkeypatch):
        """No OptimizationResult, and so no search trace, is alive when daily
        writes its table: 24 were, the last variant's, one per hour."""
        def live_results():
            gc.collect()
            return sum(isinstance(o, optimizer.OptimizationResult) for o in gc.get_objects())

        counts, write_csv = [], cli.write_csv
        monkeypatch.setattr(cli, "write_csv", lambda *args: counts.append(live_results()) or write_csv(*args))
        before = live_results()
        assert main(["daily", str(SCENARIOS / "prague-like.csv"), "--config", reduced_daily_cfg(tmp_path),
                     "--out", str(tmp_path / "daily.csv")]) == 0
        assert [count - before for count in counts] == [0]

    def test_default_distance_is_2200_m(self, tmp_path):
        """A beam section without distance gives the table of the same section at 2200 m."""
        series = tmp_path / "cn2.csv"
        series.write_text("hour,cn2\n00,4.0e-15\n12,2.5e-14\n")
        doc = json.loads(Path(reduced_daily_cfg(tmp_path)).read_text())
        tables = []
        for name, beam in (("default", {}), ("explicit", {"distance": 2200.0})):
            doc["channel"]["fading"]["beam"].update(beam)
            out = tmp_path / f"{name}.csv"
            assert main(["daily", str(series), "--config", write_cfg(tmp_path, doc, f"{name}.scenario"),
                         "--out", str(out)]) == 0
            tables.append(out.read_bytes().split(b"\n", 1)[1])  # the metadata lines differ in their config hash
        assert tables[0] == tables[1]

    def test_daily_rejects_fixed_turbulence(self, tmp_path):
        doc = json.loads(Path(reduced_daily_cfg(tmp_path)).read_text())
        doc["channel"]["fading"]["beam"]["sigma_r2"] = 0.5
        cfg = write_cfg(tmp_path, doc, "bad_daily.scenario")
        assert main(["daily", str(SCENARIOS / "prague-like.csv"), "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command", ["keyrate", "optimize", "sweep", "daily"])
def test_rate_commands_take_no_sample_count(command, capsys):
    argv = [command] + (["series.csv"] if command == "daily" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", "x.scenario", "--out", "x.csv", "--n", "1000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 1000" in capsys.readouterr().err


def test_beam_rate_tables_do_not_depend_on_seed(tmp_path):
    """Beam links enter the rate commands through the quadrature moments: the
    seed reaches the metadata line only."""
    doc = {**BEAM_DOC, "protocol": {"family": "coherent", "v_m": 3.0, "beta": 0.95,
                                    "optimizer": {"vm_max": 40.0, "grid": [2, 9]}},
           "sweep": {"variable": "distance", "values": [1000.0, 2000.0]}}
    cfg = write_cfg(tmp_path, doc)
    daily_cfg = reduced_daily_cfg(tmp_path)
    for command in ("keyrate", "optimize", "sweep", "daily"):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"{command}_{seed}.csv"
            argv = [command, "--config", cfg] if command != "daily" else [
                "daily", str(SCENARIOS / "prague-like.csv"), "--config", daily_cfg]
            assert main(argv + ["--out", str(out), "--seed", seed]) == 0
            meta, body = out.read_bytes().split(b"\r\n", 1)
            assert json.loads(meta.split(b": ", 1)[1])["seed"] == int(seed)
            blobs.append(body)
        assert blobs[0] == blobs[1], command


def test_optimizer_round_cap_is_flagged(tmp_path):
    doc = {
        "protocol": {"family": "squeezed", "beta": 0.95,
                     "optimizer": {"vs_cap_db": -3.0, "vm_max": 1e5, "grid": [5, 5]}},
        "channel": {"eps2": 0.01, "fading": {"stats": {"mean_eta": 0.1}}},
    }
    out = tmp_path / "op.csv"
    assert main(["optimize", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    # the best rate on this lossy channel is negative: both flags, in this order
    assert read_rows(out)[0]["flags"] == "no_positive_rate;optimizer_round_cap"


# one search that converges, one that the step floor ends, one that the round cap ends
STOP_DOC = {
    "protocols": [
        {"label": "converged", "family": "coherent", "beta": 0.95,
         "optimizer": {"vm_max": 20.0, "grid": [3, 5]}},
        {"label": "floored", "family": "coherent", "beta": 0.95,
         "optimizer": {"vm_max": 20.0, "grid": [3, 5], "tolerance": 1e-300}},
        {"label": "capped", "family": "squeezed", "beta": 0.9,
         "optimizer": {"vs_cap_db": -3.0, "vm_max": 1e5, "grid": [5, 2]}},
    ],
    "channel": {"eps2": 0.01, "fading": {"stats": {"mean_eta": 0.5}}},
}


def test_trace_records_rounds_and_stop_reason(tmp_path):
    """Each --trace entry says how many compass rounds ran and what ended the
    search; the CSV is the same with and without --trace."""
    cfg = write_cfg(tmp_path, STOP_DOC)
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert main(["optimize", "--config", cfg, "--out", str(plain)]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(traced), "--trace"]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    traces = json.loads((tmp_path / "traced.csv.trace.json").read_text())["traces"]
    assert [(t["label"], t["stop"]) for t in traces] == [
        ("converged", "tolerance"), ("floored", "step_floor"), ("capped", "round_cap")]
    assert 0 < traces[0]["rounds"] < traces[1]["rounds"] < traces[2]["rounds"] == 1000


def test_rows_flag_a_search_that_did_not_converge(tmp_path):
    """A search ended by the step floor or the round cap says so in its row's flags."""
    out = tmp_path / "rows.csv"
    assert main(["optimize", "--config", write_cfg(tmp_path, STOP_DOC), "--out", str(out)]) == 0
    assert [(row["label"], row["flags"]) for row in read_rows(out)] == [
        ("converged", ""), ("floored", "optimizer_step_floor"),
        ("capped", "optimizer_round_cap")]


SAMPLE_CHUNK = 8192  # samples per generator chunk of beam.sample_chunks


@pytest.mark.parametrize("n", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 5])
def test_streamed_sample_file_is_render_csv_of_simulate(tmp_path, n):
    """simulate writes its samples a generator chunk at a time: the file is
    render_csv's text of beam.simulate's samples, and the sidecar holds the
    keys and values it held when simulate's array was written whole."""
    cfg = write_cfg(tmp_path, BEAM_DOC)
    out = tmp_path / "eta.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--n", str(n)]) == 0
    config = load_scenario(cfg)
    scenario = beam_scenario(config)
    meta = {"config_sha256": config.config_hash(), "seed": 11, "package": f"cvfade {__version__}",
            "n": n, "generator": "philox"}
    assert out.read_bytes().decode() == render_csv(meta, ["eta"], [simulate(scenario, n, 11).samples])
    sidecar = {"generator": "philox", "seed": 11, "n": n, "chunk_size": SAMPLE_CHUNK, "scenario": asdict(scenario),
               "coefficient_table_version": "elliptic-focused-2024.1", "config_sha256": config.config_hash()}
    assert Path(f"{out}.json").read_text() == json.dumps(sidecar, indent=2, sort_keys=True) + "\n"


def test_simulate_memory_does_not_grow_with_n(tmp_path):
    """No n-sized array is built on simulate's way to the file: its traced peak
    at 40 generator chunks is within 256 KB of its peak at 4, where an array
    of 40 chunks' samples alone would take 2.6 MB."""
    cfg = write_cfg(tmp_path, BEAM_DOC)
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "eta.csv"), "--n"]
    assert main(argv + ["10"]) == 0  # loads and caches what any first run does
    peaks = []
    for chunks in (4, 40):
        tracemalloc.start()
        try:
            assert main(argv + [str(chunks * SAMPLE_CHUNK)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


def failing_batches(monkeypatch, failing):
    """Make beam._transmittance_batch raise NumericalFailure on its call
    number `failing`; the calls are counted in the returned list."""
    batches = []
    transmittance_batch = beam._transmittance_batch

    def fails(*args):
        batches.append(None)
        if len(batches) == failing:
            raise NumericalFailure("transmittance evaluation produced non-finite values")
        return transmittance_batch(*args)

    monkeypatch.setattr(beam, "_transmittance_batch", fails)
    return batches


def test_failure_in_the_middle_of_the_sample_stream_leaves_no_file(tmp_path, capsys, monkeypatch):
    """A chunk that fails after the file is opened exits 3 with one line; the
    partial file is removed, and an older file at --out with it, and so is
    that file's older sidecar: no sidecar is left beside no file."""
    batches = failing_batches(monkeypatch, 3)
    out, sidecar = tmp_path / "eta.csv", tmp_path / "eta.csv.json"
    out.write_text("older\n")
    sidecar.write_text('{"older": true}\n')
    assert main(["simulate", "--config", write_cfg(tmp_path, BEAM_DOC), "--out", str(out),
                 "--n", str(4 * SAMPLE_CHUNK)]) == 3
    assert capsys.readouterr().err == "numerical failure: transmittance evaluation produced non-finite values\n"
    assert len(batches) == 3
    assert not out.exists() and not sidecar.exists()


def test_failure_before_the_sample_file_opens_keeps_the_older_pair(tmp_path, capsys, monkeypatch):
    """The first chunk is drawn before the file is opened: when it fails, an
    older sample file and its sidecar both stay."""
    failing_batches(monkeypatch, 1)
    out, sidecar = tmp_path / "eta.csv", tmp_path / "eta.csv.json"
    out.write_text("older\n")
    sidecar.write_text('{"older": true}\n')
    assert main(["simulate", "--config", write_cfg(tmp_path, BEAM_DOC), "--out", str(out),
                 "--n", str(4 * SAMPLE_CHUNK)]) == 3
    assert capsys.readouterr().err == "numerical failure: transmittance evaluation produced non-finite values\n"
    assert out.read_text() == "older\n" and sidecar.read_text() == '{"older": true}\n'


def test_failure_in_the_sample_stream_leaves_a_linked_sidecar(tmp_path, monkeypatch):
    """Only a regular file at the sidecar's path is removed, not a link nor
    the file it names."""
    failing_batches(monkeypatch, 3)
    out, sidecar, target = tmp_path / "eta.csv", tmp_path / "eta.csv.json", tmp_path / "kept.json"
    target.write_text("{}\n")
    sidecar.symlink_to(target)
    assert main(["simulate", "--config", write_cfg(tmp_path, BEAM_DOC), "--out", str(out),
                 "--n", str(4 * SAMPLE_CHUNK)]) == 3
    assert not out.exists() and sidecar.is_symlink() and target.read_text() == "{}\n"


def test_generator_recorded_by_simulate_only(tmp_path):
    """Only `simulate` draws random numbers, so only its CSV and sidecar name the generator."""
    cfg = write_cfg(tmp_path, BEAM_DOC)
    samples, rates = tmp_path / "eta.csv", tmp_path / "kr.csv"
    assert main(["simulate", "--config", cfg, "--out", str(samples), "--n", "100"]) == 0
    assert main(["keyrate", "--config", cfg, "--out", str(rates)]) == 0

    def meta(path):
        return json.loads(path.read_text().split("\n", 1)[0].removeprefix("# metadata: "))

    assert meta(samples)["generator"] == "philox"
    assert json.loads((tmp_path / "eta.csv.json").read_text())["generator"] == "philox"
    assert "generator" not in meta(rates)
    assert meta(rates)["seed"] == BEAM_DOC["seed"]


def test_exit_code_io_error(tmp_path):
    cfg = write_cfg(tmp_path, BEAM_DOC)
    assert main(["simulate", "--config", cfg, "--out", "/nonexistent-dir/x.csv", "--n", "10"]) == 4


def test_numerical_failure_exits_3_with_one_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "protocol": {"family": "squeezed", "v_m": 1e15},
        "channel": {"fading": {"stats": {"mean_eta": 0.5}}},
    })
    out = tmp_path / "kr.csv"
    assert main(["keyrate", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: symplectic spectrum not resolved: tr gamma = 5e+14 >= 450360\n")
    assert not out.exists()


# the reproducers of tests/test_keyrate.py::UNRESOLVED as scenarios
UNRESOLVED_DOCS = {
    "lossless_vm_1e6": {"protocol": {"family": "squeezed", "v_s_db": -10.0, "v_m": 1e6},
                        "channel": {"fading": {"stats": {"mean_eta": 1.0}}}},
    **{f"rr_vm_{v_m:g}": {"protocol": {"family": "squeezed", "v_s": 0.1, "v_m": v_m, "v_an": 0.5,
                                       "prep_noise_trust": "untrusted", "beta": 0.95, "reconciliation": "rr"},
                          "channel": {"eps2": 0.01, "fading": {"stats": {"mean_eta": 0.5, "var_sqrt": 0.01}}}}
       for v_m in (1e35, 1e150)},
}


@pytest.mark.parametrize("name", sorted(UNRESOLVED_DOCS))
def test_unresolved_spectrum_exits_3_with_one_line(tmp_path, capsys, name):
    out = tmp_path / "kr.csv"
    assert main(["keyrate", "--config", write_cfg(tmp_path, UNRESOLVED_DOCS[name]), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: symplectic spectrum not resolved: tr gamma = ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_near_pure_sweep_gives_rates(tmp_path):
    """A v_m sweep up to 1e5 on a lossless noiseless channel gives every row:
    the near-pure states' nu >= 1 check scales with their rounding.  With an
    absolute NU_TOL it exited 3 (the coherent variant's min nu came out
    0.999999348445 at v_m = 1e5)."""
    doc = {"protocols": [{"label": "coh", "family": "coherent"},
                         {"label": "sq_an", "family": "squeezed", "v_s": 0.5, "v_an": 1.0, "prep_noise_trust": "trusted"}],
           "channel": {"fading": {"stats": {"mean_eta": 1.0}}},
           "sweep": {"variable": "v_m", "start": 100.0, "stop": 1e5, "steps": 13, "spacing": "log"}}
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out), "--jobs", "1"]) == 0
    rows = read_rows(out)
    assert len(rows) == 26 and [(r["label"], float(r["v_m"])) for r in rows[-2:]] == [("coh", 1e5), ("sq_an", 1e5)]
    assert all(0.0 <= float(r["chi"]) < 1e-4 for r in rows)


def test_config_dir_environment_variable(tmp_path, monkeypatch):
    write_cfg(tmp_path, BEAM_DOC, name="fromenv.scenario")
    monkeypatch.setenv("CVFADE_CONFIG_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path / "..")
    out = tmp_path / "env.csv"
    assert main(["simulate", "--config", "fromenv.scenario", "--out", str(out), "--n", "50"]) == 0
    assert out.exists()


def test_sifting_factor_halves_rate(tmp_path):
    base = {
        "protocol": {"family": "squeezed", "v_s": 0.5, "v_m": 1.5},
        "channel": {"fading": {"stats": {"mean_eta": 1.0}}},
    }
    sifted = json.loads(json.dumps(base))
    sifted["protocol"]["sifting"] = 0.5
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["keyrate", "--config", write_cfg(tmp_path, base, "a.scenario"), "--out", str(out_a)])
    main(["keyrate", "--config", write_cfg(tmp_path, sifted, "b.scenario"), "--out", str(out_b)])
    full = float(read_rows(out_a)[0]["rate_asymptotic"])
    half = float(read_rows(out_b)[0]["rate_asymptotic"])
    assert half == pytest.approx(0.5 * full)


# --- the eta sample file: bulk rendering and malformed input -----------------

def format_number(x) -> str:
    """A cell as the per-row renderer wrote it."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def row_renderer(meta, header, rows):
    """The per-row renderer (csv.writer plus format_number) that rendered
    every table before render_csv took columns, kept as the oracle of every
    table render_csv writes."""
    buf = io.StringIO()
    buf.write(metadata_line(meta) + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else format_number(v) for v in row])
    return buf.getvalue()


SIZES = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1)


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(SIZES), values=st.lists(sample_values(), max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_float_array_renders_like_row_renderer_and_reads_back(tmp_path_factory, size, values, seed):
    """Byte-identical to the per-row renderer at sizes around the chunk
    length, and the sample stream gives back the same doubles."""
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    samples = np.concatenate([values, np.where(rng.random(size) < 0.5, rng.random(size), wide)])[:size]
    rng.shuffle(samples)
    meta = {"n": size, "seed": seed}
    text = render_csv(meta, ["eta"], [samples])
    assert isinstance(text, str)
    assert text == row_renderer(meta, ["eta"], ([v] for v in samples))
    path = tmp_path_factory.mktemp("eta") / "etas.csv"
    write_text(path, text)
    if size == 0:
        with pytest.raises(DomainError):
            read_samples(path)
    else:
        assert hex_values(read_samples(path)) == hex_values(samples)


def _any_bit_pattern(rng, n):
    """Uniform 64-bit patterns (every exponent, subnormals, NaN payloads),
    with +-0, +-inf, NaN, 1 and the smallest subnormal spliced in."""
    x = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 5e-324]
    if n:
        x[rng.integers(0, n, len(special))] = special
    return x


def _decade_bit_patterns(rng, n):
    """Uniform bit patterns of the doubles in [1e-7, 1]."""
    lo, hi = np.array([1e-7, 1.0]).view(np.int64)
    return rng.integers(lo, hi, n, endpoint=True).view(np.float64)


def _ties(rng, n, s_range=(17, 26)):
    """j * 2^-s with j * 5^s of 18 digits, the last a 5 (j odd, below 2^53):
    exact ties at the 17th significant digit, in the decade [10^(17-s),
    10^(18-s)).  The default s draws the decades from [1, 10) to [1e-8, 1e-7)."""
    s = rng.integers(*s_range, n)
    five = np.int64(5) ** s
    j = rng.integers(-(-10**17 // five), np.minimum((10**18 - 1) // five, 2**53 - 1), endpoint=True) | 1
    return j * 2.0 ** -s.astype(np.float64)


def _wide_bit_patterns(rng, n):
    """Uniform bit patterns of the doubles in [1e-5, 1e18]: every decade of
    the kernel's domain [1e-4, 1e17) and a decade past each end."""
    lo, hi = np.array([1e-5, 1e18]).view(np.int64)
    return rng.integers(lo, hi, n, endpoint=True).view(np.float64)


def _negated(rng, n):
    """Values of every other kind, negated."""
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN is still 'nan'
        pool = np.concatenate([FLOAT_ARRAYS[kind](rng, n) for kind in sorted(FLOAT_ARRAYS) if kind != "negated"],
                              dtype=np.float64)
    return -rng.choice(pool, n)


# 10^-k's nearest double and its four neighbours on each side, for k = 0..30;
# among them 0.99999999999999994, which parses to the double just below 1
POW10_NEIGHBOURS = (np.array([float(f"1e-{k}") for k in range(31)]).view(np.int64)[:, None]
                    + np.arange(-4, 5)).ravel().view(np.float64)
# the same for 10^0 ... 10^17, the decades of numbers >= 1 that '%.17g' writes without an exponent
POW10_NEIGHBOURS_ABOVE_1 = (np.array([float(f"1e{k}") for k in range(18)]).view(np.int64)[:, None]
                            + np.arange(-4, 5)).ravel().view(np.float64)
FLOAT_ARRAYS = {
    "any_bit_pattern": _any_bit_pattern,
    "decade_bit_patterns": _decade_bit_patterns,
    "ties": _ties,
    "powers_of_ten": lambda rng, n: rng.choice(POW10_NEIGHBOURS, n),
    "float32": lambda rng, n: rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32),
    "float32_decades": lambda rng, n: _decade_bit_patterns(rng, n).astype(np.float32),
    "wide_bit_patterns": _wide_bit_patterns,
    # [1e16, 1e17) holds no ties: its doubles are even integers
    "wide_ties": lambda rng, n: _ties(rng, n, s_range=(2, 18)),
    "powers_of_ten_above_1": lambda rng, n: rng.choice(POW10_NEIGHBOURS_ABOVE_1, n),
    "negated": _negated,
}


@pytest.mark.parametrize("kind", sorted(FLOAT_ARRAYS))
@settings(max_examples=12, deadline=None)
@given(size=st.sampled_from(SIZES + (3 * _CHUNK + 5,)), seed=st.integers(0, 2**32 - 1))
def test_float_array_renders_each_value_as_17g(kind, size, seed):
    """Byte-identical to the per-row '%.17g' renderer on every kind of double,
    including ties at the 17th digit and the neighbours of powers of ten."""
    values = FLOAT_ARRAYS[kind](np.random.default_rng(seed), size)
    assert values.shape == (size,)
    assert render_csv({}, ["eta"], [values]) == row_renderer({}, ["eta"], ([v] for v in values))


# cells the csv dialect quotes (comma, quote, CR, LF), the empty cell, the
# renderer's own marker and non-ASCII text, ints, floats equal to some of
# those ints (0, 0.0 and -0.0 must stay apart), non-finite floats and None
TRICKY_CELLS = ["", ",", '"', "\r", "\n", 'a"b,c', "x\r\ny", "!", "é!", " plain ", 0, -7, 10**20, None,
                0.0, -0.0, -7.0, 0.1, 1e20, 5e-324, math.nan, -math.inf]
cell_texts = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", "!", "a", "é", " "]), max_size=5)


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(FLOAT_ARRAYS) + ["cells"] * 3), min_size=1, max_size=6),
       texts=st.lists(cell_texts, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_table_renders_like_row_renderer(kinds, texts, seed, data):
    """Any mix of float columns of every kind and str/int/None cell columns
    renders byte-identically to the per-row renderer, at table lengths around
    the chunk length."""
    rows_per_chunk = _CHUNK // len(kinds)
    size = data.draw(st.sampled_from((0, 1, 2, rows_per_chunk - 1, rows_per_chunk, rows_per_chunk + 1)))
    rng = np.random.default_rng(seed)
    pool = TRICKY_CELLS + texts
    columns = [[pool[i] for i in rng.integers(0, len(pool), size)] if kind == "cells" else FLOAT_ARRAYS[kind](rng, size)
               for kind in kinds]
    header = data.draw(st.lists(cell_texts, min_size=len(kinds), max_size=len(kinds)))
    meta = {"kinds": kinds}
    text = render_csv(meta, header, columns)
    assert text == row_renderer(meta, header, zip(*columns))


@pytest.mark.parametrize("header, column", [
    ([""], ["", None, "a", ""]),  # a lone empty cell is written as ""
    (["x"], []),
    (["x"], np.array([])),
    (["a,b"], ['"', "\r\n"]),
    (["x"], [0, 0.0, -0.0, 0, -0.0, math.nan, 1, 1.0]),  # equal values, different text
])
def test_one_column_tables_render_like_row_renderer(header, column):
    assert render_csv({}, header, [column]) == row_renderer({}, header, ([v] for v in column))


@pytest.mark.parametrize("layout", ["f", "c", "cffc"])  # float and cell columns
@pytest.mark.parametrize("size", SIZES + (3 * _CHUNK + 5,))
def test_write_csv_writes_render_csv_text(tmp_path, layout, size):
    """write_csv, which writes a chunk at a time, writes the bytes that
    write_text writes of render_csv's text, at table lengths around the chunk
    length."""
    rng = np.random.default_rng(size)

    def column(kind):
        if kind == "c":
            return [TRICKY_CELLS[i] for i in rng.integers(0, len(TRICKY_CELLS), size)]
        return np.where(rng.random(size) < 0.5, rng.random(size), _any_bit_pattern(rng, size))

    columns = [column(kind) for kind in layout]
    header = [f"h{i}" for i in range(len(layout))]
    meta = {"layout": layout, "size": size}
    write_csv(tmp_path / "streamed.csv", meta, header, [columns])
    write_text(tmp_path / "whole.csv", render_csv(meta, header, columns))
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [np.zeros(3)]),
    (["a"], [np.zeros(3), [1, 2, 3]]),
    (["a", "b"], [np.zeros(3), [1, 2]]),
    (["a", "b"], [[1, 2], np.zeros(3)]),
])
def test_write_csv_checks_columns_before_opening_the_file(tmp_path, header, columns):
    path = tmp_path / "table.csv"
    path.write_bytes(b"kept\r\n")
    with pytest.raises(ValueError):
        write_csv(path, {}, header, [columns])
    assert path.read_bytes() == b"kept\r\n"


def test_write_csv_holds_no_whole_table_text(tmp_path):
    """Writing 3e5 samples holds about one chunk's text at a time: the whole
    table as one str would be 6.3 MB on its own."""
    samples = np.random.default_rng(5).random(300_000)
    path = tmp_path / "eta.csv"
    tracemalloc.start()
    try:
        write_csv(path, {"n": samples.size}, ["eta"], [[samples]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 6e6
    assert peak < 3e6, peak


@pytest.mark.parametrize("layout", ["f", "cffc"])  # float and cell columns
def test_write_csv_joins_row_blocks(tmp_path, layout):
    """A table given as row blocks, cut at any rows, is written as render_csv's
    text of the whole columns."""
    size = 2 * _CHUNK + 7
    rng = np.random.default_rng(len(layout))
    columns = [rng.random(size) if kind == "f" else [TRICKY_CELLS[i] for i in rng.integers(0, len(TRICKY_CELLS), size)]
               for kind in layout]
    cuts = [0, 1, 1, _CHUNK - 3, _CHUNK + 100, size]  # an empty block among them
    header = [f"h{i}" for i in range(len(layout))]
    path = tmp_path / "blocks.csv"
    write_csv(path, {}, header, ([c[a:b] for c in columns] for a, b in zip(cuts, cuts[1:])))
    assert path.read_bytes().decode() == render_csv({}, header, columns)


def test_write_csv_removes_its_file_when_a_later_block_fails(tmp_path):
    """A later block is checked as the first is; when it fails, the file
    written so far is removed, but not through a link to it."""
    blocks = [[np.zeros(_CHUNK)], [np.zeros(3), np.zeros(3)]]
    path = tmp_path / "table.csv"
    path.write_bytes(b"older\r\n")
    with pytest.raises(ValueError, match="1 header fields but 2 columns"):
        write_csv(path, {}, ["a"], iter(blocks))
    assert not path.exists()
    link = tmp_path / "link.csv"
    link.symlink_to(path)
    with pytest.raises(ValueError):
        write_csv(link, {}, ["a"], iter(blocks))
    assert link.is_symlink() and path.exists()


def test_lookup_tables_equal_their_byte_string_construction():
    """_tables writes its digit-group words in place; they equal the words
    built from digit arrays, NUL masks and byte strings."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, 10000).T
    trailing = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    leading = np.logical_or.accumulate(digits != 0, axis=1)
    chars = digits + ord("0")
    groups = np.frombuffer(chars.tobytes() + (chars * trailing).tobytes() + (chars * leading).tobytes(),
                           dtype=np.uint32)
    assert _tables()[0].dtype == np.uint32
    assert _tables()[0].tobytes() == groups.tobytes()
    assert not _tables()[0].flags.writeable  # shared by every caller


MALFORMED_SAMPLES = {
    "non_numeric": b"eta\n0.5\nabc\n",
    "non_utf8": b"eta\n0.5\n\xff\xfe\n",
    "extra_cell": b"eta\n0.5,0.7\n",
    "extra_cell_later": b"eta\n0.5\n0.25,0.7\n",
    "header_only": b"# metadata: {}\r\neta\r\n",
    "nan": b"eta\n0.5\nnan\n",
    "out_of_range": b"eta\n0.5\n1.5\n",
    "negative": b"eta\n-0.25\n",
    "non_numeric_after_blank": b"# m\neta\n0.5\n\n0.6\nabc\n",
    # after more than one block of sample lines
    "non_numeric_after_block": b"# m\r\neta\r\n" + BLOCK_OF_LINES + b"abc\r\n0.5\r\n",
    "non_utf8_after_block": b"eta\r\n" + BLOCK_OF_LINES + b"\xff\xfe\r\n",
    "extra_cell_after_block": b"eta\r\n" + BLOCK_OF_LINES + b"0.25,0.7\r\n",
    "nul_after_block": b"eta\r\n" + BLOCK_OF_LINES + b"0.5\x00\r\n",
    "out_of_range_after_block": b"eta\r\n" + BLOCK_OF_LINES + b"1.5\r\n",
}
# the file line each parse error names (numpy's row numbers skip the header and blank lines)
MALFORMED_SAMPLE_LINES = {
    "non_numeric": 3, "non_utf8": 3, "extra_cell": 2, "extra_cell_later": 3, "non_numeric_after_blank": 6,
    "non_numeric_after_block": 7003, "non_utf8_after_block": 7002, "extra_cell_after_block": 7002,
    "nul_after_block": 7002,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SAMPLES))
def test_malformed_sample_file_exits_2_with_one_line(tmp_path, capsys, name):
    samples = tmp_path / "etas.csv"
    samples.write_bytes(MALFORMED_SAMPLES[name])
    out = tmp_path / "stats.json"
    assert main(["stats", str(samples), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if name in MALFORMED_SAMPLE_LINES:
        assert f"{samples}: line {MALFORMED_SAMPLE_LINES[name]} " in err, err
    assert not out.exists()
    doc = {"protocol": {"family": "coherent", "v_m": 3.0},
           "channel": {"fading": {"samples_file": str(samples)}}}
    out = tmp_path / "kr.csv"
    assert main(["keyrate", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: samples_file: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("body, first", [
    (b"eta\n0.5\n0.25\n1.5\n-1\n", "sample 2 (from 0) is 1.5"),
    (b"eta\r\n" + BLOCK_OF_LINES + b"nan\r\n", "sample 7000 (from 0) is nan"),
    (b"eta\r\n-inf\r\n" + BLOCK_OF_LINES, "sample 0 (from 0) is -inf"),
    (b"eta\n0.5\n1.5\nabc\n", "sample 1 (from 0) is 1.5"),
], ids=["short", "nan_after_block", "minus_inf_first", "before_a_malformed_line"])
def test_sample_outside_range_is_named(tmp_path, capsys, body, first):
    """stats and a scenario's samples_file name the first sample outside [0, 1]
    in one error line, also where a line that does not parse comes after it."""
    samples = tmp_path / "etas.csv"
    samples.write_bytes(body)
    doc = {"protocol": {"family": "coherent", "v_m": 3.0}, "channel": {"fading": {"samples_file": str(samples)}}}
    for argv in (["stats", str(samples)], ["keyrate", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "kr.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith(f"must lie in [0, 1]: {first}\n"), err


def test_malformed_cn2_series_exits_2_with_one_line(tmp_path, capsys):
    cfg = reduced_daily_cfg(tmp_path)
    out = tmp_path / "daily.csv"
    for name, text in MALFORMED_CN2.items():
        series = tmp_path / f"{name}.csv"
        series.write_bytes(text)
        assert main(["daily", str(series), "--config", cfg, "--out", str(out)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


FINITE_DOC = {
    "protocol": {"family": "squeezed", "v_s": 0.5, "beta": 0.95,
                 "optimizer": {"vs_cap_db": -3.0, "vm_max": 20.0, "grid": [3, 3], "tolerance": 1e-6}},
    "channel": {"eps2": 0.01, "fading": {"stats": {"mean_eta": 0.5}}},
    "finite_size": {"n": 1e6},
    "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]},
}
NONFINITE_FIELDS = {
    "finite_size.n": ("finite_size", "n"),
    "optimizer.tolerance": ("protocol", "optimizer", "tolerance"),
    "optimizer.vm_max": ("protocol", "optimizer", "vm_max"),
    "channel.eps2": ("channel", "eps2"),
    "fading.stats.mean_eta": ("channel", "fading", "stats", "mean_eta"),
    "sweep.values": ("sweep", "values"),
}


def _with_block_size(literal):
    return json.dumps(FINITE_DOC).replace('"n": 1000000.0', f'"n": {literal}').encode()


UNREADABLE_SCENARIOS = {
    "utf16_bom": b"\xff\xfe{}",
    "integer_beyond_float_range": _with_block_size("1" + "0" * 400),
    "integer_beyond_digit_limit": _with_block_size("1" + "0" * 5000),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_SCENARIOS))
def test_unreadable_scenario_exits_2_with_one_line(tmp_path, capsys, name):
    cfg = tmp_path / "bad.scenario"
    cfg.write_bytes(UNREADABLE_SCENARIOS[name])
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", sorted(NONFINITE_FIELDS))
def test_non_finite_scenario_number_exits_2(tmp_path, capsys, field, value):
    """json reads NaN and Infinity literals; the scenario schema rejects them."""
    doc = json.loads(json.dumps(FINITE_DOC))
    *parents, key = NONFINITE_FIELDS[field]
    node = doc
    for name in parents:
        node = node[name]
    node[key] = [0.0, value] if key == "values" else value
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def _exits_2_with_one_line(capsys, argv, out):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()
    return err


STATS_DOC = {"protocol": {"family": "coherent", "v_m": 3.0}, "channel": {"fading": {"stats": {"mean_eta": 0.5}}}}
GEOMETRY = {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02}
ABSENT = object()  # a key the case removes


def edited(changes, base=STATS_DOC):
    """A copy of base with each dotted path of `changes` set to its value, or removed."""
    doc = json.loads(json.dumps(base))
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        if value is ABSENT:
            del node[key]
        else:
            node[key] = value
    return doc


NO_PROTOCOL = {"protocol": ABSENT}
# name: (command, scenario document, cn2 series of `daily` or None for no file, part of the error line)
VALIDATION_CASES = {
    "object": ("keyrate", edited({"channel.fading": 5}), None, "config.channel.fading: expected object"),
    "empty_list": ("keyrate", edited({**NO_PROTOCOL, "protocols": []}), None,
                   "config.protocols: expected non-empty list"),
    "list_item": ("keyrate", edited({**NO_PROTOCOL, "protocols": [5]}), None, "config.protocols[0]: expected object"),
    "list_of_numbers": ("sweep", edited({"sweep": {"variable": "v_m", "values": [1.0, "2"]}}), None,
                        "config.sweep.values: expected non-empty list of numbers"),
    "grid": ("optimize", edited({"protocol.optimizer": {"grid": [3]}}), None,
             "config.protocol.optimizer.grid: expected [n_vs, n_vm]"),
    "integer": ("keyrate", edited({"seed": 1.5}), None, "config.seed: expected integer"),
    "number": ("keyrate", edited({"channel.eps2": "0.1"}), None, "config.channel.eps2: expected number"),
    "boolean": ("optimize", edited({"protocol.optimizer": {"optimize_vs": 1}}), None,
                "config.protocol.optimizer.optimize_vs: expected boolean"),
    "string": ("keyrate", edited({"description": 5}), None, "config.description: expected string"),
    "enum": ("keyrate", edited({"protocol.family": "thermal"}), None, "config.protocol.family: must be one of"),
    "min": ("keyrate", edited({"channel.eps2": -0.1}), None, "config.channel.eps2: must be >= 0.0"),
    "min_excl": ("keyrate", edited({"channel.eta1": 0.0}), None, "config.channel.eta1: must be > 0.0"),
    "max_excl": ("keyrate", edited({"finite_size": {"n": 1e6, "eps_bar": 1.0}}), None,
                 "config.finite_size.eps_bar: must be < 1.0"),
    "required_key": ("keyrate", edited({"channel": ABSENT}), None, "config: missing required key 'channel'"),
    "not_an_object": ("keyrate", [], None, "scenario document must be a JSON object: cfg.scenario"),
    "sweep_values_and_range": ("sweep", edited({"sweep": {"variable": "v_m", "values": [1.0], "start": 1.0,
                                                          "stop": 2.0, "steps": 2}}), None,
                               "sweep: give either values or start/stop/steps"),
    "log_sweep_from_0": ("sweep", edited({"sweep": {"variable": "v_m", "start": 0.0, "stop": 10.0, "steps": 3,
                                                    "spacing": "log"}}), None,
                         "sweep: log spacing requires positive start/stop"),
    "mean_eta_twice": ("keyrate", edited({"channel.fading.stats.mean_eta_db": -3.0}), None,
                       "fading.stats: give exactly one of mean_eta / mean_eta_db"),
    "shape_twice": ("keyrate", edited({"channel.fading.stats": {"mean_eta": 0.5, "mean_sqrt_eta": 0.7,
                                                                "var_sqrt": 0.01}}), None,
                    "fading.stats: give only one of mean_sqrt_eta / var_sqrt"),
    "samples_file_absent": ("keyrate", edited({"channel.fading": {"samples_file": "absent.csv"}}), None,
                            "cannot read samples_file: [Errno 2] No such file or directory: 'absent.csv'"),
    "cn2_absent": ("daily", edited({"channel.fading": {"beam": GEOMETRY}}), None,
                   "cannot read cn2 series: [Errno 2] No such file or directory: 'cn2.csv'"),
    "cn2_empty": ("daily", edited({"channel.fading": {"beam": GEOMETRY}}), b"",
                  "expected two-column CSV with `<label>,cn2` header in cn2.csv"),
    "cn2_bad_value": ("daily", edited({"channel.fading": {"beam": GEOMETRY}}), b"hour,cn2\n00,abc\n",
                      "bad cn2 value in cn2.csv"),
    "cn2_blank_row": ("daily", edited({"channel.fading": {"beam": GEOMETRY}}), b"hour,cn2\n\n00,1e-15,0\n",
                      "expected two cells `<label>,cn2` per row in cn2.csv, got 3"),
    "cn2_header_only": ("daily", edited({"channel.fading": {"beam": GEOMETRY}}), b"hour,cn2\n",
                        "cn2 series must be non-empty with matching labels"),
    "daily_without_beam": ("daily", STATS_DOC, b"hour,cn2\n00,1e-15\n", "daily requires channel.fading.beam"),
    # each command's own checks on the scenario's sections
    "simulate_on_stats": ("simulate", STATS_DOC, None, "error: simulate requires channel.fading.beam"),
    "daily_sigma_r2": ("daily", edited({"channel.fading": {"beam": {**GEOMETRY, "sigma_r2": 0.5}}}),
                       b"hour,cn2\n00,1e-15\n", "error: daily drives turbulence from the cn2 series"),
    "daily_cn2": ("daily", edited({"channel.fading": {"beam": {**GEOMETRY, "cn2": 1e-15}}}),
                  b"hour,cn2\n00,1e-15\n", "error: daily drives turbulence from the cn2 series"),
    "sweep_without_section": ("sweep", STATS_DOC, None, "error: sweep command requires a sweep section"),
    # the sweep's fading override needs the section it overrides
    "distance_on_stats": ("sweep", edited({"sweep": {"variable": "distance", "values": [500.0, 1000.0]}}), None,
                          "sweep over distance requires channel.fading.beam"),
    "var_sqrt_on_beam": ("sweep", edited({"channel.fading": {"beam": {**GEOMETRY, "distance": 1500.0,
                                                                      "sigma_r2": 0.25}},
                                          "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]}}), None,
                         "sweep over var_sqrt requires channel.fading.stats"),
    "var_sqrt_on_samples_file": ("sweep", edited({"channel.fading": {"samples_file": "eta.csv"},
                                                  "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]}}),
                                 None, "sweep over var_sqrt requires channel.fading.stats"),
    # a swept value that its dataclass rejects names the sweep section
    "swept_v_s": ("sweep", edited({"protocol": {"family": "squeezed", "v_s": 0.5},
                                   "sweep": {"variable": "v_s", "values": [2.0]}}), None,
                  "error: sweep: v_s must be in (0, 1], got 2.0"),
    "swept_block_size": ("sweep", edited({"sweep": {"variable": "block_size", "values": [10]}}), None,
                         "error: sweep: block size must be >= 1e3, got 10.0"),
    "swept_v_m": ("sweep", edited({"sweep": {"variable": "v_m", "values": [-1.0]}}), None,
                  "error: sweep: v_m must be >= 0, got -1.0"),
}


@pytest.mark.parametrize("name", sorted(VALIDATION_CASES))
def test_invalid_input_exits_2_naming_its_path(tmp_path, capsys, monkeypatch, name):
    command, doc, series, expected = VALIDATION_CASES[name]
    monkeypatch.chdir(tmp_path)
    Path("eta.csv").write_text("eta\n0.5\n0.7\n")
    Path("cfg.scenario").write_text(json.dumps(doc))
    if series is not None:
        Path("cn2.csv").write_bytes(series)
    argv = [command, *(["cn2.csv"] if command == "daily" else []), "--config", "cfg.scenario", "--out", "x.csv"]
    err = _exits_2_with_one_line(capsys, argv, tmp_path / "x.csv")
    assert expected in err, err


@pytest.mark.parametrize("command", ["keyrate", "optimize"])
def test_anti_squeezing_beyond_float_range_exits_2(tmp_path, capsys, command):
    """10^(v_an_db / 10) overflows from about 3083 dB."""
    doc = json.loads((SCENARIOS / "fig1b.scenario").read_text())
    del doc["protocol"]["v_s"], doc["sweep"]
    doc["protocol"].update(v_s_db=-3, v_an_db=1e308)
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, [command, "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert "v_an_db" in err, err


@pytest.mark.parametrize("variable", ["v_m", "block_size", "distance"])
def test_log_sweep_to_the_float_maximum_exits_2(tmp_path, capsys, variable):
    """10 ** log10(stop) rounds past the largest double."""
    sweep = {"variable": variable, "start": 1.0, "stop": 1.7976931348623157e308, "steps": 3, "spacing": "log"}
    doc = dict(BEAM_DOC if variable == "distance" else FINITE_DOC, sweep=sweep)
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, ["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert err.startswith("error: sweep: ") and "float range" in err, err


def test_log_v_s_sweep_ends_at_its_stop(tmp_path):
    """A log-spaced v_s range to 1.0 ends at 1.0, not one ulp above the
    largest v_s allowed."""
    doc = dict(FINITE_DOC, sweep={"variable": "v_s", "start": 0.24604820415283, "stop": 1.0, "steps": 8,
                                  "spacing": "log"})
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    v_s = [float(r["v_s"]) for r in read_rows(out)]
    assert len(v_s) == 8 and v_s[0] == 0.24604820415283 and v_s[-1] == 1.0


@pytest.mark.parametrize("variable", ["v_m", "block_size"])
def test_linear_sweep_that_overflows_exits_2(tmp_path, capsys, variable):
    """(stop - start) * i overflows before the division by steps - 1."""
    sweep = {"variable": variable, "start": 1e6, "stop": 1.7976931348623157e308, "steps": 3}
    doc = dict(FINITE_DOC, sweep=sweep)
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, ["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert err.startswith("error: sweep: ") and "float range" in err, err


def test_squeezing_cap_whose_variance_underflows_exits_2(tmp_path, capsys):
    """10^(vs_cap_db / 10) is 0.0 below about -3234 dB."""
    doc = {"protocol": {"family": "squeezed", "optimizer": {"vs_cap_db": -4000, "vm_max": 10, "grid": [3, 3]}},
           "channel": {"fading": {"stats": {"mean_eta": 0.5}}}}
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, ["optimize", "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert "vs_cap_db" in err, err


def test_optimizer_spec_error_names_its_variant(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "fig3.scenario").read_text())
    doc["protocols"][2]["optimizer"]["vs_cap_db"] = -1e300
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, ["optimize", "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert err == "error: protocols[2].optimizer: vs_cap_db -1e+300 dB is a variance that underflows to 0\n"


@pytest.mark.parametrize("key, before, repeated", [
    ("seed", '"seed": 20240811,', '"seed": 5,'),  # json would keep the last value, 5
    ("beam", '"fading": {', '"beam": {"wavelength": 1.0, "w0": 1.0, "aperture": 1.0},'),  # channel.fading.beam
])
def test_duplicate_scenario_key_exits_2(tmp_path, capsys, key, before, repeated):
    text = (SCENARIOS / "fig3.scenario").read_text()
    assert text.count(before) == 1
    cfg = tmp_path / "dup.scenario"
    cfg.write_text(text.replace(before, before + repeated))
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, ["simulate", "--config", str(cfg), "--out", str(out), "--n", "10"], out)
    assert err == f"error: scenario gives the key {key!r} twice in one object\n"


@pytest.mark.parametrize("family, optimizer, key", [
    ("coherent", {"vm_max": 1e12}, "vm_max = 1e+12"),
    ("squeezed", {"vm_max": 1e12}, "vm_max = 1e+12"),
    ("squeezed", {"vs_cap_db": -60.0, "vm_max": 10}, "vs_cap_db = -60"),
])
def test_optimizer_box_past_trace_max_exits_2(tmp_path, capsys, family, optimizer, key):
    """A box whose corner state has tr gamma >= TRACE_MAX is rejected when the
    scenario loads, naming the key that puts it there."""
    doc = {"protocol": {"family": family, "optimizer": dict(optimizer, grid=[3, 3])},
           "channel": {"fading": {"stats": {"mean_eta": 0.5}}}}
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, ["optimize", "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert err.startswith("error: protocols[0]: the optimizer box reaches tr gamma = ") and key in err, err


@pytest.mark.parametrize("command", ["simulate", "keyrate"])
@pytest.mark.parametrize("segment", ["eta1", "eta2"])
def test_fixed_segment_given_twice_exits_2(tmp_path, capsys, segment, command):
    """A fixed segment given both linearly and in dB is rejected when the scenario loads."""
    doc = json.loads(json.dumps(BEAM_DOC))
    doc["channel"].update({segment: 0.5, f"{segment}_db": -3.0})
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, [command, "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert err == f"error: channel: give only one of {segment} / {segment}_db\n", err


EDGE_VARIANTS = [{"label": "coh", "family": "coherent", "v_m": 3.0},
                 {"label": "sq", "family": "squeezed", "v_s_db": -3.0, "v_m": 3.0}]
BEAM_EDGES = [(key, value) for key in ("distance", "wavelength", "w0", "aperture") for value in (1e-300, 1e300)]
BEAM_EDGES += [("sigma_r2", 1e300), ("distance", 1e-30)]
EDGE_CASES = (
    [("sweep", variable, value) for variable in SWEEP_VARIABLES for value in (-1e300, -1.0, 0.0, 1e-300, 1e300)]
    + [("sweep", "mean_eta_db", 4000.0)]
    + [(command, key, value) for command in ("keyrate", "simulate") for key, value in BEAM_EDGES]
)


@pytest.mark.filterwarnings("error")  # a warning would add stderr lines to the CLI's one
@pytest.mark.parametrize("command,variable,value", EDGE_CASES)
def test_extreme_sweep_and_beam_values_exit_cleanly(tmp_path, capsys, command, variable, value):
    """Each sweep variable at the ends of the float range, and beam geometry
    beyond it, gives rows, one `error:` line or one numerical-failure line."""
    beam = BEAM_DOC["channel"]["fading"]["beam"]
    if command != "sweep":
        fading = {"beam": {**beam, variable: value}}
    else:
        fading = {"beam": beam} if variable == "distance" else {"stats": {"mean_eta": 0.5}}
    doc = {"protocols": EDGE_VARIANTS, "channel": {"fading": fading}}
    if command == "sweep":
        doc.update(sweep={"variable": variable, "values": [value]}, finite_size={"n": 1e8})
    argv = [command, "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "x.csv")]
    code = main(argv + (["--n", "50"] if command == "simulate" else []))
    err = capsys.readouterr().err
    assert code in (0, 2, 3) and err.count("\n") == 1, err
    assert err.startswith({0: "wrote ", 2: "error: ", 3: "numerical failure: "}[code]), err
    assert "turbulence_gaussian_params" not in err, err  # the message speaks of the scenario, not the code
    if value == 4000.0:
        assert err == "error: fading.stats.mean_eta_db: 4000.0 dB is a variance beyond the float range\n"
    if command != "sweep":
        assert code == (0 if value == 1e-30 else 2), err


@pytest.mark.parametrize("aperture", [4e151, 1e152])
def test_huge_aperture_passes_the_whole_beam(tmp_path, capsys, aperture):
    """A spot some 1e-150 of the aperture wide passes whole: keyrate writes
    <eta> = <sqrt(eta)> = 1 and simulate samples of 1, each with its one
    stderr line and no overflow warning."""
    doc = json.loads((SCENARIOS / "fig3.scenario").read_text())
    doc["channel"]["fading"]["beam"]["aperture"] = aperture
    cfg = write_cfg(tmp_path, doc)
    out, samples = tmp_path / "kr.csv", tmp_path / "eta.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err.count("\n") == 1
        assert {(row["mean_eta"], row["mean_sqrt_eta"], row["var_sqrt"]) for row in read_rows(out)} == {("1", "1", "0")}
        assert main(["simulate", "--config", cfg, "--n", "20000", "--out", str(samples)]) == 0
        assert capsys.readouterr().err.count("\n") == 1
    assert set(samples.read_text().splitlines()[2:]) == {"1"}


def test_lossless_optimize_gives_chi_0(tmp_path):
    """Rounding of the near-pure states at v_m = 1000 is not a Holevo-bound error."""
    doc = {"protocol": {"family": "coherent", "optimizer": {"vm_max": 1000.0, "grid": [5, 5]}},
           "channel": {"fading": {"stats": {"mean_eta": 1.0}}}}
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert float(row["chi"]) == 0.0


@pytest.mark.parametrize("scenario, sweep", [
    ("fig1b", None),
    ("fig3", {"variable": "distance", "values": [1750.0]}),
    # the penalty at 1e3 leaves no positive rate
    ("fig3", {"variable": "block_size", "values": [1e3, 1e6, 1e9]}),
], ids=["fig1b", "fig3", "block_size"])
def test_optimized_rows_are_key_rate_at_their_point(tmp_path, scenario, sweep):
    """Every optimized row reports exactly key_rate at its (v_s, v_m) and
    block size, and its trace lists each evaluated point once, the best at
    the row's objective."""
    doc = json.loads((SCENARIOS / f"{scenario}.scenario").read_text())
    if sweep is not None:
        doc["sweep"] = sweep
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--trace"]) == 0
    config = load_scenario(cfg)
    variable = config.sweep["variable"]
    variants = {v.label: v for v in config.variants}
    rows = read_rows(out)
    traces = json.loads((tmp_path / "rows.csv.trace.json").read_text())["traces"]
    assert [(t["label"], t["sweep_value"]) for t in traces] == [
        (row["label"], float(row["sweep_value"])) for row in rows]
    for row, entry in zip(rows, traces):
        beam = {"distance": float(row["sweep_value"])} if variable == "distance" else {}
        chan = build_channel(config, resolve_fading(config, **beam))
        params = replace(variants[row["label"]].params, v_s=float(row["v_s"]), v_m=float(row["v_m"]))
        finite = replace(config.finite, n=float(row["sweep_value"])) if variable == "block_size" else config.finite
        want = key_rate(params, chan, finite)
        for name in ("i_ab", "chi", "rate_asymptotic", "rate_finite"):
            assert row[name] == format_number(getattr(want, name)), name
        optimizer_flags = ("no_positive_rate", "optimizer_round_cap", "optimizer_step_floor")
        want_flags = key_rates(params, chan, finite).flags(0)
        assert [f for f in row["flags"].split(";") if f and f not in optimizer_flags] == want_flags

        trace = entry["trace"]
        assert entry["evaluations"] == len(trace)
        assert len({(v_s, v_m) for v_s, v_m, _ in trace}) == len(trace)
        objective = want.rate_asymptotic if config.finite is None else want.rate_finite
        assert max(r for _, _, r in trace) == objective


@pytest.mark.parametrize("command", ["keyrate", "optimize"])
@pytest.mark.parametrize("eps_bar", [1e-308, 5e-324])
def test_eps_bar_whose_penalty_overflows_exits_2(tmp_path, capsys, command, eps_bar):
    """2 / eps_bar overflows below about 1.1e-308: one error line, not rows of -inf."""
    doc = dict(FINITE_DOC, finite_size={"n": 1e6, "eps_bar": eps_bar})
    out = tmp_path / "x.csv"
    err = _exits_2_with_one_line(capsys, [command, "--config", write_cfg(tmp_path, doc), "--out", str(out)], out)
    assert err.startswith(f"error: finite_size: eps_bar = {eps_bar!r} "), err


# coherent RR, squeezed DR with a trusted ancilla, and squeezed with a 3x3 optimizer
EXTREME_DOC = {
    "protocols": [
        {"label": "coh_rr", "family": "coherent", "v_m": 3.0},
        {"label": "sq_dr", "family": "squeezed", "v_s_db": -3.0, "v_m": 3.0, "v_an": 0.5,
         "prep_noise_trust": "trusted", "reconciliation": "dr"},
        {"label": "sq_opt", "family": "squeezed", "v_s_db": -3.0, "v_m": 3.0,
         "optimizer": {"vm_max": 20.0, "grid": [3, 3]}},
    ],
    "channel": {"eta1": 0.8, "eps2": 0.01, "fading": {"stats": {"mean_eta": 0.5}}},
    "finite_size": {"n": 1e6},
    "sweep": {"variable": "v_m", "start": 1.0, "stop": 2.0, "steps": 2},
}
EXTREME_BEAM = {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02, "distance": 1500.0, "sigma_r2": 0.25}
EXTREME_MAGNITUDES = (5e-324, 1e-300, 1e300, 1.7976931348623157e308)
SQUEEZED_ONLY = ("v_s", "v_an")  # a coherent variant fixes v_s = 1 and holds no anti-squeezing


def allowed(node, x):
    return (x >= node.get("min", -math.inf) and x > node.get("min_excl", -math.inf)
            and x <= node.get("max", math.inf) and x < node.get("max_excl", math.inf))


def extreme_cases():
    """Every number key of the schema at its inclusive bounds and at +-5e-324,
    1e-300, 1e300 and the largest double, wherever the schema allows them."""
    for path, node in number_keys(SCHEMA):
        bounds = {node[b] for b in ("min", "max") if b in node}
        values = bounds | {s * x for x in EXTREME_MAGNITUDES for s in (1.0, -1.0) if allowed(node, s * x)}
        for value in sorted(values):
            yield pytest.param(path, value, id=f"{'.'.join(path)}={value!r}")


def set_key(section, key, value):
    """section with key set, its alternative form (X / X_db, cn2 / sigma_r2,
    mean_eta / mean_eta_db) removed."""
    alternatives = {"sigma_r2": "cn2", "cn2": "sigma_r2"}
    other = alternatives.get(key, key[:-3] if key.endswith("_db") else f"{key}_db")
    section.pop(other, None)
    section[key] = value


def extreme_doc(path, value):
    doc = json.loads(json.dumps(EXTREME_DOC))
    *parents, key = path
    if parents[:1] == ["protocols"]:
        for variant in doc["protocols"]:
            if parents[1:] == ["optimizer"]:
                if "optimizer" in variant:
                    set_key(variant["optimizer"], key, value)
            elif variant["family"] == "squeezed" or key.removesuffix("_db") not in SQUEEZED_ONLY:
                set_key(variant, key, value)
        return doc
    if parents[-1:] == ["beam"]:
        doc["channel"]["fading"] = {"beam": dict(EXTREME_BEAM)}
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    set_key(node, key, value)
    return doc


@pytest.mark.filterwarnings("error")  # a warning would add stderr lines to the CLI's one
@pytest.mark.parametrize("path,value", extreme_cases())
def test_extreme_scenario_numbers_exit_cleanly(tmp_path, capsys, path, value):
    """keyrate and optimize with any schema number at an extreme that the
    schema allows: rows whose every number is finite, or one `error:` or
    numerical-failure line and no output."""
    cfg = write_cfg(tmp_path, extreme_doc(path, value))
    out = tmp_path / "x.csv"
    for command in ("keyrate", "optimize"):
        code = main([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and err.count("\n") == 1, (command, err)
        assert err.startswith({0: "wrote ", 2: "error: ", 3: "numerical failure: "}[code]), (command, err)
        if code:
            assert not out.exists(), command
            continue
        rows = read_rows(out)
        assert len(rows) == 3, command
        for row in rows:
            for name, cell in row.items():
                try:
                    number = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(number), (command, row["label"], name, cell)
        out.unlink()


FUZZ_VARIANTS = [{"label": "coh", "family": "coherent", "v_m": 3.0, "optimizer": {"vm_max": 20.0, "grid": [3, 3]}},
                 {"label": "sq", "family": "squeezed", "v_s_db": -3.0, "v_m": 4.0, "v_an": 0.1}]
FUZZ_FADING = {
    "stats": ({"stats": {"mean_eta": 0.5, "var_sqrt": 0.01}}, {"variable": "var_sqrt", "values": [0.0, 0.02]}),
    "beam": ({"beam": {**GEOMETRY, "distance": 1500.0, "sigma_r2": 0.25, "n_samples": 64}},
             {"variable": "distance", "values": [1000.0, 2000.0]}),
}
FUZZ_SECTIONS = ("protocols", "protocols.0", "protocols.0.optimizer", "channel", "channel.fading",
                 "channel.fading.stats", "channel.fading.beam", "finite_size", "sweep", "daily")
FUZZ_DB_KEYS = ("protocols.1.v_s", "protocols.1.v_an", "channel.eta1", "channel.eta2", "channel.fading.stats.mean_eta")


def fuzz_node(doc, path):
    """The object at dotted `path` of doc ("" for doc), or None where the path leads to none."""
    node = doc
    for name in path.split(".") if path else ():
        if isinstance(node, list) and name.isdigit() and int(name) < len(node):
            node = node[int(name)]
        elif isinstance(node, dict) and name in node:
            node = node[name]
        else:
            return None
    return node if isinstance(node, dict) else None


def fuzz_edit(doc, edit):
    """Apply the edit (kind, dotted path, value) to doc in place where the path's parent is an object."""
    kind, path, value = edit
    parent, _, key = path.rpartition(".")
    node = fuzz_node(doc, parent)
    if node is None:
        return
    if kind == "section":  # the section given as a list or as a number; daily is added where absent
        if key in node or key == "daily":
            node[key] = [node[key]] if value == "wrap" and key in node else value
    elif kind == "pair":  # both forms of a dB pair
        node.update({key: 0.5, f"{key}_db": value})
    else:  # one key set, an X_db key in place of its X
        node.pop(key.removesuffix("_db"), None)
        node[key] = value


near_3100_db = st.builds(lambda x, sign: sign * round(x, 3), st.floats(3000.0, 3200.0), st.sampled_from([1, -1]))
fuzz_edits = st.one_of(
    st.tuples(st.just("section"), st.sampled_from(FUZZ_SECTIONS), st.sampled_from([[], "wrap", 0, 7, 2.5, -3100.0])),
    st.tuples(st.just("pair"), st.sampled_from(FUZZ_DB_KEYS), st.sampled_from([-3.0, 0.0]) | near_3100_db),
    st.tuples(st.just("set"), st.sampled_from([f"{key}_db" for key in FUZZ_DB_KEYS] + ["protocols.0.optimizer.vs_cap_db"]),
              near_3100_db),
    st.just(("set", "protocols.1.label", "coh")),  # the label of protocols[0]
)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["keyrate", "optimize", "sweep", "daily", "simulate"]),
       fading=st.sampled_from(sorted(FUZZ_FADING)), edits=st.lists(fuzz_edits, max_size=2),
       text=st.sampled_from(["json", "json", "json", "empty", "bom"]))
def test_fuzzed_scenario_structure_exits_cleanly(command, fading, edits, text):
    """Structural edits of a small scenario (sections given as lists or numbers,
    duplicate labels, both forms of a dB pair, dB values near +-3100, an empty
    file, a UTF-8 BOM) through each command: exit 0, 2, 3 or 4 with exactly one
    stderr line, and no warning."""
    segment, sweep = FUZZ_FADING[fading]
    doc = json.loads(json.dumps({"protocols": FUZZ_VARIANTS, "channel": {"eta1_db": -2.0, "eps2": 0.01,
                                                                         "fading": segment},
                                 "finite_size": {"n": 1e8}, "sweep": sweep}))
    if command == "daily":  # daily takes turbulence from the cn2 series alone
        doc["channel"]["fading"].get("beam", {}).pop("sigma_r2", None)
    for edit in edits:
        fuzz_edit(doc, edit)
    body = {"json": json.dumps(doc), "empty": "", "bom": "\ufeff" + json.dumps(doc)}[text]
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cfg.scenario").write_text(body, encoding="utf-8")
        Path(tmp, "cn2.csv").write_text("hour,cn2\n00,1e-15\n01,3e-15\n")
        argv = [command, *([str(Path(tmp, "cn2.csv"))] if command == "daily" else []),
                "--config", str(Path(tmp, "cfg.scenario")), "--out", str(Path(tmp, "x.csv"))]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv + (["--n", "64"] if command == "simulate" else []))
    err = err.getvalue()
    assert code in (0, 2, 3, 4) and err.count("\n") == 1, (code, err)
    assert err.startswith({0: "wrote ", 2: "error: ", 3: "numerical failure: ", 4: "i/o error: "}[code]), err
