import json
from pathlib import Path

import pytest

from conftest import MALFORMED_CN2
from cvfade.beam import BeamScenario, fading_moments
from cvfade.errors import ConfigError
from cvfade.scenario import (
    SCHEMA,
    beam_scenario,
    load_scenario,
    read_cn2_csv,
    resolve_fading,
    schema_document,
    sweep_values,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

MINIMAL = {
    "protocol": {"family": "coherent", "v_m": 3.0},
    "channel": {"fading": {"stats": {"mean_eta": 0.5}}},
}


def write_config(tmp_path, doc, name="s.scenario"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestValidation:
    def test_minimal_accepted(self, tmp_path):
        cfg = load_scenario(write_config(tmp_path, MINIMAL))
        assert cfg.variants[0].params.is_coherent
        assert cfg.variants[0].params.v_m == 3.0

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = dict(MINIMAL, typo_key=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(write_config(tmp_path, doc))

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["channel"]["fading"]["stats"]["skew"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(write_config(tmp_path, doc))

    def test_bad_json_rejected(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "absent.scenario")

    def test_requires_one_protocol_section(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["protocols"] = [doc["protocol"]]
        with pytest.raises(ConfigError, match="exactly one of protocol"):
            load_scenario(write_config(tmp_path, doc))

    def test_exactly_one_fading_source(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["channel"]["fading"]["samples_file"] = "x.csv"
        with pytest.raises(ConfigError, match="exactly one of stats"):
            load_scenario(write_config(tmp_path, doc))

    def test_bounds_enforced(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["channel"]["eta1"] = 1.5
        with pytest.raises(ConfigError, match="must be <= 1"):
            load_scenario(write_config(tmp_path, doc))

    def test_duplicate_labels_rejected(self, tmp_path):
        doc = {
            "protocols": [
                {"family": "coherent", "label": "a"},
                {"family": "squeezed", "label": "a", "v_s": 0.5},
            ],
            "channel": MINIMAL["channel"],
        }
        with pytest.raises(ConfigError, match="labels must be unique"):
            load_scenario(write_config(tmp_path, doc))


class TestResolution:
    def test_db_fields(self, tmp_path):
        doc = {
            "protocol": {"family": "squeezed", "v_s_db": -3.0, "v_m": 2.0, "beta": 0.9},
            "channel": {
                "eta1_db": -4.0,
                "fading": {"stats": {"mean_eta_db": -3.0103, "var_sqrt": 0.01}},
            },
        }
        cfg = load_scenario(write_config(tmp_path, doc))
        assert cfg.variants[0].params.v_s == pytest.approx(10 ** -0.3)
        stats = resolve_fading(cfg)
        assert stats.mean_eta == pytest.approx(0.5, abs=1e-4)
        assert stats.var_sqrt == pytest.approx(0.01, abs=1e-6)
        from cvfade.scenario import build_channel

        chan = build_channel(cfg, stats)
        assert chan.eta1 == pytest.approx(10 ** -0.4)

    def test_optimizer_spec(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["protocol"]["optimizer"] = {"vm_max": 40.0, "grid": [5, 9], "tolerance": 1e-5}
        cfg = load_scenario(write_config(tmp_path, doc))
        spec = cfg.variants[0].optimizer
        assert spec.vm_range == (0.0, 40.0)
        assert spec.grid == (5, 9)
        assert spec.family == "coherent"

    def test_samples_file_fading(self, tmp_path):
        csv = tmp_path / "etas.csv"
        csv.write_text("eta\n0.25\n0.25\n1.0\n1.0\n")
        doc = json.loads(json.dumps(MINIMAL))
        doc["channel"]["fading"] = {"samples_file": str(csv)}
        cfg = load_scenario(write_config(tmp_path, doc))
        stats = resolve_fading(cfg)
        assert stats.mean_eta == pytest.approx(0.625)

    def test_beam_fading_uses_quadrature_moments(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["seed"] = 5
        beam = {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02, "distance": 1500.0, "sigma_r2": 0.25}
        doc["channel"]["fading"] = {"beam": {**beam, "n_samples": 2000}}
        cfg = load_scenario(write_config(tmp_path, doc))
        stats = resolve_fading(cfg)
        assert stats == fading_moments(BeamScenario(**beam))
        assert 0.0 < stats.mean_eta < 1.0
        assert resolve_fading(cfg, distance=2500.0) == fading_moments(BeamScenario(**{**beam, "distance": 2500.0}))
        # neither the seed nor the sample count reaches the moments
        doc["seed"] = 6
        doc["channel"]["fading"]["beam"]["n_samples"] = 10
        assert resolve_fading(load_scenario(write_config(tmp_path, doc))) == stats

    def test_beam_scenario_errors_are_config_errors(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["channel"]["fading"] = {"beam": {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02, "sigma_r2": 0.25}}
        cfg = load_scenario(write_config(tmp_path, doc))
        with pytest.raises(ConfigError, match="distance is required"):
            resolve_fading(cfg)
        with pytest.raises(ConfigError, match="fading.beam: distance must be > 0"):
            beam_scenario(cfg, distance=-1.0)
        with pytest.raises(ConfigError, match="fading.beam: give exactly one of cn2 / sigma_r2"):
            beam_scenario(cfg, distance=100.0, cn2=1e-15)

    def test_sweep_values(self):
        assert sweep_values({"values": [1, 2, 3]}) == [1.0, 2.0, 3.0]
        assert sweep_values({"start": 0.0, "stop": 1.0, "steps": 3}) == [0.0, 0.5, 1.0]
        logv = sweep_values({"start": 1.0, "stop": 100.0, "steps": 3, "spacing": "log"})
        assert logv == pytest.approx([1.0, 10.0, 100.0])


class TestShippedScenarios:
    @pytest.mark.parametrize("name", [
        "fig1b.scenario",
        "fig2b_caption.scenario",
        "fig2b_text.scenario",
        "fig3.scenario",
        "fig3_text.scenario",
    ])
    def test_loads(self, name):
        cfg = load_scenario(SCENARIOS / name)
        assert cfg.variants

    def test_fig3_variants_disagree_only_in_losses(self):
        a = load_scenario(SCENARIOS / "fig3.scenario")
        b = load_scenario(SCENARIOS / "fig3_text.scenario")
        assert a.channel_doc["eta1_db"] == -4.0
        assert b.channel_doc["eta1_db"] == -6.0

    def test_synthetic_cn2_series(self):
        series = read_cn2_csv(SCENARIOS / "prague-like.csv")
        assert len(series.labels) == 24
        assert min(series.cn2) > 0
        # the fixture is labeled synthetic in its comment header
        head = (SCENARIOS / "prague-like.csv").read_text().splitlines()[0]
        assert "SYNTHETIC" in head


class TestSchemaDocument:
    def test_published_document_in_sync(self):
        published = json.loads((REPO / "docs" / "scenario_schema.json").read_text())
        assert published == schema_document()

    def test_every_documented_key_is_validated(self):
        doc = schema_document()
        assert set(doc["properties"]) == set(SCHEMA)


def test_read_cn2_csv_errors(tmp_path):
    bad = tmp_path / "c.csv"
    bad.write_text("hour,value\n0,1e-15\n")
    with pytest.raises(ConfigError):
        read_cn2_csv(bad)
    dup = tmp_path / "d.csv"
    dup.write_text("hour,cn2\n0,1e-15\n0,2e-15\n")
    with pytest.raises(ConfigError):
        read_cn2_csv(dup)
    for name, text in MALFORMED_CN2.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_cn2_csv(path)
