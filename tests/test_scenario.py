import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import MALFORMED_CN2, load_script
from cvfade.beam import BeamScenario, fading_moments
from cvfade.channel import CompositeChannel
from cvfade.cli import main
from cvfade.errors import ConfigError
from cvfade.keyrate import FiniteSizeParams
from cvfade.optimizer import OptimizationSpec
from cvfade.scenario import (
    SCHEMA,
    beam_scenario,
    build_channel,
    load_scenario,
    read_cn2_csv,
    resolve_fading,
    schema_document,
    sweep_points,
    sweep_values,
)
from cvfade.sources import ProtocolParams

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

    @pytest.mark.parametrize("key,value", [("v_s", 0.5), ("v_s_db", -3.0)])
    def test_coherent_protocol_rejects_squeezing(self, tmp_path, capsys, key, value):
        """The coherent family requires v_s = 1; any other value exits 2 instead of being replaced."""
        doc = json.loads(json.dumps(MINIMAL))
        doc["protocol"][key] = value
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError) as exc:
            load_scenario(path)
        assert str(exc.value) == "protocols[0]: both-quadrature modulation (b=1) requires v_s = 1"
        assert main(["keyrate", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert not (tmp_path / "x.csv").exists()
        doc["protocol"] = {**MINIMAL["protocol"], "v_s": 1.0}
        assert load_scenario(write_config(tmp_path, doc)).variants[0].params.v_s == 1.0

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
        chan = build_channel(cfg, stats)
        assert chan.eta1 == pytest.approx(10 ** -0.4)

    def test_optimizer_spec(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["protocol"]["optimizer"] = {"vm_max": 40.0, "grid": [5, 9], "tolerance": 1e-5}
        cfg = load_scenario(write_config(tmp_path, doc))
        spec = cfg.variants[0].optimizer
        assert spec.vm_range == (0.0, 40.0)
        assert spec.grid == (5, 9)
        assert cfg.variants[0].family == "coherent"

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

    @pytest.mark.parametrize("override", [
        {"mean_eta": 0.55}, {"mean_eta_db": -3.0}, {"mean_sqrt_eta": 0.72}, {"var_sqrt": 0.015},
    ])
    @pytest.mark.parametrize("shape", [{}, {"mean_sqrt_eta": 0.7}, {"var_sqrt": 0.02}])
    @pytest.mark.parametrize("mean", [{"mean_eta": 0.6}, {"mean_eta_db": -2.5}])
    def test_stats_override_is_the_scenario_written_with_it(self, tmp_path, mean, shape, override):
        """An override replaces its key and that key's alternative, bit for bit."""
        ((key, _),) = override.items()
        pair = next(p for p in (("mean_eta", "mean_eta_db"), ("mean_sqrt_eta", "var_sqrt")) if key in p)
        stats = {**mean, **shape}
        written = {**{k: v for k, v in stats.items() if k not in pair}, **override}
        docs = [{**MINIMAL, "channel": {"fading": {"stats": s}}} for s in (stats, written)]
        base, expected = (load_scenario(write_config(tmp_path, d, f"{i}.scenario")) for i, d in enumerate(docs))
        assert resolve_fading(base, **override) == resolve_fading(expected)

    @pytest.mark.parametrize("fading, key, section", [
        ({"stats": {"mean_eta": 0.5}}, "distance", "beam"),
        ({"beam": {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02, "distance": 1500.0, "sigma_r2": 0.25}},
         "var_sqrt", "stats"),
        ({"samples_file": "absent.csv"}, "var_sqrt", "stats"),
    ])
    def test_override_of_a_missing_section_is_rejected(self, tmp_path, fading, key, section):
        cfg = load_scenario(write_config(tmp_path, {**MINIMAL, "channel": {"fading": fading}}))
        with pytest.raises(ConfigError, match=f"^sweep over {key} requires channel.fading.{section}$"):
            resolve_fading(cfg, **{key: 0.01})

    def test_sweep_points_set_each_variant(self, tmp_path):
        """A swept v_s is frozen in the optimizer and leaves the coherent family
        at 1; a swept v_m drops the optimizer; block_size adds a block."""
        doc = {**MINIMAL, "protocols": [
            {"label": "coh", "family": "coherent", "optimizer": {"vm_max": 20.0}},
            {"label": "sq", "family": "squeezed", "v_s": 0.5, "optimizer": {"vs_cap_db": -3.0, "vm_max": 20.0}},
        ]}
        del doc["protocol"]
        cfg = load_scenario(write_config(tmp_path, doc))
        chan = build_channel(cfg, resolve_fading(cfg))
        (vs_cfg, vs_chan), = sweep_points(cfg, "v_s", [0.3])
        coh, sq = vs_cfg.variants
        assert coh == cfg.variants[0] and vs_chan == chan
        assert sq.params.v_s == 0.3 and sq.optimizer.optimize_vs is False
        (vm_cfg, _), = sweep_points(cfg, "v_m", [4.0])
        assert all(v.optimizer is None and v.params.v_m == 4.0 for v in vm_cfg.variants)
        assert [c.finite.n for c, _ in sweep_points(cfg, "block_size", [1e4, 1e6])] == [1e4, 1e6]
        swept = [c.fading.var_sqrt for _, c in sweep_points(cfg, "var_sqrt", [0.0, 0.01])]
        assert swept == pytest.approx([0.0, 0.01], rel=1e-12)

    def test_sweep_values(self):
        assert sweep_values({"values": [1, 2, 3]}) == [1.0, 2.0, 3.0]
        assert sweep_values({"start": 0.0, "stop": 1.0, "steps": 3}) == [0.0, 0.5, 1.0]
        logv = sweep_values({"start": 1.0, "stop": 100.0, "steps": 3, "spacing": "log"})
        assert logv == pytest.approx([1.0, 10.0, 100.0])


def field_values(obj):
    """(name, type, value) of each field of a dataclass instance."""
    return [(f.name, type(getattr(obj, f.name)), getattr(obj, f.name)) for f in fields(obj)]


def schema_node(*keys):
    node = {"children": SCHEMA}
    for key in keys:
        node = node["children"][key]
    return node


# (schema key, the default its doc states, that default as the dataclass holds it, the dataclass's value)
DOCUMENTED_DEFAULTS = [
    (("protocol", "reconciliation"), "default rr", "rr", ProtocolParams().reconciliation),
    (("protocol", "sifting"), "(default 1)", 1.0, ProtocolParams().sifting),
    (("finite_size", "eps_bar"), "(default 1e-10)", 1e-10, FiniteSizeParams(n=1e3).eps_bar),
    (("finite_size", "key_fraction"), "(default 1)", 1.0, FiniteSizeParams(n=1e3).key_fraction),
    (("protocol", "optimizer", "grid"), "(default [25, 25])", (25, 25), OptimizationSpec().grid),
    (("protocol", "optimizer", "vm_max"), "(default 1000)", 1000.0, OptimizationSpec().vm_range[1]),
    (("protocol", "optimizer", "tolerance"), "(default 1e-6)", 1e-6, OptimizationSpec().tolerance),
]


class TestDefaults:
    """A key the scenario omits takes its dataclass's default, which the schema documents."""

    def test_required_keys_only_resolve_to_the_dataclass_defaults(self, tmp_path):
        doc = {
            "protocols": [{"family": "coherent", "optimizer": {}},
                          {"family": "squeezed", "label": "sq", "optimizer": {}}],
            "channel": {"fading": {"stats": {"mean_eta": 0.5}}},
            "finite_size": {"n": 1e4},
        }
        cfg = load_scenario(write_config(tmp_path, doc))
        for variant, b in zip(cfg.variants, (1, 0)):
            assert field_values(variant.params) == field_values(ProtocolParams(b=b))
            assert variant.family == ("squeezed", "coherent")[b]
            assert field_values(variant.optimizer) == field_values(OptimizationSpec())
        assert field_values(cfg.finite) == field_values(FiniteSizeParams(n=1e4))
        stats = resolve_fading(cfg)
        assert field_values(build_channel(cfg, stats)) == field_values(CompositeChannel(fading=stats))

    @pytest.mark.parametrize("keys,stated,value,held", DOCUMENTED_DEFAULTS,
                             ids=[".".join(d[0]) for d in DOCUMENTED_DEFAULTS])
    def test_schema_states_the_dataclass_default(self, keys, stated, value, held):
        assert stated in schema_node(*keys)["doc"]
        assert held == value

    @pytest.mark.parametrize("protocol,error", [
        # a dB pair is rejected before any dB key is converted ...
        ({"family": "squeezed", "v_an_db": 4000.0, "v_s": 0.5, "v_s_db": -3.0},
         "protocols[0]: give only one of v_s / v_s_db"),
        ({"family": "coherent", "v_an": 0.5, "v_an_db": 1.0},
         "protocols[0]: give only one of v_an / v_an_db"),
        # ... and converted before the dataclass checks the values
        ({"family": "coherent", "v_s": 0.5, "v_an_db": 4000.0},
         "protocols[0].v_an_db: 4000.0 dB is a variance beyond the float range"),
        ({"family": "coherent", "v_s": 0.5, "v_an_db": 3.0},
         "protocols[0]: both-quadrature modulation (b=1) requires v_s = 1"),
    ])
    def test_first_of_several_faults_is_reported(self, tmp_path, protocol, error):
        doc = {"protocol": protocol, "channel": {"eta1": 0.5, "eta1_db": -3.0, **MINIMAL["channel"]}}
        with pytest.raises(ConfigError) as exc:
            load_scenario(write_config(tmp_path, doc))
        assert str(exc.value) == error


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
        path.write_bytes(text)
        with pytest.raises(ConfigError):
            read_cn2_csv(path)
    with pytest.raises(ConfigError, match="^cn2 series .* does not decode as "):
        read_cn2_csv(tmp_path / "non_utf8.csv")


def generated_scenarios():
    """scripts/diff_outputs.py's scenarios that set every optional key."""
    return {name: doc for name, doc in load_script("diff_outputs").GENERATED.items() if name.startswith("all_keys")}


@pytest.fixture
def digest_documents(tmp_path):
    """Every shipped scenario, perfbench's fading sweep and the generated ones."""
    paths = sorted(SCENARIOS.glob("*.scenario")) + [REPO / "perfbench" / "fading_sweep.scenario"]
    paths += [write_config(tmp_path, doc, f"{name}.scenario") for name, doc in generated_scenarios().items()]
    return paths


def hashlib_digest(path):
    canonical = json.dumps(json.loads(path.read_text(encoding="utf-8")), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def count_hashlib_calls(monkeypatch):
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    return calls


class TestConfigDigest:
    """config_hash is the SHA-256 hashlib gives of the canonical JSON, from
    CPython's built-in module, or from hashlib where that is not built."""

    def test_built_in_module_gives_hashlibs_digest(self, digest_documents, monkeypatch):
        want = [hashlib_digest(path) for path in digest_documents]
        calls = count_hashlib_calls(monkeypatch)
        assert [load_scenario(path).config_hash() for path in digest_documents] == want
        assert calls == []

    def test_hashlib_fallback_gives_the_same_digest(self, digest_documents, monkeypatch):
        want = [hashlib_digest(path) for path in digest_documents]
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
        calls = count_hashlib_calls(monkeypatch)
        assert [load_scenario(path).config_hash() for path in digest_documents] == want
        assert len(calls) == len(digest_documents)
