"""Scenario configuration: JSON documents validated against a published schema.

A scenario describes one or more protocol variants, a composite channel whose
fading segment comes from explicit moments, a sample file, or an elliptic-beam
link, plus optional finite-size and sweep sections.  Rate commands take a beam
link's moments from the fixed quadrature rule of beam.fading_moments; only
`simulate` draws samples from it.  Unknown keys are rejected.
docs/scenario_schema.json is generated from SCHEMA below and a test keeps the
two in sync.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .beam import BeamScenario, fading_moments
from .channel import CompositeChannel, FadingStats, fading_stats, read_eta_csv
from .errors import ConfigError, DomainError
from .keyrate import FiniteSizeParams
from .optimizer import OptimizationSpec
from .sources import ProtocolParams, variance_from_db

SWEEP_VARIABLES = ("distance", "mean_eta_db", "var_sqrt", "block_size", "v_s", "v_m")

# schema node: {"type": ..., "required": bool, "doc": str, ...bounds/enums/children}
PROTOCOL_SCHEMA = {
    "label": {"type": "string", "doc": "row label in outputs"},
    "family": {"type": "string", "enum": ("coherent", "squeezed"), "required": True, "doc": "protocol family"},
    "v_s": {"type": "number", "min_excl": 0.0, "max": 1.0, "doc": "squeezed-quadrature variance, SNU"},
    "v_s_db": {"type": "number", "max": 0.0, "doc": "v_s in dB (<= 0)"},
    "v_m": {"type": "number", "min": 0.0, "doc": "modulation variance, SNU"},
    "v_an": {"type": "number", "min": 0.0, "doc": "anti-squeezing noise, SNU"},
    "v_an_db": {"type": "number", "min": 0.0, "doc": "anti-squeezing noise as positive dB"},
    "prep_noise_trust": {"type": "string", "enum": ("trusted", "untrusted"), "doc": "attribution of v_an"},
    "reconciliation": {"type": "string", "enum": ("dr", "rr"), "doc": "default rr"},
    "beta": {"type": "number", "min": 0.0, "max": 1.0, "doc": "reconciliation efficiency"},
    "sifting": {"type": "number", "min_excl": 0.0, "max": 1.0, "doc": "kept fraction after sifting (default 1)"},
    "optimizer": {
        "type": "object",
        "doc": "presence means: optimize (v_s under cap for squeezed) and v_m",
        "children": {
            "vs_cap_db": {"type": "number", "max": 0.0, "doc": "squeezing cap in dB (squeezed family)"},
            "vm_max": {"type": "number", "min_excl": 0.0, "doc": "upper modulation bound, SNU (default 1000)"},
            "grid": {"type": "list_int", "doc": "[n_vs, n_vm] coarse grid (default [25, 25])"},
            "tolerance": {"type": "number", "min_excl": 0.0, "doc": "search stops once the stencil rate spread around the best point is below this, bits (default 1e-6)"},
            "optimize_vs": {"type": "bool", "doc": "false freezes V_s at the configured value (V_m-only search)"},
        },
    },
}


SCHEMA = {
    "description": {"type": "string", "doc": "free-text note; no effect on computation"},
    "seed": {"type": "int", "min": 0, "doc": "64-bit RNG seed of `simulate`; rate tables record it but do not depend on it"},
    "protocol": {"type": "object", "doc": "single protocol variant", "children": PROTOCOL_SCHEMA},
    "protocols": {"type": "list", "doc": "list of protocol variants", "children": PROTOCOL_SCHEMA},
    "channel": {
        "type": "object",
        "required": True,
        "doc": "composite untrusted channel",
        "children": {
            "eta1": {"type": "number", "min_excl": 0.0, "max": 1.0, "doc": "fixed transmittance before the fading segment"},
            "eta1_db": {"type": "number", "max": 0.0, "doc": "eta1 as 10 log10(eta), dB <= 0"},
            "eta2": {"type": "number", "min_excl": 0.0, "max": 1.0, "doc": "fixed transmittance after the fading segment"},
            "eta2_db": {"type": "number", "max": 0.0, "doc": "eta2 in dB <= 0"},
            "eps1": {"type": "number", "min": 0.0, "doc": "excess noise of segment 1, SNU at receiver"},
            "eps2": {"type": "number", "min": 0.0, "doc": "excess noise of segment 2, SNU at receiver"},
            "eps_atm": {"type": "number", "min": 0.0, "doc": "excess noise of the fading segment, SNU at receiver"},
            "fading": {
                "type": "object",
                "required": True,
                "doc": "exactly one of: stats, samples_file, beam",
                "children": {
                    "stats": {
                        "type": "object",
                        "doc": "explicit fading moments",
                        "children": {
                            "mean_eta": {"type": "number", "min": 0.0, "max": 1.0, "doc": "<eta> (or give mean_eta_db)"},
                            "mean_sqrt_eta": {"type": "number", "min": 0.0, "max": 1.0, "doc": "<sqrt(eta)>; defaults to sqrt(<eta>) (no fading)"},
                            "mean_eta_db": {"type": "number", "max": 0.0, "doc": "alternative to mean_eta, in dB"},
                            "var_sqrt": {"type": "number", "min": 0.0, "max": 0.25, "doc": "alternative to mean_sqrt_eta: Var(sqrt(eta))"},
                        },
                    },
                    "samples_file": {"type": "string", "doc": "CSV with single `eta` column"},
                    "beam": {
                        "type": "object",
                        "doc": "elliptic-beam link: rate commands use its quadrature moments, `simulate` samples it",
                        "children": {
                            "wavelength": {"type": "number", "min_excl": 0.0, "required": True, "doc": "m"},
                            "w0": {"type": "number", "min_excl": 0.0, "required": True, "doc": "initial beam-spot radius, m"},
                            "aperture": {"type": "number", "min_excl": 0.0, "required": True, "doc": "receiver aperture radius, m"},
                            "distance": {"type": "number", "min_excl": 0.0, "doc": "propagation distance, m (daily default: 2200)"},
                            "cn2": {"type": "number", "min": 0.0, "doc": "refractive-index structure constant, m^(-2/3)"},
                            "sigma_r2": {"type": "number", "min": 0.0, "doc": "Rytov variance given directly"},
                            "tracking": {"type": "bool", "doc": "receiver-side beam tracking"},
                            "n_samples": {"type": "int", "min": 1, "doc": "sample count of `simulate` (default 100000); rate commands ignore it"},
                        },
                    },
                },
            },
        },
    },
    "finite_size": {
        "type": "object",
        "doc": "finite-block correction; omit for asymptotic rates",
        "children": {
            "n": {"type": "number", "min": 1e3, "required": True, "doc": "block size"},
            "eps_bar": {"type": "number", "min_excl": 0.0, "max_excl": 1.0, "doc": "smoothing parameter (default 1e-10)"},
            "key_fraction": {"type": "number", "min_excl": 0.0, "max": 1.0, "doc": "fraction of block kept for key (default 1)"},
        },
    },
    "sweep": {
        "type": "object",
        "doc": "sweep one variable over a range",
        "children": {
            "variable": {"type": "string", "enum": SWEEP_VARIABLES, "required": True, "doc": "what to sweep"},
            "values": {"type": "list_number", "doc": "explicit values (alternative to start/stop/steps)"},
            "start": {"type": "number", "doc": "range start"},
            "stop": {"type": "number", "doc": "range stop (inclusive)"},
            "steps": {"type": "int", "min": 2, "doc": "number of points"},
            "spacing": {"type": "string", "enum": ("linear", "log"), "doc": "default linear"},
        },
    },
    "daily": {
        "type": "object",
        "doc": "accepted and ignored",
        "children": {
            "n_samples": {"type": "int", "min": 1, "doc": "ignored: `daily` uses the quadrature moments"},
        },
    },
}

def _validate_node(value, node, path):
    t = node["type"]
    if t == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected object")
        _validate_dict(value, node["children"], path)
    elif t == "list":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected non-empty list")
        for i, item in enumerate(value):
            if not isinstance(item, dict):
                raise ConfigError(f"{path}[{i}]: expected object")
            _validate_dict(item, node["children"], f"{path}[{i}]")
    elif t == "list_number":
        if not isinstance(value, list) or not value or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"{path}: expected non-empty list of numbers")
        for i, v in enumerate(value):
            _finite(v, f"{path}[{i}]")
    elif t == "list_int":
        if not isinstance(value, list) or len(value) != 2 or not all(isinstance(v, int) and v >= 2 for v in value):
            raise ConfigError(f"{path}: expected [n_vs, n_vm] with entries >= 2")
    elif t == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected integer")
        _check_bounds(value, node, path)
    elif t == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected number")
        _check_bounds(_finite(value, path), node, path)
    elif t == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected boolean")
    elif t == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string")
        if "enum" in node and value not in node["enum"]:
            raise ConfigError(f"{path}: must be one of {node['enum']}, got {value!r}")
    else:  # pragma: no cover - schema authoring error
        raise ConfigError(f"{path}: unknown schema type {t}")


def _finite(value, path) -> float:
    """value as a float; json accepts NaN and Infinity literals, the schema does not."""
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {x}")
    return x


def _check_bounds(value, node, path):
    if "min" in node and value < node["min"]:
        raise ConfigError(f"{path}: must be >= {node['min']}, got {value}")
    if "min_excl" in node and value <= node["min_excl"]:
        raise ConfigError(f"{path}: must be > {node['min_excl']}, got {value}")
    if "max" in node and value > node["max"]:
        raise ConfigError(f"{path}: must be <= {node['max']}, got {value}")
    if "max_excl" in node and value >= node["max_excl"]:
        raise ConfigError(f"{path}: must be < {node['max_excl']}, got {value}")


def _validate_dict(doc, schema, path="config"):
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key, node in schema.items():
        if node.get("required") and key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")
    for key, value in doc.items():
        _validate_node(value, schema[key], f"{path}.{key}")


def schema_document() -> dict:
    """JSON-schema-style document published under docs/scenario_schema.json."""

    def convert(schema):
        out = {}
        for key, node in schema.items():
            entry = {"type": node["type"], "description": node.get("doc", "")}
            for bound in ("min", "min_excl", "max", "max_excl", "enum"):
                if bound in node:
                    entry[bound] = list(node[bound]) if bound == "enum" else node[bound]
            if node.get("required"):
                entry["required"] = True
            if "children" in node:
                entry["properties"] = convert(node["children"])
            out[key] = entry
        return out

    return {
        "title": "cvfade scenario configuration",
        "description": "JSON scenario document; unknown keys are rejected; units per field descriptions",
        "properties": convert(SCHEMA),
    }


@dataclass(frozen=True)
class ProtocolVariant:
    label: str
    params: ProtocolParams
    family: str
    optimizer: OptimizationSpec | None


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario with resolved pieces ready for the pipelines."""

    raw: dict
    seed: int
    variants: tuple
    channel_doc: dict
    finite: FiniteSizeParams | None
    sweep: dict | None

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def _linear(doc, name, default, path):
    """doc[name], or doc[name + "_db"] converted from dB, or `default`."""
    if f"{name}_db" not in doc:
        return doc.get(name, default)
    try:
        return variance_from_db(doc[f"{name}_db"])
    except DomainError as exc:
        raise ConfigError(f"{path}.{name}_db: {exc}") from exc


def _resolve_protocol(doc, path) -> ProtocolVariant:
    family = doc["family"]
    if "v_s" in doc and "v_s_db" in doc:
        raise ConfigError(f"{path}: give only one of v_s / v_s_db")
    if "v_an" in doc and "v_an_db" in doc:
        raise ConfigError(f"{path}: give only one of v_an / v_an_db")
    v_s = _linear(doc, "v_s", 1.0, path)
    v_an = _linear(doc, "v_an", 0.0, path)
    b = 1 if family == "coherent" else 0
    try:
        params = ProtocolParams(
            v_s=v_s,
            v_m=doc.get("v_m", 0.0),
            b=b,
            v_an=v_an,
            reconciliation=doc.get("reconciliation", "rr"),
            beta=doc.get("beta", 1.0),
            prep_noise_trust=doc.get("prep_noise_trust", "trusted"),
            sifting=doc.get("sifting", 1.0),
        )
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    opt = None
    if "optimizer" in doc:
        o = doc["optimizer"]
        opt = OptimizationSpec(
            family=family,
            vs_cap_db=o.get("vs_cap_db", -10.0),
            vm_range=(0.0, o.get("vm_max", 1000.0)),
            grid=tuple(o.get("grid", (25, 25))),
            tolerance=o.get("tolerance", 1e-6),
            optimize_vs=o.get("optimize_vs", True),
        )
    label = doc.get("label", family)
    return ProtocolVariant(label=label, params=params, family=family, optimizer=opt)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError on any problem."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"scenario file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or an over-long integer
        raise ConfigError(f"scenario is not valid JSON: {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario document must be a JSON object")
    _validate_dict(raw, SCHEMA)

    if ("protocol" in raw) == ("protocols" in raw):
        raise ConfigError("give exactly one of protocol / protocols")
    pdocs = [raw["protocol"]] if "protocol" in raw else raw["protocols"]
    variants = tuple(
        _resolve_protocol(d, f"protocols[{i}]") for i, d in enumerate(pdocs)
    )
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise ConfigError("protocol labels must be unique")

    ch = raw["channel"]
    for name in ("eta1", "eta2"):
        if name in ch and f"{name}_db" in ch:
            raise ConfigError(f"channel: give only one of {name} / {name}_db")
    fading = ch["fading"]
    if sum(k in fading for k in ("stats", "samples_file", "beam")) != 1:
        raise ConfigError("channel.fading: give exactly one of stats / samples_file / beam")

    finite = None
    if "finite_size" in raw:
        f = raw["finite_size"]
        try:
            finite = FiniteSizeParams(
                n=f["n"], eps_bar=f.get("eps_bar", 1e-10), key_fraction=f.get("key_fraction", 1.0)
            )
        except Exception as exc:
            raise ConfigError(f"finite_size: {exc}") from exc

    sweep = raw.get("sweep")
    if sweep is not None:
        has_values = "values" in sweep
        has_range = all(k in sweep for k in ("start", "stop", "steps"))
        if has_values == has_range:
            raise ConfigError("sweep: give either values or start/stop/steps")

    return ScenarioConfig(
        raw=raw,
        seed=raw.get("seed", 0),
        variants=variants,
        channel_doc=ch,
        finite=finite,
        sweep=sweep,
    )


def sweep_values(sweep: dict) -> list[float]:
    if "values" in sweep:
        return [float(v) for v in sweep["values"]]
    start, stop, steps = sweep["start"], sweep["stop"], sweep["steps"]
    if sweep.get("spacing", "linear") == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log spacing requires positive start/stop")
        la, lb = math.log10(start), math.log10(stop)
        try:
            return [10.0 ** (la + (lb - la) * i / (steps - 1)) for i in range(steps)]
        except OverflowError:  # 10 ** log10(stop) can round past the float maximum
            raise ConfigError(f"sweep: a log-spaced value from {start} to {stop} overflows "
                              "the float range") from None
    values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, values)):  # (stop - start) * i can overflow
        raise ConfigError(f"sweep: a linear-spaced value from {start} to {stop} overflows "
                          "the float range")
    return values


def beam_scenario(config: ScenarioConfig, **override) -> BeamScenario:
    """channel.fading.beam as a BeamScenario, with keys such as `distance` or
    `cn2` overridden and n_samples, which only `simulate` reads, dropped."""
    beam = {k: v for k, v in config.channel_doc["fading"]["beam"].items() if k != "n_samples"}
    beam.update(override)
    if "distance" not in beam:
        raise ConfigError("fading.beam: distance is required (except for the daily command)")
    try:
        return BeamScenario(**beam)
    except DomainError as exc:
        raise ConfigError(f"fading.beam: {exc}") from exc


_STATS_ALTERNATIVE = {"mean_eta": "mean_eta_db", "mean_eta_db": "mean_eta",
                      "mean_sqrt_eta": "var_sqrt", "var_sqrt": "mean_sqrt_eta"}


def resolve_fading(config: ScenarioConfig, **override) -> FadingStats:
    """The fading segment's moments: explicit, of a sample file, or a beam
    link's quadrature moments.  `override` replaces keys of the stats section,
    each dropping its alternative (mean_eta_db drops mean_eta, var_sqrt drops
    mean_sqrt_eta and vice versa), or of the beam section as in beam_scenario."""
    fading = config.channel_doc["fading"]
    if "stats" in fading:
        s = dict(fading["stats"])
        for key, value in override.items():
            s.pop(_STATS_ALTERNATIVE[key], None)
            s[key] = value
        if ("mean_eta" in s) == ("mean_eta_db" in s):
            raise ConfigError("fading.stats: give exactly one of mean_eta / mean_eta_db")
        mean_eta = _linear(s, "mean_eta", None, "fading.stats")
        if "mean_sqrt_eta" in s and "var_sqrt" in s:
            raise ConfigError("fading.stats: give only one of mean_sqrt_eta / var_sqrt")
        if "var_sqrt" in s:
            if s["var_sqrt"] > mean_eta:
                raise ConfigError("fading.stats: var_sqrt cannot exceed mean_eta")
            mean_sqrt = math.sqrt(mean_eta - s["var_sqrt"])
        else:
            mean_sqrt = s.get("mean_sqrt_eta", math.sqrt(mean_eta))
        try:
            return FadingStats(mean_eta, mean_sqrt)
        except Exception as exc:
            raise ConfigError(f"fading.stats: {exc}") from exc
    if "samples_file" in fading:
        try:
            samples = read_eta_csv(fading["samples_file"])
            return fading_stats(samples)
        except OSError as exc:
            raise ConfigError(f"cannot read samples_file: {exc}") from exc
        except Exception as exc:
            raise ConfigError(f"samples_file: {exc}") from exc
    return fading_moments(beam_scenario(config, **override))


def build_channel(config: ScenarioConfig, stats: FadingStats) -> CompositeChannel:
    ch = config.channel_doc
    try:
        return CompositeChannel(
            fading=stats,
            eta1=float(_linear(ch, "eta1", 1.0, "channel")),
            eta2=float(_linear(ch, "eta2", 1.0, "channel")),
            eps1=ch.get("eps1", 0.0),
            eps2=ch.get("eps2", 0.0),
            eps_atm=ch.get("eps_atm", 0.0),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"channel: {exc}") from exc


@dataclass(frozen=True)
class Cn2Series:
    """Hourly (or otherwise labeled) refractive-index structure constants."""

    labels: tuple
    cn2: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.cn2) or not self.labels:
            raise ConfigError("cn2 series must be non-empty with matching labels")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("cn2 series labels must be unique")
        if not all(math.isfinite(c) and c > 0 for c in self.cn2):
            raise ConfigError("cn2 values must be finite and > 0")


def read_cn2_csv(path) -> Cn2Series:
    """CSV with header `hour,cn2` (or `label,cn2`); '#' lines ignored."""
    labels, values = [], []
    try:
        with open(path, newline="") as fh:
            rows = (r for r in fh if not r.startswith("#"))
            reader = csv.reader(rows)
            header = next(reader, None)
            if header is None or len(header) != 2 or header[1].strip() != "cn2":
                raise ConfigError(f"expected two-column CSV with `<label>,cn2` header in {path}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise ConfigError(f"expected two cells `<label>,cn2` per row in {path}, got {len(row)}")
                labels.append(row[0].strip())
                values.append(float(row[1]))
    except OSError as exc:
        raise ConfigError(f"cannot read cn2 series: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad cn2 value in {path}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigError(f"malformed cn2 CSV {path}: {exc}") from exc
    return Cn2Series(tuple(labels), tuple(values))
