"""Scenario configuration: JSON documents validated against a published schema.

A scenario describes one or more protocol variants, a composite channel whose
fading segment comes from explicit moments, a sample file, or an elliptic-beam
link, plus optional finite-size and sweep sections.  Rate commands take a beam
link's moments from the fixed quadrature rule of beam.fading_moments; only
`simulate` draws samples from it.  Unknown keys are rejected.
SCHEMA below is written in the vocabulary docs/scenario_schema.json publishes,
and schema_document() wraps it unchanged; regenerate the file with

    PYTHONPATH=src python -c 'import json; from cvfade.scenario import schema_document; print(json.dumps(schema_document(), indent=2, sort_keys=True))' > docs/scenario_schema.json
"""
from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gaussian
from .beam import BeamScenario, fading_moments
from .channel import CompositeChannel, FadingStats, read_eta_csv
from .errors import ConfigError, DomainError
from .keyrate import FiniteSizeParams
from .optimizer import OptimizationSpec, searches_vs
from .sources import ProtocolParams, build_source_stack, variance_from_db

_FIXED_SEGMENTS = ("eta1", "eta2")  # the channel's keys that may be given in dB
_FADING_VARIABLES = ("distance", "mean_eta_db", "var_sqrt")  # sweep variables that override the fading segment
SWEEP_VARIABLES = (*_FADING_VARIABLES, "block_size", "v_s", "v_m")

# schema node keys: type, description, required, min, min_excl, max, max_excl, enum (a list), properties
PROTOCOL_SCHEMA = {
    "label": {"type": "string", "description": "row label in outputs"},
    "family": {"type": "string", "enum": ["coherent", "squeezed"], "required": True, "description": "protocol family"},
    "v_s": {"type": "number", "min_excl": 0.0, "max": 1.0, "description": "squeezed-quadrature variance, SNU"},
    "v_s_db": {"type": "number", "max": 0.0, "description": "v_s in dB (<= 0)"},
    "v_m": {"type": "number", "min": 0.0, "description": "modulation variance, SNU"},
    "v_an": {"type": "number", "min": 0.0, "description": "anti-squeezing noise, SNU"},
    "v_an_db": {"type": "number", "min": 0.0, "description": "anti-squeezing noise as positive dB"},
    "prep_noise_trust": {"type": "string", "enum": ["trusted", "untrusted"], "description": "attribution of v_an"},
    "reconciliation": {"type": "string", "enum": ["dr", "rr"], "description": "default rr"},
    "beta": {"type": "number", "min": 0.0, "max": 1.0, "description": "reconciliation efficiency"},
    "sifting": {"type": "number", "min_excl": 0.0, "max": 1.0, "description": "kept fraction after sifting (default 1)"},
    "optimizer": {
        "type": "object",
        "description": "presence means: optimize (v_s under cap for squeezed) and v_m",
        "properties": {
            "vs_cap_db": {"type": "number", "max": 0.0, "description": "squeezing cap in dB (squeezed family)"},
            "vm_max": {"type": "number", "min_excl": 0.0, "description": "upper modulation bound, SNU (default 1000); the box's largest source state must have tr gamma < 450360"},
            "grid": {"type": "list_int", "description": "[n_vs, n_vm] coarse grid (default [25, 25])"},
            "tolerance": {"type": "number", "min_excl": 0.0, "description": "search stops once the stencil rate spread around the best point is below this, bits (default 1e-6)"},
            "optimize_vs": {"type": "bool", "description": "false freezes V_s at the configured value (V_m-only search)"},
        },
    },
}


SCHEMA = {
    "description": {"type": "string", "description": "free-text note; no effect on computation"},
    "seed": {"type": "int", "min": 0, "description": "64-bit RNG seed of `simulate`; rate tables record it but do not depend on it"},
    "protocol": {"type": "object", "description": "single protocol variant", "properties": PROTOCOL_SCHEMA},
    "protocols": {"type": "list", "description": "list of protocol variants", "properties": PROTOCOL_SCHEMA},
    "channel": {
        "type": "object",
        "required": True,
        "description": "composite untrusted channel",
        "properties": {
            "eta1": {"type": "number", "min_excl": 0.0, "max": 1.0, "description": "fixed transmittance before the fading segment"},
            "eta1_db": {"type": "number", "max": 0.0, "description": "eta1 as 10 log10(eta), dB <= 0"},
            "eta2": {"type": "number", "min_excl": 0.0, "max": 1.0, "description": "fixed transmittance after the fading segment"},
            "eta2_db": {"type": "number", "max": 0.0, "description": "eta2 in dB <= 0"},
            "eps1": {"type": "number", "min": 0.0, "description": "excess noise of segment 1, SNU at receiver"},
            "eps2": {"type": "number", "min": 0.0, "description": "excess noise of segment 2, SNU at receiver"},
            "eps_atm": {"type": "number", "min": 0.0, "description": "excess noise of the fading segment, SNU at receiver"},
            "fading": {
                "type": "object",
                "required": True,
                "description": "exactly one of: stats, samples_file, beam",
                "properties": {
                    "stats": {
                        "type": "object",
                        "description": "explicit fading moments",
                        "properties": {
                            "mean_eta": {"type": "number", "min": 0.0, "max": 1.0, "description": "<eta> (or give mean_eta_db)"},
                            "mean_sqrt_eta": {"type": "number", "min": 0.0, "max": 1.0, "description": "<sqrt(eta)>; defaults to sqrt(<eta>) (no fading)"},
                            "mean_eta_db": {"type": "number", "max": 0.0, "description": "alternative to mean_eta, in dB"},
                            "var_sqrt": {"type": "number", "min": 0.0, "max": 0.25, "description": "alternative to mean_sqrt_eta: Var(sqrt(eta))"},
                        },
                    },
                    "samples_file": {"type": "string", "description": "CSV with single `eta` column"},
                    "beam": {
                        "type": "object",
                        "description": "elliptic-beam link: rate commands use its quadrature moments, `simulate` samples it",
                        "properties": {
                            "wavelength": {"type": "number", "min_excl": 0.0, "required": True, "description": "m"},
                            "w0": {"type": "number", "min_excl": 0.0, "required": True, "description": "initial beam-spot radius, m"},
                            "aperture": {"type": "number", "min_excl": 0.0, "required": True, "description": "receiver aperture radius, m"},
                            "distance": {"type": "number", "min_excl": 0.0, "description": "propagation distance, m (daily default: 2200)"},
                            "cn2": {"type": "number", "min": 0.0, "description": "refractive-index structure constant, m^(-2/3)"},
                            "sigma_r2": {"type": "number", "min": 0.0, "description": "Rytov variance given directly"},
                            "tracking": {"type": "bool", "description": "receiver-side beam tracking"},
                            "n_samples": {"type": "int", "min": 1, "description": "sample count of `simulate` (default 100000); rate commands ignore it"},
                        },
                    },
                },
            },
        },
    },
    "finite_size": {
        "type": "object",
        "description": "finite-block correction; omit for asymptotic rates",
        "properties": {
            "n": {"type": "number", "min": 1e3, "required": True, "description": "block size"},
            "eps_bar": {"type": "number", "min_excl": 0.0, "max_excl": 1.0, "description": "smoothing parameter (default 1e-10)"},
            "key_fraction": {"type": "number", "min_excl": 0.0, "max": 1.0, "description": "fraction of block kept for key (default 1)"},
        },
    },
    "sweep": {
        "type": "object",
        "description": "sweep one variable over a range",
        "properties": {
            "variable": {"type": "string", "enum": list(SWEEP_VARIABLES), "required": True, "description": "what to sweep"},
            "values": {"type": "list_number", "description": "explicit values (alternative to start/stop/steps)"},
            "start": {"type": "number", "description": "range start"},
            "stop": {"type": "number", "description": "range stop (inclusive)"},
            "steps": {"type": "int", "min": 2, "description": "number of points"},
            "spacing": {"type": "string", "enum": ["linear", "log"], "description": "default linear"},
        },
    },
    "daily": {
        "type": "object",
        "description": "accepted and ignored",
        "properties": {
            "n_samples": {"type": "int", "min": 1, "description": "ignored: `daily` uses the quadrature moments"},
        },
    },
}

def _validate_node(value, node, path):
    t = node["type"]
    if t == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected object")
        _validate_dict(value, node["properties"], path)
    elif t == "list":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected non-empty list")
        for i, item in enumerate(value):
            if not isinstance(item, dict):
                raise ConfigError(f"{path}[{i}]: expected object")
            _validate_dict(item, node["properties"], f"{path}[{i}]")
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
            raise ConfigError(f"{path}: must be one of {tuple(node['enum'])}, got {value!r}")


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
    return {
        "title": "cvfade scenario configuration",
        "description": "JSON scenario document; unknown keys are rejected; units per field descriptions",
        "properties": SCHEMA,
    }


@dataclass(frozen=True)
class ProtocolVariant:
    label: str
    params: ProtocolParams
    optimizer: OptimizationSpec | None

    @property
    def family(self) -> str:
        return "coherent" if self.params.is_coherent else "squeezed"


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
        return _sha256_hex(json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode())


def _sha256_hex(data: bytes) -> str:
    """SHA-256 hex digest from CPython's built-in module (_sha2 on 3.12+,
    _sha256 before), the one hashlib itself falls back to.  hashlib maps
    OpenSSL's libcrypto, 3.4 MB of resident pages for this one digest, so it
    is imported only where neither module is built."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _linear_keys(doc, path, names) -> dict:
    """doc with each X_db key of `names` replaced by X = variance_from_db(X_db).
    X given together with X_db is rejected, before any key is converted."""
    for name in names:
        if name in doc and f"{name}_db" in doc:
            raise ConfigError(f"{path}: give only one of {name} / {name}_db")
    doc = dict(doc)
    for name in names:
        if f"{name}_db" in doc:
            try:
                doc[name] = variance_from_db(doc.pop(f"{name}_db"))
            except DomainError as exc:
                raise ConfigError(f"{path}.{name}_db: {exc}") from exc
    return doc


def _section(cls, doc, path, linear=(), **fixed):
    """The dataclass cls of the scenario section `doc` at `path`.

    Only the keys doc gives reach cls, so an absent key takes the dataclass's
    own default; each name in `linear` may be given as X or as X_db (see
    _linear_keys), and `fixed` sets fields the section does not hold.  The
    dataclass's DomainError or ConfigError is reported as "{path}: ..."."""
    doc = _linear_keys(doc, path, linear)
    given = {name: value for name, value in doc.items() if name in cls.__dataclass_fields__}
    try:
        return cls(**{**given, **fixed})
    except (DomainError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_box(params: ProtocolParams, spec: OptimizationSpec, path: str):
    """Reject an optimizer box whose source state at v_m = vm_max has
    tr gamma >= gaussian.TRACE_MAX, past which no spectrum is resolved and
    every command that searches the box would exit 3.  The source's trace
    grows with v_m and is convex in log v_s, so the ends of the v_s range
    bound it; the channel scales the signal mode down and adds its noise."""
    free_vs = searches_vs(spec, params)
    v_s = np.array([spec.vs_min, 1.0] if free_vs else [params.v_s])
    vm_max = spec.vm_range[1]
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.trace(build_source_stack(params, v_s, np.full(v_s.size, vm_max)), axis1=1, axis2=2)
    if not (trace < gaussian.TRACE_MAX).all():
        raise ConfigError(
            f"{path}: the optimizer box reaches tr gamma = {trace.max():.6g} >= {gaussian.TRACE_MAX:.6g} "
            f"(vm_max = {vm_max:g}{f', vs_cap_db = {spec.vs_cap_db:g}' if free_vs else ''}), "
            "whose key rates are not resolved")


def _resolve_protocol(doc, path) -> ProtocolVariant:
    family = doc["family"]
    params = _section(ProtocolParams, doc, path, ("v_s", "v_an"), b=1 if family == "coherent" else 0)
    opt = None
    if "optimizer" in doc:
        o = dict(doc["optimizer"])
        if "vm_max" in o:
            o["vm_range"] = (0.0, o.pop("vm_max"))
        if "grid" in o:
            o["grid"] = tuple(o["grid"])
        opt = _section(OptimizationSpec, o, f"{path}.optimizer")
        _check_box(params, opt, path)
    label = doc.get("label", family)
    return ProtocolVariant(label=label, params=params, optimizer=opt)


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is rejected, where json
    would keep the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"scenario gives the key {key!r} twice in one object")
        doc[key] = value
    return doc


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError on any problem."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"scenario file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or an over-long integer
        raise ConfigError(f"scenario is not valid JSON: {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario document must be a JSON object: {p}")
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
    _linear_keys(ch, "channel", _FIXED_SEGMENTS)  # rejects eta1 with eta1_db here, for simulate too
    fading = ch["fading"]
    if sum(k in fading for k in ("stats", "samples_file", "beam")) != 1:
        raise ConfigError("channel.fading: give exactly one of stats / samples_file / beam")

    finite = None
    if "finite_size" in raw:
        finite = _section(FiniteSizeParams, raw["finite_size"], "finite_size")

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
            raise ConfigError("sweep: log spacing requires positive start/stop")
        la, lb = math.log10(start), math.log10(stop)
        try:
            values = [10.0 ** (la + (lb - la) * i / (steps - 1)) for i in range(steps)]
        except OverflowError:  # 10 ** log10(stop) can round past the float maximum
            raise ConfigError(f"sweep: a log-spaced value from {start} to {stop} overflows "
                              "the float range") from None
    else:
        values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
        if not all(map(math.isfinite, values)):  # (stop - start) * i can overflow
            raise ConfigError(f"sweep: a linear-spaced value from {start} to {stop} overflows "
                              "the float range")
    values[0], values[-1] = float(start), float(stop)  # the formulas can miss either end by an ulp
    return values


def sweep_points(config: ScenarioConfig, variable: str, values) -> list[tuple[ScenarioConfig, CompositeChannel]]:
    """The (scenario, channel) of each sweep value.  A fading variable resolves
    the fading segment per point; block_size, v_s and v_m share one channel.
    A swept v_s is frozen in the optimizer, a swept v_m drops it, and the
    coherent family keeps v_s = 1."""
    if variable in _FADING_VARIABLES:
        return [(config, build_channel(config, resolve_fading(config, **{variable: value}))) for value in values]
    chan = build_channel(config, resolve_fading(config))
    if variable == "block_size":
        finite = {} if config.finite is None else vars(config.finite)
        return [(replace(config, finite=_section(FiniteSizeParams, finite, "sweep", n=value)), chan) for value in values]

    def swept(variant, value):
        if variable == "v_s" and variant.params.is_coherent:
            return variant
        opt = variant.optimizer
        if opt is not None:
            opt = replace(opt, optimize_vs=False) if variable == "v_s" else None
        return replace(variant, params=_section(ProtocolParams, vars(variant.params), "sweep", **{variable: value}),
                       optimizer=opt)

    return [(replace(config, variants=tuple(swept(v, value) for v in config.variants)), chan) for value in values]


def beam_scenario(config: ScenarioConfig, **override) -> BeamScenario:
    """channel.fading.beam as a BeamScenario, with fields such as `distance` or
    `cn2` overridden; an override that is no BeamScenario field is rejected,
    where _section would drop it.  n_samples, which only `simulate` reads, is
    no field and does not reach the dataclass."""
    unknown = [key for key in override if key not in BeamScenario.__dataclass_fields__]
    if unknown:
        raise ConfigError(f"fading.beam: {unknown[0]!r} is no BeamScenario field to override")
    beam = {**config.channel_doc["fading"]["beam"], **override}
    if "distance" not in beam:
        raise ConfigError("fading.beam: distance is required (except for the daily command)")
    return _section(BeamScenario, beam, "fading.beam")


_STATS_ALTERNATIVE = {"mean_eta": "mean_eta_db", "mean_eta_db": "mean_eta",
                      "mean_sqrt_eta": "var_sqrt", "var_sqrt": "mean_sqrt_eta"}


def resolve_fading(config: ScenarioConfig, **override) -> FadingStats:
    """The fading segment's moments: explicit, of a sample file, or a beam
    link's quadrature moments.  `override` replaces keys of the stats section,
    each dropping its alternative (mean_eta_db drops mean_eta, var_sqrt drops
    mean_sqrt_eta and vice versa), or fields of the beam section as in
    beam_scenario; an override of a section the scenario lacks is rejected."""
    fading = config.channel_doc["fading"]
    for key in override:
        section = "stats" if key in _STATS_ALTERNATIVE else "beam"
        if section not in fading:
            raise ConfigError(f"sweep over {key} requires channel.fading.{section}")
    if "stats" in fading:
        s = dict(fading["stats"])
        for key, value in override.items():
            s.pop(_STATS_ALTERNATIVE[key], None)
            s[key] = value
        if ("mean_eta" in s) == ("mean_eta_db" in s):
            raise ConfigError("fading.stats: give exactly one of mean_eta / mean_eta_db")
        s = _linear_keys(s, "fading.stats", ("mean_eta",))
        mean_eta = s["mean_eta"]
        if "mean_sqrt_eta" in s and "var_sqrt" in s:
            raise ConfigError("fading.stats: give only one of mean_sqrt_eta / var_sqrt")
        if "var_sqrt" in s:
            if s["var_sqrt"] > mean_eta:
                raise ConfigError("fading.stats: var_sqrt cannot exceed mean_eta")
            s["mean_sqrt_eta"] = math.sqrt(mean_eta - s["var_sqrt"])
        s.setdefault("mean_sqrt_eta", math.sqrt(mean_eta))
        return _section(FadingStats, s, "fading.stats")
    if "samples_file" in fading:
        try:
            return read_eta_csv(fading["samples_file"]).stats
        except OSError as exc:
            raise ConfigError(f"cannot read samples_file: {exc}") from exc
        except DomainError as exc:
            raise ConfigError(f"samples_file: {exc}") from exc
    return fading_moments(beam_scenario(config, **override))


def build_channel(config: ScenarioConfig, stats: FadingStats) -> CompositeChannel:
    return _section(CompositeChannel, config.channel_doc, "channel", _FIXED_SEGMENTS, fading=stats)


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
    except UnicodeDecodeError as exc:  # a ValueError, but not of a value
        raise ConfigError(f"cn2 series {path} does not decode as {exc.encoding}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad cn2 value in {path}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigError(f"malformed cn2 CSV {path}: {exc}") from exc
    return Cn2Series(tuple(labels), tuple(values))
