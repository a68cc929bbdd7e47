"""Command-line front end.

Subcommands: simulate, stats, keyrate, optimize, sweep, daily.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure,
4 I/O error.  Outputs are byte-identical across reruns.  Work runs on one
thread; --jobs is accepted and ignored.  Only `simulate` draws random samples:
rate tables record --seed in their metadata line and do not depend on it.
Each command imports the modules it runs, so `stats` loads no rate module.
Importing this module still binds every cvfade module as `cvfade.<name>` and
in sys.modules, as an eager import did, but runs a module's code only when it
is first used.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from importlib.util import LazyLoader, find_spec, module_from_spec
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .channel import read_eta_csv
from .errors import ConfigError, CvfadeError, DegenerateInput, DomainError, InternalError, NonPhysicalState, NumericalFailure
from .outputs import remove_file, write_csv, write_json

if TYPE_CHECKING:
    from .keyrate import KeyRates
    from .optimizer import OptimizationResult
    from .scenario import ScenarioConfig


def _bind_lazily(*names: str) -> None:
    """Bind each cvfade.<name> as an import would, but run its code on first attribute access."""
    for name in names:
        full_name = f"{__package__}.{name}"
        if full_name in sys.modules:
            continue
        spec = find_spec(full_name)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[full_name] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)


_bind_lazily("beam", "keyrate", "optimizer", "scenario", "sources", "specialfn")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

ROW_FIELDS = [
    "label", "sweep_variable", "sweep_value",
    "v_s", "v_m", "v_an", "b", "beta", "reconciliation",
    "mean_eta", "mean_sqrt_eta", "var_sqrt", "eta_comb", "eps_plus", "n_block",
    "i_ab", "chi", "rate_asymptotic", "rate_finite", "flags",
]

_JOBS_HELP = "accepted and ignored; work runs on one thread"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cvfade", description=__doc__)
    p.add_argument("--version", action="version", version=f"cvfade {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="Monte Carlo transmittance samples -> eta CSV + JSON sidecar")
    sp.add_argument("--config", required=True, help="scenario file (channel.fading.beam section)")
    sp.add_argument("--out", required=True, help="output CSV path (sidecar: same path + .json)")
    sp.add_argument("--n", type=int, default=None, help="sample count override")
    sp.add_argument("--seed", type=int, default=None, help="seed override")
    sp.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)

    st = sub.add_parser("stats", help="fading moments of an eta sample CSV -> JSON")
    st.add_argument("samples", help="CSV with single `eta` column")
    st.add_argument("--out", default=None, help="write JSON here instead of stdout")

    for name, description in (
        ("keyrate", "key rates at the configured protocol parameters"),
        ("optimize", "key rates optimized over squeezing and modulation"),
        ("sweep", "key-rate table over the configured sweep"),
        ("daily", "hourly key rates from a Cn^2 time series"),
    ):
        kp = sub.add_parser(name, help=description)
        if name == "daily":
            kp.add_argument("cn2", help="CSV with `<label>,cn2` columns")
        kp.add_argument("--config", required=True)
        kp.add_argument("--out", required=True, help="output CSV path")
        kp.add_argument("--seed", type=int, default=None, help="seed recorded in the metadata line")
        kp.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
        if name != "daily":
            kp.add_argument("--trace", action="store_true", help="write optimizer trace JSON next to the CSV"
                            + (' ({"traces": []}: keyrate runs no search)' if name == "keyrate" else ""))
    return p


def _load(args) -> ScenarioConfig:
    """The --config scenario, falling back to $CVFADE_CONFIG_DIR for bare names."""
    from .scenario import load_scenario

    path = Path(args.config)
    base = os.environ.get("CVFADE_CONFIG_DIR")
    if not path.exists() and base and (Path(base) / path).exists():
        path = Path(base) / path
    return load_scenario(path)  # which reports a miss


def _effective_seed(config: ScenarioConfig, args) -> int:
    return args.seed if getattr(args, "seed", None) is not None else config.seed


def _meta(config: ScenarioConfig, seed: int, extra: dict | None = None) -> dict:
    meta = {
        "config_sha256": config.config_hash(),
        "seed": seed,
        "package": f"cvfade {__version__}",
    }
    if extra:
        meta.update(extra)
    return meta


@dataclass(frozen=True)
class _VariantRates:
    """One protocol variant's key rates at every point of a sweep, one array
    element per point; `optimized` holds each point's OptimizationResult."""

    v_s: np.ndarray
    v_m: np.ndarray
    rates: KeyRates
    flags: list[str]
    optimized: list[OptimizationResult] | None = None


def _evaluate_points(points) -> list[_VariantRates]:
    """Key rates of every variant at every point of a sweep, per variant.

    `points` holds one (config, chan) per point; the configs share one list of
    variants, whose parameters may differ from point to point.  An optimized
    variant first runs its optimizer point by point.  Each variant is then
    evaluated at all points in one key_rates call, at the optima or at its
    own (v_s, v_m).
    """
    from .keyrate import key_rates
    from .optimizer import optimize

    evaluated = []
    for j in range(len(points[0][0].variants) if points else 0):
        variants = [config.variants[j] for config, _ in points]
        opts = None
        if variants[0].optimizer is not None:
            opts = [optimize(variant.optimizer, variant.params, chan, config.finite)
                    for (config, chan), variant in zip(points, variants)]
        at = opts if opts is not None else [v.params for v in variants]  # each point's (v_s, v_m)
        v_s = np.array([p.v_s for p in at], dtype=float)
        v_m = np.array([p.v_m for p in at], dtype=float)
        rates = key_rates(variants[0].params, [chan for _, chan in points],
                          [config.finite for config, _ in points], v_s=v_s, v_m=v_m)
        flags = [rates.flags(k) for k in range(len(points))]
        for point_flags, opt in zip(flags, opts or ()):
            if opt.rate <= 0.0:
                point_flags.append("no_positive_rate")
            if opt.stop in ("round_cap", "step_floor"):
                point_flags.append(f"optimizer_{opt.stop}")
        evaluated.append(_VariantRates(v_s, v_m, rates, [";".join(f) for f in flags], opts))
    return evaluated


def _rate_columns(points, sweep_variable="", values=("",), trace_sink=None):
    """ROW_FIELDS columns with one row per (point, protocol variant), points outermost."""
    evaluated = _evaluate_points(points)
    variants = points[0][0].variants
    n_points, n_variants = len(points), len(variants)

    def interleaved(per_variant):
        """Point-major column from one float array or None per variant."""
        if per_variant[0] is None:
            return [None] * (n_points * n_variants)
        return np.array(per_variant, dtype=float).T.ravel()

    def per_point(column):
        """Point-major column from one value per point."""
        if all(isinstance(v, float) for v in column):
            return np.repeat(np.array(column, dtype=float), n_variants)
        return [v for v in column for _ in range(n_variants)]

    def tiled(cells):
        return list(cells) * n_points

    if trace_sink is not None:
        for i, sweep_value in enumerate(values):
            for variant, rates in zip(variants, evaluated):
                if rates.optimized is not None:
                    opt = rates.optimized[i]
                    trace_sink.append({
                        "label": variant.label,
                        "sweep_value": sweep_value,
                        "evaluations": opt.evaluations,
                        "rounds": opt.rounds,
                        "stop": opt.stop,
                        "trace": opt.trace,
                    })
    stats = [chan.fading for _, chan in points]
    return [
        tiled(v.label for v in variants),
        [sweep_variable] * (n_points * n_variants),
        per_point(values),
        interleaved([r.v_s for r in evaluated]),
        interleaved([r.v_m for r in evaluated]),
        tiled(v.params.v_an for v in variants),
        tiled(v.params.b for v in variants),
        tiled(v.params.beta for v in variants),
        tiled(v.params.reconciliation for v in variants),
        per_point([st.mean_eta for st in stats]),
        per_point([st.mean_sqrt_eta for st in stats]),
        per_point([st.var_sqrt for st in stats]),
        per_point([chan.eta_comb for _, chan in points]),
        per_point([chan.eps_plus for _, chan in points]),
        per_point([None if config.finite is None else config.finite.n for config, _ in points]),
        interleaved([r.rates.i_ab for r in evaluated]),
        interleaved([r.rates.chi for r in evaluated]),
        interleaved([r.rates.rate_asymptotic for r in evaluated]),
        interleaved([r.rates.rate_finite for r in evaluated]),
        [flags for point in zip(*(r.flags for r in evaluated)) for flags in point],
    ]


def cmd_simulate(args) -> int:
    from .beam import GENERATOR_NAME, sample_chunks, sample_metadata
    from .scenario import beam_scenario

    config = _load(args)
    fading = config.channel_doc["fading"]
    if "beam" not in fading:
        raise ConfigError("simulate requires channel.fading.beam in the scenario")
    seed = _effective_seed(config, args)
    n = int(args.n if args.n is not None else fading["beam"].get("n_samples", 100000))
    scenario = beam_scenario(config)
    chunks = sample_chunks(scenario, n, seed)  # checks n, seed and the moments before the file is opened

    meta = _meta(config, seed, {"n": n, "generator": GENERATOR_NAME})
    try:
        write_csv(args.out, meta, ["eta"], ([chunk] for chunk in chunks))
    except BaseException:
        if not os.path.lexists(args.out):  # write_csv removed the file it opened: an older sidecar describes none
            remove_file(f"{args.out}.json")
        raise
    sidecar = sample_metadata(scenario, n, seed)
    sidecar["config_sha256"] = config.config_hash()
    write_json(f"{args.out}.json", sidecar)
    print(f"wrote {args.out} ({n} samples) and {args.out}.json", file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    st, n = read_eta_csv(args.samples)
    doc = {
        "mean_eta": st.mean_eta,
        "mean_sqrt_eta": st.mean_sqrt_eta,
        "var_sqrt": st.var_sqrt,
        "n_samples": n,
    }
    if args.out:
        write_json(args.out, doc)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def _write_rate_table(args, config, columns, extra_meta=None, traces=None, header=ROW_FIELDS):
    meta = _meta(config, _effective_seed(config, args), extra_meta)
    write_csv(args.out, meta, header, [columns])
    if traces is not None:
        write_json(str(args.out) + ".trace.json", {"traces": traces})
    print(f"wrote {args.out} ({len(columns[0])} rows)", file=sys.stderr)
    return EXIT_OK


def cmd_keyrate(args, optimizing=False) -> int:
    from .scenario import build_channel, resolve_fading

    config = _load(args)
    if not optimizing:
        config = replace(config, variants=tuple(replace(v, optimizer=None) for v in config.variants))
    chan = build_channel(config, resolve_fading(config))
    traces = [] if args.trace else None
    columns = _rate_columns([(config, chan)], trace_sink=traces)
    return _write_rate_table(args, config, columns, traces=traces)


def cmd_optimize(args) -> int:
    return cmd_keyrate(args, optimizing=True)


def cmd_sweep(args) -> int:
    from .scenario import sweep_points, sweep_values

    config = _load(args)
    if config.sweep is None:
        raise ConfigError("sweep command requires a sweep section")
    variable = config.sweep["variable"]
    values = sweep_values(config.sweep)
    traces = [] if args.trace else None
    columns = _rate_columns(sweep_points(config, variable, values), sweep_variable=variable,
                            values=values, trace_sink=traces)
    return _write_rate_table(args, config, columns, extra_meta={"sweep_variable": variable},
                             traces=traces)


def cmd_daily(args) -> int:
    from .beam import fading_moments
    from .scenario import beam_scenario, build_channel, read_cn2_csv

    config = _load(args)
    series = read_cn2_csv(args.cn2)
    fading = config.channel_doc["fading"]
    if "beam" not in fading:
        raise ConfigError("daily requires channel.fading.beam geometry in the scenario")
    if "cn2" in fading["beam"] or "sigma_r2" in fading["beam"]:
        raise ConfigError(
            "daily drives turbulence from the cn2 series; remove cn2/sigma_r2 from the beam section"
        )
    distance = fading["beam"].get("distance", 2200.0)

    rytov, stats, points = [], [], []
    for cn2 in series.cn2:
        scen = beam_scenario(config, distance=distance, cn2=cn2)
        stats.append(fading_moments(scen))
        points.append((config, build_channel(config, stats[-1])))
        rytov.append(scen.rytov_variance)
    header = ["label", "cn2", "sigma_r2", "mean_eta", "mean_sqrt_eta", "var_sqrt"]
    columns = [
        list(series.labels),
        np.array(series.cn2, dtype=float),
        np.array(rytov, dtype=float),
        np.array([st.mean_eta for st in stats], dtype=float),
        np.array([st.mean_sqrt_eta for st in stats], dtype=float),
        np.array([st.var_sqrt for st in stats], dtype=float),
    ]
    for variant, evaluated in zip(config.variants, _evaluate_points(points)):
        header += [f"{variant.label}_{name}" for name in ("v_s", "v_m", "rate_asymptotic", "rate_finite")]
        rates = evaluated.rates
        columns += [evaluated.v_s, evaluated.v_m, rates.rate_asymptotic,
                    [None] * len(stats) if rates.rate_finite is None else rates.rate_finite]
    return _write_rate_table(args, config, columns, extra_meta={"cn2_rows": len(stats)}, header=header)


_COMMANDS = {
    "simulate": cmd_simulate,
    "stats": cmd_stats,
    "keyrate": cmd_keyrate,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "daily": cmd_daily,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, NonPhysicalState, DegenerateInput, InternalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CvfadeError as exc:  # pragma: no cover - catch-all for package errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
