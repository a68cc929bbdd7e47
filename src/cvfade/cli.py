"""Command-line front end.

Subcommands: simulate, stats, keyrate, optimize, sweep, daily.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure,
4 I/O error.  Outputs are byte-identical across reruns.  Work runs on one
thread; --jobs is accepted and ignored.  Only `simulate` draws random samples:
rate tables record --seed in their metadata line and do not depend on it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .beam import GENERATOR_NAME, fading_moments, simulate
from .channel import fading_stats, read_eta_csv
from .errors import ConfigError, CvfadeError, DegenerateInput, DomainError, InternalError, NonPhysicalState, NumericalFailure
from .keyrate import FiniteSizeParams, key_rates
from .optimizer import optimize
from .outputs import render_csv, write_json, write_text
from .scenario import (
    ScenarioConfig,
    beam_scenario,
    build_channel,
    load_scenario,
    read_cn2_csv,
    resolve_fading,
    sweep_values,
)

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
            kp.add_argument("--trace", action="store_true", help="write optimizer trace JSON next to the CSV")
    return p


def _load(args) -> ScenarioConfig:
    """The --config scenario, falling back to $CVFADE_CONFIG_DIR for bare names."""
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


def _evaluate_points(points):
    """Key rates of every variant at every point of a sweep.

    `points` holds one (config, chan) per point; the configs share one list of
    variants, whose parameters may differ from point to point.  A variant
    without an optimizer is evaluated at all points in one key_rates call; an
    optimized variant runs its optimizer point by point.  Returns, per point
    and variant, (result, v_s, v_m, optimization result or None).
    """
    table = [[None] * len(config.variants) for config, _ in points]
    for j in range(len(table[0]) if points else 0):
        variants = [config.variants[j] for config, _ in points]
        if variants[0].optimizer is None:
            params = [v.params for v in variants]
            rates = key_rates(params[0], [chan for _, chan in points],
                              [config.finite for config, _ in points],
                              v_s=[p.v_s for p in params], v_m=[p.v_m for p in params])
            for i, p in enumerate(params):
                table[i][j] = (rates.result(i), p.v_s, p.v_m, None)
            continue
        for i, ((config, chan), variant) in enumerate(zip(points, variants)):
            opt = optimize(variant.optimizer, variant.params, chan, config.finite)
            table[i][j] = (opt.result, opt.v_s, opt.v_m, opt)
    return table


def _rate_rows(points, sweep_variable="", values=("",), trace_sink=None):
    """One output row per (point, protocol variant), points outermost."""
    rows = []
    table = _evaluate_points(points)
    for (config, chan), sweep_value, evaluated in zip(points, values, table):
        st = chan.fading
        n_block = None if config.finite is None else config.finite.n
        for variant, (res, v_s, v_m, opt) in zip(config.variants, evaluated):
            params = variant.params
            flags = list(res.diagnostics["flags"])
            if opt is not None:
                if opt.no_positive_rate:
                    flags.append("no_positive_rate")
                if opt.stop in ("round_cap", "step_floor"):
                    flags.append(f"optimizer_{opt.stop}")
                if trace_sink is not None:
                    trace_sink.append({
                        "label": variant.label,
                        "sweep_value": sweep_value,
                        "evaluations": opt.evaluations,
                        "rounds": opt.rounds,
                        "stop": opt.stop,
                        "trace": opt.trace,
                    })
            rows.append([
                variant.label, sweep_variable, sweep_value,
                v_s, v_m, params.v_an, params.b, params.beta, params.reconciliation,
                st.mean_eta, st.mean_sqrt_eta, st.var_sqrt, chan.eta_comb, chan.eps_plus,
                n_block, res.i_ab, res.chi, res.rate_asymptotic, res.rate_finite,
                ";".join(flags),
            ])
    return rows


def cmd_simulate(args) -> int:
    config = _load(args)
    fading = config.channel_doc["fading"]
    if "beam" not in fading:
        raise ConfigError("simulate requires channel.fading.beam in the scenario")
    seed = _effective_seed(config, args)
    n = args.n if args.n is not None else fading["beam"].get("n_samples", 100000)
    result = simulate(beam_scenario(config), n=int(n), seed=seed)

    meta = _meta(config, seed, {"n": int(n), "generator": GENERATOR_NAME})
    text = render_csv(meta, ["eta"], result.samples)
    write_text(args.out, text)
    sidecar = dict(result.metadata)
    sidecar["config_sha256"] = config.config_hash()
    write_json(str(args.out) + ".json", sidecar)
    print(f"wrote {args.out} ({n} samples) and {args.out}.json", file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    samples = read_eta_csv(args.samples)
    st = fading_stats(samples)
    doc = {
        "mean_eta": st.mean_eta,
        "mean_sqrt_eta": st.mean_sqrt_eta,
        "var_sqrt": st.var_sqrt,
        "n_samples": int(samples.size),
    }
    if args.out:
        write_json(args.out, doc)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def _write_rate_table(args, config, rows, extra_meta=None, traces=None, header=ROW_FIELDS):
    meta = _meta(config, _effective_seed(config, args), extra_meta)
    write_text(args.out, render_csv(meta, header, rows))
    if traces is not None:
        write_json(str(args.out) + ".trace.json", {"traces": traces})
    print(f"wrote {args.out} ({len(rows)} rows)", file=sys.stderr)
    return EXIT_OK


def cmd_keyrate(args, optimizing=False) -> int:
    config = _load(args)
    if not optimizing:
        config = replace(config, variants=tuple(replace(v, optimizer=None) for v in config.variants))
    chan = build_channel(config, resolve_fading(config))
    traces = [] if args.trace else None
    rows = _rate_rows([(config, chan)], trace_sink=traces)
    return _write_rate_table(args, config, rows, traces=traces)


def cmd_optimize(args) -> int:
    return cmd_keyrate(args, optimizing=True)


# the fading section each channel variable of a sweep overrides
_SWEPT_FADING = {"distance": "beam", "mean_eta_db": "stats", "var_sqrt": "stats"}


def _sweep_point(config, variable, value, chan):
    """Scenario and channel at one sweep point; `chan` is the sweep's channel,
    resolved once, when the variable leaves the channel alone."""
    section = _SWEPT_FADING.get(variable)
    if section is not None:
        if section not in config.channel_doc["fading"]:
            raise ConfigError(f"sweep over {variable} requires channel.fading.{section}")
        return config, build_channel(config, resolve_fading(config, **{variable: value}))
    if variable == "block_size":
        base = config.finite if config.finite is not None else FiniteSizeParams(n=value)
        return replace(config, finite=replace(base, n=value)), chan

    def sweep_variant(v):
        if variable == "v_s" and v.params.is_coherent:
            return v  # the coherent family fixes v_s = 1
        # sweeping a source parameter freezes it in any configured optimizer
        opt = v.optimizer
        if opt is not None:
            opt = replace(opt, optimize_vs=False) if variable == "v_s" else None
        return replace(v, params=replace(v.params, **{variable: value}), optimizer=opt)

    return replace(config, variants=tuple(sweep_variant(v) for v in config.variants)), chan


def cmd_sweep(args) -> int:
    config = _load(args)
    if config.sweep is None:
        raise ConfigError("sweep command requires a sweep section")
    variable = config.sweep["variable"]
    values = sweep_values(config.sweep)
    chan = None if variable in _SWEPT_FADING else build_channel(config, resolve_fading(config))
    traces = [] if args.trace else None
    points = [_sweep_point(config, variable, value, chan) for value in values]
    rows = _rate_rows(points, sweep_variable=variable, values=values, trace_sink=traces)
    return _write_rate_table(args, config, rows, extra_meta={"sweep_variable": variable},
                             traces=traces)


def cmd_daily(args) -> int:
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

    header = ["label", "cn2", "sigma_r2", "mean_eta", "mean_sqrt_eta", "var_sqrt"]
    for variant in config.variants:
        header += [
            f"{variant.label}_v_s", f"{variant.label}_v_m",
            f"{variant.label}_rate_asymptotic", f"{variant.label}_rate_finite",
        ]

    rows, points = [], []
    for label, cn2 in zip(series.labels, series.cn2):
        scen = beam_scenario(config, distance=distance, cn2=cn2)
        stats = fading_moments(scen)
        points.append((config, build_channel(config, stats)))
        rows.append([label, cn2, scen.rytov_variance,
                     stats.mean_eta, stats.mean_sqrt_eta, stats.var_sqrt])
    for row, evaluated in zip(rows, _evaluate_points(points)):
        for res, v_s, v_m, _ in evaluated:
            row += [v_s, v_m, res.rate_asymptotic, res.rate_finite]

    return _write_rate_table(args, config, rows, extra_meta={"cn2_rows": len(rows)}, header=header)


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
