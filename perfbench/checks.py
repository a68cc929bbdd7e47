"""Output checks for the benchmark workloads, and the reference optimum search.

The checks hold for any correct program: they pin no bytes of today's output.
Rate tables are checked cell by cell against the scenario and against the
equivalent-fixed-channel route (``keyrate.key_rate_equivalent_fixed``); sample
files and fading moments are checked against an in-process draw from
``beam.simulate`` with the same seed.  Each function returns a list of error
strings, empty when the output is correct.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np

RATE_HEADER = [
    "label", "sweep_variable", "sweep_value",
    "v_s", "v_m", "v_an", "b", "beta", "reconciliation",
    "mean_eta", "mean_sqrt_eta", "var_sqrt", "eta_comb", "eps_plus", "n_block",
    "i_ab", "chi", "rate_asymptotic", "rate_finite", "flags",
]
TEXT_COLUMNS = ("label", "sweep_variable", "reconciliation", "flags")
RATE_TOL = 1e-9      # bits; agreement with the equivalent-fixed-channel route
IDENTITY_TOL = 1e-12  # rounding slack on identities between cells of one row


def _lines(data: bytes) -> tuple[dict, list[str]]:
    """Metadata object and remaining lines of a cvfade CSV."""
    text = data.decode("ascii")
    if not text.endswith("\r\n"):
        raise ValueError("output does not end with CRLF")
    lines = text[:-2].split("\r\n")
    prefix = "# metadata: "
    if not lines[0].startswith(prefix):
        raise ValueError("first line is not a '# metadata:' comment")
    meta = json.loads(lines[0][len(prefix):])
    if not isinstance(meta, dict):
        raise ValueError("metadata is not a JSON object")
    return meta, lines[1:]


def rate_table(data: bytes) -> list[dict]:
    """Rows of a rate table as dicts; raises ValueError on a malformed table."""
    _, lines = _lines(data)
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader, None)
    if header != RATE_HEADER:
        raise ValueError(f"unexpected header {header}")
    rows = []
    for n, cells in enumerate(reader, start=1):
        if len(cells) != len(RATE_HEADER):
            raise ValueError(f"row {n}: {len(cells)} cells")
        row = dict(zip(RATE_HEADER, cells))
        for key in RATE_HEADER:
            if key not in TEXT_COLUMNS:
                value = float(row[key])
                if not math.isfinite(value):
                    raise ValueError(f"row {n}: {key} = {row[key]} is not finite")
                row[key] = value
        rows.append(row)
    return rows


def _near(a, b, tol):
    return abs(a - b) <= tol


def check_rate_table(data: bytes, config, sweep_values, key_rate_every: int = 1) -> list[str]:
    """Check a `cvfade sweep` table against its scenario.

    Every row: labels, sweep value, channel cells, fixed protocol settings and
    the identities between cells.  Every `key_rate_every`-th sweep point (all
    variants): the rates at the reported (v_s, v_m) recomputed through the
    equivalent fixed channel, within RATE_TOL bits.
    """
    from cvfade.channel import FadingStats
    from cvfade.errors import CvfadeError
    from cvfade.keyrate import FiniteSizeParams, key_rate_equivalent_fixed
    from cvfade.scenario import build_channel

    try:
        rows = rate_table(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"malformed rate table: {exc}"]
    variants = config.variants
    expected = len(variants) * len(sweep_values)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]

    finite = config.finite
    errors = []
    for i, row in enumerate(rows):
        point, index = divmod(i, len(variants))
        v = variants[index]
        p = v.params
        where = f"row {i + 1} ({row['label']})"
        if row["label"] != v.label or row["sweep_variable"] != config.sweep["variable"]:
            errors.append(f"{where}: label or sweep variable out of order")
            continue
        if not _near(row["sweep_value"], sweep_values[point], IDENTITY_TOL * max(1.0, abs(sweep_values[point]))):
            errors.append(f"{where}: sweep_value {row['sweep_value']} != {sweep_values[point]}")
        if (row["v_an"], row["b"], row["beta"], row["reconciliation"]) != (p.v_an, p.b, p.beta, p.reconciliation):
            errors.append(f"{where}: protocol settings differ from the scenario")
        if v.optimizer is None and (row["v_s"], row["v_m"]) != (p.v_s, p.v_m):
            errors.append(f"{where}: (v_s, v_m) differ from the scenario")
        if row["n_block"] != finite.n:
            errors.append(f"{where}: n_block {row['n_block']} != {finite.n}")
        if not _near(row["var_sqrt"], row["mean_eta"] - row["mean_sqrt_eta"] ** 2, IDENTITY_TOL):
            errors.append(f"{where}: var_sqrt inconsistent with the moments")
        rate_asym = row["beta"] * row["i_ab"] - row["chi"]
        delta = 7.0 * math.sqrt(math.log2(2.0 / finite.eps_bar) / finite.n)
        if not _near(row["rate_asymptotic"], rate_asym, IDENTITY_TOL):
            errors.append(f"{where}: rate_asymptotic != beta * i_ab - chi")
        if not _near(row["rate_finite"], finite.key_fraction * (rate_asym - delta), IDENTITY_TOL):
            errors.append(f"{where}: rate_finite != rate_asymptotic - Delta(n)")
        try:
            chan = build_channel(config, FadingStats(row["mean_eta"], row["mean_sqrt_eta"]))
        except CvfadeError as exc:
            errors.append(f"{where}: reported channel is invalid: {exc}")
            continue
        if not (_near(row["eta_comb"], chan.eta_comb, IDENTITY_TOL) and _near(row["eps_plus"], chan.eps_plus, IDENTITY_TOL)):
            errors.append(f"{where}: eta_comb or eps_plus differ from the scenario")
        if point % key_rate_every:
            continue
        ref = key_rate_equivalent_fixed(
            replace(p, v_s=row["v_s"], v_m=row["v_m"]), chan,
            FiniteSizeParams(n=row["n_block"], eps_bar=finite.eps_bar, key_fraction=finite.key_fraction),
        )
        for key in ("i_ab", "chi", "rate_asymptotic", "rate_finite"):
            if not _near(row[key], getattr(ref, key), RATE_TOL):
                errors.append(f"{where}: {key} {row[key]!r} != {getattr(ref, key)!r} (equivalent fixed channel)")
    return errors


def beam_reference(config, n: int, seed: int):
    """Samples of the scenario's beam channel drawn in process, as `simulate` draws them."""
    from cvfade.beam import BeamScenario, simulate

    beam = dict(config.channel_doc["fading"]["beam"])
    beam.pop("n_samples", None)
    return simulate(BeamScenario(**beam), n=n, seed=seed).samples


def check_eta_csv(data: bytes, sidecar: bytes, reference: np.ndarray, seed: int) -> list[str]:
    """Check a `cvfade simulate` sample file and its JSON sidecar."""
    try:
        meta, lines = _lines(data)
        if lines[0] != "eta":
            return [f"unexpected header {lines[0]!r}"]
        samples = np.array(lines[1:], dtype=float)
        side = json.loads(sidecar)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"malformed sample file: {exc}"]
    errors = []
    if samples.size != reference.size:
        return [f"{samples.size} samples, expected {reference.size}"]
    if not np.all(np.isfinite(samples)) or np.any(samples < 0.0) or np.any(samples > 1.0):
        errors.append("samples outside [0, 1] or not finite")
    if not np.array_equal(samples, reference):
        errors.append(f"{int(np.sum(samples != reference))} samples differ from beam.simulate with the same seed")
    if (meta.get("seed"), meta.get("n")) != (seed, reference.size):
        errors.append("metadata seed or n differ from the request")
    if (side.get("seed"), side.get("n")) != (seed, reference.size):
        errors.append("sidecar seed or n differ from the request")
    return errors


def check_stats_json(data: bytes, reference: np.ndarray) -> list[str]:
    """Check `cvfade stats` output against fading_stats of the reference draw."""
    from cvfade.channel import fading_stats

    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"malformed stats JSON: {exc}"]
    st = fading_stats(reference)
    expected = {"mean_eta": st.mean_eta, "mean_sqrt_eta": st.mean_sqrt_eta,
                "var_sqrt": st.var_sqrt, "n_samples": int(reference.size)}
    if doc != expected:
        return [f"stats {doc} != {expected}"]
    return []


def reference_gap(data: bytes, config) -> tuple[float, int]:
    """Largest amount by which a reported optimized rate_finite falls below
    an independent optimum, and the number of rows searched.

    The reference maximizes rate_finite through key_rate_equivalent_fixed with
    scipy's bounded Nelder-Mead in box-normalized coordinates (log10 v_s and
    v_m scaled to [0, 1]), from the reported optimum and fixed starts spread
    over the box, with tight tolerances.  A row's gap is max(0, reference -
    reported).
    """
    from scipy.optimize import minimize

    from cvfade.channel import FadingStats
    from cvfade.errors import CvfadeError
    from cvfade.keyrate import key_rate_equivalent_fixed
    from cvfade.scenario import build_channel

    by_label = {v.label: v for v in config.variants}
    worst, searched = 0.0, 0
    for row in rate_table(data):
        variant = by_label[row["label"]]
        spec = variant.optimizer
        if spec is None:
            continue
        chan = build_channel(config, FadingStats(row["mean_eta"], row["mean_sqrt_eta"]))
        vm_max = spec.vm_range[1]
        log_vs_min = spec.vs_cap_db / 10.0
        vs_free = variant.family == "squeezed" and spec.optimize_vs

        def params(u):
            v_m = vm_max * u[-1]
            if variant.family == "coherent":
                return replace(variant.params, v_s=1.0, v_m=v_m)
            v_s = 10.0 ** (log_vs_min * (1.0 - u[0])) if vs_free else variant.params.v_s
            return replace(variant.params, v_s=v_s, v_m=v_m)

        def loss(u):
            try:
                return -key_rate_equivalent_fixed(params(u), chan, config.finite).rate_finite
            except CvfadeError:
                return math.inf

        reported_u = [row["v_m"] / vm_max]
        fixed = [[0.25], [0.75]]
        if vs_free:
            reported_u = [1.0 - math.log10(row["v_s"]) / log_vs_min, row["v_m"] / vm_max]
            fixed = [[a, b] for a in (0.25, 0.75) for b in (0.25, 0.75)]
        best = -math.inf
        for start in [reported_u] + fixed:
            x0 = np.clip(np.array(start, dtype=float), 0.0, 1.0)
            simplex = [x0]
            for k in range(x0.size):
                x = x0.copy()
                x[k] += 0.05 if x[k] <= 0.95 else -0.05
                simplex.append(x)
            res = minimize(loss, x0, method="Nelder-Mead", bounds=[(0.0, 1.0)] * x0.size,
                           options={"initial_simplex": np.array(simplex), "xatol": 1e-10,
                                    "fatol": 1e-14, "maxfev": 4000})
            best = max(best, -res.fun)
        worst = max(worst, best - row["rate_finite"])
        searched += 1
    return worst, searched
