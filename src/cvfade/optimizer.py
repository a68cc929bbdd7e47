"""Deterministic maximization of the key rate over squeezing and modulation.

Two stages: a coarse grid (log-spaced in V_s, linear in V_m), evaluated as
one batch by keyrate.key_rates, followed by a bounded Nelder-Mead simplex
refinement from the best grid point, one evaluation at a time.  Everything is
deterministic: identical inputs give identical optima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import CompositeChannel
from .errors import ConfigError
from .keyrate import FiniteSizeParams, KeyRateResult, key_rate, key_rates
from .sources import ProtocolParams, variance_from_db

COHERENT = "coherent"
SQUEEZED = "squeezed"


@dataclass(frozen=True)
class OptimizationSpec:
    """Search region and termination settings.

    vs_cap_db: most-negative allowed squeezing in dB (<= 0); the coherent
    family ignores it and fixes V_s = 1.  vm_range: inclusive modulation
    bounds in SNU.  grid: (n_vs, n_vm) coarse densities.  tolerance: simplex
    stops once the per-iteration rate improvement drops below this.
    optimize_vs=False freezes V_s at the protocol template's value and
    searches V_m only (used by fixed-squeezing sweeps).
    """

    family: str = SQUEEZED
    vs_cap_db: float = -10.0
    vm_range: tuple[float, float] = (0.0, 1000.0)
    grid: tuple[int, int] = (25, 25)
    tolerance: float = 1e-6
    optimize_vs: bool = True

    def __post_init__(self):
        if self.family not in (COHERENT, SQUEEZED):
            raise ConfigError(f"unknown protocol family {self.family!r}")
        if self.vs_cap_db > 0:
            raise ConfigError("vs_cap_db must be <= 0 dB")
        lo, hi = self.vm_range
        if not (0.0 <= lo < hi):
            raise ConfigError("vm_range must satisfy 0 <= lo < hi")
        if min(self.grid) < 2:
            raise ConfigError("grid densities must be >= 2")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be > 0")

    @property
    def vs_min(self) -> float:
        return variance_from_db(self.vs_cap_db)


@dataclass(frozen=True)
class OptimizationResult:
    v_s: float
    v_m: float
    result: KeyRateResult
    no_positive_rate: bool
    evaluations: int
    trace: list = field(default_factory=list)


def _nelder_mead(f, x0, lo, hi, step, tolerance, max_iter=400):
    """Minimize f over a box [lo, hi] from x0; returns (x_best, f_best, n_eval).

    Plain Nelder-Mead with clipping to the box; deterministic.  Terminates
    when an iteration improves the best value by less than `tolerance`.
    """
    dim = len(x0)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def clip(x):
        return np.minimum(np.maximum(x, lo), hi)

    pts = [clip(np.asarray(x0, dtype=float))]
    for i in range(dim):
        p = np.array(pts[0])
        p[i] = p[i] + step[i] if p[i] + step[i] <= hi[i] else p[i] - step[i]
        pts.append(clip(p))
    evals = [f(p) for p in pts]
    n_eval = len(pts)

    for _ in range(max_iter):
        order = sorted(range(dim + 1), key=lambda k: evals[k])
        pts = [pts[k] for k in order]
        evals = [evals[k] for k in order]
        best_before = evals[0]

        centroid = np.mean(pts[:-1], axis=0)
        xr = clip(centroid + (centroid - pts[-1]))
        fr = f(xr)
        n_eval += 1
        if fr < evals[0]:
            xe = clip(centroid + 2.0 * (centroid - pts[-1]))
            fe = f(xe)
            n_eval += 1
            pts[-1], evals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < evals[-2]:
            pts[-1], evals[-1] = xr, fr
        else:
            xc = clip(centroid + 0.5 * (pts[-1] - centroid))
            fc = f(xc)
            n_eval += 1
            if fc < evals[-1]:
                pts[-1], evals[-1] = xc, fc
            else:
                for k in range(1, dim + 1):
                    pts[k] = clip(pts[0] + 0.5 * (pts[k] - pts[0]))
                    evals[k] = f(pts[k])
                n_eval += dim

        improvement = best_before - min(evals)
        if 0.0 <= improvement < tolerance:
            break

    k = int(np.argmin(evals))
    return pts[k], evals[k], n_eval


def optimize(
    spec: OptimizationSpec,
    protocol_template: ProtocolParams,
    chan: CompositeChannel,
    finite: FiniteSizeParams | None = None,
    collect_trace: bool = False,
) -> OptimizationResult:
    """Maximize the key rate over (V_s, V_m) within the spec's caps.

    The optimized objective is rate_finite when finite-size parameters are
    given, rate_asymptotic otherwise.  Grid ties break toward larger V_s,
    then smaller V_m.  The returned point never violates the caps and its
    rate is >= every evaluated grid point.  no_positive_rate flags a best
    rate <= 0 (the argmax is still returned).
    """
    trace = []
    cache: dict[tuple[float, float], float] = {}
    if spec.family == COHERENT:
        protocol = replace(protocol_template, v_s=1.0, b=1, v_an=0.0)
    else:
        protocol = replace(protocol_template, b=0)

    def rates(points: list[tuple[float, float]]) -> list[float]:
        """Objective at each (v_s, v_m); points not seen before are evaluated as one batch."""
        new = list(dict.fromkeys(p for p in points if p not in cache))
        if new:
            v_s, v_m = np.array(new).T
            res = key_rates(protocol, chan, finite, v_s=v_s, v_m=v_m)
            values = res.rate_finite if finite is not None else res.rate_asymptotic
            for p, r in zip(new, values.tolist()):
                cache[p] = r
                if collect_trace:
                    trace.append((*p, r))
        return [cache[p] for p in points]

    def rate(v_s: float, v_m: float) -> float:
        return rates([(v_s, v_m)])[0]

    n_vs, n_vm = spec.grid
    vs_frozen = spec.family == COHERENT or not spec.optimize_vs
    if spec.family == COHERENT:
        vs_grid = np.array([1.0])
    elif not spec.optimize_vs:
        vs_grid = np.array([protocol_template.v_s])
    else:
        vs_grid = np.logspace(math.log10(spec.vs_min), 0.0, n_vs)
        vs_grid[-1] = 1.0
    vm_grid = np.linspace(spec.vm_range[0], spec.vm_range[1], n_vm)

    grid = [(v_s, v_m) for v_s in vs_grid.tolist() for v_m in vm_grid.tolist()]
    best = None  # (rate, v_s, -v_m) lexicographic max
    for (v_s, v_m), r in zip(grid, rates(grid)):
        cand = (r, v_s, -v_m)
        if best is None or cand > best:
            best = cand
    grid_rate, grid_vs, neg_vm = best
    grid_vm = -neg_vm

    # refine in (log10 V_s, V_m); V_s may be frozen
    if vs_frozen:
        x0 = [grid_vm]
        lo = [spec.vm_range[0]]
        hi = [spec.vm_range[1]]
        step = [max((spec.vm_range[1] - spec.vm_range[0]) / (n_vm - 1), 1e-3)]
        frozen_vs = float(vs_grid[0])

        def objective(x):
            return -rate(frozen_vs, float(x[0]))

    else:
        x0 = [math.log10(grid_vs), grid_vm]
        lo = [spec.vs_cap_db / 10.0, spec.vm_range[0]]
        hi = [0.0, spec.vm_range[1]]
        step = [
            max(-spec.vs_cap_db / 10.0 / (n_vs - 1), 1e-4),
            max((spec.vm_range[1] - spec.vm_range[0]) / (n_vm - 1), 1e-3),
        ]

        def objective(x):
            return -rate(10.0 ** float(x[0]), float(x[1]))

    x_best, f_best, _ = _nelder_mead(objective, x0, lo, hi, step, spec.tolerance)
    refined_rate = -f_best
    if vs_frozen:
        refined = (refined_rate, float(vs_grid[0]), -float(x_best[0]))
    else:
        refined = (refined_rate, 10.0 ** float(x_best[0]), -float(x_best[1]))
    final = max(best, refined)
    v_s, v_m = final[1], -final[2]

    res = key_rate(replace(protocol, v_s=v_s, v_m=v_m), chan, finite)
    return OptimizationResult(
        v_s=v_s,
        v_m=v_m,
        result=res,
        no_positive_rate=(final[0] <= 0.0),
        evaluations=len(cache),
        trace=trace,
    )
