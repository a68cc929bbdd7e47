"""Deterministic maximization of the key rate over squeezing and modulation.

Two stages, both evaluated in batches by keyrate.key_rates.  First a coarse
grid, log-spaced in V_s and linear in V_m.  Then a compass (pattern) search
on that lattice in (log10 V_s, V_m) from the best grid point: a 3x3 stencil
(3x1 when V_s is frozen) around the current best, clipped to the box, starting
one grid cell wide.  The search moves to any strictly better stencil point and
keeps its step; when the centre stays best it stops if the stencil's rate
spread is below the tolerance, and halves the step otherwise (Kolda, Lewis &
Torczon, SIAM Rev. 45, 385 (2003)).  A search still running after a fixed
number of rounds ends there and says so.  Everything is deterministic:
identical inputs give identical optima.

Each point is evaluated once: the best point's result is its element of the
key_rates batch that evaluated it, and the trace lists the evaluated points in
evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CompositeChannel
from .errors import ConfigError
from .keyrate import FiniteSizeParams, KeyRateResult, KeyRates, key_rates
from .sources import ProtocolParams, variance_from_db

# the search ends once every free step is below this fraction of its box width
_STEP_FLOOR = 1e-12
# ... or after this many rounds: on a wide V_m box the shared step can shrink
# before the search starts moving along V_s, which it then crawls up
_MAX_ROUNDS = 1000


@dataclass(frozen=True)
class OptimizationSpec:
    """Search region and termination settings.

    vs_cap_db: most-negative allowed squeezing in dB (<= 0, with a variance
    that does not underflow to 0); a coherent template ignores it and keeps
    V_s = 1.  vm_range: inclusive modulation
    bounds in SNU.  grid: (n_vs, n_vm) coarse densities; one grid cell is
    also the search's initial step.  tolerance: stencil rate spread, bits;
    the search stops once the centre stays best and the rates of its stencil
    differ by less than this.
    optimize_vs=False freezes V_s at the protocol template's value and
    searches V_m only (used by fixed-squeezing sweeps).
    """

    vs_cap_db: float = -10.0
    vm_range: tuple[float, float] = (0.0, 1000.0)
    grid: tuple[int, int] = (25, 25)
    tolerance: float = 1e-6
    optimize_vs: bool = True

    def __post_init__(self):
        if self.vs_cap_db > 0:
            raise ConfigError("vs_cap_db must be <= 0 dB")
        if self.vs_min == 0.0:
            raise ConfigError(f"vs_cap_db {self.vs_cap_db} dB is a variance that underflows to 0")
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


def searches_vs(spec: OptimizationSpec, template: ProtocolParams) -> bool:
    """Whether optimize searches V_s: a coherent template (b = 1) fixes it at
    1, and optimize_vs=False freezes it at the template's value."""
    return spec.optimize_vs and not template.is_coherent


@dataclass(frozen=True)
class OptimizationResult:
    v_s: float
    v_m: float
    result: KeyRateResult
    no_positive_rate: bool
    evaluations: int
    rounds: int  # compass rounds run after the grid
    # what ended the search: "tolerance" (converged), "step_floor" or "round_cap"
    stop: str
    trace: list  # (v_s, v_m, objective) per evaluated point, in evaluation order


def optimize(
    spec: OptimizationSpec,
    protocol_template: ProtocolParams,
    chan: CompositeChannel,
    finite: FiniteSizeParams | None = None,
) -> OptimizationResult:
    """Maximize the key rate over (V_s, V_m) within the spec's caps.

    The optimized objective is rate_finite when finite-size parameters are
    given, rate_asymptotic otherwise.  Ties break toward larger V_s, then
    smaller V_m.  The returned point never violates the caps and its rate is
    >= every evaluated point.  no_positive_rate flags a best rate <= 0 (the
    argmax is still returned).  Where V_s is not searched (see searches_vs)
    it keeps the template's value, which is 1 for a coherent template.
    """
    # per evaluated point, in evaluation order: its objective, and the batch
    # and index that computed it
    cache: dict[tuple[float, float], tuple[float, KeyRates, int]] = {}

    def rates(points: list[tuple[float, float]]) -> list[float]:
        """Objective at each (v_s, v_m); points not seen before are evaluated as one batch."""
        new = list(dict.fromkeys(p for p in points if p not in cache))
        if new:
            v_s, v_m = np.array(new).T
            res = key_rates(protocol_template, chan, finite, v_s=v_s, v_m=v_m)
            values = res.rate_finite if finite is not None else res.rate_asymptotic
            for k, (p, r) in enumerate(zip(new, values.tolist())):
                cache[p] = (r, res, k)
        return [cache[p][0] for p in points]

    n_vs, n_vm = spec.grid
    if searches_vs(spec, protocol_template):
        vs_grid = np.logspace(math.log10(spec.vs_min), 0.0, n_vs)
        vs_grid[-1] = 1.0
    else:
        vs_grid = np.array([protocol_template.v_s])
    vm_grid = np.linspace(spec.vm_range[0], spec.vm_range[1], n_vm)

    grid = [(v_s, v_m) for v_s in vs_grid.tolist() for v_m in vm_grid.tolist()]
    best = max((r, v_s, -v_m) for (v_s, v_m), r in zip(grid, rates(grid)))

    # compass search in x = (log10 V_s, V_m); a frozen V_s is an axis of width 0
    lo = [math.log10(vs_grid[0]), spec.vm_range[0]]
    hi = [math.log10(vs_grid[-1]), spec.vm_range[1]]
    step = [(b - a) / (n - 1) for a, b, n in zip(lo, hi, spec.grid)]
    free = [k for k in (0, 1) if step[k] > 0.0]
    centre = [(math.log10(best[1]), best[1]), (-best[2], -best[2])]  # (x, value) per axis
    rounds, stop = 0, "round_cap"
    while rounds < _MAX_ROUNDS:
        if not any(step[k] >= _STEP_FLOOR * (hi[k] - lo[k]) for k in free):
            stop = "step_floor"
            break
        rounds += 1
        axes = []
        for k, (x, value) in enumerate(centre):
            moves = {x: value}
            for y in (x - step[k], x + step[k]) if k in free else ():
                y = min(max(y, lo[k]), hi[k])
                moves.setdefault(y, 10.0 ** y if k == 0 else y)
            axes.append(moves.items())
        stencil = [(s, m) for s in axes[0] for m in axes[1]]
        values = rates([(s[1], m[1]) for s, m in stencil])
        cand, s, m = max(((r, s[1], -m[1]), s, m) for (s, m), r in zip(stencil, values))
        if cand > best:
            best, centre = cand, [s, m]
        elif max(values) - min(values) < spec.tolerance:
            stop = "tolerance"
            break
        else:
            step = [h / 2.0 for h in step]
    v_s, v_m = best[1], -best[2]
    _, batch, k = cache[v_s, v_m]
    return OptimizationResult(
        v_s=v_s,
        v_m=v_m,
        result=batch.result(k),
        no_positive_rate=(best[0] <= 0.0),
        evaluations=len(cache),
        rounds=rounds,
        stop=stop,
        trace=[(*p, r) for p, (r, _, _) in cache.items()],
    )
