import math
import time
from dataclasses import replace

import pytest
from scipy.optimize import minimize

from cvfade.channel import CompositeChannel, FadingStats
from cvfade.errors import ConfigError, NumericalFailure
from cvfade.keyrate import FiniteSizeParams, key_rate, key_rate_equivalent_fixed
from cvfade.optimizer import OptimizationSpec, optimize, searches_vs
from cvfade.sources import ProtocolParams

SQ_TEMPLATE = ProtocolParams(v_s=0.5, v_m=1.0, b=0, beta=1.0)
COH_TEMPLATE = ProtocolParams(v_s=1.0, v_m=1.0, b=1, beta=1.0)


def fading_channel(mean_eta, var, **kw):
    return CompositeChannel(fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)), **kw)


class TestOptimizationSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            OptimizationSpec(vs_cap_db=1.0)
        with pytest.raises(ConfigError):
            OptimizationSpec(vm_range=(5.0, 2.0))
        with pytest.raises(ConfigError):
            OptimizationSpec(grid=(1, 10))

    def test_vs_min(self):
        assert OptimizationSpec(vs_cap_db=-10.0).vs_min == pytest.approx(0.1)

    def test_searches_vs_only_for_a_free_squeezed_family(self):
        assert searches_vs(OptimizationSpec(), SQ_TEMPLATE)
        assert not searches_vs(OptimizationSpec(optimize_vs=False), SQ_TEMPLATE)
        assert not searches_vs(OptimizationSpec(), COH_TEMPLATE)
        assert not searches_vs(OptimizationSpec(optimize_vs=False), COH_TEMPLATE)


class TestOptimize:
    def test_no_fading_pins_squeezing_at_cap(self):
        spec = OptimizationSpec(vs_cap_db=-10.0,
                                vm_range=(0.0, 60.0), grid=(13, 13))
        out = optimize(spec, SQ_TEMPLATE, fading_channel(0.5, 0.0))
        assert out.v_s == pytest.approx(0.1, rel=1e-6)
        assert not out.no_positive_rate

    def test_short_link_regime_pins_at_cap(self):
        # negligible fading but nonzero receiver noise: cap-pinned optimum
        spec = OptimizationSpec(vs_cap_db=-3.0,
                                vm_range=(0.0, 60.0), grid=(13, 13))
        ch = fading_channel(0.99, 1e-7, eta1=0.4, eps2=0.025)
        out = optimize(spec, ProtocolParams(v_s=0.5, v_m=1.0, b=0, beta=0.95), ch)
        assert out.v_s == pytest.approx(10.0 ** (-0.3), rel=1e-3)

    def test_fading_gives_interior_squeezing_optimum(self):
        spec = OptimizationSpec(vs_cap_db=-30.0,
                                vm_range=(0.0, 60.0), grid=(21, 15))
        out = optimize(spec, SQ_TEMPLATE, fading_channel(0.5, 0.04))
        assert out.v_s > 0.02
        assert out.v_s < 1.0

    def test_returned_rate_dominates_grid(self):
        spec = OptimizationSpec(vs_cap_db=-10.0,
                                vm_range=(0.0, 40.0), grid=(7, 7))
        ch = fading_channel(0.5, 0.01, eps2=0.01)
        out = optimize(spec, SQ_TEMPLATE, ch)
        best_rate = out.result.rate_asymptotic
        assert out.trace
        assert all(best_rate >= r - 1e-12 for (_, _, r) in out.trace)

    def test_deterministic(self):
        spec = OptimizationSpec(vs_cap_db=-10.0,
                                vm_range=(0.0, 40.0), grid=(9, 9))
        ch = fading_channel(0.4, 0.005, eps2=0.01)
        a = optimize(spec, SQ_TEMPLATE, ch)
        b = optimize(spec, SQ_TEMPLATE, ch)
        assert (a.v_s, a.v_m) == (b.v_s, b.v_m)
        assert a.result.rate_asymptotic == b.result.rate_asymptotic

    def test_caps_respected(self):
        spec = OptimizationSpec(vs_cap_db=-6.0,
                                vm_range=(0.0, 10.0), grid=(9, 9))
        for ch in (
            fading_channel(0.5, 0.0),
            fading_channel(0.3, 0.02, eps2=0.02),
            fading_channel(0.9, 0.001, eta1=0.5),
        ):
            out = optimize(spec, SQ_TEMPLATE, ch)
            assert 10.0 ** (-0.6) - 1e-12 <= out.v_s <= 1.0 + 1e-12
            assert 0.0 <= out.v_m <= 10.0 + 1e-9

    def test_coherent_family_fixes_vs(self):
        spec = OptimizationSpec(vm_range=(0.0, 60.0), grid=(9, 17))
        out = optimize(spec, COH_TEMPLATE, fading_channel(0.5, 0.0))
        assert out.v_s == 1.0
        assert out.result.rate_asymptotic > 0.0

    def test_frozen_vs_search(self):
        spec = OptimizationSpec(vm_range=(0.0, 60.0),
                                grid=(9, 17), optimize_vs=False)
        template = ProtocolParams(v_s=0.3, v_m=1.0, b=0)
        out = optimize(spec, template, fading_channel(0.5, 0.0))
        assert out.v_s == 0.3

    def test_no_positive_rate_flag(self):
        spec = OptimizationSpec(vm_range=(0.0, 30.0), grid=(5, 9))
        ch = fading_channel(0.05, 0.0, eps2=0.3)
        out = optimize(spec, ProtocolParams(v_s=1.0, v_m=1.0, b=1, beta=0.9), ch)
        assert out.no_positive_rate
        assert out.result.rate_asymptotic <= 0.0

    def test_search_ends_at_round_cap(self):
        """On a wide V_m box the shared step shrinks before the search moves
        along V_s, which it then crawls up one tiny step per round; the round
        cap ends it in bounded time and the result says so.  A box whose
        states are too large to resolve raises instead."""
        ch = fading_channel(0.1, 0.0, eps2=0.01)
        template = ProtocolParams(v_s=1.0, v_m=0.0, b=0, beta=0.95)
        spec = OptimizationSpec(vs_cap_db=-3.0, vm_range=(0.0, 1e5), grid=(5, 5))
        start = time.perf_counter()
        out = optimize(spec, template, ch)
        assert time.perf_counter() - start < 5.0
        assert (out.stop, out.rounds) == ("round_cap", 1000)
        assert optimize(replace(spec, vm_range=(0.0, 100.0)), template, ch).stop == "tolerance"
        with pytest.raises(NumericalFailure, match="symplectic spectrum not resolved"):
            optimize(replace(spec, vm_range=(0.0, 1e12)), template, ch)

    def test_search_ends_by_tolerance_or_step_floor(self):
        """With the default tolerance the stencil's rate spread ends the search;
        with a tolerance no spread reaches, the step floor does."""
        spec = OptimizationSpec(vs_cap_db=-10.0, vm_range=(0.0, 60.0), grid=(13, 13))
        ch = fading_channel(0.5, 0.0)
        converged = optimize(spec, SQ_TEMPLATE, ch)
        floored = optimize(replace(spec, tolerance=1e-300), SQ_TEMPLATE, ch)
        assert converged.stop == "tolerance"
        assert floored.stop == "step_floor"
        assert 0 < converged.rounds < floored.rounds

    def test_capped_squeezed_beats_coherent_under_moderate_fading(self):
        # beta = 0.95, <eta> = 0.5, Var = 0.01, eps_+ = 0.01: a -3 dB squeezing
        # cap already outperforms the optimized coherent protocol
        ch = fading_channel(0.5, 0.01, eps2=0.01)
        sq = optimize(
            OptimizationSpec(vs_cap_db=-3.0, vm_range=(0.0, 60.0), grid=(9, 15)),
            ProtocolParams(v_s=0.5, v_m=1.0, b=0, beta=0.95), ch,
        )
        coh = optimize(
            OptimizationSpec(vm_range=(0.0, 60.0), grid=(2, 15)),
            ProtocolParams(v_s=1.0, v_m=1.0, b=1, beta=0.95), ch,
        )
        assert sq.result.rate_asymptotic > coh.result.rate_asymptotic

    def test_finite_size_objective(self):
        spec = OptimizationSpec(vm_range=(0.0, 40.0), grid=(5, 11))
        ch = fading_channel(0.6, 0.0, eps2=0.01)
        out = optimize(spec, ProtocolParams(v_s=1.0, v_m=1.0, b=1, beta=0.95), ch,
                       finite=FiniteSizeParams(n=1e6))
        assert out.result.rate_finite is not None
        direct = key_rate(
            ProtocolParams(v_s=1.0, v_m=out.v_m, b=1, beta=0.95), ch, FiniteSizeParams(n=1e6)
        )
        assert direct.rate_finite == pytest.approx(out.result.rate_finite, abs=1e-12)


# <eta> = 0.5, Var(sqrt(eta)) = 0.01, eta1 = -4 dB, eps2 = 0.025, beta = 0.95, n = 1e6
ORACLE_CASES = {
    "squeezed_cap10db": (OptimizationSpec(vs_cap_db=-10.0, vm_range=(0.0, 100.0)),
                         ProtocolParams(v_s=0.5, v_m=1.0, b=0, beta=0.95)),
    "coherent": (OptimizationSpec(vm_range=(0.0, 100.0)),
                 ProtocolParams(v_s=1.0, v_m=1.0, b=1, beta=0.95)),
    "frozen_vs": (OptimizationSpec(vm_range=(0.0, 100.0), optimize_vs=False),
                  ProtocolParams(v_s=0.3, v_m=1.0, b=0, beta=0.95)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_matches_independent_multistart_search(case):
    """The optimum is within 1e-6 bits of bounded scipy Nelder-Mead run from
    several starts through the equivalent-fixed-channel route."""
    spec, template = ORACLE_CASES[case]
    ch = fading_channel(0.5, 0.01, eta1=10.0 ** -0.4, eps2=0.025)
    finite = FiniteSizeParams(n=1e6)
    vs_free = searches_vs(spec, template)

    def loss(u):  # u in the unit box: (log10 V_s scaled, V_m scaled) or (V_m scaled,)
        v_s = 10.0 ** (spec.vs_cap_db / 10.0 * (1.0 - u[0])) if vs_free else template.v_s
        params = replace(template, v_s=v_s, v_m=spec.vm_range[1] * u[-1])
        return -key_rate_equivalent_fixed(params, ch, finite).rate_finite

    vm_starts = (0.02, 0.25, 0.75)
    starts = [[a, b] for a in (0.25, 0.75) for b in vm_starts] if vs_free else [[b] for b in vm_starts]
    reference = max(
        -minimize(loss, x0, method="Nelder-Mead", bounds=[(0.0, 1.0)] * len(x0),
                  options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 4000}).fun
        for x0 in starts
    )
    out = optimize(spec, template, ch, finite)
    assert out.result.rate_finite >= reference - 1e-6
