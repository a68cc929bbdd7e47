import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvfade.channel import CompositeChannel, FadingStats
from cvfade.errors import DomainError, InternalError
from cvfade.gaussian import entropy_g
from cvfade.keyrate import (
    FiniteSizeParams,
    finite_size_penalty,
    holevo_dr,
    holevo_rr,
    key_rate,
    key_rate_equivalent_fixed,
    mutual_information,
)
from cvfade.sources import ProtocolParams, build_source
from cvfade.channel import apply_composite


def fixed_channel(eta, **kw):
    return CompositeChannel(fading=FadingStats.fixed(eta), **kw)


def state_after(params, chan):
    return apply_composite(build_source(params), chan)


class TestMutualInformation:
    def test_lossless_coherent(self):
        p = ProtocolParams(v_s=1.0, v_m=3.0, b=1)
        assert mutual_information(state_after(p, fixed_channel(1.0)), p) == pytest.approx(1.0, abs=1e-12)

    def test_lossless_squeezed(self):
        p = ProtocolParams(v_s=0.5, v_m=1.5, b=0)
        assert mutual_information(state_after(p, fixed_channel(1.0)), p) == pytest.approx(1.0, abs=1e-12)

    def test_no_modulation(self):
        p = ProtocolParams(v_s=0.5, v_m=0.0, b=0)
        assert mutual_information(state_after(p, fixed_channel(0.7)), p) == 0.0


class TestHolevoRR:
    def test_lossless_noiseless_decouples_adversary(self):
        p = ProtocolParams(v_s=1.0, v_m=3.0, b=1)
        assert holevo_rr(state_after(p, fixed_channel(1.0))) == pytest.approx(0.0, abs=1e-9)

    def test_half_loss_coherent_closed_form(self):
        # independent oracle: two-mode nu_+- algebra + bosonic entropy, by hand
        eta, v_m = 0.5, 3.0
        mu = v_m + 1.0
        p = ProtocolParams(v_s=1.0, v_m=v_m, b=1)
        state = state_after(p, fixed_channel(eta))
        nu_plus = mu * (1.0 - eta) + eta                       # pure-loss TMSV spectrum
        v_b = eta * v_m + 1.0
        cond_a_x = mu - eta * (mu * mu - 1.0) / v_b            # A given Bob's x
        chi_oracle = entropy_g(nu_plus) - entropy_g(math.sqrt(cond_a_x * mu))
        got = holevo_rr(state)
        assert got == pytest.approx(chi_oracle, abs=1e-9)
        i_ab = mutual_information(state, p)
        assert 0.0 < got < i_ab
        assert i_ab - got == pytest.approx(0.3142593, abs=1e-6)

    def test_fading_breaks_strong_squeezing(self):
        # strong squeezing under moderate fading: adversary bound exceeds I_AB
        st_ = FadingStats(0.5, math.sqrt(0.5 - 0.02))
        p = ProtocolParams(v_s=0.01, v_m=15.0, b=0)
        state = state_after(p, CompositeChannel(fading=st_))
        assert holevo_rr(state) > mutual_information(state, p)


class TestHolevoDR:
    def test_lossless_noiseless(self):
        p = ProtocolParams(v_s=1.0, v_m=3.0, b=1, reconciliation="dr")
        assert holevo_dr(state_after(p, fixed_channel(1.0)), p) == pytest.approx(0.0, abs=1e-9)

    def test_pure_loss_closed_form(self):
        # oracle from the explicit beamsplitter dilation: chi = g(V_E) - g(sqrt(V_E))
        for eta, expect_positive in ((0.8, True), (0.4, False)):
            v_m = 10.0
            mu = v_m + 1.0
            p = ProtocolParams(v_s=1.0, v_m=v_m, b=1, reconciliation="dr")
            state = state_after(p, fixed_channel(eta))
            v_e = (1.0 - eta) * mu + eta
            chi_oracle = entropy_g(v_e) - entropy_g(math.sqrt(v_e))
            got = holevo_dr(state, p)
            assert got == pytest.approx(chi_oracle, abs=1e-9)
            rate = mutual_information(state, p) - got
            assert (rate > 0) == expect_positive


class TestKeyRate:
    def test_identity_is_exact(self):
        p = ProtocolParams(v_s=0.5, v_m=2.0, b=0, beta=0.9)
        res = key_rate(p, fixed_channel(0.6, eps2=0.01))
        assert res.rate_asymptotic == p.beta * res.i_ab - res.chi

    def test_diagnostics_populated(self):
        # V_B = eta (V_s + V_m) + 1 - eta; squeezed x quadrature, lossy fixed channel.
        # The sender's x homodyne leaves V_B|A = eta V_s + 1 - eta, so
        # I_AB = 1/2 log2(V_B / V_B|A).
        p = ProtocolParams(v_s=0.5, v_m=2.0, b=0, beta=0.9)
        res = key_rate(p, fixed_channel(0.6))
        v_b = 0.6 * 2.5 + 0.4
        v_b_given_a = 0.6 * 0.5 + 0.4
        assert res.i_ab == pytest.approx(0.5 * math.log2(v_b / v_b_given_a), rel=1e-12)
        assert res.diagnostics["beta"] == 0.9
        assert res.diagnostics["flags"] == []

    def test_dr_low_transmittance_warning(self):
        # the low-transmittance DR case is reported as a flag, not a warning
        p = ProtocolParams(v_s=1.0, v_m=3.0, b=1, reconciliation="dr")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = key_rate(p, fixed_channel(0.4))
        assert "dr_low_transmittance" in res.diagnostics["flags"]

    def test_negative_rates_reported_not_clipped(self):
        p = ProtocolParams(v_s=0.01, v_m=15.0, b=0)
        res = key_rate(p, CompositeChannel(fading=FadingStats(0.5, math.sqrt(0.48))))
        assert res.rate_asymptotic < 0.0


class TestFiniteSize:
    def test_penalty_reference_value(self):
        assert finite_size_penalty(1e6, 1e-10) == pytest.approx(0.0410, abs=1e-4)

    def test_penalty_vanishes(self):
        assert finite_size_penalty(1e18, 1e-10) < 1e-6

    def test_penalty_monotone(self):
        ns = np.logspace(3, 12, 30)
        vals = [finite_size_penalty(n) for n in ns]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rate_finite_below_asymptotic(self):
        p = ProtocolParams(v_s=0.5, v_m=2.0, b=0, beta=0.95)
        for n in (1e4, 1e6, 1e8):
            res = key_rate(p, fixed_channel(0.6), FiniteSizeParams(n=n))
            assert res.rate_finite <= res.rate_asymptotic
            assert res.n_block == n

    def test_rate_finite_applies_penalty(self):
        p = ProtocolParams(v_s=0.5, v_m=2.0, b=0, beta=0.95)
        fs = FiniteSizeParams(n=1e6, eps_bar=1e-8, key_fraction=0.8)
        res = key_rate(p, fixed_channel(0.6), fs)
        expected = fs.key_fraction * (p.beta * res.i_ab - res.chi - finite_size_penalty(fs.n, fs.eps_bar))
        assert res.rate_finite == expected

    def test_param_validation(self):
        with pytest.raises(DomainError):
            FiniteSizeParams(n=100)
        with pytest.raises(DomainError):
            FiniteSizeParams(n=1e6, eps_bar=0.0)
        with pytest.raises(DomainError):
            FiniteSizeParams(n=1e6, key_fraction=0.0)


class TestPurificationChoice:
    def test_two_and_three_mode_purifications_agree(self):
        # the ancilla-based construction at v_an -> 0 must give the same
        # adversary bound as the minimal two-mode purification
        chan = fixed_channel(0.5, eps2=0.02)
        base = key_rate(ProtocolParams(v_s=0.3, v_m=5.0, b=0), chan)
        tiny = key_rate(ProtocolParams(v_s=0.3, v_m=5.0, b=0, v_an=1e-12), chan)
        assert tiny.chi == pytest.approx(base.chi, abs=1e-6)
        assert tiny.i_ab == pytest.approx(base.i_ab, abs=1e-9)

    def test_sifting_scales_rates(self):
        chan = fixed_channel(0.6)
        full = key_rate(ProtocolParams(v_s=0.5, v_m=2.0, b=0, beta=0.9), chan)
        half = key_rate(ProtocolParams(v_s=0.5, v_m=2.0, b=0, beta=0.9, sifting=0.5), chan)
        assert half.i_ab == pytest.approx(0.5 * full.i_ab)
        assert half.chi == pytest.approx(0.5 * full.chi)
        assert half.rate_asymptotic == pytest.approx(0.5 * full.rate_asymptotic)


class TestFadingEquivalence:
    def test_rate_agreement(self, rng):
        for _ in range(100):
            b = int(rng.integers(0, 2))
            if b == 1:
                p = ProtocolParams(v_s=1.0, v_m=rng.uniform(0.5, 30.0), b=1, beta=rng.uniform(0.5, 1.0))
            else:
                p = ProtocolParams(
                    v_s=rng.uniform(0.05, 1.0), v_m=rng.uniform(0.0, 30.0), b=0,
                    v_an=rng.uniform(0.0, 2.0), beta=rng.uniform(0.5, 1.0),
                )
            mean_eta = rng.uniform(0.05, 1.0)
            var = rng.uniform(0.0, 0.9 * mean_eta * (1.0 - mean_eta))
            ch = CompositeChannel(
                fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)),
                eta1=rng.uniform(0.3, 1.0), eps2=rng.uniform(0.0, 0.05),
            )
            r1 = key_rate(p, ch)
            r2 = key_rate_equivalent_fixed(p, ch)
            assert abs(r1.rate_asymptotic - r2.rate_asymptotic) < 1e-9


@settings(max_examples=150, deadline=None)
@given(
    v_s=st.floats(min_value=0.05, max_value=1.0),
    v_m=st.floats(min_value=0.0, max_value=50.0),
    eta=st.floats(min_value=0.05, max_value=1.0),
    eps=st.floats(min_value=0.0, max_value=0.1),
)
def test_information_quantities_nonnegative(v_s, v_m, eta, eps):
    p = ProtocolParams(v_s=v_s, v_m=v_m, b=0)
    state = state_after(p, fixed_channel(eta, eps2=eps))
    assert mutual_information(state, p) >= 0.0
    assert holevo_rr(state) >= 0.0


def test_internal_error_guard():
    with pytest.raises(InternalError):
        from cvfade.keyrate import KeyRateResult
        KeyRateResult(i_ab=1.0, chi=0.5, rate_asymptotic=0.123, diagnostics={"beta": 1.0})
