import itertools
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixed_fading
from cvfade.channel import CompositeChannel, FadingStats, fading_stats
from cvfade import keyrate
from cvfade.errors import CvfadeError, DegenerateInput, DomainError, InternalError, NonPhysicalState, NumericalFailure
from cvfade.gaussian import entropy_g, nu_rounding
from cvfade.keyrate import (
    FiniteSizeParams,
    finite_size_penalty,
    holevo_dr,
    holevo_rr,
    key_rate,
    key_rate_equivalent_fixed,
    key_rates,
    mutual_information,
)
from cvfade.beam import _transmittance_rule
from cvfade.optimizer import optimize
from cvfade.outputs import render_csv, write_text
from cvfade.scenario import beam_scenario, build_channel, load_scenario, read_cn2_csv, resolve_fading, sweep_values
from cvfade.sources import ProtocolParams, build_source, build_source_stack, variance_from_db
from cvfade.channel import apply_composite, apply_composite_stack


def fixed_channel(eta, **kw):
    return CompositeChannel(fading=fixed_fading(eta), **kw)


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

    @pytest.mark.parametrize("eps_bar", [1e-308, 5e-324])
    def test_penalty_beyond_the_float_range_is_rejected(self, eps_bar):
        """2 / eps_bar overflows below about 1.1e-308: no -inf rate, a DomainError."""
        for call in (lambda: finite_size_penalty(1e6, eps_bar), lambda: FiniteSizeParams(n=1e6, eps_bar=eps_bar)):
            with pytest.raises(DomainError, match=f"^eps_bar = {eps_bar!r} puts the block-size penalty"):
                call()

    def test_penalty_just_inside_the_float_range(self):
        eps_bar = 1.2e-308  # 2 / eps_bar = 1.67e308
        assert finite_size_penalty(1e3, eps_bar) == 7.0 * math.sqrt(math.log2(2.0 / eps_bar) / 1e3)
        assert FiniteSizeParams(n=1e3, eps_bar=eps_bar).eps_bar == eps_bar


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


LOSSLESS = CompositeChannel(fading=FadingStats(1.0, 1.0))


@pytest.mark.parametrize("reconciliation", ["rr", "dr"])
def test_lossless_holevo_rounding_is_not_an_error(reconciliation):
    """On a lossless noiseless channel chi is 0 and only rounding of the
    near-pure states moves it; at v_m in the hundreds that reaches -1.4e-9
    bits, below the fixed -1e-9 floor, and must still give a rate."""
    protocol = ProtocolParams(reconciliation=reconciliation)
    v_m = np.geomspace(0.01, 1e3, 2000)
    assert key_rates(protocol, LOSSLESS, v_m=v_m).chi.max() < 1e-8
    for vm in v_m[v_m > 100.0]:
        assert key_rate_equivalent_fixed(replace(protocol, v_m=float(vm)), LOSSLESS).chi < 1e-8


@pytest.mark.parametrize("mean_eta, reconciliation", [(1.0, "rr"), (0.999, "rr"), (0.99, "rr"), (1.0, "dr")])
def test_near_pure_states_give_rates(mean_eta, reconciliation):
    """Coherent points at 300 log-spaced v_m in [1e2, 1e5] behind <eta> near 1
    with eps2 = 0.  Rounding moves such a near-pure state's nu^2 by about
    eps (tr gamma)^2, far more than NU_TOL, so an absolute nu >= 1 - NU_TOL
    check raised at up to 95 of these points; every one gives a rate, on both
    routes.  At <eta> = 1, where chi is exactly 0, the chi that rounding leaves
    stays below g(1 + nu_rounding(tr gamma)) per mode (it reached 3.3e-5 bits)."""
    protocol = ProtocolParams(reconciliation=reconciliation)
    chan = fixed_channel(mean_eta)
    v_m = np.geomspace(1e2, 1e5, 300)
    rates = key_rates(protocol, chan, v_m=v_m)
    assert np.isfinite(rates.rate_asymptotic).all()
    for k in range(0, 300, 10):
        oracle = key_rate_equivalent_fixed(replace(protocol, v_m=float(v_m[k])), chan)
        assert oracle.chi == pytest.approx(rates.chi[k], abs=1e-9)
    if mean_eta == 1.0:
        state = apply_composite_stack(build_source_stack(protocol, np.ones(300), v_m), (chan,))
        rounding = 2 * entropy_g(1.0 + nu_rounding(np.trace(state, axis1=1, axis2=2)))
        assert (rates.chi <= rounding).all()


def test_planted_negative_holevo_raises_on_both_routes(monkeypatch):
    """A chi of -1e-6 on an ordinary state lies far below the rounding bound."""
    import scipy.optimize

    from cvfade.gaussian import CovarianceMatrix

    nu = scipy.optimize.brentq(lambda x: entropy_g(x) - 1e-6, 1.0, 1.01, xtol=1e-15)
    planted = nu * np.eye(2)  # one thermal mode of entropy 1e-6 bits, in place of the conditioned state
    protocol = ProtocolParams(v_m=10.0)
    assert key_rate(protocol, LOSSLESS).chi == key_rate_equivalent_fixed(protocol, LOSSLESS).chi == 0.0
    monkeypatch.setattr(keyrate, "_condition_on_x", lambda stack, mode: np.broadcast_to(planted, (len(stack), 2, 2)))
    monkeypatch.setattr(keyrate, "condition_on_homodyne", lambda gamma, mode: CovarianceMatrix(planted))
    for route in (key_rate, key_rate_equivalent_fixed):
        with pytest.raises(InternalError, match=r"^Holevo bound came out \S+ < -1e-09$") as raised:
            route(protocol, LOSSLESS)
        assert float(str(raised.value).split()[4]) == pytest.approx(-1e-6, rel=1e-6)


# --- the batched kernel against the CovarianceMatrix route -------------------

FIELDS = ("i_ab", "chi", "rate_asymptotic", "rate_finite")
FINITE_CHOICES = (None, FiniteSizeParams(n=1e6), FiniteSizeParams(n=1e8, eps_bar=1e-8, key_fraction=0.8))


def bits(x):
    """Exact bit pattern of a float (None passes through)."""
    return None if x is None else float(x).hex()


def fading_channel(mean_eta, var_fraction, **kw):
    """Channel with Var(sqrt(eta)) a fraction of its largest value <eta>(1 - <eta>)."""
    var = var_fraction * mean_eta * (1.0 - mean_eta)
    return CompositeChannel(fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)), **kw)


@st.composite
def channels(draw, mean_eta=st.floats(0.05, 1.0)):
    return fading_channel(
        draw(mean_eta), draw(st.floats(0.0, 0.9)),
        eta1=draw(st.floats(0.3, 1.0)), eps1=draw(st.floats(0.0, 0.03)),
        eps2=draw(st.floats(0.0, 0.05)), eps_atm=draw(st.floats(0.0, 0.03)),
    )


@st.composite
def protocols(draw):
    kw = dict(
        reconciliation=draw(st.sampled_from(["dr", "rr"])),
        beta=draw(st.floats(0.5, 1.0)),
        sifting=draw(st.sampled_from([1.0, 0.9, 0.5])),
    )
    if draw(st.booleans()):
        return ProtocolParams(v_s=1.0, v_m=1.0, b=1, **kw)
    return ProtocolParams(
        v_s=0.5, v_m=1.0, b=0, v_an=draw(st.sampled_from([0.0, 0.4, 2.0])),
        prep_noise_trust=draw(st.sampled_from(["trusted", "untrusted"])), **kw,
    )


@st.composite
def batches(draw):
    """(protocol, finite, v_s, v_m, channels): the first points hold v_m = 0 and
    v_m > 0, and mean transmittances below and above 1/2, in a drawn order."""
    protocol = draw(protocols())
    n = draw(st.integers(4, 12))
    v_m = [0.0, draw(st.floats(0.1, 50.0))] + draw(st.lists(st.floats(0.0, 50.0), min_size=n - 2, max_size=n - 2))
    chans = [
        draw(channels(st.floats(0.05, 0.5))),  # mean transmittance <= 1/2
        CompositeChannel(fading=fixed_fading(draw(st.floats(0.55, 1.0)))),
    ] + draw(st.lists(channels(), min_size=n - 2, max_size=n - 2))
    v_s = [1.0] * n if protocol.is_coherent else draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return (protocol, draw(st.sampled_from(FINITE_CHOICES)),
            [v_s[k] for k in order], [v_m[k] for k in order], [chans[k] for k in order])


def single_state(protocol, chan, finite=None):
    """The key rate one CovarianceMatrix at a time through the composite channel map.

    Shares only the channel map with key_rates: spectra, conditionings and
    entropies come from the gaussian module.  The channel map itself is
    checked against the equivalent fixed channel (key_rate_equivalent_fixed).
    """
    state = apply_composite(build_source(protocol), chan)
    i_ab = protocol.sifting * mutual_information(state, protocol)
    holevo = holevo_rr(state) if protocol.reconciliation == "rr" else holevo_dr(state, protocol)
    chi = protocol.sifting * holevo
    rate_finite = None
    if finite is not None:
        delta = finite_size_penalty(finite.n, finite.eps_bar)
        rate_finite = finite.key_fraction * (protocol.beta * i_ab - chi - delta)
    return {"i_ab": i_ab, "chi": chi, "rate_asymptotic": protocol.beta * i_ab - chi, "rate_finite": rate_finite}


def assert_matches_oracles(got, protocol, chan, finite=None):
    """Within 1e-12 bits of the single-state route and 1e-9 of the equivalent fixed channel.

    The equivalent fixed channel rounds differently (its cross factor is
    sqrt(eta_comb (<eta> - Var(sqrt(eta)))), not sqrt(eta_comb) <sqrt(eta)>),
    and near-pure states amplify that through g(nu) near nu = 1: over 3000
    random fixed and fading channels with v_m up to 1e3 the two differ by up
    to 8e-12 bits.
    """
    reference = single_state(protocol, chan, finite)
    equivalent = key_rate_equivalent_fixed(protocol, chan, finite)
    for field in FIELDS:
        if finite is None and field == "rate_finite":
            assert got.rate_finite is None and equivalent.rate_finite is None
            continue
        value = getattr(got, field)
        assert abs(value - reference[field]) <= 1e-12, field
        assert abs(value - getattr(equivalent, field)) <= 1e-9, field
    assert got.diagnostics["flags"] == equivalent.diagnostics["flags"]


@settings(max_examples=80, deadline=None)
@given(batch=batches())
def test_kernel_matches_oracle_and_batch_of_one(batch):
    protocol, finite, v_s, v_m, chans = batch
    rates = key_rates(protocol, chans, finite, v_s=v_s, v_m=v_m)
    assert any(ch.mean_transmittance <= 0.5 for ch in chans) and any(ch.mean_transmittance > 0.5 for ch in chans)
    for k, chan in enumerate(chans):
        point = replace(protocol, v_s=v_s[k], v_m=v_m[k])
        got = rates.result(k)
        assert_matches_oracles(got, point, chan, finite)
        one = key_rate(point, chan, finite)
        assert [bits(getattr(got, f)) for f in FIELDS] == [bits(getattr(one, f)) for f in FIELDS]
        assert got.diagnostics == one.diagnostics
        if v_m[k] == 0.0:
            assert got.i_ab == 0.0


def test_batch_inputs_broadcast():
    p = ProtocolParams(v_s=0.4, v_m=3.0, b=0)
    chan = fixed_channel(0.6, eps2=0.01)
    rates = key_rates(p, chan, FiniteSizeParams(n=1e6), v_m=[0.0, 3.0, 7.0])
    assert rates.rate_asymptotic.shape == (3,)
    assert bits(rates.result(1).rate_finite) == bits(key_rate(p, chan, FiniteSizeParams(n=1e6)).rate_finite)
    with pytest.raises(DomainError):
        key_rates(p, [chan, chan], None, v_m=[1.0, 2.0, 3.0])


# --- extreme inputs -----------------------------------------------------------

V_S_CAP = variance_from_db(-10.0)
EXTREME_PROTOCOLS = [ProtocolParams(v_s=1.0, b=1, reconciliation=r, beta=0.95) for r in ("dr", "rr")] + [
    ProtocolParams(v_s=V_S_CAP, b=0, reconciliation=r, v_an=v_an, prep_noise_trust=trust, beta=0.95)
    for r in ("dr", "rr")
    for v_an, trust in ((0.0, "trusted"), (1.0, "trusted"), (1.0, "untrusted"), (1e-9, "trusted"), (1e-9, "untrusted"))
]
EXTREME_CHANNELS = [
    CompositeChannel(fading=fixed_fading(eta), eps2=eps)
    for eta in (1e-6, 0.3, 0.5, 1.0 - 1e-9, 1.0)  # 0.3: direct reconciliation below 1/2; 1.0, 0.0: lossless, noiseless
    for eps in (0.0, 0.01)
] + [fading_channel(0.5, 0.04, eps2=eps) for eps in (0.0, 0.01)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except CvfadeError as exc:
        return type(exc)


def protocol_id(p):
    return f"b{p.b}-{p.reconciliation}-van{p.v_an:g}-{p.prep_noise_trust}"


@pytest.mark.parametrize("protocol", EXTREME_PROTOCOLS, ids=protocol_id)
def test_extreme_inputs_agree_with_oracle(protocol):
    v_m = [0.0, 10.0, 1e3]
    for chan in EXTREME_CHANNELS:
        rates = outcome(key_rates, protocol, [chan], None, protocol.v_s, v_m)
        for k, vm in enumerate(v_m):
            point = replace(protocol, v_m=vm)
            reference = outcome(single_state, point, chan)
            one = outcome(key_rate, point, chan)
            if isinstance(reference, type):
                assert one is reference and isinstance(rates, type)
                continue
            got = rates.result(k)
            assert_matches_oracles(got, point, chan)
            assert [bits(getattr(got, f)) for f in FIELDS] == [bits(getattr(one, f)) for f in FIELDS]


# --- a 40-digit reference up to gaussian.TRACE_MAX ----------------------------

U = 2.0**-53
SPLITTER = ((1, 0, 1, 0), (0, 1, 0, 1), (-1, 0, 1, 0), (0, -1, 0, 1))  # times 1/sqrt(2)


def mp_embed(gamma, size, rows):
    """gamma on the given rows and columns of a size x size identity: vacuum modes elsewhere."""
    out = mpmath.eye(size)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            out[a, b] = gamma[i, j]
    return out


def mp_source(p):
    """build_source's state from the float inputs: a two-mode squeezed vacuum,
    for b = 0 the squeezer sqrt(V_s (V_s + V_m)) on the signal, then V_an on the
    signal's P, added directly (untrusted) or through a QND gain sqrt(V_an) from
    a vacuum ancilla in the middle (trusted)."""
    v_s, v_m, v_an = mpmath.mpf(p.v_s), mpmath.mpf(p.v_m), mpmath.mpf(p.v_an)
    mu = v_m + 1 if p.is_coherent else mpmath.sqrt(1 + v_m / v_s)
    c = mpmath.sqrt(mu * mu - 1)
    r = mpmath.mpf(1) if p.is_coherent else mpmath.sqrt(mpmath.sqrt(v_s * (v_s + v_m)))  # signal X times r, P over r
    gamma = mpmath.matrix([[mu, 0, c * r, 0], [0, mu, 0, -c / r], [c * r, 0, mu * r * r, 0], [0, -c / r, 0, mu / (r * r)]])
    if v_an == 0:
        return gamma
    if p.prep_noise_trust == "untrusted":
        gamma[3, 3] += v_an
        return gamma
    qnd = mpmath.eye(6)
    qnd[5, 2] = qnd[3, 4] = mpmath.sqrt(v_an)
    return qnd * mp_embed(gamma, 6, (0, 1, 4, 5)) * qnd.T


def mp_channel(gamma, ch):
    """The composite channel: signal block eta_comb <eta> (gamma_B - 1) + (1 + eps_plus) 1,
    each cross block times sqrt(eta_comb) <sqrt(eta)>."""
    eta1, eta2, mean_eta = mpmath.mpf(ch.eta1), mpmath.mpf(ch.eta2), mpmath.mpf(ch.fading.mean_eta)
    eps_plus = mpmath.mpf(ch.eps2) + mpmath.mpf(ch.eps_atm) * eta2 + mpmath.mpf(ch.eps1) * eta2 * mean_eta
    cross = mpmath.sqrt(eta1 * eta2) * mpmath.mpf(ch.fading.mean_sqrt_eta)
    d = gamma.rows
    out = gamma.copy()
    for i in range(d):
        for j in range(d):
            if min(i, j) >= d - 2:
                out[i, j] = eta1 * eta2 * mean_eta * (gamma[i, j] - (i == j)) + (1 + eps_plus) * (i == j)
            elif max(i, j) >= d - 2:
                out[i, j] *= cross
    return out


def mp_given_x(gamma, mode):
    """The other modes after an X homodyne on `mode` (Schur complement)."""
    i = 2 * mode
    keep = [k for k in range(gamma.rows) if k // 2 != mode]
    return mpmath.matrix([[gamma[a, b] - gamma[a, i] * gamma[i, b] / gamma[i, i] for b in keep] for a in keep])


def mp_given_sender_x(gamma, coherent):
    """After the sender's X data: an X homodyne on mode 0, for b = 1 on one
    output of a balanced splitter that mixes mode 0 with a vacuum."""
    if coherent:
        d = gamma.rows + 2
        split = mp_embed(mpmath.matrix(SPLITTER) / mpmath.sqrt(2), d, range(4))
        gamma = split * mp_embed(gamma, d, (0, 1, *range(4, d))) * split.T
    return mp_given_x(gamma, 0)


def mp_entropy(gamma):
    """Sum of g(nu) in bits over the spectrum nu = |eig(i Omega gamma)|, each +-nu pair once."""
    m = gamma.rows // 2
    omega = mpmath.zeros(2 * m)
    for k in range(m):
        omega[2 * k, 2 * k + 1], omega[2 * k + 1, 2 * k] = 1, -1
    nus = sorted(abs(e) for e in mpmath.eig(1j * omega * gamma, left=False, right=False))[::2]
    return sum((nu + 1) / 2 * mpmath.log((nu + 1) / 2, 2) - (nu - 1) / 2 * mpmath.log((nu - 1) / 2, 2)
               for nu in nus if nu > 1)


def reference_errors(protocol, chan, got):
    """|got - reference| in bits of I_AB, chi and rate_asymptotic, and tr gamma,
    with the reference state and entropies at 40 digits from the float inputs."""
    with mpmath.workdps(40):
        gamma = mp_channel(mp_source(protocol), chan)
        d = gamma.rows
        given_a = mp_given_sender_x(gamma, protocol.is_coherent)
        i_ab = mpmath.log(gamma[d - 2, d - 2] / given_a[given_a.rows - 2, given_a.rows - 2], 2) / 2
        conditioned = mp_given_x(gamma, d // 2 - 1) if protocol.reconciliation == "rr" else given_a
        chi = max(mp_entropy(gamma) - mp_entropy(conditioned), 0)
        reference = {"i_ab": i_ab, "chi": chi, "rate_asymptotic": protocol.beta * i_ab - chi}
        errors = {name: float(abs(mpmath.mpf(getattr(got, name)) - value)) for name, value in reference.items()}
        return errors, float(sum(gamma[k, k] for k in range(d)))


# 10x the largest error measured on the cases below that stay within it:
# 247 u tr(gamma), in chi, squeezed DR with v_an = 1e-9 on the near-lossless channel at v_m = 1e3
ORACLE_C = 2500
ORACLE_CHANNELS = {
    "lossless": CompositeChannel(fading=fixed_fading(1.0)),
    "near_lossless": CompositeChannel(fading=fixed_fading(1.0 - 1e-9)),
    "fading": fading_channel(0.5, 0.04, eps2=0.01),
}
# the cases past ORACLE_C u tr(gamma), with their measured error in chi, bits: near-pure
# coherent states, whose conditioned spectrum rounds by about u (tr gamma)^2, not u tr(gamma)
ORACLE_EXCEEDED = {
    "b1-dr-van0-trusted-lossless-vm100000": 3.12e-5,
    "b1-rr-van0-trusted-lossless-vm100000": 3.33e-5,
    "b1-dr-van0-trusted-near_lossless-vm1000": 1.62e-9,
    "b1-rr-van0-trusted-near_lossless-vm1000": 2.35e-9,
    "b1-dr-van0-trusted-near_lossless-vm100000": 1.25e-5,
    "b1-rr-van0-trusted-near_lossless-vm100000": 2.90e-6,
}


def oracle_cases():
    for protocol in EXTREME_PROTOCOLS:
        for name, chan in ORACLE_CHANNELS.items():
            for v_m in (10.0, 1e3, 1e5):
                case = f"{protocol_id(protocol)}-{name}-vm{v_m:g}"
                marks = ()
                if case in ORACLE_EXCEEDED:
                    marks = pytest.mark.xfail(strict=True, reason=f"chi is {ORACLE_EXCEEDED[case]:.3g} bits off")
                yield pytest.param(replace(protocol, v_m=v_m), chan, key_rate, id=case, marks=marks)
    # the oracle route where gaussian.condition_on_homodyne's Schur complement,
    # unless symmetrized, fails CovarianceMatrix's symmetry check
    for protocol in EXTREME_PROTOCOLS:
        if protocol.b == 0 and protocol.v_an == 1.0 and protocol.prep_noise_trust == "trusted":
            case = f"equivalent_fixed-{protocol_id(protocol)}-near_lossless-vm100000"
            yield pytest.param(replace(protocol, v_m=1e5), ORACLE_CHANNELS["near_lossless"], key_rate_equivalent_fixed,
                               id=case)


@pytest.mark.parametrize("point,chan,route", oracle_cases())
def test_kernel_within_rounding_of_40_digit_reference(point, chan, route):
    """key_rate (and key_rate_equivalent_fixed where its id says so) within
    ORACLE_C u tr(gamma) bits of the reference in I_AB, chi and the rate, for
    v_m up to 1e5, where tr(gamma) nears gaussian.TRACE_MAX."""
    errors, trace = reference_errors(point, chan, route(point, chan))
    for name, error in errors.items():
        assert error <= ORACLE_C * U * trace, name


def impossible_moments(mean_eta=0.05, mean_sqrt_eta=0.999):
    """A channel with unchecked moments: by default its states are not positive definite."""
    bad = FadingStats.__new__(FadingStats)
    object.__setattr__(bad, "mean_eta", mean_eta)
    object.__setattr__(bad, "mean_sqrt_eta", mean_sqrt_eta)
    return CompositeChannel(fading=bad)


@pytest.mark.parametrize("family", ["coherent", "squeezed"])
def test_failing_point_raises_its_error_from_any_batch(family, monkeypatch):
    protocol = ProtocolParams(v_s=1.0, v_m=5.0, b=1 if family == "coherent" else 0, reconciliation="dr")
    good = [CompositeChannel(fading=fixed_fading(eta), eps2=0.01) for eta in (1e-6, 0.3, 1.0 - 1e-9)]
    bad = impossible_moments()
    with pytest.raises(NonPhysicalState):
        apply_composite(build_source(protocol), bad)  # the single-state channel map
    with pytest.raises(NonPhysicalState):
        key_rate(protocol, bad)
    for position in range(4):
        chans = good[:position] + [bad] + good[position:]
        with pytest.raises(NonPhysicalState):
            key_rates(protocol, chans, None, v_m=[1e3, 1e3, 1e3, 1e3])
    # several failing points: the lowest one decides, as a point-by-point loop would
    with pytest.raises(DomainError):
        key_rates(protocol, [good[0], bad, good[1]], None, v_m=[-1.0, 5.0, 5.0])
    with pytest.raises(NonPhysicalState):
        key_rates(protocol, [good[0], bad, good[1]], None, v_m=[5.0, 5.0, math.nan])
    with pytest.raises(DomainError):
        key_rates(protocol, good, None, v_m=[5.0, math.inf, 5.0])

    # points failing at different stages, in every order: the batch raises the
    # lowest failing point's own error, type and message, as key_rate does:
    # domain, non-finite, a state too large to resolve, Cholesky, nu < 1
    # (<sqrt(eta)>^2 one percent above <eta>), and V_B|A <= 0, which no state
    # below TRACE_MAX reaches, so it is planted at the points with v_m = 6
    planted_mu = build_source(replace(protocol, v_m=6.0)).matrix[0, 0]
    real = keyrate._receiver_variance_given_sender
    monkeypatch.setattr(keyrate, "_receiver_variance_given_sender",
                        lambda state, coherent: np.where(state[:, 0, 0] == planted_mu, -1.0, real(state, coherent)))
    failing = [(good[0], -1.0), (good[1], math.nan), (fixed_channel(0.5, eps2=0.01), 1e15), (bad, 5.0),
               (impossible_moments(0.5, 1.01 * math.sqrt(0.5)), 5.0), (good[2], 6.0)]
    points = [(good[1], 5.0)] + failing

    def error(call):
        with pytest.raises(CvfadeError) as info:
            call()
        return type(info.value), str(info.value)

    alone = [error(lambda: key_rate(replace(protocol, v_m=v_m), chan)) for chan, v_m in points[1:]]
    assert [kind for kind, _ in alone] == [DomainError, DomainError, NumericalFailure, NonPhysicalState, NonPhysicalState,
                                           DegenerateInput]
    assert len(set(alone)) == len(failing)
    for size in (2, 3, len(points)):
        for batch in itertools.permutations(range(len(points)), size):
            lowest = next(k for k in batch if k > 0)
            got = error(lambda: key_rates(protocol, [points[k][0] for k in batch], None,
                                          v_m=[points[k][1] for k in batch]))
            assert got == alone[lowest - 1]


@pytest.mark.parametrize("family", ["coherent", "squeezed"])
def test_planted_degenerate_conditional_variance_raises_on_both_routes(monkeypatch, family):
    """A V_B|A of -1, which no physical state reaches, raises DegenerateInput."""
    from cvfade.gaussian import CovarianceMatrix

    protocol = ProtocolParams(v_m=10.0, b=1 if family == "coherent" else 0)
    planted = CovarianceMatrix(np.diag([-1.0, 1.0]))  # the receiver's mode given the sender's X record
    monkeypatch.setattr(keyrate, "_receiver_variance_given_sender", lambda state, coherent: np.full(len(state), -1.0))
    monkeypatch.setattr(keyrate, "condition_on_homodyne", lambda gamma, mode: planted)
    for route in (key_rate, key_rate_equivalent_fixed):
        with pytest.raises(DegenerateInput, match=r"^conditional variance -1\.0 <= 0$"):
            route(protocol, LOSSLESS)


# States whose spectrum rounding, not their physics, would decide the checks:
# squeezed at -10 dB with v_m = 1e6 on a lossless channel (its min nu came out
# 0.999999998719, below 1 - NU_TOL), and a squeezed RR point whose chi came out
# exactly 0, and its rate +2.68 bits, at every v_m from 1e35 to 1e150.
UNRESOLVED = {
    "lossless_vm_1e6": (ProtocolParams(v_s=variance_from_db(-10.0), v_m=1e6, b=0), fixed_channel(1.0)),
    **{f"rr_vm_{v_m:g}": (ProtocolParams(v_s=0.1, v_m=v_m, b=0, v_an=0.5, prep_noise_trust="untrusted", beta=0.95),
                          CompositeChannel(fading=FadingStats(0.5, math.sqrt(0.5 - 0.01)), eps2=0.01))
       for v_m in (1e35, 1e150)},
}


@pytest.mark.parametrize("route", [key_rate, key_rate_equivalent_fixed])
@pytest.mark.parametrize("name", sorted(UNRESOLVED))
def test_unresolved_spectrum_raises_numerical_failure(name, route):
    protocol, chan = UNRESOLVED[name]
    with pytest.raises(NumericalFailure, match="symplectic spectrum not resolved: tr gamma = "):
        route(protocol, chan)


# --- physical upper bound -----------------------------------------------------

@pytest.mark.parametrize("protocol", EXTREME_PROTOCOLS,
                         ids=lambda p: f"b{p.b}-{p.reconciliation}-van{p.v_an:g}-{p.prep_noise_trust}")
def test_rates_respect_plob_bound(protocol):
    """R <= -log2(1 - eta) on fixed channels (Pirandola et al., Nat. Commun. 8, 15043 (2017))."""
    rng = np.random.default_rng(15043)
    n = 3000
    chans = [
        CompositeChannel(fading=fixed_fading(float(eta)), eta1=float(eta1), eta2=float(eta2),
                         eps1=float(e1), eps2=float(e2), eps_atm=float(ea))
        for eta, eta1, eta2, e1, e2, ea in zip(
            rng.uniform(1e-4, 1.0 - 1e-6, n), rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n),
            rng.uniform(0.0, 0.03, n), rng.uniform(0.0, 0.05, n), rng.uniform(0.0, 0.03, n))
    ]
    v_s = 1.0 if protocol.is_coherent else rng.uniform(V_S_CAP, 1.0, n)
    rates = key_rates(replace(protocol, beta=1.0), chans, None, v_s=v_s, v_m=rng.uniform(0.0, 100.0, n))
    plob = -np.log2(1.0 - np.array([ch.mean_transmittance for ch in chans]))
    assert np.max(rates.rate_asymptotic - plob) < 0.0


@pytest.mark.parametrize("protocol", EXTREME_PROTOCOLS,
                         ids=lambda p: f"b{p.b}-{p.reconciliation}-van{p.v_an:g}-{p.prep_noise_trust}")
def test_equivalent_fixed_oracle_on_noiseless_half_channel(protocol):
    """sqrt(0.5)^2 rounds one ulp above 0.5; the oracle must still run at <eta> = 0.5.

    Near-pure states amplify a one-ulp transmittance error through g(nu) near
    nu = 1 (5e-12 bits of chi when the oracle used <sqrt(eta)>^2).
    """
    chan = fixed_channel(0.5)
    assert chan.fading.mean_sqrt_eta**2 > chan.fading.mean_eta
    for v_m in np.geomspace(1.0, 1e3, 31):
        point = replace(protocol, v_m=float(v_m))
        got, oracle = key_rate(point, chan), key_rate_equivalent_fixed(point, chan)
        assert abs(got.chi - oracle.chi) <= 1e-12
        assert abs(got.rate_asymptotic - oracle.rate_asymptotic) <= 1e-12


POLICY_PROTOCOLS = [
    ProtocolParams(v_s=1.0, v_m=4.0, b=1, beta=0.95),
    ProtocolParams(v_s=1.0, v_m=4.0, b=1, beta=0.9, reconciliation="dr", sifting=0.5),
    ProtocolParams(v_s=0.4, v_m=6.0, b=0, beta=0.95, sifting=0.75),
    ProtocolParams(v_s=0.4, v_m=6.0, b=0, beta=0.9, reconciliation="dr", v_an=0.5, prep_noise_trust="untrusted"),
]
POLICY_FINITE = [None, FiniteSizeParams(n=1e6), FiniteSizeParams(n=1e8, eps_bar=1e-6, key_fraction=0.7)]


@pytest.mark.parametrize("mean_eta", [0.4, 0.5, 0.8])
@pytest.mark.parametrize("finite", POLICY_FINITE, ids=["asymptotic", "n1e6", "n1e8-kf0.7"])
@pytest.mark.parametrize("protocol", POLICY_PROTOCOLS,
                         ids=lambda p: f"b{p.b}-{p.reconciliation}-sift{p.sifting:g}")
def test_equivalent_fixed_applies_the_rate_policy_of_key_rate(protocol, finite, mean_eta):
    """The oracle turns its own I_AB and chi into rates exactly as key_rate does:
    sifting, the finite-size rate and block, and the flag of DR at <eta> <= 1/2."""
    chan = CompositeChannel(fading=FadingStats(mean_eta, math.sqrt(mean_eta - 0.01)), eps2=0.01)
    got, oracle = key_rate(protocol, chan, finite), key_rate_equivalent_fixed(protocol, chan, finite)
    low = protocol.reconciliation == "dr" and mean_eta <= 0.5
    assert got.diagnostics == oracle.diagnostics == {
        "beta": protocol.beta, "flags": ["dr_low_transmittance"] if low else []}
    for result in (got, oracle):
        if finite is None:
            assert result.rate_finite is None
        else:
            delta = finite_size_penalty(finite.n, finite.eps_bar)
            assert result.rate_finite == finite.key_fraction * (result.rate_asymptotic - delta)
    for name in ("i_ab", "chi", "rate_asymptotic"):
        assert getattr(oracle, name) == pytest.approx(getattr(got, name), abs=1e-9)


def sample_set_channels(rng, n):
    """n channels built from random transmittance sample sets in [0, 0.999],
    with the sample-averaged fading PLOB bound <-log2(1 - eta1 eta2 eta)> of each.

    Every other channel has zero excess noise; shapes run from near-constant
    to strongly bimodal sample sets.
    """
    chans, bounds = [], []
    for k in range(n):
        samples = 0.999 * rng.beta(*rng.uniform(0.2, 8.0, 2), size=rng.integers(1, 80))
        eta1, eta2 = rng.uniform(0.2, 1.0, 2)
        eps1, eps2, eps_atm = rng.uniform(0.0, 0.03, 3) if k % 2 else (0.0, 0.0, 0.0)
        chans.append(CompositeChannel(fading=fading_stats(samples), eta1=eta1, eta2=eta2,
                                      eps1=eps1, eps2=eps2, eps_atm=eps_atm))
        bounds.append(float(np.mean(-np.log2(1.0 - eta1 * eta2 * samples))))
    return chans, np.array(bounds)


@pytest.mark.parametrize("protocol", EXTREME_PROTOCOLS,
                         ids=lambda p: f"b{p.b}-{p.reconciliation}-van{p.v_an:g}-{p.prep_noise_trust}")
def test_fading_rates_respect_sample_averaged_plob_bound(protocol):
    """R <= <-log2(1 - eta1 eta2 eta)> over the samples on fading channels
    (Pirandola, Phys. Rev. Research 3, 013279 (2021))."""
    rng = np.random.default_rng(13279)
    n = 400
    chans, bounds = sample_set_channels(rng, n)
    v_s = 1.0 if protocol.is_coherent else rng.uniform(V_S_CAP, 1.0, n)
    rates = key_rates(replace(protocol, beta=1.0), chans, None, v_s=v_s, v_m=10.0 ** rng.uniform(-1.0, 3.0, n))
    assert np.max(rates.rate_asymptotic - bounds) < 0.0


def test_samples_file_rates_respect_sample_averaged_plob_bound(tmp_path):
    """The fading PLOB bound through a samples_file written by render_csv and
    read back by read_eta_csv, for every family and reconciliation."""
    samples = 0.999 * np.random.default_rng(3279).beta(0.6, 0.9, size=5000)
    path = tmp_path / "etas.csv"
    write_text(path, render_csv({"seed": 0}, ["eta"], [samples]))
    protocols = [
        {"label": f"{family}_{rec}", "family": family, "reconciliation": rec, "beta": 1.0,
         "v_m": 20.0, **({"v_s": V_S_CAP} if family == "squeezed" else {})}
        for family in ("coherent", "squeezed") for rec in ("dr", "rr")
    ]
    eta1, eta2 = 0.9, 0.8
    for noise in ({}, {"eps1": 0.01, "eps2": 0.02, "eps_atm": 0.01}):
        doc = {"protocols": protocols,
               "channel": {"eta1": eta1, "eta2": eta2, "fading": {"samples_file": str(path)}, **noise}}
        scenario = tmp_path / "samples.scenario"
        scenario.write_text(json.dumps(doc))
        config = load_scenario(scenario)
        stats = resolve_fading(config)
        assert stats == fading_stats(samples)
        chan = build_channel(config, stats)
        bound = float(np.mean(-np.log2(1.0 - eta1 * eta2 * samples)))
        for variant in config.variants:
            rates = key_rates(variant.params, [chan], None, v_m=np.geomspace(0.5, 100.0, 40))
            assert np.max(rates.rate_asymptotic) < bound, variant.label


def beam_links():
    """(config, channel, PLOB bound) on every geometry the shipped beam
    scenarios reach: each fig3 distance, and the 2.2 km `daily` link at every
    hour of the synthetic Cn^2 series.  The bound <-log2(1 - eta_comb eta)> is
    averaged over the quadrature rule that gives the channel its moments."""
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    fig3 = load_scenario(scenarios / "fig3.scenario")
    overrides = [(fig3, {"distance": d}) for d in sweep_values(fig3.sweep)]
    for name in ("fig2b_caption.scenario", "fig2b_text.scenario"):
        daily = load_scenario(scenarios / name)
        overrides += [(daily, {"cn2": c}) for c in read_cn2_csv(scenarios / "prague-like.csv").cn2]
    for config, override in overrides:
        chan = build_channel(config, resolve_fading(config, **override))
        eta, weights = _transmittance_rule(beam_scenario(config, **override))
        yield config, chan, float(np.average(-np.log2(1.0 - chan.eta_comb * eta), weights=weights))


def test_optimized_beam_rates_respect_quadrature_plob_bound():
    """Optimized rate_asymptotic at beta = 1 stays below the fading PLOB bound
    on the beam links of the shipped scenarios."""
    for config, chan, bound in beam_links():
        for variant in config.variants:
            out = optimize(variant.optimizer, replace(variant.params, beta=1.0), chan)
            assert out.rate < bound, (variant.label, chan)


NOISES = ("eps1", "eps2", "eps_atm")
NOISE_CLASSES = [ProtocolParams(v_s=1.0, b=1, reconciliation=r, beta=beta)
                 for r in ("dr", "rr") for beta in (0.95, 1.0)] + [
    ProtocolParams(v_s=0.5, b=0, reconciliation=r, beta=beta, v_an=v_an, prep_noise_trust=trust)
    for r in ("dr", "rr") for beta in (0.95, 1.0)
    for v_an, trust in ((0.0, "trusted"), (1.0, "trusted"), (1.0, "untrusted"))
]


@pytest.mark.parametrize("protocol", NOISE_CLASSES,
                         ids=lambda p: f"b{p.b}-{p.reconciliation}-beta{p.beta:g}-van{p.v_an:g}-{p.prep_noise_trust}")
def test_more_excess_noise_never_raises_the_rate(protocol):
    """eps1, eps2 and eps_atm enter only through eps_plus, and raising any of
    them never raises the rate, with fading or without.  (Raising eta1 at
    fixed V_s, V_m can lower an RR rate, so transmittance has no such test.)"""
    rng = np.random.default_rng(7)
    n = 300
    base, raised = [], []
    for k in range(n):
        noise = dict(zip(NOISES, rng.uniform(0.0, 0.05, 3)))
        chan = fading_channel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.9) * (k % 2),
                              eta1=rng.uniform(0.3, 1.0), eta2=rng.uniform(0.3, 1.0), **noise)
        which = NOISES[k % 3]
        base.append(chan)
        raised.append(replace(chan, **{which: noise[which] + rng.uniform(1e-4, 0.05)}))
    v_s = 1.0 if protocol.is_coherent else np.tile(rng.uniform(V_S_CAP, 1.0, n), 2)
    v_m = np.tile(rng.uniform(0.5, 50.0, n), 2)
    rates = key_rates(protocol, base + raised, FiniteSizeParams(n=1e8), v_s=v_s, v_m=v_m)
    for field in ("rate_asymptotic", "rate_finite"):
        values = getattr(rates, field)
        assert np.all(values[n:] <= values[:n]), field
