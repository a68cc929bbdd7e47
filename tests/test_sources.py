import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvfade.errors import DomainError
from cvfade.gaussian import condition_on_homodyne, symplectic_eigenvalues, tmsv, von_neumann_entropy
from cvfade.sources import (
    ProtocolParams,
    build_source,
    variance_from_db,
    variance_to_db,
)


class TestProtocolParams:
    def test_coherent_requires_unit_vs(self):
        with pytest.raises(DomainError):
            ProtocolParams(v_s=0.5, v_m=1.0, b=1)

    def test_van_only_with_x_modulation(self):
        with pytest.raises(DomainError):
            ProtocolParams(v_s=1.0, v_m=1.0, b=1, v_an=0.2)

    def test_bounds(self):
        with pytest.raises(DomainError):
            ProtocolParams(v_s=0.0, v_m=1.0, b=0)
        with pytest.raises(DomainError):
            ProtocolParams(v_s=1.2, v_m=1.0, b=0)
        with pytest.raises(DomainError):
            ProtocolParams(v_s=0.5, v_m=-0.1, b=0)
        with pytest.raises(DomainError):
            ProtocolParams(v_s=0.5, v_m=1.0, b=0, beta=1.5)
        with pytest.raises(DomainError):
            ProtocolParams(v_s=0.5, v_m=1.0, b=0, reconciliation="xx")

    def test_signal_variances(self):
        p = ProtocolParams(v_s=0.5, v_m=1.5, b=0, v_an=0.3)
        assert p.signal_variances() == (2.0, 2.3)


def test_db_conversion_bit_exact():
    assert variance_from_db(-3.0) == 10.0 ** (-0.3)
    assert variance_from_db(0.0) == 1.0
    assert variance_to_db(0.5) == pytest.approx(-3.0103, abs=1e-4)
    with pytest.raises(DomainError):
        variance_to_db(0.0)


class TestBuildSource:
    def test_squeezed_example(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        assert src.n_modes == 2
        assert np.allclose(src.mode_block(1), 2.0 * np.eye(2), atol=1e-12)
        cond = condition_on_homodyne(src, 0, "x")
        assert cond.variance(0, "x") == pytest.approx(0.5, abs=1e-12)

    def test_coherent_example(self):
        src = build_source(ProtocolParams(v_s=1.0, v_m=3.0, b=1))
        assert np.allclose(src.matrix, tmsv(4.0).matrix, atol=1e-12)

    def test_trusted_prep_noise(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0, v_an=0.3))
        assert src.n_modes == 3
        assert np.allclose(src.mode_block(2), np.diag([2.0, 2.3]), atol=1e-12)
        assert symplectic_eigenvalues(src) == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_untrusted_prep_noise_is_impure(self):
        src = build_source(
            ProtocolParams(v_s=0.5, v_m=1.5, b=0, v_an=0.3, prep_noise_trust="untrusted")
        )
        assert src.n_modes == 2
        assert np.allclose(src.mode_block(1), np.diag([2.0, 2.3]), atol=1e-12)
        assert von_neumann_entropy(src) > 1e-3

    def test_no_modulation_is_product_state(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=0.0, b=0))
        assert np.allclose(src.cross_block(0, 1), np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(src.mode_block(1), np.diag([0.5, 2.0]), atol=1e-12)

    def test_trusted_noise_does_not_touch_x(self):
        base = build_source(ProtocolParams(v_s=0.3, v_m=2.0, b=0))
        noisy = build_source(ProtocolParams(v_s=0.3, v_m=2.0, b=0, v_an=1.7))
        b_base = base.mode_block(base.n_modes - 1)
        b_noisy = noisy.mode_block(noisy.n_modes - 1)
        assert b_noisy[0, 0] == pytest.approx(b_base[0, 0], abs=1e-12)
        assert b_noisy[1, 1] == pytest.approx(b_base[1, 1] + 1.7, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    v_s=st.floats(min_value=0.01, max_value=1.0),
    v_m=st.floats(min_value=0.0, max_value=100.0),
    v_an=st.floats(min_value=0.0, max_value=10.0),
)
def test_reduced_signal_identity(v_s, v_m, v_an):
    params = ProtocolParams(v_s=v_s, v_m=v_m, b=0, v_an=v_an)
    src = build_source(params)
    want = np.diag(params.signal_variances())
    assert np.allclose(src.mode_block(src.n_modes - 1), want, atol=1e-10)


def test_reduced_signal_identity_bulk(rng):
    # spec-level bulk check: 1e4 random draws, 1e-10 tolerance
    for _ in range(10_000):
        v_s = rng.uniform(0.01, 1.0)
        v_m = rng.uniform(0.0, 50.0)
        b = int(rng.integers(0, 2))
        if b == 1:
            params = ProtocolParams(v_s=1.0, v_m=v_m, b=1)
        else:
            params = ProtocolParams(v_s=v_s, v_m=v_m, b=0, v_an=rng.uniform(0.0, 5.0))
        src = build_source(params)
        want = np.diag(params.signal_variances())
        assert np.allclose(src.mode_block(src.n_modes - 1), want, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(v=st.floats(min_value=1.0, max_value=50.0))
def test_entanglement_based_link(v):
    # V_s = 1/V with V_m = V - 1/V reproduces the two-mode squeezed vacuum exactly
    params = ProtocolParams(v_s=1.0 / v, v_m=v - 1.0 / v, b=0)
    src = build_source(params)
    assert np.allclose(src.matrix, tmsv(v).matrix, atol=1e-10)


def test_families_share_reduced_signal_at_unit_vs():
    coherent = build_source(ProtocolParams(v_s=1.0, v_m=3.0, b=1))
    squeezed = build_source(ProtocolParams(v_s=1.0, v_m=3.0, b=0))
    # x statistics agree; they differ in the modulated p quadrature only
    assert coherent.variance(1, "x") == pytest.approx(squeezed.variance(1, "x"))
    assert coherent.variance(1, "p") == pytest.approx(4.0)
    assert squeezed.variance(1, "p") == pytest.approx(1.0)
