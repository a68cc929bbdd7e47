from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_physical_two_mode, random_symplectic_two_mode, rotation, two_mode_nu_closed_form
from cvfade.errors import DomainError, NonPhysicalState
from cvfade.gaussian import (
    CovarianceMatrix,
    apply_qnd,
    apply_squeezer,
    apply_symplectic,
    condition_on_heterodyne_record,
    condition_on_homodyne,
    entropy_g,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    tmsv,
    vacuum,
    von_neumann_entropy,
)


def test_symplectic_form_invariants():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))
        assert symplectic_form(n) is omega  # built once per mode count
        assert not omega.flags.writeable


class TestCovarianceMatrix:
    def test_rejects_odd_or_nonsquare(self):
        with pytest.raises(DomainError):
            CovarianceMatrix(np.eye(3))
        with pytest.raises(DomainError):
            CovarianceMatrix(np.ones((2, 4)))

    def test_rejects_asymmetric(self):
        m = np.eye(2)
        m[0, 1] = 1e-6
        with pytest.raises(DomainError):
            CovarianceMatrix(m)

    def test_immutable(self):
        v = vacuum(1)
        with pytest.raises(ValueError):
            v.matrix[0, 0] = 5.0

    def test_block_access(self):
        g = tmsv(2.0)
        assert np.allclose(g.mode_block(1), 2.0 * np.eye(2))
        assert np.allclose(g.cross_block(0, 1), np.sqrt(3.0) * np.diag([1.0, -1.0]))
        with pytest.raises(IndexError):
            g.mode_block(2)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(vacuum(1)) == [1.0]

    def test_tmsv_pure(self):
        assert symplectic_eigenvalues(tmsv(2.0)) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_lossy_tmsv_example(self):
        # TMSV mu=2 after eta=0.5 pure loss on one arm
        m = np.zeros((4, 4))
        m[:2, :2] = 2.0 * np.eye(2)
        m[2:, 2:] = 1.5 * np.eye(2)
        m[:2, 2:] = m[2:, :2] = np.sqrt(1.5) * np.diag([1.0, -1.0])
        nus = symplectic_eigenvalues(CovarianceMatrix(m))
        assert nus == pytest.approx([1.5, 1.0], abs=1e-12)

    def test_matches_closed_form_on_random_states(self, rng):
        for _ in range(1000):
            m, _ = random_physical_two_mode(rng)
            got = symplectic_eigenvalues(CovarianceMatrix(m))
            want = two_mode_nu_closed_form(m)
            assert got[0] == pytest.approx(want[0], rel=1e-9)
            assert got[1] == pytest.approx(max(want[1], 1.0), rel=1e-9)

    def test_nonphysical_raises(self):
        with pytest.raises(NonPhysicalState):
            symplectic_eigenvalues(CovarianceMatrix(0.5 * np.eye(2)))


class TestEntropyG:
    def test_pure(self):
        assert entropy_g(1.0) == 0.0

    def test_exact_value(self):
        assert entropy_g(3.0) == pytest.approx(2.0, abs=1e-12)

    def test_stated_value(self):
        assert entropy_g(1.5) == pytest.approx(0.90241, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_g(0.9)
        # inside clip tolerance: treated as pure
        assert entropy_g(1.0 - 5e-10) == 0.0

    def test_near_one_against_high_precision(self):
        getcontext().prec = 60
        ln2 = Decimal(2).ln()
        for k in range(1, 7):
            nu = 1.0 + 10.0 ** (-k)
            d = Decimal(nu)
            xp = (d + 1) / 2
            xm = (d - 1) / 2
            want = float((xp * xp.ln() - xm * xm.ln()) / ln2)
            assert entropy_g(nu) == pytest.approx(want, rel=1e-9)

    def test_monotone(self):
        nus = np.linspace(1.0, 20.0, 200)
        vals = [entropy_g(v) for v in nus]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestVonNeumannEntropy:
    def test_pure_states(self):
        assert von_neumann_entropy(tmsv(4.0)) == pytest.approx(0.0, abs=1e-9)

    def test_thermal(self):
        assert von_neumann_entropy(CovarianceMatrix(3.0 * np.eye(2))) == pytest.approx(2.0, abs=1e-12)

    def test_product_of_thermals(self):
        g = tensor(CovarianceMatrix(3.0 * np.eye(2)), CovarianceMatrix(1.5 * np.eye(2)))
        assert von_neumann_entropy(g) == pytest.approx(2.90241, abs=1e-5)

    def test_additive_over_tensor(self, rng):
        for _ in range(50):
            t1 = CovarianceMatrix(np.diag(np.repeat(1.0 + rng.exponential(2.0, 1), 2)))
            t2 = CovarianceMatrix(np.diag(np.repeat(1.0 + rng.exponential(2.0, 2), 2)))
            lhs = von_neumann_entropy(tensor(t1, t2))
            rhs = von_neumann_entropy(t1) + von_neumann_entropy(t2)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestConditioning:
    def test_homodyne_x_on_tmsv(self):
        out = condition_on_homodyne(tmsv(2.0), 1, "x")
        assert np.allclose(out.matrix, np.diag([0.5, 2.0]), atol=1e-12)

    def test_homodyne_p_on_tmsv(self):
        out = condition_on_homodyne(tmsv(2.0), 1, "p")
        assert np.allclose(out.matrix, np.diag([2.0, 0.5]), atol=1e-12)

    def test_homodyne_product_state_unchanged(self):
        g = tensor(CovarianceMatrix(np.diag([3.0, 3.0])), vacuum(1))
        out = condition_on_homodyne(g, 1, "x")
        assert np.allclose(out.matrix, np.diag([3.0, 3.0]), atol=1e-12)

    def test_heterodyne_uncorrelated_unchanged(self):
        g = tensor(CovarianceMatrix(np.diag([2.0, 2.0])), CovarianceMatrix(np.diag([4.0, 0.3])))
        for quadrature in ("x", "p"):
            out = condition_on_heterodyne_record(g, 0, quadrature)
            assert np.allclose(out.matrix, np.diag([4.0, 0.3]), atol=1e-12)

    def test_heterodyne_record_halfway(self):
        # conditioning on only the x record shrinks x but leaves p untouched
        out = condition_on_heterodyne_record(tmsv(4.0), 0, "x")
        assert out.variance(0, "x") == pytest.approx(1.0, abs=1e-12)
        assert out.variance(0, "p") == pytest.approx(4.0, abs=1e-12)

    def test_outputs_physical_and_phase_covariant(self, rng):
        for _ in range(100):
            m, _ = random_physical_two_mode(rng)
            g = CovarianceMatrix(m)
            cond = condition_on_homodyne(g, 1, "x")
            symplectic_eigenvalues(cond)  # raises if nonphysical
            cond_het = condition_on_heterodyne_record(g, 1, "x")
            symplectic_eigenvalues(cond_het)
            # rotating the unmeasured mode commutes with conditioning
            theta = rng.uniform(0, 2 * np.pi)
            r = np.eye(4)
            r[:2, :2] = rotation(theta)
            rotated = apply_symplectic(g, r)
            lhs = condition_on_homodyne(rotated, 1, "x").matrix
            rhs = rotation(theta) @ cond.matrix @ rotation(theta).T
            assert np.allclose(lhs, rhs, atol=1e-11)

    def test_single_mode_rejected(self):
        with pytest.raises(DomainError):
            condition_on_homodyne(vacuum(1), 0, "x")


class TestConstructors:
    def test_squeezed_vacuum(self):
        out = apply_squeezer(vacuum(1), 0, 0.5)
        assert np.allclose(out.matrix, np.diag([0.5, 2.0]), atol=1e-15)

    def test_tmsv_unit_mu_is_vacuum(self):
        assert np.array_equal(tmsv(1.0).matrix, np.eye(4))

    def test_tmsv_domain(self):
        with pytest.raises(DomainError):
            tmsv(0.99)
        with pytest.raises(DomainError):
            apply_squeezer(vacuum(1), 0, 0.0)

    def test_qnd_example(self):
        out = apply_qnd(vacuum(2), control_mode=0, target_mode=1, gain=1.0)
        assert out.variance(1, "p") == pytest.approx(2.0)
        assert out.variance(0, "x") == pytest.approx(1.0)
        assert symplectic_eigenvalues(out) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_qnd_is_symplectic(self):
        # conjugation by the QND matrix preserves the symplectic form
        g = 1.7
        s = np.eye(4)
        s[3, 0] = g
        s[1, 2] = g
        omega = symplectic_form(2)
        assert np.allclose(s @ omega @ s.T, omega, atol=1e-14)

    def test_tensor_partial_trace_roundtrip(self, rng):
        m, _ = random_physical_two_mode(rng)
        g = CovarianceMatrix(m)
        joined = tensor(g, vacuum(1))
        back = partial_trace(joined, [0, 1])
        assert np.allclose(back.matrix, g.matrix, atol=1e-15)

    def test_partial_trace_reorders(self):
        g = tensor(CovarianceMatrix(np.diag([2.0, 2.0])), vacuum(1))
        swapped = partial_trace(g, [1, 0])
        assert np.allclose(swapped.matrix, np.diag([1.0, 1.0, 2.0, 2.0]), atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_purity_preserved_under_random_symplectic(seed):
    rng = np.random.default_rng(seed)
    s = random_symplectic_two_mode(rng)
    mu = 1.0 + rng.exponential(1.5)
    nus = symplectic_eigenvalues(apply_symplectic(tmsv(mu), s))
    assert nus == pytest.approx([1.0, 1.0], rel=1e-7)
