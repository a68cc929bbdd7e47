from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fixed_fading,
    random_physical_two_mode,
    random_symplectic_two_mode,
    rotation,
    two_mode_nu_closed_form,
)
from cvfade.channel import CompositeChannel, apply_composite
from cvfade.errors import DomainError, NonPhysicalState, NumericalFailure
from cvfade.gaussian import (
    TRACE_MAX,
    CovarianceMatrix,
    apply_qnd,
    apply_squeezer,
    apply_symplectic,
    condition_on_homodyne,
    entropy_g,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_spectra,
    tensor,
    tmsv,
    vacuum,
    von_neumann_entropy,
)
from cvfade.keyrate import _split_sender_mode
from cvfade.sources import ProtocolParams, build_source, variance_from_db


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
        g = tmsv(2.0).matrix
        assert np.allclose(g[2:, 2:], 2.0 * np.eye(2))
        assert np.allclose(g[:2, 2:], np.sqrt(3.0) * np.diag([1.0, -1.0]))


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

    def test_positive_definiteness_is_checked(self):
        for matrix in (-np.eye(2),  # det > 0, yet negative definite
                       np.diag([1e3, -1e-12, 1.0, 1.0])):  # only the unshifted factor fails
            with pytest.raises(NonPhysicalState, match="not positive definite"):
                symplectic_spectra(matrix[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_checked_first(self, bad):
        """A non-finite entry raises DomainError, also in a stack where a point
        before or after it is not positive definite."""
        broken = np.eye(4)
        broken[1, 3] = broken[3, 1] = bad
        for stack in ([np.eye(4), broken, -np.eye(4)], [-np.eye(4), np.eye(4), broken]):
            with pytest.raises(DomainError, match="entries must be finite"):
                symplectic_spectra(np.array(stack))

    def test_unresolvable_stack_is_checked_after_finite_entries(self):
        """A point with tr gamma >= TRACE_MAX raises NumericalFailure naming the
        first such point's trace, also when a later point is not positive
        definite; one just below the limit passes, and non-finite entries
        still come first."""
        below = np.nextafter(TRACE_MAX / 2, 0.0) * np.eye(2)
        at, far = TRACE_MAX / 2 * np.eye(2), 1e150 * np.eye(2)
        assert np.trace(below) < TRACE_MAX <= np.trace(at)
        assert symplectic_spectra(below[None])[0, 0] == below[0, 0]
        with pytest.raises(NumericalFailure, match=f"tr gamma = {TRACE_MAX:.6g} >= {TRACE_MAX:.6g}$"):
            symplectic_spectra(np.array([below, at, far, -np.eye(2)]))
        with pytest.raises(DomainError, match="entries must be finite"):
            symplectic_spectra(np.array([far, np.full((2, 2), np.nan)]))

    def test_stack_is_spectra_of_its_points(self):
        stack = np.array([tmsv(2.0).matrix, tensor(vacuum(1), CovarianceMatrix(3.0 * np.eye(2))).matrix])
        assert symplectic_spectra(stack) == pytest.approx(np.array([[1.0, 1.0], [3.0, 1.0]]), abs=1e-12)


# --- spectra against exact invariants -------------------------------------------

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _real_roots(coeffs, hi):
    """Ascending roots of a polynomial (coefficients highest first) whose roots are all real and in [0, hi]."""
    def value(x):
        v = Decimal(0)
        for c in coeffs:
            v = v * x + c
        return v

    degree = len(coeffs) - 1
    if degree == 1:
        return [-coeffs[1] / coeffs[0]]
    # the roots of the derivative separate those of the polynomial (Rolle)
    edges = [Decimal(0), *_real_roots([c * (degree - i) for i, c in enumerate(coeffs[:-1])], hi), hi]
    roots = []
    for a, b in zip(edges, edges[1:]):
        fa, fb = value(a), value(b)
        if fa * fb > 0:  # a multiple root, at a root of the derivative
            roots.append(a if abs(fa) < abs(fb) else b)
            continue
        while True:
            mid = (a + b) / 2
            fm = value(mid)
            if fm == 0 or mid in (a, b):
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(mid)
    return roots


def exact_symplectic_spectrum(matrix: np.ndarray) -> list[float]:
    """Symplectic spectrum of a float matrix from its exact invariants, descending.

    The entries are the exact rationals they are.  (Omega gamma)^2 has the
    eigenvalues -nu_j^2, each twice, so the power sums of x_j = nu_j^2 are
    (-1)^k tr((Omega gamma)^2k) / 2 (for one and two modes these are the
    determinant formulas).  Newton's identities turn them into prod (x - x_j),
    whose roots are bisected in 50-digit decimals.
    """
    g = [[Fraction(x) for x in row] for row in matrix.tolist()]
    m = len(g) // 2
    omega = [[Fraction(x) for x in row] for row in symplectic_form(m).tolist()]
    square = _matmul(_matmul(omega, g), _matmul(omega, g))
    power, sums = square, []
    for k in range(1, m + 1):
        sums.append((-1) ** k * sum(power[i][i] for i in range(2 * m)) / 2)
        power = _matmul(power, square)
    e = [Fraction(1)]  # elementary symmetric polynomials of the x_j
    for k in range(1, m + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    with localcontext() as ctx:
        ctx.prec = 50
        coeffs = [(-1) ** k * Decimal(c.numerator) / Decimal(c.denominator) for k, c in enumerate(e)]
        return [float(x.sqrt()) for x in reversed(_real_roots(coeffs, coeffs[1].copy_abs() + 1))]


V_S_CAP = variance_from_db(-10.0)
STAGES = ("source", "half", "conditioned")
EXACT_CASES = [
    (p, stage)
    for v_m in (1.0, 10.0, 1e2, 1e3)
    for p in (ProtocolParams(v_s=1.0, v_m=v_m, b=1), ProtocolParams(v_s=V_S_CAP, v_m=v_m, b=0),
              ProtocolParams(v_s=V_S_CAP, v_m=v_m, b=0, v_an=1.0, prep_noise_trust="trusted"))
    for stage in STAGES
] + [(ProtocolParams(v_s=1.0, v_m=1e5, b=1), stage) for stage in STAGES[1:]]


@pytest.mark.parametrize("protocol, stage", EXACT_CASES,
                         ids=[f"b{p.b}-van{p.v_an:g}-vm{p.v_m:g}-{stage}" for p, stage in EXACT_CASES])
def test_spectra_within_a_few_ulps_of_norm_of_exact(protocol, stage):
    """|nu - nu_exact| <= 4 eps ||gamma||_2, nu_exact clipped to >= 1 as the
    spectra are, on pure sources with v_m up to 1e3 (trusted-ancilla 6 x 6
    ones among them), their states behind the <eta> = 0.5 noiseless channel,
    those states after the receiver's X homodyne, and a coherent source with
    v_m = 1e5 behind the same channel, near TRACE_MAX (at v_m = 1e12 the
    Cholesky route stayed within 2.5 and the general eigenvalues of
    i Omega gamma reached 4.2; such states now raise NumericalFailure).

    Left out: near-pure states behind transmittance near 1, where a one-ulp
    change of the entries already moves the exact nu by ~100 eps ||gamma||.
    """
    gamma = build_source(protocol)
    if stage != "source":
        gamma = apply_composite(gamma, CompositeChannel(fading=fixed_fading(0.5)))
    if stage == "conditioned":
        gamma = condition_on_homodyne(gamma, gamma.n_modes - 1)
    got = symplectic_spectra(gamma.matrix[None])[0]
    want = np.maximum(exact_symplectic_spectrum(gamma.matrix), 1.0)
    bound = 4.0 * np.finfo(float).eps * np.linalg.norm(gamma.matrix, 2)
    assert np.abs(got - want).max() <= bound


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

    def test_elementwise(self):
        """On an array, g of each element, bit for bit; a float for a float;
        no log(0) warning at nu = 1 (pytest turns warnings into errors)."""
        nus = np.array([[1.0, 1.0 - 5e-10, 1.5], [3.0, 1.0 + 1e-6, 20.0]])
        got = entropy_g(nus)
        assert got.shape == nus.shape
        assert [x.hex() for x in got.ravel()] == [entropy_g(float(v)).hex() for v in nus.ravel()]
        assert type(entropy_g(1.5)) is float and type(entropy_g(np.float64(1.0))) is float
        with pytest.raises(DomainError, match="got 0.9$"):
            entropy_g(np.array([1.0, 0.9, 0.8]))


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
        out = condition_on_homodyne(tmsv(2.0), 1)
        assert np.allclose(out.matrix, np.diag([0.5, 2.0]), atol=1e-12)

    def test_homodyne_product_state_unchanged(self):
        g = tensor(CovarianceMatrix(np.diag([3.0, 3.0])), vacuum(1))
        out = condition_on_homodyne(g, 1)
        assert np.allclose(out.matrix, np.diag([3.0, 3.0]), atol=1e-12)

    def test_heterodyne_record_halfway(self):
        """The X half of a heterodyne record on TMSV(4) -- an X homodyne on one
        output of a balanced splitter with vacuum -- shrinks the partner's X
        to V_x = 1 and leaves its V_p = 4 untouched."""
        out = condition_on_homodyne(_split_sender_mode(tmsv(4.0)), 0).matrix
        assert out[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert out[3, 3] == pytest.approx(4.0, abs=1e-12)
        symplectic_eigenvalues(CovarianceMatrix(out))  # raises if nonphysical

    def test_outputs_physical_and_phase_covariant(self, rng):
        for _ in range(100):
            m, _ = random_physical_two_mode(rng)
            g = CovarianceMatrix(m)
            cond = condition_on_homodyne(g, 1)
            symplectic_eigenvalues(cond)  # raises if nonphysical
            # rotating the unmeasured mode commutes with conditioning
            theta = rng.uniform(0, 2 * np.pi)
            r = np.eye(4)
            r[:2, :2] = rotation(theta)
            rotated = apply_symplectic(g, r)
            lhs = condition_on_homodyne(rotated, 1).matrix
            rhs = rotation(theta) @ cond.matrix @ rotation(theta).T
            assert np.allclose(lhs, rhs, atol=1e-11)

    def test_single_mode_rejected(self):
        with pytest.raises(DomainError):
            condition_on_homodyne(vacuum(1), 0)


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
        assert out.matrix[3, 3] == pytest.approx(2.0)  # the target's P
        assert out.matrix[0, 0] == pytest.approx(1.0)  # the control's X
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
