"""Multimode Gaussian-state calculus on quadrature covariance matrices.

Conventions (fixed repo-wide):
  * shot-noise units, vacuum variance = 1
  * quadrature ordering (x1, p1, x2, p2, ..., xN, pN); mode i owns rows 2i, 2i+1
  * entropies in bits (log base 2)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonPhysicalState, NumericalFailure, check_batch

_LN2 = math.log(2.0)
_EPS = np.finfo(float).eps

#: tolerance below which a symplectic eigenvalue counts as non-physical
NU_TOL = 1e-9
#: largest trace of a covariance matrix whose spectrum is resolved to NU_TOL:
#: eps * tr(gamma) < NU_TOL / 10, about 4.5e5.  Behind a channel the spectrum's
#: own rounding stays within 3.2 eps tr(gamma) (measured against exact
#: spectra up to v_m = 1e5), so below this it stays under a third of NU_TOL.
TRACE_MAX = NU_TOL / (10.0 * _EPS)
#: relative symmetry tolerance enforced at construction
SYM_TOL = 1e-12


@lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with per-mode blocks [[0, 1], [-1, 0]].

    Built once per mode count and returned read-only.
    """
    if n_modes < 1:
        raise DomainError("n_modes must be >= 1")
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.kron(np.eye(n_modes), j)
    omega.flags.writeable = False
    return omega


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2N x 2N matrix of quadrature second moments (SNU).

    The wrapped array is symmetrized at construction and frozen read-only, so
    instances are safe to share between concurrent tasks.
    """

    matrix: np.ndarray
    n_modes: int = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or m.shape[0] == 0:
            raise DomainError(f"covariance matrix must be square and even-sized, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("covariance matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > SYM_TOL * scale:
            raise DomainError("covariance matrix is not symmetric within 1e-12 relative tolerance")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_modes", m.shape[0] // 2)

    def _check_mode(self, i: int):
        if not 0 <= i < self.n_modes:
            raise IndexError(f"mode {i} out of range for {self.n_modes}-mode state")


def nu_rounding(trace: np.ndarray) -> np.ndarray:
    """How far rounding moves nu^2 of a near-pure state with this trace:
    an error of eps |gamma| in its entries moves nu^2 by about eps (tr gamma)^2."""
    return _EPS * trace**2


def symplectic_spectra(stack: np.ndarray) -> np.ndarray:
    """Symplectic spectra of an (N, 2m, 2m) stack of covariance matrices.

    Returns (N, m): one nu per mode, sorted descending, clipped to >= 1.  The
    nu are the moduli of the eigenvalues of i*Omega*gamma (Williamson, Am. J.
    Math. 58, 141 (1936)).  With L the Cholesky factor of gamma, nu =
    sqrt(det gamma) = L_00 L_11 for m = 1; for m >= 2 the nu are the positive
    eigenvalues of the Hermitian i*L^T*Omega*L, which is similar to
    i*Omega*gamma; its spectrum is +/- nu.

    Checks, in this order, each raising for the first point that fails:
    finite entries (DomainError), tr gamma < TRACE_MAX (NumericalFailure: a
    larger state's rounding, not its physics, would decide the checks after
    this one), positive definiteness of gamma, which its Cholesky factor
    decides (|eig(i Omega gamma)| >= 1 alone does not rule out indefinite
    matrices), +/- pairing of the spectrum, and nu >= 1 - tol with tol =
    max(NU_TOL, 4 nu_rounding(tr gamma)) per point, so that a near-pure state's
    rounding is not taken for its physics; values in [1 - tol, 1) are clipped
    to 1.  Callers need not check the stack first.
    """
    check_batch(~np.isfinite(stack).all(axis=(1, 2)), DomainError("covariance matrix entries must be finite"))
    trace = stack.diagonal(axis1=1, axis2=2).sum(axis=1)
    check_batch(trace >= TRACE_MAX, lambda k: NumericalFailure(
        f"symplectic spectrum not resolved: tr gamma = {trace[k]:.6g} >= {TRACE_MAX:.6g}"))
    m = stack.shape[-1] // 2
    try:
        factor = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        raise NonPhysicalState("covariance matrix is not positive definite") from None
    if m == 1:
        # the factor is already computed, and L00 L11 = sqrt(det gamma)
        nus = factor[:, 0, :1] * factor[:, 1, 1:]
    else:
        form = factor.transpose(0, 2, 1) @ symplectic_form(m) @ factor
        try:
            ev = np.linalg.eigvalsh(1j * form)  # ascending: -nu, then +nu
        except np.linalg.LinAlgError:  # pragma: no cover - eigvalsh rarely fails
            raise NumericalFailure("eigenvalue solver did not converge") from None
        nus = ev[:, m:][:, ::-1]
        unpaired = np.abs(nus + ev[:, :m]).max(axis=-1) > 1e-6 * np.maximum(1.0, nus[:, 0])
        check_batch(unpaired, NumericalFailure("symplectic spectrum did not pair up"))
    tol = np.maximum(NU_TOL, 4.0 * nu_rounding(trace))
    check_batch(nus[:, -1] < 1.0 - tol,  # the smallest nu
                lambda k: NonPhysicalState(f"symplectic eigenvalue below 1: min nu = {nus[k, -1]:.12g}"))
    return np.maximum(nus, 1.0)


def symplectic_eigenvalues(gamma: CovarianceMatrix) -> list[float]:
    """Symplectic spectrum of one state: symplectic_spectra of a stack of one."""
    return [float(v) for v in symplectic_spectra(gamma.matrix[None])[0]]


def entropy_g(nu):
    """Bosonic entropy of a thermal mode with symplectic eigenvalue nu, in bits.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), elementwise
    on an array, a float for a float.  nu in [1 - NU_TOL, 1] gives 0, with no
    log(0) taken.
    """
    nu = np.asarray(nu, dtype=float)
    low = nu < 1.0 - NU_TOL
    if low.any():
        raise DomainError(f"entropy_g requires nu >= 1, got {nu[low].flat[0]}")
    h = 0.5 * np.maximum(nu - 1.0, 0.0)
    g = (1.0 + h) * np.log1p(h) / _LN2 - h * np.log(np.where(h > 0.0, h, 1.0)) / _LN2
    return g if g.ndim else float(g)


def von_neumann_entropy(gamma: CovarianceMatrix) -> float:
    """Sum of g over the symplectic spectrum, in bits."""
    return sum(entropy_g(nu) for nu in symplectic_eigenvalues(gamma))


def _partition(gamma: CovarianceMatrix, mode: int):
    rows = [2 * mode, 2 * mode + 1]
    keep = [k for k in range(2 * gamma.n_modes) if k not in rows]
    g = gamma.matrix
    return (
        g[np.ix_(keep, keep)],
        g[np.ix_(keep, rows)],
        g[np.ix_(rows, rows)],
    )


def condition_on_homodyne(gamma: CovarianceMatrix, mode: int) -> CovarianceMatrix:
    """State of the remaining modes after an X homodyne on `mode`.

    Schur complement gamma_rest - sigma (Pi gamma_m Pi)^MP sigma^T with
    Pi = diag(1, 0) the projector onto X and MP the Moore-Penrose pseudoinverse.
    The result is symmetrized, since near TRACE_MAX the product's rounding
    alone can break CovarianceMatrix's symmetry check.
    """
    if gamma.n_modes < 2:
        raise DomainError("conditioning requires at least two modes")
    gamma._check_mode(mode)
    rest, sigma, block = _partition(gamma, mode)
    pi = np.diag([1.0, 0.0])
    projected = pi @ block @ pi
    try:
        pinv = np.linalg.pinv(projected, rcond=1e-14)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("pseudoinverse of projected block failed") from exc
    if not np.all(np.isfinite(pinv)):
        raise NumericalFailure("degenerate pseudoinverse in homodyne conditioning")
    out = rest - sigma @ pinv @ sigma.T
    return CovarianceMatrix(0.5 * (out + out.T))


def vacuum(n_modes: int) -> CovarianceMatrix:
    """N-mode vacuum: the 2N x 2N identity."""
    if n_modes < 1:
        raise DomainError("n_modes must be >= 1")
    return CovarianceMatrix(np.eye(2 * n_modes))


def tmsv(mu: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with per-mode variance mu >= 1."""
    if mu < 1.0:
        raise DomainError(f"tmsv requires mu >= 1, got {mu}")
    c = math.sqrt(mu * mu - 1.0)
    sz = np.diag([1.0, -1.0])
    m = np.zeros((4, 4))
    m[:2, :2] = mu * np.eye(2)
    m[2:, 2:] = mu * np.eye(2)
    m[:2, 2:] = c * sz
    m[2:, :2] = c * sz
    return CovarianceMatrix(m)


def apply_symplectic(gamma: CovarianceMatrix, s: np.ndarray) -> CovarianceMatrix:
    """Congruence transform S gamma S^T (S must be symplectic for physicality)."""
    s = np.asarray(s, dtype=float)
    if s.shape != gamma.matrix.shape:
        raise DomainError("symplectic matrix shape mismatch")
    return CovarianceMatrix(s @ gamma.matrix @ s.T)


def apply_squeezer(gamma: CovarianceMatrix, mode: int, s: float) -> CovarianceMatrix:
    """Single-mode squeezer mapping (x, p) -> (x sqrt(s), p / sqrt(s)) on `mode`."""
    if s <= 0.0:
        raise DomainError(f"squeezer parameter must be > 0, got {s}")
    gamma._check_mode(mode)
    d = np.ones(2 * gamma.n_modes)
    d[2 * mode] = math.sqrt(s)
    d[2 * mode + 1] = 1.0 / math.sqrt(s)
    return apply_symplectic(gamma, np.diag(d))


def apply_qnd(gamma: CovarianceMatrix, control_mode: int, target_mode: int, gain: float) -> CovarianceMatrix:
    """Quadrature nondemolition coupling p_t -> p_t + g x_c, p_c -> p_c + g x_t.

    Both momenta pick up +g times the partner position; this sign choice is the
    symplectic one (generator x_c x_t), preserving purity.
    """
    gamma._check_mode(control_mode)
    gamma._check_mode(target_mode)
    if control_mode == target_mode:
        raise DomainError("control and target must differ")
    s = np.eye(2 * gamma.n_modes)
    s[2 * target_mode + 1, 2 * control_mode] = gain
    s[2 * control_mode + 1, 2 * target_mode] = gain
    return apply_symplectic(gamma, s)


def tensor(gamma1: CovarianceMatrix, gamma2: CovarianceMatrix) -> CovarianceMatrix:
    """Product state: block-diagonal concatenation (modes of gamma2 appended)."""
    n1, n2 = 2 * gamma1.n_modes, 2 * gamma2.n_modes
    m = np.zeros((n1 + n2, n1 + n2))
    m[:n1, :n1] = gamma1.matrix
    m[n1:, n1:] = gamma2.matrix
    return CovarianceMatrix(m)


def partial_trace(gamma: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Reduced state over `modes` (kept in the order given)."""
    modes = list(modes)
    if not modes:
        raise DomainError("must keep at least one mode")
    for i in modes:
        gamma._check_mode(i)
    if len(set(modes)) != len(modes):
        raise DomainError("duplicate mode index in partial_trace")
    idx = [2 * i + q for i in modes for q in (0, 1)]
    return CovarianceMatrix(gamma.matrix[np.ix_(idx, idx)])


def require_physical(gamma: CovarianceMatrix) -> CovarianceMatrix:
    """Raise NonPhysicalState unless gamma + i Omega >= 0 within tolerance."""
    symplectic_eigenvalues(gamma)
    return gamma
