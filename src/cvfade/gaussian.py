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

#: tolerance below which a symplectic eigenvalue counts as non-physical
NU_TOL = 1e-9
#: largest trace of a covariance matrix whose spectrum is resolved to NU_TOL:
#: eps * tr(gamma) < NU_TOL / 10, about 4.5e5.  Behind a channel the spectrum's
#: own rounding stays within 3.2 eps tr(gamma) (measured against exact
#: spectra up to v_m = 1e5), so below this it stays under a third of NU_TOL.
TRACE_MAX = NU_TOL / (10.0 * np.finfo(float).eps)
#: relative symmetry tolerance enforced at construction
SYM_TOL = 1e-12

X = "x"
P = "p"


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

    def mode_block(self, i: int) -> np.ndarray:
        """2x2 diagonal block of mode i."""
        self._check_mode(i)
        return self.matrix[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]

    def cross_block(self, i: int, j: int) -> np.ndarray:
        """2x2 cross-covariance block between modes i and j."""
        self._check_mode(i)
        self._check_mode(j)
        return self.matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    def variance(self, mode: int, quadrature: str) -> float:
        i = self._index(mode, quadrature)
        return float(self.matrix[i, i])

    def _check_mode(self, i: int):
        if not 0 <= i < self.n_modes:
            raise IndexError(f"mode {i} out of range for {self.n_modes}-mode state")

    def _index(self, mode: int, quadrature: str) -> int:
        self._check_mode(mode)
        if quadrature not in (X, P):
            raise DomainError(f"quadrature must be '{X}' or '{P}', got {quadrature!r}")
        return 2 * mode + (0 if quadrature == X else 1)


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
    matrices), +/- pairing of the spectrum, and nu >= 1 - NU_TOL; values in
    [1 - NU_TOL, 1) are clipped to 1.  Callers need not check the stack first.
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
        # sqrt(det gamma) without forming det gamma, which overflows once entries pass ~1e154
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
    check_batch(nus[:, -1] < 1.0 - NU_TOL,  # the smallest nu
                lambda k: NonPhysicalState(f"symplectic eigenvalue below 1: min nu = {nus[k, -1]:.12g}"))
    return np.maximum(nus, 1.0)


def symplectic_eigenvalues(gamma: CovarianceMatrix) -> list[float]:
    """Symplectic spectrum of one state: symplectic_spectra of a stack of one."""
    return [float(v) for v in symplectic_spectra(gamma.matrix[None])[0]]


def entropy_g(nu: float) -> float:
    """Bosonic entropy of a thermal mode with symplectic eigenvalue nu, in bits.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with the
    nu -> 1 limit handled explicitly (no log(0)).
    """
    if nu < 1.0 - NU_TOL:
        raise DomainError(f"entropy_g requires nu >= 1, got {nu}")
    d = nu - 1.0
    if d <= 0.0:
        return 0.0
    h = 0.5 * d
    return (1.0 + h) * math.log1p(h) / _LN2 - h * math.log(h) / _LN2


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


def condition_on_homodyne(gamma: CovarianceMatrix, mode: int, quadrature: str) -> CovarianceMatrix:
    """State of the remaining modes after a homodyne measurement of one quadrature.

    Schur complement gamma_rest - sigma (Pi gamma_m Pi)^MP sigma^T with Pi the
    projector onto the measured quadrature and MP the Moore-Penrose pseudoinverse.
    """
    if gamma.n_modes < 2:
        raise DomainError("conditioning requires at least two modes")
    idx = gamma._index(mode, quadrature)  # validates mode & quadrature
    rest, sigma, block = _partition(gamma, mode)
    pi = np.zeros((2, 2))
    pi[idx % 2, idx % 2] = 1.0
    projected = pi @ block @ pi
    try:
        pinv = np.linalg.pinv(projected, rcond=1e-14)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("pseudoinverse of projected block failed") from exc
    if not np.all(np.isfinite(pinv)):
        raise NumericalFailure("degenerate pseudoinverse in homodyne conditioning")
    return CovarianceMatrix(rest - sigma @ pinv @ sigma.T)


def condition_on_heterodyne_record(
    gamma: CovarianceMatrix, measured_mode: int, quadrature: str
) -> CovarianceMatrix:
    """Remaining-mode state given one quadrature of a heterodyne record.

    A heterodyne detector splits the mode on a balanced beamsplitter with
    vacuum and homodynes the two outputs; conditioning on just one of the two
    classical outcomes is a homodyne Schur complement with the measured
    variance inflated by the vacuum unit: sigma sigma^T / (V_q + 1).
    """
    if gamma.n_modes < 2:
        raise DomainError("conditioning requires at least two modes")
    idx = gamma._index(measured_mode, quadrature)
    rest, sigma, block = _partition(gamma, measured_mode)
    v = block[idx % 2, idx % 2] + 1.0
    col = sigma[:, [idx % 2]]
    return CovarianceMatrix(rest - (col @ col.T) / v)


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
