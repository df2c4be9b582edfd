"""Closed-form linear algebra for 2x2 Hermitian matrices.

Everything downstream lives in a single qubit Hilbert space, so instead of
calling a general eigensolver we decompose M = c0*I + c.sigma and read
eigenvalues (c0 +- |c|) and eigenvectors (half-angle form) directly.  This is
branch-stable, cheap enough to sit inside inner loops, and keeps the
eigenvalue ordering convention (lower state first) explicit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# relative scale below which the two eigenvalues count as degenerate
DEGENERACY_RTOL = 1e-12

# relative Hermiticity deviation herm_eig2 accepts before symmetrizing
EIG_HERM_TOL = 1e-9


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def herm_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dag|."""
    return float(np.max(np.abs(m - dag(m))))


def _require_2x2(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = _require_2x2(m)
    dev = herm_deviation(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    if dev > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian within tolerance: deviation {dev:.3e}, "
            f"allowed {tol * scale:.3e}"
        )
    # symmetrize so downstream Bloch components are exactly real
    return 0.5 * (m + dag(m))


def bloch_parts(m: np.ndarray) -> tuple[float, float, float, float]:
    """Coefficients (c0, cx, cy, cz) of M = c0*I + cx*sx + cy*sy + cz*sz.

    Assumes M Hermitian (imaginary parts of the coefficients are dropped).
    """
    m = _require_2x2(m)
    c0 = 0.5 * (m[0, 0] + m[1, 1]).real
    cx = 0.5 * (m[0, 1] + m[1, 0]).real
    cy = 0.5 * (m[1, 0] - m[0, 1]).imag
    cz = 0.5 * (m[0, 0] - m[1, 1]).real
    return c0, cx, cy, cz


@dataclass(frozen=True)
class Eig2:
    """Spectral data of a 2x2 Hermitian matrix, lower eigenvalue first."""

    e_minus: float
    e_plus: float
    v_minus: np.ndarray
    v_plus: np.ndarray
    degenerate: bool

    @property
    def gap(self) -> float:
        return self.e_plus - self.e_minus


def herm_eig2(m: np.ndarray) -> Eig2:
    """Eigendecomposition of a 2x2 Hermitian matrix in closed form.

    Returns eigenvalues ordered e_minus <= e_plus with orthonormal
    eigenvectors.  When the spectrum is degenerate (relative to
    DEGENERACY_RTOL) the flag is set and the computational basis is returned.
    """
    m = _require_hermitian(m, EIG_HERM_TOL)
    c0, cx, cy, cz = bloch_parts(m)
    r_xy = np.hypot(cx, cy)
    r = np.hypot(r_xy, cz)

    e_minus = c0 - r
    e_plus = c0 + r
    degenerate = (e_plus - e_minus) < DEGENERACY_RTOL * max(1.0, abs(e_plus))
    if degenerate:
        return Eig2(e_minus, e_plus,
                    np.array([1.0, 0.0], dtype=complex),
                    np.array([0.0, 1.0], dtype=complex),
                    True)

    # half-angle construction: theta from atan2 is stable for every direction
    theta = np.arctan2(r_xy, cz)
    phase = np.exp(1j * np.arctan2(cy, cx)) if r_xy > 0.0 else 1.0 + 0.0j
    ch, sh = np.cos(0.5 * theta), np.sin(0.5 * theta)
    v_plus = np.array([ch, sh * phase], dtype=complex)
    v_minus = np.array([sh, -ch * phase], dtype=complex)
    return Eig2(float(e_minus), float(e_plus), v_minus, v_plus, False)


def expect(op: np.ndarray, rho) -> float | np.ndarray:
    """Real expectation value Tr[rho * op] for Hermitian op and rho.

    rho may be a plain matrix, a (T, 2, 2) stack (one value per state) or
    anything carrying one in a `mat` attribute.
    """
    mat = np.asarray(getattr(rho, "mat", rho))
    out = np.einsum("...ij,ji->...", mat, np.asarray(op)).real
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 2x2 density matrix.

    Unit trace and Hermiticity are enforced at construction; negativity
    beyond POS_TOL is reported through a warning and kept (transient
    non-positivity is physical information here, not an error to clip).
    """

    mat: np.ndarray
    min_eig: float
    trace_dev: float
    herm_dev: float

    TRACE_TOL = 1e-10
    HERM_TOL = 1e-12
    POS_TOL = 1e-8

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "DensityMatrix":
        m = _require_2x2(m)
        tr_dev = abs(float(np.trace(m).real) - 1.0) + abs(float(np.trace(m).imag))
        if tr_dev > cls.TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        h_dev = herm_deviation(m)
        if h_dev > cls.HERM_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError(f"not Hermitian: deviation {h_dev:.3e}")
        h = 0.5 * (m + dag(m))
        c0, cx, cy, cz = bloch_parts(h)
        lo = c0 - float(np.sqrt(cx * cx + cy * cy + cz * cz))
        if lo < -cls.POS_TOL:
            warnings.warn(
                f"density matrix has negative eigenvalue {lo:.3e} "
                f"(pos_tol={cls.POS_TOL:.1e})", RuntimeWarning, stacklevel=2)
        h.setflags(write=False)
        return cls(h, float(lo), float(tr_dev), float(h_dev))
