"""Pauli matrices, expectation values and validated 2x2 density matrices.

Everything downstream lives in a single qubit Hilbert space.  The one
spectral routine, `model.transition_energy`, is numpy's `eigh`; this
module only validates density matrices.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
        lo = float(np.linalg.eigvalsh(h)[0])
        if lo < -cls.POS_TOL:
            warnings.warn(
                f"density matrix has negative eigenvalue {lo:.3e} "
                f"(pos_tol={cls.POS_TOL:.1e})", RuntimeWarning, stacklevel=2)
        h.setflags(write=False)
        return cls(h, float(lo), float(tr_dev))
