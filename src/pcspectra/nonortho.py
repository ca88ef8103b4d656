"""Eigenvector non-orthogonality measures.

For a non-Hermitian matrix the right eigenvectors need not be orthogonal;
their Gram matrix U (overlaps of normalized eigenvectors) deviates from
the identity, and that deviation peaks sharply where eigenvalues
coalesce.  Two scalar summaries are provided: the mean absolute
off-diagonal weight ``f1`` and the Hilbert-Schmidt distance ``f2`` from
the identity.  Sweeping either over a gain/loss grid locates the
coalescence point as a pronounced maximum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ChainSpec, TridiagonalMatrix, as_matrix
from .eig import Spectrum, distinct_count, spectrum

__all__ = [
    "OverlapMatrix",
    "SweepPoint",
    "overlap_matrix",
    "f1",
    "f2",
    "sweep_nonortho",
]


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Gram matrix of normalized right eigenvectors.

    ``entries[mu, nu] = <v_mu | v_nu>`` with unit-norm columns, so the
    diagonal is exactly 1, the matrix is Hermitian, and it is positive
    semidefinite by construction.
    """

    entries: np.ndarray

    @property
    def L(self) -> int:
        return len(self.entries)

    def max_offdiag(self) -> float:
        """Largest |U_mu_nu| away from the diagonal (0.0 for L = 1)."""
        off = np.abs(self.entries - np.eye(self.L))
        return float(off.max()) if self.L > 1 else 0.0


def overlap_matrix(s: Spectrum | np.ndarray) -> OverlapMatrix:
    """Overlap (Gram) matrix of right eigenvectors.

    Accepts a :class:`~pcspectra.eig.Spectrum` or a plain matrix whose
    columns are the vectors; columns are normalized here, so callers may
    pass unnormalized vectors.
    """
    v = s.eigenvectors if isinstance(s, Spectrum) else np.asarray(s, dtype=complex)
    norms = np.linalg.norm(v, axis=0)
    if np.any(norms == 0):
        raise ValueError("zero eigenvector column in spectrum")
    v = v / norms
    return OverlapMatrix(v.conj().T @ v)


def _entries(u: OverlapMatrix | np.ndarray) -> np.ndarray:
    return u.entries if isinstance(u, OverlapMatrix) else np.asarray(u)


def f1(u: OverlapMatrix | np.ndarray) -> float:
    """Mean absolute deviation of the overlap matrix from the identity.

    (1/L) * sum_{mu,nu} |U_mu_nu - delta_mu_nu|.
    """
    e = _entries(u)
    return float(np.abs(e - np.eye(len(e))).sum() / len(e))


def f2(u: OverlapMatrix | np.ndarray) -> float:
    """Hilbert-Schmidt distance of the overlap matrix from the identity.

    sqrt(sum_{mu,nu} |U_mu_nu - delta_mu_nu|^2).
    """
    e = _entries(u)
    return float(np.linalg.norm(e - np.eye(len(e))))


@dataclass(frozen=True)
class SweepPoint:
    """Non-orthogonality summary at one parameter value."""

    gamma: float
    f1: float
    f2: float
    distinct: int


def sweep_nonortho(
    builder: Callable[[float], ChainSpec | TridiagonalMatrix],
    gamma_grid: Sequence[float],
    tol_distinct: float = 1e-5,
) -> list[SweepPoint]:
    """Evaluate f1, f2, and the distinct-eigenvalue count over a grid.

    ``builder`` maps one grid value to a chain spec or matrix.  The grid
    must hold at least two points; a single point is a sweep in name only
    and almost always a caller bug.
    """
    grid = [float(g) for g in gamma_grid]
    if len(grid) < 2:
        raise ValueError("gamma_grid must contain at least two points")
    points = []
    for g in grid:
        s = spectrum(as_matrix(builder(g)))
        u = overlap_matrix(s)
        points.append(SweepPoint(g, f1(u), f2(u), distinct_count(s.eigenvalues, tol_distinct)))
    return points
