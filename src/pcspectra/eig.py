"""Eigenvalues and eigenvectors of tridiagonal chain Hamiltonians.

Eigenvalues come from LAPACK (``np.linalg.eigvals``).  At pairwise
coalescence every eigenvalue is a double root with a single eigenvector;
a backward-stable solver splits each pair by about sqrt(eps)*||H||, while
the pair's mean moves only at O(eps) (Lidskii; Moro, Burke & Overton,
SIAM J. Matrix Anal. Appl. 18, 1997).  So each cluster whose unit,
phase-fixed eigenvectors lie within 1e-6 of each other is reported at its
mean.  Close eigenvalues alone do not link: an edge-state pair can lie
1e-13*||H|| apart with independent eigenvectors.

Eigenvectors come from the forward row recursion, run for all eigenvalues
at once: once z_1 is fixed every further component follows row by row,
which is also why coalescing eigenvalues drag their eigenvectors into
coalescence.  A column with a poor residual, or every column when a
superdiagonal entry is (numerically) zero, takes inverse iteration.

Eigenvalues are reported in canonical order -- ascending real part, ties
broken by ascending imaginary part -- so coalesced partners are adjacent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalMatrix

__all__ = [
    "Spectrum",
    "eigenvalues",
    "eigenvector_for",
    "spectrum",
    "distinct_count",
    "cluster",
    "cluster_members",
]

_RECURSION_BREAKDOWN_REL = 1e-10
_RESIDUAL_REL = 1e-6
# Unit eigenvectors closer than this belong to one coalesced cluster.
_COINCIDE = 1e-6
# Such vectors have eigenvalues within about 2*_COINCIDE*||H|| plus their two
# residuals (each at most _RESIDUAL_REL*||H||); only pairs this close are compared.
_CANDIDATE_REL = 1e-4


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues, normalized right eigenvectors, and solver metadata.

    ``eigenvalues[mu]`` pairs with the column ``eigenvectors[:, mu]``; the
    vectors have unit 2-norm and their first significant component is
    rotated to the positive real axis.  ``iterations`` is all zeros:
    LAPACK reports no per-eigenvalue iteration counts, and the field is
    kept only for callers that still read it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    iterations: np.ndarray

    @property
    def L(self) -> int:
        return len(self.eigenvalues)

    def min_basis_singular_value(self) -> float:
        """Smallest singular value of the eigenvector matrix.

        Near zero exactly when the eigenbasis is numerically incomplete
        (defective), e.g. at full-spectrum coalescence.
        """
        return float(np.linalg.svd(self.eigenvectors, compute_uv=False)[-1])


def _components(n: int, i: np.ndarray, j: np.ndarray) -> list[list[int]]:
    """Components of the graph on 0..n-1 with edges (i[k], j[k]), by smallest member."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(i.tolist(), j.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    groups: dict[int, list[int]] = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    return sorted(groups.values(), key=lambda g: g[0])


def _pairs_within(eigs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j with |eigs[i] - eigs[j]| <= tol."""
    return np.nonzero(np.triu(np.abs(eigs[:, None] - eigs[None, :]) <= tol, 1))


def _recursion(m: TridiagonalMatrix, lams: np.ndarray) -> np.ndarray:
    """Solve the eigenvalue rows for z_2..z_L given z_1 = 1; one column per lambda."""
    L, d, u, low = m.L, m.diag, m.upper, m.lower
    z = np.zeros((L, len(lams)), dtype=complex)
    z[0] = 1.0
    if L > 1:
        z[1] = (lams - d[0]) / u[0]
    for j in range(1, L - 1):
        z[j + 1] = ((lams - d[j]) * z[j] - low[j - 1] * z[j - 1]) / u[j]
        top = np.abs(z[j + 1])
        big = top > 1e150  # rescale a growing solution; only direction matters
        if big.any():
            z[: j + 2, big] /= top[big]
    return z


def _residuals(m: TridiagonalMatrix, lams: np.ndarray, V: np.ndarray) -> np.ndarray:
    """||H v - lambda v|| for every column v of V."""
    HV = m.diag[:, None] * V
    if m.L > 1:
        HV[:-1] += m.upper[:, None] * V[1:]
        HV[1:] += m.lower[:, None] * V[:-1]
    HV -= lams * V
    return np.linalg.norm(HV, axis=0)


def _normalize_phase(V: np.ndarray) -> np.ndarray:
    """Scale V's columns in place to unit norm, first significant component positive real."""
    V /= np.linalg.norm(V, axis=0)
    mag = np.abs(V)
    first = V[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(V.shape[1])]
    V *= np.conj(first) / np.abs(first)
    return V


def _inverse_iteration(m: TridiagonalMatrix, lam: complex, scale: float) -> np.ndarray:
    """Phase-fixed eigenvector for ``lam``; raises ArithmeticError on a poor residual.

    The fixed seed keeps results reproducible; the tiny diagonal nudge keeps
    the solve away from exact singularity.
    """
    L, H = m.L, m.to_dense()
    shifted = H - (lam + 1e-12 * scale) * np.eye(L)
    rng = np.random.default_rng(0x5EED)
    v = rng.normal(size=L) + 1j * rng.normal(size=L)
    v /= np.linalg.norm(v)
    for _ in range(3):
        try:
            v = np.linalg.solve(shifted, v)
        except np.linalg.LinAlgError:
            shifted = H - (lam + 1e-10 * scale) * np.eye(L)
            v = np.linalg.solve(shifted, v)
        v /= np.linalg.norm(v)
    v = _normalize_phase(v[:, None])
    resid = _residuals(m, np.array([lam]), v)[0]
    if resid > _RESIDUAL_REL * scale:
        raise ArithmeticError(
            f"no eigenvector at residual {_RESIDUAL_REL} * ||H||: lambda={lam}, "
            f"residual {resid:.3e} (is lambda an eigenvalue?)"
        )
    return v[:, 0]


def _eigenvectors(m: TridiagonalMatrix, lams: np.ndarray) -> np.ndarray:
    """Unit, phase-fixed right eigenvectors of ``lams``, one column each."""
    L, n = m.L, len(lams)
    if L == 1:
        return np.ones((1, n), dtype=complex)
    if not (m.upper.any() or m.lower.any()):
        # diagonal matrix: eigenvectors are basis vectors
        V = np.zeros((L, n), dtype=complex)
        V[np.argmin(np.abs(m.diag[:, None] - lams), axis=0), np.arange(n)] = 1.0
        return V

    scale = max(m.inf_norm(), 1e-300)
    if np.abs(m.upper).min() >= _RECURSION_BREAKDOWN_REL * scale:
        with np.errstate(all="ignore"):  # overflowed columns fail the residual check
            V = _normalize_phase(_recursion(m, lams))
            failed = ~(_residuals(m, lams, V) <= _RESIDUAL_REL * scale)
    else:
        V, failed = np.empty((L, n), dtype=complex), np.ones(n, dtype=bool)
    for mu in np.flatnonzero(failed):
        V[:, mu] = _inverse_iteration(m, lams[mu], scale)
    return V


def eigenvector_for(m: TridiagonalMatrix, lam: complex) -> np.ndarray:
    """Normalized right eigenvector for an eigenvalue ``lam``.

    Uses the forward row recursion when every superdiagonal entry is
    significant, otherwise (or when the recursion's residual is poor)
    inverse iteration from a fixed-seed random start.  The result has unit
    2-norm and its first significant component is positive real.  Raises
    ArithmeticError when no vector reaches residual 1e-6 * ||H||.
    """
    return _eigenvectors(m, np.array([lam], dtype=complex))[:, 0]


def _coalesce(m: TridiagonalMatrix, eigs: np.ndarray) -> np.ndarray:
    """``eigs`` with every cluster of coinciding eigenvectors set to its mean."""
    i, j = _pairs_within(eigs, _CANDIDATE_REL * m.inf_norm())
    if len(i) == 0:
        return eigs
    cols, where = np.unique(np.concatenate([i, j]), return_inverse=True)
    V = _eigenvectors(m, eigs[cols])
    gap = np.linalg.norm(V[:, where[: len(i)]] - V[:, where[len(i) :]], axis=0)
    close = gap <= _COINCIDE
    eigs = eigs.copy()
    for g in _components(len(eigs), i[close], j[close]):
        if len(g) > 1:
            eigs[g] = eigs[g].mean()
    return eigs


def eigenvalues(m: TridiagonalMatrix) -> np.ndarray:
    """All L eigenvalues (with multiplicity) in canonical order.

    Each coalesced cluster is reported at its mean (see the module notes).
    """
    eigs = _coalesce(m, np.linalg.eigvals(m.to_dense()))
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def spectrum(m: TridiagonalMatrix) -> Spectrum:
    """Full spectral data: canonical eigenvalues and their eigenvectors."""
    eigs = eigenvalues(m)
    return Spectrum(eigs, _eigenvectors(m, eigs), np.zeros(m.L, dtype=int))


def cluster_members(eigs: np.ndarray, tol: float) -> list[list[int]]:
    """Single-linkage clusters in the complex plane; lists of indices.

    Two eigenvalues join the same cluster whenever a chain of steps of
    length <= tol connects them.
    """
    eigs = np.asarray(eigs, dtype=complex)
    return _components(len(eigs), *_pairs_within(eigs, tol))


def cluster(eigs: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Clustered eigenvalues as (cluster mean, multiplicity) pairs.

    Clusters are ordered canonically by their representative.
    """
    eigs = np.asarray(eigs, dtype=complex)
    reps = [(complex(np.mean(eigs[g])), len(g)) for g in cluster_members(eigs, tol)]
    reps.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return reps


def distinct_count(eigs: np.ndarray, tol: float = 1e-5) -> int:
    """Number of distinct eigenvalues under single-linkage clustering.

    Two eigenvalues are distinct when their complex distance exceeds
    ``tol`` (default 1e-5, the counting convention used throughout).
    """
    return len(cluster_members(np.asarray(eigs, dtype=complex), tol))
