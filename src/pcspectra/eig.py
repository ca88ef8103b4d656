"""Eigenvalues and eigenvectors of tridiagonal chain Hamiltonians.

A chain whose off-center sites and bonds mirror exactly -- equal on-site
entries, each bond's (upper, lower) pair equal to its mirror bond's pair or
to the swapped pair -- splits into two sectors.  With L = 2k, central
entries d_k, d_{k+1}, mean m = (d_k + d_{k+1})/2, delta = (d_k - d_{k+1})/2
and Delta = delta^2 + H[k,k+1]*H[k+1,k], the characteristic polynomial
factors as P_L = (F - sqrt(Delta) P_{k-1}) (F + sqrt(Delta) P_{k-1}): the
spectrum is the union of the spectra of the left half chain with last
potential m - sqrt(Delta) and with m + sqrt(Delta).  Both k x k sector
matrices go to LAPACK (``np.linalg.eigvals``) in one call.  At Delta == 0
the sectors are identical, which is pairwise coalescence: the half chain's
eigenvalues are computed once, by this same function, and each is reported
twice, so every pair is exactly equal.  The split nests -- a half chain
that is itself mirrored at Delta == 0 gives exact quadruples.

Any other matrix goes to LAPACK whole.  Near a coalescence a
backward-stable solver splits each pair by about sqrt(eps)*||H||, while the
pair's mean moves only at O(eps) (Lidskii; Moro, Burke & Overton, SIAM J.
Matrix Anal. Appl. 18, 1997).  So, there and in the sector path at a
rounding-level Delta, each cluster whose unit, phase-fixed eigenvectors lie
within 1e-6 of each other is reported at its mean.  Close eigenvalues alone
do not link: an edge-state pair can lie 1e-13*||H|| apart with independent
eigenvectors.

Every chain of the paper has real hoppings and purely imaginary
potentials.  Exactly then (``chain.real_gauge``, no tolerance)
i H = D T D^-1 with D = diag(i^j) and the real tridiagonal
T = tridiag(lower, i*diag, -upper), so eig(H) = -i eig(T) and the spectrum
is exactly symmetric under lambda -> -conj(lambda).  LAPACK then gets the
real T -- whole, as the half chain, or as both sectors at Delta < 0 --
whose eigenvalues come in exact conjugate pairs, so values on the
imaginary axis have real part exactly 0.  At Delta > 0 the two sectors of
such a chain are each other's reflection: sector 0 alone goes to LAPACK
and sector 1 is reported as -conj of its values.

Eigenvectors come from the forward row recursion: once z_1 is fixed every
further component follows row by row, which is also why coalescing
eigenvalues drag their eigenvectors into coalescence.  It runs for all
eigenvalues at once, or on Python scalars for a single one.  A column with
a poor residual, or every column when a superdiagonal entry is
(numerically) zero, takes inverse iteration.

Eigenvalues are reported in canonical order -- ascending real part, ties
broken by ascending imaginary part -- so coalesced partners are adjacent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalMatrix, band_matrices, real_gauge

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
# _recursion skips its rescale test while every entry is provably below 1e149
_LOG_GROWTH_BOUND = np.log(1e149)


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
    """Solve the eigenvalue rows for z_2..z_L given z_1 = 1; one column per lambda.

    A column whose entry passes 1e150 is rescaled (only its direction
    matters).  Row j + 1 is at most g_j times the larger of rows j and
    j - 1, so no entry passes the product of max(1, g_j); while that bound
    stays below 1e149 the per-row test is skipped, which changes no bit.
    """
    L, d, u, low = m.L, m.diag, m.upper, m.lower
    z = np.zeros((L, len(lams)), dtype=complex)
    z[0] = 1.0
    if L > 1:
        z[1] = (lams - d[0]) / u[0]
    reach = np.abs(lams - d[: L - 1, None]).max(axis=1)
    reach[1:] += np.abs(low[: L - 2])
    checked = not np.log(np.maximum(reach / np.abs(u), 1.0)).sum() < _LOG_GROWTH_BOUND
    for j in range(1, L - 1):
        z[j + 1] = ((lams - d[j]) * z[j] - low[j - 1] * z[j - 1]) / u[j]
        if checked:
            top = np.abs(z[j + 1])
            big = top > 1e150
            if big.any():
                z[: j + 2, big] /= top[big]
    return z


def _column(m: TridiagonalMatrix, lam: complex) -> np.ndarray | None:
    """``_recursion`` for one lambda on Python scalars; None if a value overflows."""
    d, u, low = m.diag.tolist(), m.upper.tolist(), m.lower.tolist()
    z = [1.0 + 0j, (lam - d[0]) / u[0]]
    try:
        for j in range(1, m.L - 1):
            z.append(((lam - d[j]) * z[j] - low[j - 1] * z[j - 1]) / u[j])
            top = abs(z[-1])
            if top > 1e150:
                z = [x / top for x in z]
    except OverflowError:
        return None
    return np.array(z)[:, None]


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
    with np.errstate(all="ignore"):  # a vector lost to over- or underflow fails the check
        for _ in range(3):
            try:
                v = np.linalg.solve(shifted, v)
            except np.linalg.LinAlgError:
                shifted = H - (lam + 1e-10 * scale) * np.eye(L)
                v = np.linalg.solve(shifted, v)
            v /= np.linalg.norm(v)
        v = _normalize_phase(v[:, None])
        resid = _residuals(m, np.array([lam]), v)[0]
    if not resid <= _RESIDUAL_REL * scale:
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
    # a single column runs on Python scalars: numpy's per-row dispatch would dominate
    z = None
    if np.abs(m.upper).min() >= _RECURSION_BREAKDOWN_REL * scale:
        z = _recursion(m, lams) if n > 1 else _column(m, complex(lams[0]))
    if z is not None:
        with np.errstate(all="ignore"):  # overflowed columns fail the residual check
            V = _normalize_phase(z)
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
    """``eigs`` with every cluster of coinciding eigenvectors set to its mean.

    The mean is taken from correctly rounded sums, so it does not depend on
    the order of the members, and a cluster's mirror image under
    lambda -> -conj(lambda) gets exactly the mirrored mean.
    """
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
            members = eigs[g]
            eigs[g] = complex(math.fsum(members.real) / len(g), math.fsum(members.imag) / len(g))
    return eigs


def _halves(m: TridiagonalMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The two k x k sector chains of an exactly mirrored chain, or None.

    Returns (diagonals, upper, lower): both sectors are the left half chain
    with off-diagonals ``upper``, ``lower``; row 0 of the (2, k) diagonals
    ends in m - sqrt(Delta), row 1 in m + sqrt(Delta) (module notes).  The
    mirror test is exact, so any NaN fails it.
    """
    L, d, u, low = m.L, m.diag, m.upper, m.lower
    if L % 2:
        return None
    k = L // 2
    if not (d[: k - 1] == d[:k:-1]).all():
        return None
    ul, ll, ur, lr = u[: k - 1], low[: k - 1], u[: k - 1 : -1], low[: k - 1 : -1]
    if not (((ul == ur) & (ll == lr)) | ((ul == lr) & (ll == ur))).all():
        return None
    a, b = complex(d[k - 1]), complex(d[k])
    mean, delta = (a + b) / 2, (a - b) / 2
    root = complex(np.sqrt(delta * delta + complex(u[k - 1]) * complex(low[k - 1])))
    diags = np.empty((2, k), dtype=complex)
    diags[:, : k - 1] = d[: k - 1]
    diags[:, k - 1] = mean - root, mean + root
    return diags, ul, ll


def _solve(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of one chain, or of a (2, k) sector pair, with these bands.

    Where ``chain.real_gauge`` holds LAPACK gets the real T, and the values
    -i eig(T) are exactly closed under lambda -> -conj(lambda).  Sectors with
    real hoppings whose diagonals are each other's -conj have mirrored
    spectra: sector 0 is solved alone and sector 1 reported as -conj of it.
    """
    bands = real_gauge(diag, upper, lower)
    if bands is not None:
        return -1j * np.linalg.eigvals(band_matrices(*bands)).ravel()
    if (diag.ndim == 2 and (diag[1] == -np.conj(diag[0])).all()
            and not (np.count_nonzero(upper.imag) or np.count_nonzero(lower.imag))):
        eigs = np.linalg.eigvals(band_matrices(diag[0], upper, lower))
        return np.concatenate([eigs, -np.conj(eigs)])
    return np.linalg.eigvals(band_matrices(diag, upper, lower)).ravel()


def eigenvalues(m: TridiagonalMatrix) -> np.ndarray:
    """All L eigenvalues (with multiplicity) in canonical order.

    A mirrored chain is solved as its two sector chains, and identical
    sectors give exactly equal pairs; any other coalesced cluster is
    reported at its mean (see the module notes).
    """
    halves = _halves(m)
    if halves is None:
        eigs = _solve(m.diag, m.upper, m.lower)
    else:
        diags, u, low = halves
        if (diags[0] == diags[1]).all():
            return np.repeat(eigenvalues(TridiagonalMatrix(diags[0], u, low)), 2)
        eigs = _solve(diags, u, low)
    eigs = _coalesce(m, eigs)
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
