"""Eigensolver: LAPACK eigenvalues, coalesced clusters, eigenvectors, clustering."""
from __future__ import annotations

import numpy as np
import pytest

from pcspectra.chain import TridiagonalMatrix, build, family_b, legacy, random_spec
from pcspectra.eig import (
    cluster,
    cluster_members,
    distinct_count,
    eigenvalues,
    eigenvector_for,
    spectrum,
)


def random_matrix(rng, L):
    d = rng.normal(size=L) + 1j * rng.normal(size=L)
    u = rng.normal(size=max(L - 1, 0)) + 1j * rng.normal(size=max(L - 1, 0))
    lo = rng.normal(size=max(L - 1, 0)) + 1j * rng.normal(size=max(L - 1, 0))
    return TridiagonalMatrix(d, u, lo)


def test_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(2)
    for _ in range(40):
        L = int(rng.integers(1, 15))
        m = random_matrix(rng, L)
        mine = np.sort_complex(eigenvalues(m))
        ref = np.sort_complex(np.linalg.eigvals(m.to_dense()))
        assert np.abs(mine - ref).max() < 1e-9 * max(1.0, m.inf_norm())


def test_eigenvalues_canonical_order():
    rng = np.random.default_rng(3)
    for _ in range(20):
        eigs = eigenvalues(random_matrix(rng, 10))
        key = [(e.real, e.imag) for e in eigs]
        assert key == sorted(key)


def test_trace_is_preserved():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = random_matrix(rng, 12)
        assert abs(eigenvalues(m).sum() - m.diag.sum()) < 1e-10 * max(1.0, m.inf_norm())


def test_single_site():
    m = TridiagonalMatrix(np.array([0.5 - 2j]), np.array([]), np.array([]))
    assert eigenvalues(m)[0] == pytest.approx(0.5 - 2j)
    s = spectrum(m)
    assert s.eigenvectors[0, 0] == pytest.approx(1.0)


def test_coalesced_pair_two_sites():
    eigs = eigenvalues(build(legacy(2, 0.0, 2.0)))
    assert np.abs(eigs - (-1j)).max() < 1e-8


def test_spectrum_eigenvector_residuals():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = random_matrix(rng, 9)
        s = spectrum(m)
        dense = m.to_dense()
        scale = m.inf_norm()
        for mu in range(m.L):
            v = s.eigenvectors[:, mu]
            assert np.linalg.norm(v) == pytest.approx(1.0)
            resid = np.linalg.norm(dense @ v - s.eigenvalues[mu] * v)
            assert resid <= 1e-8 * scale


def test_eigenvector_phase_convention():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = random_matrix(rng, 7)
        s = spectrum(m)
        for mu in range(m.L):
            v = s.eigenvectors[:, mu]
            first = v[np.abs(v) > 1e-12 * np.abs(v).max()][0]
            assert first.imag == pytest.approx(0.0, abs=1e-12)
            assert first.real > 0


def test_eigenvector_for_diagonal_matrix():
    m = TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.zeros(2), np.zeros(2))
    v = eigenvector_for(m, 2.0)
    assert np.allclose(v, [0.0, 1.0, 0.0])


def test_eigenvector_fallback_when_recursion_breaks():
    # a vanishing superdiagonal entry forces the inverse-iteration path
    d = np.array([1.0, -1.0, 0.5, 2.0], dtype=complex)
    u = np.array([0.0, 1.0, 1.0], dtype=complex)
    lo = np.array([1.0, 1.0, 1.0], dtype=complex)
    m = TridiagonalMatrix(d, u, lo)
    for lam in eigenvalues(m):
        v = eigenvector_for(m, lam)
        resid = np.linalg.norm(m.to_dense() @ v - lam * v)
        assert resid <= 1e-6 * m.inf_norm()


def test_eigenvector_for_rejects_non_eigenvalue():
    m = build(legacy(6, 0.0, 1.0))
    with pytest.raises(ArithmeticError):
        eigenvector_for(m, 100.0 + 100.0j)


def test_coalescing_eigenvectors_become_parallel():
    s = spectrum(build(family_b(10, 1.5, 1.0, 0.0, 3.0)))
    for j in range(5):
        a = s.eigenvectors[:, 2 * j]
        b = s.eigenvectors[:, 2 * j + 1]
        assert abs(np.vdot(a, b)) > 1 - 1e-8


def test_coalesced_pairs_reported_at_their_mean():
    for spec in (legacy(10, 0.0, 2.0), family_b(10, 1.5, 1.0, 0.0, 3.0)):
        m = build(spec)
        eigs = eigenvalues(m)
        assert np.array_equal(eigs[0::2], eigs[1::2])
        lapack = np.sort_complex(np.linalg.eigvals(m.to_dense()))
        means = [mean for mean, _ in cluster(lapack, tol=1e-5)]
        assert np.abs(eigs[0::2] - means).max() < 1e-12 * m.inf_norm()
        s = spectrum(m)
        assert np.array_equal(s.eigenvectors[:, 0::2], s.eigenvectors[:, 1::2])
        for mu in range(0, m.L, 2):
            assert np.allclose(eigenvector_for(m, eigs[mu]), s.eigenvectors[:, mu],
                               rtol=0, atol=1e-12)
    # detuned: close pairs with distinct eigenvectors keep LAPACK's values
    m = build(family_b(10, 1.5, 1.0, 0.0, 3.0 + 1e-6))
    eigs = eigenvalues(m)
    assert distinct_count(eigs, tol=1e-12) == 10
    assert np.array_equal(np.sort_complex(eigs), np.sort_complex(np.linalg.eigvals(m.to_dense())))


def test_eigenvalue_multiset_flip_invariant():
    rng = np.random.default_rng(11)
    for seed in range(50):
        k = int(rng.integers(2, 6))
        spec = random_spec(k, seed=seed)
        mask = tuple(bool(b) for b in rng.integers(0, 2, size=2 * k - 2))
        e0 = np.sort_complex(eigenvalues(build(spec)))
        e1 = np.sort_complex(eigenvalues(build(spec.with_flip_mask(mask))))
        scale = max(1.0, build(spec).inf_norm())
        assert np.abs(e0 - e1).max() < 1e-8 * scale


def test_cluster_members_single_linkage_chains():
    eigs = np.array([0.0, 1.0, 1.5, 3.0])
    groups = cluster_members(eigs, tol=0.6)
    assert groups == [[0], [1, 2], [3]]
    # chaining: 0-0.5-1.0 all join through the middle point
    groups = cluster_members(np.array([0.0, 0.5, 1.0]), tol=0.55)
    assert groups == [[0, 1, 2]]


def test_cluster_reports_means_and_multiplicities():
    eigs = np.array([1.0 + 0j, 1.0 + 1e-7j, -2.0 + 0j])
    reps = cluster(eigs, tol=1e-5)
    assert [mult for _, mult in reps] == [1, 2]
    assert reps[0][0] == pytest.approx(-2.0)
    assert reps[1][0] == pytest.approx(1.0 + 5e-8j)


def test_distinct_count_tolerance_dependence():
    eigs = np.array([0.0, 1e-6, 1.0])
    assert distinct_count(eigs) == 2          # default 1e-5 merges the near pair
    assert distinct_count(eigs, tol=1e-7) == 3
    assert distinct_count(eigs, tol=2.0) == 1


def test_distinct_count_coalescence_detection():
    assert distinct_count(eigenvalues(build(legacy(10, 0.0, 2.0)))) == 5
    assert distinct_count(eigenvalues(build(legacy(10, 0.0, 1.5)))) == 10
