"""Eigensolver: LAPACK eigenvalues, coalesced clusters, eigenvectors, clustering."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from pcspectra import eig
from pcspectra.chain import (
    CentralBlock,
    ChainSpec,
    TridiagonalMatrix,
    as_matrix,
    build,
    check_symmetry,
    family_a,
    family_b,
    family_c,
    family_d,
    legacy,
    pc_delta,
    random_spec,
)
from pcspectra.eig import (
    _eigenvectors,
    _halves,
    _recursion,
    cluster,
    cluster_members,
    distinct_count,
    eigenvalues,
    eigenvector_for,
    spectrum,
)

# a backward-stable solver splits a defective pair by about sqrt(eps)*||H||
EIG_MATCH_REL = 100.0 * np.sqrt(np.finfo(float).eps)


def multiset_distance(x, y) -> float:
    """Largest distance under a one-to-one matching of two equal-size multisets."""
    cost = np.abs(np.asarray(x)[:, None] - np.asarray(y)[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


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
    # at 1e300 inverse iteration underflows to a NaN vector, which must fail too
    for lam in (100.0 + 100.0j, 1e300):
        with pytest.raises(ArithmeticError, match="is lambda an eigenvalue"):
            eigenvector_for(m, lam)


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
    # detuned: close pairs with distinct eigenvectors stay apart, at LAPACK's accuracy
    m = build(family_b(10, 1.5, 1.0, 0.0, 3.0 + 1e-6))
    eigs = eigenvalues(m)
    assert distinct_count(eigs, tol=1e-12) == 10
    assert multiset_distance(eigs, np.linalg.eigvals(m.to_dense())) <= EIG_MATCH_REL * m.inf_norm()


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


# --- mirror sectors ----------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 30),
    seed=st.integers(0, 2**16),
    s=st.sampled_from([1e-6, 1.0, 1e6]),
    at_ep=st.booleans(),
)
def test_sector_union_matches_lapack(k, seed, s, at_ep):
    rng = np.random.default_rng(seed)
    alpha, gamma, du, dl = (complex(z) for z in s * (rng.normal(size=4) + 1j * rng.normal(size=4)))
    if at_ep:
        # Delta = delta^2 + du*dl vanishes exactly for du = dl = i*delta
        du = dl = 1j * (-1j * alpha - -1j * gamma) / 2
    spec = random_spec(k, seed, s, CentralBlock(alpha, gamma, du, dl))
    m = build(spec.with_flip_mask(rng.integers(0, 2, size=2 * k - 2) > 0))
    assert _halves(m) is not None
    eigs = eigenvalues(m)
    assert multiset_distance(eigs, np.linalg.eigvals(m.to_dense())) <= EIG_MATCH_REL * m.inf_norm()
    if at_ep:
        assert np.array_equal(eigs[0::2], eigs[1::2])


def test_rescaled_bond_is_generalized_mirror_but_not_split():
    # check_symmetry judges hopping products; the sector split wants each bond's
    # pair equal to its mirror's pair or swapped.  Pinned so that a change to
    # either rule shows here.
    m = build(legacy(10, 0, 2))
    upper, lower = m.upper.copy(), m.lower.copy()
    upper[0] *= 2
    lower[0] /= 2
    bent = TridiagonalMatrix(m.diag, upper, lower)
    assert check_symmetry(bent).status == "generalized_offcenter"
    assert _halves(m) is not None and _halves(bent) is None


@pytest.mark.parametrize("gamma", [3.0, 3.0 + 1e-6])
def test_perturbed_mirror_is_not_split(gamma):
    m = build(family_b(10, 1.5, 1.0, 0.0, gamma))
    k = m.L // 2
    diag, upper = m.diag.copy(), m.upper.copy()
    diag[k + 1 :] *= 1 + 1e-12
    upper[k:] *= 1 + 1e-12
    bent = TridiagonalMatrix(diag, upper, m.lower)
    assert _halves(m) is not None and _halves(bent) is None
    if gamma != 3.0:  # off PC nothing coalesces: exactly LAPACK's values of the real gauge
        T = np.diag((1j * diag).real) + np.diag(-upper.real, 1) + np.diag(m.lower.real, -1)
        assert np.array_equal(np.sort_complex(eigenvalues(bent)),
                              np.sort_complex(-1j * np.linalg.eigvals(T)))


@pytest.mark.parametrize("spec", [
    legacy(104, 0.0, 2.0),
    family_b(104, 1.0, 1.5, 0.0, 3.0),
    family_c(102, 1.0, 1.5, 0.7, 0.0, 1.4),
])
def test_every_pair_exact_on_long_chains(spec):
    m = build(spec)
    eigs = eigenvalues(m)
    assert np.array_equal(eigs[0::2], eigs[1::2])
    assert distinct_count(eigs, tol=1e-12) == m.L // 2
    assert multiset_distance(eigs, np.linalg.eigvals(m.to_dense())) <= EIG_MATCH_REL * m.inf_norm()


@pytest.mark.parametrize("args, distinct", [
    ((12, 2.0, 0.7, 2.0), 3),
    ((24, 2.0, 1.0, 2.0), 6),
    ((60, 2.0, 1.0, 2.0), 15),
    ((60, 2.0, 3.0, 2.0), 15),
    ((12, 2.4, 1.2, 2.4), 6),  # paired only: the half chain's sectors differ
])
def test_nested_sectors_give_exact_quadruples(args, distinct):
    eigs = eigenvalues(family_d(*args))
    assert distinct_count(eigs, tol=1e-12) == distinct_count(eigs) == distinct
    if distinct * 4 == args[0]:
        assert all(np.array_equal(eigs[0::4], eigs[j::4]) for j in (1, 2, 3))


# --- the real gauge ------------------------------------------------------------


@st.composite
def gauged_chains(draw):
    """(chain, kind): real non-reciprocal hoppings, random flip mask, imaginary potentials.

    ``kind`` is the sign of Delta for a mirrored chain, or "bent" for a chain
    at Delta == 0 whose first site is moved off the mirror, by so little
    that its pairs stay coalesced or by a tenth of its norm.
    """
    k = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["Delta < 0", "Delta == 0", "Delta > 0", "bent"]))
    s = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    alpha, gamma = s * rng.normal(size=2)
    # Delta = du*dl - (gamma - alpha)^2/4 vanishes exactly for du = dl = pc_delta
    delta = pc_delta(alpha, gamma)
    du, dl = {"Delta < 0": (0.5 * delta, -delta), "Delta > 0": (1.5 * delta, delta)}.get(
        kind, (delta, delta))
    spec = ChainSpec(k, tuple(1j * s * rng.normal(size=k - 1)),
                     *(tuple(s * rng.normal(size=k - 1)) for _ in "bc"),
                     CentralBlock(alpha, gamma, du, dl), rng.integers(0, 2, size=2 * k - 2) > 0,
                     s * rng.normal())
    m = build(spec)
    if kind == "bent":
        bend = draw(st.sampled_from([1e-12, 0.1]))
        m = TridiagonalMatrix(m.diag + np.eye(m.L)[0] * bend * 1j * m.inf_norm(), m.upper, m.lower)
    return m, kind


def eigvals_inputs(m):
    """``eigenvalues(m)`` and the dtypes of the matrices it handed LAPACK."""
    dtypes, eigvals = [], np.linalg.eigvals

    def spy(a):
        dtypes.append(a.dtype)
        return eigvals(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", spy)
        return eigenvalues(m), dtypes


@settings(max_examples=120, deadline=None, derandomize=True)
@given(chain=gauged_chains(), part=st.sampled_from(["hopping", "potential"]))
def test_gauged_chains_take_real_lapack(chain, part):
    m, kind = chain
    assert (_halves(m) is None) == (kind == "bent")
    eigs, dtypes = eigvals_inputs(m)
    # reflected sectors are solved as one complex sector; the half chain at
    # Delta == 0 may split again, so only its own values are checked
    want = {"Delta < 0": [np.float64], "Delta > 0": [np.complex128], "bent": [np.float64]}
    assert dtypes == want.get(kind, dtypes)
    assert np.array_equal(np.sort_complex(eigs), np.sort_complex(-np.conj(eigs)))
    assert multiset_distance(eigs, np.linalg.eigvals(m.to_dense())) <= EIG_MATCH_REL * m.inf_norm()
    # one complex hopping or one real potential: exactly complex LAPACK's values
    diag, upper = m.diag.copy(), m.upper.copy()
    if part == "hopping":
        upper[0] += 0.1j * abs(upper[0])
    else:
        diag[0] += 0.1 * m.inf_norm()
    off = TridiagonalMatrix(diag, upper, m.lower)
    eigs, dtypes = eigvals_inputs(off)
    assert dtypes == [np.complex128]
    assert np.array_equal(np.sort_complex(eigs), np.sort_complex(np.linalg.eigvals(off.to_dense())))


@pytest.mark.parametrize("spec", [
    legacy(10, 0.0, 2.5),
    family_b(12, 1.0, 1.5, 0.0, 3.2),
    family_d(12, 2.4, 1.2, 2.4),
])
def test_imaginary_eigenvalues_are_ordered_exactly(spec):
    # real parts that are zero in exact arithmetic are exactly zero, so the
    # canonical order of these values does not depend on rounding
    m = as_matrix(spec)
    eigs = eigenvalues(m)
    axis = np.flatnonzero(np.abs(eigs.real) <= 1e-9 * m.inf_norm())
    assert len(axis) >= 2
    assert (eigs.real[axis] == 0.0).all()
    assert np.array_equal(axis, np.arange(axis[0], axis[-1] + 1))
    assert (np.diff(eigs.imag[axis]) >= 0).all()


# --- eigenvector recursion -----------------------------------------------------


def checked_recursion(m, lams):
    """The eigenvector recursion with its rescale test on every row."""
    L, d, u, low = m.L, m.diag, m.upper, m.lower
    z = np.zeros((L, len(lams)), dtype=complex)
    z[0] = 1.0
    if L > 1:
        z[1] = (lams - d[0]) / u[0]
    for j in range(1, L - 1):
        z[j + 1] = ((lams - d[j]) * z[j] - low[j - 1] * z[j - 1]) / u[j]
        top = np.abs(z[j + 1])
        big = top > 1e150
        if big.any():
            z[: j + 2, big] /= top[big]
    return z


def log10_growth_bound(m, lams):
    """log10 of prod_j max(1, g_j): no entry of the unscaled recursion can exceed it."""
    reach = np.abs(lams - m.diag[: m.L - 1, None]).max(axis=1)
    reach[1:] += np.abs(m.lower[:-1])
    return np.log10(np.maximum(reach / np.abs(m.upper), 1.0)).sum()


@pytest.mark.parametrize("seed", range(12))
def test_recursion_equals_row_checked_loop(seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, int(rng.integers(2, 80)))
    # eigenvalues, and points far off the spectrum whose columns grow past 1e150
    far = 10.0 ** rng.uniform(0, 8, size=5) * np.exp(2j * np.pi * rng.random(5))
    for lams in (eigenvalues(m), far):
        assert np.array_equal(_recursion(m, lams), checked_recursion(m, lams))


def test_recursion_on_hatano_nelson_equals_row_checked_loop(monkeypatch):
    # components grow 100-fold per site, so the rows must be checked.  The
    # exact eigenvalues are used: LAPACK's are far off on so non-normal a chain
    L, up, lo = 200, 0.01, 100.0
    m = TridiagonalMatrix(np.zeros(L), np.full(L - 1, up), np.full(L - 1, lo))
    lams = 2 * np.sqrt(up * lo) * np.cos(np.arange(1, L + 1) * np.pi / (L + 1))
    bounds = []

    def spy(m, lams):
        z = _recursion(m, lams)
        assert np.array_equal(z, checked_recursion(m, lams))
        bounds.append(log10_growth_bound(m, lams))
        return z

    monkeypatch.setattr(eig, "_recursion", spy)
    V = _eigenvectors(m, lams.astype(complex))
    assert bounds and min(bounds) > 150
    assert np.linalg.norm(m.to_dense() @ V - V * lams, axis=0).max() <= 1e-6 * m.inf_norm()


# --- one-column eigenvectors -------------------------------------------------


def test_eigenvector_for_matches_spectrum_columns():
    rng = np.random.default_rng(12)
    chains = [random_matrix(rng, int(rng.integers(2, 61))) for _ in range(40)]
    for seed in range(20):
        k = int(rng.integers(2, 21))
        central = CentralBlock(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        spec = random_spec(k, seed=seed, central=central)
        chains.append(build(spec.with_flip_mask(rng.random(2 * k - 2) < 0.5)))
    chains += [build(spec) for L in (10, 30) for spec in
               (family_b(L, 1.0, 1.5, 0.0, 3.1), legacy(L, 0.0, 2.2), family_a(L, 0.3, 2.0, 0.4))]
    chains += [build(legacy(104, 0.0, 2.0)), build(family_b(104, 1.0, 1.5, 0.0, 2.5))]
    for m in chains:
        s = spectrum(m)
        for mu in range(m.L):
            assert np.abs(eigenvector_for(m, s.eigenvalues[mu]) - s.eigenvectors[:, mu]).max() < 1e-14


def test_eigenvector_for_rescales_a_growing_solution():
    # Hatano-Nelson chain: components grow 100-fold per site, 1e398 in all,
    # so the raw recursion would overflow without its rescaling
    L, up, lo = 200, 0.01, 100.0
    m = TridiagonalMatrix(np.zeros(L), np.full(L - 1, up), np.full(L - 1, lo))
    n = np.arange(1, L + 1)
    for j in (1, 57, 100):
        theta = j * np.pi / (L + 1)
        want = np.sqrt(lo / up) ** (n - L) * np.sin(n * theta)
        want /= np.linalg.norm(want)
        want *= np.sign(want[np.abs(want) > 1e-12 * np.abs(want).max()][0])
        lam = 2 * np.sqrt(up * lo) * np.cos(theta)
        v = eigenvector_for(m, lam)
        assert np.abs(v - want).max() < 1e-12
        assert np.abs(v - _eigenvectors(m, np.array([lam, lam]))[:, 0]).max() < 1e-12


def test_spectrum_of_hatano_nelson_raises_arithmetic_error():
    # LAPACK's eigenvalues of so non-normal a chain are far off, and the shifted
    # solves of inverse iteration are singular at both nudges for one of them
    L, up, lo = 200, 0.01, 100.0
    m = TridiagonalMatrix(np.zeros(L), np.full(L - 1, up), np.full(L - 1, lo))
    with pytest.raises(ArithmeticError, match="no eigenvector"):
        spectrum(m)


def test_eigenvector_for_takes_inverse_iteration_on_tiny_superdiagonal():
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 12)
    upper = m.upper.copy()
    upper[5] = 1e-13 * m.inf_norm()
    m = TridiagonalMatrix(m.diag, upper, m.lower)
    s = spectrum(m)
    for mu, lam in enumerate(s.eigenvalues):
        v = eigenvector_for(m, lam)
        assert np.array_equal(v, s.eigenvectors[:, mu])
        assert np.linalg.norm(m.to_dense() @ v - lam * v) <= 1e-8 * m.inf_norm()
