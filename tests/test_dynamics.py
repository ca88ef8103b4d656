"""Time evolution: initial states, RK4 propagation, norm traces, minimum scans."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from pcspectra.chain import (
    TridiagonalMatrix,
    as_matrix,
    build,
    family_a,
    family_b,
    family_c,
    family_d,
    legacy,
)
from pcspectra.dynamics import (
    _gauge,
    _rk4,
    approx_norm,
    evolve,
    gaussian_packet,
    initial_state,
    min_norm_gamma,
    norm_trace,
    uniform_eigen,
    uniform_site,
)
from pcspectra.eig import Spectrum, spectrum


def random_matrix(rng, L):
    d = rng.normal(size=L) + 1j * rng.normal(size=L)
    u = rng.normal(size=L - 1) + 1j * rng.normal(size=L - 1)
    lo = rng.normal(size=L - 1) + 1j * rng.normal(size=L - 1)
    return TridiagonalMatrix(d, u, lo)


def hermitian_chain(rng, L):
    d = rng.normal(size=L).astype(complex)
    u = rng.normal(size=L - 1) + 1j * rng.normal(size=L - 1)
    return TridiagonalMatrix(d, u, np.conj(u))


def test_gaussian_packet_shape():
    psi = gaussian_packet(20, 5.0, 2.5, 0.7)
    assert psi.L == 20
    assert psi.norm() == pytest.approx(1.0)
    assert int(np.argmax(np.abs(psi.amplitudes))) == 4  # site 5, zero-based index 4
    # the plane-wave factor advances the phase by p per site near the peak
    ratio = psi.amplitudes[5] / psi.amplitudes[4]
    assert np.angle(ratio) == pytest.approx(0.7, abs=1e-12)


def test_gaussian_packet_validation():
    with pytest.raises(ValueError):
        gaussian_packet(0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_packet(8, 2.0, 0.0, 0.0)


def test_uniform_site_state():
    psi = uniform_site(16)
    assert psi.norm() == pytest.approx(1.0)
    assert np.allclose(psi.amplitudes, 0.25)
    with pytest.raises(ValueError):
        uniform_site(0)


def test_uniform_eigen_matches_eigenvector_sum():
    rng = np.random.default_rng(5)
    s = spectrum(hermitian_chain(rng, 8))
    psi = uniform_eigen(s)
    direct = s.eigenvectors.sum(axis=1)
    direct /= np.linalg.norm(direct)
    assert psi.norm() == pytest.approx(1.0)
    assert np.allclose(psi.amplitudes, direct)


def test_uniform_eigen_rejects_defective_basis():
    for spec in (
        family_b(10, 1.5, 1.0, 0.0, 3.0),
        legacy(10, 0.0, 2.0),
        family_b(24, 1.0, 1.5, 0.0, 3.0),
    ):
        s = spectrum(build(spec))
        with pytest.raises(ValueError):
            uniform_eigen(s)


def test_uniform_eigen_accepts_resolved_edge_pair():
    # an edge pair 2.4e-13*||H|| apart whose eigenvectors are independent
    s = spectrum(build(family_b(104, 1.0, 1.5, 0.0, 3.0 + 1e-6)))
    assert uniform_eigen(s).norm() == pytest.approx(1.0)


def test_uniform_eigen_accepts_non_normal_chain_away_from_coalescence():
    # Hatano-Nelson: 30 distinct real eigenvalues, but an eigenbasis so skewed
    # toward one edge that its smallest singular value is far below 1e-8
    L = 30
    m = TridiagonalMatrix(np.zeros(L), -np.e * np.ones(L - 1), -np.ones(L - 1) / np.e)
    s = spectrum(m)
    assert len(np.unique(s.eigenvalues)) == L
    assert s.min_basis_singular_value() < 1e-8
    assert uniform_eigen(s).norm() == pytest.approx(1.0)


def test_evolve_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    for _ in range(15):
        L = int(rng.integers(3, 13))
        m = random_matrix(rng, L)
        psi0 = gaussian_packet(L, L / 2.0, L / 4.0, 0.7).amplitudes
        t = float(rng.uniform(0.5, 3.0))
        ref = expm(-1j * m.to_dense() * t) @ psi0
        got = evolve(m, psi0, t).amplitudes
        assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)


def test_evolve_time_zero_is_identity():
    m = build(legacy(6, 0.0, 1.0))
    psi0 = uniform_site(6)
    out = evolve(m, psi0, 0.0)
    assert np.array_equal(out.amplitudes, psi0.amplitudes)


def test_evolve_partial_last_step():
    # t = 1.5 dt exercises the shortened final step
    m = build(legacy(4, 0.5, 1.0))
    psi0 = gaussian_packet(4, 2.0, 1.0, 0.0).amplitudes
    ref = expm(-1j * m.to_dense() * 0.015) @ psi0
    got = evolve(m, psi0, 0.015).amplitudes
    assert np.linalg.norm(got - ref) <= 1e-10


def test_evolve_validation():
    m = build(legacy(4, 0.0, 1.0))
    with pytest.raises(ValueError):
        evolve(m, uniform_site(5), 1.0)
    with pytest.raises(ValueError):
        evolve(m, uniform_site(4), 1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(m, uniform_site(4), -1.0)


def test_hermitian_evolution_is_unitary():
    rng = np.random.default_rng(7)
    m = hermitian_chain(rng, 9)
    out = evolve(m, gaussian_packet(9, 4.0, 2.0, 0.3), 3.0)
    assert abs(out.norm() - 1.0) < 1e-8


def test_absorbing_chain_norm_never_grows():
    rng = np.random.default_rng(9)
    for _ in range(20):
        L = int(rng.integers(3, 10))
        d = rng.normal(size=L) - 1j * rng.uniform(0.0, 1.5, size=L)
        u = rng.normal(size=L - 1) + 1j * rng.normal(size=L - 1)
        m = TridiagonalMatrix(d, u, np.conj(u))
        tr = norm_trace(m, uniform_site(L), 2.0)
        assert np.all(np.diff(tr.norms) <= 1e-9)


def test_unstable_step_on_absorbing_chain_raises():
    # dt = 2 puts the top of the band (|lambda| ~ 2) outside RK4's stability region
    lossy = lambda g: TridiagonalMatrix(np.full(10, -1j * g), np.ones(9), np.ones(9))  # noqa: E731
    for grid in ([0.1, 0.2], [-0.1, 0.1, 0.2]):  # a gain chain leaves the others guarded
        with pytest.raises(RuntimeError, match="dt is too large"):
            min_norm_gamma(lossy, grid, t_final=20.0, dt=2.0)
    # the slowest eigenmode decays over two steps; only the operator shows the growth
    s = spectrum(lossy(0.1))
    v = s.eigenvectors[:, np.argmin(np.abs(s.eigenvalues.real))]
    with pytest.raises(RuntimeError, match="step operator"):
        evolve(lossy(0.1), v / np.linalg.norm(v), 4.0, dt=2.0)


@pytest.mark.filterwarnings("error")  # the overflow is reported once, as the error
def test_unstable_step_on_gain_chain_raises():
    # gain on one central site and dt = 2: the states overflow to nan within
    # a few hundred steps, and no absorbing-chain guard applies
    builder = lambda g: legacy(6, 0.0, g)  # noqa: E731
    m = build(builder(-0.2))
    psi0 = initial_state("wavepacket", m)
    with pytest.raises(RuntimeError, match="state is not finite; .*dt is too large"):
        evolve(m, psi0, 4000.0, dt=2.0)
    with pytest.raises(RuntimeError, match=r"norm is not finite at t=\d+; .*dt is too large"):
        norm_trace(m, psi0, 4000.0, dt=2.0)
    with pytest.raises(RuntimeError, match="not finite; .*dt is too large"):
        min_norm_gamma(builder, [-0.4, -0.3, -0.2], t_final=4000.0, dt=2.0)
    # at a stable step the same chain gains norm and is traced to the end
    tr = norm_trace(m, psi0, 40.0, dt=0.01)
    assert np.isfinite(tr.norms).all() and tr.norms[-1] > 1.0


@pytest.mark.parametrize("gamma", [3.0, 6.0])
def test_long_absorbing_evolution_does_not_trip_guard(gamma):
    # at gamma = 6, ||P||_2 - 1 = 1.9e-11, so the bound ||P||^N over these
    # 60000 steps would exceed the 1e-6 slack; every power P^(2^j) is contractive
    m = build(family_b(200, 1.0, 1.5, 0.0, gamma))
    out = evolve(m, gaussian_packet(200, 50.0, 25.0, np.pi / 4.0), 600.0, dt=0.01)
    assert 0.0 < out.norm() < 1.0


def test_norm_trace_fields():
    m = build(legacy(6, 0.0, 1.5))
    tr = norm_trace(m, uniform_site(6), 0.055, dt=0.01)
    assert tr.norms[0] == 1.0
    assert tr.times[0] == 0.0
    # five full steps plus the shortened tail ending exactly at t_max
    assert len(tr.times) == 7
    assert tr.times[-1] == pytest.approx(0.055)
    assert tr.params["dt"] == 0.01


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("steps", [0, 1, 15, 16, 17, 256, 257])
def test_norm_trace_matches_per_step_reference(steps, tail):
    # the blocked trace against a plain loop applying the step operator once per step
    m = build(family_b(10, 1.5, 1.0, 0.0, 2.5))
    psi0 = gaussian_packet(10, 2.5, 1.25, np.pi / 4.0)
    dt = 0.01
    t = dt * steps + (0.4 * dt if tail else 0.0)
    tr = norm_trace(m, psi0, t, dt=dt)
    H = m.to_dense()
    P = _rk4(H, dt, np.eye(10))
    psi = psi0.amplitudes
    ref = [1.0]
    for _ in range(steps):
        psi = P @ psi
        ref.append(np.linalg.norm(psi))
    times = [dt * k for k in range(steps + 1)]
    if tail:
        ref.append(np.linalg.norm(_rk4(H, t - steps * dt, psi)))
        times.append(t)
    assert tr.times.tolist() == times
    np.testing.assert_allclose(tr.norms, ref, rtol=1e-12, atol=0.0)
    assert tr.norms[-1] == pytest.approx(evolve(m, psi0, t, dt=dt).norm(), rel=1e-12, abs=0.0)


def lossy_chain(rng, L, kind="gauged"):
    """Real non-reciprocal hoppings and imaginary gain or loss; ``kind`` breaks one."""
    d = 1j * rng.uniform(-0.5, 1.5, size=L) * rng.choice([-1.0, 1.0], size=L)
    u = rng.uniform(0.5, 1.5, size=L - 1).astype(complex)
    lo = rng.uniform(0.5, 1.5, size=L - 1).astype(complex)
    if kind == "complex hopping" and L > 1:
        u[rng.integers(L - 1)] += 0.3j
    elif kind == "real potential":
        d[rng.integers(L)] += 0.3
    return TridiagonalMatrix(d, u, lo)


def per_step_reference(m, psi0, t, dt):
    """Norms after every complex RK4 step of the dense H, and the final state."""
    H = m.to_dense()
    steps = int(np.floor(t / dt + 1e-9))
    psi, norms = psi0, [1.0]
    for _ in range(steps):
        psi = _rk4(H, dt, psi)
        norms.append(np.linalg.norm(psi))
    if t - steps * dt > 1e-12:
        psi = _rk4(H, t - steps * dt, psi)
        norms.append(np.linalg.norm(psi))
    return np.array(norms), psi


@pytest.mark.parametrize("kind", ["gauged", "complex hopping", "real potential"])
def test_gauge_matches_complex_reference(kind):
    # the real gauge exists exactly for real hoppings and imaginary potentials;
    # other chains run the same code in complex arithmetic
    rng = np.random.default_rng({"gauged": 41, "complex hopping": 42, "real potential": 43}[kind])
    Ls = [1, 2, 3, 4, 7, 10, 15, 24, 33, 40] if kind == "gauged" else [2, 5, 12, 21]
    dt = 0.01
    for L in Ls:
        m = lossy_chain(rng, L, kind)
        assert np.isrealobj(_gauge(m.to_dense())[0]) == (kind == "gauged")
        psi0 = rng.normal(size=L) + 1j * rng.normal(size=L)
        psi0 /= np.linalg.norm(psi0)
        t = dt * int(rng.integers(20, 400)) + 0.37 * dt
        ref, final = per_step_reference(m, psi0, t, dt)
        np.testing.assert_allclose(norm_trace(m, psi0, t, dt=dt).norms, ref, rtol=1e-12, atol=0)
        got = evolve(m, psi0, t, dt=dt).amplitudes
        assert np.linalg.norm(got - final) <= 1e-12 * np.linalg.norm(final)
        # a scan over the strength of the potentials, every point against its reference
        grid = [0.5, 1.0, 1.5]
        scale = lambda g: TridiagonalMatrix(g * m.diag, m.upper, m.lower)  # noqa: E731
        res = min_norm_gamma(scale, grid, kind="uniform_site", t_final=t, dt=dt)
        site = uniform_site(L).amplitudes
        for (g, g_eff, n), want in zip(res.rows, grid):
            assert g == g_eff == want
            assert n == pytest.approx(per_step_reference(scale(g), site, t, dt)[0][-1],
                                      rel=1e-12, abs=0.0)


def test_family_chains_take_the_real_gauge():
    for spec in (legacy(12, 0.3, 2.0), family_a(10, 0.2, 1.0, 0.4, 0.3),
                 family_b(22, 1.0, 1.5, 0.0, 3.0), family_c(24, 1.5, 1.5, 1.0, 0.0, 2.0),
                 family_d(12, 2.0, 1.0, 2.0)):
        assert np.isrealobj(_gauge(as_matrix(spec).to_dense())[0])
    # a complex edge term -i*beta puts a real part on the edge sites
    assert not np.isrealobj(_gauge(build(family_a(10, 0.2, 1.0, 0.4, 0.3 + 0.1j)).to_dense())[0])


def test_guard_skips_the_svd_when_every_bound_holds(monkeypatch):
    # the 2-norm guard runs on the chains whose squared bound no longer proves
    # contraction, and not at all when there are none
    stacks = []
    norm = np.linalg.norm

    def counted(x, ord=None, axis=None, **kw):
        if ord == 2:
            stacks.append(len(x))
        return norm(x, ord, axis, **kw)

    monkeypatch.setattr(np.linalg, "norm", counted)
    grid = np.linspace(2.0, 4.0, 9)
    min_norm_gamma(lambda g: family_b(12, 1.0, 1.5, 0.0, g), grid, kind="wavepacket")
    assert stacks and all(stacks)
    assert stacks[0] == len(grid)


@pytest.mark.parametrize("w, t_raise", [(1e-6, 31.9), (1e-12, 60.9), (1e-20, 95.7)])
def test_norm_trace_guard_names_first_growing_step(w, t_raise):
    # a lossy site decoupled from a hopping pair: at dt = 2.9 the pair grows by
    # |P| = 1.19 per step and the lossy site shrinks, so the norm first grows at
    # step 11, 21 or 33, past the first block of operator powers
    m = TridiagonalMatrix(np.array([-0.5j, 0.0, 0.0]), np.array([0.0, 1.0]),
                          np.array([0.0, 1.0]))
    psi0 = np.array([1.0, w, 0.0], dtype=complex)
    with pytest.raises(RuntimeError, match=rf"at t={t_raise:g}; .*dt is too large"):
        norm_trace(m, psi0 / np.linalg.norm(psi0), 200.0, dt=2.9)


def test_norm_trace_memory_stays_small():
    # a 12000-step trace keeps one block of operator powers, not one state per step
    m = build(family_b(40, 1.5, 1.0, 0.0, 3.0))
    psi0 = uniform_site(40)
    tracemalloc.start()
    try:
        tr = norm_trace(m, psi0, 120.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr.norms) == 12001
    assert peak < 2 * 1024 * 1024


def test_norm_trace_requires_unit_state():
    m = build(legacy(4, 0.0, 1.0))
    with pytest.raises(ValueError):
        norm_trace(m, np.ones(4, dtype=complex), 1.0)


def test_norm_trace_rejects_nonpositive_dt():
    m = build(legacy(4, 0.0, 1.0))
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt must be positive"):
            norm_trace(m, uniform_site(4), 1.0, dt=dt)


def test_nonfinite_step_and_time_rejected():
    m = build(legacy(4, 0.0, 1.0))
    builder = lambda g: legacy(4, 0.0, g)  # noqa: E731
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            evolve(m, uniform_site(4), 1.0, dt=bad)
        with pytest.raises(ValueError, match="finite"):
            evolve(m, uniform_site(4), bad)
        with pytest.raises(ValueError, match="finite"):
            norm_trace(m, uniform_site(4), 1.0, dt=bad)
        with pytest.raises(ValueError, match="finite"):
            norm_trace(m, uniform_site(4), bad)
        with pytest.raises(ValueError, match="finite"):
            min_norm_gamma(builder, [1.0, 2.0], t_final=1.0, dt=bad)
        with pytest.raises(ValueError, match="finite"):
            min_norm_gamma(builder, [1.0, 2.0], t_final=bad)


def test_nonfinite_packet_and_state_rejected():
    for j0, sigma, p in ((np.nan, 2.0, 0.0), (4.0, np.nan, 0.0), (4.0, np.inf, 0.0),
                         (4.0, 2.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            gaussian_packet(8, j0, sigma, p)
    m = build(legacy(4, 0.0, 1.0))
    with pytest.raises(ValueError, match="unit norm"):
        norm_trace(m, np.full(4, np.nan, dtype=complex), 1.0)


def test_decay_pairing_inequality():
    # 2 e^{-x} <= e^{-x-d} + e^{-x+d}: splitting a decay rate never helps
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = float(rng.uniform(0.0, 10.0))
        dlt = float(rng.uniform(0.0, 5.0))
        assert 2.0 * np.exp(-x) <= np.exp(-x - dlt) + np.exp(-x + dlt) + 1e-15


def test_approx_norm_exact_for_hermitian():
    rng = np.random.default_rng(3)
    m = hermitian_chain(rng, 8)
    psi0 = gaussian_packet(8, 3.0, 2.0, 0.5)
    tr = norm_trace(m, psi0, 2.0)
    est = approx_norm(spectrum(m), psi0, 2.0)
    assert abs(est - tr.norms[-1]) < 1e-8


def test_approx_norm_accurate_when_overlaps_vanish():
    # strong coupling: eigenvectors near-orthogonal, diagonal terms suffice
    m = build(family_b(10, 1.5, 1.0, 0.0, 50.0))
    psi0 = uniform_site(10)
    exact = norm_trace(m, psi0, 30.0).norms[-1]
    est = approx_norm(spectrum(m), psi0, 30.0)
    assert abs(est - exact) / exact < 0.05


def test_approx_norm_fails_near_coalescence():
    # strongly non-orthogonal eigenvectors: cross terms dominate
    m = build(family_b(10, 1.5, 1.0, 0.0, 2.9))
    psi0 = uniform_site(10)
    exact = norm_trace(m, psi0, 30.0).norms[-1]
    est = approx_norm(spectrum(m), psi0, 30.0)
    assert abs(est - exact) / exact > 0.5


def test_min_norm_gamma_agrees_with_single_runs():
    grid = np.linspace(2.0, 4.0, 5)
    res = min_norm_gamma(
        lambda g: family_b(10, 1.5, 1.0, 0.0, g), grid, kind="wavepacket", t_final=8.0
    )
    assert [g for g, _, _ in res.rows] == pytest.approx(list(grid))
    for g, g_eff, n in res.rows:
        assert g_eff == g
        single = evolve(
            build(family_b(10, 1.5, 1.0, 0.0, g)),
            gaussian_packet(10, 2.5, 1.25, np.pi / 4.0),
            8.0,
        ).norm()
        assert abs(n - single) <= 1e-12
    finals = [n for _, _, n in res.rows]
    assert res.gamma_star == grid[int(np.argmin(finals))]


def test_min_norm_gamma_detunes_defective_points():
    grid = [2.5, 3.0, 3.5]
    res = min_norm_gamma(
        lambda g: family_b(10, 1.5, 1.0, 0.0, g),
        grid,
        kind="uniform_eigen",
        t_final=5.0,
    )
    effective = {g: g_eff for g, g_eff, _ in res.rows}
    assert effective[2.5] == 2.5
    assert effective[3.5] == 3.5
    assert effective[3.0] == pytest.approx(3.000001)


def test_uniform_eigen_scan_takes_no_basis_svd(monkeypatch):
    # the defect test reads repeated eigenvalues; it never factors the eigenbasis
    calls = []
    svd = Spectrum.min_basis_singular_value

    def counted(self):
        calls.append(self.L)
        return svd(self)

    monkeypatch.setattr(Spectrum, "min_basis_singular_value", counted)
    grid = [2.0, 2.5, 3.0, 3.5, 4.0]
    res = min_norm_gamma(lambda g: family_b(10, 1.5, 1.0, 0.0, g), grid,
                         kind="uniform_eigen", t_final=1.0)
    detuned = [g for g, g_eff, _ in res.rows if g_eff != g]
    assert detuned == [3.0]
    assert calls == []


def test_min_norm_gamma_validation():
    builder = lambda g: family_b(10, 1.5, 1.0, 0.0, g)  # noqa: E731
    with pytest.raises(ValueError):
        min_norm_gamma(builder, [], kind="wavepacket")
    with pytest.raises(ValueError):
        min_norm_gamma(builder, [1.0, 2.0], kind="plane-wave")
    with pytest.raises(ValueError):
        min_norm_gamma(
            lambda g: legacy(4 if g < 1 else 6, 0.0, g), [0.5, 2.0], t_final=0.1
        )
