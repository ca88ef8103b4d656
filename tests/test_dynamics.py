"""Time evolution: initial states, RK4 propagation, norm traces, minimum scans."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from pcspectra.chain import TridiagonalMatrix, build, family_b, legacy
from pcspectra.dynamics import (
    approx_norm,
    evolve,
    gaussian_packet,
    min_norm_gamma,
    norm_trace,
    uniform_eigen,
    uniform_site,
)
from pcspectra.eig import spectrum


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
    s = spectrum(build(family_b(10, 1.5, 1.0, 0.0, 3.0)))
    with pytest.raises(ValueError):
        uniform_eigen(s)


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


def test_norm_trace_fields():
    m = build(legacy(6, 0.0, 1.5))
    tr = norm_trace(m, uniform_site(6), 0.055, dt=0.01)
    assert tr.norms[0] == 1.0
    assert tr.times[0] == 0.0
    # five full steps plus the shortened tail ending exactly at t_max
    assert len(tr.times) == 7
    assert tr.times[-1] == pytest.approx(0.055)
    assert tr.params["dt"] == 0.01


def test_norm_trace_requires_unit_state():
    m = build(legacy(4, 0.0, 1.0))
    with pytest.raises(ValueError):
        norm_trace(m, np.ones(4, dtype=complex), 1.0)


def test_norm_trace_rejects_nonpositive_dt():
    m = build(legacy(4, 0.0, 1.0))
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt must be positive"):
            norm_trace(m, uniform_site(4), 1.0, dt=dt)


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
