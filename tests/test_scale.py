"""Scale covariance: every verdict is unchanged when the chain is multiplied by c.

Multiplying every matrix entry by a power of two, and time by its inverse,
rounds nothing, so each result must match bitwise: verdicts are equal,
eigenvalues are c times the scale-1 values, and norms are equal.

Left out on purpose: the verdicts that cluster eigenvalues at the absolute
scale ``tol_distinct`` -- the numeric path of ``verify_pc``, ``verify_power``
and ``distinct_count``.  Their scale is an interface decision of its own.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcspectra.chain import (
    CentralBlock,
    ChainSpec,
    TridiagonalMatrix,
    build,
    check_symmetry,
    family_b,
    pc_delta,
    random_spec,
)
from pcspectra.charpoly import square_factor, verify_at_relation, verify_pc
from pcspectra.dynamics import evolve, norm_trace, uniform_eigen, uniform_site
from pcspectra.eig import eigenvalues, spectrum

SCALES = (2.0**-20, 1.0, 2.0**20)


def scaled(spec: ChainSpec, c: float) -> ChainSpec:
    """The same chain with every matrix entry multiplied by c."""
    blk = spec.central
    central = CentralBlock(*(c * z for z in (blk.alpha, blk.gamma, blk.delta_upper,
                                             blk.delta_lower)))
    arm = [tuple(c * z for z in xs) for xs in (spec.a, spec.b, spec.c)]
    return ChainSpec(spec.k, *arm, central, spec.flip_mask, c * spec.edge_beta)


def scaled_matrix(m: TridiagonalMatrix, c: float) -> TridiagonalMatrix:
    return TridiagonalMatrix(c * m.diag, c * m.upper, c * m.lower)


@st.composite
def mirrored_chains(draw) -> ChainSpec:
    """Random mirrored chain: random flip mask, restricted or complex central block."""
    k = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    detune = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-11, 1e-6]))
    if draw(st.booleans()):
        alpha, gamma = rng.normal(size=2)
        delta = pc_delta(alpha, gamma) * (1 + detune)
        central = CentralBlock(alpha, gamma, delta, delta)
    else:
        alpha, gamma = (complex(z) for z in rng.normal(size=2) + 1j * rng.normal(size=2))
        # Delta = delta^2 + du*dl vanishes exactly for du = dl = i*delta
        du = 1j * (-1j * alpha - -1j * gamma) / 2
        central = CentralBlock(alpha, gamma, du, du * (1 + detune))
    spec = random_spec(k, int(rng.integers(2**16)), 1.0, central)
    return spec.with_flip_mask(rng.integers(0, 2, size=2 * k - 2) > 0)


def outcome(f, *args, **kwargs):
    """f's result, or the type of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def assert_same(got, ref, equal) -> None:
    """Both outcomes raised the same exception, or ``equal(got, ref)`` holds."""
    if isinstance(ref, type):
        assert got is ref
    else:
        assert not isinstance(got, type) and equal(got, ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=mirrored_chains(), bend=st.sampled_from([0.0, 1e-11, 1e-8]))
def test_verdicts_are_scale_covariant(spec, bend):
    m = build(spec)
    bent = TridiagonalMatrix(m.diag + np.eye(m.L)[0] * bend * m.inf_norm(), m.upper, m.lower)
    eigs = eigenvalues(m)
    F = outcome(square_factor, spec)
    state = outcome(uniform_eigen, spectrum(m))
    for c in SCALES:
        spec_c, m_c = scaled(spec, c), build(scaled(spec, c))
        assert np.array_equal(m_c.to_dense(), c * m.to_dense())
        assert check_symmetry(scaled_matrix(bent, c)) == check_symmetry(bent)
        assert spec_c.central.is_restricted == spec.central.is_restricted
        # coefficient j of the degree-k factor scales as c^(k - j)
        assert_same(outcome(square_factor, spec_c), F, lambda G, F: np.array_equal(
            G.coeffs, F.coeffs * c ** np.arange(spec.k, -1, -1)))
        if spec.central.is_restricted:
            assert verify_pc(spec_c).residual == verify_pc(spec).residual
        assert verify_at_relation(spec_c) == verify_at_relation(spec)
        assert np.array_equal(eigenvalues(m_c), c * eigs)
        assert_same(outcome(uniform_eigen, spectrum(m_c)), state,
                    lambda a, b: np.array_equal(a.amplitudes, b.amplitudes))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=mirrored_chains(), t=st.sampled_from([1.0, 1.05, 0.33]))
def test_dynamics_is_scale_covariant(spec, t):
    m, psi = build(spec), uniform_site(2 * spec.k)
    ref_trace = outcome(norm_trace, m, psi, t, dt=0.03)
    ref_final = outcome(evolve, m, psi, t, dt=0.03)
    for c in SCALES:
        m_c = scaled_matrix(m, c)
        assert_same(outcome(norm_trace, m_c, psi, t / c, dt=0.03 / c), ref_trace,
                    lambda a, b: np.array_equal(a.times * c, b.times)
                    and np.array_equal(a.norms, b.norms))
        assert_same(outcome(evolve, m_c, psi, t / c, dt=0.03 / c), ref_final,
                    lambda a, b: np.array_equal(a.amplitudes, b.amplitudes))


# --- verdicts that an absolute floor or cutoff once decided --------------------


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("part", ["site", "bond"])
def test_small_chain_asymmetry_is_seen(c, part):
    m = build(family_b(12, c, 1.5 * c, 0.0, 3.0 * c))
    diag, upper = m.diag.copy(), m.upper.copy()
    if part == "site":
        diag[0] += 1e-3 * c
    else:
        upper[0] *= 1.001
    assert check_symmetry(TridiagonalMatrix(diag, upper, m.lower)).status == "none"


@pytest.mark.parametrize("c", SCALES)
def test_small_block_off_its_ep_has_no_square_factor(c):
    with pytest.raises(ValueError, match="exceptional point"):
        square_factor(family_b(12, c, 1.5 * c, 0.0, 3.0 * c * (1 + 1e-4)))


@pytest.mark.parametrize("c", SCALES)
def test_small_complex_block_is_not_restricted(c):
    assert not CentralBlock(0.3 * c, 1.7 * c + 1e-9j * c, 0.7 * c, 0.7 * c).is_restricted


@pytest.mark.parametrize("c", SCALES)
def test_small_gain_is_not_absorbing(c):
    # a gain of 1e-6 c grows the norm legitimately; it is no sign of a bad dt
    m = build(family_b(10, 1.0, 1.5, 0.0, 0.0))
    diag = m.diag.copy()
    diag[0] += 1e-6j
    gained = TridiagonalMatrix(c * diag, c * m.upper, c * m.lower)
    final = evolve(gained, uniform_site(10), 300.0 / c, dt=0.01 / c)
    assert final.norm() > 1.0


@pytest.mark.parametrize("c", SCALES)
def test_rounding_remainder_takes_no_tail_step(c):
    # 0.33 / 0.03 is 11 up to rounding: twelve samples, the last at t_max
    m = scaled_matrix(build(family_b(10, 1.0, 1.5, 0.0, 3.0)), c)
    tr = norm_trace(m, uniform_site(10), 0.33 / c, dt=0.03 / c)
    assert len(tr.times) == 12
    assert np.all(np.diff(tr.times) > 0)
