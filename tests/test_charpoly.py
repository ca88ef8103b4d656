"""Characteristic-polynomial machinery: minors, transfer matrices, certificates."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcspectra.chain import (
    CentralBlock,
    ChainSpec,
    TridiagonalMatrix,
    build,
    family_a,
    family_b,
    family_d,
    legacy,
    pc_delta,
    random_spec,
)
from pcspectra.charpoly import (
    Poly,
    charpoly_oracle,
    principal_minors,
    square_factor,
    transfer_A,
    transfer_T,
    verify_at_relation,
    verify_pc,
    verify_power,
)


def random_matrix(rng, L):
    d = rng.normal(size=L) + 1j * rng.normal(size=L)
    u = rng.normal(size=max(L - 1, 0)) + 1j * rng.normal(size=max(L - 1, 0))
    lo = rng.normal(size=max(L - 1, 0)) + 1j * rng.normal(size=max(L - 1, 0))
    return TridiagonalMatrix(d, u, lo)


def restricted_spec(k, seed, alpha=-1.2, gamma=1.0):
    delta = pc_delta(alpha, gamma)
    return random_spec(k, seed, 1.0, CentralBlock(alpha, gamma, delta, delta))


def rel_diff(p: Poly, q: Poly) -> float:
    return (p - q).norm() / max(1.0, q.norm())


def scaled(spec: ChainSpec, s: float) -> ChainSpec:
    """The same chain with every matrix entry multiplied by s."""
    blk = spec.central
    central = CentralBlock(*(s * z for z in (blk.alpha, blk.gamma, blk.delta_upper,
                                             blk.delta_lower)))
    arm = [tuple(s * z for z in xs) for xs in (spec.a, spec.b, spec.c)]
    return ChainSpec(spec.k, *arm, central, spec.flip_mask, s * spec.edge_beta)


properties = settings(max_examples=60, deadline=None, derandomize=True)
scales = st.integers(-6, 6).map(lambda e: 10.0**e)


# --- polynomial arithmetic ---------------------------------------------------


def test_poly_product_and_eval():
    p = Poly([1.0, 1.0])   # lambda + 1
    q = Poly([-1.0, 1.0])  # lambda - 1
    prod = p * q
    assert prod.degree == 2
    assert prod(2.0) == pytest.approx(3.0)
    assert prod(1j) == pytest.approx(-2.0)
    assert (p - p).is_zero


def test_poly_eval_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(30):
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        p = Poly(coeffs)
        x = complex(rng.normal(), rng.normal())
        want = np.polyval(coeffs[::-1], x)
        assert p(x) == pytest.approx(want)


def test_poly_keeps_every_coefficient():
    p = Poly([1.0, 1.0, 1e-20])
    assert p.degree == 2 and p.coeffs[-1] == 1e-20
    assert (p - p).degree == 2 and (p - p).is_zero


# --- principal minors ---------------------------------------------------------


def test_minors_base_cases():
    m = TridiagonalMatrix(np.array([-2j]), np.array([]), np.array([]))
    ps = principal_minors(m)
    assert ps[0].degree == 0 and ps[0](0.0) == 1.0
    assert rel_diff(ps[1], Poly([2j, 1.0])) < 1e-15


def test_minors_two_site_double_root():
    ps = principal_minors(build(legacy(2, 0.0, 2.0)))
    # determinant (lambda + i)^2
    want = Poly([1j, 1.0]) * Poly([1j, 1.0])
    assert rel_diff(ps[2], want) < 1e-14


def test_minors_match_leading_block_determinants():
    rng = np.random.default_rng(23)
    for _ in range(25):
        L = int(rng.integers(2, 8))
        m = random_matrix(rng, L)
        ps = principal_minors(m)
        dense = m.to_dense()
        for n in range(1, L + 1):
            x = complex(rng.normal(), rng.normal())
            block = x * np.eye(n) - dense[:n, :n]
            assert ps[n](x) == pytest.approx(np.linalg.det(block), rel=1e-8, abs=1e-8)


@properties
@given(
    k=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    sigma=st.sampled_from([0.3, 1.0, 3.0]),
    s=scales,
)
def test_minors_keep_monic_degree_at_every_scale(k, seed, sigma, s):
    m = build(scaled(random_spec(k, seed, sigma), s))
    # the low coefficients of long chains at norm ~1e7 overflow to inf, which
    # raises; wherever minors are returned, length and leading coefficient hold
    with np.errstate(over="ignore", invalid="ignore"):
        overflows = not all(np.isfinite(q.coeffs).all() for q in poly_minors(m))
    if overflows:
        with pytest.raises(OverflowError):
            principal_minors(m)
        return
    for n, p in enumerate(principal_minors(m)):
        assert len(p.coeffs) == n + 1
        assert p.coeffs[-1] == 1.0


def poly_minors(m: TridiagonalMatrix) -> list[Poly]:
    """Reference: the three-term recurrence written on Poly arithmetic."""
    d, u, low = m.diag, m.upper, m.lower
    minors = [Poly([1.0]), Poly([-d[0], 1.0])]
    for n in range(2, m.L + 1):
        minors.append(Poly([-d[n - 1], 1.0]) * minors[n - 1]
                      - u[n - 2] * low[n - 2] * minors[n - 2])
    return minors


def poly_residual(spec: ChainSpec) -> float:
    """Reference: the symbolic residual of verify_pc, on Poly arithmetic."""
    m = build(spec)
    s = m.inf_norm() or 1.0
    ps = poly_minors(TridiagonalMatrix(m.diag / s, m.upper / s, m.lower / s))
    blk, k = spec.central, spec.k
    F = ps[k] + 1j * (blk.gamma - blk.alpha) / (2.0 * s) * ps[k - 1]
    return (ps[2 * k] - F * F).norm() / ps[2 * k].norm()


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0, 7.0])
def test_minors_and_residuals_bitwise_equal_poly_recurrence(sigma):
    rng = np.random.default_rng(int(10 * sigma))
    specs = [family_b(40, 30, 20, 0, 40)]
    for k in range(1, 41):
        alpha, gamma = rng.normal(size=2)
        delta = pc_delta(alpha, gamma)
        for detune in (0.0, 1e-3):
            blk = CentralBlock(alpha, gamma + detune, delta, delta)
            spec = (ChainSpec(1, (), (), (), blk) if k == 1
                    else random_spec(k, int(rng.integers(2**31)), sigma, blk))
            specs.append(spec)
            if k % 2:
                specs.append(spec.with_flip_mask(rng.integers(0, 2, size=2 * k - 2) > 0))
    specs += [scaled(spec, s) for spec in specs[::4] for s in (1e-6, 1e6)]
    for spec in specs:
        m = build(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            want = poly_minors(m)
        # long chains at 1e6 scale overflow, which raises; otherwise every bit agrees
        if all(np.isfinite(q.coeffs).all() for q in want):
            for n, (p, q) in enumerate(zip(principal_minors(m), want)):
                assert len(p.coeffs) == n + 1 and p.coeffs[-1] == 1.0
                assert p.coeffs.tobytes() == q.coeffs.tobytes()
        else:
            with pytest.raises(OverflowError):
                principal_minors(m)
        v = verify_pc(spec)
        assert v.mode == "symbolic" and type(v.residual) is float
        assert v.residual == poly_residual(spec)


def test_minors_keep_only_their_own_coefficients():
    # each minor is its own array: views into one (L+1)^2 table would keep
    # the whole table alive as long as any minor is kept
    L = 80
    m = build(random_spec(L // 2, 4))
    principal_minors(m)
    tracemalloc.start()
    try:
        minors = principal_minors(m)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    coefficients = sum(16 * (n + 1) for n in range(L + 1))
    assert len(minors) == L + 1
    assert kept < coefficients + 384 * (L + 1) < 16 * (L + 1) ** 2


def test_minors_agree_with_trace_recursion_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        L = int(rng.integers(1, 11))
        m = random_matrix(rng, L)
        assert rel_diff(principal_minors(m)[L], charpoly_oracle(m)) < 1e-10


def test_oracle_guard_rejects_large_matrices():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        charpoly_oracle(random_matrix(rng, 13))


def test_oracle_diagonal_case():
    m = TridiagonalMatrix(np.array([1.0, 2.0]), np.array([0.0]), np.array([0.0]))
    want = Poly([-1.0, 1.0]) * Poly([-2.0, 1.0])
    assert rel_diff(charpoly_oracle(m), want) < 1e-14


# --- transfer-matrix identities ----------------------------------------------


def test_transfer_base_case_entries():
    spec = random_spec(2, seed=4)
    t = transfer_T(spec)
    a = transfer_A(spec)
    lam_plus_a1 = Poly([spec.a[0], 1.0])
    eta1 = spec.b[0] * spec.c[0]
    assert rel_diff(t[0, 0], lam_plus_a1) < 1e-15
    assert rel_diff(t[0, 1], Poly([-eta1])) < 1e-15
    assert rel_diff(t[1, 0], Poly([1.0])) < 1e-15
    assert rel_diff(a[0, 0], lam_plus_a1) < 1e-15
    assert rel_diff(a[0, 1], Poly([1.0])) < 1e-15
    assert a[1, 0].is_zero


@pytest.mark.parametrize("k", [2, 3, 5, 8, 13, 16])
def test_transfer_entry_relation_small_residual(k):
    for seed in range(50):
        spec = random_spec(k, seed=1000 * k + seed)
        assert verify_at_relation(spec) < 1e-10


def test_transfer_relation_degenerate_bond():
    spec = random_spec(3, seed=8)
    b = np.array(spec.b)
    b[-1] = 0.0
    degenerate = type(spec)(spec.k, spec.a, tuple(b), spec.c, spec.central)
    with pytest.raises(ValueError):
        verify_at_relation(degenerate)


def test_transfer_matrices_need_an_arm():
    from pcspectra.chain import ChainSpec

    single = ChainSpec(1, (), (), (), CentralBlock(0.0, 2.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        transfer_T(single)
    with pytest.raises(ValueError):
        transfer_A(single)


# --- structural identities ---------------------------------------------------


def test_split_identity_at_center():
    """P_L = P_{k+1} P_{k-1} - eta_{k-1} P_k P_{k-2} for any central block."""
    rng = np.random.default_rng(31)
    for seed in range(40):
        k = int(rng.integers(2, 6))
        central = CentralBlock(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
        )
        spec = random_spec(k, seed=seed, central=central)
        ps = principal_minors(build(spec))
        eta = spec.b[k - 2] * spec.c[k - 2] if k >= 2 else 0.0
        left = ps[2 * k]
        right = ps[k + 1] * ps[k - 1] - Poly([eta]) * ps[k] * ps[k - 2]
        assert rel_diff(left, right) < 1e-10


def test_central_row_recursions_restricted():
    for seed in range(40):
        spec = restricted_spec(4, seed, alpha=-0.7, gamma=1.9)
        k = spec.k
        ps = principal_minors(build(spec))
        alpha, gamma = spec.central.alpha.real, spec.central.gamma.real
        eta = spec.b[k - 2] * spec.c[k - 2]
        step_in = Poly([1j * alpha, 1.0]) * ps[k - 1] - Poly([eta]) * ps[k - 2]
        assert rel_diff(ps[k], step_in) < 1e-10
        half = ((gamma - alpha) / 2.0) ** 2
        step_out = Poly([1j * gamma, 1.0]) * ps[k] - Poly([half]) * ps[k - 1]
        assert rel_diff(ps[k + 1], step_out) < 1e-10


def test_minors_invariant_under_flip_mask():
    rng = np.random.default_rng(77)
    for seed in range(50):
        k = int(rng.integers(2, 6))
        spec = random_spec(k, seed=seed)
        mask = tuple(bool(b) for b in rng.integers(0, 2, size=2 * k - 2))
        ps0 = principal_minors(build(spec))
        ps1 = principal_minors(build(spec.with_flip_mask(mask)))
        for p0, p1 in zip(ps0, ps1):
            assert rel_diff(p0, p1) < 1e-12


# --- square certificates -------------------------------------------------------


def test_square_factor_two_site():
    f = square_factor(legacy(2, 0.0, 2.0))
    assert rel_diff(f, Poly([1j, 1.0])) < 1e-14


def test_square_factor_squares_to_determinant():
    for L, alpha, gamma, delta in [
        (10, 0.0, 2.0, 1.0),
        (10, 1.5, 2.0, -0.25),
        (40, 0.0, 2.0, 1.0),
    ]:
        spec = family_a(L, alpha, gamma, delta)
        f = square_factor(spec)
        pl = principal_minors(build(spec))[L]
        assert rel_diff(f * f, pl) < 1e-10


def test_square_factor_requires_tuned_block():
    with pytest.raises(ValueError):
        square_factor(family_a(10, 0.0, 2.5, 1.0))  # detuned
    spec = random_spec(5, seed=2, central=CentralBlock(0.0, 2.0, 2.0, 0.5))
    with pytest.raises(ValueError):
        square_factor(spec)  # not in restricted form, despite the EP product


@pytest.mark.filterwarnings("error")  # the overflow is reported once, as the error
def test_overflowing_minors_raise():
    # ||H||_inf = 5.5e6 at L = 104: P_L and F overflow, the scaled certificate does not
    spec = family_b(104, 1e6, 1.5e6, 0.0, 3e6)
    with pytest.raises(OverflowError):
        principal_minors(build(spec))
    with pytest.raises(OverflowError):
        square_factor(spec)
    result = verify_pc(spec)
    assert result.mode == "symbolic" and result.certified
    # at 5.5e4 only P_L overflows; F needs the minors up to P_k alone
    spec = family_b(104, 1e4, 1.5e4, 0.0, 3e4)
    with pytest.raises(OverflowError):
        principal_minors(build(spec))
    assert np.isfinite(square_factor(spec).coeffs).all()


def test_verify_pc_symbolic_accepts_and_rejects():
    for seed in range(25):
        result = verify_pc(restricted_spec(5, seed))
        assert result.mode == "symbolic"
        assert result.certified
        assert result.residual < 1e-8
    detuned = restricted_spec(5, 0).with_central(
        CentralBlock(-1.2, 1.3, pc_delta(-1.2, 1.0), pc_delta(-1.2, 1.0))
    )
    result = verify_pc(detuned)
    assert result.mode == "symbolic"
    assert not result.certified
    assert result.residual > 1e-3


@properties
@given(
    k=st.integers(2, 20),
    seed=st.integers(0, 2**16),
    sigma=st.sampled_from([0.3, 1.0, 3.0]),
    detune=st.sampled_from([1.0, 1.5]),
    s=scales,
)
def test_verify_pc_verdict_is_scale_free(k, seed, sigma, detune, s):
    delta = detune * pc_delta(-1.2, 1.0)
    spec = random_spec(k, seed, sigma, CentralBlock(-1.2, 1.0, delta, delta))
    big = scaled(spec, s)
    assert np.allclose(build(big).to_dense(), s * build(spec).to_dense(), rtol=1e-15, atol=0)
    assert verify_pc(big).certified == verify_pc(spec).certified == (detune == 1.0)


def test_verify_pc_numeric_path_for_raw_matrices():
    result = verify_pc(family_d(12, 2.0, 2.0, 2.0))
    assert result.mode == "numeric"
    assert result.certified
    broken = verify_pc(family_d(12, 2.0, 2.0, 1.0))  # gamma1 != gamma3
    assert broken.mode == "numeric"
    assert not broken.certified


def test_verify_pc_certified_implies_half_spectrum():
    from pcspectra.eig import distinct_count, eigenvalues

    for L in (10, 20, 40):
        spec = family_a(L, 0.0, 2.0, 1.0)
        assert verify_pc(spec).certified
        assert distinct_count(eigenvalues(build(spec))) == L // 2


def test_verify_power_orders():
    m = family_d(12, 2.0, 1.0, 2.0)
    assert verify_power(m, 4, tol=1e-3)
    assert verify_power(m, 2, tol=1e-3)
    assert not verify_power(m, 8, tol=1e-3)
    with pytest.raises(ValueError):
        verify_power(m, 3)
    hermitian = TridiagonalMatrix(
        np.zeros(4), np.ones(3), np.ones(3)
    )
    assert not verify_power(hermitian, 2)


def test_verify_power_is_scale_free():
    # the unscaled characteristic polynomial of the large copy overflows
    m = family_d(60, 2.0, 1.0, 2.0)
    c = 1e6
    big = TridiagonalMatrix(c * m.diag, c * m.upper, c * m.lower)
    assert verify_power(m, 4, tol=1e-3)
    assert verify_power(big, 4, tol=1e-3 * c)
