"""Chain construction: families, symmetry checking, JSON round-trips."""
from __future__ import annotations

import numpy as np
import pytest

from pcspectra.chain import (
    CentralBlock,
    ChainSpec,
    TridiagonalMatrix,
    build,
    check_symmetry,
    ep_residual,
    family_a,
    family_b,
    family_c,
    family_d,
    legacy,
    pc_delta,
    random_spec,
    spec_from_json,
    spec_to_json,
)


def test_legacy_two_site_dense():
    m = build(legacy(2, 0.0, 2.0))
    expected = np.array([[0.0, -1.0], [-1.0, -2.0j]])
    assert np.allclose(m.to_dense(), expected)


def test_legacy_marks_family():
    spec = legacy(10, -1.0, 1.0)
    assert spec.meta["family"] == "legacy"
    assert spec.L == 10


def test_pc_delta_signs():
    assert pc_delta(0.0, 2.0) == pytest.approx(1.0)
    assert pc_delta(0.0, 2.0, sign=-1) == pytest.approx(-1.0)
    assert pc_delta(-1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pc_delta(0.0, 2.0, sign=0)


def test_central_block_ep_residual():
    at = CentralBlock(0.0, 2.0, 1.0, 1.0)
    off = CentralBlock(0.0, 2.0, 1.1, 1.0)
    assert ep_residual(at) < 1e-15
    assert ep_residual(off) > 0.05
    assert at.is_restricted
    assert not CentralBlock(0.0, 2.0, 1.0, 0.5).is_restricted
    assert not CentralBlock(1j, 2.0, 1.0, 1.0).is_restricted


def test_build_places_central_block():
    block = CentralBlock(0.7, 1.9, 0.6, 0.25)
    spec = random_spec(4, seed=11, central=block)
    m = build(spec)
    k = spec.k
    dense = m.to_dense()
    assert dense[k - 1, k - 1] == pytest.approx(-1j * 0.7)
    assert dense[k, k] == pytest.approx(-1j * 1.9)
    assert dense[k - 1, k] == pytest.approx(-0.6)
    assert dense[k, k - 1] == pytest.approx(-0.25)


def test_family_a_uniform_arms():
    spec = family_a(10, 0.0, 2.0, 1.0)
    m = build(spec)
    assert m.L == 10
    # every bond has strength 1 in both directions
    assert np.allclose(np.abs(m.upper), 1.0)
    assert np.allclose(np.abs(m.lower), 1.0)
    assert np.allclose(m.diag[:4], 0.0)
    assert m.diag[4] == pytest.approx(0.0)
    assert m.diag[5] == pytest.approx(-2.0j)


def test_family_a_edge_term_on_both_ends():
    beta = 0.3 - 0.1j
    m = build(family_a(8, 0.0, 2.0, 1.0, beta))
    m0 = build(family_a(8, 0.0, 2.0, 1.0))
    dense, dense0 = m.to_dense(), m0.to_dense()
    assert dense[0, 0] - dense0[0, 0] == pytest.approx(-1j * beta)
    assert dense[7, 7] - dense0[7, 7] == pytest.approx(-1j * beta)
    assert np.allclose(dense - np.diag(np.diag(dense)), dense0 - np.diag(np.diag(dense0)))


def test_family_b_alternating_bonds():
    # L=12: k=6 bonds from the left are J1 J2 J1 J2 J1, then the central
    # bond is J2 (even k); mirror on the right.
    m = build(family_b(12, 1.0, 1.5, 0.0, 2.0))
    strengths = np.abs(m.upper)
    assert np.allclose(strengths, [1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0])
    # L=10: k=5 odd, central bond takes J1
    m = build(family_b(10, 1.5, 1.0, 0.0, 3.0))
    assert np.abs(m.upper[4]) == pytest.approx(1.5)


def test_family_b_length_validation():
    with pytest.raises(ValueError):
        family_b(11, 1.0, 1.5, 0.0, 2.0)
    with pytest.raises(ValueError):
        family_b(0, 1.0, 1.5, 0.0, 2.0)


def test_family_c_period_three_bonds():
    spec = family_c(30, 1.5, 1.5, 1.0, 0.0, 2.0)
    m = build(spec)
    # arm bonds j = 1..14: strength J2 on every third bond, J1 elsewhere
    for j in range(1, 15):
        want = 1.5  # J1 == J2 here, so just check the central bond below
        assert np.abs(m.upper[j - 1]) == pytest.approx(want)
    assert np.abs(m.upper[14]) == pytest.approx(1.0)  # central bond Jc
    with pytest.raises(ValueError):
        family_c(20, 1.0, 1.0, 1.0, 0.0, 2.0)


def test_family_c_distinguishes_bond_classes():
    m = build(family_c(12, 2.0, 0.5, 1.0, 0.0, 2.0))
    arm = np.abs(m.upper[:5])
    # bonds 1..5: J1 J1 J2 J1 J1 (bond 3 is the third)
    assert np.allclose(arm, [2.0, 2.0, 0.5, 2.0, 2.0])


def test_family_d_layout():
    gamma1, gamma2, gamma3 = 2.0, 1.3, 0.7
    m = family_d(12, gamma1, gamma2, gamma3)
    assert isinstance(m, TridiagonalMatrix)
    dense = m.to_dense()
    mq = 3  # L/4
    # gain/loss pair around the central bond
    assert dense[2 * mq - 1, 2 * mq - 1] == pytest.approx(-1j * gamma2)
    assert dense[2 * mq, 2 * mq] == pytest.approx(1j * gamma2)
    assert dense[2 * mq - 1, 2 * mq] == pytest.approx(-gamma2)
    assert dense[2 * mq, 2 * mq - 1] == pytest.approx(-gamma2)
    # lone losses at sites m and 3m+1 (1-based)
    assert dense[mq - 1, mq - 1] == pytest.approx(-1j * gamma1)
    assert dense[3 * mq, 3 * mq] == pytest.approx(-1j * gamma3)
    # all other hoppings are unit strength
    off = [abs(dense[i, i + 1]) for i in range(11) if i != 2 * mq - 1]
    assert np.allclose(off, 1.0)
    with pytest.raises(ValueError):
        family_d(10, 1.0, 1.0, 1.0)


def test_random_spec_deterministic():
    a = random_spec(5, seed=42)
    b = random_spec(5, seed=42)
    c = random_spec(5, seed=43)
    assert np.array_equal(a.a, b.a)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.c, b.c)
    assert not np.array_equal(a.a, c.a)
    assert a.meta["seed"] == 42


def test_spec_validation_rejects_bad_shapes():
    good = random_spec(4, seed=0)
    with pytest.raises(ValueError):
        ChainSpec(4, good.a[:-1], good.b, good.c, good.central)
    with pytest.raises(ValueError):
        ChainSpec(4, good.a, good.b[:-1], good.c, good.central)
    with pytest.raises(ValueError):
        ChainSpec(0, (), (), (), good.central)
    with pytest.raises(ValueError):
        good.with_flip_mask((True,) * 5)  # needs 2k-2 = 6 entries


def test_flip_mask_swaps_bond_direction():
    spec = random_spec(3, seed=7)
    no_flip = spec.with_flip_mask((False,) * 4)
    flipped = spec.with_flip_mask((True, False, False, False))
    m0, m1 = build(no_flip), build(flipped)
    assert m0.upper[0] == pytest.approx(-spec.b[0])
    assert m0.lower[0] == pytest.approx(-spec.c[0])
    assert m1.upper[0] == pytest.approx(-spec.c[0])
    assert m1.lower[0] == pytest.approx(-spec.b[0])
    # the bond product is flip-invariant
    assert m0.upper[0] * m0.lower[0] == pytest.approx(m1.upper[0] * m1.lower[0])


@pytest.mark.parametrize("entry", range(6))
def test_each_flip_mask_entry_exchanges_only_its_own_bond(entry):
    # k = 4: entries 0..2 are bonds 1..3, entries 3..5 are bonds 5..7 in bond order
    spec = random_spec(4, seed=11)
    mask = [False] * 6
    mask[entry] = True
    m0, m1 = build(spec.with_flip_mask((False,) * 6)), build(spec.with_flip_mask(mask))
    bond = entry if entry < 3 else entry + 1  # 0-based index into upper/lower
    assert m1.upper[bond] == m0.lower[bond] and m1.lower[bond] == m0.upper[bond]
    assert m1.upper[bond] != m1.lower[bond]
    rest = np.arange(7) != bond
    assert m1.diag.tobytes() == m0.diag.tobytes()
    assert m1.upper[rest].tobytes() == m0.upper[rest].tobytes()
    assert m1.lower[rest].tobytes() == m0.lower[rest].tobytes()


def test_check_symmetry_classifies():
    spec = random_spec(5, seed=3)
    mirror = build(spec.with_flip_mask((False,) * 8))
    default = build(spec)  # right half flipped
    assert check_symmetry(mirror).status == "exact_offcenter"
    assert check_symmetry(default).status == "generalized_offcenter"

    broken = TridiagonalMatrix(
        mirror.diag.copy(), mirror.upper.copy(), mirror.lower.copy()
    )
    broken.upper[0] += 0.5
    report = check_symmetry(broken)
    assert report.status == "none"
    assert 1 in report.violating_bonds


@pytest.mark.parametrize("part", ["site", "bond"])
@pytest.mark.parametrize("j", [1, 2, 4])
@pytest.mark.parametrize("right_half", [False, True])
def test_check_symmetry_names_the_broken_position(part, j, right_half):
    # k = 5: off-center sites and bonds 1..4 mirror sites 10..7 and bonds 9..6
    m = build(random_spec(5, seed=3))
    d, up = m.diag.copy(), m.upper.copy()
    if part == "site":
        d[m.L - j if right_half else j - 1] += 0.5
    else:
        up[m.L - j - 1 if right_half else j - 1] *= 2.0  # changes the bond product
    report = check_symmetry(TridiagonalMatrix(d, up, m.lower))
    assert report.status == "none"
    assert report.violating_sites == ((j,) if part == "site" else ())
    assert report.violating_bonds == ((j,) if part == "bond" else ())


def test_check_symmetry_ignores_central_entries():
    # central sites/bond never count as violations, whatever the block is
    spec = random_spec(4, seed=9, central=CentralBlock(0.3, 1.7, 0.2, 0.9))
    assert check_symmetry(build(spec)).status == "generalized_offcenter"


@pytest.mark.parametrize("band, j, value", [
    ("diag", 0, np.nan), ("upper", 0, np.nan), ("diag", 0, np.inf),
])
def test_check_symmetry_rejects_non_finite_entries(band, j, value):
    # NaN compares False against any tolerance, and inf makes the tolerance inf
    m = build(legacy(10, 0, 2))
    bands = {"diag": m.diag.copy(), "upper": m.upper.copy(), "lower": m.lower.copy()}
    bands[band][j] = value
    with pytest.raises(ValueError, match="finite"):
        check_symmetry(TridiagonalMatrix(**bands))


def test_spec_json_round_trip_is_canonical():
    spec = random_spec(5, seed=12, central=CentralBlock(-1.2, 1.0, 1.1, 1.1))
    text = spec_to_json(spec)
    again = spec_from_json(text)
    assert spec_to_json(again) == text
    assert again.k == spec.k
    assert np.allclose(again.a, spec.a)
    assert np.allclose(again.b, spec.b)
    assert again.central.alpha == spec.central.alpha


@pytest.mark.parametrize("spec, text", [
    (family_a(4, 0.5, 1.5, 0.5, 0.25 - 0.5j).with_flip_mask((True, False)),
     '{"a":[[0.0,0.0]],"b":[[1.0,0.0]],"c":[[1.0,0.0]],"central":{"alpha":[0.5,0.0],'
     '"delta_lower":[0.5,0.0],"delta_upper":[0.5,0.0],"gamma":[1.5,0.0]},'
     '"edge_beta":[0.25,-0.5],"flip_mask":[true,false],"k":2,'
     '"meta":{"family":"A","seed":null}}'),
    (random_spec(3, 9),
     '{"a":[[-0.8028369359828766,-1.656345427042233],[0.2428499070790021,0.656104877556666]],'
     '"b":[[1.1434530226920894,0.4304857455543092],[-0.45261100300789897,0.25093256908418204]],'
     '"c":[[-0.3943520554588936,-2.032552427456725],[-0.8624048655156082,1.4104234840116703]],'
     '"central":{"alpha":[0.0,0.0],"delta_lower":[0.0,0.0],"delta_upper":[0.0,0.0],'
     '"gamma":[0.0,0.0]},"edge_beta":[0.0,0.0],"flip_mask":[false,false,true,true],"k":3,'
     '"meta":{"family":"random","rng":"PCG64","seed":9}}'),
])
def test_spec_json_document_is_pinned(spec, text):
    assert spec_to_json(spec) == text
    assert spec_to_json(spec_from_json(text)) == text


def test_spec_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        spec_from_json("{}")
    with pytest.raises(ValueError):
        spec_from_json('{"k": 3}')


def test_inf_norm_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(20):
        L = int(rng.integers(1, 9))
        d = rng.normal(size=L) + 1j * rng.normal(size=L)
        u = rng.normal(size=max(L - 1, 0)) + 1j * rng.normal(size=max(L - 1, 0))
        lo = rng.normal(size=max(L - 1, 0)) + 1j * rng.normal(size=max(L - 1, 0))
        m = TridiagonalMatrix(d, u, lo)
        want = np.abs(m.to_dense()).sum(axis=1).max()
        assert m.inf_norm() == pytest.approx(want)
