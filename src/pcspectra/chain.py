"""Builders and validators for non-Hermitian tridiagonal chain Hamiltonians.

The chains handled here are open 1D tight-binding lattices of even length
L = 2k whose left half is described by free complex parameters and whose
right half mirrors the left half about the chain center.  The two central
sites (k, k+1) and the bond between them form a separate 2x2 block.  When
that block sits at an exceptional point -- its two eigenvalues and
eigenvectors coalesce -- the full L-point spectrum collapses into k
two-fold degenerate eigenvalues ("pairwise coalescence", PC).

Site and bond indices in docstrings are 1-based (site j couples to site
j+1 through bond j); arrays are 0-based as usual.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CentralBlock",
    "ChainSpec",
    "TridiagonalMatrix",
    "SymmetryReport",
    "pc_delta",
    "ep_residual",
    "build",
    "as_matrix",
    "family_a",
    "family_b",
    "family_c",
    "family_d",
    "legacy",
    "random_spec",
    "check_symmetry",
    "real_gauge",
    "band_matrices",
    "band_inf_norm",
    "spec_to_json",
    "spec_from_json",
]

_REAL_TOL = 1e-12
_SYMMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class CentralBlock:
    """The 2x2 sub-Hamiltonian on the two central sites.

    The block contributes matrix entries H[k,k] = -i*alpha,
    H[k+1,k+1] = -i*gamma, H[k,k+1] = -delta_upper, H[k+1,k] = -delta_lower.
    In the restricted form alpha and gamma are real (purely imaginary
    on-site potentials) and the two hoppings are equal and real.
    """

    alpha: complex
    gamma: complex
    delta_upper: complex
    delta_lower: complex

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, complex(getattr(self, f.name)))

    @property
    def is_restricted(self) -> bool:
        """True when alpha, gamma are real and the hoppings are equal and real."""
        entries = [getattr(self, f.name) for f in fields(self)]
        tol = _REAL_TOL * max(map(abs, entries))
        return (all(abs(z.imag) <= tol for z in entries)
                and abs(self.delta_upper - self.delta_lower) <= tol)


def pc_delta(alpha: float, gamma: float, sign: int = 1) -> float:
    """Central hopping that places a restricted block at its exceptional point.

    For real on-site coefficients alpha and gamma the block has a double
    eigenvalue exactly when the (symmetric, real) central hopping equals
    +/-(gamma - alpha)/2; ``sign`` picks the branch.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return sign * (float(gamma) - float(alpha)) / 2.0


def ep_residual(block: CentralBlock) -> float:
    """Distance of the central block from its exceptional-point condition.

    Returns |delta_upper*delta_lower - (alpha - gamma)^2/4|.  The block has
    a double eigenvalue -i*(alpha+gamma)/2 (with a single eigenvector)
    exactly when this vanishes.
    """
    return abs(block.delta_upper * block.delta_lower - (block.alpha - block.gamma) ** 2 / 4.0)


def _default_flip_mask(k: int) -> tuple[bool, ...]:
    # Left-half bonds unflipped, right-half bonds flipped: with this mask the
    # built matrix carries the b coefficients on the upper subdiagonal in both
    # halves (the "generalized" mirror arrangement); only the hopping products
    # b_j * c_j then mirror, not the individual amplitudes.
    return (False,) * (k - 1) + (True,) * (k - 1)


@dataclass(frozen=True)
class ChainSpec:
    """Generative description of one chain Hamiltonian.

    ``a``, ``b``, ``c`` hold the k-1 off-center on-site coefficients and
    upper/lower hopping amplitudes of the left half (index i describes site
    i+1 / bond i+1); the right half repeats them mirrored about the center.
    ``flip_mask`` has one boolean per off-center bond, left half first
    (bonds 1..k-1), then the right half ordered by position (bonds
    k+1..L-1).  A True entry exchanges that bond's upper and lower hopping
    amplitudes; such exchanges never alter the products b_i*c_i, which is
    the combination every spectral statement depends on.
    ``edge_beta`` adds -i*beta to both H[1,1] and H[L,L].
    """

    k: int
    a: tuple[complex, ...]
    b: tuple[complex, ...]
    c: tuple[complex, ...]
    central: CentralBlock
    flip_mask: tuple[bool, ...] | None = None
    edge_beta: complex = 0j
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for name in ("a", "b", "c"):
            arr = tuple(complex(z) for z in getattr(self, name))
            if len(arr) != self.k - 1:
                raise ValueError(f"{name} must have length k-1={self.k - 1}, got {len(arr)}")
            object.__setattr__(self, name, arr)
        if self.flip_mask is None:
            object.__setattr__(self, "flip_mask", _default_flip_mask(self.k))
        else:
            mask = tuple(bool(x) for x in self.flip_mask)
            if len(mask) != 2 * (self.k - 1):
                raise ValueError(
                    "flip_mask must have one entry per off-center bond "
                    f"(2k-2={2 * (self.k - 1)}), got {len(mask)}"
                )
            object.__setattr__(self, "flip_mask", mask)
        object.__setattr__(self, "edge_beta", complex(self.edge_beta))

    @property
    def L(self) -> int:
        return 2 * self.k

    def with_central(self, central: CentralBlock) -> "ChainSpec":
        """Copy of this spec with a different central block."""
        return replace(self, central=central, meta=dict(self.meta))

    def with_flip_mask(self, flip_mask: Sequence[bool]) -> "ChainSpec":
        """Copy of this spec with a different bond-orientation mask."""
        return replace(self, flip_mask=tuple(flip_mask), meta=dict(self.meta))


@dataclass(frozen=True, eq=False)
class TridiagonalMatrix:
    """A concrete L x L complex tridiagonal Hamiltonian.

    ``upper[j]`` is H[j, j+1] and ``lower[j]`` is H[j+1, j] (0-based).
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diag", "upper", "lower"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        L = len(self.diag)
        if L < 1:
            raise ValueError("matrix must have at least one site")
        if len(self.upper) != L - 1 or len(self.lower) != L - 1:
            raise ValueError(
                f"off-diagonals must have length L-1={L - 1}, got "
                f"{len(self.upper)} and {len(self.lower)}"
            )

    @property
    def L(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        return band_matrices(self.diag, self.upper, self.lower)

    def inf_norm(self) -> float:
        """Maximum absolute row sum; cheap scale estimate for tolerances."""
        return float(band_inf_norm(self.diag, self.upper, self.lower))


def band_inf_norm(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """||H||_inf of the tridiagonal H with these bands, or of each H of a stack of them."""
    s = np.abs(diag)
    s[..., :-1] += np.abs(upper)
    s[..., 1:] += np.abs(lower)
    return s.max(axis=-1)


def real_gauge(diag: np.ndarray, upper: np.ndarray,
               lower: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Bands (diagonal, upper, lower) of the real T = tridiag(lower, i*diag, -upper), or None.

    The bands are those of one tridiagonal H or of a stack of them.  When
    every potential is purely imaginary and every hopping real -- ``diag``
    with zero real part, ``upper`` and ``lower`` with zero imaginary part,
    exactly, with no tolerance -- then i H = D T D^-1 with D = diag(i^j),
    so eig(H) = -i eig(T) and the spectrum is symmetric under
    lambda -> -conj(lambda).  Otherwise None.  Forming T rounds nothing.
    """
    if np.count_nonzero(diag.real) or np.count_nonzero(upper.imag) or np.count_nonzero(lower.imag):
        return None
    return -diag.imag, -upper.real, lower.real


def band_matrices(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Dense (..., n, n) tridiagonal matrices from bands (..., n) and (..., n-1).

    ``upper`` and ``lower`` broadcast to the leading shape of ``diag``; the
    dtype is that of the three bands' sum.
    """
    lead, n = diag.shape[:-1], diag.shape[-1]
    H = np.zeros((*lead, n, n), dtype=np.result_type(diag, upper, lower))
    flat = H.reshape(*lead, n * n)
    flat[..., :: n + 1] = diag
    flat[..., 1 :: n + 1] = upper
    flat[..., n :: n + 1] = lower
    return H


def build(spec: ChainSpec) -> TridiagonalMatrix:
    """Materialize the L x L matrix described by a ChainSpec.

    All Hamiltonian terms carry a global minus sign: hoppings enter as
    H[j,j+1] = -b_j etc., on-site coefficients as H[j,j] = -a_j, and the
    central potentials as -i*alpha, -i*gamma.  Each array is the left arm,
    the central block, then the left arm reversed: site j mirrors site
    L+1-j, and bond j (b above the diagonal) mirrors bond L-j (b below).
    """
    k, blk = spec.k, spec.central
    a = [-z for z in spec.a]
    b = [-z for z in spec.b]
    c = [-z for z in spec.c]
    diag = a + [-1j * blk.alpha, -1j * blk.gamma] + a[::-1]
    diag[0] += -1j * spec.edge_beta
    diag[-1] += -1j * spec.edge_beta
    upper = b + [-blk.delta_upper] + c[::-1]
    lower = c + [-blk.delta_lower] + b[::-1]
    # flip_mask entries run in bond order on both sides of the central bond
    flip = spec.flip_mask[: k - 1] + (False,) + spec.flip_mask[k - 1 :]
    for i, f in enumerate(flip):
        if f:
            upper[i], lower[i] = lower[i], upper[i]
    return TridiagonalMatrix(diag, upper, lower)


def as_matrix(target: ChainSpec | TridiagonalMatrix) -> TridiagonalMatrix:
    """The matrix of a chain given either as a ChainSpec or already built."""
    return build(target) if isinstance(target, ChainSpec) else target


def _arms(L: int, period: int, bond: Callable[[int], float], central: CentralBlock, family: str,
          edge_beta: complex = 0j) -> ChainSpec:
    """Chain of length L with zero off-center potentials and symmetric bond j = bond(j)."""
    if L % period != 0 or L < period:
        raise ValueError(f"L must be a positive multiple of {period}, got {L}")
    k = L // 2
    arm = tuple(complex(bond(j)) for j in range(1, k))
    return ChainSpec(k=k, a=(0j,) * (k - 1), b=arm, c=arm, central=central,
                     edge_beta=edge_beta, meta={"family": family, "seed": None})


def family_a(L: int, alpha: float, gamma: float, delta: float, beta: complex = 0j) -> ChainSpec:
    """Uniform chain with a tunable central block.

    Unit symmetric hoppings and zero potentials everywhere off-center; the
    central block carries on-site coefficients (alpha, gamma) and symmetric
    hopping delta; an optional -i*beta sits on both edge sites.  The
    spectrum pairs up when delta = +/-(gamma - alpha)/2.
    """
    return _arms(L, 2, lambda j: 1.0, CentralBlock(alpha, gamma, delta, delta), "A", beta)


def family_b(L: int, J1: float, J2: float, alpha: float, gamma: float) -> ChainSpec:
    """Chain with alternating bond strengths J1, J2 and central potentials.

    Bond j carries J1 for odd j and J2 for even j, so the central bond
    (bond k = L/2) carries J2 when L is a multiple of 4 and J1 otherwise.
    With alpha = 0 the spectrum pairs up at gamma = 2 * (central bond
    strength).
    """
    def bond(j: int) -> float:
        return J1 if j % 2 == 1 else J2

    return _arms(L, 2, bond, CentralBlock(alpha, gamma, bond(L // 2), bond(L // 2)), "B")


def family_c(L: int, J1: float, J2: float, Jc: float, alpha: float, gamma: float) -> ChainSpec:
    """Chain with a period-3 bond pattern (J1, J1, J2) and central bond Jc.

    Requires L to be a multiple of 6 so the pattern closes symmetrically.
    The central bond strength is an independent parameter Jc; the spectrum
    pairs up at gamma = alpha +/- 2*Jc.
    """
    return _arms(L, 6, lambda j: J2 if j % 3 == 0 else J1, CentralBlock(alpha, gamma, Jc, Jc), "C")


def family_d(L: int, gamma1: float, gamma2: float, gamma3: float) -> TridiagonalMatrix:
    """Chain whose spectrum can coalesce four-wise, built directly as a matrix.

    With m = L/4: unit hoppings everywhere except bond (2m, 2m+1) which has
    strength gamma2; on-site potentials -i*gamma2 at site 2m, +i*gamma2 at
    site 2m+1 (a gain/loss pair), -i*gamma1 at site m and -i*gamma3 at site
    3m+1.  The central block is always at its exceptional point.  For
    gamma1 = gamma3 the matrix equals, entry for entry, the build of the
    ChainSpec with unit arms, a = i*gamma1 at site m and
    CentralBlock(gamma2, -gamma2, gamma2, gamma2), so the spectrum pairs up;
    its left half is mirrored about its own center too, and at gamma1 = 2
    the spectrum quadruples up.
    """
    if L % 4 != 0 or L < 4:
        raise ValueError(f"L must be a positive multiple of 4, got {L}")
    m = L // 4
    diag = np.zeros(L, dtype=complex)
    upper = -np.ones(L - 1, dtype=complex)
    lower = -np.ones(L - 1, dtype=complex)
    upper[2 * m - 1] = -gamma2
    lower[2 * m - 1] = -gamma2
    diag[2 * m - 1] = -1j * gamma2
    diag[2 * m] = +1j * gamma2
    diag[m - 1] += -1j * gamma1
    diag[3 * m] += -1j * gamma3
    return TridiagonalMatrix(diag, upper, lower)


def legacy(L: int, alpha: float, gamma: float) -> ChainSpec:
    """Uniform chain with unit central hopping and central potentials only.

    Equivalent to family_a with delta = 1 and no edge potential; pairwise
    coalescence occurs at gamma = alpha + 2.
    """
    return _arms(L, 2, lambda j: 1.0, CentralBlock(alpha, gamma, 1.0, 1.0), "legacy")


def random_spec(
    k: int,
    seed: int,
    sigma: float = 1.0,
    central: CentralBlock | None = None,
) -> ChainSpec:
    """Random chain: every off-center coefficient is sigma*(x + i*y), x,y ~ N(0,1).

    The generator is numpy's PCG64 (``default_rng``), recorded in the spec
    metadata for reproducibility.  The central block defaults to the zero
    block (trivially at its exceptional point); pass ``central`` to choose
    one explicitly.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2 for a random chain, got {k}")
    rng = np.random.default_rng(seed)

    def draw() -> tuple[complex, ...]:
        re = rng.normal(0.0, sigma, size=k - 1)
        im = rng.normal(0.0, sigma, size=k - 1)
        return tuple(complex(x, y) for x, y in zip(re, im))

    a, b, c = draw(), draw(), draw()
    if central is None:
        central = CentralBlock(0.0, 0.0, 0.0, 0.0)
    return ChainSpec(k=k, a=a, b=b, c=c, central=central,
                     meta={"family": "random", "seed": int(seed), "rng": "PCG64"})


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the off-center mirror-symmetry check.

    ``status`` is "exact_offcenter" when every off-center bond's individual
    hopping amplitudes mirror, "generalized_offcenter" when only the
    products upper*lower mirror, and "none" otherwise.  ``violating_bonds``
    and ``violating_sites`` list the 1-based positions (left-half labels)
    where even the generalized condition fails.
    """

    status: str
    violating_bonds: tuple[int, ...] = ()
    violating_sites: tuple[int, ...] = ()


def _positions(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) + 1 for j in np.flatnonzero(mask))


def check_symmetry(m: TridiagonalMatrix) -> SymmetryReport:
    """Classify the off-center mirror symmetry of a tridiagonal matrix.

    The two central sites and the central bond are excluded from every
    comparison.  On-site coefficients must mirror exactly in both variants;
    bond amplitudes must mirror individually for "exact_offcenter" or only
    as products H[j,j+1]*H[j+1,j] for "generalized_offcenter".  Entries
    agree within 1e-9 * ||H||_inf, products within 1e-9 * ||H||_inf^2, so
    the verdict does not change under H -> cH.  An odd L or a non-finite
    entry raises ValueError.  ``eig``'s sector split uses another, exact
    rule: each bond's (upper, lower) pair equals its mirror's or the
    swapped pair, so a bond rescaled to (c u, l/c) is "generalized_offcenter"
    here but splits nothing there.
    """
    L = m.L
    if L % 2 != 0:
        raise ValueError(f"symmetry check needs even L, got {L}")
    k = L // 2
    scale = m.inf_norm()
    if not np.isfinite(scale):  # NaN compares False against any tolerance
        raise ValueError("symmetry check needs finite entries")
    tol = _SYMMETRY_RTOL * scale

    # sites 1..k-1 against sites L..k+2, bonds 1..k-1 against bonds L-1..k+1
    bad_sites = np.abs(m.diag[: k - 1] - m.diag[:k:-1]) > tol
    up_l, lo_l = m.upper[: k - 1], m.lower[: k - 1]
    up_r, lo_r = m.upper[: k - 1 : -1], m.lower[: k - 1 : -1]
    bad_bonds = np.abs(up_l * lo_l - up_r * lo_r) > tol * scale
    if bad_sites.any() or bad_bonds.any():
        return SymmetryReport("none", _positions(bad_bonds), _positions(bad_sites))
    # the mirror image of an upper entry is a lower entry
    if (np.abs(up_l - lo_r) > tol).any() or (np.abs(lo_l - up_r) > tol).any():
        return SymmetryReport("generalized_offcenter")
    return SymmetryReport("exact_offcenter")


# ---------------------------------------------------------------------------
# JSON serialization.  Complex numbers are [re, im] pairs; the document is
# canonical (sorted keys, no whitespace) so serialize(parse(s)) == s.
# ---------------------------------------------------------------------------

def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _j2c(pair: Sequence[float]) -> complex:
    if len(pair) != 2:
        raise ValueError(f"complex values must be [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def spec_to_json(spec: ChainSpec) -> str:
    """Serialize a ChainSpec to its canonical JSON document."""
    doc = {name: [_c2j(z) for z in getattr(spec, name)] for name in "abc"}
    doc.update(
        k=spec.k,
        flip_mask=list(spec.flip_mask),
        central={f.name: _c2j(getattr(spec.central, f.name)) for f in fields(CentralBlock)},
        edge_beta=_c2j(spec.edge_beta),
        meta={"family": None, "seed": None, **spec.meta},
    )
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def spec_from_json(text: str) -> ChainSpec:
    """Parse a ChainSpec from its JSON document (inverse of spec_to_json)."""
    doc = json.loads(text)
    try:
        central = doc["central"]
        return ChainSpec(
            k=int(doc["k"]),
            **{name: tuple(_j2c(p) for p in doc[name]) for name in "abc"},
            central=CentralBlock(*(_j2c(central[f.name]) for f in fields(CentralBlock))),
            flip_mask=tuple(bool(x) for x in doc["flip_mask"]),
            edge_beta=_j2c(doc["edge_beta"]),
            meta=dict(doc.get("meta") or {}),
        )
    except KeyError as exc:
        raise ValueError(f"spec document is missing field {exc}") from exc
