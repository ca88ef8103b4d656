"""Characteristic-polynomial machinery for tridiagonal chain Hamiltonians.

Everything here works with the leading principal minors P_n of the matrix
lambda*I - H, generated by the classic three-term recurrence

    P_n = (lambda - d_n) P_{n-1} - u_{n-1} l_{n-1} P_{n-2},   P_0 = 1,

where d, u, l are the diagonal and off-diagonals of H.  For a mirror
symmetric chain whose central 2x2 block sits at an exceptional point, the
full characteristic polynomial factors as a perfect square

    P_L = F^2,    F = P_k + i*(gamma - alpha)/2 * P_{k-1},

which is the symbolic certificate of full-spectrum pairwise coalescence.
The same square form extends to complex central blocks that satisfy the
product condition delta_upper*delta_lower = (alpha - gamma)^2 / 4, with
F = (lambda + i*(alpha + gamma)/2) * P_{k-1} - eta_{k-1} * P_{k-2}; this
library treats that extension as a conjecture and certifies non-restricted
blocks through the numerical even-multiplicity check instead.

The recurrence fills one lower-triangular (L+1, L+1) coefficient table,
row n holding P_n in ascending powers; the certificates read its rows as
arrays, and ``principal_minors`` copies each row into its own Poly.

An independent cross-check, sharing no code with the recurrence, computes
the characteristic polynomial by the Faddeev-LeVerrier trace recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chain import ChainSpec, TridiagonalMatrix, as_matrix, build, ep_residual
from .eig import cluster, cluster_members, eigenvalues

__all__ = [
    "Poly", "VerificationResult", "principal_minors", "transfer_T", "transfer_A",
    "verify_at_relation", "square_factor", "verify_pc", "verify_power", "charpoly_oracle",
]


@dataclass(frozen=True, eq=False)
class Poly:
    """Dense complex polynomial, coefficients in ascending powers.

    Every coefficient is kept, zeros included: the minor P_n always has
    n + 1 coefficients and an exact leading 1.0, whatever the chain's scale.
    """

    coeffs: np.ndarray

    __array_ufunc__ = None  # numpy scalars defer to __rmul__ instead of broadcasting

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coefficients must be a non-empty 1-D array")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Length of the coefficient array minus one."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def norm(self) -> float:
        """Largest coefficient magnitude."""
        return float(np.abs(self.coeffs).max())

    def __add__(self, other: Poly) -> Poly:
        out = np.zeros(max(len(self.coeffs), len(other.coeffs)), dtype=complex)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        return self + -1.0 * other

    def __mul__(self, other: Poly | complex) -> Poly:
        if isinstance(other, Poly):
            return Poly(np.convolve(self.coeffs, other.coeffs))
        return Poly(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __call__(self, z: complex) -> complex:
        return complex(np.polyval(self.coeffs[::-1], z))

    def __repr__(self) -> str:
        return f"Poly(deg={self.degree})"


def _minor_table(d: np.ndarray, u: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Coefficients of P_0 ... P_L in one lower-triangular (L+1, L+1) table.

    Row n holds P_n in ascending powers, zeros above degree n.  Each row is
    formed exactly as Poly arithmetic would form it, so the coefficients
    are bitwise those of the recurrence written on Poly.
    """
    L = len(d)
    C = np.zeros((L + 1, L + 1), dtype=complex)
    C[0, 0] = 1.0
    C[1, :2] = -d[0], 1.0
    for n in range(2, L + 1):
        C[n, :n + 1] += np.convolve(np.array([-d[n - 1], 1.0]), C[n - 1, :n])
        # array first, product per row: numpy's SIMD loop rounds other orders differently
        C[n, :n - 1] -= C[n - 2, :n - 1] * complex(u[n - 2] * low[n - 2])
    return C


def _finite_minor_table(d: np.ndarray, u: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``_minor_table``, or OverflowError if any coefficient is not finite.

    The coefficients of P_n grow like ||H||^n, so a long chain with a large
    norm overflows; the certificates work on H/||H|| instead (``_unit_minors``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        C = _minor_table(d, u, low)
    if not np.isfinite(C).all():
        raise OverflowError(
            f"the minors P_0 ... P_{len(d)} have non-finite coefficients "
            "(the chain's norm is too large for their degree)"
        )
    return C


def principal_minors(m: TridiagonalMatrix) -> list[Poly]:
    """Leading principal minors P_0 ... P_L of lambda*I - H.

    P_n is monic of degree n; P_L is the characteristic polynomial.  Raises
    OverflowError when a coefficient is not finite.
    """
    C = _finite_minor_table(m.diag, m.upper, m.lower)
    # copies, not views: a caller that keeps the minors keeps n + 1 entries each
    return [Poly(C[n, :n + 1].copy()) for n in range(m.L + 1)]


def _spec_etas(spec: ChainSpec) -> np.ndarray:
    """Hopping products eta_i = b_i * c_i of the left half (orientation-free)."""
    return np.array([b * c for b, c in zip(spec.b, spec.c)], dtype=complex)


def _bond_product(spec: ChainSpec, xs, ys) -> np.ndarray:
    """Product of the k-1 matrices [[lambda + a_i, x_i], [y_i, 0]] of Poly."""
    if spec.k < 2:
        raise ValueError("transfer matrices need k >= 2")
    factors = [
        np.array([[Poly([a, 1.0]), Poly([x])], [Poly([y]), Poly([0.0])]], dtype=object)
        for a, x, y in zip(spec.a, xs, ys)
    ]
    return reduce(np.matmul, factors)


def transfer_T(spec: ChainSpec) -> np.ndarray:
    """Product of the k-1 bond matrices [[lambda + a_i, -eta_i], [1, 0]].

    Propagates the minor pair (P_n, P_{n-1}) across the left half of the
    chain: the product's first column is (P_{k-1}, P_{k-2}) up to the
    recurrence's own sign bookkeeping.  Returned as a 2x2 object array of
    Poly, so products are taken with ``@``.
    """
    etas = _spec_etas(spec)
    return _bond_product(spec, -etas, np.ones(len(etas)))


def transfer_A(spec: ChainSpec) -> np.ndarray:
    """Product of the k-1 matrices [[lambda + a_i, 1], [-eta_{i-1}, 0]].

    The index shift (eta_{i-1} with eta_0 = 0) makes this the mirror-side
    companion of transfer_T: their top-left entries agree identically, and
    A12 = -T12 / eta_{k-1}.  Returned as a 2x2 object array of Poly.
    """
    etas = _spec_etas(spec)
    return _bond_product(spec, np.ones(len(etas)), -np.append(0.0, etas[:-1]))


def verify_at_relation(spec: ChainSpec) -> float:
    """Residual of the two transfer-product identities A11 = T11 and
    A12 = -T12 / eta_{k-1}.

    Returns the larger of the two relative coefficient-norm deviations;
    both identities hold for every chain with eta_{k-1} != 0, so the
    residual is at rounding level.
    """
    eta_last = _spec_etas(spec)[-1]
    if abs(eta_last) == 0.0:
        raise ValueError("degenerate chain: the bond product eta_{k-1} vanishes, "
                         "the second identity is undefined")
    T, A = transfer_T(spec), transfer_A(spec)
    r1 = (A[0, 0] - T[0, 0]).norm() / max(1.0, T[0, 0].norm())
    # compare eta_{k-1} * A12 + T12 == 0 to avoid dividing coefficients
    r2 = (eta_last * A[0, 1] + T[0, 1]).norm() / max(1.0, T[0, 1].norm())
    return max(r1, r2)


def _unit_minors(m: TridiagonalMatrix) -> tuple[np.ndarray, float]:
    """(minor table of H/s, s) with s = ||H||_inf.

    The minors of H/s are P_n(s*lambda)/s^n, so relative residuals taken on
    them do not change under H -> cH, and their coefficients cannot overflow.
    """
    s = m.inf_norm() or 1.0
    return _minor_table(m.diag / s, m.upper / s, m.lower / s), s


def _square_root(spec: ChainSpec, C: np.ndarray, s: float) -> np.ndarray:
    """F = P_k + i*(gamma - alpha)/(2s) * P_{k-1} from the minor table ``C`` of H/s."""
    blk, k = spec.central, spec.k
    c = complex(1j * (blk.gamma - blk.alpha) / (2.0 * s))
    return C[k, :k + 1] + C[k - 1, :k + 1] * c


def _rel_residual(p: np.ndarray, ref: np.ndarray) -> float:
    """Largest coefficient deviation of p from ref, relative to ref's largest."""
    return float(np.abs(p - ref).max()) / float(np.abs(ref).max())


def square_factor(spec: ChainSpec) -> Poly:
    """The degree-k polynomial F with P_L = F^2 at pairwise coalescence.

    Requires the central block in restricted form (real alpha, gamma and a
    symmetric real hopping) at its exceptional point; F is then
    P_k + i*(gamma - alpha)/2 * P_{k-1}.  Raises OverflowError when a
    minor of the chain has a non-finite coefficient.
    """
    blk = spec.central
    if not blk.is_restricted:
        raise ValueError("square_factor needs a restricted central block")
    scale = max(1.0, abs(blk.alpha), abs(blk.gamma), abs(blk.delta_upper))
    if ep_residual(blk) > 1e-12 * scale * scale:
        raise ValueError(
            "central block is not at its exceptional point "
            f"(residual {ep_residual(blk):.3e}); no square factor exists"
        )
    m, k = build(spec), spec.k
    # F needs only the minors of the left half and the first central site
    return Poly(_square_root(spec, _finite_minor_table(m.diag[:k], m.upper[:k - 1],
                                                       m.lower[:k - 1]), 1.0))


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a coalescence certificate.

    ``mode`` is "symbolic" (polynomial square form) or "numeric"
    (even multiplicities of clustered eigenvalues).  For the symbolic mode
    ``residual`` is the relative coefficient norm of P_L - F^2 for
    H/||H||_inf, so it does not depend on the chain's scale; for the
    numeric mode it is the largest within-cluster eigenvalue spread at the
    certifying cluster scale (NaN when no scale certifies).  ``order`` is
    the coalescence order the certificate establishes.
    """

    mode: str
    residual: float
    certified: bool
    order: int = 2


def verify_pc(
    target: ChainSpec | TridiagonalMatrix,
    tol_certify: float = 1e-8,
    tol_distinct: float = 1e-5,
) -> VerificationResult:
    """Certify full-spectrum pairwise coalescence.

    A ChainSpec with a restricted central block is certified symbolically:
    the certificate holds iff the relative coefficient norm of P_L - F^2 is
    below ``tol_certify``.  Raw matrices and chains with non-restricted
    central blocks fall back to the numeric test: the eigenvalues are
    clustered at scales ``tol_distinct`` x {1, 10, 100} and the certificate
    holds iff some scale leaves every cluster with even multiplicity.  The
    escalating scales absorb the floating-point splitting of defective
    eigenvalues, which grows as the m-th root of machine epsilon for an
    m-fold coalescence.
    """
    if isinstance(target, ChainSpec) and target.central.is_restricted:
        C, s = _unit_minors(build(target))
        F = _square_root(target, C, s)
        residual = _rel_residual(np.convolve(F, F), C[2 * target.k])
        return VerificationResult("symbolic", residual, residual < tol_certify)

    eigs = eigenvalues(as_matrix(target))
    for scale in (tol_distinct, 10 * tol_distinct, 100 * tol_distinct):
        groups = cluster_members(eigs, scale)
        if all(len(g) % 2 == 0 for g in groups):
            diffs = [eigs[list(g)][:, None] - eigs[list(g)] for g in groups]
            # hypot keeps the bytes of scalar abs(x - y); numpy's array complex abs can differ
            spread = max(float(np.hypot(d.real, d.imag).max()) for d in diffs)
            return VerificationResult("numeric", spread, True)
    return VerificationResult("numeric", math.nan, False)


def verify_power(m: TridiagonalMatrix, order: int, tol: float = 1e-5) -> bool:
    """Check that the spectrum coalesces in groups of ``order``.

    True iff every eigenvalue cluster at scale ``tol`` has multiplicity
    divisible by ``order`` and the polynomial rebuilt from the cluster
    representatives, prod (lambda - rep)^mult, matches the characteristic
    polynomial to relative residual 1e-6.  Both polynomials are taken for
    H/||H||_inf, so the comparison does not depend on the chain's scale.
    The default scale matches the distinct-eigenvalue counting rule; for
    coalescence orders above 2 the floating-point eigenvalue splitting
    (epsilon^(1/order)) usually calls for a larger scale, e.g. 1e-3 for
    order 4.
    """
    if order not in (2, 4, 8):
        raise ValueError(f"order must be 2, 4, or 8, got {order}")
    eigs = eigenvalues(m)
    groups = cluster(eigs, tol)
    if any(mult % order != 0 for _, mult in groups):
        return False
    reps = np.repeat([rep for rep, _ in groups], [mult for _, mult in groups])
    C, s = _unit_minors(m)
    return _rel_residual(np.poly(reps / s)[::-1], C[m.L]) <= 1e-6


def charpoly_oracle(m: TridiagonalMatrix) -> Poly:
    """Characteristic polynomial of lambda*I - H by Faddeev-LeVerrier.

    Runs the dense trace recursion M_j = H M_{j-1} + c_{j-1} I,
    c_j = -tr(H M_j)/j, which shares no code with the minor recurrence and
    serves as its independent oracle.  Guarded to L <= 12 because the
    recursion loses relative accuracy on larger matrices.
    """
    if m.L > 12:
        raise ValueError(f"oracle is limited to L <= 12, got L={m.L}")
    H = m.to_dense()
    L = m.L
    coeffs = np.zeros(L + 1, dtype=complex)  # ascending powers
    coeffs[L] = 1.0
    Mj = np.eye(L, dtype=complex)
    for j in range(1, L + 1):
        HM = H @ Mj
        cj = -np.trace(HM) / j
        coeffs[L - j] = cj
        Mj = HM + cj * np.eye(L, dtype=complex)
    return Poly(coeffs)
