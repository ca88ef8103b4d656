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

An independent cross-check, sharing no code with the recurrence, computes
the characteristic polynomial by the Faddeev-LeVerrier trace recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, TridiagonalMatrix, as_matrix, build, ep_residual

__all__ = [
    "Poly",
    "PolyPair",
    "TransferMatrix",
    "VerificationResult",
    "poly_add",
    "poly_sub",
    "poly_mul",
    "poly_scale",
    "poly_eval",
    "principal_minors",
    "transfer_T",
    "transfer_A",
    "verify_at_relation",
    "square_factor",
    "verify_pc",
    "verify_power",
    "charpoly_oracle",
]

_TRIM_REL = 1e-14


@dataclass(frozen=True, eq=False)
class Poly:
    """Dense complex polynomial, coefficients in ascending powers.

    Trailing coefficients smaller than 1e-14 times the largest coefficient
    magnitude are trimmed on construction, so the leading coefficient of a
    nonzero polynomial is always significant.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        mags = np.abs(c)
        top = mags.max() if len(c) else 0.0
        if top == 0.0:
            c = np.zeros(1, dtype=complex)
        else:
            keep = np.nonzero(mags > _TRIM_REL * top)[0]
            c = c[: keep[-1] + 1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; 0 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def norm(self) -> float:
        """Largest coefficient magnitude."""
        return float(np.abs(self.coeffs).max())

    def __add__(self, other: "Poly") -> "Poly":
        return poly_add(self, other)

    def __sub__(self, other: "Poly") -> "Poly":
        return poly_sub(self, other)

    def __mul__(self, other: "Poly") -> "Poly":
        return poly_mul(self, other)

    def __call__(self, z: complex) -> complex:
        return poly_eval(self, z)

    def __repr__(self) -> str:
        return f"Poly(deg={self.degree})"


ONE = Poly(np.array([1.0 + 0j]))
ZERO = Poly(np.array([0.0 + 0j]))


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p.coeffs), len(q.coeffs))
    out = np.zeros(n, dtype=complex)
    out[: len(p.coeffs)] += p.coeffs
    out[: len(q.coeffs)] += q.coeffs
    return Poly(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p.coeffs), len(q.coeffs))
    out = np.zeros(n, dtype=complex)
    out[: len(p.coeffs)] += p.coeffs
    out[: len(q.coeffs)] -= q.coeffs
    return Poly(out)


def poly_mul(p: Poly, q: Poly) -> Poly:
    return Poly(np.convolve(p.coeffs, q.coeffs))


def poly_scale(p: Poly, s: complex) -> Poly:
    return Poly(p.coeffs * complex(s))


def poly_eval(p: Poly, z: complex) -> complex:
    """Evaluate by Horner's rule."""
    acc = 0j
    for c in p.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


@dataclass(frozen=True)
class PolyPair:
    """Two consecutive minors (P_n, P_{n-1}) as propagated by the recurrence."""

    hi: Poly
    lo: Poly


@dataclass(frozen=True)
class TransferMatrix:
    """A 2x2 matrix with polynomial entries."""

    m11: Poly
    m12: Poly
    m21: Poly
    m22: Poly

    def matmul(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def det(self) -> Poly:
        return self.m11 * self.m22 - self.m12 * self.m21


def principal_minors(m: TridiagonalMatrix) -> list[Poly]:
    """Leading principal minors P_0 ... P_L of lambda*I - H.

    P_n is monic of degree n; P_L is the characteristic polynomial.
    """
    d, u, low = m.diag, m.upper, m.lower
    minors = [ONE, Poly(np.array([-d[0], 1.0 + 0j]))]
    for n in range(2, m.L + 1):
        lin = Poly(np.array([-d[n - 1], 1.0 + 0j]))  # (lambda - d_n)
        eta = u[n - 2] * low[n - 2]
        minors.append(lin * minors[n - 1] - poly_scale(minors[n - 2], eta))
    return minors


def _spec_etas(spec: ChainSpec) -> np.ndarray:
    """Hopping products eta_i = b_i * c_i of the left half (orientation-free)."""
    return np.array([b * c for b, c in zip(spec.b, spec.c)], dtype=complex)


def transfer_T(spec: ChainSpec) -> TransferMatrix:
    """Product of the k-1 bond matrices [[lambda + a_i, -eta_i], [1, 0]].

    Propagates the minor pair (P_n, P_{n-1}) across the left half of the
    chain: the product's first column is (P_{k-1}, P_{k-2}) up to the
    recurrence's own sign bookkeeping.
    """
    if spec.k < 2:
        raise ValueError("transfer matrices need k >= 2")
    etas = _spec_etas(spec)
    out: TransferMatrix | None = None
    for i in range(1, spec.k):
        lin = Poly(np.array([spec.a[i - 1], 1.0 + 0j]))
        factor = TransferMatrix(lin, Poly(np.array([-etas[i - 1]])), ONE, ZERO)
        out = factor if out is None else out.matmul(factor)
    assert out is not None
    return out


def transfer_A(spec: ChainSpec) -> TransferMatrix:
    """Product of the k-1 matrices [[lambda + a_i, 1], [-eta_{i-1}, 0]].

    The index shift (eta_{i-1} with eta_0 = 0) makes this the mirror-side
    companion of transfer_T: their top-left entries agree identically, and
    A12 = -T12 / eta_{k-1}.
    """
    if spec.k < 2:
        raise ValueError("transfer matrices need k >= 2")
    etas = _spec_etas(spec)
    out: TransferMatrix | None = None
    for i in range(1, spec.k):
        lin = Poly(np.array([spec.a[i - 1], 1.0 + 0j]))
        eta_prev = ZERO if i == 1 else Poly(np.array([-etas[i - 2]]))
        factor = TransferMatrix(lin, ONE, eta_prev, ZERO)
        out = factor if out is None else out.matmul(factor)
    assert out is not None
    return out


def verify_at_relation(spec: ChainSpec) -> float:
    """Residual of the two transfer-product identities A11 = T11 and
    A12 = -T12 / eta_{k-1}.

    Returns the larger of the two relative coefficient-norm deviations;
    both identities hold for every chain with eta_{k-1} != 0, so the
    residual is at rounding level.
    """
    etas = _spec_etas(spec)
    eta_last = etas[-1]
    if abs(eta_last) == 0.0:
        raise ValueError(
            "degenerate chain: the bond product eta_{k-1} vanishes, the "
            "second identity is undefined"
        )
    T = transfer_T(spec)
    A = transfer_A(spec)
    r1 = (A.m11 - T.m11).norm() / max(1.0, T.m11.norm())
    # compare eta_{k-1} * A12 + T12 == 0 to avoid dividing coefficients
    r2 = (poly_scale(A.m12, eta_last) + T.m12).norm() / max(1.0, T.m12.norm())
    return max(r1, r2)


def _central_minors(spec: ChainSpec) -> tuple[Poly, Poly, Poly]:
    """(P_{k-1}, P_k, P_L) for the chain built from ``spec``."""
    minors = principal_minors(build(spec))
    return minors[spec.k - 1], minors[spec.k], minors[2 * spec.k]


def _candidate_factor(spec: ChainSpec) -> Poly:
    """The square-root candidate F with P_L - F^2 proportional to the
    central block's exceptional-point residual."""
    pk_minus, pk, _ = _central_minors(spec)
    alpha, gamma = spec.central.alpha, spec.central.gamma
    return pk + poly_scale(pk_minus, 1j * (gamma - alpha) / 2.0)


def square_factor(spec: ChainSpec) -> Poly:
    """The degree-k polynomial F with P_L = F^2 at pairwise coalescence.

    Requires the central block in restricted form (real alpha, gamma and a
    symmetric real hopping) at its exceptional point; F is then
    P_k + i*(gamma - alpha)/2 * P_{k-1}.
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
    return _candidate_factor(spec)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a coalescence certificate.

    ``mode`` is "symbolic" (polynomial square form) or "numeric"
    (even multiplicities of clustered eigenvalues).  For the symbolic mode
    ``residual`` is the relative coefficient norm of P_L - F^2; for the
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
        pk_minus, pk, pl = _central_minors(target)
        F = _candidate_factor(target)
        residual = (pl - F * F).norm() / pl.norm()
        return VerificationResult("symbolic", float(residual), residual < tol_certify)

    matrix = as_matrix(target)
    from .eig import cluster_members, eigenvalues

    eigs = eigenvalues(matrix)
    for scale in (tol_distinct, 10 * tol_distinct, 100 * tol_distinct):
        groups = cluster_members(eigs, scale)
        if all(len(g) % 2 == 0 for g in groups):
            spread = 0.0
            for g in groups:
                vals = eigs[list(g)]
                if len(vals) > 1:
                    spread = max(
                        spread,
                        float(max(abs(x - y) for x in vals for y in vals)),
                    )
            return VerificationResult("numeric", spread, True)
    return VerificationResult("numeric", math.nan, False)


def verify_power(m: TridiagonalMatrix, order: int, tol: float = 1e-5) -> bool:
    """Check that the spectrum coalesces in groups of ``order``.

    True iff every eigenvalue cluster at scale ``tol`` has multiplicity
    divisible by ``order`` and the polynomial rebuilt from the cluster
    representatives, prod (lambda - rep)^mult, matches the characteristic
    polynomial to relative residual 1e-6.  The default scale matches the
    distinct-eigenvalue counting rule; for coalescence orders above 2 the
    floating-point eigenvalue splitting (epsilon^(1/order)) usually calls
    for a larger scale, e.g. 1e-3 for order 4.
    """
    if order not in (2, 4, 8):
        raise ValueError(f"order must be 2, 4, or 8, got {order}")
    from .eig import cluster, eigenvalues

    eigs = eigenvalues(m)
    groups = cluster(eigs, tol)
    if any(mult % order != 0 for _, mult in groups):
        return False
    rebuilt = ONE
    for rep, mult in groups:
        factor = Poly(np.array([-rep, 1.0 + 0j]))
        for _ in range(mult):
            rebuilt = rebuilt * factor
    char = principal_minors(m)[m.L]
    residual = (rebuilt - char).norm() / char.norm()
    return residual <= 1e-6


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
