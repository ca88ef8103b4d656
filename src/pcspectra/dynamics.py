"""Time evolution of chain states under non-Hermitian Hamiltonians.

Propagation integrates dpsi/dt = -i H psi with a fixed-step classical
Runge-Kutta (RK4) scheme rather than by spectral decomposition: at a
coalescence point the eigenbasis is incomplete and diagonalization-based
propagators break down, while direct integration does not care.

One RK4 step is the matrix P = 1 + z + z^2/2 + z^3/6 + z^4/24 with
z = -i dt H, the method's stability polynomial, so N steps are exactly
P^N.  ``evolve`` and ``min_norm_gamma`` form that power by repeated
squaring over a stack of chains.  ``norm_trace`` needs every step: it
forms P, P^2, ..., P^16 once, advances block starts by P^16, and gets
the states of up to 16 blocks from one matrix product.  Each chain of a
stack is computed independently of the others.

Every chain of the paper has real hoppings and purely imaginary gain or
loss potentials.  Exactly then (``chain.real_gauge``, no tolerance) H
satisfies i H = D T D^-1 with D = diag(i^j) and the real tridiagonal
T = tridiag(lower, i*diag, -upper), so its spectrum is exactly symmetric
under lambda -> -conj(lambda) and P^N = D P_T^N D^-1, where P_T is the
stability polynomial of -dt T: the powers are real matrix products, the
states are carried as real and imaginary parts of D^-1 psi, and D, being
unitary, changes no norm.  A stack with a complex hopping or a real
potential runs the same code with D = 1 in complex arithmetic.

The survival norm ||psi(t)|| of an initially normalized state is the
central observable.  For purely absorbing chains (Hermitian hopping,
non-positive on-site imaginary parts) the exact norm is non-increasing,
which doubles as an integrator sanity check; a chain counts as purely
absorbing when both conditions hold to 1e-12 ||H||_inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .chain import (ChainSpec, TridiagonalMatrix, as_matrix, band_inf_norm, band_matrices,
                    real_gauge)
from .eig import Spectrum, spectrum

__all__ = [
    "StateVector",
    "NormTrace",
    "MinNormResult",
    "gaussian_packet",
    "uniform_site",
    "uniform_eigen",
    "initial_state",
    "evolve",
    "norm_trace",
    "approx_norm",
    "min_norm_gamma",
]

# a grid value whose spectrum has a repeated eigenvalue is moved by this much
_DEFECTIVE_NUDGE = 1e-6
_GROWTH_SLACK = 1e-6
_DT_TOO_LARGE = "the step size dt is too large for this Hamiltonian"
# norm_trace: steps per block of operator powers and block starts per product;
# the powers take 16 L^2 entries (0.2 MB at L = 40 in the real gauge, 0.4 MB complex)
_BLOCK = 16
_PHASES = np.array([1, 1j, -1, -1j])  # i^j by j mod 4, exact


@dataclass(frozen=True, eq=False)
class StateVector:
    """A chain state; ``amplitudes[j-1]`` is the amplitude on site j."""

    amplitudes: np.ndarray

    @property
    def L(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class NormTrace:
    """Survival norm sampled along a trajectory, ``norms[k] = ||psi(times[k])||``."""

    times: np.ndarray
    norms: np.ndarray
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MinNormResult:
    """Outcome of a minimum-survival-norm scan over a parameter grid.

    ``rows`` holds one (gamma, gamma_effective, final_norm) triple per grid
    point in grid order; ``gamma_star`` is the nominal grid value whose
    final norm is smallest.  gamma_effective differs from gamma only when
    a repeated eigenvalue forced a tiny detuning to build the state.
    """

    gamma_star: float
    rows: list[tuple[float, float, float]]


def _amplitudes(psi: StateVector | np.ndarray) -> np.ndarray:
    amps = psi.amplitudes if isinstance(psi, StateVector) else psi
    return np.asarray(amps, dtype=complex)


def gaussian_packet(L: int, j0: float, sigma: float, p: float) -> StateVector:
    """Normalized Gaussian wavepacket centered at site j0 with momentum p.

    Sites are 1-based: amplitude on site j is exp(-(j-j0)^2/(4 sigma^2))
    times the plane-wave phase exp(i p j), normalized to unit 2-norm.
    """
    if L < 1:
        raise ValueError("L must be positive")
    if not all(map(math.isfinite, (j0, sigma, p))) or sigma <= 0:
        raise ValueError("j0, sigma and p must be finite and sigma positive")
    j = np.arange(1, L + 1, dtype=float)
    amps = np.exp(-((j - j0) ** 2) / (4.0 * sigma**2) + 1j * p * j)
    return StateVector(amps / np.linalg.norm(amps))


def uniform_site(L: int) -> StateVector:
    """Equal amplitude on every site, normalized."""
    if L < 1:
        raise ValueError("L must be positive")
    return StateVector(np.full(L, 1.0 / math.sqrt(L), dtype=complex))


def uniform_eigen(s: Spectrum) -> StateVector:
    """Equal-weight superposition of all normalized right eigenvectors.

    ``s`` is expected from ``spectrum``, which reports every coalesced
    cluster as exactly repeated eigenvalues with identical eigenvector
    columns.  So the eigenvectors stop spanning the space exactly when an
    eigenvalue repeats, and then ValueError is raised; callers should
    detune slightly first (see ``min_norm_gamma``).
    """
    if len(set(s.eigenvalues.tolist())) < s.L:
        raise ValueError(
            "the spectrum has a repeated eigenvalue (coalescence point); "
            "detune the parameter slightly before building this state"
        )
    amps = s.eigenvectors.sum(axis=1)
    return StateVector(amps / np.linalg.norm(amps))


def initial_state(
    kind: str,
    m: TridiagonalMatrix,
    j0: float | None = None,
    sigma: float | None = None,
    p: float = math.pi / 4.0,
) -> StateVector:
    """Initial state of one kind on the chain m.

    ``kind`` is "wavepacket" (Gaussian, defaults j0=L/4, sigma=L/8,
    p=pi/4), "uniform_site", or "uniform_eigen" (raises ValueError where
    the spectrum of m has a repeated eigenvalue).
    """
    L = m.L
    if kind == "wavepacket":
        return gaussian_packet(
            L, L / 4.0 if j0 is None else j0, L / 8.0 if sigma is None else sigma, p
        )
    if kind == "uniform_site":
        return uniform_site(L)
    if kind == "uniform_eigen":
        return uniform_eigen(spectrum(m))
    raise ValueError(f"unknown initial-state kind: {kind!r}")


def _is_absorbing(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Per chain of these bands (one chain or a stack): Hermitian hopping plus
    only non-positive on-site imaginary parts, both to 1e-12 ||H||_inf."""
    tol = 1e-12 * band_inf_norm(diag, upper, lower)[..., None]
    return (np.abs(upper - np.conj(lower)) <= tol).all(axis=-1) & (diag.imag <= tol).all(axis=-1)


def _rk4(H: np.ndarray, h: float, x: np.ndarray, c: complex = -1j) -> np.ndarray:
    """One RK4 step of size h applied to x, sum_{n<=4} z^n x / n! with z = c h H.

    With x the identity this is the step operator P; H may be a stack (G, L, L).
    The default c = -1j integrates dpsi/dt = -i H psi; a real c with real H and
    x keeps the arithmetic real.
    """
    y = x
    for n in (4, 3, 2, 1):  # Horner form of the stability polynomial
        y = H @ y
        y *= c * h / n
        y += x
    return y


def _gauge(diag: np.ndarray, upper: np.ndarray,
           lower: np.ndarray) -> tuple[np.ndarray, complex, np.ndarray]:
    """(A, c, g) with -i H = c D A D^-1 and D = diag(g), A real where possible.

    H is the tridiagonal matrix with these bands, or the stack of them
    (bands (G, L) and (G, L-1)), and A is the only dense matrix formed.
    Where ``real_gauge`` holds for the bands, A is the real T of every
    chain, c = -1 and g_j = i^j; otherwise A = H, c = -1j and g = 1.  D is
    unitary, so states carried as conj(g) psi and operators as A have the
    norms of psi and of -i H.
    """
    L = diag.shape[-1]
    bands = real_gauge(diag, upper, lower)
    if bands is None:
        return band_matrices(diag, upper, lower), -1j, np.ones(L, dtype=complex)
    return band_matrices(*bands), -1.0, _PHASES[np.arange(L) % 4]


def _to_gauge(psi: np.ndarray, g: np.ndarray, real: bool) -> np.ndarray:
    """States psi (..., L) as conj(g) psi: a real (..., L, 2) view or complex (..., L, 1)."""
    x = np.conj(g) * psi
    return x.view(float).reshape(*x.shape, 2) if real else x[..., None]


def _step_count(t: float, dt: float, name: str) -> tuple[int, float]:
    """Full steps of size dt up to time t (named ``name`` in errors), and the remainder.

    The remainder is 0.0 unless it exceeds 1e-9 dt, so a t that is a
    multiple of dt up to rounding takes no tail step, at any scale of dt.
    """
    if not (math.isfinite(dt) and math.isfinite(t)):
        raise ValueError(f"dt and {name} must be finite")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError(f"{name} must be non-negative")
    steps = int(math.floor(t / dt + 1e-9))
    rem = t - steps * dt
    return steps, rem if rem > 1e-9 * dt else 0.0


def _require_finite(norms: np.ndarray, times: np.ndarray) -> None:
    """RuntimeError naming the first time whose norm is not finite."""
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise RuntimeError(f"norm is not finite at t={times[bad[0]]:g}; {_DT_TOO_LARGE}")


# an unstable dt overflows the states; that is raised as RuntimeError, not warned
@np.errstate(over="ignore", invalid="ignore")
def _propagate(
    mats: Sequence[TridiagonalMatrix], psi: np.ndarray, t: float, dt: float
) -> np.ndarray:
    """States psi (G, L) evolved to time t, psi[i] under the chain mats[i].

    The floor(t/dt) full steps are applied as P^N by binary powering, then
    one shortened step covers the remainder, both in the gauge of
    ``_gauge`` on the stacked bands.  On purely absorbing chains every
    power P^(2^j) formed must have 2-norm at most 1 + slack, and no final
    norm may exceed its initial one by more than that factor.  Bounding
    ||P||^N instead trips falsely at long t.  A final state that is not
    finite raises RuntimeError on any chain.
    """
    steps, rem = _step_count(t, dt, "t")
    n0 = np.linalg.norm(psi, axis=-1)
    bands = [np.stack([getattr(m, b) for m in mats]) for b in ("diag", "upper", "lower")]
    absorbing = _is_absorbing(*bands)
    A, c, g = _gauge(*bands)
    x = _to_gauge(psi, g, np.isrealobj(A))
    power = _rk4(A, dt, np.eye(psi.shape[-1]), c)  # ||power||_2 = ||P||_2, D is unitary
    bound = np.full(len(mats), np.inf)  # >= ||power||_2 per chain
    while steps:
        # an SVD only where the squared bound no longer proves contraction
        over = absorbing & (bound > 1.0 + _GROWTH_SLACK)
        if over.any():
            bound[over] = np.linalg.norm(power[over], 2, axis=(-2, -1))
            if np.any(bound[over] > 1.0 + _GROWTH_SLACK):
                raise RuntimeError(f"RK4 step operator grows the norm on an "
                                   f"absorbing chain; {_DT_TOO_LARGE}")
        if steps & 1:
            x = power @ x
        steps >>= 1
        if steps:
            power = power @ power
            bound = bound**2  # ||A^2|| <= ||A||^2
    if rem:
        x = _rk4(A, rem, x, c)
    psi = g * x.view(complex)[..., 0]
    if not np.isfinite(psi).all():
        raise RuntimeError(f"state is not finite; {_DT_TOO_LARGE}")
    if np.any(absorbing & (np.linalg.norm(psi, axis=-1) > n0 * (1.0 + _GROWTH_SLACK))):
        raise RuntimeError(f"norm grew on an absorbing chain; {_DT_TOO_LARGE}")
    return psi


def evolve(
    m: TridiagonalMatrix,
    psi0: StateVector | np.ndarray,
    t: float,
    dt: float = 0.01,
) -> StateVector:
    """State at time t under dpsi/dt = -i H psi, fixed-step RK4.

    The last step is shortened when t is not a multiple of dt.  On purely
    absorbing chains the norm must not grow; if it does, the step size is
    too large for the spectral radius and a RuntimeError is raised.
    """
    psi = _amplitudes(psi0)
    if len(psi) != m.L:
        raise ValueError(f"state has {len(psi)} sites, matrix has {m.L}")
    return StateVector(_propagate([m], psi[None], t, dt)[0])


@np.errstate(over="ignore", invalid="ignore")
def norm_trace(
    m: TridiagonalMatrix,
    psi0: StateVector | np.ndarray,
    t_max: float,
    dt: float = 0.01,
) -> NormTrace:
    """Survival norm at every integrator step from 0 to t_max.

    The initial state must be normalized (||psi0|| = 1 to 1e-9), so the
    trace always starts at 1.  On purely absorbing chains the first step
    whose norm exceeds the previous one by more than a factor 1 + 1e-6
    raises RuntimeError naming its time; on any chain, so does the first
    norm that is not finite.
    """
    psi = _amplitudes(psi0)
    if len(psi) != m.L:
        raise ValueError(f"state has {len(psi)} sites, matrix has {m.L}")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:
        raise ValueError("initial state must have unit norm")
    steps, rem = _step_count(t_max, dt, "t_max")
    absorbing = _is_absorbing(m.diag, m.upper, m.lower)
    tail = rem > 0
    times = dt * np.arange(steps + 1 + tail, dtype=float)
    if tail:
        times[-1] = t_max
    norms = np.empty_like(times)
    norms[0] = 1.0
    L, B = m.L, _BLOCK
    A, c, g = _gauge(m.diag, m.upper, m.lower)
    row = _to_gauge(psi, g, np.isrealobj(A)).T  # the state as k = 2 real or 1 complex rows
    k = len(row)
    # Q[i] = P^(i+1) in the gauge: every state of a block of B steps is Q times its start
    Q = np.empty((B, L, L), dtype=A.dtype)
    Q[0] = _rk4(A, dt, np.eye(L), c)
    for i in range(1, B):
        np.matmul(Q[i - 1], Q[0], out=Q[i])
    QT = Q.reshape(B * L, L).T  # column i*L + l is row l of P^(i+1)
    starts = np.empty((B, k, L), dtype=A.dtype)  # block starts, as rows
    done = 0  # full steps whose norms are in the trace
    while done < steps:
        count = min(B * B, steps - done)
        n = -(-count // B)  # block starts in this chunk, each P^B after the last
        starts[0] = row
        for j in range(1, n):
            np.matmul(starts[j - 1], Q[-1].T, out=starts[j])
        states = (starts[:n].reshape(n * k, L) @ QT).reshape(n, k, B, L)
        # state of step done + j*B + i + 1 is states[j, :, i]; its norm sums
        # the real squares of its k rows, each reduced over contiguous entries
        parts = states.view(float)
        chunk = np.sqrt(np.einsum("jrix,jrix->ji", parts, parts).ravel()[:count])
        norms[done + 1:done + 1 + count] = chunk
        _require_finite(chunk, times[done + 1:done + 1 + count])
        if absorbing:
            grew = np.flatnonzero(chunk > norms[done:done + count] * (1.0 + _GROWTH_SLACK))
            if grew.size:
                raise RuntimeError(f"norm grew on an absorbing chain at "
                                   f"t={times[done + 1 + grew[0]]:g}; {_DT_TOO_LARGE}")
        j, i = divmod(count - 1, B)
        row = states[j, :, i]
        done += count
    if tail:
        norms[-1] = np.linalg.norm(_rk4(A, rem, row.T, c))
        _require_finite(norms[-1:], times[-1:])
    return NormTrace(times, norms, {"dt": dt, "t_max": t_max})


def approx_norm(s: Spectrum, psi0: StateVector | np.ndarray, t: float) -> float:
    """Norm estimate from eigenmode decay alone, ignoring overlaps.

    Expands psi0 in the right eigenbasis and keeps only the diagonal
    terms: N(t) ~ sqrt(sum_mu |c_mu|^2 exp(2 Im(lambda_mu) t)).  Accurate
    far from coalescence, where the eigenvectors are close to orthogonal.
    """
    psi = _amplitudes(psi0)
    c = np.linalg.solve(s.eigenvectors, psi)
    weights = np.abs(c) ** 2 * np.exp(2.0 * s.eigenvalues.imag * t)
    return float(np.sqrt(weights.sum()))


def min_norm_gamma(
    builder: Callable[[float], ChainSpec | TridiagonalMatrix],
    gamma_grid: Sequence[float],
    kind: str = "wavepacket",
    t_final: float | None = None,
    dt: float = 0.01,
    j0: float | None = None,
    sigma: float | None = None,
    p: float = math.pi / 4.0,
) -> MinNormResult:
    """Locate the grid value whose survival norm at t_final is smallest.

    ``builder`` maps a grid value to a chain; ``kind``, ``j0``, ``sigma``
    and ``p`` select the initial state as in ``initial_state``.  t_final
    defaults to 3 L.

    For "uniform_eigen" the state is built from the eigenbasis at each
    grid value; where the spectrum has a repeated eigenvalue (a
    coalescence point, where that basis is defective) the value is nudged
    by +1e-6 and the nudged chain is used, with the effective value
    recorded in the result rows.

    All grid points evolve as one stack of chains, each computed
    independently of the others.
    """
    grid = [float(g) for g in gamma_grid]
    if not grid:
        raise ValueError("gamma_grid must not be empty")
    if kind not in ("wavepacket", "uniform_site", "uniform_eigen"):
        raise ValueError(f"unknown initial-state kind: {kind!r}")

    mats = [as_matrix(builder(g)) for g in grid]
    L = mats[0].L
    if any(m.L != L for m in mats):
        raise ValueError("builder produced chains of different sizes")
    if t_final is None:
        t_final = 3.0 * L

    effective = list(grid)
    if kind != "uniform_eigen":
        states = [initial_state(kind, mats[0], j0, sigma, p).amplitudes] * len(grid)
    else:
        states = []
        for i, g in enumerate(grid):
            s = spectrum(mats[i])
            try:
                state = uniform_eigen(s)
            except ValueError:  # repeated eigenvalue: detune and rebuild
                effective[i] = g + _DEFECTIVE_NUDGE
                mats[i] = as_matrix(builder(effective[i]))
                state = uniform_eigen(spectrum(mats[i]))
            states.append(state.amplitudes)

    final = _propagate(mats, np.stack(states), float(t_final), dt)
    norms = np.linalg.norm(final, axis=-1)

    rows = [(grid[i], effective[i], float(norms[i])) for i in range(len(grid))]
    return MinNormResult(grid[int(np.argmin(norms))], rows)
