"""Time evolution of chain states under non-Hermitian Hamiltonians.

Propagation integrates dpsi/dt = -i H psi with a fixed-step classical
Runge-Kutta (RK4) scheme rather than by spectral decomposition: at a
coalescence point the eigenbasis is incomplete and diagonalization-based
propagators break down, while direct integration does not care.

The survival norm ||psi(t)|| of an initially normalized state is the
central observable.  For purely absorbing chains (Hermitian hopping,
non-positive on-site imaginary parts) the exact norm is non-increasing,
which doubles as an integrator sanity check.

Internally everything evolves column batches, so sweeping a parameter
grid costs one vectorized integration; each column's arithmetic is
independent, making results identical however the grid is split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .chain import ChainSpec, TridiagonalMatrix, as_matrix
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

_DEFECTIVE_SV = 1e-8
_DEFECTIVE_NUDGE = 1e-6
_GROWTH_SLACK = 1e-6


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
    a defective eigenbasis forced a tiny detuning to build the state.
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
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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

    Undefined at a coalescence point, where the eigenvectors stop
    spanning the space; callers should detune slightly first (see
    ``min_norm_gamma``).  Raises ValueError when the eigenbasis is
    numerically defective.
    """
    if s.min_basis_singular_value() < _DEFECTIVE_SV:
        raise ValueError(
            "eigenbasis is numerically defective (coalescence point); "
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
    the eigenbasis of m is numerically defective).
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


def _is_absorbing(d: np.ndarray, u: np.ndarray, low: np.ndarray) -> bool:
    """Hermitian hopping plus only non-positive on-site imaginary parts."""
    scale = max(
        float(np.abs(d).max(initial=0.0)),
        float(np.abs(u).max(initial=0.0)),
        float(np.abs(low).max(initial=0.0)),
        1.0,
    )
    return bool(
        np.all(np.abs(u - np.conj(low)) <= 1e-12 * scale)
        and np.all(d.imag <= 1e-12 * scale)
    )


def _matvec(d, u, low, psi):
    y = d * psi
    y[:-1] += u * psi[1:]
    y[1:] += low * psi[:-1]
    return -1j * y


def _rk4_step(d, u, low, psi, h):
    k1 = _matvec(d, u, low, psi)
    k2 = _matvec(d, u, low, psi + 0.5 * h * k1)
    k3 = _matvec(d, u, low, psi + 0.5 * h * k2)
    k4 = _matvec(d, u, low, psi + h * k3)
    return psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _evolve_array(
    d: np.ndarray,
    u: np.ndarray,
    low: np.ndarray,
    psi: np.ndarray,
    t: float,
    dt: float,
    absorbing: bool,
    check_every: int = 200,
) -> np.ndarray:
    """Integrate one state (L,) or a column batch (L, G) to time t."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if psi.ndim == 2:
        if d.ndim == 1:
            d = d[:, None]
        if u.ndim == 1:
            u = u[:, None]
        if low.ndim == 1:
            low = low[:, None]
    psi = psi.astype(complex, copy=True)
    n0 = np.linalg.norm(psi, axis=0)
    steps = int(math.floor(t / dt + 1e-9))
    rem = t - steps * dt
    for k in range(steps):
        psi = _rk4_step(d, u, low, psi, dt)
        if absorbing and (k % check_every == check_every - 1):
            if np.any(np.linalg.norm(psi, axis=0) > n0 * (1.0 + _GROWTH_SLACK)):
                raise RuntimeError(
                    f"norm grew on an absorbing chain at t={dt * (k + 1):g}; "
                    "the step size dt is too large for this Hamiltonian"
                )
    if rem > 1e-12:
        psi = _rk4_step(d, u, low, psi, rem)
    if absorbing and np.any(np.linalg.norm(psi, axis=0) > n0 * (1.0 + _GROWTH_SLACK)):
        raise RuntimeError(
            "norm grew on an absorbing chain; the step size dt is too "
            "large for this Hamiltonian"
        )
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
    absorbing = _is_absorbing(m.diag, m.upper, m.lower)
    return StateVector(_evolve_array(m.diag, m.upper, m.lower, psi, t, dt, absorbing))


def norm_trace(
    m: TridiagonalMatrix,
    psi0: StateVector | np.ndarray,
    t_max: float,
    dt: float = 0.01,
) -> NormTrace:
    """Survival norm at every integrator step from 0 to t_max.

    The initial state must be normalized (||psi0|| = 1 to 1e-9), so the
    trace always starts at 1.
    """
    psi = _amplitudes(psi0)
    if len(psi) != m.L:
        raise ValueError(f"state has {len(psi)} sites, matrix has {m.L}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("initial state must have unit norm")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    absorbing = _is_absorbing(m.diag, m.upper, m.lower)
    steps = int(math.floor(t_max / dt + 1e-9))
    times = [0.0]
    norms = [1.0]
    psi = psi.astype(complex, copy=True)
    for k in range(steps):
        psi = _rk4_step(m.diag, m.upper, m.lower, psi, dt)
        times.append(dt * (k + 1))
        norms.append(float(np.linalg.norm(psi)))
        if absorbing and norms[-1] > norms[-2] * (1.0 + _GROWTH_SLACK):
            raise RuntimeError(
                f"norm grew on an absorbing chain at t={times[-1]:g}; "
                "the step size dt is too large for this Hamiltonian"
            )
    rem = t_max - steps * dt
    if rem > 1e-12:
        psi = _rk4_step(m.diag, m.upper, m.lower, psi, rem)
        times.append(t_max)
        norms.append(float(np.linalg.norm(psi)))
    return NormTrace(np.array(times), np.array(norms), {"dt": dt, "t_max": t_max})


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
    grid value; where that basis is numerically defective (a coalescence
    point) the value is nudged by +1e-6 and the nudged chain is used, with
    the effective value recorded in the result rows.

    All grid points evolve as one column batch, so each column is
    computed independently of the others.
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
            if s.min_basis_singular_value() < _DEFECTIVE_SV:
                effective[i] = g + _DEFECTIVE_NUDGE
                mats[i] = as_matrix(builder(effective[i]))
                s = spectrum(mats[i])
            states.append(uniform_eigen(s).amplitudes)

    d = np.stack([m.diag for m in mats], axis=1)
    u = np.stack([m.upper for m in mats], axis=1)
    low = np.stack([m.lower for m in mats], axis=1)
    psi = np.stack(states, axis=1)
    absorbing = all(_is_absorbing(m.diag, m.upper, m.lower) for m in mats)
    final = _evolve_array(d, u, low, psi, float(t_final), dt, absorbing)
    norms = np.linalg.norm(final, axis=0)

    rows = [(grid[i], effective[i], float(norms[i])) for i in range(len(grid))]
    return MinNormResult(grid[int(np.argmin(norms))], rows)
