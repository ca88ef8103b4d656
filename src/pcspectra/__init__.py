"""Non-Hermitian tridiagonal chains with pairwise-coalescing spectra.

Build finite tight-binding chains whose entire spectrum collapses into
two-fold (or higher) degenerate exceptional points, certify that
coalescence either symbolically or numerically, and study its spectral
and dynamical signatures.
"""
from __future__ import annotations

from .chain import (
    CentralBlock,
    ChainSpec,
    SymmetryReport,
    TridiagonalMatrix,
    as_matrix,
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
from .charpoly import (
    Poly,
    VerificationResult,
    charpoly_oracle,
    principal_minors,
    square_factor,
    transfer_A,
    transfer_T,
    verify_at_relation,
    verify_pc,
    verify_power,
)
from .dynamics import (
    NormTrace,
    StateVector,
    approx_norm,
    evolve,
    gaussian_packet,
    min_norm_gamma,
    norm_trace,
    uniform_eigen,
    uniform_site,
)
from .eig import (
    Spectrum,
    cluster,
    cluster_members,
    distinct_count,
    eigenvalues,
    eigenvector_for,
    spectrum,
)
from .nonortho import OverlapMatrix, SweepPoint, f1, f2, overlap_matrix, sweep_nonortho

__version__ = "0.1.0"

__all__ = [
    "CentralBlock",
    "ChainSpec",
    "SymmetryReport",
    "TridiagonalMatrix",
    "as_matrix",
    "build",
    "check_symmetry",
    "ep_residual",
    "family_a",
    "family_b",
    "family_c",
    "family_d",
    "legacy",
    "pc_delta",
    "random_spec",
    "spec_from_json",
    "spec_to_json",
    "Poly",
    "VerificationResult",
    "charpoly_oracle",
    "principal_minors",
    "square_factor",
    "transfer_A",
    "transfer_T",
    "verify_at_relation",
    "verify_pc",
    "verify_power",
    "NormTrace",
    "StateVector",
    "approx_norm",
    "evolve",
    "gaussian_packet",
    "min_norm_gamma",
    "norm_trace",
    "uniform_eigen",
    "uniform_site",
    "Spectrum",
    "cluster",
    "cluster_members",
    "distinct_count",
    "eigenvalues",
    "eigenvector_for",
    "spectrum",
    "OverlapMatrix",
    "SweepPoint",
    "f1",
    "f2",
    "overlap_matrix",
    "sweep_nonortho",
    "__version__",
]
