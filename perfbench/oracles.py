"""Output checks made apart from the program.

Matrices are rebuilt here from the family definitions and the chain
parameters, spectra come from LAPACK (``numpy.linalg``), propagation from
``scipy.linalg.expm``, and clustering, pairing and phase conventions are
this file's own code.  Every check returns a list of error strings; an
empty list means the output passed.  ``check_certify`` also says whether
the item hit the principal-minor truncation fault.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

EPS = np.finfo(float).eps
# LAPACK and the program's QR each split a coalesced pair by about
# sqrt(eps)*||H||; 100x that separates a pair's halves from a wrong value.
EIG_MATCH_REL = 100.0 * math.sqrt(EPS)
CLUSTER_TOL = 1e-5          # the program's distinct-eigenvalue convention
RESIDUAL_REL = 1e-6         # eigenvector residual bound promised by the program
PAIR_TOL_REL = 1e-5         # coalesced pairs at the EP sit below 4e-8*||H||
UNIT_TOL = 1e-12
# RK4 at dt = 0.01 changes the norm of an oscillating mode by (h*lam)^6/144
# per step, so by at most t*h^5*rho^6/144 ~ 6e-8 for t = 120, rho = 3.
NORM_TOL = 1e-6


# ---------------------------------------------------------------------------
# matrices rebuilt from their definitions


def _tridiag(diag, upper, lower) -> np.ndarray:
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


def family_dense(family: str, L: int, p: dict, gamma: float) -> np.ndarray:
    """H of a named family at one gamma (family d: on its scaled line)."""
    k = L // 2
    diag = np.zeros(L, dtype=complex)
    if family == "d":
        m = L // 4
        bonds = np.ones(L - 1)
        bonds[2 * m - 1] = gamma
        diag[2 * m - 1] = -1j * gamma
        diag[2 * m] = 1j * gamma
        diag[m - 1] += -2j * gamma
        diag[3 * m] += -2j * gamma
        return _tridiag(diag, -bonds, -bonds)
    j = np.arange(1, L)  # bond j couples sites j and j+1 (1-based)
    if family in ("legacy", "a"):
        bonds = np.ones(L - 1)
        central = 1.0 if family == "legacy" else p["delta"]
    elif family == "b":
        bonds = np.where(j % 2 == 1, p["J1"], p["J2"])
        central = bonds[k - 1]
    elif family == "c":
        left = np.where(j % 3 == 0, p["J2"], p["J1"])
        bonds = np.where(j < k, left, left[L - j - 1])
        central = p["Jc"]
    else:
        raise ValueError(family)
    bonds = bonds.astype(float)
    bonds[k - 1] = central
    diag[k - 1] = -1j * p["alpha"]
    diag[k] = -1j * gamma
    return _tridiag(diag, -bonds, -bonds)


def spec_dense(a, b, c, alpha, gamma, delta_upper, delta_lower) -> np.ndarray:
    """A matrix similar to the mirror chain built from these arm parameters.

    Only the hopping products enter the spectrum, so both off-diagonals
    carry their square roots; the bond orientation (flip mask) drops out.
    """
    a = np.asarray(a, dtype=complex)
    eta = np.asarray(b, dtype=complex) * np.asarray(c, dtype=complex)
    diag = np.concatenate([-a, [-1j * alpha, -1j * gamma], -a[::-1]])
    off = np.sqrt(np.concatenate([eta, [delta_upper * delta_lower], eta[::-1]]))
    return _tridiag(diag, off, off)


def spec_dense_of(spec) -> np.ndarray:
    cb = spec.central
    return spec_dense(spec.a, spec.b, spec.c, cb.alpha, cb.gamma, cb.delta_upper, cb.delta_lower)


def random_arms(k: int, seed: int, sigma: float):
    """The arms ``random_spec`` documents: sigma*(x + i y), x, y ~ N(0, 1), PCG64."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        re = rng.normal(0.0, sigma, size=k - 1)
        im = rng.normal(0.0, sigma, size=k - 1)
        out.append(re + 1j * im)
    return out


def inf_norm(H: np.ndarray) -> float:
    return float(np.abs(H).sum(axis=1).max())


# ---------------------------------------------------------------------------
# spectra


def clusters(eigs, tol: float) -> list[int]:
    """Sizes of single-linkage clusters at distance tol."""
    eigs = np.asarray(eigs, dtype=complex)
    n = len(eigs)
    near = np.abs(eigs[:, None] - eigs[None, :]) <= tol
    seen = np.zeros(n, dtype=bool)
    sizes = []
    for i in range(n):
        if seen[i]:
            continue
        stack, size = [i], 0
        seen[i] = True
        while stack:
            j = stack.pop()
            size += 1
            for nb in np.nonzero(near[j] & ~seen)[0]:
                seen[nb] = True
                stack.append(int(nb))
        sizes.append(size)
    return sizes


def multiset_distance(x, y) -> float:
    """Largest distance under the best one-to-one matching of two multisets."""
    from scipy.optimize import linear_sum_assignment

    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if len(x) != len(y):
        return math.inf
    cost = np.abs(x[:, None] - y[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def worst_pair_gap(eigs) -> float:
    """Pair the values closest-first; the widest pair's gap (inf if odd)."""
    eigs = np.asarray(eigs, dtype=complex)
    if len(eigs) % 2:
        return math.inf
    d = np.abs(eigs[:, None] - eigs[None, :])
    np.fill_diagonal(d, np.inf)
    worst = 0.0
    for _ in range(len(eigs) // 2):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        worst = max(worst, float(d[i, j]))
        d[[i, j], :] = np.inf
        d[:, [i, j]] = np.inf
    return worst


def paired(H: np.ndarray) -> bool:
    """Whether LAPACK's eigenvalues of H fall into tight pairs."""
    return worst_pair_gap(np.linalg.eigvals(H)) <= PAIR_TOL_REL * max(1.0, inf_norm(H))


def fourfold(H: np.ndarray, tol: float) -> bool:
    return all(s % 4 == 0 for s in clusters(np.linalg.eigvals(H), tol))


def first_significant(v: np.ndarray) -> complex:
    """The first component above 1e-12 of the largest, as the program defines it."""
    return v[np.nonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0][0]]


def phase_fixed(v: np.ndarray) -> np.ndarray:
    """Unit norm, first significant component rotated to the positive real axis."""
    v = v / np.linalg.norm(v)
    first = first_significant(v)
    return v * (np.conj(first) / abs(first))


# ---------------------------------------------------------------------------
# eig-sweep


def check_eig(item: dict, out: dict) -> list[str]:
    fam, L, g = item["family"], item["L"], item["gamma"]
    H = family_dense(fam, L, item["params"], g)
    scale = inf_norm(H)
    errs = []
    built = out["m"].to_dense()
    if built.shape != H.shape or np.abs(built - H).max() > 1e-14 * scale:
        errs.append("built matrix differs from the family definition")
        return errs
    eigs = np.asarray(out["eigenvalues"])
    lapack = np.linalg.eigvals(H)
    dist = multiset_distance(eigs, lapack)
    if dist > EIG_MATCH_REL * scale:
        errs.append(f"eigenvalues differ from LAPACK by {dist:.2e}")
    n_lapack = len(clusters(lapack, CLUSTER_TOL))
    if out["distinct"] != n_lapack:
        errs.append(f"distinct_count {out['distinct']} != {n_lapack} from LAPACK")
    expected = L // 2 if (item["pc"] or fam == "d") else L
    if n_lapack != expected:
        errs.append(f"LAPACK count {n_lapack}, expected {expected}")
    if fam == "d" and any(s % 2 for s in clusters(eigs, CLUSTER_TOL)):
        errs.append("family d cluster with odd multiplicity on the scaled line")
    if item["full"]:
        if out["symmetry"] == "none":
            errs.append("check_symmetry says none for a constructed chain")
        V = out["eigenvectors"]
        for mu in range(L):
            v = V[:, mu]
            if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
                errs.append(f"eigenvector {mu} not unit norm")
            if np.linalg.norm(H @ v - eigs[mu] * v) > RESIDUAL_REL * scale:
                errs.append(f"eigenvector {mu} residual above 1e-6*||H||")
            first = first_significant(v)
            if not (first.real > 0 and abs(first.imag) <= 1e-10 * abs(first)):
                errs.append(f"eigenvector {mu} first component not positive real")
        U = out["overlap"]
        Vn = V / np.linalg.norm(V, axis=0)
        if np.abs(U - U.conj().T).max() > UNIT_TOL or np.abs(np.diag(U) - 1).max() > UNIT_TOL:
            errs.append("overlap matrix not Hermitian with unit diagonal")
        if np.abs(U - Vn.conj().T @ Vn).max() > 1e-10:
            errs.append("overlap matrix is not the Gram matrix of the eigenvectors")
        dev = U - np.eye(L)
        f1, f2 = np.abs(dev).sum() / L, np.sqrt((np.abs(dev) ** 2).sum())
        if abs(out["f1"] - f1) > 1e-9 * f1 or abs(out["f2"] - f2) > 1e-9 * f2:
            errs.append("f1/f2 differ from their definitions")
    return errs


def check_f2_peaks(items: list[dict], outs: list[dict]) -> list[str]:
    """In every full sweep with a PC point, f2 peaks at that point."""
    errs = []
    sweeps: dict[int, list[int]] = {}
    for i, it in enumerate(items):
        if it["full"] and it["sweep"] is not None and it["family"] != "d":
            sweeps.setdefault(it["sweep"], []).append(i)
    for sid, idx in sweeps.items():
        if not any(items[i]["pc"] for i in idx):
            continue  # the PC item failed; check_outputs has counted it
        best = max(idx, key=lambda i: outs[i]["f2"])
        if not items[best]["pc"]:
            errs.append(f"sweep {sid} ({items[idx[0]]['family']} L={items[idx[0]]['L']}): "
                        f"f2 peaks at gamma={items[best]['gamma']:.6g}, not at the PC point")
    return errs


# ---------------------------------------------------------------------------
# norm-scan


def initial_state(kind: str, H: np.ndarray) -> np.ndarray:
    L = len(H)
    if kind == "wavepacket":
        j = np.arange(1, L + 1)
        j0, sigma, p = L / 4.0, L / 8.0, math.pi / 4.0
        psi = np.exp(-((j - j0) ** 2) / (4.0 * sigma**2) + 1j * p * j)
    elif kind == "uniform_site":
        psi = np.ones(L, dtype=complex)
    else:
        _, V = np.linalg.eig(H)
        psi = sum(phase_fixed(V[:, mu]) for mu in range(L))
    return psi / np.linalg.norm(psi)


def exact_norm(H: np.ndarray, psi: np.ndarray, t: float) -> float:
    from scipy.linalg import expm

    return float(np.linalg.norm(expm(-1j * t * H) @ psi))


def check_norm(item: dict, out: dict) -> list[str]:
    fam, L, p, t = item["family"], item["L"], item["params"], item["t_final"]
    errs = []
    if item["kind"] == "trace":
        H = family_dense(fam, L, p, item["gamma"])
        norms = np.asarray(out["norms"])
        if norms[0] != 1.0:
            errs.append("norm trace does not start at 1")
        if np.any(np.diff(norms) > 1e-13):
            errs.append("norm grew on an absorbing chain")
        if abs(out["times"][-1] - t) > 1e-9:
            errs.append("trace does not end at t_final")
        exact = exact_norm(H, initial_state(item["state"], H), t)
        if abs(norms[-1] - exact) > NORM_TOL:
            errs.append(f"final norm {norms[-1]:.9f} vs expm {exact:.9f}")
        return errs
    exact = []
    for g, g_eff, n in out["rows"]:
        H = family_dense(fam, L, p, g_eff)
        e = exact_norm(H, initial_state(item["state"], H), t)
        exact.append(e)
        if abs(n - e) > NORM_TOL:
            errs.append(f"gamma={g:.6g}: final norm {n:.9f} vs expm {e:.9f}")
    grid = [r[0] for r in out["rows"]]
    if grid != list(item["grid"]):
        errs.append("result rows are not in grid order")
    star = grid.index(out["gamma_star"]) if out["gamma_star"] in grid else None
    if star is None or exact[star] > min(exact) + 2 * NORM_TOL:
        errs.append(f"gamma* {out['gamma_star']} is not the argmin of the expm norms")
    return errs


# ---------------------------------------------------------------------------
# certify


def check_certify(item: dict, out: dict) -> tuple[list[str], bool]:
    """Errors, and whether the item hit the principal-minor truncation fault."""
    errs = []
    if item["kind"] == "power":
        g = item["gamma"]
        oracle = fourfold(family_dense("d", item["L"], {}, g), 1e-3)
        if oracle != item["quad"]:
            errs.append("LAPACK clustering disagrees with the construction")
        if out["power"] != oracle:
            errs.append(f"verify_power={out['power']}, LAPACK fourfold={oracle}")
        if out["symmetry"] == "none":
            errs.append("check_symmetry says none for a constructed chain")
        return errs, False
    spec = item["spec"]
    oracle = paired(spec_dense_of(spec))
    if oracle != item["ep"]:
        errs.append("LAPACK pairing disagrees with the construction")
    if out["certified"] != oracle:
        errs.append(f"certified={out['certified']}, LAPACK pairing={oracle}")
    if out["certified_flip"] != out["certified"]:
        errs.append("verdict changes under a flipped bond mask")
    expected_mode = "symbolic" if spec.central.is_restricted else "numeric"
    if out["mode"] != expected_mode:
        errs.append(f"mode {out['mode']}, expected {expected_mode}")
    if "none" in (out["symmetry"], out["symmetry_flip"]):
        errs.append("check_symmetry says none for a constructed chain")
    truncated = not minors_monic(out["minors"])
    return errs, truncated


def minors_monic(minors) -> bool:
    """principal_minors(m)[n] is monic of degree n, as documented."""
    return all(len(c) == n + 1 and c[-1] == 1.0 for n, c in enumerate(minors))


# ---------------------------------------------------------------------------
# cli-presets

CSV_HEADERS = {
    "spectrum": ["index", "re_lambda", "im_lambda", "cluster_id", "multiplicity"],
    "nonortho_single": ["mu", "nu", "abs_U"],
    "nonortho_grid": ["gamma", "f1", "f2", "distinct_count"],
    "dynamics": ["gamma", "t", "norm"],
}


def read_csv_bytes(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def expected_header(kind: str) -> list[str]:
    if kind.startswith("sweep:"):
        return [kind.split(":", 1)[1], "distinct_count", "certified", "residual"]
    return CSV_HEADERS[kind]


def check_header(rows: list[list[str]], kind: str, name: str) -> list[str]:
    want = expected_header(kind)
    if not rows or rows[0] != want:
        return [f"{name}: header {rows[0] if rows else None} != {want}"]
    return []


def parse_summary(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


FIG1_COUNTS = {"gamma_1.5": (0.0, 1.5, 10), "gamma_2": (0.0, 2.0, 5),
               "gamma_2.5": (0.0, 2.5, 10), "alpha_-1_gamma_1": (-1.0, 1.0, 5)}


def check_fig1(summary: dict, files: dict) -> list[str]:
    errs = []
    for tag, (alpha, gamma, want) in FIG1_COUNTS.items():
        n = len(clusters(np.linalg.eigvals(family_dense("legacy", 10, {"alpha": alpha}, gamma)),
                         CLUSTER_TOL))
        if n != want or summary.get("distinct", {}).get(tag) != want:
            errs.append(f"fig1 {tag}: program {summary.get('distinct', {}).get(tag)}, "
                        f"LAPACK {n}, expected {want}")
        rows = files.get(f"fig1_spectrum_{tag}.csv")
        if rows is None:
            errs.append(f"fig1 {tag}: no CSV")
            continue
        errs += check_header(rows, "spectrum", f"fig1 {tag}")
    return errs


def check_fig2(summary: dict, files: dict) -> list[str]:
    errs = []
    if summary.get("certified") != {"1.0": 100, "1.3": 0}:
        errs.append(f"fig2 certified {summary.get('certified')}, expected 100 and 0")
    rows = files.get("fig2_certificates.csv") or []
    if not rows or rows[0] != ["seed", "gamma", "mode", "residual", "certified", "distinct"]:
        return errs + ["fig2: bad or missing CSV"]
    d = (1.0 - -1.2) / 2.0
    for seed, gamma, _, _, certified, _ in rows[1:]:
        a, b, c = random_arms(5, int(seed), 1.0)
        oracle = paired(spec_dense(a, b, c, -1.2, float(gamma), d, d))
        if (certified == "true") != oracle:
            errs.append(f"fig2 seed {seed} gamma {gamma}: certified={certified}, "
                        f"LAPACK pairing={oracle}")
    return errs


def check_fig8(summary: dict, files: dict) -> list[str]:
    errs = []
    for L in (24, 26):
        for state in ("wavepacket", "uniform_site", "uniform_eigen"):
            name = f"fig8_L{L}_{state}.csv"
            rows = files.get(name)
            if rows is None:
                errs.append(f"fig8: no {name}")
                continue
            errs += check_header(rows, "dynamics", name)
            body = rows[1:-1]
            exact = []
            for g, t, n in body:
                H = family_dense("b", L, {"J1": 1.0, "J2": 1.5, "alpha": 0.0}, float(g))
                if state == "uniform_eigen" and np.linalg.svd(
                        np.linalg.eig(H)[1], compute_uv=False)[-1] < 1e-6:
                    # numerically defective: the program detunes, the state is
                    # not defined at g itself; take its own norm for the argmin
                    exact.append(float(n))
                    continue
                e = exact_norm(H, initial_state(state, H), float(t))
                exact.append(e)
                if abs(float(n) - e) > NORM_TOL:
                    errs.append(f"{name} gamma={g}: norm {n} vs expm {e:.9f}")
            star = summary.get("gamma_star", {}).get(f"L{L}_{state.replace('_', '-')}")
            best = min(range(len(exact)), key=exact.__getitem__)
            near = [float(body[i][0]) for i in range(len(exact))
                    if exact[i] <= exact[best] + 2 * NORM_TOL]
            if star not in near:
                errs.append(f"{name}: gamma* {star} is not the expm argmin {body[best][0]}")
    return errs


def check_chain_summary(item: dict, summary: dict, rows) -> list[str]:
    """Counts, verdicts and norms of single-chain subcommands against oracles."""
    fam, L, p, g = item["chain"]
    errs = []
    if item["name"] == "dynamics_scan":
        for gamma, t, norm in (rows or [])[1:-1]:
            H = family_dense(fam, L, p, float(gamma))
            e = exact_norm(H, initial_state("wavepacket", H), float(t))
            if abs(float(norm) - e) > NORM_TOL:
                errs.append(f"dynamics_scan gamma={gamma}: norm {norm} vs expm {e:.9f}")
        return errs
    if item["name"] == "dynamics_trace":
        H = family_dense(fam, L, p, g)
        e = exact_norm(H, initial_state("wavepacket", H), 3.0 * L)
        if not abs(summary.get("n_min", math.nan) - e) <= NORM_TOL:
            errs.append(f"dynamics_trace: final norm {summary.get('n_min')} vs expm {e:.9f}")
        return errs
    H = family_dense(fam, L, p, g)
    if "distinct" in summary:
        n = len(clusters(np.linalg.eigvals(H), CLUSTER_TOL))
        if summary["distinct"] != n:
            errs.append(f"{item['name']}: distinct {summary['distinct']} vs LAPACK {n}")
    fourfold_point = summary.get("power_order") == 4
    want = fourfold(H, 1e-3) if fourfold_point else paired(H)
    if "certified" in summary and summary["certified"] != want:
        errs.append(f"{item['name']}: certified {summary['certified']} vs LAPACK pairing")
    if "power_certified" in summary:
        want = fourfold(H, 1e-3) if summary["power_order"] == 4 else paired(H)
        if summary["power_certified"] != want:
            errs.append(f"{item['name']}: power_certified {summary['power_certified']}")
    return errs


def check_spec_summary(summary: dict, spec_path: str) -> list[str]:
    """``verify --spec``: the chain file read back here, verdict from LAPACK."""
    with open(spec_path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def cplx(pairs):
        return [complex(re, im) for re, im in pairs]

    c = {k: complex(*v) for k, v in doc["central"].items()}
    H = spec_dense(cplx(doc["a"]), cplx(doc["b"]), cplx(doc["c"]), c["alpha"], c["gamma"],
                   c["delta_upper"], c["delta_lower"])
    if summary.get("certified") != paired(H):
        return [f"verify_spec: certified {summary.get('certified')} vs LAPACK pairing"]
    return []


def check_fig4(summary: dict, files: dict) -> list[str]:
    errs = []
    for name, swept in (("fig4a.csv", "J1"), ("fig4b.csv", "J2")):
        rows = files.get(name)
        if not rows or rows[0] != ["L", swept, "distinct_count"]:
            errs.append(f"fig4: bad or missing {name}")
            continue
        for L, x, n in rows[1:]:
            p = {"J1": 1.0, "J2": 1.0, "alpha": 0.0, swept: float(x)}
            want = len(clusters(np.linalg.eigvals(family_dense("b", int(L), p, 2.0)), CLUSTER_TOL))
            if int(n) != want:
                errs.append(f"{name} L={L} {swept}={x}: distinct {n} vs LAPACK {want}")
    return errs


def check_fig5(summary: dict, files: dict) -> list[str]:
    errs = []
    for g in ("1", "3", "50"):
        rows = files.get(f"fig5_gamma_{g}.csv")
        if not rows:
            errs.append(f"fig5: no CSV for gamma {g}")
            continue
        errs += check_header(rows, "nonortho_single", f"fig5 gamma {g}")
        if any(r[0] == r[1] and abs(float(r[2]) - 1.0) > UNIT_TOL for r in rows[1:]):
            errs.append(f"fig5 gamma {g}: overlap diagonal is not 1")
    return errs


def check_fig7(summary: dict, files: dict) -> list[str]:
    rows = files.get("fig7_trajectories.csv")
    if not rows or rows[0] != ["gamma", "index", "re_lambda", "im_lambda"]:
        return ["fig7: bad or missing CSV"]
    by_gamma: dict[str, list[complex]] = {}
    for g, _, re, im in rows[1:]:
        by_gamma.setdefault(g, []).append(complex(float(re), float(im)))
    errs = []
    for g, eigs in by_gamma.items():
        H = family_dense("d", 12, {}, float(g))
        # eps**(1/4) splitting near the fourfold point at gamma = 1
        if multiset_distance(eigs, np.linalg.eigvals(H)) > 1e-3 * inf_norm(H):
            errs.append(f"fig7 gamma={g}: eigenvalues differ from LAPACK")
    if len(by_gamma) != 41:
        errs.append(f"fig7: {len(by_gamma)} gamma values, expected 41")
    return errs
