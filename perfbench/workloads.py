"""Inputs and timed items of the four benchmark workloads.

Each workload turns ``--seed`` into one *round*: a fixed list of items
whose make-up (families, lengths, state kinds, chain classes) never
depends on the seed; the seed only moves parameters within stated ranges.
A run repeats the same round, so every run attempts whole rounds of the
same operations.

Items are plain dicts.  ``run_item(api, item)`` makes the program calls of
one item and returns their outputs; ``api`` is either the real pcspectra
modules or the tracing proxies of ``tracing.py``.  This module imports
only numpy and pcspectra, so the set-up probe measures the program's own
set-up and not the benchmark's oracles.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

WORKLOADS = ("eig-sweep", "norm-scan", "certify", "cli-presets")

_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def program_api() -> SimpleNamespace:
    """The layers as the untraced run sees them: the modules themselves."""
    from pcspectra import chain, charpoly, dynamics, eig, nonortho

    return SimpleNamespace(chain=chain, eig=eig, charpoly=charpoly,
                           nonortho=nonortho, dynamics=dynamics)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SALT[workload]])


# ---------------------------------------------------------------------------
# family parameters shared by eig-sweep and norm-scan


def family_pc(family: str, L: int, p: dict) -> float:
    """The gamma at which the family pairs up completely (PC point).

    Family d pairs up everywhere on its scaled line; its sweeps have no
    single PC value and return NaN here.
    """
    if family == "legacy":
        return p["alpha"] + 2.0
    if family == "a":
        return p["alpha"] + 2.0 * p["delta"]
    if family == "b":
        return 2.0 * (p["J2"] if (L // 2) % 2 == 0 else p["J1"])
    if family == "c":
        return p["alpha"] + 2.0 * p["Jc"]
    return math.nan


def draw_family_params(rng: np.random.Generator, family: str) -> dict:
    """Family parameters away from accidental degeneracies.

    Family b keeps J1 > J2 (strong edge bonds), so no edge-state pair
    closes to 1e-10 at large L; family c keeps its arm bonds near equal
    for the same reason.  On-site losses are non-negative, so every chain
    is absorbing.
    """
    if family == "legacy":
        return {"alpha": float(rng.uniform(0.0, 0.5))}
    if family == "a":
        return {"alpha": float(rng.uniform(0.0, 0.5)), "delta": float(rng.uniform(0.6, 1.0))}
    if family == "b":
        return {"J1": float(rng.uniform(1.3, 1.7)), "J2": float(rng.uniform(0.8, 1.1)),
                "alpha": 0.0}
    if family == "c":
        j = float(rng.uniform(1.3, 1.6))
        return {"J1": j, "J2": j + float(rng.uniform(-0.05, 0.05)),
                "Jc": float(rng.uniform(0.8, 1.1)), "alpha": float(rng.uniform(0.0, 0.3))}
    return {}


def family_target(api, family: str, L: int, p: dict, gamma: float):
    """The program's chain (spec, or matrix for family d) at one gamma."""
    ch = api.chain
    if family == "legacy":
        return ch.legacy(L, p["alpha"], gamma)
    if family == "a":
        return ch.family_a(L, p["alpha"], gamma, p["delta"])
    if family == "b":
        return ch.family_b(L, p["J1"], p["J2"], p["alpha"], gamma)
    if family == "c":
        return ch.family_c(L, p["J1"], p["J2"], p["Jc"], p["alpha"], gamma)
    return ch.family_d(L, 2.0 * gamma, gamma, 2.0 * gamma)


def _grid(center: float, step: float, n: int, at: int, offset: float = 0.0) -> list[float]:
    """n points step apart; point ``at`` is exactly ``center`` when offset is 0."""
    return [center + (j - at + offset) * step for j in range(n)]


# ---------------------------------------------------------------------------
# eig-sweep

# (family, L, full, points): full items run spectrum -> overlap -> f1/f2 ->
# distinct_count, the others eigenvalues -> distinct_count.
_EIG_SWEEPS = [
    (fam, L, full, n)
    for fam, small, mid in (("legacy", 10, 30), ("a", 10, 30), ("b", 10, 30),
                            ("c", 12, 30), ("d", 12, 28))
    for L, n in ((small, 7), (mid, 5))
    for full in (True, False)
]
# single large-L items: (family, full, detuning from the PC point)
_EIG_LARGE = [("legacy", True, 0.0), ("legacy", False, 0.5),
              ("b", True, -0.5), ("a", False, 0.0)]


def make_eig_sweep(seed: int, tiny: bool = False) -> list[dict]:
    rng = _rng("eig-sweep", seed)
    items = []
    sweeps = [s for s in _EIG_SWEEPS if s[1] <= 12] if tiny else _EIG_SWEEPS
    for sweep_id, (family, L, full, n) in enumerate(sweeps):
        p = draw_family_params(rng, family)
        step = float(rng.uniform(0.08, 0.15))
        if family == "d":
            # the scaled line pairs up everywhere; stay clear of its
            # quadruple point at gamma = 1 (that one is certify's)
            grid = _grid(float(rng.uniform(1.25, 1.6)), step, n, 0)
            pc_index = None
        else:
            at = int(rng.integers(1, n - 1))
            grid = _grid(family_pc(family, L, p), step, n, at)
            pc_index = at
        for j, g in enumerate(grid):
            items.append(dict(kind="eig", family=family, L=L, params=p, gamma=g,
                              full=full, pc=(j == pc_index), sweep=sweep_id))
    if not tiny:
        for family, full, detune in _EIG_LARGE:
            p = draw_family_params(rng, family)
            g = family_pc(family, 104, p) + detune
            items.append(dict(kind="eig", family=family, L=104, params=p, gamma=g,
                              full=full, pc=(detune == 0.0), sweep=None))
    return items


def _run_eig(api, item: dict) -> dict:
    target = family_target(api, item["family"], item["L"], item["params"], item["gamma"])
    m = api.chain.build(target) if item["family"] != "d" else target
    if not item["full"]:
        eigs = api.eig.eigenvalues(m)
        return dict(m=m, eigenvalues=eigs, distinct=api.eig.distinct_count(eigs))
    sym = api.chain.check_symmetry(m)
    s = api.eig.spectrum(m)
    u = api.nonortho.overlap_matrix(s)
    return dict(m=m, symmetry=sym.status, eigenvalues=s.eigenvalues,
                eigenvectors=s.eigenvectors, overlap=u.entries,
                f1=api.nonortho.f1(u), f2=api.nonortho.f2(u),
                distinct=api.eig.distinct_count(s.eigenvalues))


# ---------------------------------------------------------------------------
# norm-scan

# (call, state kind, family, L); t_final = 3 L and dt = 0.01 throughout.
_NORM_ITEMS = (
    [("scan", "wavepacket", f, L) for f, L in
     (("b", 10), ("legacy", 12), ("b", 16), ("a", 20), ("b", 24), ("legacy", 40))]
    + [("scan", "uniform_site", f, L) for f, L in
       (("legacy", 10), ("b", 12), ("a", 16), ("b", 20), ("c", 24))]
    + [("scan", "uniform_eigen", f, L) for f, L in (("b", 10), ("legacy", 16))]
    + [("trace", "uniform_site", f, L) for f, L in
       (("b", 10), ("a", 16), ("legacy", 24), ("b", 40))]
)
SCAN_POINTS = 9
DT = 0.01


def make_norm_scan(seed: int, tiny: bool = False) -> list[dict]:
    rng = _rng("norm-scan", seed)
    items = []
    for call, state, family, L in _NORM_ITEMS:
        if tiny and L > 12:
            continue
        p = draw_family_params(rng, family)
        pc = family_pc(family, L, p)
        t_final = 3.0 * L
        if call == "trace":
            items.append(dict(kind="trace", state=state, family=family, L=L, params=p,
                              gamma=pc + float(rng.uniform(-1.0, 1.0)), t_final=t_final, dt=DT))
            continue
        step = float(rng.uniform(0.2, 0.4))
        at = int(rng.integers(2, SCAN_POINTS - 2))
        # Eigenvector states stay half a step off the PC point: whether the
        # program detunes an exactly defective point depends on rounding
        # (its singular-value threshold sits at the noise floor).
        offset = 0.5 if state == "uniform_eigen" else 0.0
        grid = _grid(pc, step, SCAN_POINTS, at, offset)
        items.append(dict(kind="scan", state=state, family=family, L=L, params=p,
                          grid=grid, t_final=t_final, dt=DT))
    return items


def _run_norm(api, item: dict) -> dict:
    family, L, p = item["family"], item["L"], item["params"]
    dyn = api.dynamics
    if item["kind"] == "trace":
        m = api.chain.build(family_target(api, family, L, p, item["gamma"]))
        tr = dyn.norm_trace(m, dyn.uniform_site(L), item["t_final"], dt=item["dt"])
        return dict(times=tr.times, norms=tr.norms)
    res = dyn.min_norm_gamma(lambda g: family_target(api, family, L, p, g), item["grid"],
                             kind=item["state"], t_final=item["t_final"], dt=item["dt"])
    return dict(gamma_star=res.gamma_star, rows=res.rows)


# ---------------------------------------------------------------------------
# certify

# Random chain classes (k, sigma, chains drawn).  Every chain of the sigma = 3
# classes with k >= 20 hits the principal-minor truncation fault and none of
# the others does, for any seed: the largest minor coefficient sits above
# 1e20 resp. below 1e9 there (measured over 1500 seeds per class), far from
# the 1e14 trimming edge.  The draws put a block of chains of similar cost
# (k = 20, with the numeric-path chains) in the middle of the item times, so
# item_ms_p50 does not sit in the gap between two cost classes.
_RANDOM_CLASSES = [(5, 0.3, 1), (5, 1.0, 1), (5, 3.0, 1), (10, 0.3, 1), (10, 1.0, 1),
                   (20, 0.3, 4), (20, 3.0, 2), (30, 0.3, 1), (40, 0.3, 3), (40, 3.0, 1)]
_FAMILY_B_L = (12, 24)
_NUMERIC_CLASSES = [(5, 0.3), (5, 1.0)]
_POWER_L = (8, 12, 16)


def _flip_mask(rng: np.random.Generator, k: int) -> tuple[bool, ...]:
    return tuple(bool(x) for x in rng.integers(0, 2, size=2 * k - 2))


def make_certify(seed: int, tiny: bool = False) -> list[dict]:
    from pcspectra import chain

    rng = _rng("certify", seed)
    items = []

    def add(spec, ep: bool, label: str):
        items.append(dict(kind="chain", spec=spec, ep=ep, label=label,
                          flip=_flip_mask(rng, spec.k)))

    classes = _RANDOM_CLASSES[:2] if tiny else _RANDOM_CLASSES
    for k, sigma in (c[:2] for c in classes for _ in range(c[2])):
        alpha = float(rng.uniform(-1.0, 1.0))
        gamma = alpha + float(rng.uniform(0.5, 2.5))
        delta = chain.pc_delta(alpha, gamma)
        spec = chain.random_spec(k, int(rng.integers(2**31)), sigma,
                                 chain.CentralBlock(alpha, gamma, delta, delta))
        add(spec, True, f"random k={k} sigma={sigma}")
        add(spec.with_central(chain.CentralBlock(alpha, gamma, 1.5 * delta, 1.5 * delta)),
            False, f"random k={k} sigma={sigma} detuned")
    for L in _FAMILY_B_L[:1] if tiny else _FAMILY_B_L:
        J1, J2 = float(rng.uniform(0.8, 1.2)), float(rng.uniform(1.3, 1.7))
        central = J2 if (L // 2) % 2 == 0 else J1
        add(chain.family_b(L, J1, J2, 0.0, 2.0 * central), True, f"family_b L={L}")
        add(chain.family_b(L, J1, J2, 0.0, 2.0 * central + float(rng.uniform(0.5, 1.0))),
            False, f"family_b L={L} detuned")
    if not tiny:
        # seed-independent chains named in the truncation-fault report
        add(chain.family_b(40, 30, 20, 0, 40), True, "family_b(40, 30, 20, 0, 40)")
        add(chain.random_spec(40, 7, 3.0), True, "random_spec(40, 7, 3.0)")
    for k, sigma in _NUMERIC_CLASSES:
        # complex central block with unequal hoppings: the numeric path
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        gamma = alpha + complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        w = (alpha - gamma) / 2.0
        du = w * complex(rng.uniform(0.5, 2.0)) * np.exp(1j * rng.uniform(0, np.pi))
        spec = chain.random_spec(k, int(rng.integers(2**31)), sigma,
                                 chain.CentralBlock(alpha, gamma, du, w * w / du))
        add(spec, True, f"numeric k={k} sigma={sigma}")
        add(spec.with_central(chain.CentralBlock(alpha, gamma, du, 1.5 * w * w / du)),
            False, f"numeric k={k} sigma={sigma} detuned")
    for L in _POWER_L[:1] if tiny else _POWER_L:
        off = float(rng.uniform(1.2, 1.6))
        for g, quad in ((1.0, True), (off, False)):
            items.append(dict(kind="power", L=L, gamma=g, quad=quad,
                              label=f"family_d L={L} gamma={g:g}"))
    return items


POWER_TOL = 1e-3  # eps**(1/4) splitting of a fourfold point needs the wider scale


def _run_certify(api, item: dict) -> dict:
    ch, cp = api.chain, api.charpoly
    if item["kind"] == "power":
        g = item["gamma"]
        m = ch.family_d(item["L"], 2.0 * g, g, 2.0 * g)
        return dict(symmetry=ch.check_symmetry(m).status,
                    power=cp.verify_power(m, 4, tol=POWER_TOL))
    spec = item["spec"]
    flipped = spec.with_flip_mask(item["flip"])
    m = ch.build(spec)
    m_flip = ch.build(flipped)
    v = cp.verify_pc(spec)
    v_flip = cp.verify_pc(flipped)
    minors = cp.principal_minors(m)
    return dict(symmetry=ch.check_symmetry(m).status,
                symmetry_flip=ch.check_symmetry(m_flip).status,
                mode=v.mode, certified=v.certified, residual=v.residual,
                certified_flip=v_flip.certified,
                minors=[p.coeffs for p in minors])


# ---------------------------------------------------------------------------
# cli-presets: one subprocess per item


def _cli_small_items(rng: np.random.Generator, spec_path: str) -> list[dict]:
    g = float(rng.uniform(1.5, 2.5))
    j1 = float(rng.uniform(1.3, 1.7))
    a = float(rng.uniform(0.0, 0.4))
    b_args = ["--family", "b", "--L", "10", "--J1", f"{j1!r}", "--J2", "1", "--alpha", "0"]
    return [
        dict(name="spectrum_legacy", csv="spectrum", chain=("legacy", 10, {"alpha": a}, a + 2.0),
             argv=["spectrum", "--family", "legacy", "--L", "10", "--alpha", f"{a!r}",
                   "--gamma", f"{a + 2.0!r}"]),
        dict(name="spectrum_c", csv="spectrum",
             chain=("c", 12, {"J1": 1.5, "J2": 1.5, "Jc": 1.0, "alpha": 0.0}, g),
             argv=["spectrum", "--family", "c", "--L", "12", "--J1", "1.5", "--J2", "1.5",
                   "--Jc", "1", "--alpha", "0", "--gamma", f"{g!r}"]),
        dict(name="spectrum_d", csv="spectrum", chain=("d", 12, {}, g),
             argv=["spectrum", "--family", "d", "--L", "12", "--gamma1", f"{2 * g!r}",
                   "--gamma2", f"{g!r}", "--gamma3", f"{2 * g!r}"]),
        dict(name="verify_legacy", chain=("legacy", 10, {"alpha": a}, a + 2.0),
             argv=["verify", "--family", "legacy", "--L", "10", "--alpha", f"{a!r}",
                   "--gamma", f"{a + 2.0!r}", "--order", "2"]),
        dict(name="verify_b", chain=("b", 10, {"J1": j1, "J2": 1.0, "alpha": 0.0}, g),
             argv=["verify"] + b_args + ["--gamma", f"{g!r}"]),
        dict(name="verify_spec", argv=["verify", "--spec", spec_path]),
        dict(name="verify_d", chain=("d", 12, {}, 1.0),
             argv=["verify", "--family", "d", "--L", "12", "--gamma1", "2", "--gamma2", "1",
                   "--gamma3", "2", "--order", "4", "--tol-distinct", "1e-3"]),
        dict(name="nonortho_grid", csv="nonortho_grid",
             argv=["nonortho"] + b_args + ["--gamma-grid", f"{g - 0.5!r}:{g + 0.5!r}:9"]),
        dict(name="nonortho_single", csv="nonortho_single",
             argv=["nonortho"] + b_args + ["--gamma", f"{g!r}"]),
        dict(name="dynamics_trace", csv="dynamics",
             chain=("b", 10, {"J1": 1.0, "J2": 1.5, "alpha": 0.0}, g),
             argv=["dynamics", "--family", "b", "--L", "10", "--J1", "1", "--J2", "1.5",
                   "--alpha", "0", "--gamma", f"{g!r}"]),
        dict(name="dynamics_scan", csv="dynamics",
             chain=("b", 10, {"J1": 1.0, "J2": 1.5, "alpha": 0.0}, math.nan),
             argv=["dynamics", "--family", "b", "--L", "10", "--J1", "1", "--J2", "1.5",
                   "--alpha", "0", "--gamma-grid", "0.5:4.5:9"]),
        dict(name="sweep_j1", csv="sweep:J1",
             argv=["sweep", "--family", "b", "--L", "10", "--J2", "1", "--alpha", "0",
                   "--gamma", f"{g!r}", "--sweep-param", "J1", "--grid", "0.5:2.5:11"]),
        dict(name="sweep_gamma", csv="sweep:gamma",
             argv=["sweep", "--family", "legacy", "--L", "10", "--alpha", f"{a!r}",
                   "--sweep-param", "gamma", "--grid", f"{a + 1.5!r}:{a + 2.5!r}:11"]),
    ]


CLI_PRESETS = ("fig1", "fig2", "fig4", "fig5", "fig7", "fig8")


def make_cli_presets(seed: int, tiny: bool = False) -> list[dict]:
    """Argument lists; paths are relative to the item's own output directory."""
    rng = _rng("cli-presets", seed)
    small = _cli_small_items(rng, os.path.join("..", "chain.json"))
    items = []
    presets = ("fig1",) if tiny else CLI_PRESETS
    for name in presets:
        argv = ["preset-run", "--name", name] + (["--small"] if name == "fig8" else [])
        items.append(dict(name="preset_" + (name + "_small" if name == "fig8" else name),
                          preset=name, argv=argv + ["--out", "."]))
    L = 12 if tiny else 30
    j2 = float(rng.uniform(0.9, 1.1))
    sweep = ["sweep", "--family", "b", "--L", str(L), "--J2", f"{j2!r}", "--alpha", "0",
             "--gamma", "2", "--sweep-param", "J1", "--grid", "0.5:2.5:21"]
    for workers in (1, 2):
        items.append(dict(name=f"sweep_workers{workers}", csv="sweep:J1", pool=workers,
                          argv=sweep + ["--workers", str(workers)]))
    # Spread the short invocations evenly between the long ones, so that the
    # median item (a short one) samples the whole round, not its first seconds.
    position = {id(it): (i + 0.5) / len(group)
                for group in (small, items) for i, it in enumerate(group)}
    items = sorted(small + items, key=lambda it: position[id(it)])
    for item in items:
        item["kind"] = "cli"
        if "csv" in item and "--out" not in item["argv"]:
            item["argv"] = item["argv"] + ["--out", "out.csv"]
    return items


def cli_spec_json(seed: int) -> str:
    """The chain file that the ``verify --spec`` item reads."""
    from pcspectra import chain

    rng = _rng("cli-presets", seed + 7919)
    alpha = float(rng.uniform(-1, 1))
    gamma = alpha + 1.0
    d = chain.pc_delta(alpha, gamma)
    spec = chain.random_spec(6, int(rng.integers(2**31)), 1.0,
                             chain.CentralBlock(alpha, gamma, d, d))
    return chain.spec_to_json(spec)


# ---------------------------------------------------------------------------
# set-up: inputs plus one warm-up call per layer


MAKERS = {"eig-sweep": make_eig_sweep, "norm-scan": make_norm_scan,
          "certify": make_certify, "cli-presets": make_cli_presets}


def warm_up(workload: str, api, scratch: str) -> None:
    """One small call into every layer the workload reaches."""
    ch = api.chain
    spec = ch.legacy(4, 0.0, 2.0)
    m = ch.build(spec)
    ch.check_symmetry(m)
    if workload == "eig-sweep":
        s = api.eig.spectrum(m)
        api.eig.distinct_count(api.eig.eigenvalues(m))
        api.nonortho.f2(api.nonortho.overlap_matrix(s))
    elif workload == "norm-scan":
        api.dynamics.min_norm_gamma(lambda g: ch.legacy(4, 0.0, g), [1.0, 2.0],
                                    kind="uniform_eigen", t_final=0.1)
        api.dynamics.norm_trace(m, api.dynamics.uniform_site(4), 0.1)
    elif workload == "certify":
        api.charpoly.principal_minors(m)
        api.charpoly.verify_pc(spec)
        api.charpoly.verify_power(ch.family_d(4, 2.0, 1.0, 2.0), 2)
    else:
        from pcspectra import cli

        os.makedirs(scratch, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["spectrum", "--family", "legacy", "--L", "4", "--alpha", "0",
                      "--gamma", "2", "--out", os.path.join(scratch, "warmup.csv")])


def set_up(workload: str, seed: int, tiny: bool, scratch: str) -> list[dict]:
    """Everything before the first timed item; returns the round's items."""
    items = MAKERS[workload](seed, tiny)
    if workload == "cli-presets":
        os.makedirs(scratch, exist_ok=True)
        with open(os.path.join(scratch, "chain.json"), "w", encoding="utf-8") as fh:
            fh.write(cli_spec_json(seed))
    warm_up(workload, program_api(), scratch)
    return items


def run_cli(item: dict, scratch: str, src: str, timeout: float = 120.0) -> dict:
    """One ``pcspectra`` invocation in its own directory under ``scratch``.

    The child is reaped with ``wait4`` so its CPU time and peak RSS
    (including pool workers it reaped) are its own, not the sum of all
    children so far.
    """
    import shutil
    import subprocess
    import threading

    cwd = os.path.join(scratch, item["name"])
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PC_SPECTRA_WORKERS", None)  # it would override the item's --workers
    argv = [sys.executable, "-m", "pcspectra.cli"] + item["argv"]
    with open(os.path.join(cwd, "stdout.txt"), "wb") as so, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as se:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=so, stderr=se)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(cwd, "stdout.txt"), encoding="utf-8") as fh:
        stdout = fh.read()
    files = {}
    for dirpath, _, names in os.walk(cwd):
        for n in sorted(names):
            if n.endswith(".csv"):
                with open(os.path.join(dirpath, n), "rb") as fh:
                    files[n] = fh.read()
    return dict(returncode=proc.returncode, stdout=stdout, files=files, _dir=cwd,
                _cpu_s=usage.ru_utime + usage.ru_stime, _rss_kb=usage.ru_maxrss)


RUNNERS = {"eig": _run_eig, "scan": _run_norm, "trace": _run_norm,
           "chain": _run_certify, "power": _run_certify}


def run_item(api, item: dict) -> dict:
    return RUNNERS[item["kind"]](api, item)


def import_program(root: str):
    """Import pcspectra from the checkout's ``src`` and nowhere else."""
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "pcspectra", "__init__.py")):
        raise SystemExit(f"error: no pcspectra sources under {src}")
    sys.path.insert(0, src)
    import pcspectra

    if os.path.dirname(os.path.dirname(os.path.abspath(pcspectra.__file__))) != src:
        raise SystemExit(f"error: pcspectra was imported from {pcspectra.__file__}, not {src}")
    return pcspectra
