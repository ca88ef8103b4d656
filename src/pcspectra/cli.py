"""Command-line front end: spectra, certificates, sweeps, and presets.

Subcommands
-----------
spectrum    eigenvalues of one chain, clustered, as CSV
verify      coalescence certificate for one chain, as JSON
nonortho    non-orthogonality sweep over gamma, or a single-gamma heatmap
dynamics    survival-norm traces and minimum-norm scans over gamma
sweep       distinct-count/certificate scan over any one family parameter
preset-run  canned parameter sets that regenerate the reference datasets

Every run prints a one-line JSON summary to stdout and writes its data
files atomically (temp file + rename).  Exit status: 0 on success (a
failed certification is data, not an error), 1 for invalid
configuration, 2 for numerical failure.  CSV output is RFC 4180 with a
header row; floats use the shortest round-trip decimal form.

Every run computes in one process.  --workers is still accepted, since
scripts pass it.  It must be an integer of at least 1; it is then
discarded, so no RunConfig field holds it and it cannot change the output.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import inspect
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from . import chain, dynamics, nonortho
from .charpoly import verify_pc, verify_power
from .eig import cluster_members, distinct_count, eigenvalues, spectrum

__all__ = ["RunConfig", "run", "main"]

_STATES = ("wavepacket", "uniform-site", "uniform-eigen")
_PRESETS = ("fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8")

# Each family's builder; its signature gives the family's parameter flags.
_FAMILIES = {
    "legacy": chain.legacy,
    "a": chain.family_a,
    "b": chain.family_b,
    "c": chain.family_c,
    "d": chain.family_d,
}
_PARAMS = sorted({k for fn in _FAMILIES.values() for k in inspect.signature(fn).parameters})


class _CliError(Exception):
    """Invalid configuration; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we want exit 1
        raise _CliError(message)


@dataclass(frozen=True)
class RunConfig:
    """One fully-specified CLI run.

    Exactly one input source is set: a family with parameters, a spec
    file, or a preset name.
    """

    subcommand: str
    family: str | None = None
    params: dict = field(default_factory=dict)
    spec_path: str | None = None
    preset_name: str | None = None
    small: bool = False
    grid: tuple[float, float, int] | None = None
    sweep_param: str = "gamma"
    gamma: float | None = None
    state: str = "wavepacket"
    j0: float | None = None
    sigma: float | None = None
    p: float = math.pi / 4.0
    t_final: float | None = None
    dt: float = 0.01
    order: int | None = None
    tol_distinct: float = 1e-5
    tol_certify: float = 1e-8
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        sources = [self.family is not None, self.spec_path is not None,
                   self.preset_name is not None]
        if sum(sources) != 1:
            raise _CliError("exactly one of --family, --spec, or a preset is required")
        if self.grid is not None and self.grid[2] < 1:
            raise _CliError("grid must have at least one point")
        if not all(0 < t < math.inf for t in (self.tol_distinct, self.tol_certify)):
            raise _CliError("tolerances must be finite and positive")


# ---------------------------------------------------------------------------
# target construction


def _flags(names) -> str:
    return ", ".join("--" + k for k in names)


def _family_target(family: str, params: dict, sweep_param: str | None = None,
                   value: float | None = None):
    """The chain of one family, optionally with one parameter set to ``value``.

    The builder's signature names the family's parameters; those without a
    default are required.  For family d, sweeping "gamma" moves along the
    scaled direction gamma1/2 = gamma3/2 = gamma2 = value, the
    one-parameter line on which its coalescence lives.  A swept parameter
    that ``params`` also fixes is rejected as stray.
    """
    builder = _FAMILIES.get(family)
    if builder is None:
        raise _CliError(f"unknown family {family!r}")
    known = inspect.signature(builder).parameters
    p = {k: v for k, v in params.items() if v is not None}
    swept = {}
    if sweep_param is not None:
        if family == "d" and sweep_param == "gamma":
            swept = dict(gamma1=2.0 * value, gamma2=value, gamma3=2.0 * value)
        elif sweep_param in known and sweep_param != "L":
            swept = {sweep_param: value}
        else:
            raise _CliError(f"family {family!r} cannot sweep {sweep_param!r}")
    stray = [k for k in p if k not in known or k in swept]
    p.update(swept)
    missing = [k for k, v in known.items() if v.default is v.empty and k not in p]
    if missing:
        raise _CliError(f"family {family!r} needs {_flags(missing)}")
    if stray:
        raise _CliError(f"family {family!r} does not take {_flags(stray)}")
    nonfinite = [k for k, v in p.items() if not cmath.isfinite(v)]
    if nonfinite:
        raise _CliError(f"{_flags(nonfinite)} must be finite")
    return builder(**p)


def _load_spec(path: str) -> chain.ChainSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return chain.spec_from_json(fh.read())
    except OSError as exc:
        raise _CliError(f"cannot read spec file {path!r}: {exc}") from exc


def _single_target(config: RunConfig, gamma: float | None = None):
    """The run's spec file, or its family chain (at ``gamma``, if given)."""
    if config.spec_path is not None:
        return _load_spec(config.spec_path)
    return _family_target(config.family, config.params,
                          None if gamma is None else "gamma", gamma)


# ---------------------------------------------------------------------------
# output helpers


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180: CRLF line endings, quoting as needed
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _json_ready(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_spectrum(config: RunConfig) -> dict:
    m = chain.as_matrix(_single_target(config))
    eigs = eigenvalues(m)
    groups = cluster_members(eigs, config.tol_distinct)
    # clusters numbered in canonical order of their means
    means = [complex(np.mean(eigs[g])) for g in groups]
    order = sorted(range(len(groups)), key=lambda i: (means[i].real, means[i].imag))
    cluster_of = {}
    for cid, gi in enumerate(order):
        for idx in groups[gi]:
            cluster_of[idx] = (cid, len(groups[gi]))
    rows = [
        (i, eigs[i].real, eigs[i].imag, cluster_of[i][0], cluster_of[i][1])
        for i in range(len(eigs))
    ]
    out = config.out or "spectrum.csv"
    _write_csv(out, ("index", "re_lambda", "im_lambda", "cluster_id", "multiplicity"), rows)
    return {
        "command": "spectrum",
        "L": m.L,
        "distinct": len(groups),
        "out": out,
    }


def _run_verify(config: RunConfig) -> dict:
    target = _single_target(config)
    result = verify_pc(
        target, tol_certify=config.tol_certify, tol_distinct=config.tol_distinct
    )
    summary = {
        "command": "verify",
        "mode": result.mode,
        "certified": result.certified,
        "residual": result.residual,
        "order": result.order,
        "tol_certify": config.tol_certify,
        "tol_distinct": config.tol_distinct,
    }
    if config.order is not None:
        summary["power_order"] = config.order
        summary["power_certified"] = verify_power(
            chain.as_matrix(target), config.order, tol=config.tol_distinct
        )
    if config.out:
        _atomic_write(
            config.out,
            json.dumps(_json_ready(summary), sort_keys=True, indent=2) + "\n",
        )
        summary["out"] = config.out
    return summary


def _run_nonortho(config: RunConfig) -> dict:
    if (config.grid is None) == (config.gamma is None):
        raise _CliError("nonortho needs exactly one of --gamma-grid or --gamma")
    if config.gamma is not None:
        s = spectrum(chain.as_matrix(_single_target(config, config.gamma)))
        u = nonortho.overlap_matrix(s)
        rows = [(mu, nu, abs(u.entries[mu, nu])) for mu in range(u.L) for nu in range(u.L)]
        out = config.out or "nonortho.csv"
        _write_csv(out, ("mu", "nu", "abs_U"), rows)
        return {
            "command": "nonortho",
            "gamma": config.gamma,
            "L": u.L,
            "max_offdiag": u.max_offdiag(),
            "f2": nonortho.f2(u),
            "out": out,
        }

    if config.spec_path is not None:
        raise _CliError("gamma sweeps need --family (a spec file has no free gamma)")
    values = np.linspace(*config.grid)
    if len(values) < 2:
        raise _CliError("--gamma-grid needs at least two points")
    points = nonortho.sweep_nonortho(functools.partial(_single_target, config), values,
                                     config.tol_distinct)
    rows = [astuple(point) for point in points]
    out = config.out or "nonortho.csv"
    _write_csv(out, ("gamma", "f1", "f2", "distinct_count"), rows)
    best = max(rows, key=lambda r: r[2])
    return {
        "command": "nonortho",
        "points": len(rows),
        "argmax_f2": best[0],
        "max_f2": best[2],
        "out": out,
    }


def _run_dynamics(config: RunConfig) -> dict:
    if (config.grid is None) == (config.gamma is None):
        raise _CliError("dynamics needs exactly one of --gamma-grid or --gamma")
    if config.spec_path is not None:
        raise _CliError("dynamics sweeps gamma and therefore needs --family")
    if config.state not in _STATES:
        raise _CliError(f"--state must be one of {', '.join(_STATES)}")
    out = config.out or "dynamics.csv"
    values = [config.gamma] if config.grid is None else np.linspace(*config.grid)
    m = chain.as_matrix(_single_target(config, float(values[0])))
    t_final = 3.0 * m.L if config.t_final is None else config.t_final
    summary = {"command": "dynamics", "state": config.state, "t_final": t_final,
               "out": out}

    if config.grid is None:
        psi0 = dynamics.initial_state(config.state.replace("-", "_"), m,
                                      config.j0, config.sigma, config.p)
        trace = dynamics.norm_trace(m, psi0, t_final, dt=config.dt)
        rows = [(config.gamma, t, n) for t, n in zip(trace.times, trace.norms)]
        n_final = float(trace.norms[-1])
        rows.append((config.gamma, "", n_final))  # summary row: gamma_star, N_min
        _write_csv(out, ("gamma", "t", "norm"), rows)
        return {**summary, "gamma_star": config.gamma, "n_min": n_final}

    all_rows = dynamics.min_norm_gamma(
        functools.partial(_single_target, config), values,
        kind=config.state.replace("-", "_"), t_final=t_final,
        dt=config.dt, j0=config.j0, sigma=config.sigma, p=config.p,
    ).rows
    nudged = [(g, ge) for g, ge, _ in all_rows if ge != g]
    star = min(all_rows, key=lambda r: r[2])
    rows = [(g, t_final, n) for g, _, n in all_rows]
    rows.append((star[0], "", star[2]))  # summary row: gamma_star, N_min
    _write_csv(out, ("gamma", "t", "norm"), rows)
    summary.update(gamma_star=star[0], n_min=star[2], points=len(all_rows))
    if nudged:
        summary["detuned_points"] = nudged
    return summary


def _run_sweep(config: RunConfig) -> dict:
    if config.grid is None:
        raise _CliError("sweep needs --grid start:stop:points")
    if config.spec_path is not None:
        raise _CliError("sweep varies a family parameter and therefore needs --family")
    rows = []
    for v in np.linspace(*config.grid):
        target = _family_target(config.family, config.params, config.sweep_param, float(v))
        result = verify_pc(target, tol_certify=config.tol_certify,
                           tol_distinct=config.tol_distinct)
        n = distinct_count(eigenvalues(chain.as_matrix(target)), config.tol_distinct)
        rows.append((float(v), n, result.certified, result.residual))
    out = config.out or "sweep.csv"
    _write_csv(out, (config.sweep_param, "distinct_count", "certified", "residual"), rows)
    return {
        "command": "sweep",
        "param": config.sweep_param,
        "points": len(rows),
        "certified_points": sum(1 for r in rows if r[2]),
        "out": out,
    }


# ---------------------------------------------------------------------------
# presets


def _preset_runs(small: bool) -> dict:
    """Presets made of subcommand runs: name -> (summary key, runs).

    Each run is (summary label, file name, RunConfig overrides).  The
    preset summary maps each label to the value under the key in that
    run's own summary.
    """
    b = dict(J1=1.0, J2=1.5, alpha=0.0)
    return {
        "fig1": ("distinct", [
            (tag, f"fig1_spectrum_{tag}.csv",
             dict(subcommand="spectrum", family="legacy",
                  params=dict(L=10, alpha=alpha, gamma=gamma)))
            for tag, alpha, gamma in (("gamma_1.5", 0.0, 1.5), ("gamma_2", 0.0, 2.0),
                                      ("gamma_2.5", 0.0, 2.5),
                                      ("alpha_-1_gamma_1", -1.0, 1.0))
        ]),
        "fig5": (None, [
            (None, f"fig5_gamma_{gamma:g}.csv",
             dict(subcommand="nonortho", family="b",
                  params=dict(L=10, J1=1.5, J2=1.0, alpha=0.0), gamma=gamma))
            for gamma in (1.0, 3.0, 50.0)
        ]),
        "fig6": ("argmax_f2", [
            (fname, fname,
             dict(subcommand="nonortho", family=family, params=params, grid=grid))
            for fname, family, params, grid in (
                ("fig6a.csv", "a", dict(L=30, alpha=0.0, delta=0.5), (0.05, 3.0, 101)),
                ("fig6b_L12.csv", "b", dict(L=12, **b), (0.5, 6.0, 101)),
                ("fig6b_L14.csv", "b", dict(L=14, **b), (0.5, 6.0, 101)),
                ("fig6c.csv", "c", dict(L=30, J1=1.5, J2=1.5, Jc=1.0, alpha=0.0),
                 (0.5, 4.0, 101)),
                ("fig6d.csv", "d", dict(L=20), (0.3, 2.5, 101)),
            )
        ]),
        "fig8": ("gamma_star", [
            (f"L{L}_{state}", f"fig8_L{L}_{state.replace('-', '_')}.csv",
             dict(subcommand="dynamics", family="b", params=dict(L=L, **b),
                  grid=(0.5, 6.0, 56), state=state))
            for L in ((24, 26) if small else (104, 106))
            for state in _STATES
        ]),
    }


def _preset_fig2(config: RunConfig, outdir: str) -> dict:
    rows = []
    certified = {}
    delta = chain.pc_delta(-1.2, 1.0)
    for gamma in (1.0, 1.3):
        n_ok = 0
        for i in range(100):
            seed = config.seed + i
            central = chain.CentralBlock(-1.2, gamma, delta, delta)
            spec = chain.random_spec(5, seed, 1.0, central)
            result = verify_pc(spec, tol_certify=config.tol_certify,
                               tol_distinct=config.tol_distinct)
            n = distinct_count(eigenvalues(chain.build(spec)), config.tol_distinct)
            rows.append((seed, gamma, result.mode, result.residual, result.certified, n))
            n_ok += bool(result.certified)
        certified[str(gamma)] = n_ok
    out = os.path.join(outdir, "fig2_certificates.csv")
    _write_csv(out, ("seed", "gamma", "mode", "residual", "certified", "distinct"), rows)
    return {"files": [out], "certified": certified}


def _preset_fig4(config: RunConfig, outdir: str) -> dict:
    base = dict(J1=1.0, J2=1.0, alpha=0.0, gamma=2.0)
    files = []
    for fname, param, sizes in (("fig4a.csv", "J1", (12, 16, 20, 22)),
                                ("fig4b.csv", "J2", (14, 18, 20, 22))):
        rows = []
        for L in sizes:
            for x in np.linspace(0.5, 2.5, 21):
                m = chain.build(chain.family_b(L, **{**base, param: float(x)}))
                rows.append((L, float(x), distinct_count(eigenvalues(m), config.tol_distinct)))
        files.append(os.path.join(outdir, fname))
        _write_csv(files[-1], ("L", param, "distinct_count"), rows)
    return {"files": files}


def _preset_fig7(config: RunConfig, outdir: str) -> dict:
    rows = []
    for g in np.linspace(0.8, 1.2, 41):
        eigs = eigenvalues(chain.family_d(12, 2.0 * g, g, 2.0 * g))
        rows.extend((float(g), i, z.real, z.imag) for i, z in enumerate(eigs))
    out = os.path.join(outdir, "fig7_trajectories.csv")
    _write_csv(out, ("gamma", "index", "re_lambda", "im_lambda"), rows)
    return {"files": [out]}


def _run_preset(config: RunConfig) -> dict:
    name = config.preset_name
    outdir = config.out or "."
    os.makedirs(outdir, exist_ok=True)
    runs = _preset_runs(config.small).get(name)
    if runs is None:
        summary = {"fig2": _preset_fig2, "fig4": _preset_fig4,
                   "fig7": _preset_fig7}[name](config, outdir)
    else:
        key, jobs = runs
        files, values = [], {}
        for label, fname, overrides in jobs:
            files.append(os.path.join(outdir, fname))
            result = run(replace(config, preset_name=None, out=files[-1], **overrides))
            if key is not None:
                values[label] = result[key]
        summary = {"files": files, key: values} if key is not None else {"files": files}
        if name == "fig8":
            summary["small"] = config.small
    summary.update({"command": "preset-run", "name": name})
    return summary


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (preset-run: output directory)")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--workers", type=int,
                        help="accepted for compatibility: checked to be at least 1, "
                             "then ignored")
    parser.add_argument("--tol-distinct", type=float,
                        help="clustering tolerance for distinct eigenvalues")
    parser.add_argument("--tol-certify", type=float,
                        help="residual tolerance for certification")


def _add_family(parser: argparse.ArgumentParser, with_spec: bool = True) -> None:
    parser.add_argument("--family", choices=sorted(_FAMILIES),
                        help="chain family to build")
    if with_spec:
        parser.add_argument("--spec", dest="spec_path",
                            help="chain spec JSON file (alternative to --family)")
    parser.add_argument("--L", type=int, help="chain length")
    parser.add_argument("--alpha", type=float, help="on-site loss at site k")
    parser.add_argument("--gamma", type=float, help="on-site loss at site k+1")
    parser.add_argument("--delta", type=float, help="central bond strength (family a)")
    parser.add_argument("--beta", type=complex,
                        help="edge on-site term -i*beta (family a, complex ok)")
    parser.add_argument("--J1", type=float, help="odd-bond hopping (families b, c)")
    parser.add_argument("--J2", type=float, help="even/third-bond hopping (families b, c)")
    parser.add_argument("--Jc", type=float, help="central bond hopping (family c)")
    parser.add_argument("--gamma1", type=float, help="loss at site m (family d)")
    parser.add_argument("--gamma2", type=float,
                        help="central bond and gain/loss pair (family d)")
    parser.add_argument("--gamma3", type=float, help="loss at site 3m+1 (family d)")


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:points")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError("grid endpoints must be finite")
    if n < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    return (start, stop, n)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pcspectra",
                     description="Spectra, coalescence certificates, and dynamics "
                                 "of non-Hermitian tridiagonal chains.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of one chain as CSV")
    _add_family(sp)
    _add_common(sp)

    vp = sub.add_parser("verify", help="coalescence certificate as JSON")
    _add_family(vp)
    vp.add_argument("--order", type=int, choices=(2, 4, 8),
                    help="additionally check order-fold cluster structure")
    _add_common(vp)

    np_ = sub.add_parser("nonortho", help="non-orthogonality sweep or heatmap")
    _add_family(np_)
    np_.add_argument("--gamma-grid", type=_parse_grid, dest="grid",
                     help="start:stop:points sweep over gamma")
    _add_common(np_)

    dp = sub.add_parser("dynamics", help="survival-norm traces and minima")
    _add_family(dp, with_spec=False)
    dp.add_argument("--gamma-grid", type=_parse_grid, dest="grid",
                    help="start:stop:points scan over gamma")
    dp.add_argument("--state", choices=_STATES, help="initial state kind")
    dp.add_argument("--j0", type=float, help="wavepacket center (default L/4)")
    dp.add_argument("--sigma", type=float, help="wavepacket width (default L/8)")
    dp.add_argument("--p", type=float, help="wavepacket momentum (default pi/4)")
    dp.add_argument("--t-final", type=float, help="evolution time (default 3L)")
    dp.add_argument("--dt", type=float, help="integrator step")
    _add_common(dp)

    wp = sub.add_parser("sweep", help="distinct-count scan over one family parameter")
    _add_family(wp, with_spec=False)
    wp.add_argument("--sweep-param", help="family parameter to sweep (default gamma)")
    wp.add_argument("--grid", type=_parse_grid, required=True,
                    help="start:stop:points")
    _add_common(wp)

    pp = sub.add_parser("preset-run", help="regenerate a reference dataset")
    pp.add_argument("--name", dest="preset_name", required=True, choices=_PRESETS)
    pp.add_argument("--small", action="store_true",
                    help="reduced sizes for fast CI (fig8: L=24/26)")
    _add_common(pp)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # flags left unset take the RunConfig defaults
    fields = {k: v for k, v in vars(args).items() if v is not None}
    # --workers is checked, not kept
    if fields.pop("workers", 1) < 1:
        raise _CliError("worker count must be at least 1")
    # Every family flag given, not just the selected family's, so strays like
    # --J1 with family legacy, or a fixed value for the swept parameter, are
    # rejected downstream.
    params = {k: fields.pop(k) for k in _PARAMS if k in fields}
    if args.subcommand in ("nonortho", "dynamics") and "gamma" in params:
        fields["gamma"] = params.pop("gamma")
    return RunConfig(params=params, **fields)


def run(config: RunConfig) -> dict:
    """Execute one configured run; returns the JSON-able summary."""
    handler = {
        "spectrum": _run_spectrum,
        "verify": _run_verify,
        "nonortho": _run_nonortho,
        "dynamics": _run_dynamics,
        "sweep": _run_sweep,
        "preset-run": _run_preset,
    }.get(config.subcommand)
    if handler is None:
        raise _CliError(f"unknown subcommand {config.subcommand!r}")
    return handler(config)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        summary = run(_config_from_args(parser.parse_args(argv)))
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        # before ValueError: LinAlgError subclasses it
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_json_ready(summary), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
