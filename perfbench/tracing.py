"""Spans around the benchmark's calls into the program's layers.

A traced run hands the workload ``traced_api(tracer)`` instead of the
modules: each public function of a layer module becomes a wrapper that
records a span (name, start, end, parent) around the real call.  Spans are
kept in memory and written out once, when the run ends.  Nothing inside
the program is instrumented; a call one layer makes into another is seen
only when the benchmark repeats it directly (see ``extra_calls``).
"""
from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = dict(id=len(self.spans), name=name, parent=parent,
                      start=time.perf_counter(), end=None, attrs=attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _size_attrs(args) -> dict:
    """L of the first matrix-like argument, so spans can be bucketed by size."""
    for a in args:
        L = getattr(a, "L", None)
        if isinstance(L, int):
            return {"L": L}
    return {}


def _result_attrs(name: str, result) -> dict:
    if name == "charpoly.verify_pc":
        return {"mode": result.mode}
    if name == "eig.spectrum":
        return {"qr_sweeps": int(result.iterations.sum())}
    if name == "dynamics.min_norm_gamma":
        return {"detuned": sum(1 for g, ge, _ in result.rows if ge != g)}
    return {}


class _Layer:
    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer
        self._layer = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if attr not in self._module.__all__ or not callable(fn) or isinstance(fn, type):
            return fn
        name = f"{self._layer}.{attr}"
        tracer = self._tracer

        def traced(*args, **kwargs):
            attrs = _size_attrs(args)
            if "kind" in kwargs:  # the state kind of a min_norm_gamma scan
                attrs["kind"] = kwargs["kind"]
            with tracer.span(name, **attrs) as rec:
                result = fn(*args, **kwargs)
            rec["attrs"].update(_result_attrs(name, result))
            return result

        return traced


def traced_api(tracer: Tracer) -> SimpleNamespace:
    from pcspectra import chain, charpoly, dynamics, eig, nonortho

    return SimpleNamespace(**{mod.__name__.rsplit(".", 1)[-1]: _Layer(mod, tracer)
                              for mod in (chain, eig, charpoly, nonortho, dynamics)})


def extra_calls(api, item: dict, out: dict) -> None:
    """Inner public calls made again directly, on the same inputs.

    The eigensolver inside ``verify_pc``'s numeric path, ``spectrum`` inside
    ``min_norm_gamma`` with eigenvector states, and ``eigenvector_for``
    inside ``spectrum`` are otherwise invisible from outside the program.
    These calls run in the traced run only.
    """
    from workloads import family_target

    if item["kind"] == "eig" and item["full"]:
        for lam in out["eigenvalues"]:
            api.eig.eigenvector_for(out["m"], lam)
    elif item["kind"] == "chain" and out["mode"] == "numeric":
        api.eig.eigenvalues(api.chain.build(item["spec"]))
    elif item["kind"] == "scan" and item["state"] == "uniform_eigen":
        for _, g_eff, _ in out["rows"]:
            target = family_target(api, item["family"], item["L"], item["params"], g_eff)
            api.eig.spectrum(api.chain.build(target))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _p50_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def rk4_column_steps(t_final: float, dt: float, columns: int) -> int:
    steps = int(math.floor(t_final / dt + 1e-9))
    rem = t_final - steps * dt
    return columns * (steps + (1 if rem > 1e-12 else 0))


def layer_metrics(tracer: Tracer, rounds: int, items: list[dict]) -> dict:
    """Every per-layer metric; a timing with no calls behind it reads 0."""
    spans = [s for s in tracer.spans if s["end"] is not None]

    def durations(name, **match):
        return [s["end"] - s["start"] for s in spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def count(prefix):
        return sum(1 for s in spans if s["name"].startswith(prefix)) / rounds

    m: dict[str, tuple[float, str]] = {}
    m["chain.build_ms_p50"] = (_p50_ms(durations("chain.build")), "ms")
    m["chain.check_symmetry_ms_p50"] = (_p50_ms(durations("chain.check_symmetry")), "ms")
    for fn in ("eigenvalues", "spectrum"):
        for L in (10, 30, 104):
            m[f"eig.{fn}_ms_p50.L{L}"] = (_p50_ms(durations(f"eig.{fn}", L=L)), "ms")
    m["eig.eigenvector_for_ms_p50"] = (_p50_ms(durations("eig.eigenvector_for")), "ms")
    m["eig.distinct_count_ms_p50"] = (_p50_ms(durations("eig.distinct_count")), "ms")
    m["eig.calls"] = (count("eig."), "count")
    m["eig.qr_sweeps"] = (sum(s["attrs"].get("qr_sweeps", 0) for s in spans) / rounds, "count")
    m["nonortho.overlap_matrix_ms_p50"] = (_p50_ms(durations("nonortho.overlap_matrix")), "ms")
    m["nonortho.f2_ms_p50"] = (_p50_ms(durations("nonortho.f2")), "ms")
    m["charpoly.verify_pc_symbolic_ms_p50"] = (
        _p50_ms(durations("charpoly.verify_pc", mode="symbolic")), "ms")
    m["charpoly.verify_pc_numeric_ms_p50"] = (
        _p50_ms(durations("charpoly.verify_pc", mode="numeric")), "ms")
    for k in (5, 20, 40):
        m[f"charpoly.principal_minors_ms_p50.k{k}"] = (
            _p50_ms(durations("charpoly.principal_minors", L=2 * k)), "ms")
    m["charpoly.verify_power_ms_p50"] = (_p50_ms(durations("charpoly.verify_power")), "ms")
    m["charpoly.calls"] = (count("charpoly."), "count")
    for kind in ("wavepacket", "uniform_site", "uniform_eigen"):
        m[f"dynamics.min_norm_gamma_ms_p50.{kind}"] = (
            _p50_ms(durations("dynamics.min_norm_gamma", kind=kind)), "ms")
    m["dynamics.norm_trace_ms_p50"] = (_p50_ms(durations("dynamics.norm_trace")), "ms")
    steps = sum(rk4_column_steps(it["t_final"], it["dt"], len(it.get("grid", [None])))
                for it in items if it["kind"] in ("scan", "trace"))
    busy = sum(durations("dynamics.min_norm_gamma") + durations("dynamics.norm_trace"))
    m["dynamics.column_steps"] = (float(steps), "count")
    m["dynamics.detuned_points"] = (
        sum(s["attrs"].get("detuned", 0) for s in spans) / rounds, "count")
    m["dynamics.column_steps_per_s"] = (steps * rounds / busy if busy else 0.0, "1/s")
    m["cli.import_ms_p50"] = (_p50_ms([s["attrs"]["import_s"] for s in spans
                                       if s["name"] == "cli.import"]), "ms")
    m["cli.invocation_ms_p50"] = (_p50_ms(durations("cli.invocation")), "ms")
    for name in ("fig1", "fig2", "fig4", "fig5", "fig7", "fig8_small"):
        m[f"cli.preset_ms.{name}"] = (_p50_ms(durations(f"cli.preset_{name}")), "ms")
    for w in (1, 2):
        m[f"cli.sweep_ms.workers{w}"] = (_p50_ms(durations(f"cli.sweep_workers{w}")), "ms")
    m["cli.csv_bytes"] = (sum(s["attrs"].get("csv_bytes", 0) for s in spans) / rounds, "bytes")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
