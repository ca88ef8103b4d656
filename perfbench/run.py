"""Benchmark of pcspectra: four workloads, timed end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eig-sweep --seed 1 --seconds 30 --trace 0

The run repeats whole rounds of the workload's items for at most
``--seconds`` of timed work (at least one round), checks the outputs of
the program against computations made apart from it (``oracles.py``),
and prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from spans around
every call into a layer.  See README.md for the workloads, metrics and
reference figures.
"""
import os

# One BLAS thread in this process and in every child it starts; set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9  # fresh interpreters timed for setup_s; one more is run first, untimed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed length of the run; whole rounds run, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: short rounds and one set-up probe")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(args, root: str, scratch: str) -> float:
    """Median wall time of fresh interpreters doing the run's set-up."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--root", root,
            "--scratch", os.path.join(scratch, "probe")] + (["--tiny"] if args.tiny else [])
    times = []
    for i in range(2 if args.tiny else SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        if i:  # the first one writes bytecode caches; users run with them
            times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# timed rounds


def digest(obj) -> str:
    """Hash of an item's outputs, ignoring keys that start with '_'."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                if not k.startswith("_"):
                    h.update(k.encode())
                    feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        elif hasattr(x, "to_dense"):
            feed(x.to_dense())
        elif isinstance(x, bytes):
            h.update(x)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


_CLI_IMPORT_RE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s(pcspectra\S*)$")


def cli_import_seconds(src: str) -> float:
    """Import time of ``pcspectra.cli`` as the interpreter itself reports it."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pcspectra.cli"],
                          env=env, capture_output=True, text=True, timeout=60)
    total = sum(int(m.group(1)) for line in proc.stderr.splitlines()
                if (m := _CLI_IMPORT_RE.match(line)))
    return total * 1e-6


def cli_span_name(item: dict) -> str:
    if "preset" in item or "pool" in item:
        return "cli." + item["name"]
    return "cli.invocation"


def run_rounds(args, items, api, tracer, scratch: str, src: str):
    """Repeat the round for at most ``--seconds`` of timed items.

    Another round starts only while a round of the mean length so far
    still fits, so a run never measures much more than ``--seconds``
    whatever the length of its round; the first round always runs.
    Returns the wall and CPU times of every item in every round (one list
    per round), the first round's outputs, the number of rounds, and the
    indices of items whose outputs changed between rounds.
    """
    item_walls, item_cpus = [], []
    first, changed = None, set()
    first_digests = None
    timed = 0.0
    rounds = 0
    while rounds == 0 or timed + timed / rounds <= args.seconds:
        walls, cpus, outs = [], [], []
        if tracer is not None and args.workload == "cli-presets":
            with tracer.span("cli.import") as rec:
                rec["attrs"]["import_s"] = cli_import_seconds(src)
        for i, item in enumerate(items):
            with tracer.span("item", index=i) if tracer else contextlib.nullcontext():
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    if item["kind"] != "cli":
                        out = workloads.run_item(api, item)
                    elif tracer:
                        with tracer.span(cli_span_name(item)) as rec:
                            out = workloads.run_cli(item, scratch, src)
                        rec["attrs"]["csv_bytes"] = sum(len(b) for b in out["files"].values())
                    else:
                        out = workloads.run_cli(item, scratch, src)
                except Exception as exc:  # the operation failed; the run goes on
                    out = {"_error": "".join(traceback.format_exception_only(exc)).strip()}
                t1, c1 = time.perf_counter(), time.process_time()
                cpu = c1 - c0 + out.get("_cpu_s", 0.0)
                if tracer and "_error" not in out:
                    tracing.extra_calls(api, item, out)
            walls.append(t1 - t0)
            cpus.append(cpu)
            outs.append(out)
        digests = [digest(o) for o in outs]
        if first is None:
            first, first_digests = outs, digests
        else:
            changed.update(i for i, d in enumerate(digests) if d != first_digests[i])
        item_walls.append(walls)
        item_cpus.append(cpus)
        timed += sum(walls)
        rounds += 1
    return item_walls, item_cpus, first, rounds, changed


def item_medians(times: list[list[float]]) -> list[float]:
    """Each item's median time across the rounds (``times`` has one list per round).

    ``wall_s`` and ``cpu_s`` sum these over the round, and ``item_ms_p50``
    is their median.  A stretch of slow host that covers fewer than half of
    an item's rounds leaves its median alone, where it would shift a whole
    round's total.
    """
    return [statistics.median(ts) for ts in zip(*times)]


# ---------------------------------------------------------------------------
# checks


def check_cli(items, outs) -> list[str]:
    errs = []
    by_name = {}
    for item, out in zip(items, outs):
        name = item["name"]
        by_name[name] = out
        summary = oracles.parse_summary(out["stdout"])
        if not isinstance(summary, dict):
            errs.append(f"{name}: no JSON summary on stdout")
            continue
        files = {n: oracles.read_csv_bytes(b) for n, b in out["files"].items()}
        if "csv" in item:
            errs += oracles.check_header(files.get("out.csv", []), item["csv"], name)
        if "chain" in item:
            errs += oracles.check_chain_summary(item, summary, files.get("out.csv"))
        if name == "verify_spec":
            errs += oracles.check_spec_summary(summary, os.path.join(
                os.path.dirname(out["_dir"]), "chain.json"))
        check = getattr(oracles, f"check_{item.get('preset', '')}", None)
        if check is not None:
            errs += check(summary, files)
    w1, w2 = by_name.get("sweep_workers1"), by_name.get("sweep_workers2")
    if w1 and w2 and w1["files"].get("out.csv") != w2["files"].get("out.csv"):
        errs.append("sweep CSV differs between --workers 1 and --workers 2")
    return errs


def check_outputs(workload: str, items, outs):
    """All errors found in the outputs, and the indices of failed items.

    An item fails when a call raises or a ``pcspectra`` process exits with
    another status than 0, or (certify) when it hits the principal-minor
    truncation fault.  The other checks speak of the items that did not fail.
    """
    errs, failed = [], set()
    for i, out in enumerate(outs):
        if "_error" in out or out.get("returncode", 0) != 0:
            failed.add(i)
            reason = out.get("_error") or f"exit status {out['returncode']}"
            print(f"operation failed: item {i}: {reason}", file=sys.stderr)
    ok = [i for i in range(len(items)) if i not in failed]
    items, outs = [items[i] for i in ok], [outs[i] for i in ok]
    if workload == "cli-presets":
        return check_cli(items, outs), failed
    for i, item, out in zip(ok, items, outs):
        if workload == "eig-sweep":
            e = oracles.check_eig(item, out)
        elif workload == "norm-scan":
            e = oracles.check_norm(item, out)
        else:
            e, truncated = oracles.check_certify(item, out)
            if truncated:
                failed.add(i)
        errs += [f"item {i} ({item.get('label') or item.get('family')}): {x}" for x in e]
    if workload == "eig-sweep":
        errs += oracles.check_f2_peaks(items, outs)
    return errs, failed


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pcspectra", "__init__.py")):
        print(f"error: run from the root of a pcspectra checkout (no {src}/pcspectra)",
              file=sys.stderr)
        return 2
    runs = os.path.join(HERE, "_runs")
    scratch = os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        return run(args, root, src, runs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, root, src, runs, scratch) -> int:
    setup_s = None if args.trace else measure_setup(args, root, scratch)
    workloads.import_program(root)
    tracer = tracing.Tracer() if args.trace else None
    api = tracing.traced_api(tracer) if tracer else workloads.program_api()
    items = workloads.set_up(args.workload, args.seed, args.tiny, scratch)
    item_walls, item_cpus, outs, rounds, changed = run_rounds(
        args, items, api, tracer, scratch, src)
    if args.workload == "cli-presets":
        peak_kb = max(o["_rss_kb"] for o in outs)
    else:
        # read before the oracles import scipy, so this is the program's peak
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errs, failed = check_outputs(args.workload, items, outs)
    errs += [f"item {i}: output changed between rounds" for i in sorted(changed)]
    for e in errs[:30]:
        print("check failed:", e, file=sys.stderr)

    if tracer:
        tracer.write(os.path.join(runs, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = tracing.layer_metrics(tracer, rounds, items)
        # compare with wall_s of an untraced run to get the tracing overhead
        print(f"traced timed items per round: {sum(item_medians(item_walls)):.4f} s",
              file=sys.stderr)
    else:
        walls = item_medians(item_walls)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(walls), "unit": "s"},
            "cpu_s": {"value": sum(item_medians(item_cpus)), "unit": "s"},
            "item_ms_p50": {"value": statistics.median(walls) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": not errs, "attempted": rounds * len(items),
              "failed": rounds * len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
