"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py

Each output check is fed the program's real output (which must pass) and
then a corrupted copy (which must be rejected).  A smoke run of every
workload at tiny size must finish within seconds with correct output.
(The file is not named test_*.py, so the package's own test suite does not
collect it.)
"""
import json
import os
import subprocess
import sys
import time
import unittest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
workloads.import_program(ROOT)
API = workloads.program_api()


def first(items, **match):
    return next(it for it in items if all(it.get(k) == v for k, v in match.items()))


class EigSweepChecks(unittest.TestCase):
    def setUp(self):
        self.items = workloads.make_eig_sweep(3, tiny=True)
        self.item = first(self.items, full=True, pc=True, family="legacy")
        self.out = workloads.run_item(API, self.item)

    def test_real_output_passes(self):
        self.assertEqual(oracles.check_eig(self.item, self.out), [])

    def test_perturbed_eigenvalue_rejected(self):
        bad = dict(self.out, eigenvalues=self.out["eigenvalues"].copy())
        bad["eigenvalues"][3] += 1e-4
        self.assertTrue(any("LAPACK" in e for e in oracles.check_eig(self.item, bad)))

    def test_wrong_distinct_count_rejected(self):
        bad = dict(self.out, distinct=self.out["distinct"] + 1)
        self.assertNotEqual(oracles.check_eig(self.item, bad), [])

    def test_rotated_eigenvector_rejected(self):
        bad = dict(self.out, eigenvectors=self.out["eigenvectors"] * 1j)
        self.assertTrue(any("positive real" in e for e in oracles.check_eig(self.item, bad)))

    def test_f2_peak_off_the_pc_point_rejected(self):
        sweep = [it for it in self.items if it["sweep"] == self.item["sweep"]]
        outs = [workloads.run_item(API, it) for it in sweep]
        self.assertEqual(oracles.check_f2_peaks(sweep, outs), [])
        off = next(i for i, it in enumerate(sweep) if not it["pc"])
        outs[off] = dict(outs[off], f2=1e9)
        self.assertNotEqual(oracles.check_f2_peaks(sweep, outs), [])


class NormScanChecks(unittest.TestCase):
    def setUp(self):
        items = workloads.make_norm_scan(3, tiny=True)
        self.trace = first(items, kind="trace")
        self.scan = first(items, kind="scan", state="wavepacket")
        self.trace_out = workloads.run_item(API, self.trace)
        self.scan_out = workloads.run_item(API, self.scan)

    def test_real_output_passes(self):
        self.assertEqual(oracles.check_norm(self.trace, self.trace_out), [])
        self.assertEqual(oracles.check_norm(self.scan, self.scan_out), [])

    def test_final_norm_off_by_1e4_rejected(self):
        norms = self.trace_out["norms"].copy()
        norms[-1] -= 1e-4
        self.assertNotEqual(oracles.check_norm(self.trace, dict(self.trace_out, norms=norms)), [])
        rows = [(g, ge, n + 1e-4) if i == 0 else (g, ge, n)
                for i, (g, ge, n) in enumerate(self.scan_out["rows"])]
        self.assertNotEqual(oracles.check_norm(self.scan, dict(self.scan_out, rows=rows)), [])

    def test_growing_norm_rejected(self):
        norms = self.trace_out["norms"].copy()
        norms[5] = norms[4] + 1e-9
        self.assertTrue(any("grew" in e for e in
                            oracles.check_norm(self.trace, dict(self.trace_out, norms=norms))))

    def test_wrong_argmin_rejected(self):
        rows = self.scan_out["rows"]
        worst = max(rows, key=lambda r: r[2])[0]
        bad = dict(self.scan_out, gamma_star=worst)
        self.assertTrue(any("argmin" in e for e in oracles.check_norm(self.scan, bad)))


class CertifyChecks(unittest.TestCase):
    def setUp(self):
        self.items = workloads.make_certify(3, tiny=True)
        self.ep = first(self.items, kind="chain", ep=True)
        self.out = workloads.run_item(API, self.ep)

    def test_real_output_passes(self):
        for item in self.items:
            errs, truncated = oracles.check_certify(item, workloads.run_item(API, item))
            self.assertEqual(errs, [], item["label"])
            self.assertFalse(truncated, item["label"])

    def test_flipped_verdict_rejected(self):
        bad = dict(self.out, certified=not self.out["certified"])
        self.assertNotEqual(oracles.check_certify(self.ep, bad)[0], [])
        bad = dict(self.out, certified_flip=not self.out["certified"])
        self.assertNotEqual(oracles.check_certify(self.ep, bad)[0], [])

    def test_truncated_minor_flagged(self):
        minors = [c.copy() for c in self.out["minors"]]
        minors[-1] = minors[-1][:-1]
        self.assertTrue(oracles.check_certify(self.ep, dict(self.out, minors=minors))[1])

    def test_known_truncation_fault_is_seen(self):
        from pcspectra import chain

        spec = chain.family_b(40, 30, 20, 0, 40)
        item = dict(kind="chain", spec=spec, ep=True, label="fault", flip=(False,) * 38)
        errs, truncated = oracles.check_certify(item, workloads.run_item(API, item))
        self.assertEqual(errs, [])
        self.assertTrue(truncated)

    def test_wrong_power_verdict_rejected(self):
        item = first(self.items, kind="power", quad=True)
        out = workloads.run_item(API, item)
        self.assertEqual(oracles.check_certify(item, out)[0], [])
        self.assertNotEqual(oracles.check_certify(item, dict(out, power=False))[0], [])


class CliChecks(unittest.TestCase):
    def test_missing_csv_column_rejected(self):
        header = oracles.CSV_HEADERS["spectrum"]
        self.assertEqual(oracles.check_header([header], "spectrum", "x"), [])
        self.assertNotEqual(oracles.check_header([header[:-1]], "spectrum", "x"), [])
        self.assertNotEqual(oracles.check_header([["J1", "distinct_count", "certified"]],
                                                 "sweep:J1", "x"), [])

    def test_fig1_and_fig2_summaries(self):
        self.assertNotEqual(oracles.check_fig1({"distinct": {"gamma_2": 10}}, {}), [])
        self.assertNotEqual(oracles.check_fig2({"certified": {"1.0": 99, "1.3": 0}}, {}), [])

    def test_unparsable_summary(self):
        self.assertIsNone(oracles.parse_summary("not json\n"))
        self.assertEqual(oracles.parse_summary('x\n{"a": 1}\n'), {"a": 1})


class FailedOperations(unittest.TestCase):
    def test_raising_item_counts_as_failed_not_incorrect(self):
        import run

        items = workloads.make_certify(3, tiny=True)
        outs = [workloads.run_item(API, it) for it in items]
        outs[0] = {"_error": "ArithmeticError: no eigenvector"}
        self.assertEqual(run.check_outputs("certify", items, outs), ([], {0}))

    def test_nonzero_exit_counts_as_failed(self):
        import run

        item = dict(kind="cli", name="spectrum_legacy", csv="spectrum", argv=[])
        out = dict(returncode=2, stdout="", files={}, _dir=".")
        self.assertEqual(run.check_outputs("cli-presets", [item], [out]), ([], {0}))


class Smoke(unittest.TestCase):
    def test_every_workload_tiny(self):
        for w in workloads.WORKLOADS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", "5",
                 "--seconds", "0", "--trace", "0", "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - t0
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], proc.stderr)
            self.assertEqual(result["failed"], 0)
            self.assertLess(elapsed, 20.0, w)

    def test_refuses_to_run_without_sources(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
