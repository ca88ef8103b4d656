"""Set-up of one workload in a fresh interpreter, for timing from outside.

Runs everything a benchmark run does before its first timed item: import
pcspectra, generate the workload's inputs from the seed, and make one
warm-up call per layer.  ``run.py`` times whole invocations of this file.
"""
import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (after the BLAS pinning above)

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--root", required=True)
parser.add_argument("--scratch", required=True)
parser.add_argument("--tiny", action="store_true")
args = parser.parse_args()
workloads.import_program(args.root)
workloads.set_up(args.workload, args.seed, args.tiny, args.scratch)
sys.exit(0)
