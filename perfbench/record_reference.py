"""Write perfbench/reference.json: the outputs and counts the benchmark checks.

    python3 perfbench/record_reference.py

Run it from the root of a checkout, on the code whose solutions the
benchmark should accept.  It runs the set-up and one untraced pass of each
workload (about two minutes on a 2-core machine, most of it solve129) and
stores the members' shocks and subsampled fields, the family distances and
the machine-independent counts.  For certify it stores the distances of
every member pair, since each seed picks its own pairs.
"""

import json
import os
import sys
import tempfile
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import instrument  # noqa: E402
import workloads  # noqa: E402


def record(name, adjust=None, seed=1):
    setup, run_pass = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    inst = instrument.Instruments()
    inst.install()
    try:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
            inputs, _ = setup(seed, workdir, checks, None)
            if adjust is not None:
                adjust(inputs)
            before = inst.snapshot()
            result = run_pass(inputs, workdir, checks, None)
            counts = instrument.counts_between(before, inst.snapshot())
    finally:
        inst.uninstall()
    if checks.failed:
        raise SystemExit(f"{name}: checks failed: {checks.problems}")
    return result["outputs"], counts


def _all_pairs(inputs):
    inputs["pairs"] = list(combinations(range(len(inputs["archives"])), 2))


def main():
    reference = {}
    outputs, counts = record("family33")
    reference["family33"] = {**outputs, "counts": counts}
    outputs, _ = record("certify", adjust=_all_pairs)
    reference["certify"] = outputs
    outputs, counts = record("solve129")
    reference["solve129"] = {**outputs, "counts": counts}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
