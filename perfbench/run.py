"""Benchmark of shockrefl: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload family33 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.  One
client calls the library in a closed loop: set-up, then passes of the
workload back to back for `--seconds` (at least one pass; a pass that would
overrun is not started).  With `--trace 0` it prints the end-to-end metrics
of BENCHMARK.json; with `--trace 1` it runs the untraced passes, then the
same number of seconds traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Results, and the spans of traced runs, are written
under `perfbench/out/`.  See NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# One BLAS thread (nproc is 2 on the reference machine): the client is single
# threaded, and a fixed reduction order keeps the iteration counts exact.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SAMPLES = 3  # one in this process, the others in fresh interpreters
CHILD_TIMEOUT_S = 150
# the machine-independent counts every result records
NAMED_COUNTS = {
    "bvp_solves": "solver.solve_bvp.calls",
    "assemble_calls": "solver.assemble.calls",
    "lu_factorizations": "solver.lu_factor.calls",
    "outer_iterations": "solver.update_shock.calls",
    "halvings": "solver.fixed_point_solve.failed",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh interpreter and print it
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _setup_in_child(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as child:
        try:
            out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            child.terminate()  # it unwinds and removes its work directory
            child.wait()
            raise
    if child.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _run_passes(instrument, inst, one_pass, checks, seconds, traced):
    records = []
    start = time.perf_counter()
    while True:
        inst.run_id = f"{'t' if traced else 'u'}{len(records)}"
        inst.tracing = traced
        before = inst.snapshot()
        t0 = time.perf_counter()
        record = one_pass()
        record["wall_s"] = time.perf_counter() - t0
        after = inst.snapshot()
        inst.tracing = False
        record["counts"] = instrument.counts_between(before, after)
        record["state2_call_s"] = inst.durations_since(before, "relations.state2_solve")
        records.append(record)
        if time.perf_counter() - start + record["wall_s"] > seconds:
            break
    checks.check(all(r["counts"] == records[0]["counts"] for r in records),
                 "machine-independent counts differ between passes")
    return records


def run_workload(args, import_s, workdir, reference):
    """Set up, run the passes and return everything measured."""
    import instrument
    import workloads

    setup, run_pass = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    inst = instrument.Instruments()
    inst.install()
    try:
        inst.tracing = bool(args.trace)
        t0 = time.perf_counter()
        inputs, solve_s = setup(args.seed, workdir, checks, reference)
        setup_samples = [{"setup_s": import_s + time.perf_counter() - t0, "solve_s": solve_s}]
        inst.tracing = False
        setup_samples += [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

        def one_pass():
            return run_pass(inputs, workdir, checks, reference)

        passes = _run_passes(instrument, inst, one_pass, checks, args.seconds, traced=False)
        traced = []
        if args.trace:
            traced = _run_passes(instrument, inst, one_pass, checks, args.seconds, traced=True)
    finally:
        inst.uninstall()
    return {"checks": checks, "setup": setup_samples, "passes": passes, "traced": traced,
            "spans": inst.spans}


def upper_quartile(values):
    """The upper quartile of durations, the value itself for one.

    The reference machine runs for seconds at a time up to 1.8 times faster
    than usual, over a tenth to a half of a run and now and then more.  A
    median of passes or calls jumps to the fast speed in the runs where such
    spells cover half of it; the upper quartile only where they cover three
    quarters.
    """
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(run):
    passes = run["passes"]
    solve = [p["solve_s"] for p in passes if p["solve_s"] is not None]
    if not solve:  # the workload solves in its set-up
        solve = [s["solve_s"] for s in run["setup"]]
    return {
        "wall_s": upper_quartile(p["wall_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in run["setup"]),
        "solve_s": statistics.median(solve),
        "certify_s": upper_quartile(r for p in passes for r in p["certify_rounds_s"]),
        "state2_per_s": 1.0 / upper_quartile(t for p in passes for t in p["state2_call_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run, instrument):
    """Per-layer values: the traced set-up plus the mean of the traced passes."""
    spans = run["spans"]
    agg = instrument.aggregate(spans, instrument.self_times(spans))
    pass_ids = [f"t{k}" for k in range(len(run["traced"]))]
    keys = set(agg["setup"]) | {key for r in pass_ids for key in agg[r]}
    values = {}
    for key in sorted(keys):
        fields = set(agg["setup"][key]) | {f for r in pass_ids for f in agg[r][key]}
        for field in fields:
            values[f"{key}.{field}"] = agg["setup"][key][field] + statistics.fmean(
                agg[r][key][field] for r in pass_ids)
    lu_calls = values.get("solver.lu_factor.calls", 0)
    values["solver.lu_fill_nnz"] = values.get("solver.lu_factor.fill_nnz", 0) / max(lu_calls, 1)
    values["solver.picard_per_lu"] = values.get("solver.assemble.calls", 0) / max(lu_calls, 1)
    values["solver.outer_iters"] = values.get("solver.update_shock.calls", 0)
    values["solver.stall_accepts"] = values.get("solver.solve_bvp.stall_accepts", 0)
    traced_wall = statistics.median(p["wall_s"] for p in run["traced"])
    values["tracing.wall_s"] = traced_wall
    values["tracing.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in run["passes"])
    return values


def _write_spans(path, spans, selves):
    with open(path, "w") as fh:
        fh.write("run_id,span,parent,name,grid,start_s,end_s,self_s\n")
        for k, ((run_id, name, grid, t0, t1, parent, _), self_s) in enumerate(zip(spans, selves)):
            fh.write(f"{run_id},{k},{parent},{name},{'' if grid is None else grid},"
                     f"{t0!r},{t1!r},{self_s!r}\n")


def _summary(record):
    """A pass record without its outputs and with its state (2) calls counted."""
    out = {k: v for k, v in record.items() if k not in ("outputs", "state2_call_s")}
    out["state2_calls"] = len(record["state2_call_s"])
    return out


def environment(args, load_at_start):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "loadavg_at_start": list(load_at_start),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM, unwind: set-up children are killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shockrefl", "__init__.py")):
        print(f"error: no shockrefl sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = BLAS_THREADS
    load_at_start = os.getloadavg()
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import instrument
    import workloads  # numpy, scipy and shockrefl load here
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            setup = workloads.WORKLOADS[args.workload][0]
            t0 = time.perf_counter()
            _, solve_s = setup(args.seed, workdir, workloads.Checks(), None)
            print(json.dumps({"setup_s": import_s + time.perf_counter() - t0, "solve_s": solve_s}))
            return 0
        spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
        reference = _load_json(os.path.join(HERE, "reference.json"))
        run = run_workload(args, import_s, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = run["checks"]
    counts = run["passes"][0]["counts"]
    named = {label: counts.get(key, 0) for label, key in NAMED_COUNTS.items()}
    ref_counts = reference.get(args.workload, {}).get("counts")
    if args.trace:
        values = per_layer(run, instrument)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(run)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": environment(args, load_at_start),
        "metrics": metrics,
        "all_values": values,
        "error_rate": checks.failed / max(checks.attempted, 1),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "named_counts": named,
        "counts": counts,
        "counts_match_reference": None if ref_counts is None else counts == ref_counts,
        "setup_samples": run["setup"],
        "passes": [_summary(p) for p in run["passes"]],
        "traced_passes": [_summary(p) for p in run["traced"]],
    }
    with open(os.path.join(OUT, f"{label}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if args.trace:
        _write_spans(os.path.join(OUT, f"{label}-spans.csv"), run["spans"],
                     instrument.self_times(run["spans"]))

    for m in wanted:
        print(f"{m['name']:36s} {metrics[m['name']]['value']:>16.6g} {m['unit']:6s} "
              f"({m['better']} is better)")
    print(f"{'error_rate':36s} {result['error_rate']:>16.6g} {'1':6s} (lower is better)")
    print(f"passes: {len(run['passes'])} untraced, {len(run['traced'])} traced; counts: "
          f"{json.dumps(named)}; match reference: {result['counts_match_reference']}")
    for problem in checks.problems:
        print(f"check failed: {problem}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
