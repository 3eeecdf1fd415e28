#!/usr/bin/env python3
"""Benchmark of the tagcomplete pipeline.

    python3 perfbench/run.py --workload gate --seed 0 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the run times the workload's operation untraced and
prints the end-to-end metrics; with --trace 1 it traces one set-up and one
operation through perfbench/layers.py and prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A full record (environment, every timing, score digest,
failures) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS_ENV = "TAGCOMPLETE_THREADS"

# set-up runs at least MIN_SETUPS and at most MAX_SETUPS times, stopping
# once it has used SETUP_BUDGET_S; setup_s is the median
MIN_SETUPS, MAX_SETUPS = 2, 5
SETUP_BUDGET_S = 3.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ap_at_2": "ratio",
    "ar_at_2": "ratio",
    "c_at_2": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="order of images and tags (0: as generated)")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="repeat the timed operation until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import tagcomplete from ./src of this checkout, or fail loudly."""
    src = ROOT / "src"
    if not (src / "tagcomplete" / "solver.py").is_file():
        raise ImportError(f"no tagcomplete sources under {src}")
    sys.path.insert(0, str(src))
    import tagcomplete.solver

    where = Path(tagcomplete.solver.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"tagcomplete was imported from {where}, not {src}")


def blas_threads() -> dict:
    """Thread cap of every OpenBLAS loaded into this process."""
    caps = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                caps[Path(path).name] = getter()
                break
    return caps


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        THREADS_ENV: os.environ.get(THREADS_ENV),
    }


def timed_reps(workload, state, ledger, seconds, size):
    """Run the operation until `seconds` have passed (at least once).

    Returns each rep's wall time and mean speed-kernel time, the outcome of
    the last rep and the score digest of every rep; stops at the first rep
    that fails.
    """
    from speed import paired
    from workloads import StageFailed, digest

    walls, kernels, digests, outcome = [], [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        try:
            result, wall, kernel = paired(lambda: workload.run(state, ledger), size)
        except StageFailed:
            break
        walls.append(wall)
        kernels.append(kernel)
        outcome = workload.collect(state, result)
        digests.append(digest(outcome.scores))
        if time.perf_counter() >= deadline:
            break
    return walls, kernels, outcome, digests


def median_at_reference_speed(walls, kernels, size) -> float:
    """Median over reps of each wall time rescaled to the reference speed."""
    from speed import at_reference_speed as rescale

    return statistics.median(rescale(w, k, size) for w, k in zip(walls, kernels))


def measure(workload, seed, seconds, workdir, ledger, record) -> dict:
    """Untraced run: the end-to-end metrics."""
    from speed import paired

    size = workload.hyperparams().knn_k
    setups, setup_kernels, state = [], [], None
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S
    ):
        state, wall, kernel = paired(lambda: workload.setup(seed, workdir), size)
        setups.append(wall)
        setup_kernels.append(kernel)
    walls, kernels, outcome, digests = timed_reps(workload, state, ledger, seconds, size)
    record.update(setup_s=setups, setup_kernel_s=setup_kernels, wall_s=walls,
                  kernel_s=kernels, digests=digests)
    if outcome is None:
        return {}
    workload.check(state, outcome, ledger)
    ledger.check("rerun_digest", len(set(digests)) == 1, f"{len(set(digests))} distinct digests")
    return {
        "wall_s": median_at_reference_speed(walls, kernels, size),
        "setup_s": median_at_reference_speed(setups, setup_kernels, size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ap_at_2": outcome.quality["AP"],
        "ar_at_2": outcome.quality["AR"],
        "c_at_2": outcome.quality["C"],
    }


def trace(workload, seed, seconds, workdir, ledger, record) -> dict:
    """Traced run: one traced set-up, untraced reps for the tracing
    overhead, then one traced rep; the per-layer metrics (raw times)."""
    from layers import OP_SPAN, LayerProbe
    from workloads import StageFailed, digest

    size = workload.hyperparams().knn_k
    probe = LayerProbe()
    with probe.installed():
        state = workload.setup(seed, workdir)
    walls, kernels, outcome, digests = timed_reps(workload, state, ledger, seconds, size)
    record.update(wall_s=walls, kernel_s=kernels, digests=digests)
    if outcome is None:
        return {}
    try:
        with probe.installed(), probe.tracer.span(OP_SPAN):
            traced = workload.run(state, ledger, probe.tracer.span)
    except StageFailed:
        return {}
    traced = workload.collect(state, traced)
    digests.append(digest(traced.scores))
    record["spans"] = [vars(s) for s in probe.tracer.spans]
    workload.check(state, traced, ledger)
    ledger.check("traced_digest", len(set(digests)) == 1,
                 "tracing changed the completed scores")
    return {name: value for name, (value, _unit) in
            probe.metrics(statistics.median(walls), ledger.exit_nonzero).items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(THREADS_ENV) is not None:
        print(f"refusing to run: {THREADS_ENV} is set; the structure-building "
              "thread pool changes the timings", file=sys.stderr)
        return 2
    # one BLAS thread, so the program runs on one core like the speed
    # reference kernel it is compared with (see speed.py)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2

    from layers import PER_LAYER
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed
    units = END_TO_END_UNITS if not args.trace else {n: u for n, u, _ in PER_LAYER}

    ledger = Ledger()
    record = {"workload": workload.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "instance_seed": workload.instance_seed,
              "synth": workload.synth, "hp": workload.hp}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        run = trace if args.trace else measure
        values = run(workload, seed, args.seconds, Path(workdir), ledger, record)
    record["env"] = environment()

    correct = ledger.failed == 0 and set(values) == set(units)
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    record.update(failures=ledger.failures, result=result)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in ledger.failures:
        print(failure, file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    if record.get("digests"):
        print(f"scores_sha256 {record['digests'][0]}")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
