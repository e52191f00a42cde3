"""sonicflow benchmark: time to solution on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  The seed draws the inputs only.  Every
case is checked by its workload's gate (workloads.py); misses count as
failed cases.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s        median time of a pass over the workload's cases; passes
                repeat, at least two, while half of another fits in --seconds
  setup_s       import of sonicflow, input generation and the warm-up,
                median of three set-ups (this process and two fresh ones)
  peak_rss_mib  high-water resident memory of this process
Both times are in reference seconds: wall time corrected for the speed
the shared host gives the run, with a fixed kernel timed between cases
(hostspeed.py).  The raw times are printed on an info line.
--trace 1 runs one untraced and one traced pass over the same cases and
reports the per-layer metrics (tracing.py).

BLAS and OpenMP pools are pinned to one thread, so a run is a plain
single-threaded baseline.
"""

import os
import sys
import time

STARTED = time.perf_counter()  # set-up time counts from here, numpy import included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_CHILDREN = 2
MIN_PASSES = 2
CHILD_TIMEOUT_S = 60

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """Import sonicflow from this checkout's src/, or stop."""
    if not os.path.isfile(os.path.join(SRC, "sonicflow", "__init__.py")):
        raise SystemExit(f"error: no sonicflow source tree at {SRC}")
    sys.path.insert(0, SRC)
    import sonicflow
    import sonicflow.cli  # noqa: F401  (binds every submodule on the package)
    if not os.path.abspath(sonicflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: sonicflow imported from {sonicflow.__file__}, not {SRC}")
    return sonicflow


def run_pass(sf, workload, cases, log, after_case=None):
    """One closed-loop pass: each case after the previous one has finished.

    Returns the number of failed cases and the wall seconds of each case;
    ``after_case(seconds)`` runs after each case, outside its time."""
    memo = {}
    failed = 0
    times = []
    for case in cases:
        t0 = time.perf_counter()
        try:
            misses = workload.run_case(sf, case, memo)
        except Exception as exc:  # a case that raises is a failed case
            misses = [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - t0)
        if misses:
            failed += 1
            log.append(f"FAIL {workload.name} {case_label(case)}: {'; '.join(misses)}")
        if after_case is not None:
            after_case(times[-1])
    return failed, times


def case_label(case):
    return ",".join(f"{k}={v}" for k, v in case.items()
                    if isinstance(v, (int, float, str)) and k not in ("config", "outdir"))


def setup(workload, seed, out_root, log):
    """Import, generate inputs and warm up; returns (package, cases, seconds, counts).

    The seconds run from process start, so they include importing NumPy,
    SciPy and sonicflow."""
    sf = import_package()
    os.makedirs(out_root, exist_ok=True)
    cases = workload.make_cases(seed, out_root)
    warmup = workload.warmup(cases)
    failed, _ = run_pass(sf, workload, warmup, log)
    return sf, cases, time.perf_counter() - STARTED, (len(warmup), failed)


def child_setups(args):
    """Set-up times of fresh interpreters running the same set-up."""
    times = []
    for k in range(SETUP_CHILDREN):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", f"{os.getpid()}-{k}"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def timed_passes(sf, workload, cases, seconds, log, min_passes=MIN_PASSES, probe=None):
    """At least `min_passes` passes, then more while half of the next one,
    as long as the last, fits in `seconds`.

    Returns the wall seconds of each case in each pass, the CPU seconds of
    each pass, the number of failed cases, and with a ``hostspeed.Probe``
    each pass in reference seconds."""
    passes, cpus, refs, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        f, times = run_pass(sf, workload, cases, log, probe and probe.after_case)
        cpus.append(time.process_time() - c0)
        passes.append(times)
        if probe is not None:
            refs.append(probe.close_pass(sum(times)))
        failed += f
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + 0.5 * (now - w0) > seconds:
            return passes, cpus, failed, refs


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def emit(metrics, key, attempted, failed, log):
    declared = declared_metrics(key)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise SystemExit(f"error: metrics {sorted(set(got) ^ set(declared))} "
                         f"disagree with BENCHMARK.json {key}")
    for line in log:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def environment_line(sf):
    import numpy
    import scipy
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"env nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"sonicflow={sf.__version__} {threads}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="TAG", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    log = []

    if args.setup_only:
        out_root = os.path.join(OUT, f"{args.workload}-{args.setup_only}")
        try:
            _, _, setup_s, (_, failed) = setup(workload, args.seed, out_root, log)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        if failed:
            raise SystemExit("error: warm-up failed: " + " | ".join(log))
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_root = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            return traced_run(workload, args, out_root, log)
        sf, cases, own_setup, (attempted, failed) = setup(workload, args.seed, out_root, log)
        import hostspeed
        probe = hostspeed.Probe()
        passes, _, f, refs = timed_passes(sf, workload, cases, args.seconds, log, probe=probe)
        attempted, failed = attempted + len(cases) * len(passes), failed + f
        setups = [own_setup] + child_setups(args)
        kernel_s = statistics.fmean(probe.samples)
        log.append(environment_line(sf))
        log.append(f"info wall_s passes={len(passes)} ref_s={[round(r, 4) for r in refs]} "
                   f"raw_s={[round(sum(times), 4) for times in passes]}; "
                   f"setup_s raw_s={[round(s, 4) for s in setups]}; "
                   f"kernel_s mean={kernel_s:.5g} of {len(probe.samples)}; "
                   f"fail_frac={failed / attempted:.4g}")
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit({"wall_s": (statistics.median(refs), "s"),
              "setup_s": (statistics.median(setups) * hostspeed.REFERENCE_S / kernel_s, "s"),
              "peak_rss_mib": (rss_mib, "MiB")},
             "end_to_end", attempted, failed, log)
        return 0
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def traced_run(workload, args, out_root, log):
    """One untraced and one traced pass over the same cases; per-layer metrics."""
    import tracing
    sf, cases, _, (attempted, failed) = setup(workload, args.seed, out_root, log)
    passes, cpus, f0, _ = timed_passes(sf, workload, cases, 0.0, log, min_passes=1)
    wall_untraced = sum(passes[0])
    tracer = tracing.Tracer()
    tracer.install(sf)
    try:
        f1, times = run_pass(sf, workload, cases, log)
        wall_traced = sum(times)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, wall_untraced, wall_traced, cpus[0])
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w") as fh:
        json.dump(dict(tracer.dump(), workload=args.workload, seed=args.seed,
                       wall_untraced_s=wall_untraced, wall_traced_s=wall_traced), fh)
    log.append(environment_line(sf))
    log.append(f"info trace written to {os.path.relpath(trace_path, ROOT)}; "
               f"absent: {tracer.absent or 'none'}")
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:8]
    log.append(f"info largest self times, share of the traced pass ({wall_traced:.3f} s): "
               + ", ".join(f"{name} {st.self_s:.3f} s ({st.self_s / wall_traced:.1%})"
                           for name, st in top))
    emit(metrics, "per_layer", attempted + 2 * len(cases), failed + f0 + f1, log)
    return 0


if __name__ == "__main__":
    sys.exit(main())
