"""Self-test of the benchmark's gates and tracer.

    python3 perfbench/selftest.py

Each gate is run once on a real result, where it must pass, and once on a
deliberately perturbed copy, where it must miss.  The tracer is checked on
nested spans (self time), on a traced Keldysh solve (one factorization per
Picard step), and with ``keldysh.splu`` hidden, as a later change that stops
binding that name would: the run must complete and report it absent.
The host-speed probe is checked on when it times a block and on how it
converts a pass to reference seconds.  Last, the benchmark must refuse to run in a directory that holds only
BENCHMARK.json and perfbench/.  Exits 0 when every check holds.
"""

import builtins
import dataclasses
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS/OpenMP threads before numpy loads)
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES = []


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + str(detail) if detail else ''}")
    if not ok:
        FAILURES.append(label)


def gate_pair(label, real_misses, perturbed_misses):
    check(f"{label} gate passes the real result", real_misses == [], real_misses)
    check(f"{label} gate misses the perturbed result", perturbed_misses != [], perturbed_misses)


def test_keldysh_gate(sf):
    case = {"a": 4.0, "o_scale": 0.05, "eps0": 0.5, "n": 65}
    limits, gap, bounds = wl.keldysh_solve(sf, case)
    args = (bounds.psi_nonneg, bounds.quadratic_holds)
    gate_pair("keldysh-ref scan", wl.keldysh_gate(4.0, limits, gap, *args),
              wl.keldysh_gate(4.0, limits * 1.3, gap, *args))
    check("keldysh-ref corner gate misses a small gap",
          wl.keldysh_gate(4.0, limits, 0.4 / 4.0, *args) != [])
    check("keldysh-ref sign gate misses psi < 0",
          wl.keldysh_gate(4.0, limits, gap, False, bounds.quadratic_holds) != [])


def test_mixed_gate(sf):
    errors = {}
    residual = 0.0
    for n in (65, 129):
        res, err, h = wl.mixed_solve(sf, {"u0": 0.95, "n": n})
        errors[h] = err
        residual = max(residual, res)
    h_fine = min(errors)
    perturbed = {**errors, h_fine: errors[h_fine] * 8.0}  # order 2 -> below 1
    gate_pair("mixed-channel order", wl.mixed_gate(residual, errors),
              wl.mixed_gate(residual, perturbed))
    check("mixed-channel residual gate misses 1e-6", wl.mixed_gate(1e-6, errors) != [])


def test_lemma_gate(sf):
    acc = {"params": wl.CANONICAL, "u0": 0.9, "branch": "accelerating"}
    dec = {"params": wl.gamma_family(1.5), "u0": 1.1, "branch": "decelerating"}
    rep_acc = wl.lemma_solve(sf, acc)
    rep_dec = wl.lemma_solve(sf, dec)
    failed_claim = dataclasses.replace(rep_acc.claims[0], passed=False)
    broken = dataclasses.replace(rep_acc, claims=(failed_claim,) + rep_acc.claims[1:])
    gate_pair("lemma-suite claims", wl.lemma_gate(rep_acc, "accelerating", 3.0),
              wl.lemma_gate(broken, "accelerating", 3.0))
    flipped = dataclasses.replace(rep_dec.lmax, finite=not rep_dec.lmax.finite)
    gate_pair("lemma-suite dichotomy", wl.lemma_gate(rep_dec, "decelerating", 1.5),
              wl.lemma_gate(dataclasses.replace(rep_dec, lmax=flipped), "decelerating", 1.5))


def test_cli_gate(sf, out_root):
    case = [c for c in wl.cli_cases(1, out_root) if c["sub"] == "geometry"][0]
    misses = [wl.cli_run(sf, case, {}) for _ in range(2)]
    check("cli-artifacts gate passes two identical runs", misses == [[], []], misses)
    with open(os.path.join(case["outdir"], "sonic_arc.csv"), "a") as fh:
        fh.write("0.0,0.0\n")
    perturbed = wl.cli_gate(0, wl.csv_digests(case["outdir"]), case["digests"])
    check("cli-artifacts gate misses a changed CSV", perturbed != [], perturbed)
    check("cli-artifacts gate misses a non-zero exit", wl.cli_gate(2, {}, case["digests"]) != [])


def test_self_time():
    tr = tracing.Tracer()
    inner = lambda: time.sleep(0.03)
    outer = lambda: (time.sleep(0.02), tr.call("inner", inner, (), {}))
    tr.call("outer", outer, (), {})
    s, self_s = tr.stat("outer").s, tr.stat("outer").self_s
    check("self time is duration minus child spans",
          abs((s - self_s) - tr.stat("inner").s) < 1e-9 and 0.015 < self_s < 0.03,
          f"outer {s:.4f} s, self {self_s:.4f} s")
    check("child span records its parent", tr.spans[1][3] == 0, tr.spans)


def test_probe():
    probe = hostspeed.Probe()
    probe.after_case(0.5 * hostspeed.SEGMENT_S)
    quiet = len(probe.samples)
    probe.after_case(0.5 * hostspeed.SEGMENT_S)
    check("probe times a block once a segment of cases has passed",
          quiet == hostspeed.BLOCK and len(probe.samples) == 2 * hostspeed.BLOCK)
    ref = probe.close_pass(2.0)
    expected = 2.0 * hostspeed.REFERENCE_S / (sum(probe.samples) / len(probe.samples))
    check("pass converted with the mean kernel around it", abs(ref - expected) < 1e-12,
          f"{ref:.6f} s, expected {expected:.6f} s")


def traced_keldysh(sf):
    tr = tracing.Tracer()
    tr.install(sf)
    try:
        wl.keldysh_run(sf, {"a": 4.0, "o_scale": 0.05, "eps0": 0.5, "n": 33}, {})
    finally:
        tr.uninstall()
    return tr, tracing.layer_metrics(tr, 1.0, 1.0, 1.0)


def test_tracer(sf):
    tr, m = traced_keldysh(sf)
    check("traced run restores the package", not hasattr(sf.keldysh.solve_model, "__wrapped__"))
    check("one factorization per Picard step",
          m["keldysh.factor.calls"][0] == m["keldysh.iterations"][0] > 0,
          (m["keldysh.factor.calls"][0], m["keldysh.iterations"][0]))
    check("no wrapped name absent", m["trace.absent"][0] == 0, tr.absent)
    check("every per-layer metric reported",
          set(m) == set(run.declared_metrics("per_layer")))


def test_absent_name(sf):
    splu = sf.keldysh.__dict__.pop("splu")
    builtins.splu = splu  # the solver still finds it; the module no longer binds it
    try:
        tr, m = traced_keldysh(sf)
    finally:
        del builtins.splu
        sf.keldysh.splu = splu
    check("hidden keldysh.splu is reported absent", tr.absent == ["keldysh.splu"], tr.absent)
    check("run completes without it",
          m["keldysh.factor.calls"][0] == 0 and m["keldysh.iterations"][0] > 0
          and m["trace.absent"][0] == 1)


def test_bare_directory(out_root):
    bare = os.path.join(out_root, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lemma-suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    check("refuses to run without the source tree",
          proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stderr.strip()[-200:])


def main():
    out_root = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    try:
        sf = run.import_package()
        test_self_time()
        test_probe()
        test_keldysh_gate(sf)
        test_mixed_gate(sf)
        test_lemma_gate(sf)
        test_cli_gate(sf, out_root)
        test_tracer(sf)
        test_absent_name(sf)
        test_bare_directory(out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
