"""magweyl benchmark: four seeded, result-checked workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload star-product --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/selftest.py

Workloads (see ``workloads.py`` and ``cli_batch.py`` for why each was
chosen): ``star-product``, ``gauge-spectrum`` and ``wigner-tau`` run in this
process; ``cli`` runs batches of ``python -m magweyl.cli`` subprocesses.
Each is a closed loop with one client.  Operations start until their timed
calls add up to ``--seconds``; each is followed by its untimed correctness
gate, and a miss counts as a failure.  Before the loop, set-up is measured:
the imports (for ``cli``, a fresh ``python -c "import magweyl"``), the median
of three rig constructions, and one gated warm-up operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the ``end_to_end`` entries of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` entries.  A layer the workload
never calls reads 0 (no calls, no time).  A figure the workload does not
measure -- the point counters and probe difference inside the ``cli``
children, the single-thread pass outside ``star-product`` -- also reads 0
and is named on a "not measured" line.  The lines before it print every
metric by name and unit, the error rate and the environment.  Every
operation's time and
gate, the environment and the computed resource counts go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its spans next to it.

BLAS threads are set to ``nproc`` (1 in the single-thread pass) through the
environment before NumPy is imported, here and in every child process.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts the imports that follow

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("star-product", "gauge-spectrum", "wigner-tau", "cli")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
# per-layer metrics of these modules read 0 on workloads that never call them
LAYER_PREFIXES = ("fields", "grid", "quantize", "moyal", "wigner", "coupling", "cli")
# figures a workload runs but does not measure: the cli children build their
# own potentials and symbols, and their moyal probe is gated, not reported
CLI_UNMEASURED = ("fields.potential_points", "fields.field_points", "grid.symbol_points",
                  "moyal.probe_abs_diff")
BLAS1 = ("blas1.ops_per_s", "blas1.kernel_compose.gflops")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the single-BLAS-thread pass that a traced star-product run starts
    ap.add_argument("--baseline-pass", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def artifact(name: str, seed: int, tag: str) -> Path:
    return OUT / ("%s-seed%d-%s.json" % (name, seed, tag))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip()


def blas_info() -> tuple[str, int | None]:
    """BLAS name and version, and the thread count OpenBLAS reports."""
    import ctypes
    import glob

    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = "%s %s" % (dep.get("name"), dep.get("version"))
    except (TypeError, KeyError):
        name = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def environment(threads: int) -> dict:
    import numpy as np

    blas, blas_threads = blas_info()
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads if blas_threads is not None else threads,
            "blas_threads_requested": threads, "nproc": nproc(),
            "machine": platform.machine(), "platform": platform.platform()}


def computed_counts(dim: int, n: int) -> dict:
    """Resource counts computed from array shapes (labelled "computed")."""
    size = n**dim
    return {"computed.kernel_bytes": 16 * size**2,          # one complex size x size kernel
            "computed.quad_temp_bytes": 8 * size**2 * dim,   # one (size, size, N) temporary per node
            "computed.kernel_compose_flops": 8 * size**3}    # complex matrix product


# ---------------------------------------------------------------------------
# the closed loop

def one_op(wl, rig, tr, index: int, corrupt=None) -> dict:
    """Run, time and gate one operation; never raises."""
    params = wl.inputs(index)
    tr.op = index
    rec = {"index": index, "passed": False}
    t = time.perf_counter()
    try:
        out = wl.run(rig, params, tr)
    except Exception:
        rec["s"] = time.perf_counter() - t
        rec["error"] = traceback.format_exc()
        return rec
    rec["s"] = time.perf_counter() - t - tr.extra_seconds(index)
    try:
        if corrupt is not None:
            out = corrupt(out)
        gate = wl.check(rig, params, out)
        rec["gate"] = [{"name": n, "error": float(e), "tolerance": tol} for n, e, tol in gate]
        rec["passed"] = all(e <= tol for _, e, tol in gate)
        rec["diag"] = wl.diagnostics(out)
    except Exception:
        rec["error"] = traceback.format_exc()
    return rec


def loop(wl, rig, tr, seconds: float, first: int, max_ops=None, corrupt=None) -> list:
    ops = []
    timed = 0.0
    while timed < seconds and (max_ops is None or len(ops) < max_ops):
        ops.append(one_op(wl, rig, tr, first + len(ops), corrupt))
        timed += ops[-1]["s"]
    return ops


def ops_per_s(ops) -> float:
    return sum(op["passed"] for op in ops) / sum(op["s"] for op in ops)


def mean_op_s(ops) -> float:
    """Seconds per operation, passed or not."""
    return sum(op["s"] for op in ops) / len(ops)


def make_workload(name: str, seed: int):
    if name == "cli":
        from cli_batch import CliBatch

        workdir = OUT / ("cli-seed%d" % seed)
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        wl = CliBatch(seed, ROOT, workdir, env)
        return wl, wl.import_probe()
    import magweyl

    if not Path(magweyl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("magweyl was imported from %s, not from %s" % (magweyl.__file__, SRC))
    from workloads import IN_PROCESS

    return IN_PROCESS[name](seed), time.perf_counter() - T0


def single_thread_pass(args) -> dict:
    """Traced star-product pass with one BLAS thread, as the plain baseline."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
            "--baseline-pass"]
    subprocess.run(argv, check=True, capture_output=True, text=True, timeout=170)
    rec = json.loads(artifact(args.workload, args.seed, "blas1").read_text(encoding="utf-8"))
    return {"blas1.ops_per_s": rec["traced_ops_per_s"],
            "blas1.kernel_compose.gflops": rec["layers"]["grid.kernel_compose.gflops"]}


def layer_values(wl, tr, traced, ref_ops, baseline) -> dict:
    """Per-layer figures of a traced run, keyed as in BENCHMARK.json."""
    ids = [op["index"] for op in traced]
    values = {}
    for name, rec in tr.layer_table(ids).items():
        for key in ("s", "calls", "peak_mb"):
            values["%s.%s" % (name, key)] = rec[key]
    if "fields.validate_gauge.s" not in values:
        # validated once on the rig rather than per operation
        setup = tr.layer_table(["setup"]).get("fields.validate_gauge")
        if setup:
            values["fields.validate_gauge.s"] = setup["s"]
            values["fields.validate_gauge.peak_mb"] = setup["peak_mb"]
    values.update(tr.counter_table(ids))
    diags = [op.get("diag", {}) for op in traced]
    for key in sorted({k for d in diags for k in d}):
        values[key] = statistics.median(d[key] for d in diags if key in d)
    compose = values.get("grid.kernel_compose.s")
    if compose:
        # the cli children count the flops of each call; here every call is n^dim
        flops = values.get("grid.kernel_compose.flops", values["grid.kernel_compose.calls"]
                           * computed_counts(wl.dim, wl.n)["computed.kernel_compose_flops"])
        values["grid.kernel_compose.gflops"] = flops / compose / 1e9
    if ref_ops:
        # from times, so that a failed reference operation still gives a ratio
        values["trace.ops_per_s_ratio"] = mean_op_s(ref_ops) / mean_op_s(traced)
    values["traced_ops_per_s"] = ops_per_s(traced)
    values.update(baseline)
    values.update(computed_counts(wl.dim, wl.n))
    return values


def select(values: dict, spec: list, unmeasured) -> dict:
    """The metrics named in BENCHMARK.json.

    A layer that never ran reads 0, and so does a figure in ``unmeasured``;
    any other missing value is an error.
    """
    out = {}
    for m in spec:
        value = values.get(m["name"])
        if value is None:
            if m["name"] not in unmeasured and m["name"].split(".")[0] not in LAYER_PREFIXES:
                raise KeyError("no value for metric %r" % m["name"])
            value = 0.0
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return out


def run_workload(args, threads: int) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    from spans import Tracer

    wl, import_s = make_workload(args.workload, args.seed)
    tr = Tracer(False)
    rig_samples = []
    for k in range(SETUP_SAMPLES):  # the traced run keeps the first build's spans
        if args.trace and k == 0:
            tr.start()
        t = time.perf_counter()
        rig = wl.build_rig(tr)
        rig_samples.append(time.perf_counter() - t)
        tr.stop()
    warm = one_op(wl, rig, tr, 0)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(threads),
              "computed": computed_counts(wl.dim, wl.n), "warmup": warm,
              "setup": {"import_s": import_s, "rig_s": rig_samples, "warmup_s": warm["s"]}}
    if args.trace:
        ref_ops = [] if args.baseline_pass else [one_op(wl, rig, tr, 1)]
        tr.start()
        ops = loop(wl, rig, tr, args.seconds, first=2, max_ops=1 if args.baseline_pass else None)
        tr.stop()
        baseline = {}
        if args.workload == "star-product" and not args.baseline_pass:
            baseline = single_thread_pass(args)
        values = layer_values(wl, tr, ops, ref_ops, baseline)
        if not wl.in_process:
            values["cli.import.s"] = import_s
        result["ref_ops"] = ref_ops
        result["traced_ops_per_s"] = values["traced_ops_per_s"]
        result["layers"] = values
        spec = bench["per_layer"]
        tr.dump(artifact(args.workload, args.seed,
                         "blas1-spans" if args.baseline_pass else "trace1-spans"))
    else:
        ops = loop(wl, rig, tr, args.seconds, first=1)
        if wl.in_process:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak = max((v for op in [warm] + ops for k, v in op.get("diag", {}).items()
                        if k.endswith(".peak_rss_mb")), default=0.0)
        passed = [op["s"] for op in ops if op["passed"]] or [op["s"] for op in ops]
        values = {"ops_per_s": ops_per_s(ops), "op_s_p50": statistics.median(passed),
                  "peak_rss_mb": peak,
                  "setup_s": import_s + statistics.median(rig_samples) + warm["s"]}
        spec = bench["end_to_end"]

    unmeasured = ()
    if args.trace and not wl.in_process:
        unmeasured += CLI_UNMEASURED
    if args.baseline_pass:  # the pass has no untraced reference operation
        unmeasured += BLAS1 + ("trace.ops_per_s_ratio",)
    elif args.trace and args.workload != "star-product":
        unmeasured += BLAS1
    everything = [warm] + result.get("ref_ops", []) + ops
    failed = sum(not op["passed"] for op in everything)
    line = {"correct": failed == 0, "attempted": len(everything), "failed": failed,
            "metrics": select(values, spec, unmeasured)}
    result["unmeasured"] = unmeasured
    result["ops"] = ops
    result["error_rate"] = failed / len(everything)
    result["result"] = line
    tag = "blas1" if args.baseline_pass else "trace%d" % args.trace
    artifact(args.workload, args.seed, tag).write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")

    report(args, result, line, len(ops), unmeasured)
    print(json.dumps(line, sort_keys=True))
    return 0


def report(args, result, line, timed_ops, unmeasured) -> None:
    env = result["environment"]
    print("workload %s  seed %d  trace %d  blas threads %s  nproc %d"
          % (args.workload, args.seed, args.trace, env["blas_threads"], env["nproc"]))
    print("  commit %s  python %s  numpy %s  blas %s"
          % (env["commit"], env["python"], env["numpy"], env["blas"]))
    for name, m in line["metrics"].items():
        extra = "  (n=%d)" % timed_ops if name == "op_s_p50" else ""
        print("  %-34s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  %-34s %14.6g 1  (%d of %d operations failed)"
          % ("error_rate", result["error_rate"], line["failed"], line["attempted"]))
    if unmeasured:
        print("  not measured on this workload (reads 0): %s" % ", ".join(unmeasured))
    for op in [result["warmup"]] + result.get("ref_ops", []) + result["ops"]:
        if not op["passed"]:
            print("  operation %d failed: %s" % (op["index"], op.get("error") or [
                g for g in op.get("gate", []) if not g["error"] <= g["tolerance"]]),
                file=sys.stderr)


def run_all(args) -> int:
    """Every workload in its own process, one table of end-to-end metrics."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        line = json.loads(res.stdout.strip().splitlines()[-1])
        summary["correct"] &= line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        for key, m in line["metrics"].items():
            summary["metrics"]["%s.%s" % (name, key)] = m
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in (SRC / "magweyl" / "__init__.py", ROOT / "configs", ROOT / "BENCHMARK.json"):
        if not need.exists():
            print("benchmark: %s is missing; run from a full checkout" % need, file=sys.stderr)
            return 2
    threads = 1 if args.baseline_pass else nproc()
    for var in BLAS_VARS:  # before NumPy is imported, here and in every child
        os.environ[var] = str(threads)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
