"""Self-test of the benchmark's input generator and correctness gate.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks two things and exits non-zero if either fails:

* the same seed gives identical generated inputs for every workload, and
  another seed gives different ones;
* a deliberately corrupted result -- a star-product table scaled by
  ``1 + 1e-6``, a gauge-spectrum eigenvalue moved by ``1e-9`` of the
  spectral radius -- is counted as a failure by the same loop that times the
  benchmark, not timed as a success, while the untouched result passes.
"""

from __future__ import annotations

import json
import os
import sys

import run

for _var in run.BLAS_VARS:
    os.environ[_var] = str(run.nproc())
sys.path.insert(0, str(run.SRC))

from cli_batch import CliBatch  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import IN_PROCESS  # noqa: E402


def same_seed_same_inputs() -> list[str]:
    problems = []
    makers = dict(IN_PROCESS)
    makers["cli"] = lambda seed: CliBatch(seed, run.ROOT, run.OUT, {})
    for name, make in makers.items():
        draw = [json.dumps(make(seed).inputs(i), sort_keys=True)
                for seed in (5, 5, 6) for i in range(4)]
        if draw[:4] != draw[4:8]:
            problems.append("%s: the same seed gave different inputs" % name)
        if draw[:4] == draw[8:]:
            problems.append("%s: different seeds gave the same inputs" % name)
    return problems


def scale_table(out):
    out["product"].values *= 1.0 + 1e-6
    return out


def shift_eigenvalue(out):
    e = out["spectra"][1]
    e[len(e) // 2] += 1e-9 * abs(e).max()
    return out


def corrupted_results_fail() -> list[str]:
    problems = []
    tr = Tracer(False)
    for name, corrupt in (("star-product", scale_table), ("gauge-spectrum", shift_eigenvalue)):
        wl = IN_PROCESS[name](7)
        rig = wl.build_rig(tr)
        clean = run.loop(wl, rig, tr, seconds=1e-9, first=1)
        bad = run.loop(wl, rig, tr, seconds=1e-9, first=1, corrupt=corrupt)
        if not all(op["passed"] for op in clean):
            problems.append("%s: the untouched result failed its gate: %s" % (name, clean))
        if any(op["passed"] for op in bad) or run.ops_per_s(bad) != 0.0:
            problems.append("%s: a corrupted result was counted as a success" % name)
        else:
            missed = [g["name"] for g in bad[0]["gate"] if not g["error"] <= g["tolerance"]]
            print("%s: corrupted result rejected by %s" % (name, ", ".join(missed)))
    return problems


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    problems = same_seed_same_inputs() + corrupted_results_fail()
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
