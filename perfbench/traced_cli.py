"""Run one `magweyl` command with its layer calls traced.

    python3 perfbench/traced_cli.py <layers.json> <command> --config ... --out ...

The traced run of the `cli` workload starts its children through this script
instead of ``python -m magweyl.cli``.  Before the command runs, each public
function in ``LAYERS`` is replaced, in every magweyl module that holds it, by
a wrapper that records a span around the call (see ``spans.py``); no other
code path of the package changes.  When the command ends, its spans and its
per-layer self seconds, call counts and ``peak_mb`` are written to
``<layers.json>``, and the script exits with the command's exit code.

The benchmark's point counters wrap objects the benchmark builds itself, so
they are not taken here: the command builds its own potentials and symbols.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from magweyl import cli, grid  # noqa: E402

from spans import Tracer  # noqa: E402

# (module, function) -> layer name, as in the in-process workloads
LAYERS = {
    ("moyal", "validate_gauge"): "fields.validate_gauge",
    ("grid", "segment_phase_matrix"): "fields.phase_table",
    ("quantize", "translation_phase_table"): "fields.phase_table",
    ("grid", "kernel_from_symbol"): "grid.kernel_from_symbol",
    ("grid", "symbol_from_kernel"): "grid.symbol_from_kernel",
    ("grid", "kernel_compose"): "grid.kernel_compose",
    ("quantize", "op_quantize"): "quantize.op_quantize",
    ("moyal", "moyal_product"): "moyal.moyal_product",
    ("moyal", "moyal_direct_probe"): "moyal.direct_probe",
    ("wigner", "fourier_wigner"): "wigner.fourier_wigner",
    ("wigner", "rank_one_symbol"): "wigner.rank_one_symbol",
    ("coupling", "covariant_coupling"): "coupling.covariant_coupling",
}


def quantize_route(args, kwargs) -> str:
    """The layer name of one op_quantize call, split by route as in wigner-tau."""
    f = args[0]
    params = args[3] if len(args) > 3 else kwargs.get("params")
    if isinstance(f, grid.SymbolGrid) and f.kind != "midpoint":
        return "quantize.op_quantize_table"
    if params is not None and (params.tau != 0.5 or params.hbar != 1.0):
        return "quantize.op_quantize_tau"
    return "quantize.op_quantize"


def traced(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = quantize_route(args, kwargs) if name == "quantize.op_quantize" else name
        with tr.span(span):
            out = fn(*args, **kwargs)
        if name == "grid.kernel_compose":
            tr.counters[tr.op]["grid.kernel_compose.flops"] += 8 * out.kernel.shape[0]**3
        return out

    return wrapper


def install(tr: Tracer) -> None:
    modules = [m for k, m in sys.modules.items() if k == "magweyl" or k.startswith("magweyl.")]
    for (mod, attr), name in LAYERS.items():
        orig = getattr(sys.modules["magweyl." + mod], attr)
        wrapped = traced(tr, name, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    grid.OperatorKernel.eigenvalues = traced(tr, "grid.eigenvalues",
                                             grid.OperatorKernel.eigenvalues)


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tr = Tracer(False)
    install(tr)
    tr.op = argv[0]
    tr.start()
    try:
        code = cli.main(argv)
    finally:
        tr.stop()
        payload = {"layers": tr.layer_table([tr.op]),
                   "counters": dict(tr.counters[tr.op]), "spans": tr.spans}
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
