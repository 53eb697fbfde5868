"""Batch experiment driver.

Subcommands
-----------
verify            run the invariant battery, write a pass/fail report
spectrum          quantize a real symbol and write its sorted spectrum
moyal             star product of two symbols + direct-integral probes
compare-coupling  covariant vs naive coupling for a momentum polynomial

All commands read a single JSON configuration (schema ``magweyl-config/1``,
declared and checked in ``config``) and write JSON/CSV artifacts into the
output directory.  Reports embed the resolved configuration and are
byte-identical across runs with the same configuration and seed.  Exit
codes: 0 all checks passed, 1 numeric or invariant failure (for ``moyal``:
a direct-integral probe disagreeing with the kernel route by more than
``MOYAL_PROBE_TOLERANCE`` times the tolerance scale), 2 configuration/usage
error or a brute-force quadrature over its size cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config
from . import coupling as cp
from . import fields as fl
from . import grid as gr
from . import moyal as my
from . import quantize as qu
from .csvformat import _write_csv
from .errors import GaugeMismatchError, InputError, NumericError, ResourceLimitError
from .verify import run_battery

# worst |kernel route - direct route| a moyal run accepts, before the tolerance scale
MOYAL_PROBE_TOLERANCE = 1e-3


def build_rig(cfg: dict):
    """``(grid, B, gauges, quad, rng)`` of checked configuration values."""
    grid = config.named("grid", gr.PhaseSpaceGrid, **cfg["grid"])
    quad = config.named("quadrature_order", fl.Quadrature, cfg["quadrature_order"])
    B = config.named("field", config.build, "field", cfg["field"], grid.dim)
    gauges = [config.named("gauges", config.build, "potential", spec, grid.dim, B, quad)
              for spec in cfg["gauges"]]
    for spec, A in zip(cfg["gauges"], gauges):
        try:
            my.validate_gauge(A, B)
        except GaugeMismatchError as exc:
            raise GaugeMismatchError("'gauges': gauge %r and the 'field': %s"
                                     % (spec["kind"], exc)) from exc
    return grid, B, gauges, quad, np.random.default_rng(cfg["seed"])


def gauss_orders(B, gauges, quad) -> dict:
    """Gauss orders the rig's integrals use: requested, circulation per gauge, field flux.

    Taken from the rule selection of the integrals themselves, so a report
    states the orders its numbers were computed with.  ``circulation_panels``
    says per gauge on how many panels of each segment that order is applied.
    """
    return {"requested": quad.order,
            "circulation": [fl._exact_rule(quad, A).order for A in gauges],
            "circulation_panels": [fl._circulation_panels(A) for A in gauges],
            "flux": fl._exact_rule(quad, B).order}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_verify(shown: dict, cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    items = run_battery(grid, B, gauges, quad, rng, tol_scale=cfg["tolerance_scale"])
    report = {"config": shown, "gauss_orders": gauss_orders(B, gauges, quad), "items": items,
              "all_passed": all(i["passed"] for i in items)}
    _write_json(outdir / "verify_report.json", report)
    for item in items:
        status = "pass" if item["passed"] else "FAIL"
        print("%-32s %10.3e  (tol %8.1e)  %s" % (item["name"], item["error"],
                                                 item["tolerance"], status))
    return 0 if report["all_passed"] else 1


def cmd_spectrum(shown: dict, cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    sym = config.named("symbol", config.build, "symbol", cfg["symbol"], grid.dim)
    op = qu.op_quantize(sym, gauges[0], grid, quad=quad, mask=cfg["mask"])
    defect = op.hermiticity_defect()
    if defect > 1e-8 * cfg["tolerance_scale"]:
        print("non-Hermitian quantization (defect %.3e); symbol must be real" % defect,
              file=sys.stderr)
        return 1
    evs = op.eigenvalues(hermitian_tol=None)  # checked above, at the scaled tolerance
    _write_json(outdir / "spectrum.json",
                {"config": shown, "gauss_orders": gauss_orders(B, gauges, quad),
                 "hermiticity_defect": defect,
                 "eigenvalues": [float(e) for e in evs]})
    _write_csv(outdir / "spectrum.csv", [evs], "sorted eigenvalues")
    print("wrote %d eigenvalues in [%.6f, %.6f]" % (len(evs), evs[0], evs[-1]))
    return 0


def cmd_moyal(shown: dict, cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    f, g = (config.named(key, config.build, "symbol", cfg[key], grid.dim)
            for key in ("symbol_f", "symbol_g"))
    count, ppa, half = (cfg["probes"][key] for key in ("count", "points_per_axis", "halfwidth"))
    prod = my.moyal_product(f, g, B, gauges[0], grid, quad)
    prod.to_csv(outdir / "product.csv")
    probes = []
    offsets = np.vstack([np.zeros(grid.dim, dtype=int), 2 * np.eye(grid.dim, dtype=int)])
    for off in offsets[:count]:
        si = tuple(grid.n + o for o in off)
        ki = (grid.n // 2,) * grid.dim
        xi = (np.array([grid.midpoint_axis[s] for s in si]),
              np.array([grid.momentum_axis[k] for k in ki]))
        kernel_val = complex(prod.values[si + ki])
        direct_val = my.moyal_direct_probe(f, g, B, xi, points_per_axis=ppa,
                                           config_halfwidth=half, momentum_halfwidth=half,
                                           quad=quad)
        probes.append({
            "xi_x": [float(v) for v in xi[0]], "xi_p": [float(v) for v in xi[1]],
            "kernel_route": [kernel_val.real, kernel_val.imag],
            "direct_route": [direct_val.real, direct_val.imag],
            "abs_diff": abs(kernel_val - direct_val),
        })
    worst = max(p["abs_diff"] for p in probes)
    tol = MOYAL_PROBE_TOLERANCE * cfg["tolerance_scale"]
    passed = worst <= tol
    _write_json(outdir / "moyal_report.json",
                {"config": shown, "gauss_orders": gauss_orders(B, gauges, quad), "probes": probes,
                 "tolerance": tol, "passed": passed})
    print("product lattice written; %d probes, worst |kernel - direct| = %.3e (tol %.1e)  %s"
          % (len(probes), worst, tol, "pass" if passed else "FAIL"))
    return 0 if passed else 1


def cmd_compare_coupling(shown: dict, cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    sym = config.named("symbol", cp.PolynomialSymbol, grid.dim, cfg["symbol"]["terms"])
    diff, rep = config.named("symbol", cp.coupling_discrepancy, sym, gauges[0], grid, quad=quad)
    maxdiff = rep["max_abs_difference"]
    verdict = "equal" if maxdiff < 1e-8 else ("differ" if maxdiff > 1e-3 else "ambiguous")
    expected = "equal"
    if sym.degree == 3 and any(t["max_abs_correction"] > 1e-10
                               for t in rep["third_order_terms"]):
        expected = "differ"
    report = {
        "config": shown,
        "gauss_orders": gauss_orders(B, gauges, quad),
        "symbol": shown["symbol"],
        "potential": shown["gauges"][0],
        "max_abs_difference": maxdiff,
        "third_order_terms": rep["third_order_terms"],
        "verdict": verdict,
        "expected": expected,
        "passed": verdict == expected,
    }
    _write_json(outdir / "coupling_report.json", report)
    print("max |covariant - naive| = %.3e -> %s (expected %s)"
          % (maxdiff, verdict, expected))
    return 0 if report["passed"] else 1


COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "moyal": cmd_moyal,
    "compare-coupling": cmd_compare_coupling,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="magweyl",
                                     description="gauge-covariant phase-space calculus runner")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--out", default="magweyl-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--tolerance-scale", type=float, default=None,
                        help="multiply every tolerance by this factor")
    args = parser.parse_args(argv)

    try:
        shown, cfg = config.resolve_config(args.config, args.command, seed=args.seed,
                                           tolerance_scale=args.tolerance_scale)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](shown, cfg, outdir)
    except (InputError, GaugeMismatchError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 2
    except NumericError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
