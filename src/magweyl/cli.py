"""Batch experiment driver.

Subcommands
-----------
verify            run the invariant battery, write a pass/fail report
spectrum          quantize a real symbol and write its sorted spectrum
moyal             star product of two symbols + direct-integral probes
compare-coupling  covariant vs naive coupling for a momentum polynomial

All commands read a single JSON configuration (schema ``magweyl-config/1``)
and write JSON/CSV artifacts into the output directory.  Reports embed the
fully resolved configuration and are byte-identical across runs with the
same configuration and seed.  Exit codes: 0 all checks passed, 1 numeric
or invariant failure (for ``moyal``: a direct-integral probe disagreeing
with the kernel route by more than ``MOYAL_PROBE_TOLERANCE`` times the
tolerance scale), 2 configuration/usage error or a brute-force quadrature
over its size cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import coupling as cp
from . import fields as fl
from . import grid as gr
from . import moyal as my
from . import quantize as qu
from .errors import GaugeMismatchError, InputError, NumericError, ResourceLimitError
from .verify import run_battery

SCHEMA = "magweyl-config/1"

DEFAULTS = {
    "grid": {"dim": 2, "n": 16, "L": 6.0},
    "field": {"kind": "constant", "dim": 2, "b": 1.0},
    "gauges": [{"kind": "symmetric", "b": 1.0}, {"kind": "landau", "b": 1.0}],
    "quadrature_order": 16,
    "seed": 20250808,
    "tolerance_scale": 1.0,
}

# worst |kernel route - direct route| a moyal run accepts, before the tolerance scale
MOYAL_PROBE_TOLERANCE = 1e-3


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read configuration %s: %s" % (path, exc)) from exc
    if not isinstance(cfg, dict):
        raise InputError("configuration must be a JSON object")
    if cfg.get("schema", SCHEMA) != SCHEMA:
        raise InputError("unsupported schema %r (expected %r)" % (cfg.get("schema"), SCHEMA))
    return cfg


def resolve_config(cfg: dict, seed=None, tolerance_scale=None) -> dict:
    out = {"schema": SCHEMA}
    for key, val in DEFAULTS.items():
        out[key] = cfg.get(key, val)
    for key in cfg:
        if key not in out:
            out[key] = cfg[key]
    if seed is not None:
        out["seed"] = int(seed)
    if tolerance_scale is not None:
        out["tolerance_scale"] = float(tolerance_scale)
    gspec = out["grid"]
    n = int(gspec.get("n", 16))
    if n % 2 or n < 2:
        raise InputError("grid points per axis must be even and >= 2")
    if float(gspec.get("L", 6.0)) <= 0:
        raise InputError("grid half-width must be positive")
    return out


def build_rig(cfg: dict):
    gspec = cfg["grid"]
    grid = gr.PhaseSpaceGrid(int(gspec.get("dim", 2)), int(gspec.get("n", 16)),
                             float(gspec.get("L", 6.0)))
    quad = fl.Quadrature(int(cfg.get("quadrature_order", 16)))
    B = fl.field_from_config(cfg["field"])
    gauges = [fl.potential_from_config(spec, B, quad) for spec in cfg["gauges"]]
    for spec, A in zip(cfg["gauges"], gauges):
        try:
            my.validate_gauge(A, B)
        except GaugeMismatchError as exc:
            raise GaugeMismatchError("gauge %r: %s" % (spec.get("kind"), exc)) from exc
    rng = np.random.default_rng(int(cfg["seed"]))
    return grid, B, gauges, quad, rng


def symbol_from_spec(spec: dict, dim: int):
    """Build a symbol from a config record; returns (symbol, mask_flag)."""
    kind = spec.get("kind")
    if kind == "constant":
        return gr.constant_symbol(dim, spec.get("value", 1.0)), True
    if kind == "gaussian":
        return gr.gaussian_symbol(
            dim, x_center=spec.get("x_center"), p_center=spec.get("p_center"),
            x_width=float(spec.get("x_width", 1.0)), p_width=float(spec.get("p_width", 1.0)),
            amplitude=spec.get("amplitude", 1.0)), True
    if kind == "kinetic":
        cutoff = float(spec.get("cutoff", 30.0))
        terms = [(1.0, tuple(2 if j == a else 0 for j in range(dim))) for a in range(dim)]
        return cp.PolynomialSymbol(dim, terms).with_momentum_cutoff(cutoff), False
    if kind == "momentum_polynomial":
        terms = [(t.get("coeff", 1.0), tuple(t["powers"])) for t in spec["terms"]]
        sym = cp.PolynomialSymbol(dim, terms)
        if "cutoff" in spec:
            return sym.with_momentum_cutoff(float(spec["cutoff"])), False
        return sym, False
    raise InputError("unknown symbol kind %r" % (kind,))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_verify(cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    items = run_battery(grid, B, gauges, quad, rng, tol_scale=float(cfg["tolerance_scale"]))
    report = {"config": cfg, "items": items, "all_passed": all(i["passed"] for i in items)}
    _write_json(outdir / "verify_report.json", report)
    for item in items:
        status = "pass" if item["passed"] else "FAIL"
        print("%-32s %10.3e  (tol %8.1e)  %s" % (item["name"], item["error"],
                                                 item["tolerance"], status))
    return 0 if report["all_passed"] else 1


def cmd_spectrum(cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    if "symbol" not in cfg:
        raise InputError("spectrum needs a 'symbol' entry in the configuration")
    sym, mask = symbol_from_spec(cfg["symbol"], grid.dim)
    if isinstance(sym, cp.PolynomialSymbol):
        sym = sym.with_momentum_cutoff(float(cfg["symbol"].get("cutoff", 30.0)))
    mask = bool(cfg.get("mask", mask))
    op = qu.op_quantize(sym, gauges[0], grid, quad=quad, mask=mask)
    defect = op.hermiticity_defect()
    if defect > 1e-8 * float(cfg["tolerance_scale"]):
        print("non-Hermitian quantization (defect %.3e); symbol must be real" % defect,
              file=sys.stderr)
        return 1
    evs = op.eigenvalues()
    _write_json(outdir / "spectrum.json",
                {"config": cfg, "hermiticity_defect": defect,
                 "eigenvalues": [float(e) for e in evs]})
    np.savetxt(outdir / "spectrum.csv", evs, delimiter=",", header="sorted eigenvalues")
    print("wrote %d eigenvalues in [%.6f, %.6f]" % (len(evs), evs[0], evs[-1]))
    return 0


def cmd_moyal(cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    for key in ("symbol_f", "symbol_g"):
        if key not in cfg:
            raise InputError("moyal needs 'symbol_f' and 'symbol_g' entries")
    f, _ = symbol_from_spec(cfg["symbol_f"], grid.dim)
    g, _ = symbol_from_spec(cfg["symbol_g"], grid.dim)
    prod = my.moyal_product(f, g, B, gauges[0], grid, quad)
    prod.to_csv(outdir / "product.csv")
    pcfg = cfg.get("probes", {})
    count = int(pcfg.get("count", 3))
    ppa = int(pcfg.get("points_per_axis", 12))
    half = float(pcfg.get("halfwidth", 4.0))
    probes = []
    offsets = [np.zeros(grid.dim, dtype=int)]
    for a in range(grid.dim):
        e = np.zeros(grid.dim, dtype=int)
        e[a] = 2
        offsets.append(e)
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
    tol = MOYAL_PROBE_TOLERANCE * float(cfg["tolerance_scale"])
    passed = worst <= tol
    _write_json(outdir / "moyal_report.json",
                {"config": cfg, "probes": probes, "tolerance": tol, "passed": passed})
    print("product lattice written; %d probes, worst |kernel - direct| = %.3e (tol %.1e)  %s"
          % (len(probes), worst, tol, "pass" if passed else "FAIL"))
    return 0 if passed else 1


def cmd_compare_coupling(cfg: dict, outdir: Path) -> int:
    grid, B, gauges, quad, rng = build_rig(cfg)
    if "symbol" not in cfg:
        raise InputError("compare-coupling needs a 'symbol' entry")
    spec = cfg["symbol"]
    if spec.get("kind") != "momentum_polynomial":
        raise InputError("compare-coupling expects a momentum_polynomial symbol")
    terms = [(t.get("coeff", 1.0), tuple(t["powers"])) for t in spec["terms"]]
    sym = cp.PolynomialSymbol(grid.dim, terms)
    if sym.degree > 3:
        raise InputError("degree %d > 3 is unsupported for the closed-form comparison"
                         % sym.degree)
    A = gauges[0]
    diff, rep = cp.coupling_discrepancy(sym, A, grid, quad=quad)
    maxdiff = rep["max_abs_difference"]
    verdict = "equal" if maxdiff < 1e-8 else ("differ" if maxdiff > 1e-3 else "ambiguous")
    expected = "equal"
    if sym.degree == 3 and any(t["max_abs_correction"] > 1e-10
                               for t in rep["third_order_terms"]):
        expected = "differ"
    report = {
        "config": cfg,
        "symbol": spec,
        "potential": cfg["gauges"][0],
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="magweyl",
                                     description="gauge-covariant phase-space calculus runner")
    parser.add_argument("command",
                        choices=["verify", "spectrum", "moyal", "compare-coupling"])
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--out", default="magweyl-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--tolerance-scale", type=float, default=None,
                        help="multiply every tolerance by this factor")
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(load_config(args.config), seed=args.seed,
                             tolerance_scale=args.tolerance_scale)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        handler = {
            "verify": cmd_verify,
            "spectrum": cmd_spectrum,
            "moyal": cmd_moyal,
            "compare-coupling": cmd_compare_coupling,
        }[args.command]
        return handler(cfg, outdir)
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
