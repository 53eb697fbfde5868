"""The in-process workloads: seeded inputs, one operation, its correctness gate.

Each workload is a closed loop with a single client in one process: the
next operation starts only after the previous one has finished and its
gate has run.  ``inputs(index)`` draws plain numbers from the workload seed;
``run`` builds the package objects from them and makes the timed calls;
``check`` runs untimed afterwards and returns ``(name, error, tolerance)``
records, all of which must satisfy ``error <= tolerance``.

The timed calls go only through public functions of ``fields``, ``grid``,
``quantize``, ``moyal``, ``wigner`` and ``coupling``.  When the tracer is on,
``run`` also wraps the potentials, fields and symbols it builds to count
their evaluation points, and adds direct calls (marked ``extra``) that break
the operation into its layers; those extra calls use unwrapped objects, so
the counts are those of the timed calls alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from magweyl import coupling as cp
from magweyl import fields as fl
from magweyl import grid as gr
from magweyl import moyal as my
from magweyl import quantize as qu
from magweyl import wigner as wg
from spans import Tracer


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class Workload:
    name = ""
    in_process = True
    salt = 0
    dim, n, L = 2, 16, 8.0

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.salt, index])

    # -- counting wrappers (identity when the tracer is off) -------------
    @staticmethod
    def potential(A, tr):
        if not tr.enabled:
            return A
        return fl.VectorPotential(A.dim, tr.counted("fields.potential_points", A.eval),
                                  degree_hint=A.degree_hint, poly=A.poly, name=A.name,
                                  _validate=False)

    @staticmethod
    def field(B, tr):
        if not tr.enabled:
            return B
        return fl.MagneticField(B.dim, tr.counted("fields.field_points", B.eval),
                                degree_hint=B.degree_hint, name=B.name, _validate=False)

    @staticmethod
    def symbol(f, tr):
        if not tr.enabled:
            return f
        return gr.SymbolEvaluator(f.dim, tr.counted("grid.symbol_points", f.fn),
                                  decay=f.decay, name=f.name)

    def diagnostics(self, out) -> dict:
        return {}


@dataclass
class ConstantFieldRig:
    grid: gr.PhaseSpaceGrid
    quad: fl.Quadrature
    B: fl.MagneticField
    A: fl.VectorPotential
    check_phase: np.ndarray | None = None  # phase table memo of the untimed gate


def _constant_field_rig(wl: Workload, tr) -> ConstantFieldRig:
    grid = gr.PhaseSpaceGrid(wl.dim, wl.n, wl.L)
    quad = fl.Quadrature(16)
    B = fl.constant_field_2d(1.0)
    A = fl.symmetric_gauge(1.0)
    with tr.span("fields.validate_gauge"):
        my.validate_gauge(wl.potential(A, tr), wl.field(B, tr))
    return ConstantFieldRig(grid, quad, B, A)


# ---------------------------------------------------------------------------
# star-product
#
# Chosen because it is the hot path of the two slowest tier-1 tests and of
# `magweyl moyal`: the kernel maps, composition and the midpoint-by-midpoint
# inverse map at n=32 on one rig that never changes, so a loop-free inverse
# map or a per-rig phase-table cache shows here first.

class StarProduct(Workload):
    name = "star-product"
    salt = 1
    n, L = 32, 8.0
    probe_points = 16
    probe_halfwidth = 4.5

    def build_rig(self, tr):
        return _constant_field_rig(self, tr)

    def inputs(self, index: int) -> dict:
        rng = self.rng(index)

        def gaussian():
            return {"x_center": rng.uniform(-0.5, 0.5, 2).tolist(),
                    "p_center": rng.uniform(-0.3, 0.3, 2).tolist(),
                    "x_width": float(rng.uniform(0.9, 1.3)),
                    "p_width": float(rng.uniform(0.8, 1.0))}

        return {"f": gaussian(), "g": gaussian()}

    def _centre(self, grid):
        si = (grid.n,) * grid.dim
        ki = (grid.n // 2,) * grid.dim
        xi = (grid.midpoint_axis[list(si)], grid.momentum_axis[list(ki)])
        return si + ki, xi

    def run(self, rig, params, tr):
        f0 = gr.gaussian_symbol(self.dim, **params["f"])
        g0 = gr.gaussian_symbol(self.dim, **params["g"])
        f, g = self.symbol(f0, tr), self.symbol(g0, tr)
        A, B = self.potential(rig.A, tr), self.field(rig.B, tr)
        _, xi = self._centre(rig.grid)
        with tr.span("moyal.moyal_product"):
            prod = my.moyal_product(f, g, B, A, rig.grid, rig.quad)
        with tr.span("moyal.direct_probe"):
            direct = my.moyal_direct_probe(f, g, B, xi, points_per_axis=self.probe_points,
                                           config_halfwidth=self.probe_halfwidth,
                                           momentum_halfwidth=self.probe_halfwidth,
                                           quad=rig.quad)
        if tr.enabled:
            # the product broken into the layers moyal_product calls
            with tr.span("fields.phase_table", extra=True):
                gr.segment_phase_matrix(rig.A, rig.grid, rig.quad)
            with tr.span("grid.kernel_from_symbol", extra=True):
                kf = gr.kernel_from_symbol(f0, rig.A, rig.grid, rig.quad)
            with tr.span("grid.kernel_from_symbol", extra=True):
                kg = gr.kernel_from_symbol(g0, rig.A, rig.grid, rig.quad)
            with tr.span("grid.kernel_compose", extra=True):
                kc = gr.kernel_compose(kf, kg)
            with tr.span("grid.symbol_from_kernel", extra=True):
                gr.symbol_from_kernel(kc, rig.A, rig.quad)
        return {"product": prod, "direct": direct}

    def check(self, rig, params, out):
        f = gr.gaussian_symbol(self.dim, **params["f"])
        g = gr.gaussian_symbol(self.dim, **params["g"])
        prod = out["product"]
        if rig.check_phase is None:
            rig.check_phase = gr.segment_phase_matrix(rig.A, rig.grid, rig.quad)

        def magnetic(sym):
            # equal to kernel_from_symbol(sym, rig.A, ...): the mask entries
            # 0, 1/2 and 1 commute exactly with the phase factor
            return gr.OperatorKernel(rig.grid, rig.check_phase * gr.kernel_from_symbol(
                sym, None, rig.grid, rig.quad).kernel)

        ref = gr.kernel_compose(magnetic(f), magnetic(g))
        back = magnetic(prod)
        fg = f.sample(rig.grid, "midpoint").values * g.sample(rig.grid, "midpoint").values
        rhs = gr.SymbolGrid(rig.grid, "midpoint", fg).integral()
        at, _ = self._centre(rig.grid)
        return [
            # wrap-tail floor at n=32 is about 2e-9
            ("requantized_product", _rel(back.kernel, ref.kernel), 1e-7),
            ("trace_identity", abs(prod.integral() - rhs) / abs(rhs), 1e-12),
            ("kernel_vs_direct", abs(complex(prod.values[at]) - out["direct"]), 1e-3),
        ]

    def diagnostics(self, out) -> dict:
        at, _ = self._centre(out["product"].grid)
        return {"moyal.probe_abs_diff": abs(complex(out["product"].values[at]) - out["direct"])}


# ---------------------------------------------------------------------------
# gauge-spectrum
#
# Chosen as the control for inverse-map and per-rig-cache work: every
# operation draws a new non-polynomial field, so nothing is shared between
# operations and symbol_from_kernel never runs.  About 98 % of each
# quantization is the transversal-gauge circulation table, the target of
# adaptive quadrature order.

@dataclass
class SpectrumRig:
    grid: gr.PhaseSpaceGrid
    quad: fl.Quadrature
    kinetic: gr.SymbolEvaluator
    reference_quad: fl.Quadrature


class GaugeSpectrum(Workload):
    name = "gauge-spectrum"
    salt = 2
    n, L = 20, 8.0
    cutoff = 30.0
    phase_pairs = 64

    def build_rig(self, tr):
        grid = gr.PhaseSpaceGrid(self.dim, self.n, self.L)
        kinetic = cp.PolynomialSymbol(self.dim, [(1.0, (2, 0)), (1.0, (0, 2))])
        return SpectrumRig(grid, fl.Quadrature(16), kinetic.with_momentum_cutoff(self.cutoff),
                           fl.Quadrature(48))

    def inputs(self, index: int) -> dict:
        rng = self.rng(index)
        size = self.n**self.dim
        return {
            "amplitude": float(rng.uniform(0.6, 1.4)),
            "width": float(rng.uniform(1.6, 2.4)),
            "center": rng.uniform(-1.0, 1.0, 2).tolist(),
            "rho": [[float(c), p] for c, p in zip(rng.uniform(-0.05, 0.05, 3),
                                                   ([2, 1], [1, 2], [3, 0]))],
            "pairs": rng.integers(0, size, size=(self.phase_pairs, 2)).tolist(),
        }

    def _gauges(self, rig, params, tr):
        B = self.field(fl.gaussian_field_2d(params["amplitude"], params["width"],
                                            params["center"]), tr)
        A1 = fl.transversal_gauge(B, rig.quad)
        rho = fl.ScalarPotential.from_poly(
            fl.PolynomialMap(self.dim, [[(c, tuple(p)) for c, p in params["rho"]]]))
        return B, A1, fl.add_gradient(A1, rho)

    def run(self, rig, params, tr):
        B, A1, A2 = self._gauges(rig, params, tr)
        kernels, spectra = [], []
        for A in (self.potential(A1, tr), self.potential(A2, tr)):
            with tr.span("fields.validate_gauge"):
                my.validate_gauge(A, B)
            with tr.span("quantize.op_quantize"):
                K = qu.op_quantize(self.symbol(rig.kinetic, tr), A, rig.grid, quad=rig.quad,
                                   mask=False)
            with tr.span("grid.eigenvalues"):
                spectra.append(K.eigenvalues())
            kernels.append(K)
        if tr.enabled:
            # op_quantize is the phase table times the non-magnetic kernel map
            for A in (A1, A2):
                with tr.span("fields.phase_table", extra=True):
                    gr.segment_phase_matrix(A, rig.grid, rig.quad)
            with tr.span("grid.kernel_from_symbol", extra=True):
                gr.kernel_from_symbol(rig.kinetic, None, rig.grid, rig.quad, mask=False)
        return {"kernels": kernels, "spectra": spectra}

    def check(self, rig, params, out):
        _, A1, A2 = self._gauges(rig, params, Tracer(False))
        e1, e2 = out["spectra"]
        scale = np.abs(e1).max()
        # the kernel is the phase table times the gauge-free kernel, so their
        # ratio at lattice pairs is the order-16 phase the quantization used
        base = gr.kernel_from_symbol(rig.kinetic, None, rig.grid, rig.quad, mask=False).kernel
        pts = rig.grid.config_points()
        i, j = np.asarray(params["pairs"]).T
        phase_err = 0.0
        for A, K in zip((A1, A2), out["kernels"]):
            used = K.kernel[i, j] / base[i, j]
            ref = fl.segment_phase(A, pts[i], pts[j], rig.reference_quad)
            phase_err = max(phase_err, float(np.abs(used - ref).max()))
        return [
            ("gauge_spectra_agree", float(np.abs(e1 - e2).max() / scale), 1e-12),
            ("hermiticity_defect", max(K.hermiticity_defect() for K in out["kernels"]), 1e-10),
            ("spectrum_lower_bound", float(max(0.0, -min(e1[0], e2[0])) / scale), 1e-10),
            # order 16 on the longest box segments: up to 3e-6 at width 1.6
            ("phase_table_vs_order48", phase_err, 1e-5),
        ]


# ---------------------------------------------------------------------------
# wigner-tau
#
# Chosen for the per-translation Python loops (fourier_wigner, the
# Weyl-system sum and the general-tau kernel route) and for the only
# timed call of coupling's transform route; symbol_from_kernel never runs.

class WignerTau(Workload):
    name = "wigner-tau"
    salt = 3
    n, L = 24, 8.0
    coupling_cutoff = 0.85
    cubic = ([3, 0], [2, 1], [1, 2], [0, 3])

    def build_rig(self, tr):
        return _constant_field_rig(self, tr)

    def inputs(self, index: int) -> dict:
        rng = self.rng(index)

        def state():
            # the verify battery's packets: wider or farther-apart ones
            # reach the zero-filled edge of the translations and rebuild
            # |u><v| only to 1e-7..1e-4
            return {"center": rng.uniform(-0.6, 0.6, 2).tolist(),
                    "width": float(rng.uniform(0.55, 0.75)),
                    "momentum": rng.uniform(-1.0, 1.0, 2).tolist()}

        def gaussian():
            theta = rng.uniform(0.0, 2.0 * np.pi)
            return {"amplitude": [float(np.cos(theta)), float(np.sin(theta))],
                    "x_center": rng.uniform(-1.0, 1.0, 2).tolist(),
                    "p_center": rng.uniform(-0.5, 0.5, 2).tolist(),
                    "x_width": float(rng.uniform(0.9, 1.3)),
                    "p_width": float(rng.uniform(0.8, 1.1))}

        picks = rng.choice(len(self.cubic), size=2, replace=False)
        return {
            "u": state(), "v": state(),
            "f": [gaussian(), gaussian()],
            "tau": float(rng.uniform(0.2, 0.4)),
            "coupling": [[float(c), self.cubic[k]]
                         for c, k in zip(rng.uniform(0.5, 1.5, 2), picks)],
        }

    def _objects(self, rig, params):
        u = gr.gaussian_wavefunction(rig.grid, **params["u"])
        v = gr.gaussian_wavefunction(rig.grid, **params["v"])
        parts = []
        for spec in params["f"]:
            spec = dict(spec, amplitude=complex(*spec["amplitude"]))
            parts.append(gr.gaussian_symbol(self.dim, **spec))
        f = parts[0] + parts[1]
        fc = cp.PolynomialSymbol(self.dim, [(c, tuple(p)) for c, p in params["coupling"]])
        return u, v, f, fc.with_momentum_cutoff(self.coupling_cutoff)

    def run(self, rig, params, tr):
        u, v, f0, fc0 = self._objects(rig, params)
        f, fc = self.symbol(f0, tr), self.symbol(fc0, tr)
        A = self.potential(rig.A, tr)
        tau = params["tau"]
        with tr.span("wigner.fourier_wigner"):
            table = wg.fourier_wigner(u, v, A, rig.quad)
        with tr.span("wigner.rank_one_symbol"):
            rsym = wg.rank_one_symbol(u, v, A, rig.quad)
        with tr.span("quantize.op_quantize_table"):
            rank_one = qu.op_quantize(rsym, A, rig.grid, quad=rig.quad)
        with tr.span("quantize.op_quantize_tau"):
            k_tau = qu.op_quantize(f, A, rig.grid, qu.WeylParams(tau=tau), quad=rig.quad)
        with tr.span("quantize.op_quantize_tau"):
            k_dual = qu.op_quantize(f.conj(), A, rig.grid, qu.WeylParams(tau=1.0 - tau),
                                    quad=rig.quad)
        with tr.span("coupling.covariant_coupling"):
            coupled = cp.covariant_coupling(fc, A, rig.grid, rig.quad, "midpoint")
        with tr.span("quantize.op_quantize"):
            k_coupled = qu.op_quantize(coupled, None, rig.grid, quad=rig.quad)
        if tr.enabled:
            with tr.span("fields.phase_table", extra=True):
                gr.segment_phase_matrix(rig.A, rig.grid, rig.quad)
            with tr.span("grid.kernel_from_symbol", extra=True):
                gr.kernel_from_symbol(fc0, rig.A, rig.grid, rig.quad)
        return {"table": table, "rank_one": rank_one, "k_tau": k_tau, "k_dual": k_dual,
                "k_coupled": k_coupled}

    def check(self, rig, params, out):
        u, v, _, fc = self._objects(rig, params)
        uv = u.norm() * v.norm()
        target = wg.rank_one_kernel(u, v).kernel
        adj = out["k_tau"].kernel.conj().T
        magnetic = qu.op_quantize(fc, rig.A, rig.grid, quad=rig.quad).kernel
        return [
            ("wigner_isometry", abs(out["table"].l2_norm() - uv) / uv, 1e-6),
            ("rank_one_reconstruction", _rel(out["rank_one"].kernel, target), 1e-9),
            ("adjoint_identity", float(np.abs(adj - out["k_dual"].kernel).max()
                                       / np.abs(adj).max()), 1e-13),
            ("covariant_coupling_equivalence", _rel(out["k_coupled"].kernel, magnetic), 1e-5),
        ]


IN_PROCESS = {wl.name: wl for wl in (StarProduct, GaugeSpectrum, WignerTau)}
