import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from magweyl import fields as F
from magweyl import grid as G
from magweyl import verify as V

QUAD = F.Quadrature(16)


def test_kernel_csv_export_roundtrip(tmp_path):
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    k = G.kernel_from_symbol(G.gaussian_symbol(1, x_width=0.8, p_width=0.8), None, g, QUAD)
    path = tmp_path / "kernel.csv"
    k.to_csv(path)
    data = np.loadtxt(path, delimiter=",")
    back = (data[:, 0] + 1j * data[:, 1]).reshape(g.size, g.size)
    assert np.abs(back - k.kernel).max() < 1e-12
    assert path.read_text().startswith("#")  # index-order header present


def test_symbol_csv_export_roundtrip(tmp_path):
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    tab = G.gaussian_symbol(1, x_width=0.8, p_width=0.8).sample(g, "midpoint")
    path = tmp_path / "symbol.csv"
    tab.to_csv(path)
    data = np.loadtxt(path, delimiter=",")
    back = (data[:, 0] + 1j * data[:, 1]).reshape(tab.values.shape)
    assert np.abs(back - tab.values).max() < 1e-12
    assert "midpoint" in path.read_text().splitlines()[0]


def test_csv_writer_matches_savetxt_byte_for_byte(tmp_path):
    # more rows than one formatted block, with signed zeros, non-finite and subnormal values
    values = np.random.default_rng(3).standard_normal((G._CSV_ROWS + 3, 2))
    values[::7] = 0.0
    values[::11, 1] = -0.0
    values[[5, 6, 8], [0, 1, 0]] = [np.nan, -np.inf, 1e-310]
    for columns in ([values[:, 0]], [values[:, 0], values[:, 1]]):
        G._write_csv(tmp_path / "ours.csv", columns, "a header\nof two lines")
        np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), delimiter=",",
                   header="a header\nof two lines")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# the calculus is dimension-generic up to the supported N = 3

def test_three_dimensional_smoke():
    rig = (G.PhaseSpaceGrid(3, 4, 3.0), None, [None], QUAD, np.random.default_rng(0))
    assert V.constant_symbol_identity(*rig) < V.TOLERANCES["constant_symbol_identity"]
    assert V.transform_structure(*rig)["transform_roundtrip"] < V.TOLERANCES["transform_roundtrip"]


def test_three_dimensional_symbol_roundtrip():
    g = G.PhaseSpaceGrid(3, 8, 4.0)
    f = G.gaussian_symbol(3, x_width=0.3, p_width=0.25)
    k = G.kernel_from_symbol(f, None, g, QUAD)
    rec = G.symbol_from_kernel(k, None, QUAD)
    expect = f.sample(g, "midpoint")
    assert np.abs(rec.inner_band() - expect.inner_band()).max() < 1e-8


def test_benchmark_layer_names_resolve():
    # perfbench/traced_cli.py wraps these public functions by name; read its
    # LAYERS table without importing the benchmark package
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    tree = ast.parse(path.read_text())
    node = next(stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    layers = ast.literal_eval(node)
    assert layers
    for module, name in layers:
        assert callable(getattr(importlib.import_module("magweyl." + module), name, None)), \
            (module, name)


def test_benchmark_constructor_keywords_bind():
    # perfbench/workloads.py rebuilds potentials, fields and symbols with these
    # constructors' keywords; read its calls from the AST and bind each one
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    ctors = {"SymbolEvaluator": G.SymbolEvaluator, "VectorPotential": F.VectorPotential,
             "MagneticField": F.MagneticField}
    seen = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ctors):
            seen.add(node.func.attr)
            inspect.signature(ctors[node.func.attr]).bind(
                *[None] * len(node.args), **{k.arg: None for k in node.keywords})
    assert seen == set(ctors)
