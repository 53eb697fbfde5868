import ast
import importlib
import inspect
import tokenize
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from magweyl import csvformat as CF
from magweyl import fields as F
from magweyl import grid as G
from magweyl import symbols as S
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
    values = np.random.default_rng(3).standard_normal((CF._CSV_ROWS + 3, 2))
    values[::7] = 0.0
    values[::11, 1] = -0.0
    values[[5, 6, 8], [0, 1, 0]] = [np.nan, -np.inf, 1e-310]
    for columns in ([values[:, 0]], [values[:, 0], values[:, 1]]):
        CF._write_csv(tmp_path / "ours.csv", columns, "a header\nof two lines")
        np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), delimiter=",",
                   header="a header\nof two lines")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def percent_csv(table, header):
    """The CSV bytes of ``table`` by ``'%.18e' %`` of each value: the writer's oracle."""
    lines = ["# " + header.replace("\n", "\n# ")]
    lines += [",".join("%.18e" % x for x in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


def assert_writes_like_percent(path, values):
    # one column, then two (the values and their reversal); blocks of both widths
    for table in (values[:, None], np.column_stack([values, values[::-1]])):
        CF._write_csv(path, list(table.T), "sweep")
        assert path.read_bytes() == percent_csv(table, "sweep")


def test_csv_writer_matches_percent_format_on_hard_values(tmp_path):
    powers = 10.0 ** np.arange(-323, 309)
    tiny = np.finfo(float).tiny
    edges = np.array([1e-280, 1e280, tiny, np.finfo(float).max, 5e-324, 1e-310, tiny / 3,
                      0.0, -0.0, np.nan, np.inf, -np.inf])
    bits = np.random.default_rng(5).integers(0, 2**64, 10**5, dtype=np.uint64).view(float)
    values = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),  # ties in the 19th digit among them
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges[:2], 0.0), np.nextafter(edges[:2], np.inf),
        bits[np.isfinite(bits)],
    ])
    values = np.concatenate([values, -values])
    assert len(values) > 8 * CF._CSV_ROWS
    assert_writes_like_percent(tmp_path / "sweep.csv", values)
    # 2^-28 = 3.7252902984619140625e-09 exactly: the tie rounds to the even digit
    CF._write_csv(tmp_path / "tie.csv", [np.array([2.0**-28])], "tie")
    assert (tmp_path / "tie.csv").read_text().splitlines()[1] == "3.725290298461914062e-09"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_csv_writer_matches_percent_format_on_any_floats(tmp_path_factory, values):
    # the drawn floats repeated over one block of rows and on into the next
    values = np.resize(np.array(values), CF._CSV_ROWS + len(values))
    assert_writes_like_percent(tmp_path_factory.mktemp("csv") / "any.csv", values)


def test_csv_writer_memory_is_one_block(tmp_path, traced_peak):
    # four blocks of two columns peak within the working set of one: formatting a
    # whole table at once would hold every block's digits and bytes together
    values = np.random.default_rng(4).standard_normal((4 * CF._CSV_ROWS, 2))
    columns = [values[:, 0], values[:, 1]]
    CF._write_csv(tmp_path / "warm.csv", columns[:1], "warm-up")  # the lookup tables
    peak = traced_peak(lambda: CF._write_csv(tmp_path / "mem.csv", columns, "memory"))
    assert peak <= 320 * 2 * CF._CSV_ROWS  # 320 bytes per value of one block


def test_csv_output_has_one_writer():
    # every CSV byte of the package goes through csvformat._write_csv: outside it and its
    # formatter (csvformat.format_e18) no savetxt or tofile call and no %.18e literal
    # (docstrings aside)
    src = Path(__file__).resolve().parents[1] / "src" / "magweyl"
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner, docstrings = {}, set()
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                docstrings.add(body[0].value)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)  # the outermost function
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("savetxt", "tofile") or (
                    isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "%.18e" in node.value and node not in docstrings):
                found.add((path.name, owner.get(node, "<module>")))
    assert ("csvformat.py", "_write_csv") in found
    assert found <= {("csvformat.py", "_write_csv"), ("csvformat.py", "format_e18")}


def package_imports(path):
    """The ``magweyl`` modules one source file imports, by name, relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= ({node.module.split(".")[0]} if node.module
                      else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("magweyl"):
            names |= ({node.module.split(".")[1]} if "." in node.module
                      else {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("magweyl.")}
    return names


def test_symbols_sit_below_grid():
    # symbols.py imports no grid (so no import cycle), and grid re-exports exactly the
    # public names of symbols, each the same object
    src = Path(__file__).resolve().parents[1] / "src" / "magweyl"
    assert package_imports(src / "symbols.py") <= {"errors", "csvformat"}
    reexported = {a.name for node in ast.walk(ast.parse((src / "grid.py").read_text()))
                  if isinstance(node, ast.ImportFrom) and node.level and node.module == "symbols"
                  for a in node.names if not a.name.startswith("_")}
    assert reexported == set(S.__all__)
    for name in reexported:
        assert getattr(G, name) is getattr(S, name), name
        assert name in G.__all__, name


# CPython's parser doubles its token buffer past about 8,190 tokens per module, and a
# CLI child run with PYTHONDONTWRITEBYTECODE=1 compiles the package from source, so
# one module over the step raises the peak RSS of every such child: compiling grid.py
# plus filler lines peaked at 2.65 MiB (tracemalloc) at 8,190 tokens and at 3.08 MiB
# at 8,198.  Tokens are counted without comments, blank-line NLs, ENCODING and
# ENDMARKER; a docstring is one token.
_MODULE_TOKENS = 8190


def test_every_module_stays_under_the_parser_token_buffer():
    src = Path(__file__).resolve().parents[1] / "src" / "magweyl"
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
    counts = {}
    for path in sorted(src.glob("*.py")):
        with path.open("rb") as fh:
            counts[path.name] = sum(t.type not in skip for t in tokenize.tokenize(fh.readline))
    assert "grid.py" in counts
    assert {name: c for name, c in counts.items() if c >= _MODULE_TOKENS} == {}


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
