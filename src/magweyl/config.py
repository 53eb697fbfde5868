"""The ``magweyl-config/1`` format: one declared table of keys, and the builders that read it.

``RECORDS`` gives each key of each record its type, its default and, where
only some of the commands that read the record read it, those commands; the
keys under ``None`` belong to every ``kind``.  ``resolve_config`` checks a
configuration against it once and refuses a key its command does not read.
A range that also protects library callers (a width, a cutoff, the grid, the
quadrature order) is checked by a constructor; ``named`` adds the key.
"""

from __future__ import annotations

import json
import math
import numbers

from . import coupling as cp
from . import fields as fl
from . import symbols as sy
from .errors import InputError

SCHEMA = "magweyl-config/1"
REQUIRED = "required"  # the default of a key that must be given
DIM = 2  # the grid's dimension by default

# scalar type: (Python type, range of a value v on a grid of dimension d or None, what v must be)
_SCALARS = {
    "int": (int, None, "an integer"),
    "seed": (int, lambda v, d: v >= 0, "an integer >= 0"),
    "points": (int, lambda v, d: v >= 1, "an integer >= 1"),
    "count": (int, lambda v, d: 1 <= v <= d + 1, "an integer from 1 to dim + 1 = {1}"),
    "dim": (int, lambda v, d: d is None or v == d, "grid.dim = {0}"),
    "number": (float, None, "a number"),
    "finite": (float, lambda v, d: math.isfinite(v), "a finite number"),
    "positive": (float, lambda v, d: math.isfinite(v) and v > 0, "a finite number > 0"),
    "bool": (bool, None, "true or false"),
    "kind": (str, None, "a string"),
    "schema": (str, lambda v, d: v == SCHEMA, repr(SCHEMA)),
}
# list type: the type of its items
_LISTS = {"gauges": "potential", "terms": "term", "components": "terms", "powers": "int",
          "vector": "finite", "matrix": "vector"}

_DIM = ("dim", None)  # grid.dim when unset
_B = ("number", 1.0)  # strength of the constant field and of its planar gauges
_CUTOFF = ("number", 30.0)  # momentum cutoff of a kinetic symbol and of a momentum polynomial
_KIND = ("kind", REQUIRED)
_SPECTRAL = ("spectrum", "moyal")  # the commands that quantize a symbol, not just a polynomial
# record type: {kind: {key: (type, default[, the commands that read it])}}
RECORDS = {
    "config": {None: {
        "schema": ("schema", SCHEMA),
        "grid": ("grid", {}),
        "field": ("field", {"kind": "constant", "dim": DIM}),
        "gauges": ("gauges", [{"kind": "symmetric"}, {"kind": "landau"}]),
        "quadrature_order": ("int", 16),
        "seed": ("seed", 20250808),
        "tolerance_scale": ("positive", 1.0),
        "symbol": ("symbol", REQUIRED, ("spectrum", "compare-coupling")),
        "symbol_f": ("symbol", REQUIRED, ("moyal",)),
        "symbol_g": ("symbol", REQUIRED, ("moyal",)),
        "probes": ("probes", {}, ("moyal",)),
        # a symbol cut off in momentum is quantized unmasked, the periodized spectral operator
        "mask": ("bool", lambda d, out: out["symbol"]["kind"] in ("constant", "gaussian"),
                 ("spectrum",))}},
    "grid": {None: {"dim": ("int", DIM), "n": ("int", 16), "L": ("number", 6.0)}},
    "probes": {None: {"count": ("count", lambda d, out: min(3, d + 1)),
                      "points_per_axis": ("points", 12), "halfwidth": ("positive", 4.0)}},
    "term": {None: {"coeff": ("finite", 1.0), "powers": ("powers", REQUIRED)}},
    "field": {
        None: {"kind": _KIND, "dim": _DIM},
        "zero": {},
        "constant": {"b": _B, "matrix": ("matrix", None)},
        "linear": {"b0": ("finite", 0.0), "gradient": ("vector", [0.0, 0.0])},
        "polynomial": {"terms": ("terms", REQUIRED)},
        "gaussian": {"amplitude": ("number", 1.0), "width": ("number", 2.0),
                     "center": ("vector", [0.0, 0.0])}},
    "potential": {
        None: {"kind": _KIND, "dim": _DIM},
        "zero": {},
        "constant": {"values": ("vector", REQUIRED)},
        "linear": {"matrix": ("matrix", REQUIRED)},
        "polynomial": {"components": ("components", REQUIRED)},
        "symmetric": {"b": _B},
        "landau": {"b": _B},
        "transversal": {"of_field": ("field", None, ())}},  # the command line gives the field
    "symbol": {
        None: {"kind": _KIND},
        "constant": {"kind": _KIND + (_SPECTRAL,), "value": ("finite", 1.0)},
        "gaussian": {"kind": _KIND + (_SPECTRAL,), "x_center": ("vector", None),
                     "p_center": ("vector", None), "x_width": ("number", 1.0),
                     "p_width": ("number", 1.0), "amplitude": ("number", 1.0)},
        "kinetic": {"kind": _KIND + (_SPECTRAL,), "cutoff": _CUTOFF},
        "momentum_polynomial": {"terms": ("terms", REQUIRED),
                                "cutoff": _CUTOFF + (_SPECTRAL,)}},
}


def _error(path: str, text: str) -> InputError:
    """An InputError about the value at ``path``, led by its top-level key in quotes."""
    top = path.split(".")[0].split("[")[0]
    return InputError("%r %s" % (top, text) if path == top else "%r: %s %s" % (top, path, text))


def _check(value, typ: str, path: str, d, command):
    """``value`` of type ``typ`` at ``path``, checked; its records get their defaults."""
    if typ in RECORDS:
        return _record(value, typ, path, d, command)
    if typ in _LISTS:
        if not isinstance(value, list) or (typ == "gauges" and not value):
            raise _error(path, "must be a %slist, got %r" % ("non-empty " * (typ == "gauges"),
                                                             value))
        out = [_check(v, _LISTS[typ], "%s[%d]" % (path, i), d, command)
               for i, v in enumerate(value)]
        if typ == "matrix" and len({len(row) for row in out}) > 1:
            raise _error(path, "must have rows of one length, got %r" % (value,))
        return out
    base, test, what = _SCALARS[typ]
    ok = (isinstance(value, base) if base in (bool, str) else  # an integer may be written 2.0
          isinstance(value, numbers.Real) and not isinstance(value, bool)
          and (base is float or isinstance(value, numbers.Integral) or value.is_integer()))
    if not ok or (test and not test(base(value), d)):
        what = what.format(d, None if d is None else d + 1)
        raise _error(path, "must be %s, got %r" % (what, value))
    return base(value)


def _record(value, typ: str, path: str, d, command):
    """A record checked against ``RECORDS[typ]``: every key, None where unset or not read.

    ``command`` None reads every key (a library call).  The keys after ``grid``
    are checked on its dimension; a term record becomes ``(coeff, powers)``.
    """
    if not isinstance(value, dict):
        raise _error(path, "must be an object, got %r" % (value,))
    kinds, kind = RECORDS[typ], value.get("kind")
    keys = dict(kinds[None])
    if len(kinds) > 1:
        if not isinstance(kind, str) or kind not in kinds:
            raise _error(path, "has unknown %s kind %r" % (typ, kind))
        keys.update(kinds[kind])
    extra = [key for key in value if key not in keys]
    if extra:
        raise _error(path + "." * bool(path) + extra[0], "is not read by %s"
                     % (command or "any command"))
    out = {}
    for key, (ktyp, default, *commands) in keys.items():
        where = path + "." * bool(path) + key
        read = command is None or not commands or command in commands[0]
        if key in value and not read:
            raise (_error(path, "of kind %r is not read by %s" % (kind, command)) if key == "kind"
                   else _error(where, "is not read by %s" % command))
        if key in value:
            out[key] = _check(value[key], ktyp, where, d, command)
        elif not read:
            out[key] = None
        elif default is REQUIRED:
            raise _error(where, "is required")
        else:
            default = default(d, out) if callable(default) else default
            out[key] = None if default is None else _check(default, ktyp, where, d, command)
        if key == "grid":
            d = out[key]["dim"]
    return (out["coeff"], tuple(out["powers"])) if typ == "term" else out


def _shown(value):
    """A checked value as a report echoes it: without its unset keys."""
    if isinstance(value, dict):
        return {k: _shown(v) for k, v in value.items() if v is not None}
    return [_shown(v) for v in value] if isinstance(value, list) else value


def resolve_config(path: str, command: str, seed=None, tolerance_scale=None):
    """``(shown, values)``: the configuration file as reports echo it, and its checked values.

    ``seed`` and ``tolerance_scale`` override the file's.  ``shown`` keeps what
    the file gives as given, with the defaults of the keys every command reads.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            given = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read configuration %s: %s" % (path, exc)) from exc
    if not isinstance(given, dict):
        raise InputError("configuration must be a JSON object")
    given.update((k, v) for k, v in (("seed", seed), ("tolerance_scale", tolerance_scale))
                 if v is not None)
    values = _record(given, "config", "", None, command)
    shown = {key: given[key] if key in given else _shown(values[key])
             for key, spec in RECORDS["config"][None].items() if key in given or len(spec) == 2}
    return shown, values


def named(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, an InputError it raises prefixed with the config ``key``."""
    try:
        return build(*args, **kwargs)
    except InputError as exc:
        raise type(exc)("%r: %s" % (key, exc)) from exc


_BUILDERS = {  # kind: the field, potential or symbol of a checked record r in dim dimensions
    "field": {
        "zero": lambda r, dim: fl.zero_field(dim),
        "constant": lambda r, dim: (fl.constant_field_2d(r["b"]) if r["matrix"] is None
                                    else fl.constant_field(dim, r["matrix"])),
        "linear": lambda r, dim: fl.linear_field_2d(r["b0"], r["gradient"]),
        "polynomial": lambda r, dim: fl.polynomial_field_2d(r["terms"]),
        "gaussian": lambda r, dim: fl.gaussian_field_2d(r["amplitude"], r["width"],
                                                        r["center"])},
    "potential": {  # a transversal one is the gauge of the field B
        "zero": lambda r, dim, B, quad: fl.zero_potential(dim),
        "constant": lambda r, dim, B, quad: fl.constant_potential(r["values"]),
        "linear": lambda r, dim, B, quad: fl.linear_potential(r["matrix"]),
        "polynomial": lambda r, dim, B, quad: fl.polynomial_potential(dim, r["components"]),
        "symmetric": lambda r, dim, B, quad: fl.symmetric_gauge(r["b"]),
        "landau": lambda r, dim, B, quad: fl.landau_gauge(r["b"]),
        "transversal": lambda r, dim, B, quad: fl.transversal_gauge(B, quad)},
    "symbol": {
        "constant": lambda r, dim: sy.constant_symbol(dim, r["value"]),
        "gaussian": lambda r, dim: sy.gaussian_symbol(dim, r["x_center"], r["p_center"],
                                                      r["x_width"], r["p_width"], r["amplitude"]),
        "kinetic": lambda r, dim: cp.PolynomialSymbol(dim, [  # |p|^2
            (1.0, tuple(2 if j == a else 0 for j in range(dim))) for a in range(dim)
        ]).with_momentum_cutoff(r["cutoff"]),
        "momentum_polynomial": lambda r, dim: (
            cp.PolynomialSymbol(dim, r["terms"]).with_momentum_cutoff(r["cutoff"]))},
}


def build(typ: str, rec: dict, dim: int, *args):
    """The field, symbol or potential (args ``B, quad``) of a checked record of type ``typ``."""
    out = _BUILDERS[typ][rec["kind"]](rec, dim, *args)
    if out.dim != dim:  # a planar kind on another grid, or values of another length
        raise InputError("kind %r has dim %d, not %d" % (rec["kind"], out.dim, dim))
    return out


def _own_dim(rec: dict) -> int:
    """The dimension of a record read without a grid: its own ``dim``, else the grid's default."""
    return DIM if rec["dim"] is None else rec["dim"]


def field_from_config(cfg: dict) -> fl.MagneticField:
    """Build a field preset from a config record ``{kind, dim, ...}`` (see ``RECORDS``)."""
    rec = _record(cfg, "field", "field", None, None)
    return build("field", rec, _own_dim(rec))


def potential_from_config(cfg: dict, field: fl.MagneticField | None = None,
                          quad: fl.Quadrature = fl.DEFAULT_QUADRATURE) -> fl.VectorPotential:
    """Build a potential preset from a config record; ``transversal`` is ``field``'s gauge,
    or else that of the record's ``of_field``."""
    rec = _record(cfg, "potential", "potential", None, None)
    if rec["kind"] == "transversal" and field is None:
        if rec["of_field"] is None:
            raise InputError("a transversal gauge needs a field or an 'of_field' record")
        field = build("field", rec["of_field"], _own_dim(rec["of_field"]))
    return build("potential", rec, _own_dim(rec), field, quad)
