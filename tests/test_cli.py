import contextlib
import io
import json
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magweyl import cli, config, verify

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {"verify": "verify_default.json", "spectrum": "spectrum_landau.json",
           "moyal": "moyal_gaussians.json", "compare-coupling": "coupling_cubic.json"}


def write_config(path, **overrides):
    cfg = {
        "schema": "magweyl-config/1",
        "grid": {"dim": 2, "n": 8, "L": 5.0},
        "field": {"kind": "constant", "dim": 2, "b": 1.0},
        "gauges": [{"kind": "symmetric", "b": 1.0}, {"kind": "landau", "b": 1.0}],
        "quadrature_order": 16,
        "seed": 7,
        "tolerance_scale": 1.0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg


def test_verify_default_config_passes(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile, grid={"dim": 2, "n": 16, "L": 6.0})
    rc = cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_passed"]
    # a dim-2 rig with two gauges runs every registry item, in registry order
    assert [i["name"] for i in report["items"]] == list(verify.TOLERANCES)
    assert len(verify.TOLERANCES) == 14
    # constant field, two linear gauges: one Gauss node for every integral
    assert report["gauss_orders"] == {"requested": 16, "circulation": [1, 1],
                                       "circulation_panels": [1, 1], "flux": 1}


def test_verify_is_deterministic(tmp_path):
    # byte-identical reports for identical configuration and seed (the small
    # rig keeps this quick; pass/fail state must also be reproducible)
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile)
    rc1 = cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "a")])
    rc2 = cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "b")])
    assert rc1 == rc2
    ra = (tmp_path / "a" / "verify_report.json").read_bytes()
    rb = (tmp_path / "b" / "verify_report.json").read_bytes()
    assert ra == rb


def test_seed_option_overrides_the_config_seed(tmp_path):
    # `--seed 7` on a config seeded 11 writes the report of a config seeded 7
    rc = {}
    for name, seed, argv in (("given", 7, []), ("other", 11, []), ("override", 11, ["--seed", "7"])):
        write_config(tmp_path / (name + ".json"), seed=seed)
        rc[name] = cli.main(["verify", "--config", str(tmp_path / (name + ".json")),
                             "--out", str(tmp_path / name)] + argv)
    read = lambda name: (tmp_path / name / "verify_report.json").read_bytes()
    assert rc["override"] == rc["given"]
    assert read("override") == read("given")
    assert read("other") != read("given")  # the seed reaches the battery's samples


def test_verify_gauge_mismatch_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile, gauges=[{"kind": "symmetric", "b": 0.5}])
    rc = cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "gauge" in capsys.readouterr().err


def test_config_parse_error_exits_2(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["verify", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    odd = tmp_path / "odd.json"
    write_config(odd, grid={"dim": 2, "n": 7, "L": 5.0})
    assert cli.main(["verify", "--config", str(odd), "--out", str(tmp_path / "o")]) == 2
    # malformed values exit 2 with the offending key named, not with a traceback
    for command, key, overrides in [
            ("verify", "grid", {"grid": {"n": "abc"}}),
            ("verify", "grid", {"grid": {"dim": "two"}}),
            ("verify", "grid", {"grid": [1, 2]}),
            ("verify", "quadrature_order", {"quadrature_order": "x"}),
            ("verify", "tolerance_scale", {"tolerance_scale": "x"}),
            ("verify", "seed", {"seed": "abc"}),
            ("verify", "field", {"field": {"kind": "polynomial", "dim": 2}}),
            ("verify", "gauges", {"gauges": []}),
            ("verify", "gauges", {"gauges": None}),
            ("compare-coupling", "symbol", {"symbol": {"kind": "momentum_polynomial"}}),
            ("spectrum", "symbol", {"symbol": {"kind": "gaussian", "x_width": "a"}}),
            ("spectrum", "x_center", {"symbol": {"kind": "gaussian",
                                                 "x_center": [0.1, 0.2, 0.3]}}),
            ("spectrum", "p_center", {"symbol": {"kind": "gaussian", "p_center": [0.1]}}),
            ("spectrum", "mask", {"symbol": {"kind": "gaussian"}, "mask": "false"}),
            ("spectrum", "mask", {"symbol": {"kind": "gaussian"}, "mask": 0}),
            ("verify", "grid", {"grid": {"dim": 2, "n": 8.5, "L": 5.0}}),
            ("verify", "grid", {"grid": {"dim": 1.5, "n": 8, "L": 5.0}}),
            ("verify", "quadrature_order", {"quadrature_order": 16.5}),
            ("verify", "seed", {"seed": 7.25}),
            ("moyal", "probes", {"symbol_f": {"kind": "gaussian"}, "symbol_g": {"kind": "gaussian"},
                                 "probes": {"count": 2.5}}),
            ("moyal", "probes", {"symbol_f": {"kind": "gaussian"}, "symbol_g": {"kind": "gaussian"},
                                 "probes": {"points_per_axis": 12.5}})]:
        write_config(odd, **overrides)
        capsys.readouterr()
        assert cli.main([command, "--config", str(odd), "--out", str(tmp_path / "o")]) == 2
        assert "'%s'" % key in capsys.readouterr().err, overrides
    # an error raised by the numerics is not relabelled as a configuration error
    write_config(odd)
    monkeypatch.setattr(cli, "run_battery", lambda *args, **kwargs: {}["numerics"])
    with pytest.raises(KeyError):
        cli.main(["verify", "--config", str(odd), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_numbers_exit_2(tmp_path, capsys, bad):
    # NaN passes a bare `<= 0` check; JSON's NaN and Infinity reach the config as floats
    cfgfile = tmp_path / "cfg.json"
    kinetic = {"kind": "kinetic", "cutoff": 5.0}
    for command, overrides, message in [
            ("verify", {"grid": {"dim": 2, "n": 8, "L": bad}}, "half-width"),
            ("spectrum", {"grid": {"dim": 2, "n": 8, "L": bad}, "symbol": kinetic}, "half-width"),
            ("verify", {"tolerance_scale": bad}, "'tolerance_scale'"),
            ("spectrum", {"tolerance_scale": bad, "symbol": kinetic}, "'tolerance_scale'")]:
        write_config(cfgfile, **overrides)
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err, (command, overrides)
    # a tolerance scale that is not positive fails every item: refused as well
    for scale in (0.0, -1.0):
        write_config(cfgfile, tolerance_scale=scale)
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    write_config(cfgfile)
    assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                     "--tolerance-scale", str(bad)]) == 2



def test_report_echoes_the_defaults_every_command_reads(tmp_path):
    # the keys every command reads get their defaults; a given record stays as given
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"n": 8}, "seed": 7}), encoding="utf-8")
    assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) in (0, 1)
    assert json.loads((tmp_path / "o" / "verify_report.json").read_text())["config"] == {
        "schema": "magweyl-config/1", "grid": {"n": 8},
        "field": {"kind": "constant", "dim": 2, "b": 1.0},
        "gauges": [{"kind": "symmetric", "b": 1.0}, {"kind": "landau", "b": 1.0}],
        "quadrature_order": 16, "seed": 7, "tolerance_scale": 1.0}

def test_spectrum_free_particle_nonnegative(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile,
                 grid={"dim": 1, "n": 16, "L": 6.0},
                 field={"kind": "zero", "dim": 1},
                 gauges=[{"kind": "zero", "dim": 1}],
                 symbol={"kind": "kinetic", "cutoff": 30.0})
    rc = cli.main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    evs = np.array(data["eigenvalues"])
    assert np.all(np.diff(evs) >= -1e-12)
    assert evs[0] > -1e-8


def test_spectrum_gauge_swap_invariance(tmp_path):
    base = {"grid": {"dim": 2, "n": 8, "L": 5.0},
            "symbol": {"kind": "kinetic", "cutoff": 30.0}}
    cfg1 = tmp_path / "c1.json"
    write_config(cfg1, **base)
    cfg2 = tmp_path / "c2.json"
    write_config(cfg2, gauges=[{"kind": "landau", "b": 1.0}], **base)
    assert cli.main(["spectrum", "--config", str(cfg1), "--out", str(tmp_path / "o1")]) == 0
    assert cli.main(["spectrum", "--config", str(cfg2), "--out", str(tmp_path / "o2")]) == 0
    e1 = np.array(json.loads((tmp_path / "o1" / "spectrum.json").read_text())["eigenvalues"])
    e2 = np.array(json.loads((tmp_path / "o2" / "spectrum.json").read_text())["eigenvalues"])
    assert verify.spectrum_error(e1, e2) < verify.TOLERANCES["gauge_spectrum_agreement"]


@pytest.mark.parametrize("cutoff", [None, 4.0])
def test_spectrum_of_a_momentum_polynomial_is_the_kinetic_spectrum(tmp_path, cutoff):
    # p1^2 + p2^2 as a momentum polynomial, given no cutoff or one, quantizes to the
    # kinetic symbol at the same cutoff (its default when none is given)
    extra = {} if cutoff is None else {"cutoff": cutoff}
    terms = [{"coeff": 1.0, "powers": [2, 0]}, {"powers": [0, 2]}]
    out = {}
    for name, symbol in (("kinetic", {"kind": "kinetic"}),
                         ("polynomial", {"kind": "momentum_polynomial", "terms": terms})):
        write_config(tmp_path / (name + ".json"), symbol=dict(symbol, **extra))
        assert cli.main(["spectrum", "--config", str(tmp_path / (name + ".json")),
                         "--out", str(tmp_path / name)]) == 0
        out[name] = (json.loads((tmp_path / name / "spectrum.json").read_text())["eigenvalues"],
                     (tmp_path / name / "spectrum.csv").read_bytes())
    assert out["polynomial"] == out["kinetic"]


def test_spectrum_of_an_unknown_symbol_kind_exits_2(tmp_path, capsys):
    write_config(tmp_path / "cfg.json", symbol={"kind": "quartic"})
    assert cli.main(["spectrum", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 2
    assert "unknown symbol kind 'quartic'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "spectrum.json").exists()


def test_moyal_of_a_momentum_polynomial_without_cutoff_runs(tmp_path):
    # the cutoff a momentum polynomial is given by default holds for every command
    poly = {"kind": "momentum_polynomial", "terms": [{"coeff": 1.0, "powers": [2, 0]}]}
    write_config(tmp_path / "cfg.json", symbol_f=poly,
                 symbol_g={"kind": "gaussian", "x_width": 1.1, "p_width": 0.9})
    rc = cli.main(["moyal", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc in (0, 1)
    assert (tmp_path / "out" / "product.csv").exists()
    assert len(json.loads((tmp_path / "out" / "moyal_report.json").read_text())["probes"]) == 3


def test_moyal_unit_and_report(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile,
                 grid={"dim": 1, "n": 32, "L": 8.0},
                 field={"kind": "zero", "dim": 1},
                 gauges=[{"kind": "zero", "dim": 1}],
                 symbol_f={"kind": "gaussian", "x_width": 0.8, "p_width": 0.8},
                 symbol_g={"kind": "gaussian", "x_width": 0.8, "p_width": 0.8,
                           "x_center": [0.3]},
                 probes={"count": 2, "points_per_axis": 16, "halfwidth": 4.0})
    rc = cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "moyal_report.json").read_text())
    assert len(report["probes"]) == 2
    assert all(p["abs_diff"] < 1e-3 for p in report["probes"])
    assert report["tolerance"] == cli.MOYAL_PROBE_TOLERANCE and report["passed"]
    assert (tmp_path / "out" / "product.csv").exists()


def test_moyal_gauge_independence_across_runs(tmp_path):
    # two potentials of the same constant field produce the same product table;
    # the 8-point probes are too coarse for the default 1e-3 probe gate (they
    # miss by ~0.1), so the runs widen it with the tolerance scale
    base = dict(
        grid={"dim": 2, "n": 8, "L": 5.0},
        symbol_f={"kind": "gaussian", "x_width": 0.9, "p_width": 0.9},
        symbol_g={"kind": "gaussian", "x_center": [0.2, -0.1], "x_width": 0.8,
                  "p_width": 0.9},
        probes={"count": 1, "points_per_axis": 8, "halfwidth": 4.0})
    c1 = tmp_path / "c1.json"
    write_config(c1, gauges=[{"kind": "symmetric", "b": 1.0}], **base)
    c2 = tmp_path / "c2.json"
    write_config(c2, gauges=[{"kind": "landau", "b": 1.0}], **base)
    wide = ["--tolerance-scale", "200"]
    assert cli.main(["moyal", "--config", str(c1), "--out", str(tmp_path / "o1")] + wide) == 0
    assert cli.main(["moyal", "--config", str(c2), "--out", str(tmp_path / "o2")] + wide) == 0
    p1 = np.loadtxt(tmp_path / "o1" / "product.csv", delimiter=",")
    p2 = np.loadtxt(tmp_path / "o2" / "product.csv", delimiter=",")
    assert np.abs(p1 - p2).max() < 1e-8


def test_moyal_with_constant_unit_symbol(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile,
                 grid={"dim": 1, "n": 32, "L": 8.0},
                 field={"kind": "zero", "dim": 1},
                 gauges=[{"kind": "zero", "dim": 1}],
                 symbol_f={"kind": "gaussian", "x_width": 0.5, "p_width": 0.42},
                 symbol_g={"kind": "constant", "value": 1.0},
                 probes={"count": 1, "points_per_axis": 12, "halfwidth": 4.0})
    # the direct probe cannot integrate a constant symbol over its finite
    # box (it misses by ~0.76), so the run widens the probe gate
    rc = cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "out"),
                   "--tolerance-scale", "1000"])
    assert rc == 0
    # product of f with the unit equals f at the probe point
    report = json.loads((tmp_path / "out" / "moyal_report.json").read_text())
    probe = report["probes"][0]
    assert abs(probe["kernel_route"][0] - 1.0) < 1e-6  # f(0, 0) = 1


def test_moyal_probe_disagreement_exits_1(tmp_path, capsys):
    # the shipped star-product config with 4-point probes over a too-small
    # box: the worst probe misses the kernel route by ~0.23
    cfg = json.loads((CONFIGS / "moyal_gaussians.json").read_text())
    cfg["probes"] = {"count": 3, "points_per_axis": 4, "halfwidth": 1.0}
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg), encoding="utf-8")
    rc = cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "moyal_report.json").read_text())
    assert report["tolerance"] == cli.MOYAL_PROBE_TOLERANCE and not report["passed"]
    assert max(p["abs_diff"] for p in report["probes"]) > 0.2
    assert "FAIL" in capsys.readouterr().out
    # the tolerance scale multiplies the probe gate like every other tolerance
    rc = cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "wide"),
                   "--tolerance-scale", "1000"])
    assert rc == 0
    assert json.loads((tmp_path / "wide" / "moyal_report.json").read_text())["passed"]


def test_moyal_probe_over_size_cap_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile,
                 symbol_f={"kind": "gaussian", "x_width": 0.9, "p_width": 0.9},
                 symbol_g={"kind": "gaussian", "x_width": 0.8, "p_width": 0.9},
                 probes={"count": 1, "points_per_axis": 40, "halfwidth": 4.0})
    rc = cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the cap" in err


@pytest.mark.parametrize("count", [0, 5])
def test_moyal_probe_count_out_of_range_exits_2(tmp_path, capsys, count):
    # the shipped 2-D config has dim + 1 = 3 probe points; other counts are
    # refused before the product is computed
    cfg = json.loads((CONFIGS / "moyal_gaussians.json").read_text())
    cfg["probes"]["count"] = count
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg), encoding="utf-8")
    rc = cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "probes.count" in capsys.readouterr().err
    assert not (tmp_path / "out" / "product.csv").exists()


@pytest.mark.parametrize("setting,value", [
    ("points_per_axis", 0), ("points_per_axis", -4), ("halfwidth", 0), ("halfwidth", -2),
    ("halfwidth", float("nan"))])
def test_moyal_bad_probe_lattice_exits_2(tmp_path, capsys, setting, value):
    # an empty probe lattice or a non-positive or NaN half-width is refused
    # before the product is computed, like a bad probe count
    cfg = json.loads((CONFIGS / "moyal_gaussians.json").read_text())
    cfg["probes"].update({"count": 1, setting: value})
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg), encoding="utf-8")
    rc = cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "probes.%s" % setting in capsys.readouterr().err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("terms,gauges,expected", [
    # degree-2 symbol, quadratic potential: couplings agree
    ([{"coeff": 1.0, "powers": [2, 0]}],
     [{"kind": "polynomial", "dim": 2,
       "components": [[], [{"coeff": 1.0, "powers": [2, 0]}]]}], "equal"),
    # degree-3 symbol, quadratic potential: they differ
    ([{"coeff": 1.0, "powers": [2, 1]}],
     [{"kind": "polynomial", "dim": 2,
       "components": [[], [{"coeff": 1.0, "powers": [2, 0]}]]}], "differ"),
    # degree-3 symbol, linear potential: they agree
    ([{"coeff": 1.0, "powers": [2, 1]}],
     [{"kind": "symmetric", "b": 1.0}], "equal"),
])
def test_compare_coupling_verdicts(tmp_path, terms, gauges, expected):
    cfgfile = tmp_path / "cfg.json"
    # the quadratic preset (0, x1^2) generates the linear field B_12 = 2 x1
    field = ({"kind": "linear", "dim": 2, "b0": 0.0, "gradient": [2.0, 0.0]}
             if gauges[0]["kind"] == "polynomial"
             else {"kind": "constant", "dim": 2, "b": 1.0})
    write_config(cfgfile, field=field, gauges=gauges,
                 symbol={"kind": "momentum_polynomial", "terms": terms})
    rc = cli.main(["compare-coupling", "--config", str(cfgfile),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "coupling_report.json").read_text())
    assert report["verdict"] == expected
    assert report["passed"]


def test_compare_coupling_high_degree_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile, symbol={"kind": "momentum_polynomial",
                                  "terms": [{"coeff": 1.0, "powers": [4, 0]}]})
    rc = cli.main(["compare-coupling", "--config", str(cfgfile),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    # the refusal names the key that holds the symbol, as every config refusal does
    assert "'symbol'" in capsys.readouterr().err


@pytest.mark.parametrize("command, report, overrides, orders", [
    # quadratic potential of the linear field; the cap applies
    ("compare-coupling", "coupling_report.json",
     {"quadrature_order": 12,
      "field": {"kind": "linear", "dim": 2, "b0": 0.0, "gradient": [2.0, 0.0]},
      "gauges": [{"kind": "polynomial", "dim": 2,
                  "components": [[], [{"coeff": 1.0, "powers": [2, 0]}]]}],
      "symbol": {"kind": "momentum_polynomial", "terms": [{"coeff": 1.0, "powers": [2, 0]}]}},
     {"requested": 12, "circulation": [2], "circulation_panels": [1], "flux": 2}),
    # a Gaussian field has no degree: it and its transversal gauge keep the requested
    # order; the gauge's closed form applies it on both halves of each segment
    ("spectrum", "spectrum.json",
     {"grid": {"dim": 2, "n": 4, "L": 3.0},
      "field": {"kind": "gaussian", "dim": 2, "amplitude": 1.0, "width": 1.6},
      "gauges": [{"kind": "transversal"}], "symbol": {"kind": "kinetic"}},
     {"requested": 16, "circulation": [16], "circulation_panels": [2], "flux": 16}),
])
def test_reports_record_gauss_orders(tmp_path, command, report, overrides, orders):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile, **overrides)
    assert cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / report).read_text())["gauss_orders"] == orders


def test_moyal_default_probe_count_fits_a_1d_grid(tmp_path):
    # without `probes`, a 1-D run takes min(3, dim + 1) = 2 probe points
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile,
                 grid={"dim": 1, "n": 32, "L": 8.0},
                 field={"kind": "zero", "dim": 1},
                 gauges=[{"kind": "zero", "dim": 1}],
                 symbol_f={"kind": "gaussian", "x_width": 0.8, "p_width": 0.8},
                 symbol_g={"kind": "gaussian", "x_width": 0.8, "p_width": 0.8,
                           "x_center": [0.3]})
    assert cli.main(["moyal", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) != 2
    report = json.loads((tmp_path / "out" / "moyal_report.json").read_text())
    assert len(report["probes"]) == 2 and "probes" not in report["config"]


def shipped(command, edit=None):
    cfg = json.loads((CONFIGS / SHIPPED[command]).read_text())
    if edit:
        edit(cfg)
    return cfg


@pytest.mark.parametrize("command, edit, argv, key", [
    ("verify", lambda c: c.update(seed=-1), [], "'seed'"),
    ("moyal", lambda c: c.update(seed=-1), [], "'seed'"),
    ("verify", None, ["--seed", "-1"], "'seed'"),
    ("moyal", lambda c: c["symbol_f"].update(amplitude="a"), [], "amplitude"),
    ("moyal", lambda c: c["symbol_f"].update(x_width=0), [], "x_width"),
    ("spectrum", lambda c: c["symbol"].update(cutoff=0), [], "cutoff"),
    ("spectrum", lambda c: c["symbol"].update(cutoff=-5), [], "cutoff"),
    ("spectrum", lambda c: c["symbol"].update(cutoff=float("inf")), [], "cutoff"),
    ("moyal", lambda c: c["symbol_f"].update(p_width=-1), [], "p_width"),
    ("verify", lambda c: c.update(quadrature_ordr=4), [], "'quadrature_ordr'"),
    ("verify", lambda c: c["grid"].update(nn=99), [], "grid.nn"),
    ("moyal", lambda c: c.update(mask=True), [], "'mask'"),
    ("verify", lambda c: c.update(quadrature_order=True), [], "'quadrature_order'"),
    ("moyal", lambda c: c["probes"].update(count=True), [], "probes.count"),
    ("compare-coupling", lambda c: c["symbol"].update(cutoff=30.0), [], "symbol.cutoff"),
    ("compare-coupling", lambda c: c.update(symbol={"kind": "kinetic"}), [], "'kinetic'"),
    ("verify", lambda c: c["gauges"][0].update(of_field={"kind": "constant"}), [],
     "gauges[0].of_field"),
    ("verify", lambda c: c["field"].update(dim=3), [], "field.dim"),
    ("spectrum", lambda c: c["gauges"][0].update(dim=1), [], "gauges[0].dim"),
])
def test_refused_values_exit_2_and_name_their_key(tmp_path, capsys, command, edit, argv, key):
    # each was accepted, or ended in a traceback, before the config schema was declared
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(shipped(command, edit)), encoding="utf-8")
    rc = cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")] + argv)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("configuration error:") and err.count("\n") == 1, err
    assert key in err, err
    assert not any((tmp_path / "out").glob("*"))


MISSING, EXTRA = "<missing>", "<extra key>"
MUTATIONS = ["x", float("nan"), float("inf"), -float("inf"), 0, -1, True, MISSING, EXTRA]


def places(value, path=()):
    """The path of every entry of a configuration tree, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from places(item, path + (key,))


def dotted(path) -> str:
    return "".join("[%d]" % k if isinstance(k, int) else "." + k for k in path).lstrip(".")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_value_mutations_of_the_shipped_configs(tmp_path_factory, data):
    # a shipped config with one value replaced by a wrong type, NaN, +-inf, 0, a negative,
    # a bool, or removed, or with a key added: the run exits 0, 1 or 2 without a
    # traceback, and an exit 2 names the key (the grid is never enlarged)
    command = data.draw(st.sampled_from(sorted(SHIPPED)))
    cfg = shipped(command)
    path = data.draw(st.sampled_from(list(places(cfg))))
    mutation = data.draw(st.sampled_from(MUTATIONS if path else [EXTRA]))
    parent = reduce(lambda node, k: node[k], path[:-1], cfg)
    target = reduce(lambda node, k: node[k], path, cfg)
    if mutation == EXTRA:
        if not isinstance(target, dict):
            return
        target["unread_key"] = 1
        path = path + ("unread_key",)
    elif mutation == MISSING:
        del parent[path[-1]]
    else:
        negated = mutation == -1 and isinstance(target, float)
        parent[path[-1]] = -abs(target) if negated else mutation
    out = tmp_path_factory.mktemp("mutation")
    (out / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([command, "--config", str(out / "cfg.json"), "--out", str(out / "o")])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert "'%s'" % path[0] in err.getvalue() or dotted(path) in err.getvalue(), \
            (command, path, mutation, err.getvalue())


def test_readme_lists_every_key_of_the_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration schema")[1].split("\n## ")[0]
    for typ, kinds in config.RECORDS.items():
        for kind, keys in kinds.items():
            for name in ([kind] if kind else []) + list(keys):
                # as `name`, or as `record.name` for a key of grid or probes
                assert re.search(r"`(\w+\.)?%s`" % re.escape(name), section), (typ, kind, name)
