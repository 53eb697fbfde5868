import json
from pathlib import Path

import numpy as np
import pytest

from magweyl import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert {i["name"] for i in report["items"]} >= {
        "stokes_factorization", "cocycle_identity", "weyl_composition_law",
        "homomorphism_structural", "trace_identity", "rank_one_reconstruction"}


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


def test_verify_gauge_mismatch_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile, gauges=[{"kind": "symmetric", "b": 0.5}])
    rc = cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "gauge" in capsys.readouterr().err


def test_config_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["verify", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    odd = tmp_path / "odd.json"
    write_config(odd, grid={"dim": 2, "n": 7, "L": 5.0})
    assert cli.main(["verify", "--config", str(odd), "--out", str(tmp_path / "o")]) == 2


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
    assert np.abs(e1 - e2).max() / np.abs(e1).max() < 1e-8


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


def test_compare_coupling_high_degree_exits_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    write_config(cfgfile, symbol={"kind": "momentum_polynomial",
                                  "terms": [{"coeff": 1.0, "powers": [4, 0]}]})
    rc = cli.main(["compare-coupling", "--config", str(cfgfile),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
