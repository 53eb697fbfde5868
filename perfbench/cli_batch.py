"""The `cli` workload: the four shipped configurations as one batch.

One operation runs `python -m magweyl.cli` once per command, one after the
other: verify, spectrum, moyal and compare-coupling.  The configurations
are copies of ``configs/*.json`` with the workload seed written into them.
In the traced run each command runs under ``traced_cli.py``, which reports
the layers the command called.

Chosen because these are the end-to-end figures a user of the command line
sees: interpreter and import start-up, report writing, the verify battery at
n=16, the closed-form coupling route and the n=32 eigen-solve at its real
share.

The gate: every command exits 0, ``verify_report.json`` has ``all_passed``,
``coupling_report.json`` has ``passed``, the worst ``abs_diff`` of
``moyal_report.json`` is under a fixed tolerance (``magweyl moyal`` exits 0
whatever the disagreement), and every artifact is byte-identical to the one
the first batch of the run wrote for the same configuration and seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = (
    ("verify", "verify_default.json"),
    ("spectrum", "spectrum_landau.json"),
    ("moyal", "moyal_gaussians.json"),
    ("compare-coupling", "coupling_cubic.json"),
)


def layer(command: str) -> str:
    return "cli." + command.replace("-", "_")


def spawn(argv, env, cwd, log: Path):
    """Run a child to completion; return (exit code, its peak RSS in MB)."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


class CliBatch:
    name = "cli"
    in_process = False
    moyal_tolerance = 1e-3
    # largest grid of the shipped configs (spectrum_landau.json)
    dim, n = 2, 32

    def __init__(self, seed: int, root: Path, workdir: Path, env: dict):
        self.seed = int(seed)
        self.root = root
        self.workdir = workdir
        self.env = env
        self.reference = None

    def import_probe(self) -> float:
        """Wall seconds of `python -c "import magweyl"` in a fresh process."""
        t = time.perf_counter()
        code, _ = spawn([sys.executable, "-c", "import magweyl"], self.env, self.root,
                        self.workdir / "import.log")
        if code != 0:
            raise RuntimeError("importing magweyl failed; see %s" % (self.workdir / "import.log"))
        return time.perf_counter() - t

    def build_rig(self, tr) -> dict:
        confdir = self.workdir / "configs"
        confdir.mkdir(parents=True, exist_ok=True)
        configs = {}
        for command, fname in COMMANDS:
            cfg = json.loads((self.root / "configs" / fname).read_text(encoding="utf-8"))
            cfg["seed"] = self.seed
            path = confdir / fname
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            configs[command] = path
        return configs

    def inputs(self, index: int) -> dict:
        return {"seed": self.seed}

    def run(self, rig, params, tr) -> dict:
        outdir = self.workdir / ("batch-%s" % tr.op)
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        commands = {}
        for command, _ in COMMANDS:
            stem = self.workdir / ("%s-%s" % (tr.op, command))
            # traced, the child records its own layer spans (traced_cli.py)
            child = ([str(HERE / "traced_cli.py"), str(stem) + "-layers.json"] if tr.enabled
                     else ["-m", "magweyl.cli"])
            argv = [sys.executable] + child + [command, "--config", str(rig[command]),
                                               "--out", str(outdir)]
            t = time.perf_counter()
            with tr.span(layer(command)):
                code, rss = spawn(argv, self.env, self.root, Path(str(stem) + ".log"))
            commands[command] = {"code": code, "s": time.perf_counter() - t, "peak_rss_mb": rss}
            if tr.enabled and code == 0:
                layers = json.loads(Path(str(stem) + "-layers.json").read_text(encoding="utf-8"))
                commands[command]["layers"] = layers["layers"]
                commands[command]["counters"] = layers["counters"]
        return {"outdir": outdir, "commands": commands}

    def check(self, rig, params, out) -> list:
        outdir = out["outdir"]
        try:
            codes = max(abs(c["code"]) for c in out["commands"].values())
            verify = json.loads((outdir / "verify_report.json").read_text(encoding="utf-8"))
            coupling = json.loads((outdir / "coupling_report.json").read_text(encoding="utf-8"))
            moyal = json.loads((outdir / "moyal_report.json").read_text(encoding="utf-8"))
            digests = _digests(outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if self.reference is None:
            self.reference = digests
        differing = sorted(k for k in set(digests) | set(self.reference)
                           if digests.get(k) != self.reference.get(k))
        return [
            ("exit_codes", float(codes), 0.0),
            ("verify_all_passed", 0.0 if verify["all_passed"] else 1.0, 0.0),
            ("coupling_passed", 0.0 if coupling["passed"] else 1.0, 0.0),
            ("moyal_worst_abs_diff", max(p["abs_diff"] for p in moyal["probes"]),
             self.moyal_tolerance),
            ("reports_byte_identical", float(len(differing)), 0.0),
        ]

    def diagnostics(self, out) -> dict:
        """Per-command figures and, when traced, the children's layers summed."""
        diag = {}
        for command, rec in out["commands"].items():
            diag[layer(command) + ".s"] = rec["s"]
            diag[layer(command) + ".peak_rss_mb"] = rec["peak_rss_mb"]
            for name, lay in rec.get("layers", {}).items():
                for key in ("s", "calls"):
                    diag["%s.%s" % (name, key)] = diag.get("%s.%s" % (name, key), 0) + lay[key]
                key = name + ".peak_mb"
                diag[key] = max(diag.get(key, 0.0), lay["peak_mb"])
            for name, count in rec.get("counters", {}).items():
                diag[name] = diag.get(name, 0) + count
        return diag
