"""Tour of the command-line surface.

Writes a config, then exercises gen / run / verify / batch / plot into a
temporary directory and shows what each produced.  Every command is
deterministic under (config, seed): run this twice and the bytes match.

Run:  python3 demos/06_cli_tour.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*args):
    cmd = [sys.executable, "-m", "seqsew", *args]
    print("$ seqsew " + " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for line in (proc.stdout + proc.stderr).splitlines():
        print("  " + line)
    print(f"  (exit {proc.returncode})\n")


with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    config = {
        "schema": "seqsew.config.v1",
        "seed": 7,
        "scenario": {
            "T": 25,
            "d": 1,
            "s": 1,
            "u_true": [1.5],
            "design": "iid_uniform",
            "design_scale": 2.0,
            "noise": {"kind": "sg", "sigma_sq": 0.09},
            "dictionary": {"kind": "coordinate", "d": 1},
            "amplitude_script": [[25, 4.0]],
        },
        "forecaster": {"kind": "adaptive", "tau": 0.2},
        "backend": {"backend": "quadrature", "grid_points_per_dim": 257},
        "outputs": {"dir": str(workdir / "out")},
    }
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))
    print(f"working in {workdir}\n")

    run("gen", "--config", str(cfg_path))
    run("run", "--config", str(cfg_path))
    run("verify", "--config", str(cfg_path), "--bounds", "prop5,cor7")
    run("batch", "--config", str(cfg_path), "--variant", "cor11")
    run("plot", "--input", str(workdir / "out" / "run.csv"), "--kind", "cumloss",
        "--out", str(workdir / "out" / "cumloss.svg"))
    run("plot", "--input", str(workdir / "out" / "run.csv"), "--kind", "staircase",
        "--out", str(workdir / "out" / "staircase.svg"))

    print("files produced:")
    for p in sorted((workdir / "out").iterdir()):
        print(f"  {p.name:24s} {p.stat().st_size:7d} bytes")
    print("\nfirst rows of the per-round CSV:")
    for line in (workdir / "out" / "run.csv").read_text().splitlines()[:5]:
        print("  " + line)
