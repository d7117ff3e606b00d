"""Reference outputs of every ``legsurf`` command, and the script that writes them.

Each case is one CLI call at the smallest size that exits 0, on both
targets where the command takes one.  ``python tests/golden/regenerate.py``
(from the repository root, with ``src`` importable) reruns every case and
replaces the files under ``tests/golden/<case>/``, and records the platform
they were made on in ``platform.json``.  ``tests/test_golden.py`` reruns the
cases in-process and compares the files with these.

A case runs in a fresh directory that is its working directory, so path
arguments (the lift's grid) are relative and the configs' hashes do not
depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent

#: A 4 x 4 periodic sampling of the product of two unit circles, the lift's input.
_COS = [float(np.cos(k * np.pi / 2)) for k in range(4)]
_SIN = [float(np.sin(k * np.pi / 2)) for k in range(4)]
GRID = {
    "n1": 4, "n2": 4, "h1": np.pi / 2, "h2": np.pi / 2, "periodic": [True, True],
    "u": [[_COS[i], _SIN[i], _COS[j], _SIN[j]] for i in range(4) for j in range(4)],
}

#: The descent's config: acceptance criterion 9's.
DESCENT = {"family": "perturbed_clifford", "resolution": 12, "epsilon_schedule": [0.2],
           "max_iters": 8, "seed": 9}

#: name -> (kind, argv, config or None).  ``kind`` picks the comparison: "descent"
#: outputs match byte for byte on the recorded platform, "lab" outputs number
#: by number (see tests/test_golden.py).
CASES = {
    "verify_identities": ("lab", ["verify-identities"], None),
    "lift": ("lab", ["lift", "--grid", "grid.json"], None),
    "energy_flat": ("lab", ["energy", "--family", "clifford_lift", "--resolution", "3",
                            "--epsilon", "0.2"], None),
    "energy_frame": ("lab", ["energy"], {"family": "clifford_lift", "target": "stiefel",
                                         "resolution": 3, "epsilon": 0.2}),
    "descend_flat": ("descent", ["descend"], DESCENT),
    "descend_frame": ("descent", ["descend"], {**DESCENT, "target": "stiefel"}),
    "density_flat": ("lab", ["density", "--family", "flat_patch", "--resolution", "30"], None),
    "density_frame": ("lab", ["density"], {"family": "clifford_lift", "target": "stiefel",
                                           "resolution": 48, "radii": [0.3, 0.4]}),
    "monotonicity_flat": ("lab", ["monotonicity", "--resolution-ladder", "43,44"], None),
    "monotonicity_frame": ("lab", ["monotonicity"], {"family": "clifford_lift",
                                                     "target": "stiefel",
                                                     "resolution_ladder": [43, 44]}),
    "clifford_demo": ("lab", ["clifford-demo", "--resolution", "3"], None),
}


def current_platform():
    """What a byte-for-byte descent comparison depends on."""
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def run_case(name, workdir):
    """Run case ``name`` in ``workdir``; returns (exit status, output directory)."""
    from legsurf.cli import main

    _, argv, config = CASES[name]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "grid.json").write_text(json.dumps(GRID))
    argv = [*argv, "--out", "out"]
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
    finally:
        os.chdir(cwd)
    return status, workdir / "out"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            status, out = run_case(name, Path(tmp) / name)
            if status != 0:
                sys.exit(f"{name} exited {status}")
            shutil.rmtree(HERE / name, ignore_errors=True)
            shutil.copytree(out, HERE / name)
    (HERE / "platform.json").write_text(json.dumps(current_platform(), indent=1) + "\n")


if __name__ == "__main__":
    main()
