"""What a fresh ``legsurf`` process imports of SciPy.

Importing SciPy's sparse package costs about half the CPU time of
``import legsurf.cli``, and its solver stack (``scipy.sparse.linalg``,
``scipy.linalg`` and ``scipy.sparse.csgraph``) more.  Only ``descend``
builds a sparse matrix (the Laplacian stiffness and the Gauss stencil's
adjoint) and factors one, and only beta's spanning tree (``clifford-demo``)
walks a graph, so importing the CLI and running a one-shot command must not
load any SciPy module, while ``descend`` must load the LU and
``clifford-demo`` the graph search.
Each case runs in its own interpreter, since a module once loaded stays in
``sys.modules``.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from legsurf import heisenberg as hs

# argv[1:] is the command line for ``main`` (none: import only); prints the
# SciPy modules loaded afterwards.
PROBE = """
import json, sys
from legsurf.cli import main
args = sys.argv[1:]
code = main(args) if args else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def loaded_after(*args):
    """The exit code of ``main(args)`` in a fresh interpreter, and the SciPy
    modules loaded after it."""
    r = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    code, modules = json.loads(r.stdout.splitlines()[-1])
    return code, modules


def write_config(path, **config):
    path.write_text(json.dumps(config))
    return str(path)


def test_importing_the_cli_loads_no_solver_module():
    assert loaded_after() == (0, [])


ONE_SHOT = {
    "density": ["--family", "flat_patch", "--resolution", "32"],
    "energy": ["--family", "clifford_lift", "--resolution", "16", "--epsilon", "0.2"],
    "monotonicity": ["--resolution-ladder", "48,64"],
    "verify-identities": [],
}


@pytest.mark.parametrize("command", sorted(ONE_SHOT))
def test_one_shot_command_loads_no_solver_module(command, tmp_path):
    assert loaded_after(command, *ONE_SHOT[command], "--out", str(tmp_path)) == (0, [])


def test_frame_energy_loads_no_solver_module(tmp_path):
    config = write_config(tmp_path / "c.json", family="clifford_lift", target="stiefel",
                          resolution=8, epsilon=0.2)
    assert loaded_after("energy", "--config", config, "--out", str(tmp_path)) == (0, [])


def test_lift_loads_no_solver_module(tmp_path):
    n = 16
    s = np.arange(n) * 2 * np.pi / n
    ss, tt = np.meshgrid(s, s, indexing="ij")
    u = np.stack([np.cos(ss), np.sin(ss), np.cos(tt), np.sin(tt)], axis=-1)
    grid = hs.LagrangianSampleGrid(n, n, s[1], s[1], u, (True, True))
    (tmp_path / "grid.json").write_text(json.dumps(grid.to_json()))
    assert loaded_after("lift", "--grid", str(tmp_path / "grid.json"),
                        "--out", str(tmp_path)) == (0, [])


def test_descend_loads_the_sparse_lu(tmp_path):
    config = write_config(tmp_path / "c.json", family="perturbed_clifford", resolution=8,
                          epsilon_schedule=[0.2], max_iters=1, seed=3)
    code, modules = loaded_after("descend", "--config", config, "--out", str(tmp_path))
    assert code == 0 and "scipy.sparse.linalg" in modules


def test_clifford_demo_loads_the_graph_search(tmp_path):
    code, modules = loaded_after("clifford-demo", "--resolution", "8", "--out", str(tmp_path))
    assert code == 0 and "scipy.sparse.csgraph" in modules
