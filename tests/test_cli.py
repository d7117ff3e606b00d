"""End-to-end command behavior: exits, files, determinism."""

import dataclasses
import inspect
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from legsurf import cli, corpus, energy
from legsurf import heisenberg as hs


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "legsurf.cli", *args], capture_output=True, text=True
    )


def write_clifford_grid(path, n=32):
    h = 2 * np.pi / n
    s = np.arange(n) * h
    ss, tt = np.meshgrid(s, s, indexing="ij")
    u = np.stack([np.cos(ss), np.sin(ss), np.cos(tt), np.sin(tt)], axis=-1)
    grid = hs.LagrangianSampleGrid(n, n, h, h, u, (True, True))
    with open(path, "w") as f:
        json.dump(grid.to_json(), f)


class TestVerifyIdentities:
    def test_default_seed_passes(self, tmp_path):
        r = run_cli("verify-identities", "--out", str(tmp_path))
        assert r.returncode == 0
        report = json.loads((tmp_path / "identities.json").read_text())
        assert len(report["checks"]) >= 12
        assert report["all_passed"]
        assert "config_hash" in report and "version" in report

    def test_injected_bug_names_check(self, tmp_path):
        r = run_cli("verify-identities", "--out", str(tmp_path), "--inject-bug")
        assert r.returncode == 3
        report = json.loads((tmp_path / "identities.json").read_text())
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "jh_involution" in failing

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("verify-identities", "--seed", "7", "--out", str(a)).returncode == 0
        assert run_cli("verify-identities", "--seed", "7", "--out", str(b)).returncode == 0
        assert (a / "identities.json").read_bytes() == (b / "identities.json").read_bytes()


class TestLift:
    def test_clifford_grid(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        write_clifford_grid(grid_path, n=64)
        r = run_cli("lift", "--grid", str(grid_path), "--out", str(tmp_path))
        assert r.returncode == 0
        payload = json.loads((tmp_path / "lift.json").read_text())
        # trapezoidal periods are n sin(2 pi / n): O(h^2) below 2 pi
        assert payload["periods"][0] == pytest.approx(2 * np.pi, rel=2e-3)
        assert payload["periods"][1] == pytest.approx(2 * np.pi, rel=2e-3)

    def test_constant_map(self, tmp_path):
        grid = hs.LagrangianSampleGrid(
            6, 6, 0.1, 0.1, np.tile(np.array([1.0, 0, 0, 0]), (6, 6, 1))
        )
        grid_path = tmp_path / "grid.json"
        with open(grid_path, "w") as f:
            json.dump(grid.to_json(), f)
        r = run_cli("lift", "--grid", str(grid_path), "--out", str(tmp_path))
        assert r.returncode == 0
        payload = json.loads((tmp_path / "lift.json").read_text())
        assert max(abs(x) for x in payload["phi"]) == 0.0

    def test_non_lagrangian_fails(self, tmp_path):
        lin = np.linspace(0, 1, 8)
        ss, tt = np.meshgrid(lin, lin, indexing="ij")
        grid = hs.LagrangianSampleGrid(
            8, 8, lin[1], lin[1], np.stack([ss, tt, 0 * ss, 0 * tt], axis=-1)
        )
        grid_path = tmp_path / "grid.json"
        with open(grid_path, "w") as f:
            json.dump(grid.to_json(), f)
        r = run_cli("lift", "--grid", str(grid_path), "--out", str(tmp_path))
        assert r.returncode == 2
        assert "cell" in r.stdout


class TestConfigValidation:
    def test_unknown_keys_rejected(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"seed": 1, "bogus_key": true}')
        r = run_cli("verify-identities", "--config", str(config), "--out", str(tmp_path))
        assert r.returncode == 2
        assert "bogus_key" in r.stderr

    def test_missing_required_rejected(self, tmp_path):
        r = run_cli("energy", "--out", str(tmp_path))
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("descend", {"epsilon_schedule": "abc"}),
            ("descend", {"resolution": "x"}),
            ("descend", {"max_iters": "x"}),
            ("descend", {"tau_init": "x"}),
            ("density", {"radii": "x"}),
            ("density", {"family": "nope"}),
            ("descend", None),  # a top-level list instead of an object
        ],
        ids=["schedule", "resolution", "max_iters", "tau_init", "radii", "family", "list"],
    )
    def test_malformed_value_rejected(self, tmp_path, command, bad):
        r = run_cli(command, *self.config_args(tmp_path, command, bad))
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert "config error" in r.stderr or "validation failure" in r.stderr

    def test_flags_outside_the_schema_rejected(self, tmp_path):
        # density takes neither an epsilon, a grid nor --inject-bug.
        for flag in (["--epsilon", "0.5"], ["--grid", "nope.json"], ["--inject-bug"]):
            r = run_cli("density", "--family", "flat_patch", "--resolution", "32", *flag,
                        "--out", str(tmp_path / "out"))
            assert r.returncode == 2, r.stderr
            assert "unrecognized arguments: " + flag[0] in r.stderr
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_rejected(self, tmp_path):
        r = run_cli("energy", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "config error" in r.stderr and "missing.json" in r.stderr

    @pytest.mark.parametrize("family", ["flat_patch", "double_sheet"])
    def test_flat_only_family_rejects_frame_target(self, tmp_path, family):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(
            {"family": family, "target": "stiefel", "resolution": 8, "epsilon": 0.2}
        ))
        r = run_cli("energy", "--config", str(config), "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        assert family in r.stderr and "stiefel" in r.stderr
        assert not (tmp_path / "out" / "energy.json").exists()

    @pytest.mark.parametrize("command", ["descend", "density"])
    def test_valid_base_config_accepted(self, tmp_path, command):
        r = run_cli(command, *self.config_args(tmp_path, command, {}))
        assert r.returncode == 0, r.stderr

    @staticmethod
    def config_args(tmp_path, command, bad):
        """A small valid config for the command, with the bad values merged in."""
        valid = {"family": "flat_patch", "resolution": 8}
        if command == "descend":
            valid.update({"epsilon_schedule": [0.2], "max_iters": 1})
        if command == "density":
            valid["min_radius"] = 0.05  # the default cut at n=8 excludes every default radius
        config = tmp_path / "c.json"
        config.write_text(json.dumps([valid] if bad is None else {**valid, **bad}))
        return "--config", str(config), "--out", str(tmp_path / "out")


class TestDescendCommand:
    def test_end_to_end(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "family": "perturbed_clifford",
                    "resolution": 12,
                    "amplitude": 1e-2,
                    "epsilon_schedule": [0.2],
                    "max_iters": 12,
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "out"
        r = run_cli("descend", "--config", str(config), "--out", str(out))
        assert r.returncode == 0
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert set(rec) == {
            "k", "iter", "area", "penalty", "grad_norm",
            "max_leg_residual", "entropy_indicator", "tau", "backtracks",
            "restore_iters", "residual_before_restore",
        }
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stages"]
        assert (out / "final_mesh.json").exists()

    def test_max_iters_stage_warns(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "family": "perturbed_clifford", "resolution": 12, "amplitude": 1e-2,
            "epsilon_schedule": [0.2], "max_iters": 2, "seed": 3,
        }))
        out = tmp_path / "out"
        r = run_cli("descend", "--config", str(config), "--out", str(out))
        assert r.returncode == 0, r.stderr
        (stage,) = json.loads((out / "summary.json").read_text())["stages"]
        assert stage["stopped_by"] == "max_iters" and not stage["hit_tolerance"]
        assert "warning: stage eps=0.2 stopped at max_iters (2)" in r.stdout

    @pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
    def test_tau_min_above_cap_exits_two(self, tmp_path, target):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "family": "perturbed_clifford", "target": target, "resolution": 10,
            "epsilon_schedule": [0.2], "max_iters": 3, "seed": 3, "tau_min": 2000.0,
        }))
        r = run_cli("descend", "--config", str(config), "--out", str(tmp_path / "out"))
        assert r.returncode == 2, r.stderr
        assert "tau_min" in r.stderr

    def test_trajectory_determinism(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "family": "perturbed_clifford",
                    "resolution": 10,
                    "epsilon_schedule": [0.2],
                    "max_iters": 6,
                    "seed": 5,
                }
            )
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("descend", "--config", str(config), "--out", str(out)).returncode == 0
            outs.append((out / "trajectory.jsonl").read_bytes())
        assert outs[0] == outs[1]


class TestDensityCommand:
    def test_flat_patch_csv(self, tmp_path):
        r = run_cli(
            "density", "--family", "flat_patch", "--resolution", "128",
            "--out", str(tmp_path),
        )
        assert r.returncode == 0
        text = (tmp_path / "density.csv").read_text()
        assert text.startswith("#")
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "s,ratio,n_components"

    def test_stdout_prints_plain_floats(self, tmp_path):
        r = run_cli(
            "density", "--family", "flat_patch", "--resolution", "64", "--out", str(tmp_path),
        )
        assert r.returncode == 0
        (line,) = [l for l in r.stdout.splitlines() if l.startswith("density ratios: ")]
        printed = json.loads(line.removeprefix("density ratios: "))
        text = (tmp_path / "density.csv").read_text()
        rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
        assert printed == [round(float(ratio), 4) for _, ratio, _ in rows]

    def test_no_resolvable_radius_rejected(self, tmp_path):
        r = run_cli(
            "density", "--family", "flat_patch", "--resolution", "8", "--out", str(tmp_path),
        )
        assert r.returncode == 2
        assert "[0.1, 0.075, 0.05]" in r.stderr and "min_radius" in r.stderr
        assert not (tmp_path / "density.csv").exists()

    @pytest.mark.parametrize("bad,message", [
        ({"radii": [0.0], "min_radius": 0.0}, "got [0.0], 0.0"),
        ({"radii": [-0.1, 0.2], "min_radius": -1.0}, "got [0.2, -0.1], -1.0"),
    ])
    def test_nonpositive_radius_rejected(self, tmp_path, bad, message):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(bad))
        r = run_cli("density", "--config", str(config), "--out", str(tmp_path))
        assert r.returncode == 2
        assert "need radii > 0, min_radius >= 0; " + message in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "density.csv").exists()

    @pytest.mark.parametrize("radius,ratio", [(1e10, "1e-20"), (1e300, "0.0")])
    def test_radius_far_beyond_the_mesh_warns_nothing(self, tmp_path, radius, ratio):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"family": "flat_patch", "resolution": 16, "radii": [radius]}))
        # -W error turns any RuntimeWarning (overflow in the clipping or the ratio) into an exit 1.
        r = subprocess.run(
            [sys.executable, "-W", "error", "-m", "legsurf.cli", "density", "--config", str(config),
             "--out", str(tmp_path)], capture_output=True, text=True,
        )
        assert r.returncode == 0 and r.stderr == ""
        rows = [l.split(",") for l in (tmp_path / "density.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [(float(s), ratio_text) for s, ratio_text, _ in rows] == [(radius, ratio)]

    def test_density_determinism(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = run_cli(
                "density", "--family", "flat_patch", "--resolution", "64",
                "--seed", "2", "--out", str(out),
            )
            assert r.returncode == 0
            blobs.append((out / "density.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestMonotonicityCommand:
    def test_ladder_csv(self, tmp_path):
        r = run_cli(
            "monotonicity", "--family", "clifford_lift",
            "--resolution-ladder", "48,96", "--out", str(tmp_path),
        )
        assert r.returncode == 0
        text = (tmp_path / "monotonicity.csv").read_text()
        assert "residual" in text
        summary = json.loads((tmp_path / "monotonicity_summary.json").read_text())
        assert "residuals" in summary and len(summary["residuals"]) == 2

    @pytest.mark.parametrize("n,vertex", [(44, 946), (48, 1128), (64, 2079)])
    def test_center_base_point_tie_rule(self, n, vertex):
        # Four vertices of an even Clifford grid are equidistant from its uv
        # mean; the mean's running total picks this one (np.mean's pairwise
        # sum another), and the flat monotonicity outputs depend on the pick.
        imm = corpus.clifford_lift(n)
        u, v = imm.mesh.uv.T
        dist = (u - u.mean()) ** 2 + (v - v.mean()) ** 2
        ties = np.flatnonzero(np.isclose(dist, dist.min(), rtol=1e-9, atol=0.0))
        assert len(ties) == 4 and vertex in ties
        p0 = cli._base_point(imm, {"base_point": "center"})
        assert np.array_equal(p0, imm.positions[vertex])


def write_collapsed_patch(path):
    """flat_patch(4) with face 0 collapsed onto one of its edges."""
    fp = corpus.flat_patch(4)
    pos = fp.positions.copy()
    a, b, c = fp.mesh.triangles[0]
    pos[c] = pos[a] + 0.5 * (pos[b] - pos[a])
    fp.with_positions(pos).save(path)


@pytest.mark.parametrize("command", [["energy", "--epsilon", "0.2"], ["density"]],
                         ids=["energy", "density"])
def test_collapsed_face_exits_two(tmp_path, command):
    mesh = tmp_path / "m.json"
    write_collapsed_patch(mesh)
    r = run_cli(command[0], "--mesh", str(mesh), *command[1:], "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "validation failure: degenerate face 0" in r.stderr


def _without(key):
    return lambda data: json.dumps({k: v for k, v in data.items() if k != key})


def _with(**change):
    return lambda data: json.dumps({**data, **change})


def _off_target_frame(data):
    """A frame-target mesh whose vertex 0 is no longer an orthonormal frame."""
    stt = corpus.clifford_lift(8, target="stiefel")
    pos = stt.positions.copy()
    pos[0] *= 1.01
    return json.dumps(stt.with_positions(pos).to_json())


def _non_legendrian(data):
    """The flat patch with its vertices moved along the Reeb coordinate by a
    random 1e-2: points on the target, edges far off the contact plane."""
    vertices = np.asarray(data["vertices"])
    vertices[:, 0] += 1e-2 * np.random.default_rng(2).normal(size=len(vertices))
    return json.dumps({**data, "vertices": vertices.tolist()})


#: Each malformed input file, as text made from a valid flat-model file's
#: JSON object (None: no file at all; the off-target case writes a frame mesh).
MALFORMED_MESHES = {
    "missing file": None,
    "not JSON": lambda data: "a mesh",
    "truncated JSON": lambda data: json.dumps(data)[:60],
    "JSON list": lambda data: json.dumps([data]),
    "no target": _without("target"),
    "non-integer triangle": lambda data: json.dumps(
        {**data, "triangles": [["a", 1, 2]] + data["triangles"][1:]}),
    "non-numeric tolerance": _with(legendrian_tol="x"),
    "negative tolerance": _with(legendrian_tol=-1.0),
    "NaN tolerance": _with(legendrian_tol=float("nan")),
    "boundary loop vertex out of range": _with(boundary_loops=[[0, 1, 99999]]),
    "generator loop vertex out of range": _with(generator_loops=[[0, -1]]),
    "off-target frame point": _off_target_frame,
    "non-Legendrian vertices": _non_legendrian,
}
MALFORMED_GRIDS = {
    "missing file": None,
    "not JSON": lambda data: "a grid",
    "JSON list": lambda data: json.dumps([data]),
    "no u": _without("u"),
}
MALFORMED_CASES = (
    [(cmd, "mesh", name) for cmd in ("energy", "density") for name in MALFORMED_MESHES]
    + [("lift", "grid", name) for name in MALFORMED_GRIDS]
)


@pytest.mark.parametrize("command,kind,name", MALFORMED_CASES,
                         ids=[f"{c}-{n}" for c, _, n in MALFORMED_CASES])
def test_malformed_input_file_exits_two(tmp_path, capsys, command, kind, name):
    from legsurf import cli

    path = tmp_path / f"{kind}.json"
    if kind == "mesh":
        valid, make = corpus.flat_patch(4).to_json(), MALFORMED_MESHES[name]
    else:
        write_clifford_grid(path, n=8)
        valid, make = json.loads(path.read_text()), MALFORMED_GRIDS[name]
        path.unlink()
    if make is not None:
        path.write_text(make(valid))
    extra = ["--epsilon", "0.2"] if command == "energy" else []
    status = cli.main([command, f"--{kind}", str(path), *extra, "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and str(path) in err, err
    assert not (tmp_path / "out").exists()


def test_non_legendrian_mesh_names_residual_and_tolerance(tmp_path, capsys):
    from legsurf import cli

    fp = corpus.flat_patch(4)
    path = tmp_path / "m.json"
    path.write_text(_non_legendrian(fp.to_json()))
    status = cli.main(["energy", "--mesh", str(path), "--epsilon", "0.2",
                       "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    tol = re.escape(f"{fp.legendrian_tol:.3e}")
    assert re.search(r"max edge Legendrian residual \d\.\d{3}e-\d\d exceeds the file's "
                     rf"legendrian_tol {tol}", err), err


def test_mesh_without_uv_exits_two(tmp_path, capsys):
    from legsurf import cli
    from legsurf.mesh import DiscreteImmersion, SurfaceMesh

    fp = corpus.flat_patch(6)
    m = fp.mesh
    mesh = SurfaceMesh(m.triangles, m.n_vertices, boundary_loops=m.boundary_loops)
    path = tmp_path / "m.json"
    DiscreteImmersion(mesh=mesh, target="heisenberg", positions=fp.positions).save(path)
    status = cli.main(["energy", "--mesh", str(path), "--epsilon", "0.2",
                       "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_VALIDATION
    assert "requires uv parameters" in capsys.readouterr().err


class TestEnergyCommand:
    def test_energy_file(self, tmp_path):
        r = run_cli(
            "energy", "--family", "clifford_lift", "--resolution", "16",
            "--epsilon", "0.2", "--out", str(tmp_path),
        )
        assert r.returncode == 0
        payload = json.loads((tmp_path / "energy.json").read_text())
        assert payload["total"] == pytest.approx(payload["area"] + payload["penalty"])


class TestCliffordDemo:
    def test_demo(self, tmp_path):
        r = run_cli("clifford-demo", "--resolution", "24", "--out", str(tmp_path))
        assert r.returncode == 0
        payload = json.loads((tmp_path / "clifford_demo.json").read_text())
        assert abs(payload["maslov_periods"][0] - np.pi) < 0.05
        ratios = payload["density_ratios_over_pi"]
        assert len(ratios) == 3 and all(np.isfinite(ratios))

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_resolution_below_one_rejected(self, tmp_path, n):
        r = run_cli("clifford-demo", "--resolution", n, "--out", str(tmp_path))
        assert r.returncode == 2
        assert f"resolution must be an integer >= 1, got {n}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "clifford_demo.json").exists()

    def test_seed_is_not_a_key(self, tmp_path):
        # clifford_lift is deterministic, so the demo takes no seed.
        r = run_cli("clifford-demo", "--resolution", "8", "--seed", "1", "--out", str(tmp_path))
        assert r.returncode == 2
        assert "unrecognized arguments: --seed" in r.stderr
        config = tmp_path / "c.json"
        config.write_text('{"resolution": 8, "seed": 1}')
        r = run_cli("clifford-demo", "--config", str(config), "--out", str(tmp_path))
        assert r.returncode == 2
        assert "unknown config keys: ['seed']" in r.stderr
        assert not (tmp_path / "clifford_demo.json").exists()


@pytest.mark.parametrize("command,config,message", [
    ("energy", {"family": "perturbed_clifford", "seed": -3, "epsilon": 0.2},
     "config key seed must be a non-negative integer, got -3"),
    ("descend", {"family": "perturbed_clifford", "seed": -1, "epsilon_schedule": [0.2]},
     "config key seed must be a non-negative integer, got -1"),
    ("verify-identities", {"seed": -2},
     "config key seed must be a non-negative integer, got -2"),
    ("monotonicity", {"resolution_ladder": []},
     "config key resolution_ladder must be a non-empty list of integers, got []"),
], ids=["energy-seed", "descend-seed", "identities-seed", "empty-ladder"])
def test_config_value_out_of_range_exits_two(tmp_path, command, config, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    r = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "config error: " + message in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()


class TestSolverAbortExit:
    def test_exit_code_four(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "family": "perturbed_clifford",
                    "resolution": 10,
                    "epsilon_schedule": [0.2],
                    "max_iters": 5,
                    "tau_min": 5.0,
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "out"
        r = run_cli("descend", "--config", str(config), "--out", str(out))
        assert r.returncode == 4
        # partial outputs still land on disk
        assert (out / "summary.json").exists()

    def test_abort_keeps_the_work_before_it(self, tmp_path, monkeypatch, capsys):
        # flow_step rejects every trial from its fourth call on: the first
        # stage takes its two steps, the second one step, then aborts.
        from legsurf import cli, energy
        from legsurf.errors import StepRejectedError
        from legsurf.mesh import DiscreteImmersion

        flow_step, accepted = energy.flow_step, []

        def rejecting_from_fourth(imm, w_field, tau):
            if len(accepted) == 3:
                raise StepRejectedError("rejected", residual_before=1.0, residual_after=0.5)
            step = flow_step(imm, w_field, tau)
            accepted.append(step[0])
            return step

        monkeypatch.setattr(energy, "flow_step", rejecting_from_fourth)
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "family": "perturbed_clifford",
                    "resolution": 12,
                    "epsilon_schedule": [0.2, 0.1],
                    "max_iters": 2,
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "out"
        status = cli.main(["descend", "--config", str(config), "--out", str(out)])
        assert status == cli.EXIT_SOLVER
        assert "descent: 3 accepted steps over 1 stages" in capsys.readouterr().out
        records = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
        assert [(r["k"], r["iter"]) for r in records] == [(0, 1), (0, 2), (1, 1)]
        summary = json.loads((out / "summary.json").read_text())
        (stage,) = summary["stages"]
        assert stage["eps"] == 0.2 and stage["iters"] == 2 and stage["stopped_by"] == "max_iters"
        assert summary["final"]["area"] == records[-1]["area"]
        aborted = summary["aborted"]
        assert aborted["eps"] == 0.1 and aborted["iter"] == 2
        assert aborted["residual_before_restore"] == 1.0
        assert aborted["residual_after_restore"] == 0.5
        final = DiscreteImmersion.from_json(json.loads((out / "final_mesh.json").read_text()))
        assert np.array_equal(final.positions, accepted[-1].positions)


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_command_help_lists_its_schema_flags(name, capsys):
    # main adds flags only to the subparser named in argv; the named one
    # must still get every flag of its schema.
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    flags = {"--" + key.replace("_", "-") for key in cli.FLAGS if key in cli.SCHEMAS[name]}
    shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert shown == {"--help", "--config", "--out"} | flags


class TestRepeatedInProcessCalls:
    """Repeated ``main`` calls in one interpreter leave no state behind: each
    call reads ``COMMANDS`` and ``SCHEMAS`` when it runs."""

    LAB = [
        ["density", "--family", "flat_patch", "--resolution", "32"],
        ["monotonicity", "--resolution-ladder", "48"],
    ]

    def run_lab(self, out):
        return [cli.main([*args, "--out", str(out / args[0])]) for args in self.LAB]

    def test_repeated_calls_write_identical_files(self, tmp_path):
        runs = [tmp_path / "first", tmp_path / "second"]
        files = []
        for out in runs:
            assert self.run_lab(out) == [0, 0]
            files.append(sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()))
        assert files[0] == files[1] and len(files[0]) == 3
        for rel in files[0]:
            assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()

    def test_bad_flag_exits_two_after_a_good_call(self, tmp_path):
        assert self.run_lab(tmp_path) == [0, 0]
        with pytest.raises(SystemExit) as exc:
            cli.main(["density", "--epsilon", "0.5", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert not (tmp_path / "bad").exists()
        assert cli.main(["energy", "--family", "clifford_lift", "--resolution", "8",
                         "--epsilon", "0.2", "--out", str(tmp_path / "energy")]) == 0

    def test_commands_and_schemas_are_read_per_call(self, tmp_path, monkeypatch):
        assert self.run_lab(tmp_path) == [0, 0]  # a call before the patches
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "density", lambda config, out: seen.append(config) or 7)
        schema = {**cli.SCHEMAS["density"], "radii": (True, None)}
        monkeypatch.setitem(cli.SCHEMAS, "density", schema)
        args = ["density", "--resolution", "16", "--out", str(tmp_path)]
        assert cli.main(args) == cli.EXIT_VALIDATION  # radii is now required
        config = tmp_path / "radii.json"
        config.write_text(json.dumps({"radii": [0.2]}))
        assert cli.main([*args, "--config", str(config)]) == 7
        assert [(c["resolution"], c["radii"]) for c in seen] == [(16, [0.2])]


def test_descend_schema_holds_the_descent_option_defaults():
    fields = dataclasses.fields(energy.DescentOptions)
    assert {f.name for f in fields} <= set(cli.SCHEMAS["descend"])
    for f in fields:
        assert cli.SCHEMAS["descend"][f.name] == (False, f.default), f.name
    assert energy.DescentOptions().max_iters == 100


@pytest.mark.parametrize("target", ["heisenberg", "stiefel"])
@pytest.mark.parametrize("family", list(corpus.FAMILIES))
def test_generate_builds_each_family_or_names_it(family, target):
    """A family taking a target is built on both; any other only on the flat target."""
    overrides = {"family": family, "target": target, "resolution": 4, "epsilon": 0.2}
    config = cli.load_config(None, overrides, cli.SCHEMAS["energy"])
    takes_target = "target" in inspect.signature(corpus.FAMILIES[family]).parameters
    if takes_target or target == "heisenberg":
        assert cli._generate(config).target == target
    else:
        with pytest.raises(cli.ConfigError, match=repr(family)):
            cli._generate(config)
