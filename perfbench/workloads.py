"""The benchmark's workloads: CLI calls, their inputs and their output checks.

An operation is one pass over a workload's CLI calls, made in-process
through ``legsurf.cli.main``.  Each workload writes its config files once,
and ``check`` reads every result back from the output files (never from
stdout, where ``density`` prints NumPy reprs) and raises ``CheckFailed``
when an output breaks a bound the acceptance gate pins.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Bounds pinned by the acceptance gate (tests/test_acceptance.py).
RESIDUAL_FACTOR = 10.0  # max Legendrian residual <= 10 x the mesh tolerance
DENSITY_TOL = 0.02  # flat patch: each density ratio / pi within 2%
AREA_TOL = 5e-3  # clifford lift: area within 5e-3 relative of 4 pi^2 (pinned at n=128)

# The frame target's descent cost depends sharply on the perturbation: over
# seeds 0..10 at n=32 it ranges from 0.4 s (no step taken) to 20 s, and seed
# 11 aborts.  Its perturbation is therefore fixed at the seed the acceptance
# gate uses; its first stage stops at tolerance, its second at max_iters.
FRAME_SEED = 3


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_json(path):
    with open(path) as f:
        return json.load(f)


class Descent:
    """``descend`` on ``perturbed_clifford`` over the schedule [0.2, 0.1]."""

    def __init__(self, name, target, resolution, max_iters, seed):
        self.name = name
        self.config = {
            "family": "perturbed_clifford",
            "target": target,
            "resolution": resolution,
            "amplitude": 1e-2,
            "epsilon_schedule": [0.2, 0.1],
            "max_iters": max_iters,
            "seed": seed,
        }

    def prepare(self, workdir):
        cfg = workdir / "descend.json"
        cfg.write_text(json.dumps(self.config, sort_keys=True))
        self.commands = [["descend", "--config", str(cfg), "--out", str(workdir / "out")]]

    def check(self, out):
        """Check the descent's outputs; returns its end-to-end figures."""
        summary = _read_json(out / "summary.json")
        tol = _read_json(out / "final_mesh.json")["legendrian_tol"]
        with open(out / "trajectory.jsonl") as f:
            records = [json.loads(line) for line in f]
        stages = summary["stages"]
        _require(len(stages) == len(self.config["epsilon_schedule"]), "a stage is missing")
        _require(records, "no accepted step")
        totals = [r["area"] + r["penalty"] for r in records]
        _require(all(b < a for a, b in zip(totals, totals[1:])),
                 "total energy is not strictly decreasing")
        max_res = max(r["max_leg_residual"] for r in records)
        _require(max_res <= RESIDUAL_FACTOR * tol,
                 f"max Legendrian residual {max_res:.3e} > {RESIDUAL_FACTOR} x {tol:.3e}")
        return {"final_energy": stages[-1]["total"], "accepted_steps": len(records)}


class OneShotLab:
    """Four one-shot analyses; every mesh is built, analysed once and dropped."""

    name = "oneshot_lab"

    def __init__(self, density_n, ladder, energy_n):
        self.density_n = density_n
        self.ladder = ladder
        self.energy_n = energy_n

    def prepare(self, workdir):
        out = workdir / "out"
        self.commands = [
            ["density", "--family", "flat_patch", "--resolution", str(self.density_n),
             "--out", str(out / "density")],
            ["monotonicity", "--family", "clifford_lift", "--resolution-ladder",
             ",".join(map(str, self.ladder)), "--out", str(out / "monotonicity")],
        ]
        for target in ("heisenberg", "stiefel"):
            cfg = workdir / f"energy_{target}.json"
            cfg.write_text(json.dumps({
                "family": "clifford_lift", "target": target,
                "resolution": self.energy_n, "epsilon": 0.2,
            }, sort_keys=True))
            self.commands.append(
                ["energy", "--config", str(cfg), "--out", str(out / f"energy_{target}")])

    def check(self, out):
        rows = []
        with open(out / "density" / "density.csv") as f:
            lines = [line for line in f if not line.startswith("#")]
        _require(lines[0].strip() == "s,ratio,n_components", "unexpected density.csv header")
        for line in lines[1:]:
            s, ratio, count = line.strip().split(",")
            rows.append((float(s), float(ratio), int(count)))
        _require(len(rows) == 3, f"expected 3 density radii, got {len(rows)}")
        density_err = max(abs(ratio / math.pi - 1.0) for _, ratio, _ in rows)
        _require(density_err <= DENSITY_TOL, f"density ratio / pi off by {density_err:.3e}")

        mono = _read_json(out / "monotonicity" / "monotonicity_summary.json")
        residuals = mono["residuals"]
        _require(sorted(residuals, key=int) == [str(n) for n in self.ladder],
                 "a monotonicity rung is missing")
        _require(all(math.isfinite(r) for r in residuals.values()), "non-finite residual")

        totals = []
        for target in ("heisenberg", "stiefel"):
            rep = _read_json(out / f"energy_{target}" / "energy.json")
            area_err = abs(rep["area"] / (4 * math.pi**2) - 1.0)
            _require(area_err <= AREA_TOL, f"{target} area off by {area_err:.3e}")
            _require(math.isfinite(rep["total"]), "non-finite energy")
            totals.append(rep["total"])
        return {
            "final_energy": totals[-1],
            "density_err": density_err,
            "balance_residual": residuals[str(self.ladder[-1])],
        }


# Sizes keep one operation at 3-7 s on a 2-core 2 GHz Xeon, so that a run
# holds several warm operations after the cold one: their median is steadier
# on a noisy shared host than one long operation.  The flat descent keeps
# n=48 and stops at 8 iterations a stage instead: at n=32 some perturbation
# seeds reach the stage tolerance within a few iterations, so its cost
# varied 3x with the seed, while at n=48 no seed tried (25 of them) stops
# before max_iters.
def make(name, seed, smoke=False):
    """The workload ``name``; ``smoke`` selects the smallest sizes that pass the checks."""
    if name == "descend_flat":
        return Descent(name, "heisenberg", 12 if smoke else 48, 3 if smoke else 8, seed)
    if name == "descend_frame":
        return Descent(name, "stiefel", 12 if smoke else 24, 3 if smoke else 20, FRAME_SEED)
    if name == "oneshot_lab":
        if smoke:
            return OneShotLab(64, (48, 64), 64)
        return OneShotLab(128, (48, 64), 64)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("descend_flat", "descend_frame", "oneshot_lab")


def output_digests(out: Path):
    """sha256 of every output file, keyed by its path under ``out``."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
