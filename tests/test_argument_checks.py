"""Malformed descent options and resolutions: GeometryDomainError in the
library and exit status 2 from the CLI, never a traceback or a silent run;
and the restoration figures each trajectory record carries."""

import json
import math

import pytest

from legsurf import cli, corpus, energy
from legsurf.errors import GeometryDomainError

TARGETS = ["heisenberg", "stiefel"]

# name: (DescentOptions fields, eps schedule)
BAD_DESCENTS = {
    "max_iters -1": ({"max_iters": -1}, [0.2]),
    "max_iters 2.5": ({"max_iters": 2.5}, [0.2]),
    "armijo -1": ({"armijo": -1.0}, [0.2]),
    "armijo 0": ({"armijo": 0.0}, [0.2]),
    "armijo nan": ({"armijo": math.nan}, [0.2]),
    "armijo inf": ({"armijo": math.inf}, [0.2]),
    "armijo 1": ({"armijo": 1.0}, [0.2]),
    "armijo 1.5": ({"armijo": 1.5}, [0.2]),
    "empty schedule": ({}, []),
    "nan eps": ({}, [0.2, math.nan]),
    "infinite eps": ({}, [math.inf, 0.1]),
    "zero eps": ({}, [0.2, 0.0]),
    "increasing schedule": ({}, [0.1, 0.2]),
}


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(BAD_DESCENTS))
def test_descend_rejects_bad_options(target, name):
    fields, schedule = BAD_DESCENTS[name]
    imm = corpus.perturbed_clifford(8, amplitude=5e-2, seed=2, target=target)
    with pytest.raises(GeometryDomainError):
        energy.descend(imm, schedule, energy.DescentOptions(**fields))


@pytest.mark.parametrize("target", TARGETS)
def test_descend_with_no_iterations(target):
    imm = corpus.perturbed_clifford(8, amplitude=5e-2, seed=2, target=target)
    res = energy.descend(imm, [0.2], energy.DescentOptions(max_iters=0))
    assert res.records == [] and [s.iters for s in res.stages] == [0]
    assert res.stages[0].stopped_by in ("tolerance", "max_iters")


def _descend_config(tmp_path, target, **fields):
    config = {"family": "perturbed_clifford", "target": target, "resolution": 8,
              "amplitude": 5e-2, "seed": 2, "epsilon_schedule": [0.2], "max_iters": 2}
    config.update(fields)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", ["max_iters -1", "armijo -1", "armijo 0", "armijo 1.5",
                                  "empty schedule", "nan eps"])
def test_descend_command_exits_two(tmp_path, capsys, target, name):
    fields, schedule = BAD_DESCENTS[name]
    config = _descend_config(tmp_path, target, epsilon_schedule=schedule, **fields)
    assert cli.main(["descend", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "validation failure" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["flat_patch", "clifford_lift", "double_sheet",
                                    "perturbed_clifford"])
@pytest.mark.parametrize("n", [0, -3, 2.5])
def test_generate_rejects_bad_resolution(family, n):
    with pytest.raises(GeometryDomainError, match="resolution"):
        corpus.generate(family, n=n)


@pytest.mark.parametrize("command,family,n", [
    ("energy", "clifford_lift", 0),
    ("energy", "flat_patch", -3),
    ("energy", "double_sheet", 0),
    ("density", "flat_patch", 0),
    ("density", "clifford_lift", -3),
])
def test_bad_resolution_exits_two(tmp_path, capsys, command, family, n):
    args = [command, "--family", family, "--resolution", str(n), "--out", str(tmp_path)]
    if command == "energy":
        args += ["--epsilon", "0.2"]
    assert cli.main(args) == 2
    assert "resolution must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("target", TARGETS)
def test_records_carry_the_accepted_restoration(target, monkeypatch):
    calls = []
    flow_step = energy.flow_step

    def recording_flow_step(imm, w_field, tau):
        out = flow_step(imm, w_field, tau)
        calls.append((tau, out[1], out[2], out[3]))
        return out

    monkeypatch.setattr(energy, "flow_step", recording_flow_step)
    imm = corpus.perturbed_clifford(12, amplitude=5e-2, seed=3, target=target)
    res = energy.descend(imm, [0.2, 0.1], energy.DescentOptions(max_iters=4))
    assert res.records
    if target == "heisenberg":  # this descent restores with Gauss-Newton passes
        assert max(rec["restore_iters"] for rec in res.records) >= 1
    for rec in res.records:
        # The accepted trial is the restoration at the record's step and residual.
        [(_, before, _, passes)] = [
            c for c in calls if c[0] == rec["tau"] and c[2] == rec["max_leg_residual"]
        ]
        assert type(rec["restore_iters"]) is int and rec["restore_iters"] == passes >= 0
        assert rec["residual_before_restore"] == before
        if passes == 0:
            assert before == rec["max_leg_residual"]
