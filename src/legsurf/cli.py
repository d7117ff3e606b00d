"""Command-line entry points and experiment orchestration.

Commands: verify-identities, lift, energy, descend, monotonicity, density,
clifford-demo.  Every command is deterministic given (config, seed); reports
embed the config hash and library version.  Exit statuses: 0 success, 2
validation failure, 3 numerical-check failure, 4 solver abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks, corpus, energy, gauge_lab, heisenberg as hs
from .errors import (
    ConstraintViolationError,
    DegenerateFaceError,
    DegenerateFrameError,
    GeometryDomainError,
    ResolutionError,
    StageAbortedError,
)
from .mesh import DiscreteImmersion

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v):
    return isinstance(v, list) and all(map(_is_number, v))


#: Each kind of config value: its test and the keys, in every command, that take it.
KINDS = {
    "a non-negative integer": (lambda v: _is_int(v) and v >= 0, ("seed",)),
    "an integer": (_is_int, ("resolution", "max_iters")),
    "a number": (_is_number, ("base_value", "amplitude", "epsilon", "tol_scale", "tau_init",
                              "tau_min", "armijo", "min_radius", "r0", "eta")),
    "a string": (lambda v: isinstance(v, str), ("grid", "mesh", "family", "target")),
    "a boolean": (lambda v: isinstance(v, bool), ("inject_bug",)),
    "a list of numbers": (_is_numbers, ("epsilon_schedule", "radii")),
    "a non-empty list of integers": (lambda v: v and isinstance(v, list) and all(map(_is_int, v)),
                                     ("resolution_ladder",)),
    "a string or a list of numbers": (lambda v: isinstance(v, str) or _is_numbers(v),
                                      ("base_point",)),
}
KIND_OF = {key: kind for kind, (_, keys) in KINDS.items() for key in keys}


def read_json_object(path, what, parse=dict):
    """``parse`` of the JSON object in the ``what`` file at ``path``.

    A file that cannot be read, that is not JSON, that holds no JSON object,
    or whose object ``parse`` rejects (a missing field, a value of the wrong
    type) raises ConfigError naming ``what`` and ``path``.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes or no JSON
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    try:
        return parse(data)
    except KeyError as exc:
        raise ConfigError(f"{what} file {path} lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what} file {path}: {exc}") from exc


def load_config(path, overrides, schema):
    """Merge a JSON config with CLI overrides and validate against a schema.

    Every value must be of its key's kind (:data:`KINDS`); an optional key
    whose default is None may also be null.
    """
    data = read_json_object(path, "config") if path else {}
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (required, default) in schema.items():
        if key in data:
            value = data[key]
            nullable = not required and default is None
            kind = KIND_OF[key]
            if not (value is None and nullable or KINDS[kind][0](value)):
                raise ConfigError(f"config key {key} must be {kind}, got {value!r}")
            out[key] = value
        elif required:
            raise ConfigError(f"missing required config key: {key}")
        else:
            out[key] = default
    return out


def config_hash(config):
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def report_header(config):
    return {"version": __version__, "config_hash": config_hash(config)}


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


def write_csv(path, header_lines, columns, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _generate(config):
    """The config's corpus family, its builder given those of the config's
    ``resolution`` (as ``n``), ``target``, ``amplitude`` and ``seed`` that its
    signature takes; ConfigError when the family is unknown or is not built
    on the config's target."""
    family, target = config["family"], config["target"]
    if family not in corpus.FAMILIES:
        raise ConfigError(f"unknown corpus family {family!r}")
    takes = inspect.signature(corpus.FAMILIES[family]).parameters
    kw = {"n": config["resolution"], "target": target, "amplitude": config["amplitude"],
          "seed": config["seed"]}
    imm = corpus.generate(family, **{key: value for key, value in kw.items() if key in takes})
    if imm.target != target:
        raise ConfigError(
            f"family {family!r} is built on the {imm.target} target only, not on {target!r}"
        )
    return imm


def _load_or_generate(config):
    if config.get("mesh"):
        return read_json_object(config["mesh"], "mesh", DiscreteImmersion.from_json)
    if config.get("family"):
        return _generate(config)
    raise ConfigError("config needs either a mesh path or a generator family")


# ---------------------------------------------------------------------------
# commands


def cmd_verify_identities(config, out_dir):
    jh_fn = None
    if config["inject_bug"]:
        def jh_fn(c):  # broken copy: sign of the first half flipped
            return np.concatenate([c[..., 4:], c[..., :4]], axis=-1)

    results = checks.identity_battery(config["seed"], jh_fn=jh_fn)
    report = report_header(config)
    report["seed"] = config["seed"]
    report["checks"] = [r.to_json() for r in results]
    report["all_passed"] = all(r.passed for r in results)
    write_json(Path(out_dir) / "identities.json", report)
    if not report["all_passed"]:
        failing = [r.name for r in results if not r.passed]
        print(f"FAILED checks: {failing}")
        return EXIT_NUMERIC
    print(f"all {len(results)} identity checks passed")
    return EXIT_OK


def cmd_lift(config, out_dir):
    grid = read_json_object(config["grid"], "grid", hs.LagrangianSampleGrid.from_json)
    try:
        lift = hs.legendrian_lift(grid, base_value=config["base_value"])
    except ConstraintViolationError as exc:
        print(f"non-Lagrangian input: {exc}")
        return EXIT_VALIDATION
    payload = report_header(config)
    payload["periods"] = list(lift.periods)
    payload["max_cell_residual"] = float(np.max(np.abs(lift.cell_residuals))) if lift.cell_residuals.size else 0.0
    payload["tolerance"] = lift.tol
    payload["phi"] = [float(x) for x in lift.phi.ravel()]
    payload["grid"] = grid.to_json()
    write_json(Path(out_dir) / "lift.json", payload)
    print(f"lift periods: {lift.periods}")
    return EXIT_OK


def cmd_energy(config, out_dir):
    imm = _load_or_generate(config)
    breakdown = energy.energy(imm, config["epsilon"])
    payload = {**report_header(config), **dataclasses.asdict(breakdown),
               "epsilon": config["epsilon"]}
    write_json(Path(out_dir) / "energy.json", payload)
    print(f"area={breakdown.area!r} penalty={breakdown.penalty!r}")
    return EXIT_OK


def cmd_descend(config, out_dir):
    import scipy.sparse.linalg  # first: after the mesh's arrays, the import costs more (README)
    imm = _load_or_generate(config)
    opts = energy.DescentOptions(**{key: config[key] for key in DESCENT_OPTIONS})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    status, aborted = EXIT_OK, None
    try:
        result = energy.descend(imm, config["epsilon_schedule"], opts)
    except StageAbortedError as exc:
        print(f"stage aborted: {exc}")
        status, result, aborted = EXIT_SOLVER, exc.result, exc.diagnostics
    records, stages = result.records, result.stages
    with open(out / "trajectory.jsonl", "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    result.final.save(out / "final_mesh.json")
    summary = report_header(config)
    summary["stages"] = [s.to_json() for s in stages]
    summary["stopped_by_entropy"] = result.stopped_by_entropy
    if aborted is not None:
        summary["aborted"] = aborted
    if records:
        last = records[-1]
        summary["final"] = {
            "area": last["area"],
            "penalty": last["penalty"],
            "grad_norm": last["grad_norm"],
            "max_leg_residual": last["max_leg_residual"],
        }
    write_json(out / "summary.json", summary)
    for stage in stages:
        if stage.stopped_by == "max_iters":
            print(
                f"warning: stage eps={stage.eps} stopped at max_iters ({stage.iters}) with "
                f"grad_norm {stage.grad_norm:.3e} > tol {stage.tol:.3e}"
            )
    print(f"descent: {len(records)} accepted steps over {len(stages)} stages")
    return status


def cmd_density(config, out_dir):
    imm = _load_or_generate(config)
    p0 = _base_point(imm, config)
    # Only faces inside the largest radius or theta0's kernel contribute;
    # eta is the whole mesh's.
    eta = gauge_lab.resolvable_radius(imm)
    radius = max(max(config["radii"], default=0.0), gauge_lab.THETA0_KERNEL[1] * eta)
    gf = gauge_lab.gauge_fields(gauge_lab.gauge_ball(imm, p0, radius), p0)
    min_radius = eta if config["min_radius"] is None else config["min_radius"]
    curve = gauge_lab.density_curve(gf, config["radii"], min_radius=min_radius)
    _require_resolved(curve)
    theta0, mult, dist, eta = gauge_lab.theta0_estimate(gf, eta=eta)
    out = Path(out_dir)
    header = report_header(config)
    write_csv(
        out / "density.csv",
        [
            f"density curve, version {__version__}, config {header['config_hash']}",
            f"base point {list(map(float, curve.base_point))}",
            f"resolution {config.get('resolution')}",
            f"theta0 {theta0!r} multiplicity {mult!r} eta {eta!r}",
            f"excluded radii {curve.excluded}",
        ],
        ["s", "ratio", "n_components"],
        [
            (float(s), float(ratio), int(c))
            for s, ratio, c in zip(curve.radii, curve.ratios, curve.counts)
        ],
    )
    print(f"density ratios: {np.round(curve.ratios, 4).tolist()}")
    return EXIT_OK


def cmd_monotonicity(config, out_dir):
    out = Path(out_dir)
    rows = []
    slopes_in = []
    status = EXIT_OK
    for n in config["resolution_ladder"]:
        sub = dict(config)
        sub["resolution"] = n
        imm = _generate(sub)
        p0 = _base_point(imm, sub)
        try:
            rep = gauge_lab.monotonicity_balance(
                imm, p0, config["r0"], config["eta"]
            )
        except ResolutionError as exc:
            print(f"n={n}: {exc}")
            status = EXIT_VALIDATION
            continue
        for name, value in rep.lhs_terms.items():
            rows.append((n, "lhs", name, float(value)))
        for name, value in rep.rhs_terms.items():
            rows.append((n, "rhs", name, float(value)))
        for name, value in rep.bookkeeping.items():
            rows.append((n, "bookkeeping", name, float(value)))
        rows.append((n, "summary", "residual", float(rep.residual)))
        slopes_in.append((n, rep.residual))
    header = report_header(config)
    write_csv(
        out / "monotonicity.csv",
        [
            f"truncated balance terms, version {__version__}, config {header['config_hash']}",
            f"chi: {gauge_lab.CHI_DESCRIPTION}",
            f"r0 {config['r0']!r} eta {config['eta']!r} family {config['family']}",
            f"base point {config['base_point']!r}",
            f"resolutions {config['resolution_ladder']}",
        ],
        ["resolution", "side", "term", "value"],
        rows,
    )
    summary = dict(header)
    if len(slopes_in) >= 2:
        ns = np.array([x[0] for x in slopes_in], float)
        rs = np.array([x[1] for x in slopes_in], float)
        summary["residual_slope_vs_h"] = checks.fit_loglog_slope(1.0 / ns, rs)
    summary["residuals"] = {str(n): float(r) for n, r in slopes_in}
    write_json(out / "monotonicity_summary.json", summary)
    return status


def cmd_clifford_demo(config, out_dir):
    import scipy.sparse.csgraph  # before the arrays, as in cmd_descend
    out = Path(out_dir)
    n = config["resolution"]
    imm = corpus.generate("clifford_lift", n=n)
    breakdown = energy.energy(imm, 0.2)
    from .immersion import legendrian_residual, mean_curvature_one_form

    res = legendrian_residual(imm)
    mcf = mean_curvature_one_form(imm)
    # Radii of 4, 5 and 6 grid steps clear the 3-step cut of a resolvable density.
    h = 2 * np.pi / n
    p0 = imm.positions[(n // 2) * n + n // 2]
    gf = gauge_lab.gauge_fields(gauge_lab.gauge_ball(imm, p0, 6 * h), p0)
    curve = gauge_lab.density_curve(gf, [4 * h, 5 * h, 6 * h], min_radius=3 * h)
    _require_resolved(curve)
    payload = report_header(config)
    payload.update(
        {
            "resolution": n,
            "area": breakdown.area,
            "area_target": float(4 * np.pi**2),
            "penalty": breakdown.penalty,
            "max_leg_residual": res.max,
            "maslov_periods": mcf.periods,
            "density_ratios_over_pi": [float(x) for x in curve.ratios / np.pi],
        }
    )
    write_json(out / "clifford_demo.json", payload)
    print(json.dumps(payload, sort_keys=True, indent=1))
    return EXIT_OK


def _require_resolved(curve):
    """Raise ResolutionError when every radius of ``curve`` fell below its cut."""
    if not curve.radii.size:
        raise ResolutionError(
            f"no resolvable radius: every radius {curve.excluded} is below "
            f"min_radius {curve.min_radius!r}"
        )


def _base_point(imm, config):
    choice = config.get("base_point", "center")
    if choice == "center":
        if imm.mesh.uv is not None:
            # The tie rule: on even Clifford grids four vertices are equidistant
            # from the uv mean, and the mean taken as a running total in vertex
            # order picks among them (np.mean's pairwise sum picks another).
            u, v = imm.mesh.uv.T
            mid_u, mid_v = (np.cumsum(row)[-1] / len(row) for row in (u, v))
            idx = int(np.argmin((u - mid_u) ** 2 + (v - mid_v) ** 2))
        else:
            idx = 0
        return imm.positions[idx]
    if choice == "origin":
        return np.zeros(imm.positions.shape[1])
    if isinstance(choice, (list, tuple)):
        return np.asarray(choice, float)
    raise ConfigError(f"unknown base_point {choice!r}")


# ---------------------------------------------------------------------------
# schemas and argument parsing

#: The keys that pick a command's immersion (:func:`_load_or_generate`): a
#: mesh file, or a corpus family and the keywords :func:`_generate` builds it with.
MESH_SOURCE = {
    "mesh": (False, None),
    "family": (False, None),
    "target": (False, "heisenberg"),
    "resolution": (False, 32),
    "amplitude": (False, 1e-2),
    "seed": (False, 0),
}

#: The descent's options, keyed by :class:`~legsurf.energy.DescentOptions` field.
DESCENT_OPTIONS = {f.name: (False, f.default) for f in dataclasses.fields(energy.DescentOptions)}

SCHEMAS = {
    "verify-identities": {
        "seed": (False, 0),
        "inject_bug": (False, False),
    },
    "lift": {
        "grid": (True, None),
        "base_value": (False, 0.0),
    },
    "energy": {**MESH_SOURCE, "epsilon": (True, None)},
    "descend": {**MESH_SOURCE, "epsilon_schedule": (True, None), **DESCENT_OPTIONS},
    "density": {
        **MESH_SOURCE,
        "family": (False, "flat_patch"),
        "resolution": (False, 128),
        "radii": (False, [0.05, 0.075, 0.1]),
        "min_radius": (False, None),
        "base_point": (False, "center"),
    },
    "monotonicity": {  # a family at each rung of the ladder, never a mesh file
        **{key: MESH_SOURCE[key] for key in ("target", "amplitude", "seed")},
        "family": (False, "clifford_lift"),
        "resolution_ladder": (False, [32, 64]),
        "r0": (False, 0.3),
        "eta": (False, 0.08),
        "base_point": (False, "center"),
    },
    "clifford-demo": {
        "resolution": (False, 24),
    },
}

COMMANDS = {
    "verify-identities": cmd_verify_identities,
    "lift": cmd_lift,
    "energy": cmd_energy,
    "descend": cmd_descend,
    "density": cmd_density,
    "monotonicity": cmd_monotonicity,
    "clifford-demo": cmd_clifford_demo,
}


def _int_list(text):
    return [int(x) for x in text.split(",")]


#: Command-line flags, by the config key each sets (``--resolution-ladder``
#: sets ``resolution_ladder``); a command takes the flags of its schema's keys.
FLAGS = {
    "seed": {"type": int},
    "resolution_ladder": {"type": _int_list},
    "grid": {},
    "mesh": {},
    "epsilon": {"type": float},
    "family": {},
    "resolution": {"type": int},
    "inject_bug": {"action": "store_true"},
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(prog="legsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, add_help=name in argv)
        if not p.add_help:
            continue  # argparse picks a command by its exact name: p never parses
        p.add_argument("--config", default=None)
        p.add_argument("--out", default="out")
        for key, options in FLAGS.items():
            if key in SCHEMAS[name]:
                p.add_argument("--" + key.replace("_", "-"), default=None, **options)
    args = parser.parse_args(argv)

    schema = SCHEMAS[args.command]
    overrides = {key: getattr(args, key) for key in FLAGS if key in schema}
    try:
        config = load_config(args.config, overrides, schema)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return COMMANDS[args.command](config, args.out)
    except (GeometryDomainError, ConstraintViolationError, DegenerateFaceError,
            DegenerateFrameError, ConfigError, ResolutionError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageAbortedError as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
