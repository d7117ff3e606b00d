"""Reference outputs of every ``legsurf`` command, and the script that writes them.

Each case is one CLI call at the smallest size that exits 0, on both
targets where the command takes one.  ``python tests/golden/regenerate.py``
(from the repository root, with ``src`` importable) reruns every case and
replaces the files under ``tests/golden/<case>/``, and records the platform
they were made on in ``platform.json``.  With ``--diff`` it reruns every
case in a temporary directory, writes nothing, prints each value that would
move (:func:`moved`) as one line, case, file, JSON path or CSV cell,
reference -> new and the relative change, and exits 1 if any would.
``tests/test_golden.py`` reruns the cases in-process and checks that no
value moves.

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
import re
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

#: name -> (kind, argv, config or None).  ``kind`` picks the comparison of
#: :func:`moved`: "descent" outputs match byte for byte on the recorded
#: platform, "lab" outputs number by number.
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

#: A lab number may move by this much times the larger of its own magnitude
#: and the largest float in its file, so a value at rounding level (a defect
#: near 1e-16, a balance term that vanishes on the Clifford torus) is
#: compared on the scale of its file.
LAB_REL = 1e-12
#: The descent amplifies a one-ulp change anywhere in the energy, its
#: gradient or the projection.  Off the recorded platform only the stage
#: summaries are compared, each number to this much of its stage's largest
#: number: rounding-level changes moved end energies that far.
STAGE_REL = 6.1e-11

#: A number in a CSV or in JSON text: sign, digits, fraction, exponent.
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def current_platform():
    """What a byte-for-byte descent comparison depends on."""
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def on_recorded_platform():
    """Whether this platform is the one the references were made on."""
    return json.loads((HERE / "platform.json").read_text()) == current_platform()


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


def json_values(data, path="$"):
    """(path, value) of every leaf of a JSON document, in document order."""
    if isinstance(data, dict):
        for key in data:
            yield from json_values(data[key], f"{path}.{key}")
    elif isinstance(data, list):
        for i, item in enumerate(data):
            yield from json_values(item, f"{path}[{i}]")
    else:
        yield path, data


def _csv_leaves(text):
    """(label, value) of each comma-separated cell of each line: the cell's
    text with its numbers masked, then its numbers (floats where written
    with a point or exponent, else ints)."""
    for i, line in enumerate(text.splitlines(), 1):
        for j, cell in enumerate(line.split(",")):
            where = f"line {i} cell {j}"
            parts = NUMBER.split(cell)
            yield f"{where} text", "#".join(parts[0::2])
            numbers = parts[1::2]
            for m, p in enumerate(numbers):
                value = float(p) if any(c in p for c in ".eEni") else int(p)
                yield (where if len(numbers) == 1 else f"{where} number {m}"), value


def leaves(path):
    """(label, value) of every leaf of an output file: JSON, JSON lines or CSV."""
    text = path.read_text()
    if path.suffix == ".json":
        return list(json_values(json.loads(text)))
    if path.suffix == ".jsonl":
        return [leaf for i, line in enumerate(text.splitlines())
                for leaf in json_values(json.loads(line), f"line {i + 1}: $")]
    return list(_csv_leaves(text))


class _Missing:
    def __repr__(self):
        return "missing"


MISSING = _Missing()


def _moved_leaves(got, want, rel):
    """(label, reference, new) of each leaf whose float moved beyond ``rel``
    times max(its magnitude, the largest float of ``want``), whose other
    value changed or which one side lacks (``MISSING``); then, if none did
    but the labels come in another order, ("leaf order", ...)."""
    got, want = dict(got), dict(want)
    scale = max((abs(v) for v in want.values() if isinstance(v, float)), default=0.0)
    changed = False
    for label in [*want, *(k for k in got if k not in want)]:
        w, g = want.get(label, MISSING), got.get(label, MISSING)
        if isinstance(w, float) and type(g) in (int, float):
            if g == w or abs(g - w) <= rel * max(abs(w), scale):
                continue
        elif type(g) is type(w) and g == w:
            continue
        changed = True
        yield label, w, g
    if not changed and list(got) != list(want):
        yield "leaf order", "reference order", "new order"


def _files(directory):
    return sorted(p.relative_to(directory) for p in directory.rglob("*") if p.is_file())


def moved(name, out):
    """(file, label, reference, new) of each value of case ``name``'s outputs
    in ``out`` that moved from its reference in ``tests/golden/<name>``.

    A file on one side only moves as a whole (label "file").  Lab outputs
    compare number by number to ``LAB_REL``; text and integers exactly.
    Descent outputs compare exactly, and byte for byte, on the platform the
    references were made on (``platform.json``), elsewhere only their stage
    summaries, to ``STAGE_REL``.
    """
    ref = HERE / name
    got_files, want_files = _files(out), _files(ref)
    for rel in sorted(set(got_files) ^ set(want_files)):
        if rel in want_files:
            yield str(rel), "file", "present", MISSING
        else:
            yield str(rel), "file", MISSING, "present"
    both = sorted(set(got_files) & set(want_files))
    if CASES[name][0] == "lab":
        for rel in both:
            for m in _moved_leaves(leaves(out / rel), leaves(ref / rel), LAB_REL):
                yield str(rel), *m
        return
    if on_recorded_platform():
        for rel in both:
            changes = list(_moved_leaves(leaves(out / rel), leaves(ref / rel), 0.0))
            if not changes and (out / rel).read_bytes() != (ref / rel).read_bytes():
                changes = [("bytes", "reference", "new")]
            for m in changes:
                yield str(rel), *m
        return
    if Path("summary.json") in both:
        got, want = (json.loads((d / "summary.json").read_text())["stages"] for d in (out, ref))
        for k in range(max(len(got), len(want))):
            g = json_values(got[k], f"$.stages[{k}]") if k < len(got) else []
            w = json_values(want[k], f"$.stages[{k}]") if k < len(want) else []
            for m in _moved_leaves(g, w, STAGE_REL):
                yield "summary.json", *m


def _relative_change(old, new):
    numeric = all(type(v) in (int, float) for v in (old, new))
    return f"{abs(new - old) / abs(old):.3g}" if numeric and old != 0 else "-"


def diff():
    """Print every value that would move, one line each; returns their count."""
    if not on_recorded_platform():
        print("platform differs from platform.json: descents compare stage summaries only")
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            status, out = run_case(name, Path(tmp) / name)
            if status != 0:
                print(f"{name}: exited {status}")
                count += 1
                continue
            for file, label, old, new in moved(name, out):
                print(f"{name}  {file}  {label}  {old!r} -> {new!r}  "
                      f"(relative change {_relative_change(old, new)})")
                count += 1
    print(f"{count} value(s) would move")
    return count


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
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if diff() else 0)
    if sys.argv[1:]:
        sys.exit("usage: regenerate.py [--diff]")
    main()
