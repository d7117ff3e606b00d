"""Every command's outputs against the committed references in ``tests/golden``.

The lab, energy, lift and identity outputs match number by number to 1e-12
relative.  A value at rounding level (a defect near 1e-16, a balance term
that vanishes on the Clifford torus) is compared on the scale of its file:
each number may move by 1e-12 times the larger of its own magnitude and the
largest float in the file.  Text and integers match exactly.

The descent amplifies a one-ulp change anywhere in the energy, its
gradient or the projection, so its outputs match byte for byte on the
platform the references were made on (``platform.json``).  Elsewhere only
the stage summaries are compared, to 6.1e-11 of each stage's largest
number: rounding-level changes moved end energies that far.

A run that should move a reference number regenerates the references with
``python tests/golden/regenerate.py`` and says which values moved and why.
"""

import json
import re

import pytest

from golden import regenerate as golden

#: A number in a CSV or in JSON text: sign, digits, fraction, exponent.
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def _csv_values(text):
    """The text of ``text`` with numbers cut out, and the numbers in order
    (floats where written with a point or exponent, else ints)."""
    parts = NUMBER.split(text)
    values = [float(p) if any(c in p for c in ".eEni") else int(p) for p in parts[1::2]]
    return parts[0::2], values


def _json_values(data, path="$"):
    """(path, value) of every leaf of a JSON document, in document order."""
    if isinstance(data, dict):
        for key in data:
            yield from _json_values(data[key], f"{path}.{key}")
    elif isinstance(data, list):
        for i, item in enumerate(data):
            yield from _json_values(item, f"{path}[{i}]")
    else:
        yield path, data


def _leaves(path):
    """(label, value) of every leaf of an output file: JSON, JSON lines or CSV."""
    text = path.read_text()
    if path.suffix == ".json":
        return list(_json_values(json.loads(text)))
    if path.suffix == ".jsonl":
        return [leaf for i, line in enumerate(text.splitlines())
                for leaf in _json_values(json.loads(line), f"line {i + 1}")]
    words, values = _csv_values(text)
    return [("text", w) for w in words] + [(f"number {i}", v) for i, v in enumerate(values)]


def assert_numbers_match(got, want, rel, where):
    """Leaves equal, floats to ``rel`` of max(|want|, the largest float of ``want``)."""
    assert [label for label, _ in got] == [label for label, _ in want], where
    floats = [abs(v) for _, v in want if isinstance(v, float)]
    scale = max(floats, default=0.0)
    for (label, g), (_, w) in zip(got, want):
        if isinstance(w, float) and type(g) in (int, float):
            assert abs(g - w) <= rel * max(abs(w), scale), (where, label, g, w)
        else:
            assert type(g) is type(w) and g == w, (where, label, g, w)


def _files(directory):
    return sorted(p.relative_to(directory) for p in directory.rglob("*") if p.is_file())


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_outputs_match_references(name, tmp_path):
    kind = golden.CASES[name][0]
    status, out = golden.run_case(name, tmp_path)
    assert status == 0
    ref = golden.HERE / name
    assert _files(out) == _files(ref)
    if kind == "lab":
        for rel in _files(ref):
            assert_numbers_match(_leaves(out / rel), _leaves(ref / rel), 1e-12, f"{name}/{rel}")
        return
    platform = json.loads((golden.HERE / "platform.json").read_text())
    if platform == golden.current_platform():
        for rel in _files(ref):
            assert (out / rel).read_bytes() == (ref / rel).read_bytes(), f"{name}/{rel}"
        return
    got, want = (json.loads((d / "summary.json").read_text())["stages"] for d in (out, ref))
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert_numbers_match(list(_json_values(g)), list(_json_values(w)), 6.1e-11,
                             f"{name} stage {k}")
