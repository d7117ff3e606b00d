"""Every command's outputs against the committed references in ``tests/golden``.

Each case reruns in-process and no value of its outputs may move
(``regenerate.moved``): lab, energy, lift and identity outputs number by
number to 1e-12 relative on the scale of their file, text and integers
exactly; descent outputs byte for byte on the platform the references were
made on (``platform.json``), elsewhere only their stage summaries, to
6.1e-11 of each stage's largest number.

A run that should move a reference number lists the values that move with
``python tests/golden/regenerate.py --diff``, regenerates the references
with ``python tests/golden/regenerate.py`` and says which values moved and why.
"""

import pytest

from golden import regenerate as golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_outputs_match_references(name, tmp_path):
    status, out = golden.run_case(name, tmp_path)
    assert status == 0
    assert list(golden.moved(name, out)) == []
