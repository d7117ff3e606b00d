"""The contact primitives of both targets, checked by one property test.

``reeb``, ``horizontal`` and ``j`` work on frame components and ``alpha`` on
ambient vectors, so alpha reads frame components through ``unframe``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from legsurf.fields import HEISENBERG, STIEFEL

N = 16
TOL = 1e-13


@pytest.mark.parametrize("geo", [STIEFEL, HEISENBERG], ids=lambda geo: geo.name)
@settings(max_examples=50, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1))
def test_reeb_horizontal_and_j(geo, seed):
    """alpha(R) = alpha_reeb; horizontal is idempotent, removes R and lands
    in ker alpha; J^2 = -1, |J x| = |x| and J x is horizontal for
    horizontal x."""
    rng = np.random.default_rng(seed)
    q = np.array([geo.random_point(rng) for _ in range(N)])

    def alpha(c):
        return geo.alpha(q, geo.unframe(q, c))

    def size(x):
        return np.max(np.abs(x))

    reeb = geo.reeb(q)
    assert size(alpha(reeb) - geo.alpha_reeb) <= TOL
    h = geo.horizontal(q, rng.uniform(-1.0, 1.0, q.shape))
    assert size(geo.horizontal(q, h) - h) <= TOL
    assert size(geo.horizontal(q, reeb)) <= TOL
    assert size(alpha(h)) <= TOL
    jh = geo.j(h)
    assert size(geo.j(jh) + h) <= TOL
    assert size(np.linalg.norm(jh, axis=-1) - np.linalg.norm(h, axis=-1)) <= TOL
    assert size(geo.horizontal(q, jh) - jh) <= TOL
    assert size(alpha(jh)) <= TOL
