"""Randomised identity checks shared by the test suite and the CLI verifier.

Each check function returns a :class:`CheckResult`; the verify command runs
the whole battery with one seed and reports per-check worst errors.  The
frame-manifold checks draw stacked (n, 8) frames and vectors and call the
:class:`~legsurf.fields.FrameTarget` methods the package runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import fields, heisenberg as hs, stiefel as st
from .fields import STIEFEL
from .polynomials import random_polynomial


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return bool(self.max_error <= self.tolerance)

    def to_json(self):
        return {
            "name": self.name,
            "max_error": float(self.max_error),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# contactomorphism oracle


def euler_flow_alpha(target, q, x, field_fn, tau, delta=1e-5):
    """alpha on the transported test vector after one Euler step of the field.

    The flow map is the single explicit Euler step (with re-retraction); the
    test vector is pushed forward by central differences of that map.  For a
    field whose flow preserves ker alpha the result is O(tau^2); for a generic
    field it is O(tau).
    """
    geo = fields.geometry(target)

    def step(p):
        return geo.move(p, tau * field_fn(p))

    q_tau = step(q)
    xp = step(geo.move(q, delta * x))
    xm = step(geo.move(q, -delta * x))
    x_tau = (xp - xm) / (2.0 * delta)
    return float(geo.alpha(q_tau, x_tau))


def lie_derivative_fd(target, q, x, field_fn, tau=1e-4, delta=1e-5):
    """Central finite-difference Lie derivative (L_X alpha)(x) along the flow."""
    vp = euler_flow_alpha(target, q, x, field_fn, tau, delta)
    vm = euler_flow_alpha(target, q, x, field_fn, -tau, delta)
    return (vp - vm) / (2.0 * tau)


def polynomial_scale(poly, q):
    """Size proxy for a polynomial Hamiltonian near q: value, gradient, Hessian."""
    value, g = poly.value_and_grad(q)
    h = poly.hess(q)
    return max(1.0, abs(float(value)), float(np.linalg.norm(g)), float(np.linalg.norm(h)))


def hamiltonian_lie_defects(target, rng, n_cases=25, convention="thm1", tau=1e-4):
    """Scale-relative Lie-derivative defects for random polynomial Hamiltonians."""
    geo = fields.geometry(target)
    out = []
    for _ in range(n_cases):
        q = geo.random_point(rng)
        poly = random_polynomial(rng, q.size, degree=3, n_terms=10)
        x = geo.random_horizontal(rng, q)

        def field(p, poly=poly):
            return geo.hamiltonian_field(*poly.value_and_grad(p), p, convention)

        val = lie_derivative_fd(target, q, x, field, tau=tau)
        out.append(abs(val) / polynomial_scale(poly, q))
    return np.asarray(out)


def flow_order_slopes(target, rng, n_cases=8, convention="thm1"):
    """Fitted tau-slopes of the Euler-flow alpha defect.

    Returns (hamiltonian_slopes, generic_slopes): the first should sit near 2,
    the second near 1.
    """
    geo = fields.geometry(target)
    taus = np.array([1e-2, 3e-3, 1e-3, 3e-4])
    ham, gen = [], []
    for _ in range(n_cases):
        q = geo.random_point(rng)
        poly = random_polynomial(rng, q.size, degree=3, n_terms=10)
        x = geo.random_horizontal(rng, q)

        def field(p, poly=poly):
            return geo.hamiltonian_field(*poly.value_and_grad(p), p, convention)

        const = rng.standard_normal(q.size)

        def generic(p, const=const):
            return geo.tangent(p, const)

        vals_h = np.array([abs(euler_flow_alpha(target, q, x, field, t)) for t in taus])
        vals_g = np.array([abs(euler_flow_alpha(target, q, x, generic, t)) for t in taus])
        ham.append(fit_loglog_slope(taus, vals_h))
        gen.append(fit_loglog_slope(taus, vals_g))
    return np.asarray(ham), np.asarray(gen)


def fit_loglog_slope(x, y, floor=1e-13):
    """Least-squares slope of log y against log x, guarding tiny values."""
    x = np.asarray(x, float)
    y = np.maximum(np.abs(np.asarray(y, float)), floor)
    if np.all(y <= floor):
        return np.inf
    lx, ly = np.log(x), np.log(y)
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# the identity battery, on stacked (n, 8) frames and vectors of the frame target


def random_vectors(rng, n):
    """n stacked R^8 vectors: the n first halves are drawn, then the n second halves."""
    return np.concatenate(rng.standard_normal((2, n, 4)), axis=1)


def random_frames(rng, n):
    """n random frames: the polar factors of n drawn raw frames."""
    return STIEFEL.move(random_vectors(rng, n), 0.0)


def random_horizontal(rng, q):
    """The horizontal projections of drawn vectors at the stacked frames q."""
    return STIEFEL.horizontal(q, random_vectors(rng, len(q)))


def _dot(x, y):
    """Row dot products of stacked R^8 vectors, each half's products added first."""
    return np.sum(x[..., :4] * y[..., :4] + x[..., 4:] * y[..., 4:], axis=-1)


def _d_alpha(x, y):
    return st.d_alpha_pairs(x[..., :4], x[..., 4:], y[..., :4], y[..., 4:])


def d_alpha_fd_batch(q, x, y, step=1e-4):
    """Finite-difference exterior derivative d alpha(X, Y) over stacked inputs.

    Extends X, Y as constant vectors, probes along retracted paths with
    central differences, and evaluates alpha at the probes.
    """

    def probe(d, o):
        plus, minus = STIEFEL.move(q, step * d), STIEFEL.move(q, -step * d)
        return (STIEFEL.alpha(plus, o) - STIEFEL.alpha(minus, o)) / (2.0 * step)

    return probe(x, y) - probe(y, x)


def volume_sign_fast(q, e1, e2):
    """Collapsed alpha ^ dalpha ^ dalpha on (R, e1, J e1, e2, J e2), batched.

    Uses alpha(e_i) = 0 and dalpha(R, .) = 0 so only the Reeb slot carries
    alpha, leaving alpha(R) * (dalpha ^ dalpha) on the horizontal 4-tuple.
    """
    j1, j2 = STIEFEL.j(e1), STIEFEL.j(e2)
    quad = 2.0 * (
        _d_alpha(e1, j1) * _d_alpha(e2, j2)
        - _d_alpha(e1, e2) * _d_alpha(j1, j2)
        + _d_alpha(e1, j2) * _d_alpha(j1, e2)
    )
    return STIEFEL.alpha(q, STIEFEL.reeb(q)) * quad


def legendrian_planes(rng, n, min_norm):
    """Frames q with orthonormal horizontal pairs (e1, e2), e2 also normal to
    J e1; drops the frames where e2's part off span(e1, J e1) has norm <= min_norm."""
    q = random_frames(rng, n)
    e1 = random_horizontal(rng, q)
    e1 = e1 / np.sqrt(_dot(e1, e1))[..., None]
    e2 = random_horizontal(rng, q)
    for basis in (e1, STIEFEL.j(e1)):
        e2 = e2 - (_dot(e2, basis) / _dot(basis, basis))[..., None] * basis
    nrm2 = np.sqrt(_dot(e2, e2))
    keep = nrm2 > min_norm
    return q[keep], e1[keep], e2[keep] / nrm2[keep, None]


def check_alpha_reeb(rng, n=10_000):
    q = random_frames(rng, n)
    err = np.max(np.abs(STIEFEL.alpha(q, STIEFEL.reeb(q)) + 2.0))
    return CheckResult("alpha_of_reeb", float(err), 1e-12)


def check_jh_involution(rng, n=10_000, jh_fn=None):
    jh_fn = jh_fn or STIEFEL.j
    x = random_horizontal(rng, random_frames(rng, n))
    err = np.max(np.abs(jh_fn(jh_fn(x)) + x))
    return CheckResult("jh_involution", float(err), 1e-12)


def check_jh_isometry(rng, n=10_000):
    x = random_horizontal(rng, random_frames(rng, n))
    jx = STIEFEL.j(x)
    err = np.max(np.abs(_dot(jx, jx) - _dot(x, x)))
    return CheckResult("jh_isometry", float(err), 1e-12)


def check_hopf_isometry(rng, n=10_000):
    q = random_frames(rng, n)
    x = random_horizontal(rng, q)
    plus, minus = st.hopf_push_raw(q[..., :4], q[..., 4:], x[..., :4], x[..., 4:])
    pushed = np.sum(plus * plus, axis=-1) + np.sum(minus * minus, axis=-1)
    err = np.max(np.abs(pushed - _dot(x, x)))
    return CheckResult("hopf_push_isometry", float(err), 1e-10)


def check_d_alpha_fd(rng, n=10_000):
    q = random_frames(rng, n)
    x, y = random_horizontal(rng, q), random_horizontal(rng, q)
    err = np.max(np.abs(d_alpha_fd_batch(q, x, y) - _d_alpha(x, y)))
    return CheckResult("d_alpha_finite_difference", float(err), 1e-5)


def check_covariant_reeb(rng, n=10_000):
    x = random_horizontal(rng, random_frames(rng, n))
    # R is linear in q, so nabla_x R = reeb(x), which must equal -J x.
    err = np.max(np.abs(STIEFEL.reeb(x) + STIEFEL.j(x)))
    return CheckResult("covariant_reeb_is_minus_jh", float(err), 1e-12)


def check_volume_sign(rng, n=10_000):
    vals = volume_sign_fast(*legendrian_planes(rng, n, 1e-6))
    same_sign = np.all(vals > 0) if vals[0] > 0 else np.all(vals < 0)
    return CheckResult("alpha_dalpha_dalpha_sign", 0.0 if same_sign else 1.0, 0.5)


def check_gauge_symmetry(rng, n=10_000):
    q1, q2 = random_frames(rng, n), random_frames(rng, n)
    _, _, r12 = STIEFEL.gauge_scalars(q1, q2)
    _, _, r21 = STIEFEL.gauge_scalars(q2, q1)
    return CheckResult("gauge_symmetry", float(np.max(np.abs(r12 - r21))), 1e-12)


def check_retract_oracle(rng, n=2_000):
    raw = random_vectors(rng, n)
    q = STIEFEL.move(raw, 0.0)
    m = np.stack([raw[:, :4], raw[:, 4:]], axis=-1)
    gram = np.swapaxes(m, -1, -2) @ m
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = evecs @ (evals[..., None] ** -0.5 * np.swapaxes(evecs, -1, -2))
    oracle = m @ inv_sqrt
    err = max(np.max(np.abs(q[:, :4] - oracle[..., 0])),
              np.max(np.abs(q[:, 4:] - oracle[..., 1])))
    return CheckResult("retract_polar_oracle", float(err), 1e-10)


def check_contactomorphism(rng, target, n_cases=20):
    vals = hamiltonian_lie_defects(target, rng, n_cases=n_cases)
    return CheckResult(f"{target}_contactomorphism", float(np.max(vals)), 1e-4)


def alpha_dalpha_dalpha(al, dal):
    """alpha ^ dalpha ^ dalpha on five vectors, by full antisymmetrisation.

    ``al`` (..., 5) holds alpha(X_i) and ``dal`` (..., 5, 5) holds
    dalpha(X_i, X_j) of five stacked vectors; the 120-term sum runs over
    permutations, each term over all points at once.
    """
    total = 0.0
    for p in permutations(range(5)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5))
        total = total + sign * al[..., p[0]] * dal[..., p[1], p[2]] * dal[..., p[3], p[4]]
    return total / 4.0  # 1! 2! 2!


def check_heisenberg_volume(rng, n=200):
    q = rng.uniform(-1.0, 1.0, size=(n, 5))
    basis = np.eye(5)
    al = hs.contact_form_h(q[:, None, :], basis)
    dal = 2.0 * hs.omega0(basis[:, None, 1:], basis[None, :, 1:])
    worst = np.min(np.abs(alpha_dalpha_dalpha(al, dal)))
    # alpha ^ dalpha ^ dalpha = -8 dphi dy1 dy2 dy3 dy4 everywhere.
    return CheckResult("heisenberg_nonintegrability", float(8.0 - worst), 1e-10)


def check_dilation_gauge(rng, n=500):
    q = rng.uniform(-2, 2, size=(n, 5))
    r = rng.uniform(0.1, 5.0, size=n)
    origin = np.zeros(5)
    _, _, g1 = hs.gauge_scalars(origin, hs.dilate(q, r))
    _, _, g0 = hs.gauge_scalars(origin, q)
    return CheckResult("dilation_scales_gauge", float(np.max(np.abs(g1 - g0 / r))), 1e-10)


def check_dilation_pullback(rng, n=200):
    """alpha(dilate_* X) = r^-2 alpha(X): the blow-up scaling of the form."""
    q = rng.uniform(-1.0, 1.0, size=(n, 5))
    x = rng.standard_normal((n, 5))
    r = rng.uniform(0.2, 4.0, size=n)
    # The dilation is linear, so it is its own push-forward.
    lhs = hs.contact_form_h(hs.dilate(q, r), hs.dilate(x, r))
    rhs = hs.contact_form_h(q, x) / r**2
    return CheckResult("dilation_alpha_scaling", float(np.max(np.abs(lhs - rhs))), 1e-10)


def identity_battery(seed, jh_fn=None):
    """The full battery; jh_fn lets the harness inject a broken copy."""
    rng = np.random.default_rng(seed)
    return [
        check_alpha_reeb(rng),
        check_jh_involution(rng, jh_fn=jh_fn),
        check_jh_isometry(rng),
        check_hopf_isometry(rng),
        check_d_alpha_fd(rng),
        check_covariant_reeb(rng),
        check_volume_sign(rng),
        check_gauge_symmetry(rng),
        check_retract_oracle(rng),
        check_contactomorphism(rng, fields.TARGET_HEISENBERG),
        check_contactomorphism(rng, fields.TARGET_STIEFEL),
        check_heisenberg_volume(rng),
        check_dilation_gauge(rng),
        check_dilation_pullback(rng),
    ]
