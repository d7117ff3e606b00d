"""Randomised identity checks shared by the test suite and the CLI verifier.

Each check function returns a :class:`CheckResult`; the verify command runs
the whole battery with one seed and reports per-check worst errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import fields, heisenberg as hs, stiefel as st
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
# the identity battery


def check_alpha_reeb(rng, n=10_000):
    a, b = st.random_points_raw(rng, n)
    rv, rw = st.reeb_raw(a, b)
    err = np.max(np.abs(st.alpha_raw(a, b, rv, rw) + 2.0))
    return CheckResult("alpha_of_reeb", float(err), 1e-12)


def check_jh_involution(rng, n=10_000, jh_fn=None):
    jh_fn = jh_fn or st.jh_raw
    a, b = st.random_points_raw(rng, n)
    v, w = st.random_horizontal_raw(rng, a, b)
    jv, jw = jh_fn(v, w)
    jjv, jjw = jh_fn(jv, jw)
    err = max(np.max(np.abs(jjv + v)), np.max(np.abs(jjw + w)))
    return CheckResult("jh_involution", float(err), 1e-12)


def check_jh_isometry(rng, n=10_000):
    a, b = st.random_points_raw(rng, n)
    v, w = st.random_horizontal_raw(rng, a, b)
    jv, jw = st.jh_raw(v, w)
    err = np.max(
        np.abs(np.sum(jv * jv + jw * jw, axis=-1) - np.sum(v * v + w * w, axis=-1))
    )
    return CheckResult("jh_isometry", float(err), 1e-12)


def check_hopf_isometry(rng, n=10_000):
    a, b = st.random_points_raw(rng, n)
    v, w = st.random_horizontal_raw(rng, a, b)
    plus, minus = st.hopf_push_raw(a, b, v, w)
    pushed = np.sum(plus * plus, axis=-1) + np.sum(minus * minus, axis=-1)
    err = np.max(np.abs(pushed - np.sum(v * v + w * w, axis=-1)))
    return CheckResult("hopf_push_isometry", float(err), 1e-10)


def check_d_alpha_fd(rng, n=10_000):
    a, b = st.random_points_raw(rng, n)
    xv, xw = st.random_horizontal_raw(rng, a, b)
    yv, yw = st.random_horizontal_raw(rng, a, b)
    fd = st.d_alpha_fd_batch(a, b, xv, xw, yv, yw)
    err = np.max(np.abs(fd - st.d_alpha_raw(xv, xw, yv, yw)))
    return CheckResult("d_alpha_finite_difference", float(err), 1e-5)


def check_covariant_reeb(rng, n=10_000):
    a, b = st.random_points_raw(rng, n)
    v, w = st.random_horizontal_raw(rng, a, b)
    dv, dw = st.covariant_reeb_raw(v, w)
    jv, jw = st.jh_raw(v, w)
    # nabla_Z R must equal -J_H Z.
    err = max(np.max(np.abs(dv + jv)), np.max(np.abs(dw + jw)))
    return CheckResult("covariant_reeb_is_minus_jh", float(err), 1e-12)


def check_volume_sign(rng, n=10_000):
    a, b = st.random_points_raw(rng, n)
    e1v, e1w = st.random_horizontal_raw(rng, a, b)
    nrm = np.sqrt(np.sum(e1v**2 + e1w**2, axis=-1))[..., None]
    e1v, e1w = e1v / nrm, e1w / nrm
    j1v, j1w = st.jh_raw(e1v, e1w)
    e2v, e2w = st.random_horizontal_raw(rng, a, b)
    for bv, bw in ((e1v, e1w), (j1v, j1w)):
        coef = (np.sum(e2v * bv + e2w * bw, axis=-1) / np.sum(bv * bv + bw * bw, axis=-1))[
            ..., None
        ]
        e2v = e2v - coef * bv
        e2w = e2w - coef * bw
    nrm2 = np.sqrt(np.sum(e2v**2 + e2w**2, axis=-1))[..., None]
    keep = nrm2[..., 0] > 1e-6
    e2v, e2w = e2v / nrm2, e2w / nrm2
    vals = st.volume_sign_fast(a[keep], b[keep], e1v[keep], e1w[keep], e2v[keep], e2w[keep])
    same_sign = np.all(vals > 0) if vals[0] > 0 else np.all(vals < 0)
    err = 0.0 if same_sign else 1.0
    return CheckResult("alpha_dalpha_dalpha_sign", err, 0.5)


def check_gauge_symmetry(rng, n=10_000):
    a1, b1 = st.random_points_raw(rng, n)
    a2, b2 = st.random_points_raw(rng, n)
    _, _, r12 = st.gauge_scalars(a1, b1, a2, b2)
    _, _, r21 = st.gauge_scalars(a2, b2, a1, b1)
    return CheckResult("gauge_symmetry", float(np.max(np.abs(r12 - r21))), 1e-12)


def check_retract_oracle(rng, n=2_000):
    a_raw = rng.standard_normal((n, 4))
    b_raw = rng.standard_normal((n, 4))
    a, b = st.retract_raw(a_raw, b_raw)
    m = np.stack([a_raw, b_raw], axis=-1)
    gram = np.swapaxes(m, -1, -2) @ m
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = evecs @ (evals[..., None] ** -0.5 * np.swapaxes(evecs, -1, -2))
    q = m @ inv_sqrt
    err = max(np.max(np.abs(a - q[..., 0])), np.max(np.abs(b - q[..., 1])))
    return CheckResult("retract_polar_oracle", float(err), 1e-10)


def check_heisenberg_contactomorphism(rng, n_cases=20):
    vals = hamiltonian_lie_defects(fields.TARGET_HEISENBERG, rng, n_cases=n_cases)
    return CheckResult("heisenberg_contactomorphism", float(np.max(vals)), 1e-4)


def check_stiefel_contactomorphism(rng, n_cases=20):
    vals = hamiltonian_lie_defects(fields.TARGET_STIEFEL, rng, n_cases=n_cases)
    return CheckResult("stiefel_contactomorphism", float(np.max(vals)), 1e-4)


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
        check_heisenberg_contactomorphism(rng),
        check_stiefel_contactomorphism(rng),
        check_heisenberg_volume(rng),
        check_dilation_gauge(rng),
        check_dilation_pullback(rng),
    ]
