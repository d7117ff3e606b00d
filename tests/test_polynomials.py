"""Polynomial Hamiltonians: input checks, immutability, and the planned
value-and-gradient kernel against per-term products and Richardson differences."""

import dataclasses
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

import reference_loops as ref
from legsurf import corpus
from legsurf.polynomials import Polynomial, random_polynomial


@pytest.mark.parametrize(
    "coeffs,exponents",
    [
        ([1.0], [[-1, 0]]),  # would index the power table from its end
        ([1.0], [[1.5, 0]]),  # would be truncated to x_0
        ([1.0, 2.0], [[1, 0]]),  # would broadcast the one term over both coefficients
        ([1.0], [[[1, 0]]]),  # 3-D exponents
        ([1.0, 2.0], [1, 0]),  # 1-D exponents
        ([[1.0]], [[1, 0]]),  # 2-D coefficients
    ],
)
def test_malformed_polynomial_rejected(coeffs, exponents):
    with pytest.raises(ValueError):
        Polynomial(coeffs, exponents)


def test_polynomial_is_immutable():
    coeffs, exponents = np.array([1.0, -2.0]), np.array([[1, 0], [0, 2]])
    poly = Polynomial(coeffs, exponents)
    for name in ("coeffs", "exponents"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(poly, name, getattr(poly, name).copy())
    with pytest.raises(ValueError):
        poly.exponents[0, 0] = 3
    with pytest.raises(ValueError):
        poly.coeffs[0] = 3.0
    # The polynomial holds copies: the caller's arrays stay writable and unshared.
    coeffs[0], exponents[0, 0] = 5.0, 2
    assert poly.coeffs[0] == 1.0 and poly.exponents[0, 0] == 1
    assert poly(np.array([2.0, 1.0])) == 0.0


def _points(draw, n_vars, shape):
    elements = hst.one_of(hst.floats(-3.0, 3.0), hst.sampled_from([0.0, -0.0]))
    return draw(arrays(np.float64, shape + (n_vars,), elements=elements))


@settings(max_examples=100, deadline=None)
@given(data=hst.data())
def test_value_and_grad_matches_per_term_products(data):
    n_vars = data.draw(hst.integers(1, 8), label="n_vars")
    degree = data.draw(hst.integers(0, 4), label="degree")
    n_terms = data.draw(hst.integers(0, 12), label="n_terms")
    exponents = data.draw(arrays(np.int64, (n_terms, n_vars), elements=hst.integers(0, degree)))
    coeffs = data.draw(arrays(np.float64, n_terms, elements=hst.floats(-10.0, 10.0)))
    poly = Polynomial(coeffs, exponents)
    shape = data.draw(hst.sampled_from([(), (1,), (7,), (2, 3)]), label="batch shape")
    x = _points(data.draw, n_vars, shape)
    value, grad = poly.value_and_grad(x)
    ref.assert_polynomial_close(poly, x, value, grad)
    assert np.asarray(value).shape == shape and grad.shape == x.shape
    assert isinstance(value, np.float64) == (shape == ())  # a scalar at one point, as np.sum gives
    assert np.array_equal(poly(x), value) and np.array_equal(poly.grad(x), grad)


def _richardson(f, x, t1=1e-2, t2=5e-3):
    """Central differences of f along each coordinate at x, Richardson-extrapolated
    in t**2: exact up to rounding for polynomials of degree at most 4."""

    def central(t):
        step = t * np.eye(len(x))
        return np.stack([(f(x + s) - f(x - s)) / (2 * t) for s in step], axis=-1)

    return (t1**2 * central(t2) - t2**2 * central(t1)) / (t1**2 - t2**2)


@pytest.mark.parametrize("n_vars", [1, 2, 5, 8])
def test_gradient_and_hessian_match_richardson_differences(n_vars):
    rng = np.random.default_rng(n_vars)
    for degree in range(5):
        poly = random_polynomial(rng, n_vars, degree=degree, n_terms=10)
        x = rng.uniform(-1.5, 1.5, n_vars)
        # bounds the terms of the value and of its first and second derivatives
        abs_poly = Polynomial(np.abs(poly.coeffs), poly.exponents)
        scale = 1.0 + ref.polynomial_value(abs_poly, np.abs(x) + 1.0)
        assert np.max(np.abs(poly.grad(x) - _richardson(poly, x))) <= 1e-9 * scale
        fd_hess = _richardson(poly.grad, x)  # row i differentiates along x_i
        assert np.max(np.abs(poly.hess(x) - fd_hess.T)) <= 1e-8 * scale


def test_hessian_builds_its_partials_once(monkeypatch):
    plans = []
    plan = Polynomial._plan.func

    def counting(self):
        plans.append(1)
        return plan(self)

    counted = cached_property(counting)
    counted.__set_name__(Polynomial, "_plan")
    monkeypatch.setattr(Polynomial, "_plan", counted)
    rng = np.random.default_rng(11)
    poly = random_polynomial(rng, 5, degree=4, n_terms=10)
    x, y = rng.uniform(-1.5, 1.5, (2, 5))
    first = poly.hess(x)
    built = len(plans)
    assert 0 < built <= poly.n_vars
    second = poly.hess(y)
    assert len(plans) == built  # no partial and no plan built again
    assert np.array_equal(poly.hess(x), first)
    abs_poly = Polynomial(np.abs(poly.coeffs), poly.exponents)
    scale = 1.0 + ref.polynomial_value(abs_poly, np.abs(y) + 1.0)
    assert np.max(np.abs(second - _richardson(poly.grad, y).T)) <= 1e-8 * scale


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_gauge_bump_is_the_four_variable_draw_shifted(seed):
    """The flat-model Hamiltonian is the random 4-variable polynomial, lifted to
    five variables with no dependence on the Legendrian coordinate x_0."""
    rng_bump, rng_four = np.random.default_rng(seed), np.random.default_rng(seed)
    bump = corpus._gauge_bump_hamiltonian(rng_bump, 0.7)
    four = random_polynomial(rng_four, 4, degree=3, n_terms=8, scale=0.7)
    assert np.array_equal(bump.coeffs, four.coeffs)
    assert np.array_equal(bump.exponents[:, 0], np.zeros(8, int))
    assert np.array_equal(bump.exponents[:, 1:], four.exponents)
    assert rng_bump.random() == rng_four.random()  # the same draws, no more
