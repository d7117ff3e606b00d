"""Sparse polynomials in ambient coordinates, with analytic derivatives.

Used as test Hamiltonians: they are cheap to evaluate, smooth, and their
gradient and Hessian are exact, which keeps finite-difference oracles honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Polynomial:
    """sum_k coeffs[k] * prod_i x_i ** exponents[k, i]."""

    coeffs: np.ndarray
    exponents: np.ndarray  # (n_terms, n_vars) nonnegative ints

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, float)
        self.exponents = np.asarray(self.exponents, int)

    @property
    def n_vars(self):
        return self.exponents.shape[1]

    def _power_table(self, x):
        """(..., n_vars, degree + 1) table of x_i ** 0..degree, by repeated multiplication."""
        x = np.asarray(x, float)
        table = np.empty(x.shape + (int(self.exponents.max(initial=0)) + 1,))
        table[..., 0] = 1.0
        for e in range(1, table.shape[-1]):
            table[..., e] = table[..., e - 1] * x
        return table

    @staticmethod
    def _monomials(table, exponents):
        """(..., n_terms) prod_i x_i ** exponents[k, i] from the table.

        Each term multiplies, left to right over i, the powers of the
        variables it uses (exponent > 0), all gathered at once; a term using
        fewer variables than the widest term is padded with x ** 0 = 1.0, and
        one using none is 1.0.  As x ** 0 is exactly 1.0 and x * 1.0 == x, the
        result is bitwise the product over every i.  The products run in the
        gather's memory order; the result is C order, so that sums over terms
        round alike.
        """
        used = exponents > 0
        width = max(int(used.sum(axis=1).max(initial=0)), 1)
        var = np.argsort(~used, axis=1, kind="stable")[:, :width]  # used variables first, in order
        col = var * table.shape[-1] + exponents[np.arange(len(exponents))[:, None], var]
        factors = table.reshape(table.shape[:-2] + (-1,))[..., col.T]  # (..., width, n_terms)
        out = factors[..., 0, :].copy(order="K")
        for j in range(1, width):
            out *= factors[..., j, :]
        return np.ascontiguousarray(out)

    def __call__(self, x):
        return np.sum(self.coeffs * self._monomials(self._power_table(x), self.exponents), axis=-1)

    def grad(self, x):
        table = self._power_table(x)
        out = np.zeros(table.shape[:-1])
        for i in range(self.n_vars):
            e = self.exponents[:, i]
            mask = e > 0
            if not np.any(mask):
                continue
            exps = self.exponents[mask].copy()
            exps[:, i] -= 1
            out[..., i] = np.sum(
                self.coeffs[mask] * e[mask] * self._monomials(table, exps), axis=-1
            )
        return out

    def partial(self, i):
        """The polynomial d/dx_i of self."""
        e = self.exponents[:, i]
        mask = e > 0
        exps = self.exponents[mask].copy()
        exps[:, i] -= 1
        return Polynomial(self.coeffs[mask] * e[mask], exps)

    def hess(self, x):
        n = self.n_vars
        out = np.zeros(np.shape(x)[:-1] + (n, n))
        for i in range(n):
            pi = self.partial(i)
            if pi.coeffs.size:
                out[..., i, :] = pi.grad(x)
        return out


def random_polynomial(rng, n_vars, degree=3, n_terms=12, scale=1.0):
    """A random sparse polynomial of total degree <= degree."""
    exps = []
    for _ in range(n_terms):
        total = int(rng.integers(0, degree + 1))
        e = np.zeros(n_vars, int)
        for _ in range(total):
            e[int(rng.integers(0, n_vars))] += 1
        exps.append(e)
    exps = np.asarray(exps, int)
    coeffs = scale * rng.uniform(-1.0, 1.0, size=len(exps))
    return Polynomial(coeffs, exps)
