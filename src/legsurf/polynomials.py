"""Sparse polynomials in ambient coordinates, with analytic derivatives.

Used as test Hamiltonians: they are cheap to evaluate, smooth, and their
gradient and Hessian are exact, which keeps finite-difference oracles honest.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Polynomial:
    """sum_k coeffs[k] * prod_i x_i ** exponents[k, i]; frozen, with read-only
    arrays, so the evaluation plan it caches cannot go stale."""

    coeffs: np.ndarray  # (n_terms,)
    exponents: np.ndarray  # (n_terms, n_vars) nonnegative ints

    def __post_init__(self):
        coeffs, exponents = np.array(self.coeffs, float), np.array(self.exponents, int)
        if exponents.ndim != 2 or coeffs.shape != exponents.shape[:1]:
            raise ValueError(f"need (n_terms,) coeffs and (n_terms, n_vars) exponents, "
                             f"got {coeffs.shape} and {exponents.shape}")
        if np.any(exponents < 0) or np.any(exponents != np.asarray(self.exponents)):
            raise ValueError("exponents must be nonnegative integers")
        for name, a in (("coeffs", coeffs), ("exponents", exponents)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_vars(self):
        return self.exponents.shape[1]

    def _power_table(self, x):
        """(degree * n_vars, points) table whose row (e - 1) * n_vars + i holds
        x_i ** e at the points x (..., n_vars), by repeated multiplication."""
        xt = np.asarray(x, float).reshape(-1, self.n_vars).T
        table = np.empty((int(self.exponents.max(initial=0)), self.n_vars, xt.shape[1]))
        table[:1] = xt
        for e in range(1, len(table)):
            np.multiply(table[e - 1], xt, out=table[e])
        return table.reshape(-1, xt.shape[1])

    @cached_property
    def _plan(self):
        """The distinct monomials of self and of its partials, with the power-table
        rows of their factors and a (monomials, 1 + n_vars) coefficient matrix.

        Column 0 holds the coefficients of self, column 1 + i those of d/dx_i.
        Monomials run from most to fewest factors (variables used), so factor
        j of the first len(rows[j]) of them is table[rows[j]]; x ** 0 is never gathered.
        """
        n, e = self.n_vars, self.exponents
        weight = np.hstack([np.ones((len(e), 1), int), e])  # self, then each partial's factor
        term, group = np.nonzero(weight)
        stacked = e[term] - np.eye(n + 1, n, -1, dtype=int)[group]
        order = np.lexsort((*stacked.T, -np.count_nonzero(stacked, axis=1)))  # most factors first
        stacked, term, group = stacked[order], term[order], group[order]
        first = np.ones(len(stacked), bool)  # first of a run of equal monomials
        first[1:] = np.any(stacked[1:] != stacked[:-1], axis=1)
        monomials = stacked[first]
        coef = np.bincount((np.cumsum(first) - 1) * (1 + n) + group, self.coeffs[term] * weight[term, group],
                           len(monomials) * (1 + n)).reshape(-1, 1 + n)
        m, v = np.nonzero(monomials)
        j = np.arange(len(m)) - np.searchsorted(m, m)  # m's factor j is x_v ** monomials[m, v]
        row = (monomials[m, v] - 1) * n + v
        return [row[j == k] for k in range(j.max(initial=-1) + 1)], coef

    def value_and_grad(self, x):
        """(h, grad h) at points x (..., n_vars): one power table, one gather and
        product per factor, one contraction with the coefficient matrix."""
        x = np.asarray(x, float)
        rows, coef = self._plan
        table = self._power_table(x)
        mono = np.ones((len(coef), table.shape[1]))
        for r in rows:  # 1.0 * x == x, so the first factor lands unchanged
            mono[: len(r)] *= table[r]
        out = coef.T @ mono  # (1 + n_vars, points)
        return out[0].reshape(x.shape[:-1])[()], out[1:].T.reshape(x.shape)

    def __call__(self, x):
        return self.value_and_grad(x)[0]

    def grad(self, x):
        return self.value_and_grad(x)[1]

    def partial(self, i):
        """The polynomial d/dx_i of self."""
        keep = self.exponents[:, i] > 0
        return Polynomial(self.coeffs[keep] * self.exponents[keep, i],
                          self.exponents[keep] - np.eye(self.n_vars, dtype=int)[i])

    @cached_property
    def _partials(self):
        """The partials d/dx_i, built once, so each keeps its own plan."""
        return tuple(self.partial(i) for i in range(self.n_vars))

    def hess(self, x):
        """(..., n_vars, n_vars) Hessian; row i is the gradient of d/dx_i."""
        return np.stack([p.grad(x) for p in self._partials], axis=-2)


def random_polynomial(rng, n_vars, degree=3, n_terms=12, scale=1.0):
    """A random sparse polynomial of total degree <= degree."""
    exps = np.zeros((n_terms, n_vars), int)
    for e in exps:
        for _ in range(int(rng.integers(0, degree + 1))):
            e[int(rng.integers(0, n_vars))] += 1
    return Polynomial(scale * rng.uniform(-1.0, 1.0, size=n_terms), exps)
