"""Exact dense linear algebra: rational kernels and the determinant oracle.

:func:`nullspace` computes kernels over the rationals by plain Gauss-Jordan
elimination.  :func:`det` is fraction-free Bareiss elimination, which only
ever divides by earlier pivots; those divisions are exact in any integral
domain, so it serves both the rational and the polynomial scalars.  No
package code path calls it: ``verma.shapovalov_det`` is a closed product,
and the tests use :func:`det` on the full Gram matrix as its independent
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["det", "nullspace"]


def det(rows, ring):
    """Determinant of a square matrix of ring elements (Bareiss)."""
    n = len(rows)
    if n == 0:
        return ring.one
    a = [list(r) for r in rows]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return ring.zero
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = ring.exact_div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
            a[i][k] = ring.zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def _normalize(vec):
    """Scale a rational vector to a primitive integer vector with positive
    leading entry (deterministic representative of its line)."""
    denom_lcm = 1
    for x in vec:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


def nullspace(rows, ncols):
    """Basis of the exact kernel of a rational matrix, one normalized vector
    per free column, in ascending free-column order."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []  # (row, col)
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in pivots:
            vec[col] = -m[row][free]
        basis.append(_normalize(vec))
    return basis
