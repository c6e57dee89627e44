"""Exact linear algebra: a sparse rational kernel and the determinant oracle.

:func:`nullspace` computes kernels over the rationals by sparse column
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

from .algebra import _accumulate

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


def nullspace(columns):
    """Basis of the exact kernel of the matrix whose columns are the sparse
    dicts ``key -> nonzero coefficient``, as from the reduced row echelon
    form: one normalized vector per column that depends on the earlier ones.
    Each independent column is kept scaled to 1 at its pivot, its least key,
    with the combination of columns it stands for.  A new column is reduced
    at its least key while that key is a pivot; what is left is zero or
    independent."""
    pivots = {}  # least key -> (reduced column, its combination of columns)
    basis = []
    for j, column in enumerate(columns):
        vec = dict(column)
        combo = {j: Fraction(1)}
        while vec:
            key = min(vec)
            if key not in pivots:
                inv = 1 / Fraction(vec[key])
                pivots[key] = ({k: c * inv for k, c in vec.items()}, {i: c * inv for i, c in combo.items()})
                break
            reduced, origin = pivots[key]
            factor = -vec[key]
            _accumulate(vec, reduced.items(), factor)
            _accumulate(combo, origin.items(), factor)
        else:
            basis.append(_normalize([combo.get(i, 0) for i in range(len(columns))]))
    return basis
