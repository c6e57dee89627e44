"""Reference kernel for the tests: the dense action matrices and plain
Gauss-Jordan elimination over the rationals.

``dense_nullspace`` puts the matrix in reduced row echelon form and returns
one normalized kernel vector per free column, in ascending free-column order.
``action_rows`` writes the action of one generator from level n to its
target level as a dense matrix in the canonical bases, from the per-point
recursion of ``naive_action``.  Together they give the singular vectors the
slow, obvious way, sharing neither the point-free tables, nor the scaled
evaluation, nor the normalization of ``w22``; ``w22.linalg.nullspace`` on
the sparse action images must give the same list.  ``dense_nilpotency_degree``
finds the nilpotency degree of ``I(0) - c0`` by dense matrix powers.
``det`` is fraction-free Bareiss elimination, the oracle for the closed-form
``shapovalov_det`` on the full Gram matrix.  ``is_symmetric`` checks a
square matrix against its transpose.
"""

from fractions import Fraction
from math import gcd

from naive_action import naive_image
from w22.verma import level_basis


def normalize(vec):
    """A nonzero rational vector scaled to the primitive integer vector with
    positive leading entry on its line, as Fractions."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if next(x for x in ints if x) < 0:
        g = -g
    return [Fraction(x // g) for x in ints]


def action_rows(g, n, p, max_level):
    """Rows of the matrix of g: level n -> level n - weight(g), from the
    per-point recursion of ``naive_action``."""
    src = level_basis(n, max_level)
    tgt_level = n - g.weight
    if tgt_level < 0:
        return []
    tgt = level_basis(tgt_level, max_level)
    index = {b: i for i, b in enumerate(tgt)}
    columns = []
    for b in src:
        col = [p.ring.zero] * len(tgt)
        for mono, coef in naive_image(g, b, p).items():
            col[index[mono]] = coef
        columns.append(col)
    return [[columns[j][i] for j in range(len(src))] for i in range(len(tgt))]


def dense_nullspace(rows, ncols):
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
        basis.append(normalize(vec))
    return basis


def dense_nilpotency_degree(entries, c0, ring, bound):
    """The smallest e <= bound with (entries - c0)^e = 0, by dense matrix
    powers: the reference for the operator-applying i0_matrix."""
    dim = len(entries)
    shifted = [[x - c0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(entries)]
    power = shifted
    for e in range(1, bound + 1):
        if not any(x for row in power for x in row):
            return e
        power = [
            [sum((row[t] * shifted[t][j] for t in range(dim)), ring.zero) for j in range(dim)]
            for row in power
        ]
    return None


def det(rows, ring):
    """Determinant of a square matrix of ring elements (Bareiss).  It only
    ever divides by an earlier pivot, which is exact in any integral domain:
    ``/`` on rationals, ``Poly.exact_div`` on polynomials."""
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
                x = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = x / prev if ring.is_field else ring.coerce(x).exact_div(prev)
            a[i][k] = ring.zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def is_symmetric(entries):
    """Whether the square matrix ``entries`` equals its transpose."""
    n = len(entries)
    return all(entries[i][j] == entries[j][i] for i in range(n) for j in range(i + 1, n))
