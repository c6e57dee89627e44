"""Verma modules M(lambda, c, c0, c1) for the W(2,2) algebra.

The highest weight vector v satisfies ``L(k) v = I(k) v = 0`` for k > 0,
``L(0) v = lambda v``, ``I(0) v = c0 v``, and the central elements act as the
scalars c and c1.  Level n is the weight space of L(0)-weight ``lambda - n``;
its basis is indexed by pairs of partitions (one for the I modes, one for the
L modes) of total size n.  A basis element is its PBW normal word
``I(-j1)..I(-jr) L(-k1)..L(-ks)``, a tuple of generators standing for that
word applied to v; the empty word ``()`` is v itself.

The generator action is computed by straightening, with one rule: g moves
right through a basis word ``h t`` by ``g h t v = h (g t v) + [g, h] t v``.
It stops where it meets the highest weight vector, or, for a negative mode,
where ``g h t`` is already a PBW normal word, since the basis words are
exactly the normal words of U(n-).  Only the meeting with v brings in a
parameter, so the image of a basis word is affine in (lambda, c, c0,
c1): it is built once as a point-free table, with int coefficients on the
slots 1, lambda, c/12, c0 and c1/12, and evaluated at the point of each
call.  At a rational point the slot values are scaled by the lcm D of their
denominators, so the work is in ints and each output entry is divided
once; at a polynomial point D is 1.  The contravariant form is built level
by level from the levels below.  Everything is exact, and works
identically over rational parameters and over the symbolic polynomial ring
in (lambda, c, c0, c1), apart from the singular search and the first
degenerate level, which take rational points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from typing import Optional

from . import linalg
from .algebra import Generator, I, L, _format_word, bracket_gen
from .scalars import _ONE, PARAM_POLYS, QQ, Combination, _accumulate, _binary_form, _integer_terms

__all__ = [
    "DEFAULT_MAX_LEVEL",
    "LevelBoundError",
    "HWParams",
    "VermaVector",
    "partitions",
    "level_basis",
    "act",
    "GramMatrix",
    "gram_matrix",
    "shapovalov_det",
    "SingularVector",
    "singular_vectors",
    "is_reducible",
    "I0Report",
    "i0_matrix",
    "first_degenerate_level",
]

#: Default bound on the level of any weight space that is materialised.
DEFAULT_MAX_LEVEL = 8


class LevelBoundError(ValueError):
    """A requested level exceeded the configured bound."""


@dataclass(frozen=True)
class HWParams:
    """Highest weight data (lambda, c, c0, c1) over a scalar ring."""

    lam: object
    c: object
    c0: object
    c1: object
    ring: object

    @classmethod
    def rational(cls, lam, c, c0, c1) -> "HWParams":
        """Exact rational parameter point."""
        q = QQ.coerce
        return cls(q(lam), q(c), q(c0), q(c1), QQ)

    @classmethod
    def symbolic(cls) -> "HWParams":
        """Generic parameters: the four polynomial indeterminates."""
        P = PARAM_POLYS
        return cls(P.lam, P.c, P.c0, P.c1, P)


def partitions(n: int, max_part: Optional[int] = None):
    """All partitions of n as nonincreasing tuples, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def level_basis(n: int, max_level: int = DEFAULT_MAX_LEVEL):
    """The canonical ordered basis of level n: its normal words in
    ascending order, as tuples of generators.  For n = 2 it reads I(-2),
    I(-1)I(-1), I(-1)L(-1), L(-2), L(-1)L(-1).
    """
    _check_level(n, max_level)
    return list(_sorted_basis(n))


@lru_cache(maxsize=None)
def _sorted_basis(n: int) -> tuple:
    """The level-n basis, the word ``I(-mu) L(-nu)`` of every two-coloured
    partition (mu, nu) of n, sorted once per level.  Letters compare as
    their canonical keys, I before L and ``I(-j)`` before ``I(-j + 1)``, so
    this is the descending order of the pairs (mu, nu)."""
    pairs = ((mu, nu) for s in range(n + 1) for mu in partitions(s) for nu in partitions(n - s))
    return tuple(sorted(tuple(I(-j) for j in mu) + tuple(L(-k) for k in nu) for mu, nu in pairs))


def _check_level(n: int, max_level: int) -> None:
    if n < 0 or n > max_level:
        raise LevelBoundError(f"level {n} outside [0, {max_level}]")


class VermaVector(Combination):
    """A homogeneous element of one level, as coordinates over the basis.

    The words fix the level, so equality and hash read only ``terms``;
    ``level`` places a zero vector."""

    __slots__ = ("level",)

    def __init__(self, level: int, terms=None):
        super().__init__(terms)
        self.level = level

    def _with(self, terms) -> "VermaVector":
        return VermaVector(self.level, terms)

    def _add(self, other: "VermaVector", factor) -> "VermaVector":
        if self.terms and other.terms and self.level != other.level:
            raise ValueError("cannot add vectors of different levels")
        return Combination._add(self, other, factor)

    @staticmethod
    def _format(word) -> str:
        return f"[{_format_word(word)}]v"


#: The slots of a point-free table term: the constant 1, or the parameter
#: whose value multiplies the term's coefficient.  The central slots hold
#: c/12 and c1/12, so that every coefficient is an int.
SLOTS = (1, "lam", "c/12", "c0", "c1/12")
_CENTRAL_SLOTS = {"C": "c/12", "C1": "c1/12"}
_TWELFTH = Fraction(1, 12)


@lru_cache(maxsize=None)
def _act_on_monomial(g: Generator, mono: tuple):
    """Point-free image of one basis word under g, as ((word, slot), coef)
    pairs with int coefs: at a point the word's coordinate is the sum of
    coef times the slot's value (see :data:`SLOTS`).

    One rule, ``g h t v = h (g t v) + [g, h] t v`` for ``mono = h t``, moves
    g right through the word, with two stopping points.  A central g is its
    scalar, 12 times the slot c/12 or c1/12.  Any other g stops when it
    meets v (0 for a positive mode, lambda or c0 for L(0) or I(0)), or when
    it is a negative mode with ``g <= h``, so that ``g h t`` is already a
    normal word: then g is prepended.  Only the meeting with v brings in a
    parameter.  The head h is a negative mode, whose images carry no
    parameter, so ``h (g t v)`` keeps the slot of each term of ``g t v``:
    every image is affine in the parameters.  The brackets
    have int coefficients ``m - n``, apart from the central ``(k^3 - k)/12``,
    which meets the 12 of a central table."""
    kind, k = g.kind, g.index
    if kind in _CENTRAL_SLOTS:
        return (((mono, _CENTRAL_SLOTS[kind]), 12),)
    if not mono or k < 0 and g <= mono[0]:
        if k > 0:
            return ()
        if k == 0:
            return (((mono, "lam" if kind == "L" else "c0"), 1),)
        return ((((g,) + mono, 1), 1),)
    head, tail = mono[0], mono[1:]
    out = {}
    for (m2, slot), s2 in _act_on_monomial(g, tail):
        _accumulate(out, (((m3, slot), c3) for (m3, _), c3 in _act_on_monomial(head, m2)), s2)
    for gen2, bc in bracket_gen(g, head).terms.items():
        _accumulate(out, _act_on_monomial(gen2, tail), bc)
    # A central (k^3 - k)/12 times the 12 of a central table is an integer.
    return tuple((key, c if type(c) is int else int(c)) for key, c in out.items())


def _scaled_slots(p: HWParams):
    """The slot values of p times one common denominator, as ``(D,
    values)``.  At a rational point D is the lcm of the denominators of
    lambda, c/12, c0 and c1/12, so every value is an int and the evaluated
    table is D times the image.  At a ``Poly`` point D is 1 and the values
    are ring elements."""
    params = dict(zip(SLOTS[1:], (p.lam, p.c * _TWELFTH, p.c0, p.c1 * _TWELFTH)))
    if not p.ring.is_field:
        return 1, {1: 1, **params}
    d, scaled = _integer_terms(params)
    return d, {1: d, **dict(scaled)}


def _evaluate(table, values):
    """A point-free table at the scaled slot ``values`` of
    :func:`_scaled_slots`, as (word, coeff) pairs without zeros."""
    out = {}
    _accumulate(out, ((m, coef * values[slot]) for (m, slot), coef in table), _ONE)
    return tuple(out.items())


def _unscale(p: HWParams, x, d):
    """``x / d`` in the ring of p, with d from :func:`_scaled_slots`: one
    ``Fraction`` at a rational point, and x itself at a ``Poly`` point,
    where d is 1."""
    return Fraction(x, d) if p.ring.is_field else x


def _require_rational(p: HWParams, what: str) -> None:
    if not p.ring.is_field:
        raise TypeError(f"{what} requires rational parameters")


def act(g: Generator, w: VermaVector, p: HWParams) -> VermaVector:
    """The module action of one generator on a homogeneous vector."""
    d, values = _scaled_slots(p)
    out = {}
    for mono, coef in w.terms.items():
        _accumulate(out, _evaluate(_act_on_monomial(g, mono), values), coef)
    return VermaVector(max(w.level - g.weight, 0), {m: _unscale(p, x, d) for m, x in out.items()})


@dataclass
class GramMatrix:
    """The contravariant form restricted to one level, in canonical order."""

    level: int
    basis: list
    entries: list


def gram_matrix(n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL) -> GramMatrix:
    """Matrix of the contravariant form on level n in the canonical basis.

    The form is built level by level from ``<v, v> = 1``.  Split a basis
    word as ``b = h t``, its first letter h a negative mode of level k and
    t the rest, again a basis word; the anti-involution omega sends h to
    the positive mode of the same kind, so ``<b v, w> = <t v, omega(h) w>``.  Row b is row t
    of the level n - k form dotted with the image of each column under
    omega(h), and each (positive mode, column) image is evaluated once per
    level.  The images are D times the true ones (:func:`_scaled_slots`),
    so row b is kept scaled by ``D^len(b)``, len(b) the number of letters
    of b: in ints at a rational point, with one division per nonzero entry
    at the end.  The lower levels live only for this call."""
    basis = level_basis(n, max_level)
    d, values = _scaled_slots(p)
    # The nonzero entries of the row of each basis element of levels <= n,
    # row b scaled by d ** len(b).  <v, v> is a Fraction at a Poly point.
    rows = {(): {(): 1 if p.ring.is_field else Fraction(1)}}
    for level in range(1, n + 1):
        columns = _sorted_basis(level)
        images = {}  # omega -> {lower word m: [(column w, entry m of omega w)]}
        for b in columns:
            head, tail = b[0], b[1:]
            omega = Generator(head.kind, -head.index)
            if omega not in images:
                by_lower = images[omega] = {}
                for w in columns:
                    for m, e in _evaluate(_act_on_monomial(omega, w), values):
                        by_lower.setdefault(m, []).append((w, e))
            row = rows[b] = {}
            for m, x in rows[tail].items():
                _accumulate(row, images[omega].get(m, ()), x)
    zero = p.ring.zero
    entries = []
    for b in basis:
        row, scale = rows[b], d ** len(b)
        entries.append([_unscale(p, row[w], scale) if w in row else zero for w in basis])
    return GramMatrix(level=n, basis=basis, entries=entries)


def _f(k: int, c0, c1):
    """``<I(-k) v, L(-k) v> = -k (2 c0 - (k^2 - 1)/12 c1)``, the only factor
    of the Shapovalov determinant, at a rational point: at a ``Poly`` point
    the determinant is expanded as one binary form
    (:func:`_expanded_det`)."""
    return -k * (2 * c0 - Fraction(k * k - 1, 12) * c1)


def shapovalov_det(n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL):
    """Determinant of the level-n Gram matrix in the canonical basis order,
    as a closed product: no Gram entry is computed and nothing is eliminated.

    Write ``(mu, nu)`` for the basis element ``I(-mu) L(-nu) v`` and pair
    the row ``(mu, nu)`` with the colour-swapped column ``(nu, mu)``.  The
    entry is the coefficient of v in omega(row) applied to the column
    ``(alpha, beta)``, where omega turns each mode of the row's word into
    the positive mode of the same kind, and the leftmost acts first: the
    positive modes ``I(mu_1) ... I(mu_a)``, then ``L(nu_1) ...``.

    I modes.  A positive ``I(j)`` commutes with every ``I(-k)`` and kills v,
    so every surviving term has met an ``L(-k)``, and ``[I(j), L(-k)]`` is
    ``I(j - k)``, plus ``C1`` when j = k.  A leftover mode that is still
    positive goes on to the right, ``I(0)`` only meets further ``L(-k')``
    (giving I modes) or v (a scalar), and a negative one moves left past
    ``L(-k')``, which gives only I modes.  So each ``I(mu_i)`` lowers the L
    count by at least one and never raises it: the form is 0 when
    ``a > len(beta)``, and for ``a = len(beta)`` each ``I(mu_i)`` removes
    exactly one ``L(-beta_j)`` and its leftover ``I(mu_i - beta_j)`` removes
    no other.  A positive leftover then reaches v and kills it, so the
    survivors match the parts with ``mu_i <= beta_j``: ``mu`` is at most
    ``beta`` part by part and lexicographically, equal only if every match
    is exact.  Then the leftover ``I(0)`` meets v, each match gives the
    scalar ``[I(k), L(-k)]`` on v, that is ``f(k) = <I(-k) v, L(-k) v>``,
    and the ``prod_k m_k(mu)!`` matchings leave
    ``prod_k f(k)^{m_k(mu)} m_k(mu)! * I(-alpha) v``.

    L modes.  A positive ``L(k)`` on an I-only word meets some ``I(-m)``:
    for m < k the positive leftover kills v, for m = k the part goes with
    the scalar ``<L(-k) v, I(-k) v> = f(k)`` (the form is symmetric), and
    for m > k it shrinks to m - k.  Reaching v needs each part of alpha to
    be used up by parts of nu, so nu refines alpha and ``nu <= alpha``
    lexicographically, equal only if the parts match one to one, which
    gives ``prod_k f(k)^{m_k(nu)} m_k(nu)!``.

    Hence a nonzero ``<(mu, nu), (alpha, beta)>`` has ``len(mu) <
    len(beta)``, or ``len(mu) = len(beta)`` and ``(mu, nu) <= (beta,
    alpha)`` lexicographically, with equality only on the swapped
    diagonal.  With the basis sorted by I count and then in descending
    word order, ``<b_i, swap(b_j)>`` is upper triangular with diagonal
    ``prod_k f(k)^{m_k(mu)} m_k(mu)! * prod_k f(k)^{m_k(nu)} m_k(nu)!``.
    Sorting rows and columns alike leaves the sign of the colour swap, an
    involution with one transposition per pair ``mu != nu``, so
    ``det = (-1)^{(p2(n) - s_n)/2} * prod over (mu, nu) of the diagonal``,
    where s_n counts the basis elements with ``mu == nu``.  The exponents
    are collected per k first, so each ``f(k)`` is raised to a power once,
    and a zero ``f(k)`` ends the product.

    At a ``Poly`` point the product is expanded as one binary form.  With
    ``x = c0`` and ``y = c1/24``, ``f(k) = -2k (x - (k^2 - 1) y)``, so the
    determinant is ``C * B(x, y)``: the int ``C = scale * prod (-2k)^{E_k}``
    times ``B = prod_k (x - (k^2 - 1) y)^{E_k} = sum_j G_j x^(D-j) y^j``,
    D the sum of the E_k and every G_j an int (:func:`_expanded_det`).  The
    coefficient of ``c0^(D-j) c1^j`` is ``C G_j / 24^j``, so the ints
    ``C G_j`` differ from the numerators of the reduced coefficients by
    powers of 2 and 3 only; expanding ``-24 c0 + (k^2 - 1) c1`` instead
    would carry a spare ``24^(D-j)`` in every coefficient.

    I-scaling.  For t != 0, ``theta: I(n) -> t I(n), C1 -> t C1``, fixing
    the L modes and C, is an automorphism: the bracket is linear in the I
    and C1 letters, and ``[I, I] = 0``.  So M(lambda, c, c0, c1) with x
    acting as ``theta(x)`` is M(lambda, c, t c0, t c1), the word b of the
    second module going to ``t^(len mu) b``, and theta commutes with omega,
    so the form goes along.  With ``T = diag(t^(len mu))`` the second
    module has the Gram matrix ``T G T``, the singular vectors ``T^-1 w``
    and the I(0) matrix ``t T^-1 A T``, for G, w and A of the first.  Hence
    a Gram entry is homogeneous in (c0, c1), of degree the sum of the I
    counts of its row and column, and the determinant of degree
    ``2 sum len mu``, which is D, as each ``f(k)`` is linear in (c0, c1).
    """
    _check_level(n, max_level)
    exponents, scale = _det_shape(n)
    if not p.ring.is_field:
        return _expanded_det(exponents, scale, p.c0, p.c1)
    factors = [(_f(k, p.c0, p.c1), e) for k, e in exponents]
    if not all(fk for fk, _ in factors):
        return p.ring.zero
    det = p.ring.one * scale
    for fk, e in factors:
        det = det * fk ** e
    return det


def _expanded_det(exponents, scale, c0, c1):
    """``scale * prod_k f(k)^{E_k}`` at the ``Poly`` point (c0, c1), for
    the exponents and scale of :func:`_det_shape`, as ``C * B(c0, c1/24)``
    (see :func:`shapovalov_det`).

    B is expanded once as the ints G_j: the factor ``x^(E_1)`` of k = 1
    only adds to D, and each ``x - (k^2 - 1) y`` of k >= 2 is multiplied
    in E_k times, by ``G_j -= (k^2 - 1) G_(j-1)`` in place from the top:
    an int product with a small factor, where the row
    ``C(E_k, j) (1 - k^2)^j`` of the binomial theorem would multiply the
    long G_j by long row entries.  Every ``1 - k^2`` is negative, so G_j
    has the sign of ``(-1)^j`` and is never 0, and the coefficients
    ``C G_j`` are placed at (c0, c1/24) by
    :func:`~w22.scalars._binary_form`."""
    const, degree, g = scale, 0, [1]
    for k, e in exponents:
        const *= (-2 * k) ** e
        degree += e
        if k > 1:
            a = 1 - k * k
            for _ in range(e):
                g.append(0)
                for j in range(len(g) - 1, 0, -1):
                    g[j] += a * g[j - 1]
    return _binary_form([const * gj for gj in g], degree, c0, c1 * Fraction(1, 24))


@lru_cache(maxsize=None)
def _det_shape(n: int):
    """The point-free part of the level-n determinant: the exponent E_k of
    each f(k), ascending in k, and ``prod m_k!`` with the swap sign,
    counted from the partition numbers without a walk over the basis.

    Removing j parts k from one colour maps the basis elements with at
    least j parts k in that colour one to one onto level n - jk, so there
    are ``p2(n - jk)`` of them, p2 counting two-coloured partitions.  Hence
    ``E_k = 2 sum_{j >= 1} p2(n - jk)``, and
    ``2 (p2(n - mk) - p2(n - (m + 1) k))`` pairs of an element and a
    colour hold the part k exactly m times, each giving a factor m!.  The
    elements with ``mu == nu`` are the ``p(n/2)`` for even n, none for odd
    n, and the rest pair up under the colour swap."""
    p = [1] + [0] * n  # p(m), partitions of m, for m = 0..n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    p2 = [sum(p[s] * p[m - s] for s in range(m + 1)) for m in range(n + 1)]
    exponents = tuple((k, 2 * sum(p2[n - j * k] for j in range(1, n // k + 1))) for k in range(1, n + 1))
    scale = 1
    for k in range(1, n // 2 + 1):
        for m in range(2, n // k + 1):
            exactly = p2[n - m * k] - (p2[n - (m + 1) * k] if (m + 1) * k <= n else 0)
            scale *= factorial(m) ** (2 * exactly)
    swapped = p2[n] - (0 if n % 2 else p[n // 2])
    return exponents, -scale if swapped // 2 % 2 else scale


@dataclass(frozen=True)
class SingularVector:
    """A singular vector together with its I(0)-eigenvector status."""

    vector: VermaVector
    i0_eigenvector: bool


def singular_vectors(
    n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL
) -> list[SingularVector]:
    """Exact basis of the level-n vectors annihilated by L(1), L(2), I(1),
    I(2); these four generate the whole positive part, so the result is the
    space of singular vectors at that level.

    A singular vector w lies in the radical of the contravariant form, since
    ``<x v, w> = <v, omega(x) w> = 0`` for every x in U(n-) of degree n
    (omega(x) is a sum of positive-mode words).  So where the determinant is
    nonzero, that is where no ``f(k)`` with k <= n vanishes (see
    :func:`first_degenerate_level`), the result is ``[]``, found without
    any elimination.  Elsewhere it is the :func:`linalg.nullspace` of the
    images of the basis words, one sparse column each, keyed by
    (generator, target word).  The columns are the images times one
    common D (:func:`_scaled_slots`), which leaves the kernel unchanged, so
    they are int columns and the elimination is fraction-free.  The kernel
    vectors are primitive integer vectors, and w is an I(0) eigenvector
    exactly when the integer ``N_n w = 0`` (see :func:`_i0_nilpotent`)."""
    if n < 1:
        raise ValueError("singular vectors live at positive levels")
    _require_rational(p, "singular-vector search")
    _check_level(n, max_level)
    if first_degenerate_level(p, n) is None:
        return []
    basis = level_basis(n, max_level)
    gens = (L(1), L(2), I(1), I(2))
    _, values = _scaled_slots(p)
    # The elimination pivots at the least key.  A target word is keyed by
    # minus its place in the canonical order, so that the largest word
    # pivots first: keyed by the word itself, the pivots differ and the
    # search at level 8 takes about twice as long.
    place = {m: -i for level in range(max(n - 2, 0), n) for i, m in enumerate(_sorted_basis(level))}
    columns = [
        {(g, place[m]): x for g in gens for m, x in _evaluate(_act_on_monomial(g, b), values)}
        for b in basis
    ]
    rows = _i0_nilpotent(n)
    found = []
    for w in linalg.nullspace(columns):
        eigen = not any(sum(w[j] * c.numerator for j, c in row) for row in rows)  # N_n is integer
        vector = VermaVector(n, {b: Fraction(x) for b, x in zip(basis, w) if x})
        found.append(SingularVector(vector, eigen))
    return found


def is_reducible(c0, c1) -> tuple[bool, Optional[int]]:
    """The irreducibility criterion of the source paper, as a decision
    procedure in this engine's bracket convention.

    Reducible iff some nonzero integer m satisfies
    ``(m^2 - 1)/12 * c1 = 2*c0``; for c1 = 0 this degenerates to
    ``c0 = 0`` with witness m = 1, otherwise m^2 = 1 + 24*c0/c1 must be a
    positive perfect square.

    The paper states ``2h' + (m^2 - 1)/12 * c' = 0`` for the bracket
    ``[L_m, W_n] = (m - n) W_{m+n} + ...``.  The map ``L_n = -L(n)``,
    ``W_n = -I(n)`` (central elements unchanged) carries this engine's
    bracket onto the paper's and the highest-weight conditions onto the
    paper's with ``h = -lambda`` and ``h' = -c0``, which gives the form
    above.  It agrees with the exact determinants, e.g.
    ``det_2 = 64*c0^6*(c1 - 8*c0)^2``.
    """
    m = _witness(QQ.coerce(c0), QQ.coerce(c1))
    return m is not None, m


def _witness(c0: Fraction, c1: Fraction) -> Optional[int]:
    """The least integer m >= 1 with ``(m^2 - 1) c1 = 24 c0``, or None.

    For c1 = 0 every m solves it when c0 = 0, and none otherwise.  Else,
    with ``c1 = a/b`` and ``c0 = c/d``, ``m^2 - 1 = 24 c b / (a d)`` must be
    an integer q >= 0 (q = -1 is m = 0) with q + 1 a perfect square, and
    the square root is the one positive solution."""
    if not c1:
        return None if c0 else 1
    q, r = divmod(24 * c0.numerator * c1.denominator, c1.numerator * c0.denominator)
    if r or q < 0:
        return None
    m = isqrt(q + 1)
    return m if m * m == q + 1 else None


@dataclass
class I0Report:
    """The I(0) action on one level, with its Jordan-structure summary."""

    level: int
    basis: list
    entries: list
    nilpotency_degree: int
    nilpotent_within_bound: bool
    diagonalizable: bool


@lru_cache(maxsize=None)
def _i0_nilpotent(n: int):
    """The point-free part of I(0) on level n: ``N_n = I(0) - c0`` as
    sparse rows in the canonical basis, row i holding the ``(j, entry)``
    with a nonzero ``Fraction`` entry.

    The c0 slot of the table of I(0) is the identity (I(0) meets v only as
    c0) and every other term has the slot 1 (``[I(0), L(-k)] = -k I(-k)``
    has no central part), so dropping the c0 slot leaves the same integer
    operator at every point.  It has no diagonal entry: every term of
    ``N_n b`` has fewer L factors than b (see :func:`i0_matrix`)."""
    basis = _sorted_basis(n)
    index = {b: i for i, b in enumerate(basis)}
    rows = [[] for _ in basis]
    for j, b in enumerate(basis):
        for (m, slot), c in _act_on_monomial(I(0), b):
            if slot != "c0":
                rows[index[m]].append((j, Fraction(c)))
    return tuple(map(tuple, rows))


def i0_matrix(n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL) -> I0Report:
    """Matrix of I(0) on level n, ``c0 Id + N_n`` with the integer
    operator ``N_n = I(0) - c0`` of :func:`_i0_nilpotent`, and its Jordan
    summary: N_n is nilpotent of degree exactly n + 1, so I(0) is
    diagonalizable only at level 0.

    Proof.  N acts on U(n-) v as the derivation ``ad I(0)`` of U(n-), since
    I(0) - c0 kills v: it sends ``L(-k)`` to ``-k I(-k)`` and kills
    ``I(-k)``.  Straightening a word never raises its number of L letters,
    because ``[L(-a), I(-b)]`` is a multiple of ``I(-a-b)``.  So N strictly
    lowers the L count, which is at most n on level n, and ``N^(n+1) = 0``.
    ``L(-1)`` and ``I(-1)`` commute, so ``N^n L(-1)^n v = n! (-I(-1))^n v``,
    which is not 0, and the degree is not less than n + 1."""
    basis = level_basis(n, max_level)
    rows = _i0_nilpotent(n)
    zero = p.ring.zero
    # The entry types of the images of Fraction unit vectors: Fraction(1)
    # times c0 on the diagonal, and a Fraction or the ring's zero elsewhere.
    diagonal = Fraction(1) * p.c0 if p.c0 else zero
    entries = []
    for i, row in enumerate(rows):
        dense = [zero] * len(rows)
        dense[i] = diagonal
        for j, entry in row:
            dense[j] = entry
        entries.append(dense)
    return I0Report(
        level=n,
        basis=basis,
        entries=entries,
        nilpotency_degree=n + 1,
        nilpotent_within_bound=True,
        diagonalizable=n == 0,
    )


def first_degenerate_level(
    p: HWParams, max_level: int = DEFAULT_MAX_LEVEL
) -> Optional[int]:
    """Smallest level with a degenerate contravariant form, if any, at a
    rational point.

    The level-n determinant is a product of powers of ``f(k)``, and ``f(k)``
    occurs for exactly the k <= n (``L(-k) L(-1)^{n-k} v`` is a basis
    element), so the form first degenerates at the smallest m with
    ``f(m) = 0``, that is at the witness of :func:`is_reducible`, when it is
    at most ``max_level``."""
    _require_rational(p, "degenerate level")
    m = _witness(p.c0, p.c1)
    return m if m is not None and m <= max_level else None
