"""Hypothesis properties: the memoised rewriting kernel against the naive
rewriter (on random words and on L blocks before commuting blocks), the
product of normal forms against the normal form of the concatenated word,
the omega anti-involution, exactness of every coefficient (int or Fraction,
never float or bool), the linear-combination axioms of Lie elements, U
elements, Verma vectors and polynomials, zero-free sums, products and
normal forms, the point-free action table
against the per-point recursion, the I(0) nilpotency degree against dense
powers, the symmetry of the Gram matrix, the closed-form determinant
against Bareiss on the full Gram matrix, the expanded determinant at Poly
points against the ring product of its factors, the level recursion of the Gram
matrix against the brute-force pairing, the irreducibility criterion
against a scan of its equation, the first degenerate level against the
criterion and against the determinants, the
singular-vector shortcut against the determinant, the sparse kernel against
dense Gauss-Jordan, and the Poly ring."""

from fractions import Fraction
from math import floor, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from dense_kernel import action_rows, dense_nilpotency_degree, dense_nullspace, det, is_symmetric
from involutions import omega
from naive_action import naive_image, pairing_gram
from naive_rewriter import naive_normal_order
from test_verma import ring_product_det
from w22 import linalg, verma
from w22.algebra import C, C1, I, L, LieElement, bracket, generator_window
from w22.pbw import UEElement, multiply, normal_order
from w22.scalars import PARAM_POLYS, QQ, Poly
from w22.verma import (
    DEFAULT_MAX_LEVEL,
    HWParams,
    VermaVector,
    act,
    first_degenerate_level,
    gram_matrix,
    i0_matrix,
    is_reducible,
    level_basis,
    shapovalov_det,
    singular_vectors,
)

WINDOW = generator_window(3)

derandomized = settings(derandomize=True, max_examples=150, deadline=None)
derandomized_short = settings(derandomize=True, max_examples=50, deadline=None)

generators = st.sampled_from(WINDOW)
rationals = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)


def words(max_len):
    return st.lists(generators, max_size=max_len).map(tuple)


def ue_elements(max_len=3, max_terms=3):
    """Sums of rational multiples of normal-ordered random words."""
    def build(pairs):
        out = UEElement()
        for word, coef in pairs:
            out = out + coef * normal_order(word)
        return out
    return st.lists(st.tuples(words(max_len), rationals), max_size=max_terms).map(build)


lie_elements = st.dictionaries(generators, rationals, max_size=4).map(LieElement)
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), rationals, max_size=3
).map(Poly)


def assert_exact(coefs):
    for c in coefs:
        assert type(c) in (int, Fraction), (c, type(c))


@derandomized
@given(words(8))
def test_normal_order_matches_naive_rewriter(word):
    assert normal_order(word) == naive_normal_order(word, "leftmost")


@st.composite
def l_block_before_commuting_block(draw):
    """A block of L letters followed by a block of C, C1 and I letters with
    repeated indices, at length <= 9.  The I indices include -k for every
    L(k), so [L(k), I(-k)] brings in C1."""
    l_indices = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    commuting = st.sampled_from([C, C1, I(-1), I(2)] + [I(-k) for k in l_indices])
    tail = draw(st.lists(commuting, min_size=1, max_size=9 - len(l_indices)))
    return tuple(L(k) for k in l_indices) + tuple(tail)


@derandomized
@given(l_block_before_commuting_block())
def test_l_block_through_commuting_block_matches_naive_rewriter(word):
    expected = naive_normal_order(word, "leftmost")
    assert expected == naive_normal_order(word, "rightmost")
    assert normal_order(word) == expected


@derandomized
@given(words(6), words(6))
def test_product_of_normal_forms_is_the_normal_form_of_the_product(a, b):
    assert multiply(normal_order(a), normal_order(b)) == normal_order(a + b)


@derandomized
@given(ue_elements(), ue_elements())
def test_omega_is_an_anti_automorphism(u, v):
    assert omega(multiply(u, v)) == multiply(omega(v), omega(u))


@derandomized
@given(ue_elements(max_len=4))
def test_omega_is_an_involution(u):
    assert omega(omega(u)) == u


@derandomized
@given(words(8), ue_elements(), ue_elements(), lie_elements, lie_elements)
def test_rewriting_coefficients_are_exact(word, u, v, x, y):
    assert_exact(normal_order(word).terms.values())
    assert_exact(multiply(u, v).terms.values())
    assert_exact(bracket(x, y).terms.values())


def verma_vectors(n):
    return st.dictionaries(st.sampled_from(level_basis(n)), rationals).map(lambda d: VermaVector(n, d))


@derandomized
@given(st.tuples(rationals, rationals, rationals, rationals), generators, st.integers(0, 3).flatmap(verma_vectors))
def test_module_action_coefficients_are_exact(point, g, vector):
    assert_exact(act(g, vector, HWParams.rational(*point)).terms.values())


# -- linear combinations ----------------------------------------------------

combination_triples = (
    st.tuples(lie_elements, lie_elements, lie_elements)
    | st.tuples(ue_elements(), ue_elements(), ue_elements())
    | st.integers(0, 3).flatmap(lambda n: st.tuples(*[verma_vectors(n)] * 3))
    | st.tuples(polys, polys, polys)
)


@derandomized
@given(combination_triples, rationals, rationals)
def test_combination_axioms(abc, s, t):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero() and not a - a
    assert a - b == a + (-b)
    assert s * (a + b) == s * a + s * b
    assert (s + t) * a == s * a + t * a
    assert a * s == s * a
    for x, y in ((a + b, b + a), ((a - b) + b, a), (0 * a, a - a)):
        assert x == y and hash(x) == hash(y)


@derandomized
@given(st.tuples(lie_elements, lie_elements) | st.tuples(ue_elements(), ue_elements()), rationals, words(6))
def test_results_hold_no_zero_coefficient(ab, s, word):
    # Sums, products and normal forms are built with no filtering pass, so
    # each must come out zero-free: the constructor, which drops zeros,
    # gives the same element back.
    a, b = ab
    results = [a + b, a - b, (a + b) - b, a - a, -a, s * a, a * s]
    if isinstance(a, UEElement):
        results += [multiply(a, b), multiply(b, a), normal_order(word)]
    for x in results:
        assert all(x.terms.values()), x.terms
        assert type(x)(x.terms) == x


# -- the forms layer --------------------------------------------------------

points = st.tuples(rationals, rationals, rationals, rationals).map(lambda t: HWParams.rational(*t))


@derandomized_short
@given(st.integers(0, 4), points)
def test_gram_matrix_is_symmetric(n, p):
    assert is_symmetric(gram_matrix(n, p).entries)


@derandomized
@given(points, generators, st.integers(0, 4).flatmap(lambda n: st.sampled_from(level_basis(n))))
def test_point_free_table_matches_per_point_recursion(p, g, mono):
    # The scaled image is an int vector, d times the image.
    d, values = verma._scaled_slots(p)
    image = verma._evaluate(verma._act_on_monomial(g, mono), values)
    assert all(type(x) is int for _, x in image)
    assert {m: Fraction(x, d) for m, x in image} == naive_image(g, mono, p)


@derandomized_short
@given(st.integers(0, 6), points, rationals.filter(bool))
def test_gram_matrix_scales_with_the_i_letters(n, p, t):
    """For t != 0, I(n) -> t I(n), C1 -> t C1 is an automorphism of W(2,2)
    that carries M(lambda, c, c0, c1) onto M(lambda, c, t c0, t c1), and
    the word b of the second module onto t^(I count of b) b of the first."""
    gram = gram_matrix(n, p)
    twisted = gram_matrix(n, HWParams.rational(p.lam, p.c, t * p.c0, t * p.c1))
    count = [sum(g.kind == "I" for g in b) for b in gram.basis]
    assert twisted.entries == [
        [t ** (count[i] + count[j]) * x for j, x in enumerate(row)] for i, row in enumerate(gram.entries)
    ]


@derandomized_short
@given(st.integers(0, 4), points)
def test_i0_degree_matches_dense_powers(n, p):
    report = i0_matrix(n, p)
    assert report.nilpotency_degree == dense_nilpotency_degree(report.entries, p.c0, QQ, n + 1)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 5), points)
def test_closed_form_det_matches_full_bareiss(n, p):
    assert shapovalov_det(n, p) == det(gram_matrix(n, p).entries, QQ)


# Points drawn as the sweep draws its dense ones.  Their common denominator
# D (see verma._scaled_slots) runs to many digits, where ``rationals`` keeps
# it at most 60.
dense_rationals = st.builds(Fraction, st.integers(-100, 100), st.integers(1, 100))
dense_points = st.tuples(*[dense_rationals] * 4).map(lambda t: HWParams.rational(*t))


@derandomized_short
@given(st.tuples(st.integers(0, 4), points) | st.tuples(st.integers(0, 3), dense_points))
def test_gram_recursion_matches_pairing_assembly(level_point):
    n, p = level_point
    entries = gram_matrix(n, p).entries
    expected = pairing_gram(n, p)
    assert [[(type(x), repr(x)) for x in row] for row in entries] == [
        [(type(x), repr(x)) for x in row] for row in expected
    ]
    assert entries == expected


@derandomized_short
@given(st.integers(0, 6), rationals | dense_rationals, rationals | dense_rationals)
def test_poly_det_is_free_of_lambda_and_c(n, lam, c):
    """At a partial point, lambda and c rational constants and c0 and c1
    the ring's variables, the determinant is the generic one."""
    P = PARAM_POLYS
    partial = shapovalov_det(n, HWParams(Poly.const(lam), Poly.const(c), P.c0, P.c1, P))
    generic = shapovalov_det(n, HWParams.symbolic())
    assert type(partial) is Poly
    assert partial.terms == generic.terms and str(partial) == str(generic)


def locus_point(m, c1):
    """(c0, c1) with (m^2 - 1)/12 * c1 = 2 * c0."""
    return Fraction(m * m - 1, 24) * c1, c1


# Poly values of (c0, c1) for the expanded determinant: single terms on
# random monomials, both on one monomial (constants among them, and
# constants on a locus, where the determinant is 0), a zero, and a sum.
monomials = st.tuples(*[st.integers(0, 2)] * 4)
single_terms = st.builds(lambda e, q: Poly({e: q}), monomials, rationals.filter(bool))
POLY_C0_C1 = {
    "single terms": st.tuples(single_terms, single_terms),
    "one monomial": st.builds(
        lambda e, q, r: (Poly({e: q}), Poly({e: r})),
        monomials | st.just((0, 0, 0, 0)),
        rationals.filter(bool),
        rationals.filter(bool),
    ),
    "locus constants": st.builds(
        lambda m, c1: tuple(Poly.const(x) for x in locus_point(m, c1)), st.integers(1, 6), rationals.filter(bool)
    ),
    "zero c0": st.tuples(st.just(Poly()), single_terms),
    "zero c1": st.tuples(single_terms, st.just(Poly())),
    "two-term c0": st.tuples(
        st.dictionaries(monomials, rationals.filter(bool), min_size=2, max_size=2).map(Poly), single_terms
    ),
}


@pytest.mark.parametrize("kind", POLY_C0_C1)
@derandomized_short
@given(data=st.data())
def test_poly_det_matches_ring_product(kind, data):
    n = data.draw(st.integers(0, 5))
    P = PARAM_POLYS
    p = HWParams(P.lam, P.c, *data.draw(POLY_C0_C1[kind]), P)
    expanded, expected = shapovalov_det(n, p), ring_product_det(n, p)
    assert type(expanded) is Poly
    assert expanded.terms == expected.terms and str(expanded) == str(expected)
    assert all(type(c) is Fraction and c for c in expanded.terms.values())


@derandomized_short
@given(
    st.tuples(rationals, rationals)
    | st.builds(locus_point, st.integers(1, 10), rationals)
    | st.tuples(dense_rationals, dense_rationals)
    | st.builds(locus_point, st.integers(1, 10), dense_rationals),
    st.integers(1, 8),
)
def test_first_degenerate_level_is_the_criterion_witness(c0c1, top):
    c0, c1 = c0c1
    _, witness = is_reducible(c0, c1)
    expected = witness if witness is not None and witness <= top else None
    assert first_degenerate_level(HWParams.rational(0, 0, c0, c1), top) == expected


def scanned_witness(c0, c1):
    """The least m >= 1 with (m^2 - 1)/12 * c1 == 2 * c0, by trying each m.
    A solution has m^2 = 1 + 24 c0/c1 <= 1 + |24 c0/c1|, so the scan is
    complete."""
    if c1 == 0:
        return 1 if c0 == 0 else None
    top = isqrt(floor(1 + abs(24 * c0 / c1))) + 1
    return next((m for m in range(1, top + 1) if Fraction(m * m - 1, 12) * c1 == 2 * c0), None)


@derandomized
@given(
    st.tuples(rationals, rationals)
    | st.tuples(dense_rationals, dense_rationals)
    # m = 0 gives c0 = -c1/24, where m^2 = 0: no witness.
    | st.builds(locus_point, st.integers(0, 40), rationals | dense_rationals)
    | st.tuples(rationals | dense_rationals, st.just(0))
)
def test_criterion_matches_a_scan_of_its_equation(c0c1):
    c0, c1 = map(Fraction, c0c1)
    m = scanned_witness(c0, c1)
    assert is_reducible(c0, c1) == (m is not None, m)


def on_locus(lam, c, m, c1):
    return (lam, c, *locus_point(m, c1))


@derandomized_short
@given(
    st.tuples(rationals, rationals, rationals, rationals)
    | st.builds(on_locus, rationals, rationals, st.integers(1, 6), rationals),
    st.integers(1, 6),
)
def test_singular_shortcut_follows_the_determinant(point, n):
    """singular_vectors answers [] from f(k) alone where the determinant is
    nonzero.  The converse holds only at the least degenerate level, whose
    radical is all singular (the form is nondegenerate below it): on the m
    = 2 locus level 3 has a zero determinant and no singular vector."""
    p = HWParams.rational(*point)
    degenerate = [k for k in range(1, n + 1) if shapovalov_det(k, p) == 0]
    assert first_degenerate_level(p, n) == (degenerate[0] if degenerate else None)
    found = singular_vectors(n, p)
    if shapovalov_det(n, p) != 0:
        assert found == []
    elif n == degenerate[0]:
        assert found


@settings(derandomize=True, max_examples=25, deadline=None)
@given(dense_rationals, dense_rationals, st.integers(1, 4), dense_rationals, st.integers(0, 1))
def test_singular_vectors_match_dense_kernel_at_dense_points(lam, c, m, c1, extra):
    """On the locus of m, at levels m and m + 1, against the kernel of the
    dense action matrices of the per-point recursion."""
    p = HWParams.rational(*on_locus(lam, c, m, c1))
    n = m + extra
    basis = level_basis(n)
    rows = [row for g in (L(1), L(2), I(1), I(2)) for row in action_rows(g, n, p, DEFAULT_MAX_LEVEL)]
    kernel = [VermaVector(n, dict(zip(basis, v))) for v in dense_nullspace(rows, len(basis))]
    found = singular_vectors(n, p)
    assert [sv.vector for sv in found] == kernel
    assert found or extra
    for sv in found:
        shifted = act(I(0), sv.vector, p) - p.c0 * sv.vector
        assert sv.i0_eigenvector == (not shifted)


def i_count(word):
    return sum(g.kind == "I" for g in word)


def scaled_point(p, t):
    return HWParams.rational(p.lam, p.c, t * p.c0, t * p.c1)


@derandomized_short
@given(st.integers(1, 4), st.builds(on_locus, rationals, rationals, st.integers(1, 4), rationals), rationals.filter(bool))
def test_singular_vectors_scale_with_the_i_letters(n, point, t):
    """The word b of M(lambda, c, t c0, t c1) is t^(I count of b) b of
    M(lambda, c, c0, c1) (see test_gram_matrix_scales_with_the_i_letters),
    so the singular vectors of the second module are those of the first
    with each coordinate divided by t^(I count of its word): the same
    primitive vectors up to a scalar, in the same order, with the same
    I(0) status."""
    p = HWParams.rational(*point)
    found, twisted = singular_vectors(n, p), singular_vectors(n, scaled_point(p, t))
    assert len(found) == len(twisted)
    for sv, tw in zip(found, twisted):
        scaled = {b: x / t ** i_count(b) for b, x in sv.vector.terms.items()}
        assert tw.vector.terms.keys() == scaled.keys()
        assert len({tw.vector.terms[b] / x for b, x in scaled.items()}) == 1
        assert tw.i0_eigenvector == sv.i0_eigenvector


@derandomized_short
@given(st.integers(0, 5), points, rationals.filter(bool))
def test_i0_matrix_scales_with_the_i_letters(n, p, t):
    """Under the same map I(0) of the second module is t I(0) of the first,
    so entry (i, j) of its I(0) matrix, the coefficient of b_i in I(0) b_j,
    is t^(1 + I count of b_j - I count of b_i) times the first's."""
    report, twisted = i0_matrix(n, p), i0_matrix(n, scaled_point(p, t))
    count = [i_count(b) for b in report.basis]
    assert twisted.entries == [
        [t ** (1 + count[j] - count[i]) * x for j, x in enumerate(row)] for i, row in enumerate(report.entries)
    ]


@st.composite
def dependent_columns(draw, scalars=rationals):
    """Up to 8 columns of height up to 8 with entries from ``scalars``, each
    new or a zero, repeated, scaled or summed copy of earlier ones."""
    height = draw(st.integers(0, 8))
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "scale", "sum"])) if columns else "new"
        if kind == "new":
            col = draw(st.lists(scalars, min_size=height, max_size=height))
        elif kind == "zero":
            col = [0] * height
        elif kind == "repeat":
            col = list(draw(st.sampled_from(columns)))
        elif kind == "scale":
            s = draw(scalars)
            col = [s * x for x in draw(st.sampled_from(columns))]
        else:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            col = [x + y for x, y in zip(a, b)]
        columns.append(col)
    return height, columns


# Integer entries well beyond 2^64, as at high levels and dense points.
wide_integers = st.integers(-(2**80), 2**80)


@derandomized
@given(dependent_columns() | dependent_columns(wide_integers))
def test_sparse_nullspace_matches_dense_gauss_jordan(matrix):
    height, columns = matrix
    rows = [[col[i] for col in columns] for i in range(height)]
    # nullspace takes int columns: scaling by the common denominator keeps
    # the kernel of the rational rows.
    den = lcm(*(Fraction(x).denominator for col in columns for x in col))
    sparse = [{i: int(x * den) for i, x in enumerate(col) if x} for col in columns]
    kernel = linalg.nullspace(sparse)
    assert kernel == dense_nullspace(rows, len(columns))
    assert all(type(x) is int for vec in kernel for x in vec)


@derandomized
@given(dependent_columns(wide_integers), wide_integers.filter(bool))
def test_nullspace_ignores_a_common_scale(matrix, s):
    _, columns = matrix
    sparse = [{i: x for i, x in enumerate(col) if x} for col in columns]
    scaled = [{i: s * x for i, x in col.items()} for col in sparse]
    assert linalg.nullspace(scaled) == linalg.nullspace(sparse)


# -- the Poly ring ----------------------------------------------------------

@derandomized_short
@given(polys, polys, polys)
def test_poly_ring_axioms(x, y, z):
    zero, one = PARAM_POLYS.zero, PARAM_POLYS.one
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x * zero == zero
    assert x + (-x) == zero and x - y == x + (-y)
    for result in (x + y, x - y, -x, x + 1, 2 - x):
        assert isinstance(result, Poly)
        assert all(type(c) is Fraction and c for c in result.terms.values())


kernel_scalars = st.integers(-60, 60) | st.fractions(-60, 60, max_denominator=50)
kernel_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4), kernel_scalars, max_size=5
).map(Poly) | kernel_scalars.map(Poly.const)


def _fraction_terms(x):
    return x.terms if isinstance(x, Poly) else {(0, 0, 0, 0): Fraction(x)}


def fraction_convolution(x, y):
    """The product term by term: one Fraction product and sum per pair."""
    out = {}
    for e1, c1 in _fraction_terms(x).items():
        for e2, c2 in _fraction_terms(y).items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


kernel_operands = st.one_of(
    st.tuples(kernel_polys, kernel_polys),
    st.tuples(kernel_polys, kernel_scalars),
    st.tuples(kernel_scalars, kernel_polys),
    # (p + q)(p - q): the cross terms cancel
    st.builds(lambda p, q: (p + q, p - q), kernel_polys, kernel_polys),
)


@derandomized
@given(kernel_operands)
def test_poly_product_matches_fraction_convolution(xy):
    x, y = xy
    product = x * y
    assert isinstance(product, Poly)
    assert product.terms == fraction_convolution(x, y)
    assert all(type(c) is Fraction and c for c in product.terms.values())


# Repeated squaring, on any base to small exponents and on one- and
# two-term bases, the shape of each f(k) that the determinant's ring-product
# oracle raises, to exponents up to 60; the zero Poly is its own case.
few_term_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), kernel_scalars.filter(bool), min_size=1, max_size=2
).map(Poly)


@derandomized_short
@given(st.tuples(polys, st.integers(0, 6)) | st.tuples(few_term_polys, st.integers(0, 60)))
def test_poly_power_is_repeated_multiplication(xk):
    x, k = xk
    expected = PARAM_POLYS.one
    for _ in range(k):
        expected = expected * x
    power = x ** k
    assert power == expected and str(power) == str(expected)
    assert type(power) is Poly
    assert all(type(c) is Fraction and c for c in power.terms.values())


def test_zero_poly_powers():
    one = Poly() ** 0
    assert type(one) is Poly and one.terms == {(0, 0, 0, 0): 1}
    assert type(one.terms[0, 0, 0, 0]) is Fraction
    for n in range(1, 5):
        assert type(Poly() ** n) is Poly and not (Poly() ** n).terms


@derandomized
@given(kernel_polys, kernel_scalars | st.just(0) | st.just(Fraction(0)))
def test_poly_scalar_product_matches_constant_poly_product(x, q):
    via_constant = x * Poly.const(q)
    for product in (x * q, q * x):
        assert type(product) is Poly
        assert product.terms == via_constant.terms and str(product) == str(via_constant)
        assert all(type(c) is Fraction and c for c in product.terms.values())


@derandomized_short
@given(polys)
def test_poly_string_round_trip(x):
    assert PARAM_POLYS.parse(str(x)) == x
