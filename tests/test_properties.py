"""Hypothesis properties: the memoised rewriting kernel against the naive
rewriter, the omega anti-involution, exactness of every coefficient (int or
Fraction, never float or bool), the linear-combination axioms of Lie
elements, U elements and Verma vectors, the symmetry of the Gram matrix,
the closed-form determinant against Bareiss on the full Gram matrix, the
first degenerate level against the irreducibility criterion, the sparse
kernel against dense Gauss-Jordan, and the Poly ring."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dense_kernel import dense_nullspace
from naive_rewriter import naive_normal_order
from w22 import linalg
from w22.algebra import LieElement, bracket, generator_window
from w22.pbw import UEElement, multiply, normal_order, omega
from w22.scalars import PARAM_POLYS, QQ, Poly
from w22.verma import (
    HWParams,
    VermaVector,
    act,
    first_degenerate_level,
    gram_matrix,
    is_reducible,
    level_basis,
    shapovalov_det,
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


def assert_exact(coefs):
    for c in coefs:
        assert type(c) in (int, Fraction), (c, type(c))


@derandomized
@given(words(8))
def test_normal_order_matches_naive_rewriter(word):
    assert normal_order(word) == naive_normal_order(word, "leftmost")


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


# -- the forms layer --------------------------------------------------------

points = st.tuples(rationals, rationals, rationals, rationals).map(lambda t: HWParams.rational(*t))


@derandomized_short
@given(st.integers(0, 4), points)
def test_gram_matrix_is_symmetric(n, p):
    assert gram_matrix(n, p).is_symmetric()


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 5), points)
def test_closed_form_det_matches_full_bareiss(n, p):
    assert shapovalov_det(n, p) == linalg.det(gram_matrix(n, p).entries, QQ)


def locus_point(m, c1):
    """(c0, c1) with (m^2 - 1)/12 * c1 = 2 * c0."""
    return Fraction(m * m - 1, 24) * c1, c1


@derandomized_short
@given(
    st.tuples(rationals, rationals)
    | st.builds(locus_point, st.integers(1, 10), rationals),
    st.integers(1, 8),
)
def test_first_degenerate_level_is_the_criterion_witness(c0c1, top):
    c0, c1 = c0c1
    _, witness = is_reducible(c0, c1)
    expected = witness if witness is not None and witness <= top else None
    assert first_degenerate_level(HWParams.rational(0, 0, c0, c1), top) == expected


@st.composite
def dependent_columns(draw):
    """Up to 8 rational columns of height up to 8, each new or a zero,
    repeated, scaled or summed copy of earlier ones."""
    height = draw(st.integers(0, 8))
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "scale", "sum"])) if columns else "new"
        if kind == "new":
            col = draw(st.lists(rationals, min_size=height, max_size=height))
        elif kind == "zero":
            col = [0] * height
        elif kind == "repeat":
            col = list(draw(st.sampled_from(columns)))
        elif kind == "scale":
            s = draw(rationals)
            col = [s * x for x in draw(st.sampled_from(columns))]
        else:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            col = [x + y for x, y in zip(a, b)]
        columns.append(col)
    return height, columns


@derandomized
@given(dependent_columns())
def test_sparse_nullspace_matches_dense_gauss_jordan(matrix):
    height, columns = matrix
    rows = [[col[i] for col in columns] for i in range(height)]
    sparse = [{i: x for i, x in enumerate(col) if x} for col in columns]
    assert linalg.nullspace(sparse) == dense_nullspace(rows, len(columns))


# -- the Poly ring ----------------------------------------------------------

polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), rationals, max_size=3
).map(Poly)


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


@derandomized_short
@given(polys, st.integers(0, 6))
def test_poly_power_is_repeated_multiplication(x, k):
    expected = PARAM_POLYS.one
    for _ in range(k):
        expected = expected * x
    assert x ** k == expected


@derandomized_short
@given(polys)
def test_poly_string_round_trip(x):
    assert PARAM_POLYS.parse(str(x)) == x
