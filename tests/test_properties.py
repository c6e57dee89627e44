"""Hypothesis properties of the rewriting layer: the memoised kernel against
the naive rewriter, the omega anti-involution, and exactness of every
coefficient (int or Fraction, never float or bool)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from naive_rewriter import naive_normal_order
from w22.algebra import LieElement, bracket, generator_window
from w22.pbw import UEElement, multiply, normal_order, omega
from w22.verma import HWParams, VermaVector, act, level_basis

WINDOW = generator_window(3)

derandomized = settings(derandomize=True, max_examples=150, deadline=None)

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


@derandomized
@given(
    st.tuples(rationals, rationals, rationals, rationals),
    generators,
    st.integers(0, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.dictionaries(st.sampled_from(level_basis(n)), rationals))
    ),
)
def test_module_action_coefficients_are_exact(point, g, vector):
    p = HWParams.rational(*point)
    level, coords = vector
    assert_exact(act(g, VermaVector(level, coords), p).coords.values())
