import random
from fractions import Fraction

import pytest

from naive_rewriter import naive_normal_order
from w22.algebra import C, C1, I, L, bracket_gen, generator_window
from w22.pbw import (
    WORD_LIMIT,
    UEElement,
    WordLengthError,
    commutator,
    multiply,
    normal_order,
    omega,
    ue,
)


def words(*items):
    return UEElement({tuple(w): Fraction(q) for w, q in items})


def random_word(rng, max_len=5, max_index=4):
    pool = generator_window(max_index)
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


class TestNormalOrder:
    def test_single_virasoro_rewrite(self):
        assert normal_order((L(1), L(-1))) == words(
            ([L(-1), L(1)], 1), ([L(0)], -2)
        )

    def test_commuting_i_modes_pure_reorder(self):
        assert normal_order((I(2), I(-7))) == words(([I(-7), I(2)], 1))

    def test_mixed_rewrite(self):
        assert normal_order((L(1), I(2))) == words(([I(2), L(1)], 1), ([I(3)], 1))

    def test_already_normal_words_unchanged(self):
        w = (C, C1, I(-2), I(3), L(-1), L(-1), L(5))
        assert normal_order(w) == words((list(w), 1))

    def test_central_word_rewrites(self):
        # Reordering L2.L-2 produces the central C inside U.
        assert normal_order((L(2), L(-2))) == words(
            ([L(-2), L(2)], 1), ([L(0)], -4), ([C], Fraction(1, 2))
        )

    def test_word_length_bound(self):
        with pytest.raises(WordLengthError):
            normal_order(tuple(I(-1) for _ in range(65)))
        half = UEElement({tuple(I(-1) for _ in range(32)): Fraction(1)})
        assert multiply(half, half).max_word_length() == WORD_LIMIT
        with pytest.raises(WordLengthError):
            multiply(half, multiply(ue(I(-1)), half))

    def test_confluence_of_strategies(self):
        rng = random.Random(2024)
        for _ in range(200):
            w = random_word(rng)
            left = naive_normal_order(w, "leftmost")
            right = naive_normal_order(w, "rightmost")
            assert left == right == normal_order(w)

    def test_filtration_never_grows(self):
        rng = random.Random(11)
        for _ in range(100):
            w = random_word(rng)
            assert normal_order(w).max_word_length() <= len(w)

    def test_soundness_against_bracket(self):
        for a in generator_window(3):
            for b in generator_window(3):
                diff = normal_order((a, b)) - normal_order((b, a))
                assert diff == ue(bracket_gen(a, b))


class TestMultiply:
    def test_identity_element(self):
        u = normal_order((L(-2), I(1), L(3)))
        assert multiply(UEElement.one(), u) == u
        assert multiply(u, UEElement.one()) == u

    def test_commutator_matches_bracket(self):
        assert multiply(ue(L(-1)), ue(L(1))) - multiply(ue(L(1)), ue(L(-1))) == words(
            ([L(0)], 2)
        )

    def test_central_generator_commutes(self):
        u = normal_order((L(-3), I(2), L(1)))
        assert multiply(ue(C), u) == multiply(u, ue(C))
        assert multiply(ue(C1), u) == multiply(u, ue(C1))

    def test_non_normal_right_factor(self):
        right = UEElement({(L(1), L(-1)): Fraction(1)})
        assert multiply(ue(L(0)), right) == normal_order((L(0), L(1), L(-1)))
        assert multiply(UEElement.one(), right) == normal_order((L(1), L(-1)))

    def test_associativity_on_random_elements(self):
        rng = random.Random(5)
        for _ in range(15):
            u = normal_order(random_word(rng, max_len=3, max_index=3))
            v = normal_order(random_word(rng, max_len=3, max_index=3))
            w = normal_order(random_word(rng, max_len=2, max_index=3))
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


class TestOmega:
    def test_generator_rule(self):
        assert omega(ue(L(-2))) == words(([L(2)], 1))
        assert omega(ue(C)) == words(([C], 1))

    def test_product_reversal_example(self):
        u = normal_order((L(-1), I(-1)))
        assert omega(u) == normal_order((I(1), L(1)))
        assert omega(u) == words(([I(1), L(1)], 1))

    def test_involution_on_random_elements(self):
        rng = random.Random(13)
        for _ in range(40):
            u = normal_order(random_word(rng))
            assert omega(omega(u)) == u

    def test_anti_automorphism_on_random_products(self):
        rng = random.Random(17)
        for _ in range(20):
            u = normal_order(random_word(rng, max_len=3))
            v = normal_order(random_word(rng, max_len=3))
            assert omega(multiply(u, v)) == multiply(omega(v), omega(u))


def test_commutator_helper():
    assert commutator(ue(L(-2)), ue(I(4))) == words(([I(2)], 6))
