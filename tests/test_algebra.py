import copy
import pickle
import random
from fractions import Fraction

import pytest

from w22 import algebra
from w22.algebra import (
    C,
    C1,
    Generator,
    I,
    INDEX_LIMIT,
    IndexLimitError,
    L,
    LieElement,
    bracket,
    bracket_gen,
    generator_window,
    jacobi_report,
)
from w22.pbw import multiply, ue
from w22.scalars import PARAM_POLYS
from w22.verma import VermaVector

from involutions import sigma


def lie(*pairs):
    return LieElement({g: Fraction(q) for g, q in pairs})


class TestBracket:
    def test_virasoro_sector_with_central_term(self):
        assert bracket(L(2), L(-2)) == lie((L(0), -4), (C, Fraction(1, 2)))

    def test_i_modes_commute(self):
        assert bracket(I(5), I(-5)).is_zero()

    def test_vanishing_mixed_bracket(self):
        assert bracket(L(1), I(1)).is_zero()

    def test_mixed_sector_with_central_term(self):
        assert bracket(L(3), I(-3)) == lie((I(0), -6), (C1, 2))

    def test_central_coefficient_is_an_int_where_integral(self):
        # (n^3 - n)/12 is an integer unless n = 2 mod 4.
        three = bracket_gen(L(3), L(-3)).terms[C]
        assert (type(three), three) == (int, 2)
        two = bracket_gen(L(2), L(-2)).terms[C]
        assert (type(two), two) == (Fraction, Fraction(1, 2))
        assert type(bracket_gen(L(4), I(-4)).terms[C1]) is int

    def test_central_elements(self):
        for g in generator_window(3):
            assert bracket(g, C).is_zero()
            assert bracket(g, C1).is_zero()

    def test_bilinearity(self):
        x = lie((L(1), Fraction(1, 2)), (I(-2), 3))
        y = lie((L(-1), 2), (C, 1))
        expected = bracket(L(1), L(-1)) * Fraction(1, 2) * 2 + bracket(I(-2), L(-1)) * Fraction(3) * 2
        assert bracket(x, y) == expected

    def test_antisymmetry_window(self):
        window = generator_window(4)
        for a in window:
            for b in window:
                assert (bracket_gen(a, b) + bracket_gen(b, a)).is_zero()

    def test_memo_ignores_a_patched_module_name(self, monkeypatch):
        # The [I, L] case is the negated [L, I] case; while the module name
        # is patched, the memo must still store the true bracket.
        bracket_gen.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(algebra, "bracket_gen", lambda a, b: LieElement())
            bracket_gen(I(-2), L(2))
        assert bracket_gen(I(-2), L(2)) == -bracket_gen(L(2), I(-2))
        assert bracket_gen(I(-2), L(2))


TRUE_BRACKET = algebra.bracket_gen


def skewed_bracket(a, b):
    """[L(m), I(-m)] gains C1 for every m, and [I(-m), L(m)] loses it:
    skew, but not a 2-cocycle."""
    if a.kind == "I" and b.kind == "L":
        return -skewed_bracket(b, a)
    out = TRUE_BRACKET(a, b)
    if a.kind == "L" and b.kind == "I" and a.index + b.index == 0:
        out = out + LieElement({C1: 1})
    return out


def centreless_bracket(a, b):
    """The bracket with its C term dropped: the centreless algebra, which
    satisfies Jacobi."""
    return LieElement({g: c for g, c in TRUE_BRACKET(a, b).terms.items() if g != C})


def one_sided_bracket(a, b):
    """The C term dropped from [L(n), L(-n)] for n > 0 only: not skew."""
    return LieElement({g: c for g, c in TRUE_BRACKET(a, b).terms.items() if g != C or a.index < 0})


def lopsided_bracket(a, b):
    """[L(n), L(m)] gains I(n+m) for n <= m only: not skew off the centre,
    so the classes (a, a, c) and (a, a, a) have nonzero sums as well."""
    out = TRUE_BRACKET(a, b)
    if a.kind == "L" and b.kind == "L" and a.index <= b.index:
        out = out + LieElement({I(a.index + b.index): 1})
    return out


def naive_jacobi(max_index, bracket_of):
    """``(triples_checked, violations)`` of the Jacobi report, from the
    cyclic sum of every ordered triple in product order, with the outer
    brackets extended linearly over ``bracket_of`` as well."""
    window = generator_window(max_index)

    def outer(x, y):
        out = LieElement()
        for g, coef in y.terms.items():
            out = out + coef * bracket_of(x, g)
        return out

    violations = []
    for a in window:
        for b in window:
            for c in window:
                s = outer(a, bracket_of(b, c)) + outer(b, bracket_of(c, a)) + outer(c, bracket_of(a, b))
                if s:
                    violations.append((str(a), str(b), str(c), str(s)))
    return len(window) ** 3, violations


class TestJacobi:
    @pytest.mark.parametrize("max_index", [1, 2, 3])
    @pytest.mark.parametrize(
        "bracket_of", [TRUE_BRACKET, skewed_bracket, centreless_bracket, one_sided_bracket, lopsided_bracket]
    )
    def test_report_matches_the_per_triple_reference(self, monkeypatch, max_index, bracket_of):
        monkeypatch.setattr(algebra, "bracket_gen", bracket_of)
        report = jacobi_report(max_index)
        assert (report.triples_checked, report.violations) == naive_jacobi(max_index, bracket_of)

    def test_report_is_clean(self):
        report = jacobi_report(3)
        assert report.triples_checked == len(generator_window(3)) ** 3
        assert report.violations == []
        assert report.passed

    def test_rotation_classes_report_every_ordered_triple(self, monkeypatch):
        # [L(m), I(-m)] gains C1 for every m, and [I(-m), L(m)] loses it:
        # skew, but not a 2-cocycle.
        true_bracket_gen = algebra.bracket_gen

        def skewed(a, b):
            if a.kind == "I" and b.kind == "L":
                return -skewed(b, a)
            out = true_bracket_gen(a, b)
            if a.kind == "L" and b.kind == "I" and a.index + b.index == 0:
                out = out + LieElement({C1: 1})
            return out

        monkeypatch.setattr(algebra, "bracket_gen", skewed)
        window = generator_window(2)
        expected = []
        for a in window:
            for b in window:
                for c in window:
                    s = bracket(a, skewed(b, c)) + bracket(b, skewed(c, a)) + bracket(c, skewed(a, b))
                    if s:
                        expected.append((str(a), str(b), str(c), str(s)))
        report = jacobi_report(2)
        assert ("I(-1)", "L(0)", "L(1)", "-2*C1") in expected
        assert report.violations == expected
        assert report.triples_checked == len(window) ** 3

    def test_specific_triple_with_central_contributions(self):
        a, b, c = L(2), L(-2), I(0)
        s = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
        assert s.is_zero()

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            jacobi_report(0)


class TestScalarMultiplication:
    """Only exact scalars (int, Fraction, Poly) multiply a combination."""

    ELEMENTS = [LieElement({L(1): 1}), ue(L(1)), VermaVector(0, {(): Fraction(1)})]

    # A Generator is an int subclass, and never a scalar.
    @pytest.mark.parametrize("scalar", [2.5, 0.5, 1j, None, "2", L(2), I(-1), C])
    def test_inexact_scalars_are_rejected(self, scalar):
        for x in self.ELEMENTS:
            with pytest.raises(TypeError):
                scalar * x
            with pytest.raises(TypeError):
                x * scalar

    def test_lie_element_times_combination_is_rejected(self):
        x = LieElement({L(1): 1})
        for y in (LieElement({L(2): 1}), ue(L(2))):
            with pytest.raises(TypeError):
                x * y
            with pytest.raises(TypeError):
                y * x

    def test_exact_scalars_and_ue_products(self):
        for x in self.ELEMENTS:
            assert 2 * x == x + x == x * Fraction(2)
            assert str(PARAM_POLYS.c0 * x) == str(x * PARAM_POLYS.c0)
        assert ue(L(1)) * ue(L(2)) == multiply(ue(L(1)), ue(L(2)))


class TestSigma:
    def test_generator_images(self):
        assert sigma(L(2)) == lie((L(-2), -1))
        assert sigma(I(-7)) == lie((I(7), -1))
        assert sigma(C) == lie((C, -1))
        assert sigma(C1) == lie((C1, -1))

    def test_involution_on_random_elements(self):
        rng = random.Random(7)
        window = generator_window(5)
        for _ in range(25):
            x = LieElement(
                {g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in rng.sample(window, 4)}
            )
            assert sigma(sigma(x)) == x

    def test_automorphism_window(self):
        for a in generator_window(4):
            for b in generator_window(4):
                assert sigma(bracket_gen(a, b)) == bracket(sigma(a), sigma(b))

    def test_central_sign_forced_by_automorphism(self):
        # Matching central terms of sigma[L2, L-2] against [sigma L2, sigma L-2]
        # forces sigma(C) = -C.
        lhs = sigma(bracket(L(2), L(-2)))
        rhs = bracket(sigma(L(2)), sigma(L(-2)))
        assert lhs == rhs == lie((L(0), 4), (C, Fraction(-1, 2)))


class TestWeight:
    def test_values(self):
        assert L(-3).weight == -3
        assert I(7).weight == 7
        assert C.weight == 0
        assert C1.weight == 0

    def test_grading_consistency(self):
        for g in generator_window(5):
            assert bracket(L(0), g) == g.weight * LieElement({g: 1})


class TestGeneratorContract:
    # The window of small indices, and the letters at the edges of the
    # encoding: the least and greatest index of each kind.
    EDGES = [C, C1, I(-INDEX_LIMIT), I(INDEX_LIMIT), L(-INDEX_LIMIT), L(INDEX_LIMIT)]
    LETTERS = generator_window(3) + EDGES

    def test_order_follows_sort_key(self):
        # The canonical order C < C1 < I(n) asc < L(n) asc, as (rank, index).
        rank = {"C": 0, "C1": 1, "I": 2, "L": 3}

        def key(g):
            return rank[g.kind], g.index

        for a in self.LETTERS:
            for b in self.LETTERS:
                assert (a < b) == (key(a) < key(b))
                assert (a <= b) == (key(a) <= key(b))

    def test_equality_and_hash_follow_kind_and_index(self):
        for a in self.LETTERS:
            twin = Generator(a.kind, a.index)
            assert twin == a and hash(twin) == hash(a)
            for b in self.LETTERS:
                assert (a == b) == ((a.kind, a.index) == (b.kind, b.index))
        assert len(set(self.LETTERS)) == len(set(map(str, self.LETTERS)))

    def test_copy_and_pickle_round_trip(self):
        for g in [I(-3), L(0), L(5)] + self.EDGES:
            for twin in [copy.copy(g), copy.deepcopy(g)] + [
                pickle.loads(pickle.dumps(g, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]:
                assert type(twin) is Generator
                assert twin == g and (twin.kind, twin.index) == (g.kind, g.index)

    def test_attributes_and_text(self):
        assert (L(-2).kind, L(-2).index, L(-2).weight) == ("L", -2, -2)
        assert (C1.kind, C1.index, C1.weight) == ("C1", 0, 0)
        assert [str(g) for g in (C, C1, I(4), L(-1))] == ["C", "C1", "I(4)", "L(-1)"]
        assert repr(I(-7)) == "I(-7)"

    @pytest.mark.parametrize(
        "expression",
        [
            lambda g: 2 * g,
            lambda g: g + 1,
            lambda g: 1 - g,
            lambda g: Fraction(1, 2) * g,
            lambda g: g * Fraction(1, 2),
            lambda g: g / 2,
            lambda g: 2**g,
            lambda g: -g,
            lambda g: abs(g),
            lambda g: sum([g]),
            lambda g: Fraction(g),
            lambda g: g.numerator,
            lambda g: g.denominator,
        ],
    )
    def test_a_letter_is_not_a_number(self, expression):
        for g in (C, I(-2), L(1)):
            with pytest.raises(TypeError, match="letter, not a number"):
                expression(g)

    def test_shift_and_mask_keep_their_int_results(self):
        # .kind and .index read these two.
        g = L(1)
        assert (g >> 22, g & 7, 1 << 30 >> g, 7 & g) == (int(g) >> 22, int(g) & 7, 1 << 30 >> int(g), 7 & int(g))


class TestIndexBound:
    def test_construction_rejected_beyond_limit(self):
        Generator("L", 10**6)  # at the limit: fine
        with pytest.raises(IndexLimitError):
            Generator("L", 10**6 + 1)
        with pytest.raises(IndexLimitError):
            I(-(10**6) - 5)

    def test_bracket_overflow_is_reported(self):
        with pytest.raises(IndexLimitError):
            bracket(L(10**6), L(5))

    def test_central_generators_carry_no_index(self):
        with pytest.raises(ValueError):
            Generator("C", 1)


class TestPositivePartGeneration:
    def test_high_modes_reachable_from_l1_l2_i1_i2(self):
        # L(k+1) = [L1, Lk]/(k-1) and I(k+1) = [L1, Ik]/(k-1) for k >= 2,
        # starting from the four generators; so annihilation by them kills
        # the whole positive part.
        for k in range(2, 7):
            assert bracket(L(1), L(k)) == (k - 1) * LieElement({L(k + 1): 1})
            assert bracket(L(1), I(k)) == (k - 1) * LieElement({I(k + 1): 1})
