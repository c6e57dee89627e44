import gc
import hashlib
import operator
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from w22 import verma
from w22.algebra import C, C1, I, L, _format_word, bracket, generator_window
from w22.pbw import normal_order
from w22.scalars import PARAM_POLYS, Poly
from w22.verma import (
    DEFAULT_MAX_LEVEL,
    HWParams,
    LevelBoundError,
    VermaVector,
    act,
    first_degenerate_level,
    gram_matrix,
    i0_matrix,
    is_reducible,
    level_basis,
    partitions,
    shapovalov_det,
    singular_vectors,
)

from dense_kernel import action_rows, dense_nilpotency_degree, dense_nullspace, det, is_symmetric
from naive_action import (
    act_element,
    apply_word,
    level_of,
    naive_image,
    pairing_gram,
    parts,
    per_point_i0,
    per_point_i0_degree,
)

LAM, CC, C0, C1V = PARAM_POLYS.lam, PARAM_POLYS.c, PARAM_POLYS.c0, PARAM_POLYS.c1


def substitute(poly, point):
    """A Poly at exact rational values of (lam, c, c0, c1)."""
    return sum(
        (coef * prod(v ** e for v, e in zip(point, exp)) for exp, coef in poly.terms.items()),
        Fraction(0),
    )


def mono(i_part=(), l_part=()):
    """The basis word ``I(-i_part) L(-l_part)``."""
    return tuple(I(-j) for j in i_part) + tuple(L(-k) for k in l_part)


def vec(level, *items):
    return VermaVector(level, {m: Fraction(q) for m, q in items})


# Points on the loci (m^2 - 1)/12 * c1 = 2 * c0 for m = 1..5: the form first
# degenerates at level m.
LOCUS_POINTS = [
    HWParams.rational(2, 1, 0, 5),
    HWParams.rational(2, 1, 1, 8),
    HWParams.rational(2, 1, 1, 3),
    HWParams.rational(Fraction(1, 2), -3, 5, 8),
    HWParams.rational(2, 1, 1, 1),
]


# Degenerate points with more than the I-only singular vectors: the
# lambda_{m,1} Jordan partners at m = 2 and m = 3, the m = 1 locus at
# lambda = 0 and 1, and the plane c0 = c1 = 0, where every f(k) vanishes.
EXCEPTIONAL_POINTS = [
    HWParams.rational(Fraction(-9, 4), 0, 1, 8),
    HWParams.rational(Fraction(-20, 3), 0, 1, 3),
    HWParams.rational(0, 1, 0, 1),
    HWParams.rational(1, 1, 0, 1),
    HWParams.rational(2, 1, 0, 0),
    HWParams.rational(Fraction(-1, 16), Fraction(1, 2), 0, 0),
]


# SHA-256 of str(shapovalov_det(n, HWParams.symbolic(), n)), recorded once:
# levels 5-8 from the block-Bareiss determinant (level 8 takes minutes
# there), levels 9 and 10 from the closed-form product multiplied out one
# Fraction operation per pair of terms.  The Poly string is canonical, so
# any correct evaluation prints these bytes.
SYMBOLIC_DET_SHA256 = {
    5: "96c0e9023b851878b6684391c41d0cf93823ffb2cca86db710e2913ef4535920",
    6: "eec0d8e9582c79989e1bcb65984a48366a26843f265b5d1fa020f0ad02b8ccd8",
    7: "c7a45d84515e620e4a4fdd5f02c10ed404cd6a039c29da58c1e4c8a1162251a8",
    8: "c82ebea373d7c9c985b1df9f455e67e403f051d4c24ee5616122528c8bd1348a",
    9: "823534c78efe2e99579f4c5947d16b8b9661e15fa1c3d55d64aed493ee68ca9c",
    10: "173bd831b21c4c8e84958e989411a977bee74e4a541def5ed8de81d907c74477",
}


def seeded_points(seed, count):
    """Rational points with small random numerators and denominators."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    return [HWParams.rational(q(), q(), q(), q()) for _ in range(count)]


# -- independent dimension oracles ------------------------------------------

def _series_counts(top):
    """Coefficients of prod_{k>=1} (1 - q^k)^(-2) by direct convolution."""
    coeffs = [1] + [0] * top
    for k in range(1, top + 1):
        for _ in range(2):
            for n in range(k, top + 1):
                coeffs[n] += coeffs[n - k]
    return coeffs


def _enumerate_pairs(n):
    """Brute-force set of two-colored partitions of n."""
    def parts(total, cap):
        if total == 0:
            return [()]
        out = []
        for p in range(min(cap, total), 0, -1):
            out.extend((p,) + rest for rest in parts(total - p, p))
        return out

    pairs = set()
    for s in range(n + 1):
        for ip in parts(s, s or 1):
            for lp in parts(n - s, (n - s) or 1):
                pairs.add((ip, lp))
    return pairs


class TestLevelBasis:
    def test_level_zero(self):
        assert level_basis(0) == [mono()]

    def test_level_two_canonical_order(self):
        assert level_basis(2) == [
            mono((2,)),
            mono((1, 1)),
            mono((1,), (1,)),
            mono((), (2,)),
            mono((), (1, 1)),
        ]

    def test_counts_against_series_oracle(self):
        counts = [len(level_basis(n)) for n in range(7)]
        assert counts == _series_counts(6) == [1, 2, 5, 10, 20, 36, 65]

    def test_counts_against_enumeration_oracle(self):
        for n in range(9):
            basis = level_basis(n, max_level=8)
            assert {parts(b) for b in basis} == _enumerate_pairs(n)
            assert all(level_of(b) == n for b in basis)

    def test_level_bound(self):
        with pytest.raises(LevelBoundError):
            level_basis(9)
        assert len(level_basis(9, max_level=9)) == 300

    def test_bound_is_checked_before_the_cache(self):
        before = verma._sorted_basis.cache_info()
        for n, bound in ((-1, 8), (9, 8), (4, 3)):
            with pytest.raises(LevelBoundError):
                level_basis(n, bound)
        assert verma._sorted_basis.cache_info() == before

    def test_returned_list_is_the_callers(self):
        basis = level_basis(3)
        expected = list(basis)
        basis.reverse()
        basis.append(mono((9,)))
        assert level_basis(3) == expected
        assert level_basis(3) is not level_basis(3)

    @pytest.mark.parametrize("n", range(13))
    def test_order_is_the_descending_order_of_the_pairs(self, n):
        # An oracle that compares no letters: the pairs (mu, nu) of
        # partitions, sorted as tuples of parts, then spelled as words.
        pairs = sorted(_enumerate_pairs(n), reverse=True)
        assert verma._sorted_basis(n) == tuple(mono(mu, nu) for mu, nu in pairs)

    def test_monomial_strings(self):
        assert _format_word(mono()) == "1"
        assert _format_word(mono((2, 1), (3,))) == "I(-2)I(-1)L(-3)"


class TestVermaVector:
    def test_equal_zero_vectors_hash_alike(self):
        assert VermaVector(1) == VermaVector(2)
        assert hash(VermaVector(1)) == hash(VermaVector(2))
        assert len({VermaVector(1), VermaVector(2)}) == 1

    def test_equal_vectors_hash_alike_across_coefficient_types(self):
        b = mono((1,), (1,))
        vectors = [VermaVector(2, {b: q}) for q in (4, Fraction(4), Poly.const(4))]
        assert all(v == vectors[0] and hash(v) == hash(vectors[0]) for v in vectors)
        assert len(set(vectors)) == 1
        assert {v: k for k, v in enumerate(vectors)} == {vectors[0]: 2}

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    def test_vectors_of_two_levels_do_not_combine(self, op):
        v1, v2 = vec(1, (mono((1,)), 1)), vec(2, (mono((2,)), 1))
        with pytest.raises(ValueError, match="different levels"):
            op(v1, v2)
        # A zero vector places no level, so it combines with any vector.
        assert op(v1, VermaVector(2)) == v1


class TestAction:
    def setup_method(self):
        self.p = HWParams.symbolic()

    def test_grading_eigenvalue(self):
        w = act(L(0), vec(1, (mono((), (1,)), 1)), self.p)
        assert w == VermaVector(1, {mono((), (1,)): LAM - 1})

    def test_virasoro_pairing(self):
        w = act(L(2), vec(2, (mono((), (2,)), 1)), self.p)
        assert w == VermaVector(0, {mono(): -4 * LAM + Fraction(1, 2) * CC})

    def test_i0_is_not_semisimple(self):
        w = act(I(0), vec(1, (mono((), (1,)), 1)), self.p)
        assert w == VermaVector(
            1, {mono((), (1,)): C0, mono((1,)): Poly.const(-1)}
        )

    def test_mixed_pairing(self):
        w = act(L(1), vec(1, (mono((1,)), 1)), self.p)
        assert w == VermaVector(0, {mono(): -2 * C0})

    def test_creation_outputs(self):
        # L(-1) I(-2) v = I(-2) L(-1) v + [L(-1), I(-2)] v
        w = act(L(-1), vec(2, (mono((2,)), 1)), self.p)
        assert w == vec(3, (mono((2,), (1,)), 1), (mono((3,)), -1))
        w = act(L(-1), vec(2, (mono((), (2,)), 1)), self.p)
        assert w == vec(3, (mono((), (2, 1)), 1), (mono((), (3,)), -1))
        # The I modes commute: only reordering.
        w = act(I(-1), vec(3, (mono((2,), (1,)), 1)), self.p)
        assert w == vec(4, (mono((2, 1), (1,)), 1))

    def test_positive_modes_annihilate_highest_weight_vector(self):
        v = vec(0, (mono(), 1))
        for k in range(1, 5):
            assert act(L(k), v, self.p).is_zero()
            assert act(I(k), v, self.p).is_zero()

    def test_central_elements_act_as_scalars(self):
        for n in range(3):
            for b in level_basis(n):
                w = vec(n, (b, 1))
                assert act(C, w, self.p) == CC * w
                assert act(C1, w, self.p) == C1V * w

    def test_homogeneity_window(self):
        p = HWParams.rational(Fraction(1, 2), 3, Fraction(-2, 3), 5)
        for g in generator_window(4):
            for n in range(5):
                for b in level_basis(n):
                    w = act(g, vec(n, (b, 1)), p)
                    target = n - g.weight
                    if target < 0:
                        assert w.is_zero()
                    else:
                        assert all(level_of(m) == target for m in w.terms)

    def test_representation_property_window(self):
        p = HWParams.rational(Fraction(1, 2), 3, Fraction(-2, 3), 5)
        for g in generator_window(3):
            for h in generator_window(3):
                for n in range(4):
                    for b in level_basis(n):
                        w = vec(n, (b, 1))
                        lhs = act(g, act(h, w, p), p) - act(h, act(g, w, p), p)
                        rhs = act_element(bracket(g, h), w, p)
                        assert lhs == rhs, (g, h, b)

    def test_apply_word_order(self):
        # L(1) L(-1) v = [L(1), L(-1)] v = -2 lambda v
        w = apply_word((L(1), L(-1)), vec(0, (mono(), 1)), self.p)
        assert w == VermaVector(0, {mono(): -2 * LAM})


# Points of the oracle check: the m = 2 locus, its lambda_{2,1} Jordan
# point, the plane c0 = c1 = 0, the generic point, and rational (lambda, c)
# with c0 and c1 symbolic.
ORACLE_POINTS = [
    HWParams.rational(2, 1, 1, 8),
    HWParams.rational(Fraction(-9, 4), 0, 1, 8),
    HWParams.rational(2, 1, 0, 0),
    HWParams.symbolic(),
    HWParams(Poly.const(Fraction(3, 2)), Poly.const(-2), C0, C1V, PARAM_POLYS),
]
ORACLE_IDS = ["locus2", "jordan2", "c0c1zero", "generic", "partial"]
DENSE_POINT = HWParams.rational(Fraction(1, 3), -2, Fraction(5, 7), 3)


def typed(entries):
    """A matrix as the type and repr of each entry."""
    return [[(type(x), repr(x)) for x in row] for row in entries]


def evaluated_image(g, b, p):
    """The point-free table of g on b, evaluated at p, as a dict."""
    d, values = verma._scaled_slots(p)
    image = verma._evaluate(verma._act_on_monomial(g, b), values)
    return {m: verma._unscale(p, x, d) for m, x in image}


class TestPointFreeTable:
    @pytest.mark.parametrize("p", ORACLE_POINTS, ids=ORACLE_IDS)
    def test_evaluated_table_equals_per_point_recursion(self, p):
        for n in range(6):
            for b in level_basis(n):
                for g in generator_window(3):
                    assert evaluated_image(g, b, p) == naive_image(g, b, p), (g, b)
                    assert act(g, VermaVector(n, {b: 1}), p).terms == naive_image(g, b, p)

    def test_every_term_carries_one_slot(self):
        for n in range(6):
            for b in level_basis(n):
                for g in generator_window(3):
                    for (m, slot), coef in verma._act_on_monomial(g, b):
                        assert type(m) is tuple and level_of(m) == n - g.weight
                        assert m in level_basis(n - g.weight)
                        assert slot in verma.SLOTS
                        assert type(coef) is int and coef

    @pytest.mark.parametrize("n", range(6, DEFAULT_MAX_LEVEL + 1))
    def test_negative_modes_stop_at_the_normal_word(self, n):
        # The image of a basis word under a negative mode is its PBW normal
        # form in U, with no parameter and integer coefficients.
        for b in level_basis(n):
            for g in [X(-k) for X in (L, I) for k in (1, 2, 3)]:
                table = verma._act_on_monomial(g, b)
                assert all(slot == 1 and type(c) is int for (_, slot), c in table), (g, b)
                assert {m: c for (m, _), c in table} == normal_order((g,) + b).terms

    def test_i0_c0_slot_is_the_identity(self):
        # So I(0) - c0 is the slot-1 part of I(0)'s table at every point.
        for n in range(DEFAULT_MAX_LEVEL + 1):
            for b in level_basis(n):
                table = verma._act_on_monomial(I(0), b)
                assert {m: c for (m, slot), c in table if slot == "c0"} == {b: 1}
                assert all(slot in (1, "c0") and type(c) is int for (_, slot), c in table)

    def test_sweep_keeps_one_table_and_one_point(self):
        points = seeded_points(91, 20)
        verma._act_on_monomial.cache_clear()
        for k, p in enumerate(points):
            gram_matrix(5, p)
            i0_matrix(5, p)
            if k == 0:
                first = verma._act_on_monomial.cache_info().currsize
        assert verma._act_on_monomial.cache_info().currsize == first

    def test_no_point_outlives_a_call(self):
        # A new point on the m = 2 locus, so the singular search eliminates.
        p = HWParams.rational(Fraction(7, 5), 3, 1, 8)
        ref = weakref.ref(p)
        gram_matrix(5, p)
        assert singular_vectors(2, p)
        i0_matrix(3, p)
        act(L(1), vec(2, (mono((), (1, 1)), 1)), p)
        del p
        gc.collect()
        assert ref() is None

    def test_hwparams_hash_follows_the_point(self):
        p, q = HWParams.rational(2, 1, 1, 8), HWParams.rational(2, 1, 1, 8)
        assert p == q and hash(p) == hash(q) and p is not q
        assert HWParams.symbolic() == HWParams.symbolic()


class TestGram:
    def test_level_zero_normalization(self):
        g = gram_matrix(0, HWParams.symbolic())
        assert g.entries == [[Fraction(1)]]

    def test_level_one_symbolic(self):
        g = gram_matrix(1, HWParams.symbolic())
        assert g.basis == [mono((1,)), mono((), (1,))]
        assert g.entries[0][0] == 0
        assert g.entries[0][1] == -2 * C0
        assert g.entries[1][0] == -2 * C0
        assert g.entries[1][1] == -2 * LAM

    def test_level_two_pure_i_block_vanishes(self):
        g = gram_matrix(2, HWParams.symbolic())
        # rows/cols 0,1 are I(-2) and I(-1)I(-1): the [I,I]=0 sector
        for i in range(2):
            for j in range(2):
                assert g.entries[i][j] == 0

    @staticmethod
    def block(gram, kind):
        """The block of the form on the words whose letters are all of one
        kind."""
        rows = [i for i, b in enumerate(gram.basis) if all(g.kind == kind for g in b)]
        return [[gram.entries[i][j] for j in rows] for i in rows]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pure_i_block_vanishes(self, n):
        # A positive I mode commutes with every I(-k) and kills v.
        block = self.block(gram_matrix(n, DENSE_POINT), "I")
        assert len(block) == len([*partitions(n)]) and not any(map(any, block))

    @pytest.mark.parametrize("lam, c", [(Fraction(-7, 5), Fraction(11, 3)), (2, 1)])
    def test_pure_l_block_depends_on_lambda_and_c_only(self, lam, c):
        # Positive L modes on a word of L letters give L letters and C,
        # never an I letter, so c0 and c1 never reach this block: it is the
        # Virasoro form of M(-lambda, c).
        for n in range(1, 7):
            blocks = [
                self.block(gram_matrix(n, HWParams.rational(lam, c, c0, c1)), "L")
                for c0, c1 in [(0, 0), (Fraction(5, 7), 3), (1, 8), (-2, Fraction(1, 2))]
            ]
            assert len(blocks[0]) == len([*partitions(n)])
            assert all(b == blocks[0] for b in blocks)

    @pytest.mark.parametrize("n", range(5))
    def test_symmetry_numeric(self, n):
        p = HWParams.rational(Fraction(3, 2), -1, Fraction(2, 7), 4)
        assert is_symmetric(gram_matrix(n, p).entries)

    @pytest.mark.parametrize("n", range(5))
    def test_symmetry_symbolic(self, n):
        assert is_symmetric(gram_matrix(n, HWParams.symbolic()).entries)

    @pytest.mark.parametrize("p", ORACLE_POINTS + [DENSE_POINT], ids=ORACLE_IDS + ["dense"])
    def test_entries_equal_pairing_assembly(self, p):
        for n in range(7 if p.ring.is_field else 5):
            entries = gram_matrix(n, p).entries
            expected = pairing_gram(n, p)
            assert typed(entries) == typed(expected)
            assert entries == expected

    def test_numeric_equals_symbolic_specialization(self):
        point = (Fraction(2), Fraction(-1, 3), Fraction(1, 2), Fraction(5))
        sym = gram_matrix(3, HWParams.symbolic())
        num = gram_matrix(3, HWParams.rational(*point))
        for row_s, row_n in zip(sym.entries, num.entries):
            for s, x in zip(row_s, row_n):
                s_val = substitute(s, point) if isinstance(s, Poly) else Fraction(s)
                assert s_val == x


def _f(k, p):
    """<I(-k) v, L(-k) v> = [I(k), L(-k)] on v: the I(0) term and the C1 term."""
    return -2 * k * p.c0 + Fraction(k ** 3 - k, 12) * p.c1


def _diagonal_entry(b, p):
    """prod_k f(k)^{m_k} m_k! over the parts of each colour of b."""
    out = Fraction(1)
    for part in parts(b):
        for k in set(part):
            m = part.count(k)
            out = out * _f(k, p) ** m * factorial(m)
    return out


def ring_product_det(n, p):
    """``scale * prod_k f(k)^{E_k}`` multiplied out factor by factor in the
    arithmetic of the ring of p: the oracle for the expanded binary form
    that shapovalov_det builds at a Poly point."""
    exponents, scale = verma._det_shape(n)
    out = p.ring.one * scale
    for k, e in exponents:
        out = out * _f(k, p) ** e
    return out


class TestGramBlocks:
    """The zero pattern and the triangular structure behind the product in
    shapovalov_det, and the product itself against full Bareiss on the whole
    Gram matrix."""

    @staticmethod
    def assert_zero_pattern(gram):
        for row, entries in zip(gram.basis, gram.entries):
            for col, x in zip(gram.basis, entries):
                if len(parts(row)[0]) > len(parts(col)[1]):
                    assert x == 0, (row, col)

    @pytest.mark.parametrize("n", range(6))
    def test_zero_pattern_rational(self, n):
        for p in seeded_points(n, 2):
            self.assert_zero_pattern(gram_matrix(n, p))

    @pytest.mark.parametrize("n", range(4))
    def test_zero_pattern_symbolic(self, n):
        self.assert_zero_pattern(gram_matrix(n, HWParams.symbolic()))

    @staticmethod
    def assert_triangular(gram, p):
        """Rows sorted by I count, then in ascending order of the pairs
        (mu, nu), the descending word order; column j is the colour swap of
        row j.  Every nonzero entry off the diagonal lies above it, and the
        diagonal is the closed product."""
        index = {b: i for i, b in enumerate(gram.basis)}
        order = sorted(gram.basis, key=lambda b: (len(parts(b)[0]), parts(b)))
        for i, row in enumerate(order):
            for j, partner in enumerate(order):
                swapped = mono(*reversed(parts(partner)))
                x = gram.entries[index[row]][index[swapped]]
                if i == j:
                    assert x == _diagonal_entry(row, p), row
                elif x:
                    assert i < j, (row, swapped)

    @pytest.mark.parametrize("n", range(7))
    def test_triangular_rational(self, n):
        for p in seeded_points(n, 2 if n < 6 else 1):
            self.assert_triangular(gram_matrix(n, p), p)

    def test_triangular_rational_level_seven(self):
        p = seeded_points(7, 1)[0]
        self.assert_triangular(gram_matrix(7, p), p)

    @pytest.mark.parametrize("n", range(5))
    def test_triangular_symbolic(self, n):
        p = HWParams.symbolic()
        self.assert_triangular(gram_matrix(n, p), p)

    @pytest.mark.parametrize("n", range(5))
    def test_block_product_equals_full_bareiss_symbolic(self, n):
        p = HWParams.symbolic()
        assert shapovalov_det(n, p) == det(gram_matrix(n, p).entries, p.ring)

    @pytest.mark.parametrize("n", range(7))
    def test_block_product_equals_full_bareiss_rational(self, n):
        # Level 6 is the costliest oracle, and every locus point is
        # degenerate there: one seeded point only.
        points = seeded_points(10 + n, 1) + (LOCUS_POINTS if n < 6 else [])
        for p in points:
            assert shapovalov_det(n, p) == det(gram_matrix(n, p).entries, p.ring)

    @pytest.mark.parametrize("n", [5, 6, 7, 9, 10])
    def test_symbolic_output_matches_recorded_digest(self, n):
        # Level 8 is pinned through the CLI; 9 and 10 lie above the default bound.
        text = str(shapovalov_det(n, HWParams.symbolic(), n))
        assert hashlib.sha256(text.encode()).hexdigest() == SYMBOLIC_DET_SHA256[n]

    def test_symbolic_level_five_is_free_of_lambda_and_c(self):
        det = shapovalov_det(5, HWParams.symbolic())
        assert det
        assert all(exp[0] == exp[1] == 0 for exp in det.terms)


class TestDeterminant:
    def test_level_zero_and_one(self):
        p = HWParams.symbolic()
        assert shapovalov_det(0, p) == 1
        assert shapovalov_det(1, p) == -4 * C0 ** 2

    def test_level_one_specializes_to_zero_at_c0_zero(self):
        assert shapovalov_det(1, HWParams.rational(7, 3, 0, 11)) == 0

    def test_level_two_matches_hand_cofactor_expansion(self):
        # Hand expansion of the 5x5 in the canonical order gives
        # A^2 D^2 E with A = c1/2 - 4 c0, D = 8 c0^2, E = 4 c0^2.
        expected = 64 * C0 ** 6 * (C1V - 8 * C0) ** 2
        assert shapovalov_det(2, HWParams.symbolic()) == expected

    @pytest.mark.parametrize("n", range(17))
    def test_counted_shape_matches_a_walk_over_the_basis(self, n):
        # The walk: E_k sums the multiplicities of k over every basis element
        # and both colours, each multiplicity m gives a factor m!, and the
        # colour swap pairs up the elements with mu != nu.
        exponents, scale, swapped = Counter(), 1, 0
        for s in range(n + 1):
            for mu in verma.partitions(s):
                for nu in verma.partitions(n - s):
                    swapped += mu != nu
                    for part in (mu, nu):
                        for k, m in Counter(part).items():
                            exponents[k] += m
                            scale *= factorial(m)
        sign = -1 if swapped // 2 % 2 else 1
        assert verma._det_shape(n) == (tuple(sorted(exponents.items())), sign * scale)

    @pytest.mark.parametrize("n", range(9))
    def test_expanded_form_matches_the_ring_product(self, n):
        p = HWParams.symbolic()
        expanded, expected = shapovalov_det(n, p), ring_product_det(n, p)
        assert type(expanded) is Poly
        assert expanded.terms == expected.terms and str(expanded) == str(expected)
        assert all(type(c) is Fraction and c for c in expanded.terms.values())

    def test_determinant_has_no_lambda_or_c_dependence_at_low_levels(self):
        points = [(0, 0), (2, 1), (-1, 1)]
        for n in range(1, 5):
            values = {
                shapovalov_det(n, HWParams.rational(lam, c, 1, -8))
                for lam, c in points
            }
            assert len(values) == 1


class TestSingularVectors:
    def test_c0_zero_level_one(self):
        p = HWParams.rational(2, 1, 0, 5)
        found = singular_vectors(1, p)
        assert len(found) == 1
        assert found[0].vector == vec(1, (mono((1,)), 1))
        assert found[0].i0_eigenvector

    def test_c0_zero_lambda_zero_gains_virasoro_vector(self):
        found = singular_vectors(1, HWParams.rational(0, 0, 0, 5))
        assert {str(s.vector) for s in found} == {"1*[I(-1)]v", "1*[L(-1)]v"}

    def test_criterion_irreducible_point_has_none(self):
        p = HWParams.rational(2, 1, -1, 1)
        for n in range(1, 5):
            assert singular_vectors(n, p) == []

    def test_degenerate_point_level_two_vector(self):
        # First degeneracy of the form at c1 = 8 c0 (c0 != 0): the level-2
        # singular vector is 4 I(-2) v - 3 I(-1)^2 v, derived by hand from
        # the four annihilation equations.
        p = HWParams.rational(2, 1, 1, 8)
        assert first_degenerate_level(p, 4) == 2
        found = singular_vectors(2, p)
        assert len(found) == 1
        assert found[0].vector == vec(2, (mono((2,)), 4), (mono((1, 1)), -3))
        assert found[0].i0_eigenvector

    def test_level_two_vector_scales_with_the_i_letters(self):
        # I(n) -> 3 I(n), C1 -> 3 C1 is an automorphism that carries
        # M(2, 1, 1, 8) onto M(2, 1, 3, 24), so the singular vector there is
        # the one above with each I letter divided by 3, made primitive.
        found = singular_vectors(2, HWParams.rational(2, 1, 3, 24))
        assert [sv.vector for sv in found] == [vec(2, (mono((2,)), 4), (mono((1, 1)), -1))]

    def test_degenerate_point_level_three(self):
        p = HWParams.rational(2, 1, 1, 3)
        assert first_degenerate_level(p, 4) == 3
        found = singular_vectors(3, p)
        assert len(found) == 1
        assert found[0].vector == vec(
            3, (mono((3,)), 1), (mono((2, 1)), -2), (mono((1, 1, 1)), 1)
        )

    def test_found_vectors_lie_in_gram_radical(self):
        for params in [(2, 1, 0, 5), (2, 1, 1, 8), (2, 1, 1, 3)]:
            p = HWParams.rational(*params)
            for n in range(1, 4):
                gram = gram_matrix(n, p)
                for sv in singular_vectors(n, p):
                    coords = [sv.vector.terms.get(b, Fraction(0)) for b in gram.basis]
                    for row in gram.entries:
                        assert sum(r * x for r, x in zip(row, coords)) == 0

    def test_found_vectors_killed_by_all_positive_modes(self):
        for params, n in [((2, 1, 0, 5), 1), ((2, 1, 1, 8), 2), ((2, 1, 1, 3), 3)]:
            p = HWParams.rational(*params)
            for sv in singular_vectors(n, p):
                for k in range(1, n + 1):
                    assert act(L(k), sv.vector, p).is_zero()
                    assert act(I(k), sv.vector, p).is_zero()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_radical_first_exit_matches_explicit_kernel(self, n):
        # The loci m = n - 1, n (degenerate) and m = n + 1 (not yet), and
        # the points with more than the I-only singular vectors.
        points = seeded_points(20 + n, 1) + LOCUS_POINTS[max(n - 2, 0):n + 1]
        for p in points + EXCEPTIONAL_POINTS:
            self.check_against_dense_kernel(n, p)

    @pytest.mark.parametrize("k", [0, 4])
    def test_level_six_matches_explicit_kernel(self, k):
        self.check_against_dense_kernel(6, EXCEPTIONAL_POINTS[k])

    @staticmethod
    def check_against_dense_kernel(n, p):
        basis = level_basis(n)
        rows = []
        for g in (L(1), L(2), I(1), I(2)):
            rows.extend(action_rows(g, n, p, DEFAULT_MAX_LEVEL))
        kernel = [VermaVector(n, dict(zip(basis, v))) for v in dense_nullspace(rows, len(basis))]
        assert [s.vector for s in singular_vectors(n, p)] == kernel

    @pytest.mark.parametrize(
        "params, n",
        [((2, 1, 0, 0), n) for n in range(2, 7)] + [((2, 1, 0, 5), 3), ((Fraction(-9, 4), 0, 1, 8), 2)],
    )
    def test_i0_eigenvector_flag_matches_per_point_i0(self, params, n):
        # Points where some singular vectors are I(0) eigenvectors and some
        # are not, checked against I(0) assembled by ``act`` at the point.
        p = HWParams.rational(*params)
        basis = level_basis(n)
        matrix = per_point_i0(n, p)
        flags = set()
        for sv in singular_vectors(n, p):
            coords = [sv.vector.terms.get(b, Fraction(0)) for b in basis]
            image = [sum(x * y for x, y in zip(row, coords)) for row in matrix]
            assert sv.i0_eigenvector == (image == [p.c0 * x for x in coords])
            flags.add(sv.i0_eigenvector)
        assert flags == {True, False}

    def test_requires_rational_parameters(self):
        with pytest.raises(TypeError):
            singular_vectors(1, HWParams.symbolic())

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            singular_vectors(0, HWParams.rational(0, 0, 0, 0))


class TestIrreducibilityCriterion:
    @pytest.mark.parametrize(
        "c0, c1, expected",
        [
            (Fraction(0), Fraction(5), (True, 1)),
            (Fraction(1), Fraction(8), (True, 2)),
            (Fraction(-1), Fraction(1), (False, None)),
            (Fraction(-1), Fraction(-8), (True, 2)),
            (Fraction(0), Fraction(0), (True, 1)),
            (Fraction(1), Fraction(0), (False, None)),
            (Fraction(2), Fraction(1), (True, 7)),
            (Fraction(-1, 24), Fraction(1), (False, None)),  # m^2 = 0 is excluded
            (Fraction(5), Fraction(96), (False, None)),  # m^2 = 9/4 not integral
            (Fraction(1), Fraction(-8), (False, None)),  # pins the sign of c0
            (Fraction(1), Fraction(1), (True, 5)),
        ],
    )
    def test_decision_procedure(self, c0, c1, expected):
        assert is_reducible(c0, c1) == expected

    def test_witness_satisfies_stated_equation(self):
        reducible, m = is_reducible(Fraction(1), Fraction(8))
        assert reducible
        assert Fraction(m * m - 1, 12) * 8 - 2 * 1 == 0


class TestI0Jordan:
    def test_level_zero(self):
        rep = i0_matrix(0, HWParams.symbolic())
        assert rep.entries == [[C0]]
        assert rep.diagonalizable
        assert rep.nilpotency_degree == 1

    def test_level_one_single_jordan_block(self):
        rep = i0_matrix(1, HWParams.symbolic())
        assert rep.entries[0][0] == C0 and rep.entries[1][1] == C0
        assert rep.entries[0][1] == -1 and rep.entries[1][0] == 0
        assert not rep.diagonalizable
        assert rep.nilpotency_degree == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nilpotency_degree_is_level_plus_one(self, n):
        rep = i0_matrix(n, HWParams.rational(2, 1, Fraction(2, 3), -5))
        assert rep.nilpotent_within_bound
        assert rep.nilpotency_degree == n + 1
        assert not rep.diagonalizable

    @pytest.mark.parametrize("n", range(5))
    def test_degree_matches_dense_powers_rational(self, n):
        for p in seeded_points(40, 3):
            self.check_against_dense_powers(n, p)

    @pytest.mark.parametrize("n", range(4))
    def test_degree_matches_dense_powers_symbolic(self, n):
        self.check_against_dense_powers(n, HWParams.symbolic())

    @pytest.mark.parametrize("p", ORACLE_POINTS, ids=ORACLE_IDS)
    def test_entries_equal_per_point_assembly(self, p):
        for n in range(6):
            entries = i0_matrix(n, p).entries
            expected = per_point_i0(n, p)
            assert typed(entries) == typed(expected)
            assert entries == expected

    @pytest.mark.parametrize("n", range(DEFAULT_MAX_LEVEL + 1))
    def test_degree_equals_per_point_iteration(self, n):
        assert i0_matrix(n, ORACLE_POINTS[0]).nilpotency_degree == per_point_i0_degree(n, ORACLE_POINTS[0])

    @staticmethod
    def check_against_dense_powers(n, p):
        rep = i0_matrix(n, p)
        degree = dense_nilpotency_degree(rep.entries, p.c0, p.ring, n + 1)
        assert rep.nilpotency_degree == degree
        assert rep.diagonalizable == (degree == 1)


class TestFirstDegenerateLevel:
    def test_detects_and_rejects(self):
        assert first_degenerate_level(HWParams.rational(2, 1, 1, 3), 4) == 3
        assert first_degenerate_level(HWParams.rational(2, 1, 1, -8), 4) is None
        assert first_degenerate_level(HWParams.rational(2, 1, 0, 5), 4) == 1

    def test_requires_rational_parameters(self):
        with pytest.raises(TypeError):
            first_degenerate_level(HWParams.symbolic())
