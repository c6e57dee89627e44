from fractions import Fraction

import pytest

from w22.realizations import (
    IntermediateSeriesParams,
    intermediate_series_action,
    intermediate_series_report,
    semidirect_check,
    witt_action,
    witt_module_report,
)


class TestWittAction:
    def test_formula(self):
        assert witt_action(2, 5) == (3, 7)

    def test_equal_indices_vanish(self):
        for m in range(-4, 5):
            assert witt_action(m, m)[0] == 0

    def test_module_axiom_instance(self):
        # x1.(x2.I(3)) - x2.(x1.I(3)) = [x1, x2].I(3) = x3.I(3) by hand:
        # lhs = 1*(5-1)... expand both routes explicitly.
        c2, i2 = witt_action(2, 3)          # x2.I(3) = 1*I(5)
        c12, _ = witt_action(1, i2)         # x1.I(5) = 4*I(6)
        c1, i1 = witt_action(1, 3)          # x1.I(3) = 2*I(4)
        c21, _ = witt_action(2, i1)         # x2.I(4) = 2*I(6)
        lhs = c2 * c12 - c1 * c21
        rhs_coeff, _ = witt_action(3, 3)    # (2-1) x3 . I(3) = 0 coefficient
        assert lhs == (2 - 1) * rhs_coeff == 0

    def test_axiom_window(self):
        report = witt_module_report(8)
        assert report.checks == 17 ** 3
        assert report.passed


class TestIntermediateSeries:
    def test_a0_bm1_matches_witt_table(self):
        p = IntermediateSeriesParams.of(0, -1)
        for m in range(-8, 9):
            for k in range(-8, 9):
                assert intermediate_series_action(p, m, k) == witt_action(m, k)[0]

    def test_trivial_coefficient(self):
        assert intermediate_series_action(IntermediateSeriesParams.of(0, 0), 1, 0) == 0

    @pytest.mark.parametrize(
        "a, b",
        [(0, -1), (0, 0), (Fraction(1, 2), 3), (1, 2), (-2, Fraction(5, 7))],
    )
    def test_module_axiom_for_sampled_parameters(self, a, b):
        report = intermediate_series_report(IntermediateSeriesParams.of(a, b), 8)
        assert report.passed
        assert report.checks == 17 ** 3


class TestSemidirect:
    def test_window_passes(self):
        report = semidirect_check(8)
        assert report.passed
        assert report.checks == 17 ** 2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            semidirect_check(0)

    def test_opposite_modes_only_drop_central_term(self):
        from w22.algebra import C1, I, L, bracket_gen

        for m in range(1, 9):
            br = bracket_gen(L(m), I(-m))
            central = br.terms.get(C1, Fraction(0))
            assert central == Fraction(m ** 3 - m, 12)
            assert br.terms.get(I(0), Fraction(0)) == -2 * m == witt_action(m, -m)[0]

    def test_weight_grading_row(self):
        from w22.algebra import I, L, bracket_gen

        for n in range(-8, 9):
            br = bracket_gen(L(0), I(n))
            assert br.terms.get(I(n), Fraction(0)) == n == witt_action(0, n)[0]
