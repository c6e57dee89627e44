from fractions import Fraction

import pytest

from w22 import realizations
from w22.algebra import C, C1, I, L, LieElement, bracket_gen
from w22.realizations import IntermediateSeriesParams, module_report, semidirect_check

SAMPLES = [(0, -1), (0, 0), (Fraction(1, 2), 3), (1, 2), (-2, Fraction(5, 7))]
WITT = IntermediateSeriesParams.of(0, -1)
# generator_window(8) holds C, C1 and 17 modes of each of I and L.
CHECKS_AT_8 = 36**2 * 17


class TestWittAction:
    """The Witt module ``L(m).I(n) = (n - m) I(m + n)`` is the intermediate
    series at (a, b) = (0, -1), with v_n = I(n)."""

    def test_formula(self):
        assert WITT.d == 1
        assert WITT.act(L(2), 5) == 3  # L(2).I(5) = 3 I(7)

    def test_equal_indices_vanish(self):
        for m in range(-4, 5):
            assert WITT.act(L(m), m) == 0

    def test_module_axiom_instance(self):
        # L(1).(L(2).I(3)) - L(2).(L(1).I(3)) = [L(1), L(2)].I(3) = L(3).I(3),
        # by hand: 1 * 4 - 2 * 2 = 0 = (3 - 3).
        lhs = WITT.act(L(2), 3) * WITT.act(L(1), 5) - WITT.act(L(1), 3) * WITT.act(L(2), 4)
        assert (WITT.act(L(2), 3), WITT.act(L(1), 5), WITT.act(L(1), 3), WITT.act(L(2), 4)) == (1, 4, 2, 2)
        assert bracket_gen(L(1), L(2)) == LieElement({L(3): 1})
        assert lhs == WITT.act(L(3), 3) == 0

    def test_axiom_window(self):
        report = module_report(WITT, 8)
        assert report.checks == CHECKS_AT_8
        assert report.passed


class TestIntermediateSeries:
    def test_a0_bm1_matches_witt_table(self):
        for m in range(-8, 9):
            for k in range(-8, 9):
                assert WITT.act(L(m), k) == k - m
                assert WITT.act(I(m), k) == 0
        assert WITT.act(C, 3) == WITT.act(C1, 3) == 0

    def test_trivial_coefficient(self):
        assert IntermediateSeriesParams.of(0, 0).act(L(1), 0) == 0
        # d = 2 times a + k + b m = 1/2 + 0 + 3.
        half = IntermediateSeriesParams.of(Fraction(1, 2), 3)
        assert (half.d, half.act(L(1), 0)) == (2, 7)

    @pytest.mark.parametrize("a, b", SAMPLES)
    def test_module_axiom_for_sampled_parameters(self, a, b):
        report = module_report(IntermediateSeriesParams.of(a, b), 8)
        assert report.passed
        assert report.checks == CHECKS_AT_8


def patched(extra):
    """``bracket_gen`` with ``extra[(x, y)]`` added to ``[x, y]``."""

    def bracket(x, y):
        out = bracket_gen(x, y)
        return out + extra[x, y] if (x, y) in extra else out

    return bracket


class TestReportsReadTheBracket:
    """A wrong coefficient of the bracket fails the check that reads it."""

    @pytest.mark.parametrize(
        "extra",
        [
            {(L(1), L(2)): LieElement({L(3): 1})},  # [L(1), L(2)] = 2 L(3)
            {(L(2), L(-2)): LieElement({L(0): 4})},  # the L(0) of [L(2), L(-2)] dropped
        ],
        ids=["extra L(3)", "dropped L(0)"],
    )
    @pytest.mark.parametrize("a, b", [(0, -1), (Fraction(1, 2), 3)])
    def test_wrong_l_l_coefficient_fails_the_module_axiom(self, monkeypatch, extra, a, b):
        monkeypatch.setattr(realizations, "bracket_gen", patched(extra))
        report = module_report(IntermediateSeriesParams.of(a, b), 3)
        assert report.checks == 16**2 * 7
        assert report.failures
        (x, y), = extra
        assert all(label.startswith(f"[{x}, {y}] v_") for label, _ in report.failures)
        assert semidirect_check(3).passed

    def test_failure_names_the_residual(self, monkeypatch):
        monkeypatch.setattr(realizations, "bracket_gen", patched({(L(1), L(2)): LieElement({L(3): 1})}))
        failures = dict(module_report(WITT, 2).failures)
        # [L(1), L(2)] v_0 is 2 L(3) v_0 = -6 v_3 against L(1) L(2) v_0 - L(2) L(1) v_0 = -3 v_3.
        assert failures["[L(1), L(2)] v_0"] == "3 v_3"

    def test_wrong_l_i_coefficient_fails_the_semidirect_check(self, monkeypatch):
        monkeypatch.setattr(realizations, "bracket_gen", patched({(L(1), I(2)): LieElement({I(3): 1})}))
        report = semidirect_check(3)
        assert report.failures == [("m=1 n=2", "2 != 1")]


class TestSemidirect:
    def test_window_passes(self):
        report = semidirect_check(8)
        assert report.passed
        assert report.checks == 17 ** 2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            semidirect_check(0)

    def test_opposite_modes_only_drop_central_term(self):
        for m in range(1, 9):
            br = bracket_gen(L(m), I(-m))
            central = br.terms.get(C1, Fraction(0))
            assert central == Fraction(m ** 3 - m, 12)
            assert br.terms.get(I(0), Fraction(0)) == -2 * m == WITT.act(L(m), -m)

    def test_weight_grading_row(self):
        for n in range(-8, 9):
            br = bracket_gen(L(0), I(n))
            assert br.terms.get(I(n), Fraction(0)) == n == WITT.act(L(0), n)
