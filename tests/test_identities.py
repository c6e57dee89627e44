import json
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

import w22
from ab_timing import load
from w22 import identities, pbw
from w22.algebra import I, L
from w22.identities import IdentityCase, load_corpus, run_corpus
from w22.pbw import UEElement


def words(*items):
    return UEElement({tuple(w): Fraction(q) for w, q in items})


def parse_expression(text):
    """The normal form of a prefix expression."""
    return identities._eval(identities._parse(text))


def verify_identity(case):
    parse = identities._parse
    return identities._verify(case, parse(case.expression), parse(case.expected))


class TestExpressionParser:
    def test_generators_and_scalars(self):
        from w22.algebra import C1

        assert parse_expression("(L -2)") == words(([L(-2)], 1))
        assert parse_expression("(I 3)") == words(([I(3)], 1))
        assert parse_expression("C1") == words(([C1], 1))
        assert parse_expression("-3/2") == UEElement({(): Fraction(-3, 2)})

    def test_bracket(self):
        assert parse_expression("(br (L -2) (I 4))") == words(([I(2)], 6))

    def test_scale_add_sub_neg_mul(self):
        assert parse_expression("(scale 1/2 (L 0))") == words(([L(0)], Fraction(1, 2)))
        assert parse_expression("(add (L 1) (neg (L 1)))").is_zero()
        assert parse_expression("(sub (L 1) (L 1))").is_zero()
        assert parse_expression("(mul (L 1) (L -1))") == words(
            ([L(-1), L(1)], 1), ([L(0)], -2)
        )
        assert parse_expression("0").is_zero()

    def test_rejects_malformed(self):
        for bad in ["", "(br (L 1))99", "(frob (L 1) (L 2))", "(scale x (L 1))", "(L (L 1))"]:
            with pytest.raises(ValueError):
                parse_expression(bad)
        for bad in ["(L 1", "(", "()", ")"]:
            with pytest.raises(ValueError, match="unbalanced parenthesis"):
                parse_expression(bad)


class TestVerify:
    def test_passing_case(self):
        case = IdentityCase(
            name="x", expression="(br (L -2) (I 4))", expected="(scale 6 (I 2))", source="s"
        )
        result = verify_identity(case)
        assert result.passed and result.residual.is_zero()

    def test_passing_ladder_instance(self):
        case = IdentityCase(
            name="x", expression="(br (L 1) (I 5))", expected="(scale 4 (I 6))", source="s"
        )
        assert verify_identity(case).passed

    def test_failing_case_reports_residual_direction(self):
        case = IdentityCase(
            name="x",
            expression="(br (I -1) (I 6))",
            expected="(scale 7 (I 5))",
            source="s",
            expect_pass=False,
        )
        result = verify_identity(case)
        assert not result.passed
        assert result.as_expected
        assert result.residual == words(([I(5)], -7))


class TestCorpus:
    def test_loads_with_expected_shape(self):
        corpus = load_corpus()
        assert len(corpus) >= 8
        names = [c.name for c in corpus]
        assert len(names) == len(set(names))
        errata = [c for c in corpus if not c.expect_pass]
        assert len(errata) == 3
        assert all(c.source and c.expression and c.expected for c in corpus)

    def test_every_case_matches_its_expectation(self):
        for result in run_corpus():
            assert result.as_expected, (
                f"{result.case.name}: passed={result.passed}, "
                f"residual={result.residual}"
            )

    def test_copy_under_another_name_runs_the_corpus(self):
        # As tests/ab_timing.py loads a checkout to time it.
        copy = load(Path(w22.__file__).parents[2], "w22_corpus_copy")
        results = copy.identities.run_corpus()
        assert len(results) == len(load_corpus())
        assert all(r.as_expected for r in results)

    def test_copy_reads_the_corpus_of_its_own_package(self, tmp_path):
        root = tmp_path / "src" / "w22"
        shutil.copytree(Path(w22.__file__).parent, root, ignore=shutil.ignore_patterns("__pycache__"))
        corpus = root / "data" / "identity_corpus.json"
        corpus.write_text(json.dumps(json.loads(corpus.read_text())[:5]))
        copy = load(tmp_path, "w22_trimmed_copy")
        assert [c.name for c in copy.identities.load_corpus()] == [c.name for c in load_corpus()[:5]]

    def test_second_run_rewrites_as_much_as_the_first(self, monkeypatch):
        # The parsed trees are kept, but no case result is: every run
        # rewrites each case afresh.
        calls = []
        fold = pbw._fold

        def counting(word, terms):
            calls.append(word)
            return fold(word, terms)

        monkeypatch.setattr(pbw, "_fold", counting)
        first = run_corpus()
        n = len(calls)
        second = run_corpus()
        assert n > len(first)
        assert calls[n:] == calls[:n]
        assert [r.residual for r in second] == [r.residual for r in first]

    def test_erratum_residuals_have_recorded_direction(self):
        by_name = {r.case.name: r for r in run_corpus()}
        assert by_name["erratum-Im1-I6"].residual == words(([I(5)], -7))
        assert by_name["erratum-Im1-I2"].residual == words(([I(1)], -3))
        assert by_name["erratum-L1-Lm1-half"].residual == words(
            ([L(0)], Fraction(-3, 2))
        )
        reprs = [repr(by_name[f"erratum-{n}"].residual) for n in ("Im1-I6", "Im1-I2", "L1-Lm1-half")]
        assert reprs == ["-7*I(5)", "-3*I(1)", "-3/2*L(0)"]

    def test_ladder_families_cover_required_ranges(self):
        names = {c.name for c in load_corpus()}
        for k in range(-5, 6):
            assert f"br-L1-I{k}" in names
            assert f"br-I1-L{k}" in names
            assert f"br-Lm1-L{k}" in names
