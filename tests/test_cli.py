import hashlib
import json
from fractions import Fraction

import pytest

from w22 import cli
from w22.scalars import PARAM_POLYS, QQ

from test_verma import SYMBOLIC_DET_SHA256


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExamples:
    def test_criterion_reducible_point(self, capsys):
        code, out, _ = run(capsys, "criterion", "--c0", "0", "--c1", "5")
        assert code == 0
        assert out == '{"reducible": true, "witness_m": 1}\n'

    def test_criterion_irreducible_point(self, capsys):
        code, out, _ = run(capsys, "criterion", "--c0=-1", "--c1", "1")
        assert code == 0
        assert json.loads(out) == {"reducible": False, "witness_m": None}

    def test_symbolic_level_one_determinant(self, capsys):
        code, out, _ = run(capsys, "det", "--level", "1", "--symbolic")
        assert code == 0
        assert out == '{"det": "-4*c0^2"}\n'

    def test_jacobi(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--max-index", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["triples_checked"] == 16 ** 3

    def test_gram_level_one_csv(self, capsys):
        code, out, _ = run(capsys, "gram", "--level", "1", "--symbolic", "--format", "csv")
        assert code == 0
        assert out == "0,-2*c0\n-2*c0,-2*lambda\n"

    def test_gram_level_zero_json(self, capsys):
        code, out, _ = run(capsys, "gram", "--level", "0", "--symbolic")
        assert code == 0
        assert out == '{"level": 0, "basis": ["1"], "entries": [["1"]]}\n'

    def test_singular_output(self, capsys):
        code, out, _ = run(
            capsys, "singular", "--level", "1", "--lam", "2", "--c", "1", "--c0", "0", "--c1", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "level": 1,
            "count": 1,
            "vectors": [{"coefficients": {"I(-1)": "1"}, "i0_eigenvector": True}],
        }

    def test_verma_dim(self, capsys):
        code, out, _ = run(capsys, "verma-dim", "--max-level", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [1, 2, 5, 10, 20, 36, 65]
        assert payload["ok"]

    def test_i0_json(self, capsys):
        code, out, _ = run(capsys, "i0", "--level", "1", "--c0", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == [["3", "-1"], ["0", "3"]]
        assert payload["nilpotency_degree"] == 2
        assert payload["diagonalizable"] is False

    def test_realization(self, capsys):
        code, out, _ = run(capsys, "realization", "--window", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert payload["a0_minus1_matches_witt"]
        assert payload["witt"]["failures"] == 0
        assert len(payload["intermediate_series"]) == 5

    def test_suite(self, capsys):
        code, out, _ = run(capsys, "suite")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert payload["jacobi"]["violations"] == 0
        assert all(case["ok"] for case in payload["identity_cases"])
        errata = [c for c in payload["identity_cases"] if not c["expect_pass"]]
        assert errata and all(not c["passed"] for c in errata)
        assert all(s["ok"] for s in payload["criterion_samples"])
        samples = payload["criterion_samples"]
        assert all(s["consistent"] and s["expect_consistent"] for s in samples)
        (m2,) = [s for s in samples if (s["c0"], s["c1"]) == ("1", "8")]
        assert m2["witness_m"] == 2 and m2["first_degenerate_level"] == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("suite",),
            ("gram", "--level", "2", "--symbolic"),
            ("det", "--level", "2", "--lam", "1/2", "--c", "-3", "--c0", "2/7", "--c1", "5"),
            ("singular", "--level", "2", "--lam", "2", "--c", "1", "--c0", "1", "--c1", "8"),
            ("jacobi", "--max-index", "2"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def _point(lam, c, c0, c1):
    return ("--lam", lam, "--c", c, "--c0", c0, "--c1", c1)


M2_POINT = _point("2", "1", "1", "8")  # first degenerate at level 2
M5_POINT = _point("2", "1", "1", "1")  # first degenerate at level 5


class TestRecordedOutputs:
    """Stdout recorded once from the block-Bareiss determinant."""

    def test_symbolic_level_eight_determinant(self, capsys):
        code, out, _ = run(capsys, "det", "--level", "8", "--symbolic")
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload) + "\n" and list(payload) == ["det"]
        assert hashlib.sha256(payload["det"].encode()).hexdigest() == SYMBOLIC_DET_SHA256[8]

    @pytest.mark.parametrize(
        "point, dets",
        [
            (M2_POINT, ["-4"] + ["0"] * 7),
            (M5_POINT, ["-4", "3136", "-22658678784", "-2840166498566745484400001024"] + ["0"] * 4),
        ],
    )
    def test_rational_determinants_at_locus_points(self, capsys, point, dets):
        for level, det in enumerate(dets, start=1):
            code, out, _ = run(capsys, "det", "--level", str(level), *point)
            assert code == 0
            assert out == '{"det": "%s"}\n' % det, level

    @pytest.mark.parametrize(
        "point, digest",
        [
            (_point("2", "1", "1", "-8"), "8373ca1b7adabaaa7a4c74835e8f85e222392e3d00224840e22027c3c3559e6c"),
            (_point("1/2", "-3", "2/7", "5"), "1ea0ebff06b0a4fb91cc1dbddac80dfee28278b7e160772b49c2707e1a21e665"),
        ],
    )
    def test_rational_level_eight_determinant(self, capsys, point, digest):
        code, out, _ = run(capsys, "det", "--level", "8", *point)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "level, point, vectors",
        [
            (2, M2_POINT, [{"I(-2)": "4", "I(-1)I(-1)": "-3"}]),
            (3, M2_POINT, []),
            (4, M2_POINT, [{"I(-2)I(-2)": "16", "I(-2)I(-1)I(-1)": "-24", "I(-1)I(-1)I(-1)I(-1)": "9"}]),
            (4, M5_POINT, []),
            (5, M5_POINT, [{
                "I(-5)": "4", "I(-4)I(-1)": "-12", "I(-3)I(-2)": "-8", "I(-3)I(-1)I(-1)": "21",
                "I(-2)I(-2)I(-1)": "16", "I(-2)I(-1)I(-1)I(-1)": "-30", "I(-1)I(-1)I(-1)I(-1)I(-1)": "9",
            }]),
        ],
    )
    def test_singular_vectors_at_locus_points(self, capsys, level, point, vectors):
        code, out, _ = run(capsys, "singular", "--level", str(level), *point)
        assert code == 0
        expected = {
            "level": level,
            "count": len(vectors),
            "vectors": [{"coefficients": v, "i0_eigenvector": True} for v in vectors],
        }
        assert out == json.dumps(expected) + "\n"

    @pytest.mark.parametrize(
        "point, digest",
        [
            (M2_POINT, "4d1def1ea2f0e5dea1ddb49a88416fe1c6e0016db70d678bf7825e5a6a4a8ce4"),
            (M5_POINT, "95099908c4cf8cde266508df511276690bc1404a192bb9ec1f1112626262c1d9"),
            (("--lam=-9/4", "--c", "0", "--c0", "1", "--c1", "8"), "4d1def1ea2f0e5dea1ddb49a88416fe1c6e0016db70d678bf7825e5a6a4a8ce4"),
        ],
    )
    def test_singular_vectors_at_level_eight(self, capsys, point, digest):
        # Recorded from dense Gauss-Jordan on the stacked action matrices.
        code, out, _ = run(capsys, "singular", "--level", "8", *point)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "level, digest",
        [
            (5, "fd8b6a6d82f6b5ecc00fc4ecb78358e651566dfa77021d7843624e7cfcb3f0eb"),
            (6, "b5629936e6ef277054cc2726844dd9159e8c69842568930d7139e7c33dbd460c"),
        ],
    )
    def test_i0_report(self, capsys, level, digest):
        # Recorded from the dense matrix-power Jordan check.
        code, out, _ = run(capsys, "i0", "--level", str(level), *_point("2", "1", "2/3", "-5"))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRoundTrip:
    def test_symbolic_matrix_entries_reparse(self, capsys):
        code, out, _ = run(capsys, "gram", "--level", "2", "--symbolic")
        assert code == 0
        payload = json.loads(out)
        from w22.verma import HWParams, gram_matrix

        engine = gram_matrix(2, HWParams.symbolic())
        for row_text, row in zip(payload["entries"], engine.entries):
            for text, value in zip(row_text, row):
                assert PARAM_POLYS.parse(text) == PARAM_POLYS.coerce(value)

    def test_rational_entries_reparse(self, capsys):
        code, out, _ = run(
            capsys, "gram", "--level", "2",
            "--lam=-3/2", "--c", "1", "--c0", "2/7", "--c1", "5",
        )
        assert code == 0
        payload = json.loads(out)
        from w22.verma import HWParams, gram_matrix

        engine = gram_matrix(2, HWParams.rational(Fraction(-3, 2), 1, Fraction(2, 7), 5))
        for row_text, row in zip(payload["entries"], engine.entries):
            for text, value in zip(row_text, row):
                assert QQ.parse(text) == value

    def test_exact_negative_rational_encoding(self, capsys):
        code, out, _ = run(capsys, "det", "--level", "1", "--lam", "0", "--c", "0", "--c0=-3/4", "--c1", "0")
        payload = json.loads(out)
        assert payload["det"] == "-9/4"
        assert QQ.parse(payload["det"]) == Fraction(-9, 4)


class TestExitCodes:
    def test_usage_error_on_float(self, capsys):
        code, _, err = run(capsys, "criterion", "--c0", "1.5", "--c1", "2")
        assert code == 2
        assert "exact rational" in err

    def test_usage_error_on_level_bound(self, capsys):
        code, _, err = run(capsys, "gram", "--level", "99", "--symbolic")
        assert code == 2
        assert "level" in err

    def test_usage_error_on_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_usage_error_on_index_bound(self, capsys):
        code, _, err = run(capsys, "jacobi", "--max-index", "1000001")
        assert code == 2
        assert "index" in err

    def test_internal_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        def inexact(*args, **kwargs):
            raise ValueError("inexact polynomial division")

        monkeypatch.setattr(cli.verma, "shapovalov_det", inexact)
        with pytest.raises(ValueError, match="inexact"):
            cli.main(["det", "--level", "1", "--lam", "1"])

    def test_env_var_controls_level_bound(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_MAX_LEVEL, "2")
        code, _, err = run(capsys, "gram", "--level", "3", "--symbolic")
        assert code == 2
        monkeypatch.setenv(cli.ENV_MAX_LEVEL, "3")
        code, out, _ = run(capsys, "gram", "--level", "3", "--lam", "1")
        assert code == 0

    def test_violation_exit_code(self, capsys, monkeypatch):
        # Force an unexpected corpus failure to exercise the exit-1 path.
        from w22.identities import IdentityCase, IdentityResult
        from w22.pbw import UEElement

        def broken_corpus():
            case = IdentityCase("forced", "(L 1)", "(L 2)", "synthetic", True)
            return [IdentityResult(case=case, passed=False, residual=UEElement.zero())]

        monkeypatch.setattr(cli.identities, "run_corpus", broken_corpus)
        code, out, _ = run(capsys, "suite")
        assert code == 1
        assert json.loads(out)["ok"] is False
