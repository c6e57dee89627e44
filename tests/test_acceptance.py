"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every tolerance here is exactness (residuals identically zero) plus the
stated runtime ceilings.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.

Criterion 5 cross-validates the irreducibility criterion against the exact
contravariant form.  ``is_reducible`` states the source paper's criterion in
this engine's bracket convention (``L_n = -L(n)``, ``W_n = -I(n)`` maps the
engine's bracket onto the paper's, with ``h' = -c0``): the module is
reducible iff ``(m^2-1)/12 * c1 = 2*c0`` for some nonzero integer m.  So the
m=2 degeneracy sits at (c0=1, c1=8) (level 2), (c0=1, c1=-8) is irreducible,
and (c0=1, c1=1) is reducible with m=5 (level 5).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from naive_rewriter import naive_normal_order
from w22 import cli
from w22.algebra import I, L, bracket_gen, generator_window, jacobi_report
from w22.identities import run_corpus
from w22.pbw import UEElement, normal_order
from w22.realizations import (
    IntermediateSeriesParams,
    intermediate_series_action,
    intermediate_series_report,
    semidirect_check,
    witt_action,
    witt_module_report,
)
from w22.scalars import PARAM_POLYS, QQ
from w22.verma import (
    BasisMonomial,
    HWParams,
    VermaVector,
    gram_matrix,
    i0_matrix,
    is_reducible,
    level_basis,
    shapovalov_det,
    singular_vectors,
)

LAM, C0 = PARAM_POLYS.lam, PARAM_POLYS.c0


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {tag}{suffix}")
    return ok


def test_criterion_1_lie_axioms_window_6():
    start = time.perf_counter()
    window = generator_window(6)
    antisymmetric = all(
        (bracket_gen(a, b) + bracket_gen(b, a)).is_zero()
        for a in window
        for b in window
    )
    jac = jacobi_report(6)
    elapsed = time.perf_counter() - start
    ok = antisymmetric and jac.passed and elapsed < 5.0
    assert report(
        "1 lie-axioms",
        ok,
        f"{jac.triples_checked} triples, {len(jac.violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_2_pbw_dimensions():
    start = time.perf_counter()

    def parts(total, cap):
        if total == 0:
            return [()]
        out = []
        for p in range(min(cap, total), 0, -1):
            out.extend((p,) + rest for rest in parts(total - p, p))
        return out

    oracle = [
        sum(1 for s in range(n + 1) for _ in parts(s, s or 1) for _ in parts(n - s, (n - s) or 1))
        for n in range(7)
    ]
    counts = [len(level_basis(n)) for n in range(7)]
    elapsed = time.perf_counter() - start
    ok = counts == oracle == [1, 2, 5, 10, 20, 36, 65] and elapsed < 1.0
    assert report("2 pbw-dimensions", ok, f"counts={counts}, {elapsed:.2f}s")


def test_criterion_3_confluence_500_words():
    start = time.perf_counter()
    rng = random.Random(20240612)
    pool = generator_window(4)
    mismatches = 0
    for _ in range(500):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        left = naive_normal_order(word, "leftmost")
        right = naive_normal_order(word, "rightmost")
        if not left == right == normal_order(word):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    assert report("3 confluence", ok, f"500 words, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_4_symbolic_level_one_form():
    p = HWParams.symbolic()
    gram = gram_matrix(1, p)
    expected = [
        [PARAM_POLYS.zero, -2 * C0],
        [-2 * C0, -2 * LAM],
    ]
    gram_ok = (
        gram.basis == [BasisMonomial((1,), ()), BasisMonomial((), (1,))]
        and all(
            gram.entries[i][j] == expected[i][j] for i in range(2) for j in range(2)
        )
    )
    det_ok = shapovalov_det(1, p) == -4 * C0 ** 2
    ok = gram_ok and det_ok
    assert report("4 level-1-form", ok, f"det={shapovalov_det(1, p)}")


def _found_vector_strings(n, p):
    return {str(sv.vector) for sv in singular_vectors(n, p)}


def test_criterion_5_theorem_cross_validation():
    start = time.perf_counter()
    checks = []

    # (c0=0, c1=5): reducible, witness 1, det1 = 0, I(-1)v singular at level 1.
    red, witness = is_reducible(Fraction(0), Fraction(5))
    p = HWParams.rational(2, 1, 0, 5)
    i_minus_1 = str(VermaVector(1, {BasisMonomial((1,), ()): Fraction(1)}))
    checks.append(
        (
            "c0=0,c1=5 reducible m=1, det1=0, I(-1)v singular",
            red and witness == 1 and shapovalov_det(1, p) == 0
            and i_minus_1 in _found_vector_strings(1, p),
        )
    )

    # Irreducible sample points: nonzero determinants, no singular vectors,
    # for n <= 4 at lambda in {0, 2, -1} and c in {0, 1}.
    for c0, c1 in [(Fraction(1), Fraction(-8)), (Fraction(-1), Fraction(0))]:
        red, witness = is_reducible(c0, c1)
        clean = not red and witness is None
        for lam in (0, 2, -1):
            for c in (0, 1):
                pt = HWParams.rational(lam, c, c0, c1)
                for n in range(1, 5):
                    clean = clean and shapovalov_det(n, pt) != 0
                    clean = clean and not singular_vectors(n, pt)
        checks.append((f"c0={c0},c1={c1} irreducible, det!=0, no singular n<=4", clean))

    # (c0=1, c1=8): witness m=2; det_1 != 0, det_2 = 0, and the level-2
    # singular vector is 4*I(-2)v - 3*I(-1)^2 v.
    red, witness = is_reducible(Fraction(1), Fraction(8))
    pt = HWParams.rational(2, 1, 1, 8)
    level_two = str(
        VermaVector(
            2,
            {
                BasisMonomial((2,), ()): Fraction(4),
                BasisMonomial((1, 1), ()): Fraction(-3),
            },
        )
    )
    checks.append(
        (
            "c0=1,c1=8 reducible m=2, det1!=0, det2=0, 4*I(-2)v - 3*I(-1)^2 v singular",
            red and witness == 2
            and shapovalov_det(1, pt) != 0 and shapovalov_det(2, pt) == 0
            and _found_vector_strings(2, pt) == {level_two},
        )
    )

    # (c0=1, c1=1): witness m=5; the form is nondegenerate with no singular
    # vectors for n <= 4 on the same grid, and degenerates at level 5 with a
    # singular vector there.
    red, witness = is_reducible(Fraction(1), Fraction(1))
    late = red and witness == 5
    for lam in (0, 2, -1):
        for c in (0, 1):
            pt = HWParams.rational(lam, c, 1, 1)
            for n in range(1, 5):
                late = late and shapovalov_det(n, pt) != 0
                late = late and not singular_vectors(n, pt)
    pt = HWParams.rational(2, 1, 1, 1)
    late = late and shapovalov_det(5, pt) == 0 and bool(singular_vectors(5, pt))
    checks.append(
        ("c0=1,c1=1 reducible m=5, det!=0 and no singular n<=4, det5=0 + singular vector", late)
    )

    elapsed = time.perf_counter() - start
    ok = all(flag for _, flag in checks) and elapsed < 120.0
    for label, flag in checks:
        print(f"  [{'ok' if flag else 'UNMET'}] {label}")
    assert report("5 criterion-cross-validation", ok, f"{elapsed:.1f}s"), (
        "the criterion (m^2-1)/12*c1 = 2*c0 disagrees with the exact form; "
        "see the UNMET lines above"
    )


def test_criterion_6_i0_non_semisimplicity():
    rep1 = i0_matrix(1, HWParams.symbolic())
    jordan_ok = (
        rep1.entries[0][0] == C0
        and rep1.entries[1][1] == C0
        and rep1.entries[0][1] == -1
        and rep1.entries[1][0] == 0
        and not rep1.diagonalizable
    )
    p = HWParams.rational(2, 1, Fraction(2, 3), -5)
    nilpotent_ok = all(i0_matrix(n, p).nilpotent_within_bound for n in range(6))
    ok = jordan_ok and nilpotent_ok
    assert report("6 i0-jordan", ok, "level-1 block + nilpotency n<=5")


def test_criterion_7_identity_corpus():
    results = run_corpus()
    by_name = {r.case.name: r for r in results}
    expected_pass_ok = all(r.passed for r in results if r.case.expect_pass)
    families_ok = all(
        by_name[f"br-L1-I{k}"].passed
        and by_name[f"br-I1-L{k}"].passed
        and by_name[f"br-Lm1-L{k}"].passed
        for k in range(-5, 6)
    )
    anchor_ok = by_name["Lm2-I4-reaches-I2"].passed
    residual_i = UEElement({(I(5),): Fraction(-7)})
    residual_l = UEElement({(L(0),): Fraction(-3, 2)})
    errata_ok = (
        not by_name["erratum-Im1-I6"].passed
        and by_name["erratum-Im1-I6"].residual == residual_i
        and not by_name["erratum-L1-Lm1-half"].passed
        and by_name["erratum-L1-Lm1-half"].residual == residual_l
    )
    ok = expected_pass_ok and families_ok and anchor_ok and errata_ok
    assert report(
        "7 identity-corpus",
        ok,
        f"{len(results)} cases, errata fail in the recorded direction",
    )


def test_criterion_8_realization_suite():
    witt = witt_module_report(8)
    semi = semidirect_check(8)
    table_ok = all(
        intermediate_series_action(IntermediateSeriesParams.of(0, -1), m, k)
        == witt_action(m, k)[0]
        for m in range(-8, 9)
        for k in range(-8, 9)
    )
    sampled = [(0, -1), (0, 0), (Fraction(1, 2), 3), (1, 2), (-2, Fraction(5, 7))]
    series_ok = all(
        intermediate_series_report(IntermediateSeriesParams.of(a, b), 8).passed
        for a, b in sampled
    )
    ok = witt.passed and semi.passed and table_ok and series_ok
    assert report(
        "8 realizations",
        ok,
        f"witt {witt.checks} checks, semidirect {semi.checks} checks, {len(sampled)} (a,b) samples",
    )


def test_criterion_9_cli_contract(capsys, monkeypatch):
    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    # Determinism: byte-identical repeated runs.
    deterministic = True
    for argv in [
        ("suite",),
        ("gram", "--level", "2", "--symbolic"),
        ("det", "--level", "3", "--lam", "1/2", "--c", "1", "--c0", "2", "--c1", "7"),
    ]:
        c1_, o1 = run(*argv)
        c2_, o2 = run(*argv)
        deterministic = deterministic and c1_ == c2_ == 0 and o1 == o2

    # Round-trip: every emitted scalar re-parses to an equal ring element.
    _, out = run("gram", "--level", "2", "--symbolic")
    sym = gram_matrix(2, HWParams.symbolic())
    payload = json.loads(out)
    round_trip = all(
        PARAM_POLYS.parse(text) == PARAM_POLYS.coerce(value)
        for row_text, row in zip(payload["entries"], sym.entries)
        for text, value in zip(row_text, row)
    )
    _, out = run("det", "--level", "1", "--lam", "0", "--c", "0", "--c0=-3/4", "--c1", "0")
    round_trip = round_trip and QQ.parse(json.loads(out)["det"]) == Fraction(-9, 4)

    # Exit codes: 0 computed success, 2 usage error, 1 unexpected violation.
    code_ok, _ = run("criterion", "--c0", "0", "--c1", "5")
    code_usage, _ = run("criterion", "--c0", "0.5", "--c1", "5")
    capsys.readouterr()
    from w22.identities import IdentityCase, IdentityResult

    def broken_corpus():
        case = IdentityCase("forced", "(L 1)", "(L 2)", "synthetic", True)
        return [IdentityResult(case=case, passed=False, residual=UEElement.zero())]

    monkeypatch.setattr(cli.identities, "run_corpus", broken_corpus)
    code_violation, _ = run("suite")
    monkeypatch.undo()

    exit_ok = code_ok == 0 and code_usage == 2 and code_violation == 1
    ok = deterministic and round_trip and exit_ok
    assert report(
        "9 cli-contract",
        ok,
        f"determinism={deterministic}, round_trip={round_trip}, exits=({code_ok},{code_violation},{code_usage})",
    )
