"""Batch command-line surface with deterministic machine-readable output.

All scalar input is parsed as exact rational strings ("p/q" or integers);
there is no float path.  Output is JSON (default) or CSV and is byte-for-byte
reproducible for a fixed invocation.  Exit codes: 0 on computed success
(including expected failures that match their recorded expectation), 1 on an
unexpected property violation, 2 on usage errors and out-of-bound input;
any other exception is an internal fault and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import identities, realizations, verma
from .algebra import IndexLimitError, jacobi_report
from .scalars import PARAM_POLYS, QQ, parse_rational
from .verma import DEFAULT_MAX_LEVEL, HWParams

__all__ = ["main", "build_parser"]

ENV_MAX_LEVEL = "W22_MAX_LEVEL"


class UsageError(Exception):
    pass


def _max_level() -> int:
    raw = os.environ.get(ENV_MAX_LEVEL)
    if raw is None:
        return DEFAULT_MAX_LEVEL
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"{ENV_MAX_LEVEL} must be an integer: {raw!r}") from exc
    if value < 0:
        raise UsageError(f"{ENV_MAX_LEVEL} must be nonnegative")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_param_args(sub) -> None:
    sub.add_argument("--lam", type=_rational, default=Fraction(0), help="highest weight (exact rational)")
    sub.add_argument("--c", type=_rational, default=Fraction(0), help="C central charge")
    sub.add_argument("--c0", type=_rational, default=Fraction(0), help="I(0) eigenvalue on the highest weight vector")
    sub.add_argument("--c1", type=_rational, default=Fraction(0), help="C1 central charge")


def _params(args) -> HWParams:
    if getattr(args, "symbolic", False):
        return HWParams.symbolic()
    return HWParams.rational(args.lam, args.c, args.c0, args.c1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="w22",
        description="Exact verification and computation suite for the W(2,2) algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobi", help="check the Jacobi identity on an index window")
    p.add_argument("--max-index", type=int, required=True)

    p = sub.add_parser("verma-dim", help="level dimensions against the enumeration oracle")
    p.add_argument("--max-level", type=int, default=None)

    p = sub.add_parser("gram", help="contravariant Gram matrix of one level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_param_args(p)

    p = sub.add_parser("det", help="Gram determinant of one level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    _add_param_args(p)

    p = sub.add_parser("singular", help="singular vectors of one level")
    p.add_argument("--level", type=int, required=True)
    _add_param_args(p)

    p = sub.add_parser("criterion", help="irreducibility criterion for (c0, c1)")
    p.add_argument("--c0", type=_rational, required=True)
    p.add_argument("--c1", type=_rational, required=True)

    p = sub.add_parser("i0", help="I(0) action matrix and Jordan report")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_param_args(p)

    p = sub.add_parser("realization", help="Witt-module, intermediate-series and semidirect checks")
    p.add_argument("--window", type=int, default=8)

    sub.add_parser("suite", help="run the full verification suite")
    return parser


def _emit(obj) -> str:
    return json.dumps(obj)


def _check_level(level: int, bound: int) -> None:
    if level < 0 or level > bound:
        raise UsageError(f"level {level} outside [0, {bound}]")


def _scalar_ring(args):
    return PARAM_POLYS if getattr(args, "symbolic", False) else QQ


def _matrix_payload(level, basis, entries, ring):
    return {
        "level": level,
        "basis": [str(b) for b in basis],
        "entries": [[ring.format(x) for x in row] for row in entries],
    }


def _matrix_csv(entries, ring) -> str:
    return "\n".join(",".join(ring.format(x) for x in row) for row in entries)


def _cmd_jacobi(args) -> tuple[int, str]:
    if args.max_index < 1:
        raise UsageError("--max-index must be >= 1")
    report = jacobi_report(args.max_index)
    payload = {
        "triples_checked": report.triples_checked,
        "violations": len(report.violations),
    }
    if report.violations:
        payload["violation_list"] = [list(v) for v in report.violations]
    return (0 if report.passed else 1), _emit(payload)


def _cmd_verma_dim(args) -> tuple[int, str]:
    bound = _max_level()
    top = bound if args.max_level is None else args.max_level
    _check_level(top, bound)
    counts = [len(verma.level_basis(n, bound)) for n in range(top + 1)]
    # Independent oracle: convolution square of the partition generating series.
    parts = [0] * (top + 1)
    for n in range(top + 1):
        parts[n] = sum(1 for _ in verma.partitions(n))
    oracle = [sum(parts[k] * parts[n - k] for k in range(n + 1)) for n in range(top + 1)]
    ok = counts == oracle
    payload = {"levels": list(range(top + 1)), "counts": counts, "oracle": oracle, "ok": ok}
    return (0 if ok else 1), _emit(payload)


def _cmd_gram(args) -> tuple[int, str]:
    bound = _max_level()
    _check_level(args.level, bound)
    ring = _scalar_ring(args)
    gram = verma.gram_matrix(args.level, _params(args), bound)
    if args.format == "csv":
        return 0, _matrix_csv(gram.entries, ring)
    return 0, _emit(_matrix_payload(gram.level, gram.basis, gram.entries, ring))


def _cmd_det(args) -> tuple[int, str]:
    bound = _max_level()
    _check_level(args.level, bound)
    ring = _scalar_ring(args)
    value = verma.shapovalov_det(args.level, _params(args), bound)
    return 0, _emit({"det": ring.format(value)})


def _cmd_singular(args) -> tuple[int, str]:
    bound = _max_level()
    _check_level(args.level, bound)
    if args.level < 1:
        raise UsageError("--level must be >= 1 for singular vectors")
    found = verma.singular_vectors(args.level, _params(args), bound)
    basis = verma.level_basis(args.level, bound)
    vectors = []
    for sv in found:
        coeffs = {}
        for mono in basis:
            coef = sv.vector.terms.get(mono)
            if coef:
                coeffs[str(mono)] = QQ.format(coef)
        vectors.append({"coefficients": coeffs, "i0_eigenvector": sv.i0_eigenvector})
    payload = {"level": args.level, "count": len(vectors), "vectors": vectors}
    return 0, _emit(payload)


def _cmd_criterion(args) -> tuple[int, str]:
    reducible, witness = verma.is_reducible(args.c0, args.c1)
    return 0, _emit({"reducible": reducible, "witness_m": witness})


def _cmd_i0(args) -> tuple[int, str]:
    bound = _max_level()
    _check_level(args.level, bound)
    ring = _scalar_ring(args)
    report = verma.i0_matrix(args.level, _params(args), bound)
    if args.format == "csv":
        return (0 if report.nilpotent_within_bound else 1), _matrix_csv(report.entries, ring)
    payload = _matrix_payload(report.level, report.basis, report.entries, ring)
    payload["nilpotency_degree"] = report.nilpotency_degree
    payload["nilpotent_within_bound"] = report.nilpotent_within_bound
    payload["diagonalizable"] = report.diagonalizable
    return (0 if report.nilpotent_within_bound else 1), _emit(payload)


def _window_payload(report) -> dict:
    payload = {"window": report.window, "checks": report.checks, "failures": len(report.failures)}
    if report.failures:
        payload["failure_list"] = [list(f) for f in report.failures]
    return payload


def _cmd_realization(args) -> tuple[int, str]:
    if args.window < 1:
        raise UsageError("--window must be >= 1")
    witt = realizations.witt_module_report(args.window)
    semidirect = realizations.semidirect_check(args.window)
    samples = [(0, -1), (0, 0), (Fraction(1, 2), 3), (1, 2), (-2, Fraction(5, 7))]
    series = []
    for a, b in samples:
        isp = realizations.IntermediateSeriesParams.of(a, b)
        rep = realizations.intermediate_series_report(isp, args.window)
        entry = {"a": QQ.format(Fraction(a)), "b": QQ.format(Fraction(b))}
        entry.update(_window_payload(rep))
        series.append(entry)
    table_match = all(
        realizations.intermediate_series_action(
            realizations.IntermediateSeriesParams.of(0, -1), m, k
        )
        == realizations.witt_action(m, k)[0]
        for m in range(-args.window, args.window + 1)
        for k in range(-args.window, args.window + 1)
    )
    ok = witt.passed and semidirect.passed and table_match and all(
        s["failures"] == 0 for s in series
    )
    payload = {
        "witt": _window_payload(witt),
        "intermediate_series": series,
        "a0_minus1_matches_witt": table_match,
        "semidirect": _window_payload(semidirect),
        "ok": ok,
    }
    return (0 if ok else 1), _emit(payload)


def _criterion_samples():
    """Cross-validation of the criterion against the exact form.

    ``is_reducible`` states the criterion in this engine's bracket
    convention: the level-m degeneracy sits where (m^2-1)/12*c1 equals
    +2*c0.  Every sample is expected to agree with the computed form:
    (0, 5) at level 1, (1, 8) at level 2, (1, -8) and (-1, 0) nowhere, and
    (1, 1) only at level 5, beyond the suite's cap.
    """
    return [
        # (c0, c1, lam, c, expect_consistent)
        (Fraction(0), Fraction(5), Fraction(2), Fraction(1), True),
        (Fraction(1), Fraction(1), Fraction(2), Fraction(1), True),
        (Fraction(-1), Fraction(0), Fraction(0), Fraction(0), True),
        (Fraction(1), Fraction(-8), Fraction(2), Fraction(1), True),
        (Fraction(1), Fraction(8), Fraction(2), Fraction(1), True),
    ]


def _cmd_suite(args) -> tuple[int, str]:
    bound = _max_level()
    ok = True

    cases = []
    for result in identities.run_corpus():
        case = result.case
        entry = {
            "name": case.name,
            "source": case.source,
            "expect_pass": case.expect_pass,
            "passed": result.passed,
            "ok": result.as_expected,
        }
        if not result.passed:
            entry["residual"] = str(result.residual)
        cases.append(entry)
        ok = ok and result.as_expected

    jac = jacobi_report(6)
    ok = ok and jac.passed

    semidirect = realizations.semidirect_check(8)
    ok = ok and semidirect.passed

    samples = []
    cap = min(4, bound)
    for c0, c1, lam, c, expect_consistent in _criterion_samples():
        reducible, witness = verma.is_reducible(c0, c1)
        p = HWParams.rational(lam, c, c0, c1)
        degenerate = verma.first_degenerate_level(p, cap)
        expected = witness if reducible and witness <= cap else None
        consistent = degenerate == expected and (
            degenerate is None or bool(verma.singular_vectors(degenerate, p, bound))
        )
        entry = {
            "c0": QQ.format(c0),
            "c1": QQ.format(c1),
            "lam": QQ.format(lam),
            "c": QQ.format(c),
            "stated_reducible": reducible,
            "witness_m": witness,
            "first_degenerate_level": degenerate,
            "consistent": consistent,
            "expect_consistent": expect_consistent,
            "ok": consistent == expect_consistent,
        }
        samples.append(entry)
        ok = ok and entry["ok"]

    payload = {
        "identity_cases": cases,
        "jacobi": {"max_index": 6, "triples_checked": jac.triples_checked, "violations": len(jac.violations)},
        "semidirect": _window_payload(semidirect),
        "criterion_samples": samples,
        "ok": ok,
    }
    return (0 if ok else 1), _emit(payload)


_HANDLERS = {
    "jacobi": _cmd_jacobi,
    "verma-dim": _cmd_verma_dim,
    "gram": _cmd_gram,
    "det": _cmd_det,
    "singular": _cmd_singular,
    "criterion": _cmd_criterion,
    "i0": _cmd_i0,
    "realization": _cmd_realization,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, text = _HANDLERS[args.command](args)
    except (UsageError, verma.LevelBoundError, IndexLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
