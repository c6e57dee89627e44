"""Machine-checked corpus of commutator identities in the enveloping algebra.

Each case states an expression and its expected normal form in a small prefix
syntax, e.g. ``(br (L -2) (I 4))`` with expected ``(scale 6 (I 2))``.  A case
passes when the normal-ordered residual (expression minus expected) is
exactly zero.  Three cases transcribe known slips in the written source of the
corpus and are recorded as expected failures: the engine always follows the
defining relations, so their residuals are nonzero in a predicted direction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

from .algebra import C, C1, I, L
from .pbw import UEElement, commutator, multiply, ue
from .scalars import parse_rational

__all__ = [
    "IdentityCase",
    "IdentityResult",
    "parse_expression",
    "verify_identity",
    "load_corpus",
    "run_corpus",
]


@dataclass(frozen=True)
class IdentityCase:
    name: str
    expression: str
    expected: str
    source: str
    expect_pass: bool = True
    note: Optional[str] = None


@dataclass
class IdentityResult:
    case: IdentityCase
    passed: bool
    residual: UEElement

    @property
    def as_expected(self) -> bool:
        return self.passed == self.case.expect_pass


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_tokens(tokens, pos: int):
    tok = tokens[pos]
    if tok == "(":
        head = tokens[pos + 1]
        args = []
        pos += 2
        while tokens[pos] != ")":
            node, pos = _parse_tokens(tokens, pos)
            args.append(node)
        return (head, args), pos + 1
    if tok == ")":
        raise ValueError("unbalanced parenthesis")
    return tok, pos + 1


def _eval(node) -> UEElement:
    if isinstance(node, str):
        if node == "C":
            return ue(C)
        if node == "C1":
            return ue(C1)
        return ue(parse_rational(node))
    head, args = node
    if head in ("L", "I"):
        (idx,) = args
        gen = L(int(idx)) if head == "L" else I(int(idx))
        return ue(gen)
    if head == "br":
        a, b = args
        return commutator(_eval(a), _eval(b))
    if head == "mul":
        out = ue(parse_rational("1"))
        for a in args:
            out = multiply(out, _eval(a))
        return out
    if head == "add":
        out = UEElement.zero()
        for a in args:
            out = out + _eval(a)
        return out
    if head == "sub":
        a, b = args
        return _eval(a) - _eval(b)
    if head == "neg":
        (a,) = args
        return -_eval(a)
    if head == "scale":
        q, a = args
        if not isinstance(q, str):
            raise ValueError("scale expects a rational literal first")
        return parse_rational(q) * _eval(a)
    raise ValueError(f"unknown operator {head!r}")


def parse_expression(text: str) -> UEElement:
    """Evaluate a prefix expression to a normal-form element of U."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    node, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return _eval(node)


def verify_identity(case: IdentityCase) -> IdentityResult:
    """Normal-order expression minus expected; pass iff the residual is 0."""
    residual = parse_expression(case.expression) - parse_expression(case.expected)
    return IdentityResult(case=case, passed=residual.is_zero(), residual=residual)


@lru_cache(maxsize=1)
def load_corpus() -> tuple:
    raw = resources.files("w22.data").joinpath("identity_corpus.json").read_text()
    records = json.loads(raw)
    return tuple(
        IdentityCase(
            name=rec["name"],
            expression=rec["expression"],
            expected=rec["expected"],
            source=rec["source"],
            expect_pass=rec.get("expect_pass", True),
            note=rec.get("note"),
        )
        for rec in records
    )


def run_corpus(cases=None) -> list[IdentityResult]:
    if cases is None:
        cases = load_corpus()
    return [verify_identity(case) for case in cases]
