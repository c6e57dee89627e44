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
from fractions import Fraction
from importlib import resources

from .algebra import C, C1, Generator, I, L
from .pbw import UEElement, commutator, multiply, ue
from .scalars import parse_rational

__all__ = [
    "IdentityCase",
    "IdentityResult",
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
    """The list or atom starting at ``tokens[pos]``, and the position after it."""
    if pos == len(tokens):
        raise ValueError("unbalanced parenthesis: the expression ends inside a list")
    tok = tokens[pos]
    if tok == ")":
        raise ValueError("unbalanced parenthesis: ')' with no list open")
    if tok != "(":
        return tok, pos + 1
    pos += 1
    if pos == len(tokens) or tokens[pos] == ")":
        raise ValueError("unbalanced parenthesis: a list must start with an operator")
    head = tokens[pos]
    args = []
    pos += 1
    # Out of tokens before the ")", the call below reports the open list.
    while pos == len(tokens) or tokens[pos] != ")":
        node, pos = _parse_tokens(tokens, pos)
        args.append(node)
    return (head, args), pos + 1


def _literal(text: str):
    """A rational literal, as an ``int`` where it is an integer: integer
    coefficients stay ``int`` through the rewriting."""
    q = parse_rational(text)
    return q.numerator if q.denominator == 1 else q


def _tree(node):
    """The expression tree of a parsed list or atom: every leaf a
    ``Generator`` or a rational literal (see :func:`_literal`), every inner
    node ``(operator, args)``.  ``scale`` keeps its literal as its first
    argument."""
    if isinstance(node, str):
        if node == "C":
            return C
        if node == "C1":
            return C1
        return _literal(node)
    head, args = node
    if head in ("L", "I"):
        (idx,) = args
        if not isinstance(idx, str):
            raise ValueError(f"({head} ...) expects an integer index")
        return L(int(idx)) if head == "L" else I(int(idx))
    if head == "scale":
        q, a = args
        if not isinstance(q, str):
            raise ValueError("scale expects a rational literal first")
        return head, (_literal(q), _tree(a))
    if head not in ("br", "mul", "add", "sub", "neg"):
        raise ValueError(f"unknown operator {head!r}")
    return head, tuple(_tree(a) for a in args)


def _eval(tree) -> UEElement:
    """The normal form of an expression tree, rewritten afresh."""
    if isinstance(tree, (Generator, int, Fraction)):
        return ue(tree)
    head, args = tree
    if head == "br":
        a, b = args
        return commutator(_eval(a), _eval(b))
    if head == "mul":
        out = ue(1)
        for a in args:
            out = multiply(out, _eval(a))
        return out
    if head == "add":
        out = UEElement()
        for a in args:
            out = out + _eval(a)
        return out
    if head == "sub":
        a, b = args
        return _eval(a) - _eval(b)
    if head == "neg":
        (a,) = args
        return -_eval(a)
    q, a = args  # scale
    return q * _eval(a)


def _parse(text: str):
    """The expression tree of a prefix expression."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    node, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return _tree(node)


def _verify(case: IdentityCase, expression, expected) -> IdentityResult:
    """Normal-order expression minus expected, from their trees; pass iff
    the residual is 0."""
    residual = _eval(expression) - _eval(expected)
    return IdentityResult(case=case, passed=residual.is_zero(), residual=residual)


@lru_cache(maxsize=1)
def load_corpus() -> tuple:
    raw = (resources.files(__package__) / "data" / "identity_corpus.json").read_text()
    records = json.loads(raw)
    return tuple(
        IdentityCase(
            name=rec["name"],
            expression=rec["expression"],
            expected=rec["expected"],
            source=rec["source"],
            expect_pass=rec.get("expect_pass", True),
        )
        for rec in records
    )


@lru_cache(maxsize=1)
def _corpus_trees() -> tuple:
    """``(case, expression tree, expected tree)`` for each packaged case,
    parsed once per process.  The trees hold generators and literals only;
    each run rewrites them afresh."""
    return tuple((case, _parse(case.expression), _parse(case.expected)) for case in load_corpus())


def run_corpus() -> list[IdentityResult]:
    """Verify the packaged corpus from its parsed trees."""
    return [_verify(*entry) for entry in _corpus_trees()]
