"""Exact ordinal arithmetic below epsilon_0, in Cantor normal form.

An ordinal is a tuple of (exponent, coefficient) terms with strictly
decreasing exponents and positive integer coefficients; exponents are
ordinals themselves and the empty tuple is 0.  This representation covers
exactly the ordinals below epsilon_0.  Values are immutable and hashable,
all operations are pure.

Every value that enters is checked: ``Ordinal(...)`` checks its terms,
``as_ordinal`` and ``Ordinal.from_int`` its int, ``omega_power`` its
arguments and ``parse`` its tokens.  The arithmetic builds its results,
already in normal form, with ``_of``, which checks nothing; the
ordinal-laws verification suite re-checks every result it computes.

The text grammar (whitespace ignored, '#' starts a line comment, digits
are the ASCII 0-9 only):

    ordinal := term ( "+" term )*
    term    := "w" power? coeff? | nat
    power   := "^" atom
    atom    := nat | "w" | "(" ordinal ")"
    coeff   := "*" nat
    nat     := [0-9]+

"w^E*k" denotes omega^E * k, "+" is ordinal addition, terms evaluate left
to right.  `parse(format_ordinal(o)) == o` for every valid ordinal.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ParseError

__all__ = [
    "Ordinal",
    "Kind",
    "ZERO",
    "ONE",
    "OMEGA",
    "as_ordinal",
    "omega_power",
    "parse",
    "format_ordinal",
    "format_natural",
    "parse_natural",
    "compare",
    "add",
    "mul_power",
    "divide_by_power",
    "kind",
]

DEFAULT_MAX_DEPTH = 64
#: The most digits of one integer that scatterkit reads or prints:
#: CPython's default limit on int/str conversion, fixed here so that the
#: interpreter's own setting changes no output.  Longer numbers are
#: converted in pieces of ``_PIECE`` digits, below the least limit the
#: interpreter accepts (640 digits).
MAX_DIGITS = 4300
_PIECE = 600
_SHIFT = 10**_PIECE
_TOO_LONG = 10**MAX_DIGITS


class Kind(Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


@functools.total_ordering
@dataclass(frozen=True)
class Ordinal:
    """An ordinal below epsilon_0 as a tuple of CNF terms."""

    terms: tuple[tuple[Ordinal, int], ...] = ()

    def __post_init__(self):
        prev = None
        for term in self.terms:
            exp, coeff = term
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent must be an Ordinal, got {exp!r}")
            if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
                raise ValueError(f"coefficient must be a positive integer, got {coeff!r}")
            if prev is not None and not exp < prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp

    @staticmethod
    def from_int(n: int) -> Ordinal:
        if type(n) is int and n > 0:
            return _of(((ZERO, n),))
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def leading_exponent(self) -> Ordinal:
        if not self.terms:
            raise ValueError("0 has no leading term")
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> int:
        if not self.terms:
            raise ValueError("0 has no leading term")
        return self.terms[0][1]

    @property
    def smallest_exponent(self) -> Ordinal:
        if not self.terms:
            raise ValueError("0 has no terms")
        return self.terms[-1][0]

    def kind(self) -> Kind:
        if not self.terms:
            return Kind.ZERO
        return Kind.SUCCESSOR if self.terms[-1][0].is_zero else Kind.LIMIT

    def __int__(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __lt__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        # CNF term lists compare lexicographically by (exponent, coefficient),
        # a proper prefix being smaller; this is exactly the ordinal order.
        return self.terms < other.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a finite ordinal equals its int, so it must hash like it
        if self.is_finite:
            return hash(int(self))
        return hash(self.terms)

    def __add__(self, other) -> Ordinal:
        if not isinstance(other, Ordinal):
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return add(self, other)

    def __radd__(self, other) -> Ordinal:
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return add(other, self)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


def _of(terms: tuple) -> Ordinal:
    """The Ordinal of ``terms``, which must already be in Cantor normal form
    with Ordinal exponents and positive int coefficients; unlike
    ``Ordinal(terms)`` it checks nothing."""
    o = object.__new__(Ordinal)
    object.__setattr__(o, "terms", terms)
    return o


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def as_ordinal(value) -> Ordinal:
    """An Ordinal as is, a non-negative int as the finite ordinal.

    Anything else (str, float, bool, a negative int) raises DomainError;
    every library entry point that takes ``Ordinal | int`` goes through
    here.
    """
    if isinstance(value, Ordinal):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise DomainError(f"ordinals are non-negative, got {value}")
        return Ordinal.from_int(value)
    raise DomainError(f"expected an Ordinal or a non-negative int, got {value!r}")


def _operand(value):
    """as_ordinal for the operator methods: NotImplemented instead of an
    error, so that Python can try the other operand."""
    try:
        return as_ordinal(value)
    except DomainError:
        return NotImplemented


def omega_power(exponent: Ordinal | int, coefficient: int = 1) -> Ordinal:
    """omega^exponent * coefficient (0 when the coefficient is 0)."""
    exponent = as_ordinal(exponent)
    if not isinstance(coefficient, int) or isinstance(coefficient, bool) or coefficient < 0:
        raise DomainError(f"coefficient must be a non-negative int, got {coefficient!r}")
    if coefficient == 0:
        return ZERO
    return _of(((exponent, coefficient),))


def compare(a: Ordinal | int, b: Ordinal | int) -> int:
    """-1, 0 or 1 as a is below, equal to or above b in the ordinal order."""
    a, b = as_ordinal(a), as_ordinal(b)
    if a == b:
        return 0
    return -1 if a < b else 1


def add(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """Ordinal sum: trailing terms of a below b's leading power are absorbed."""
    a, b = as_ordinal(a), as_ordinal(b)
    if not b.terms:
        return a
    if not a.terms:
        return b
    lead = b.terms[0][0]
    i = 0
    while i < len(a.terms) and lead < a.terms[i][0]:
        i += 1
    if i < len(a.terms) and a.terms[i][0] == lead:
        merged = (lead, a.terms[i][1] + b.terms[0][1])
        return _of(a.terms[:i] + (merged,) + b.terms[1:])
    return _of(a.terms[:i] + b.terms)


def mul_power(beta: Ordinal | int, q: Ordinal | int) -> Ordinal:
    """omega^beta * q, computed termwise on q's CNF."""
    beta, q = as_ordinal(beta), as_ordinal(q)
    terms = []
    for exp, coeff in q.terms:
        terms.append((beta if exp.is_zero else add(beta, exp), coeff))
    return _of(tuple(terms))


def _left_difference(beta: Ordinal, e: Ordinal) -> Ordinal:
    """The unique d with beta + d = e, defined whenever beta <= e."""
    if e < beta:
        raise ValueError("left difference requires beta <= e")
    bt, et = beta.terms, e.terms
    j = 0
    while j < len(bt) and j < len(et) and bt[j] == et[j]:
        j += 1
    if j == len(bt):
        return _of(et[j:])
    be, bc = bt[j]
    ee, ec = et[j]
    if ee == be:
        # e > beta forces ec > bc here
        return _of(((ee, ec - bc),) + et[j + 1 :])
    # ee > be: adding from exponent ee absorbs beta's tail
    return _of(et[j:])


def divide_by_power(gamma: Ordinal | int, beta: Ordinal | int) -> tuple[Ordinal, Ordinal]:
    """The unique (q, r) with gamma = omega^beta * q + r and r < omega^beta."""
    gamma, beta = as_ordinal(gamma), as_ordinal(beta)
    if beta.is_zero:
        return gamma, ZERO
    high = []
    i = 0
    for exp, coeff in gamma.terms:
        if exp < beta:
            break
        high.append((_left_difference(beta, exp), coeff))
        i += 1
    return _of(tuple(high)), _of(gamma.terms[i:])


def kind(o: Ordinal | int) -> Kind:
    return as_ordinal(o).kind()


def format_ordinal(o: Ordinal) -> str:
    """Canonical rendering; omits *1 and ^1, prints the finite term bare.

    Raises DomainError when a coefficient or a finite exponent has more
    than ``MAX_DIGITS`` digits (``format_natural``); a sum of two literals
    that parse can reach that length.
    """
    if not o.terms:
        return "0"
    parts = []
    for exp, coeff in o.terms:
        if exp.is_zero:
            parts.append(format_natural(coeff))
            continue
        if exp == ONE:
            s = "w"
        elif exp.is_finite:
            s = f"w^{format_natural(int(exp))}"
        else:
            s = f"w^({format_ordinal(exp)})"
        if coeff != 1:
            s += f"*{format_natural(coeff)}"
        parts.append(s)
    return " + ".join(parts)


def format_natural(n: int) -> str:
    """n in decimal, or DomainError when it has more than ``MAX_DIGITS``
    digits, whatever the interpreter's own conversion limit."""
    if n >= _TOO_LONG:
        raise DomainError(f"cannot print a coefficient of more than {MAX_DIGITS} digits")
    if n < _SHIFT:
        return str(n)
    high, low = divmod(n, _SHIFT)
    return format_natural(high) + str(low).zfill(_PIECE)


def parse_natural(digits: str) -> int:
    """The value of a run of decimal digits, or ValueError when it has more
    than ``MAX_DIGITS``, whatever the interpreter's own conversion limit."""
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"integer literal of {len(digits)} digits is too long")
    if len(digits) <= _PIECE:
        return int(digits)
    return parse_natural(digits[:-_PIECE]) * _SHIFT + int(digits[-_PIECE:])


#: One match per token, captured: an ASCII digit run or any other
#: non-whitespace character; a '#' comment to the end of the line matches
#: with nothing captured.  ``\s`` matches exactly the characters for which
#: ``str.isspace()`` holds.
_TOKEN = re.compile(r"([0-9]+|[^\s#])|#[^\n]*")


class _Failure(Exception):
    """A parse error at token ``index`` or, with ``past``, just after the
    token before it (0 for the first token)."""

    def __init__(self, message: str, index: int, past: bool = False):
        self.message, self.index, self.past = message, index, past

    def position(self, text: str) -> int:
        spans = [m.span() for m in _TOKEN.finditer(text) if m[1]]
        if self.past:
            return spans[self.index - 1][1] if self.index else 0
        return spans[self.index][0] if self.index < len(spans) else len(text)


def _nat(token: str, index: int) -> int:
    # a token is one character or a run of ASCII digits, so the tokens in
    # ["0", ":") are exactly the numbers
    if not "0" <= token < ":":
        raise _Failure("expected a number", index)
    if len(token) <= _PIECE:
        return int(token)
    try:
        return parse_natural(token)
    except ValueError as exc:
        raise _Failure(str(exc), index) from None


def _sum(tokens: list[str], i: int, depth: int, max_depth: int):
    """The CNF terms of the sum starting at token i, and the index after it.

    Adding a term w^e*c pops the trailing terms whose exponent is below e
    and merges with one equal to e: `add` of a single term.
    """
    if depth > max_depth:
        raise _Failure(f"nesting depth exceeds limit of {max_depth}", i, past=True)
    terms = []
    while True:
        token = tokens[i]
        if token == "w":
            i += 1
            exponent = ONE
            if tokens[i] == "^":
                i += 1
                if depth + 1 > max_depth:
                    raise _Failure(f"nesting depth exceeds limit of {max_depth}", i, past=True)
                token = tokens[i]
                if token == "(":
                    inner, i = _sum(tokens, i + 1, depth + 1, max_depth)
                    if tokens[i] != ")":
                        raise _Failure("expected ')'", i)
                    exponent = _of(tuple(inner))
                elif token == "w":
                    exponent = OMEGA
                elif "0" <= token < ":":
                    exponent = Ordinal.from_int(_nat(token, i))
                else:
                    raise _Failure("expected a number, 'w' or '('", i)
                i += 1
            coefficient = 1
            if tokens[i] == "*":
                coefficient = _nat(tokens[i + 1], i + 1)
                i += 2
        elif "0" <= token < ":":
            exponent, coefficient = ZERO, _nat(token, i)
            i += 1
        else:
            raise _Failure("expected 'w' or a number", i)
        if coefficient:
            key = exponent.terms  # term tuples compare as their ordinals do
            while terms and terms[-1][0].terms < key:
                terms.pop()
            if terms and terms[-1][0].terms == key:
                coefficient += terms.pop()[1]
            terms.append((exponent, coefficient))
        if tokens[i] != "+":
            return terms, i
        i += 1


def parse(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> Ordinal:
    """Evaluate an ordinal expression to its Cantor normal form."""
    tokens = list(filter(None, _TOKEN.findall(text)))  # comments drop out
    tokens.append("")  # end of input
    try:
        terms, i = _sum(tokens, 0, 0, max_depth)
        if tokens[i]:
            raise _Failure("trailing input", i)
    except _Failure as failure:
        raise ParseError(failure.message, position=failure.position(text)) from None
    return _of(tuple(terms))
