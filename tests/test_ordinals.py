import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit.errors import DomainError, ParseError, ScatterkitError
from scatterkit.ordinal import (
    DEFAULT_MAX_DEPTH,
    OMEGA,
    ONE,
    ZERO,
    Kind,
    Ordinal,
    add,
    as_ordinal,
    compare,
    divide_by_power,
    format_ordinal,
    kind,
    mul_power,
    omega_power,
    parse,
)

w = OMEGA


def o(text):
    return parse(text)


# --- strategies -------------------------------------------------------------

_exponents = st.one_of(
    st.integers(0, 3).map(Ordinal.from_int),
    st.sampled_from(
        [
            o("w"),
            o("w + 1"),
            o("w + 2"),
            o("w^2"),
            o("w^2 + w*3 + 1"),
            o("w^(w)"),
            o("w^(w)*2 + w^(w + 1)"),  # = w^(w+1), exercises absorption in exponents
            o("w^(w^2 + w)"),
        ]
    ),
)


@st.composite
def ordinals(draw):
    count = draw(st.integers(0, 3))
    exps = draw(st.lists(_exponents, min_size=count, max_size=count, unique=True))
    exps.sort(reverse=True)
    coeffs = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
    return Ordinal(tuple(zip(exps, coeffs)))


@st.composite
def small_triples(draw):
    """Ordinals below w^3, as (a, b, c) with value w^2*a + w*b + c."""
    return draw(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))


def triple_ordinal(t):
    a, b, c = t
    value = ZERO
    if a:
        value = add(value, omega_power(2, a))
    if b:
        value = add(value, omega_power(1, b))
    return add(value, Ordinal.from_int(c))


# --- parsing and formatting -------------------------------------------------

def test_parse_zero():
    assert o("0") == ZERO
    assert kind(o("0")) is Kind.ZERO


def test_parse_left_absorption():
    assert o("w + w^2") == o("w^2")


def test_parse_full_expression():
    value = o("w^(w^2)*3 + w*2 + 5")
    assert value.terms == (
        (o("w^2"), 3),
        (ONE, 2),
        (ZERO, 5),
    )


def test_parse_whitespace_and_comments():
    assert o("w^2 # trailing comment\n + 3") == o("w^2 + 3")
    assert o("  w *  2 ") == o("w*2")


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        o("w^")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        o("")
    with pytest.raises(ParseError):
        o("w + ")
    with pytest.raises(ParseError):
        o("(w)")  # parens are only atoms of a power
    with pytest.raises(ParseError):
        o("w^2 w")


def test_parse_refuses_over_long_integer_literals():
    # Python's int() refuses more than 4300 digits; that is a ParseError here
    assert int(parse("7" * 4300)) == int("7" * 4300)
    with pytest.raises(ParseError, match="too long") as err:
        parse("w + " + "7" * 5000)
    assert err.value.position == 4


def test_parse_accepts_ascii_digits_only():
    # str.isdigit() holds for "\u00b2" (superscript two) and the Arabic-Indic digits
    with pytest.raises(ParseError) as err:
        parse("\u00b2")
    assert (str(err.value), err.value.position) == ("expected 'w' or a number (at position 0)", 0)
    with pytest.raises(ParseError) as err:
        parse("w*\u00b2")
    assert (str(err.value), err.value.position) == ("expected a number (at position 2)", 2)
    with pytest.raises(ParseError, match="expected 'w' or a number"):
        parse("\u0661\u0662")
    with pytest.raises(ParseError, match="expected a number, 'w' or '\\('"):
        parse("w^\u0663")


def test_token_whitespace_is_str_isspace():
    # the tokenizer skips regex \s, the reference parser str.isspace()
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def test_format_refuses_over_long_coefficients():
    # two 4300-digit literals parse, and their sums have 4301-digit coefficients
    nines = "9" * 4300
    for text in (f"{nines} + {nines}", f"w*{nines} + w*{nines}", f"w^({nines} + {nines})"):
        value = parse(text)
        with pytest.raises(DomainError, match="more than 4300 digits"):
            format_ordinal(value)
        with pytest.raises(DomainError):
            str(value)
    assert format_ordinal(parse(f"w*{nines}")) == f"w*{nines}"


def test_parse_depth_limit():
    deep = "w^(" * 80 + "1" + ")" * 80
    with pytest.raises(ParseError, match="depth"):
        parse(deep)
    assert parse("w^(" * 10 + "1" + ")" * 10, max_depth=12) is not None
    with pytest.raises(ParseError, match="depth"):
        parse("w^(" * 10 + "1" + ")" * 10, max_depth=5)


def test_format_examples():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(o("w^2*3 + w*2 + 5")) == "w^2*3 + w*2 + 5"
    assert format_ordinal(o("w^(w)")) == "w^(w)"
    assert format_ordinal(o("w^(w + 1)*2 + 1")) == "w^(w + 1)*2 + 1"


@given(ordinals())
def test_parse_format_round_trip(x):
    assert parse(format_ordinal(x)) == x


_ordinal_text = st.one_of(
    st.text(max_size=200),
    st.text(alphabet="w^*+() 0123456789#\n", max_size=300),
    st.builds(
        lambda piece, times: piece * times,
        st.sampled_from(["w + ", "w^(", ")", "w^w*", "9", "+", "(w)", "w^2*3 + 1 + "]),
        st.integers(1, 3000),
    ),
    # nested exponents around a leaf, inside and beyond the depth limit
    st.builds(
        lambda depth, leaf: "w^(" * depth + leaf + ")" * depth,
        st.integers(0, 120),
        st.sampled_from(["1", "w", "w + 2", "", "0*"]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_ordinal_text)
def test_parse_fuzz_yields_an_ordinal_or_a_scatterkit_error(text):
    try:
        value = parse(text)
    except ScatterkitError:
        return
    assert isinstance(value, Ordinal)
    try:
        printed = format_ordinal(value)
    except DomainError:  # a coefficient too long to print
        return
    assert parse(printed) == value


# --- the character-scanning reference parser ---------------------------------
#
# It adds each term with `add`, which copies the whole sum, so it is
# quadratic in the number of terms; `parse` must agree with it on every
# value, error message and error position.

class _Parser:
    def __init__(self, text: str, max_depth: int):
        self.text = text
        self.pos = 0
        self.max_depth = max_depth

    def error(self, message: str) -> ParseError:
        return ParseError(message, position=self.pos)

    def skip(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            c = text[self.pos]
            if c.isspace():
                self.pos += 1
            elif c == "#":
                while self.pos < n and text[self.pos] != "\n":
                    self.pos += 1
            else:
                return

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # Python refuses int() on more digits than sys.get_int_max_str_digits()
            raise ParseError(
                f"integer literal of {self.pos - start} digits is too long", position=start
            ) from None

    def ordinal(self, depth: int) -> Ordinal:
        if depth > self.max_depth:
            raise self.error(f"nesting depth exceeds limit of {self.max_depth}")
        value = self.term(depth)
        while self.peek() == "+":
            self.pos += 1
            value = add(value, self.term(depth))
        return value

    def term(self, depth: int) -> Ordinal:
        c = self.peek()
        if c == "w":
            self.pos += 1
            exponent = ONE
            if self.peek() == "^":
                self.pos += 1
                exponent = self.atom(depth + 1)
            coefficient = 1
            if self.peek() == "*":
                self.pos += 1
                coefficient = self.nat()
            return omega_power(exponent, coefficient)
        if "0" <= c <= "9":
            return Ordinal.from_int(self.nat())
        raise self.error("expected 'w' or a number")

    def atom(self, depth: int) -> Ordinal:
        if depth > self.max_depth:
            raise self.error(f"nesting depth exceeds limit of {self.max_depth}")
        c = self.peek()
        if c == "(":
            self.pos += 1
            value = self.ordinal(depth)
            self.expect(")")
            return value
        if c == "w":
            self.pos += 1
            return OMEGA
        if "0" <= c <= "9":
            return Ordinal.from_int(self.nat())
        raise self.error("expected a number, 'w' or '('")


def _reference_parse(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> Ordinal:
    """`parse` by a character scan that adds term by term with `add`."""
    p = _Parser(text, max_depth)
    value = p.ordinal(0)
    p.skip()
    if p.pos != len(text):
        raise p.error("trailing input")
    return value


def _outcome(parser, text, max_depth):
    try:
        return parser(text, max_depth).terms
    except ParseError as err:
        return str(err), err.position


_pieces = st.sampled_from(
    ["w", "^", "*", "+", "(", ")", "0", "1", "2", "10", "007"]
    + [" ", "\t", "\n", "# note\n", "#", "x", "\u00b2"]
)
_differential_text = st.one_of(
    st.text(alphabet="w^*+()0123456789 \t\n#", max_size=60),
    st.lists(_pieces, max_size=40).map("".join),
    st.lists(st.sampled_from(["w^2*3", "w", "w^(w + 1)", "5", "w^w*2", "w^0", "w*0"]), max_size=12)
    .map(" + ".join),
    # nested exponents around a leaf, to and past every limit drawn below
    st.builds(
        lambda depth, leaf, gap: f"w^{gap}({gap}" * depth + leaf + f"{gap})" * depth,
        st.integers(0, 70),
        st.sampled_from(["1", "w", "w + 2", "", "0*", "w^", "w^(1", "9" * 4301]),
        st.sampled_from(["", " ", "# c\n"]),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_differential_text, st.sampled_from([-1, 0, 1, 2, 64]))
def test_parse_matches_reference_parser(text, max_depth):
    assert _outcome(parse, text, max_depth) == _outcome(_reference_parse, text, max_depth)


def test_parse_is_linear_in_its_terms(monkeypatch):
    # the reference re-validates the whole sum at every "+": about 8 million terms here
    validated = 0
    post_init = Ordinal.__post_init__

    def counting(self):
        nonlocal validated
        validated += len(self.terms)
        post_init(self)

    text = " + ".join(f"w^{e}*2" for e in range(4000, 0, -1))
    monkeypatch.setattr(Ordinal, "__post_init__", counting)
    value = parse(text)
    monkeypatch.undo()
    assert validated <= 3 * 4000
    assert value == Ordinal(tuple((Ordinal.from_int(e), 2) for e in range(4000, 0, -1)))


def test_coefficient_zero_and_power_zero():
    assert o("w*0") == ZERO
    assert o("w^0*5") == Ordinal.from_int(5)
    assert o("w^0") == ONE


# --- comparison -------------------------------------------------------------

def test_compare_examples():
    assert compare(w, w) == 0
    assert compare(o("w*2 + 1"), o("w^2")) == -1
    assert compare(o("w^(w)"), o("w^3*9")) == 1


@given(small_triples(), small_triples())
def test_compare_against_lexicographic_model(s, t):
    # below w^3 the ordinal order is the lexicographic order on triples
    assert compare(triple_ordinal(s), triple_ordinal(t)) == (s > t) - (s < t)


@given(ordinals(), ordinals(), ordinals())
def test_compare_is_a_total_order(a, b, c):
    assert (a < b) + (b < a) + (a == b) == 1
    if a < b and b < c:
        assert a < c


# --- addition ---------------------------------------------------------------

def naive_add(a, b):
    """Left-absorption rewriting, term by term; independent of add()."""
    terms = list(a.terms) + list(b.terms)
    changed = True
    while changed:
        changed = False
        for i in range(len(terms) - 1):
            (e1, c1), (e2, c2) = terms[i], terms[i + 1]
            if e1 < e2:
                del terms[i]
                changed = True
                break
            if e1 == e2:
                terms[i] = (e1, c1 + c2)
                del terms[i + 1]
                changed = True
                break
    return Ordinal(tuple(terms))


def test_add_examples():
    assert add(w, o("w^2")) == o("w^2")
    assert add(o("w^2"), w) == o("w^2 + w")
    assert add(o("w^2*3 + w"), o("w*5 + 1")) == o("w^2*3 + w*6 + 1")
    assert add(o("w^2*3 + w"), o("w*5 + 1")) == naive_add(o("w^2*3 + w"), o("w*5 + 1"))


@given(ordinals(), ordinals())
def test_add_matches_rewriting_oracle(a, b):
    assert add(a, b) == naive_add(a, b)


@given(ordinals(), ordinals(), ordinals())
def test_add_associative_with_zero_identity(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a


@given(ordinals(), ordinals(), ordinals())
def test_add_monotone_and_strictly_increasing_on_the_right(a, a2, b):
    lo, hi = (a, a2) if a < a2 else (a2, a)
    assert not add(b, hi) < add(b, lo)
    if lo < hi:
        assert add(b, lo) < add(b, hi)


@given(ordinals(), _exponents)
def test_left_absorption(b, e):
    power = omega_power(e)
    if b < power:
        assert add(b, power) == power


def test_int_interop():
    assert w + 1 == o("w + 1")
    assert 1 + w == w
    assert o("w") < o("w*2")
    assert Ordinal.from_int(3) == 3
    assert int(o("5")) == 5
    with pytest.raises(ValueError):
        int(w)


# --- multiplication and division by powers of omega -------------------------

def test_mul_power_examples():
    assert mul_power(ONE, o("w*3 + 2")) == o("w^2*3 + w*2")
    assert mul_power(ZERO, o("w^2 + w*4 + 1")) == o("w^2 + w*4 + 1")
    assert mul_power(Ordinal.from_int(2), Ordinal.from_int(3)) == o("w^2*3")


def test_divide_examples():
    assert divide_by_power(o("w^2*3 + w*2 + 5"), ONE) == (o("w*3 + 2"), o("5"))
    gamma = o("w^(w)*2 + w^2")
    assert divide_by_power(gamma, ZERO) == (gamma, ZERO)
    assert divide_by_power(Ordinal.from_int(5), ONE) == (ZERO, Ordinal.from_int(5))


@given(ordinals(), _exponents)
@settings(max_examples=300)
def test_division_round_trip(gamma, beta):
    q, r = divide_by_power(gamma, beta)
    assert add(mul_power(beta, q), r) == gamma
    assert r < omega_power(beta)


# --- kind -------------------------------------------------------------------

def test_kind_examples():
    assert kind(ZERO) is Kind.ZERO
    assert kind(o("w^2*3 + 1")) is Kind.SUCCESSOR
    assert kind(o("w^(w) + w")) is Kind.LIMIT


NOT_ORDINALS = ["w", "", 1.5, 2.0, True, False, -1, None]


def test_entry_points_refuse_non_ordinals():
    assert as_ordinal(3) == o("3") and as_ordinal(w) is w
    for bad in NOT_ORDINALS:
        for call in (
            lambda: as_ordinal(bad),
            lambda: add(bad, 1),
            lambda: add(1, bad),
            lambda: compare(bad, 1),
            lambda: compare(w, bad),
            lambda: mul_power(bad, 1),
            lambda: divide_by_power(w, bad),
            lambda: omega_power(bad),
            lambda: kind(bad),
        ):
            with pytest.raises(DomainError):
                call()


def test_omega_power_refuses_bad_coefficients():
    for bad in (-1, 1.5, "x"):
        with pytest.raises(DomainError, match="coefficient"):
            omega_power(1, bad)
    assert omega_power(1, 0) == ZERO and omega_power(1, 2) == o("w*2")


def test_operators_return_not_implemented_on_non_ordinals():
    for bad in NOT_ORDINALS:
        assert w.__lt__(bad) is NotImplemented
        assert w.__eq__(bad) is NotImplemented
        assert w.__add__(bad) is NotImplemented
        assert w.__radd__(bad) is NotImplemented
        assert w != bad
    with pytest.raises(TypeError):
        w + "x"
    with pytest.raises(TypeError):
        w < 1.5
    with pytest.raises(TypeError):
        -1 + w
    assert w + 2 == add(w, 2) and 2 + w == w and ONE < 2


def test_hash_and_repr():
    assert hash(o("w + 1")) == hash(o("w + 1"))
    assert {o("w"), parse("w")} == {w}
    assert "w + 1" in repr(o("w + 1"))


def test_finite_ordinals_hash_like_their_int():
    three = Ordinal.from_int(3)
    assert 3 in {three} and three in {3}
    assert hash(ZERO) == hash(0) and ZERO in {0}
    mixed = {3: "int", o("w"): "omega"}
    mixed[three] = "ordinal"
    mixed[o("0")] = "zero"
    assert mixed == {3: "ordinal", w: "omega", 0: "zero"}
    assert mixed[3] == "ordinal" and mixed[ZERO] == "zero"


# --- checked entry points, unchecked results ---------------------------------

@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Ordinal(((ZERO, True),)), ValueError, "coefficient must be a positive integer, got True"),
        (lambda: Ordinal(((ONE, 1), (w, 1))), ValueError, "exponents must be strictly decreasing"),
        (lambda: Ordinal(((ONE, 1), (ONE, 2))), ValueError, "exponents must be strictly decreasing"),
        (lambda: Ordinal(((1, 1),)), TypeError, "exponent must be an Ordinal, got 1"),
        (lambda: Ordinal.from_int(True), ValueError, "coefficient must be a positive integer, got True"),
        (lambda: Ordinal.from_int(1.5), ValueError, "coefficient must be a positive integer, got 1.5"),
        (lambda: Ordinal.from_int(-1), ValueError, "ordinals are non-negative"),
    ],
    ids=["bool-coefficient", "increasing", "repeated", "int-exponent", "from-true", "from-float", "from-negative"],
)
def test_values_that_enter_are_checked(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_constants_and_from_int_build_checked_values():
    assert ZERO.terms == () and ONE.terms == ((ZERO, 1),) and w.terms == ((ONE, 1),)
    assert Ordinal.from_int(0) is ZERO and Ordinal.from_int(0.0) is ZERO
    assert Ordinal.from_int(7).terms == ((ZERO, 7),)


def test_arithmetic_builds_its_results_unchecked(monkeypatch):
    a, b = o("w^(w + 1)*2 + w^2 + 3"), o("w^2*3 + w")
    checked = []
    post_init = Ordinal.__post_init__
    monkeypatch.setattr(Ordinal, "__post_init__", lambda self: checked.append(self) or post_init(self))
    add(a, b), add(b, a), add(a, ZERO), add(ZERO, b)
    mul_power(b, a), mul_power(ONE, b), mul_power(ZERO, a)
    divide_by_power(a, b), divide_by_power(a, ONE), divide_by_power(b, o("w^(w)"))
    assert checked == []
    parse("w^2*3 + w + 1")
    assert checked == []
    Ordinal(a.terms)
    assert len(checked) == 1


def _normal(x):
    """Ordinal(x.terms) == x, for x and every exponent inside it."""
    return Ordinal(x.terms) == x and all(_normal(e) for e, _ in x.terms)


@given(ordinals(), ordinals(), _exponents, st.integers(0, 4))
@settings(max_examples=300)
def test_every_result_is_in_normal_form(a, b, beta, k):
    results = [add(a, b), add(b, a), mul_power(beta, a), mul_power(a, b), omega_power(a, k), omega_power(beta, k)]
    results += divide_by_power(a, beta) + divide_by_power(b, a)
    results += [parse(format_ordinal(a)), parse(f"{format_ordinal(b)} + {format_ordinal(a)}")]
    results.append(parse(f"w^({format_ordinal(a)})*{k} + w^({format_ordinal(b)})"))
    for result in results:
        assert _normal(result), result
