import itertools
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit.classify import (
    ALEPH0,
    MAX_PROFILE_LEVELS,
    Family,
    SpaceClass,
    canonical,
    class_profile,
    classify,
    compactify,
    derived_order_type,
    homeomorphic,
    point_rank,
    profile_runs,
)
from scatterkit.errors import (
    BoundExceededError,
    DomainError,
    OutOfSpaceError,
    UnrepresentableProfileError,
)
from scatterkit.ordinal import ONE, ZERO, Ordinal, add, omega_power, parse
from scatterkit.verify import POOL, random_ordinal


def o(text):
    return parse(text)


def decomposition_canonical(gamma: Ordinal) -> Ordinal:
    """Independent canonical form via splitting into clopen summand pieces.

    The sum is cut into one piece per CNF summand: every piece except the
    final one is compactified (it is followed by something, so it is a
    closed-and-open initial segment), then the pieces are reattached in
    ascending order, which only uses ordinal addition.
    """
    if gamma.is_finite:
        return gamma
    terms = list(gamma.terms)
    finite_tail = 0
    if terms[-1][0].is_zero:
        finite_tail = terms[-1][1]
        terms = terms[:-1]
    summands = []
    for e, c in terms:
        summands.extend([omega_power(e)] * c)
    if finite_tail:
        pieces = [add(s, ONE) for s in summands]
        pieces.append(Ordinal.from_int(finite_tail - 1))
        pieces.sort()
        return reduce(add, pieces)
    pieces = sorted(add(s, ONE) for s in summands[:-1])
    return reduce(add, pieces + [summands[-1]])


def test_classify_examples():
    assert classify(o("5")) == SpaceClass(Family.FINITE, 5)
    assert classify(ZERO) == SpaceClass(Family.FINITE, 0)
    assert classify(o("w^2*3 + w*2 + 5")) == SpaceClass(Family.COMPACT_INFINITE, 3, o("2"))
    assert classify(o("w^(w) + w^3*2 + w")) == SpaceClass(Family.LIMIT_MIXED, 1, o("w"), o("1"))
    assert classify(o("w*2")) == SpaceClass(Family.LIMIT_PURE, 2, o("1"))


def test_canonical_examples():
    assert canonical(o("w + w^2 + 1")) == o("w^2 + 1")
    assert canonical(o("w^2")) == o("w^2")
    assert canonical(o("w^3 + w^2*4 + w")) == o("w^3 + w")


def test_canonical_matches_decomposition_oracle_on_examples():
    for text in ("w^2*3 + w*2 + 5", "w^3 + w^2*4 + w", "w + w^2 + 1", "w*2", "w^(w) + w^3*2 + w"):
        assert canonical(o(text)) == decomposition_canonical(o(text))


def test_canonical_matches_decomposition_oracle_randomised():
    rng = random.Random(20)
    for _ in range(500):
        gamma = random_ordinal(rng)
        assert canonical(gamma) == decomposition_canonical(gamma)


def test_homeomorphic_examples():
    assert homeomorphic(o("w^2 + w + 1"), o("w + w^2 + 1"))
    assert not homeomorphic(o("w^2 + w"), o("w^2"))
    gamma = o("w^(w)*4 + w^2 + 3")
    assert homeomorphic(gamma, gamma)


def test_commutation_laws():
    rng = random.Random(21)
    count = 0
    while count < 200:
        a, b, c = (random_ordinal(rng) for _ in range(3))
        if a.is_finite or b.is_finite or c.is_zero:
            continue
        count += 1
        assert classify(add(add(a, b), c)) == classify(add(add(b, a), c))
        assert classify(add(add(a, b), ONE)) == classify(add(add(b, a), ONE))


def test_compactify():
    assert compactify(o("w")) == o("w + 1")
    assert compactify(o("w^2 + 1")) == o("w^2 + 1")
    assert compactify(ZERO) == ZERO
    assert classify(compactify(o("w^2*2 + w"))) == SpaceClass(Family.COMPACT_INFINITE, 2, o("2"))


def test_compactified_limits_join_the_compact_family():
    for alpha in POOL:
        for k in (1, 2, 3):
            pure = SpaceClass(Family.LIMIT_PURE, k, alpha).canonical_ordinal()
            assert classify(compactify(pure)) == SpaceClass(Family.COMPACT_INFINITE, k, alpha)
            for beta in POOL:
                if beta < alpha:
                    mixed = SpaceClass(Family.LIMIT_MIXED, k, alpha, beta).canonical_ordinal()
                    assert classify(compactify(mixed)) == SpaceClass(
                        Family.COMPACT_INFINITE, k, alpha
                    )


def test_space_class_validation():
    with pytest.raises(ValueError):
        SpaceClass(Family.LIMIT_MIXED, 1, o("2"), o("2"))  # beta < alpha required
    with pytest.raises(ValueError):
        SpaceClass(Family.COMPACT_INFINITE, 0, o("1"))
    with pytest.raises(ValueError):
        SpaceClass(Family.LIMIT_PURE, 1, ZERO)


def test_point_rank_examples():
    assert point_rank(ZERO, o("w")) == ZERO
    assert point_rank(o("w^2*3"), o("w^2*3 + 1")) == o("2")
    assert point_rank(o("w^(w)"), o("w^(w) + 1")) == o("w")
    with pytest.raises(OutOfSpaceError):
        point_rank(o("w"), o("w"))


def test_derived_order_type_examples():
    assert derived_order_type(o("w^2 + 1"), ONE) == o("w + 1")
    gamma = o("w^(w) + 3")
    assert derived_order_type(gamma, ZERO) == gamma
    assert derived_order_type(o("w^2*3 + 1"), o("2")) == o("3")


def test_derived_iteration_consistency():
    # one extra derivative step agrees with raising the level by one
    for a, b, c in itertools.product(range(4), repeat=3):
        gamma_terms = []
        if a:
            gamma_terms.append(("w^2*%d" % a))
        if b:
            gamma_terms.append("w*%d" % b)
        if c:
            gamma_terms.append(str(c))
        if not gamma_terms:
            continue
        gamma = o(" + ".join(gamma_terms))
        for beta in range(3):
            tau = derived_order_type(gamma, Ordinal.from_int(beta))
            assert derived_order_type(tau, ONE) == derived_order_type(
                gamma, Ordinal.from_int(beta + 1)
            )


def test_class_profile_examples():
    assert class_profile(o("3")) == [(ZERO, 3)]
    assert class_profile(o("w^2*3 + 1")) == [(ZERO, ALEPH0), (ONE, ALEPH0), (o("2"), 3)]
    assert class_profile(o("w + 1")) == [(ZERO, ALEPH0), (ONE, 1)]
    assert class_profile(ZERO) == []


def test_class_profile_top_level_counts_k():
    for alpha in (1, 2, 3):
        for k in (1, 2, 3, 4):
            gamma = add(omega_power(alpha, k), ONE)
            profile = class_profile(gamma)
            assert profile[-1] == (Ordinal.from_int(alpha), k)
            assert len(profile) == alpha + 1


def test_class_profile_unrepresentable():
    with pytest.raises(UnrepresentableProfileError):
        class_profile(o("w^(w)"))
    with pytest.raises(UnrepresentableProfileError):
        class_profile(o("w^(w + 1)*2 + w"))


def _profile_reference(gamma: Ordinal):
    """class_profile by walking the rank levels, one derived_order_type per
    level: the size of level i is the drop from the i-th to the (i+1)-th
    derived subspace."""
    if gamma.is_zero:
        return []
    assert gamma.leading_exponent.is_finite
    profile = []
    level = 0
    current = derived_order_type(gamma, ZERO)
    while not current.is_zero:
        nxt = derived_order_type(gamma, Ordinal.from_int(level + 1))
        size = int(current) - int(nxt) if current.is_finite else ALEPH0
        profile.append((Ordinal.from_int(level), size))
        current = nxt
        level += 1
    return profile


@st.composite
def finite_exponent_ordinals(draw):
    exponents = sorted(draw(st.sets(st.integers(0, 6), max_size=4)), reverse=True)
    coefficients = draw(st.lists(st.integers(1, 4), min_size=len(exponents), max_size=len(exponents)))
    return Ordinal(tuple((Ordinal.from_int(e), c) for e, c in zip(exponents, coefficients)))


@settings(max_examples=300)
@given(finite_exponent_ordinals())
def test_class_profile_matches_the_level_walk(gamma):
    assert class_profile(gamma) == _profile_reference(gamma)


def test_profile_runs_examples():
    cases = {
        "0": [],
        "5": [(0, 1, 5)],
        "w": [(0, 1, ALEPH0)],
        "w^2*3 + 1": [(0, 2, ALEPH0), (2, 1, 3)],
        "w^3*2": [(0, 3, ALEPH0), (3, 1, 1)],
        "w^3": [(0, 3, ALEPH0)],
    }
    for text, runs in cases.items():
        assert profile_runs(o(text)) == runs, text
        assert class_profile(o(text)) == _profile_reference(o(text)), text


def test_class_profile_bound():
    assert MAX_PROFILE_LEVELS == 100_000
    assert len(class_profile(o("w^100000"))) == MAX_PROFILE_LEVELS
    for text in ("w^100000 + 1", "w^100001", "w^99999999999999999999", "w^" + "9" * 4300 + "*3 + w"):
        start = time.perf_counter()
        with pytest.raises(BoundExceededError, match="more rank levels than the cap of 100000"):
            class_profile(o(text))
        assert time.perf_counter() - start < 0.1, text
    # the infinite profile is refused first, whatever its size
    with pytest.raises(UnrepresentableProfileError):
        class_profile(o("w^(w^2) + w^99999999999999999999"))


def test_profile_errors_keep_their_class_when_gamma_cannot_be_printed():
    # a sum of two 4300-digit literals parses, but its coefficient is too long to print
    nines = "9" * 4300
    with pytest.raises(BoundExceededError) as bound:
        class_profile(o(f"w^({nines} + {nines})"))
    assert str(bound.value) == "[0, gamma) has more rank levels than the cap of 100000 on listing them"
    for call in (class_profile, profile_runs):
        with pytest.raises(UnrepresentableProfileError) as unlisted:
            call(o(f"w^(w + {nines} + {nines})"))
        assert str(unlisted.value) == (
            "[0, gamma) has infinitely many rank levels; profiles are listable only for gamma < w^w"
        )
    # a printable gamma is named as before
    with pytest.raises(BoundExceededError, match=r"^\[0, w\^100001\) has more rank levels"):
        class_profile(o("w^100001"))
    with pytest.raises(UnrepresentableProfileError, match=r"^\[0, w\^\(w \+ 1\)\) has infinitely"):
        class_profile(o("w^(w + 1)"))


def test_classify_idempotence_randomised():
    rng = random.Random(22)
    for _ in range(300):
        gamma = random_ordinal(rng)
        can = canonical(gamma)
        assert canonical(can) == can
        assert classify(can) == classify(gamma)


def test_entry_points_refuse_non_ordinals():
    assert classify(3) == classify(parse("3"))
    for bad in ("w", 1.5, True, -1):
        for call in (
            lambda: classify(bad),
            lambda: canonical(bad),
            lambda: homeomorphic(bad, 1),
            lambda: compactify(bad),
            lambda: point_rank(bad, 3),
            lambda: point_rank(0, bad),
            lambda: derived_order_type(bad, 0),
            lambda: derived_order_type(3, bad),
            lambda: class_profile(bad),
        ):
            with pytest.raises(DomainError):
                call()
