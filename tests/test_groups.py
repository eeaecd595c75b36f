import itertools
from math import factorial

import pytest

from scatterkit.classify import ALEPH0
from scatterkit.errors import DomainError, UnrepresentableProfileError
from scatterkit.finite import FiniteSpace
from scatterkit.groups import (
    CITE_H1G1,
    CITE_Q31,
    CITE_Q32,
    CITE_Q33,
    CITE_THM29,
    Decision,
    GroupFamily,
    IsoAnswer,
    G,
    H,
    I,
    descriptor_of,
    groups_isomorphic,
    invariants,
    sym_finite,
    umf_descriptor,
)
from scatterkit.ordinal import MAX_DIGITS, parse
from scatterkit.verify import POOL, discrete_space


def o(text):
    return parse(text)


def test_descriptor_of_examples():
    assert descriptor_of(o("w^2*3 + 1")) == G(o("2"), 3)
    assert descriptor_of(o("w*2")) == H(o("1"), 2)
    assert descriptor_of(o("w^3 + w")) == I(o("3"), 1, o("1"))
    assert descriptor_of(o("4")) == sym_finite(4)
    assert descriptor_of(o("w + w^2 + 1")) == G(o("2"), 1)


def test_descriptor_respects_canonical():
    for text in ("w^2*3 + w + 4", "w^(w) + w^2*2 + w*5", "w*7", "0"):
        gamma = o(text)
        from scatterkit.classify import canonical

        assert descriptor_of(gamma) == descriptor_of(canonical(gamma))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        I(o("2"), 1, o("2"))
    with pytest.raises(ValueError):
        H(o("0"), 1)
    with pytest.raises(ValueError):
        G(o("1"), 0)


def test_invariants_table():
    inv = invariants(G(o("w"), 3))
    assert (inv.max_finite_quotient, inv.epsilon) == (6, o("w"))
    inv = invariants(H(o("2"), 1))
    assert (inv.max_finite_quotient, inv.epsilon) == (1, o("2"))
    inv = invariants(I(o("3"), 2, o("1")))
    assert (inv.max_finite_quotient, inv.epsilon) == (2, o("3"))
    inv = invariants(sym_finite(4))
    assert (inv.max_finite_quotient, str(inv.epsilon)) == (24, "0")
    assert inv.note is not None


def test_oracle_yes_cases():
    assert groups_isomorphic(G(o("w"), 2), G(o("w"), 2)).decision is Decision.YES
    ans = groups_isomorphic(H(o("w"), 1), G(o("w"), 1))
    assert ans.decision is Decision.YES
    assert "compactification" in ans.justification
    assert groups_isomorphic(sym_finite(0), sym_finite(1)).decision is Decision.YES


def test_oracle_no_cases():
    ans = groups_isomorphic(G(o("w"), 2), G(o("w"), 3))
    assert ans.decision is Decision.NO
    assert "Theorem 29" in ans.justification
    ans = groups_isomorphic(G(o("w"), 2), sym_finite(2))
    assert ans.decision is Decision.NO
    assert "cardinality" in ans.justification
    ans = groups_isomorphic(H(o("w"), 2), H(o("w"), 3))
    assert ans.decision is Decision.NO
    ans = groups_isomorphic(H(o("w"), 2), H(o("w^2"), 2))
    assert ans.decision is Decision.NO
    assert groups_isomorphic(sym_finite(2), sym_finite(3)).decision is Decision.NO


def test_oracle_unknown_cases_with_citations():
    ans = groups_isomorphic(H(o("w"), 1), H(o("w"), 2))
    assert ans.decision is Decision.UNKNOWN and "Question 31" in ans.justification
    ans = groups_isomorphic(G(o("2"), 2), H(o("2"), 3))
    assert ans.decision is Decision.UNKNOWN and "Question 32" in ans.justification
    ans = groups_isomorphic(I(o("3"), 1, o("1")), I(o("3"), 1, o("2")))
    assert ans.decision is Decision.UNKNOWN and "Question 33" in ans.justification
    ans = groups_isomorphic(I(o("3"), 2, o("1")), G(o("3"), 2))
    assert ans.decision is Decision.UNKNOWN and "Question 33" in ans.justification
    ans = groups_isomorphic(I(o("3"), 2, o("2")), H(o("3"), 3))
    assert ans.decision is Decision.UNKNOWN and "Question 33" in ans.justification
    # equal invariants, no statement applies
    ans = groups_isomorphic(H(o("3"), 1), I(o("3"), 1, o("1")))
    assert ans.decision is Decision.UNKNOWN and "undetermined" in ans.justification


def test_oracle_beta_not_used_to_separate():
    # no invariant retrieves beta, so equal (alpha, k) I-pairs stay open
    for beta1, beta2 in itertools.combinations([o("1"), o("2"), o("w")], 2):
        ans = groups_isomorphic(I(o("w + 1"), 2, beta1), I(o("w + 1"), 2, beta2))
        assert ans.decision is Decision.UNKNOWN


def test_oracle_symmetry_and_consistency_on_grid():
    grid = []
    for alpha in POOL[:4]:
        for k in (1, 2):
            grid.append(G(alpha, k))
            grid.append(H(alpha, k))
            for beta in POOL[:4]:
                if beta < alpha:
                    grid.append(I(alpha, k, beta))
    grid.append(sym_finite(2))
    for d1, d2 in itertools.product(grid, repeat=2):
        ans = groups_isomorphic(d1, d2)
        back = groups_isomorphic(d2, d1)
        assert ans.decision is back.decision
        if ans.decision is Decision.YES:
            i1, i2 = invariants(d1), invariants(d2)
            assert (i1.max_finite_quotient, i1.epsilon) == (i2.max_finite_quotient, i2.epsilon)
        assert ans.justification


def _invariants_reference(d):
    """(max finite quotient, epsilon) straight from the definition."""
    if d.family is GroupFamily.SYM_FINITE:
        return factorial(d.k), o("0")
    return factorial(d.k - 1 if d.family is GroupFamily.H else d.k), d.alpha


def _groups_isomorphic_reference(d1, d2):
    """The decision table as it computed and compared the factorials."""
    if d1 == d2:
        return IsoAnswer(Decision.YES, "identical descriptors")
    if {d1.family, d2.family} == {GroupFamily.G, GroupFamily.H}:
        g, h = (d1, d2) if d1.family is GroupFamily.G else (d2, d1)
        if g.k == 1 and h.k == 1 and g.alpha == h.alpha:
            return IsoAnswer(Decision.YES, CITE_H1G1)
    if d1.is_finite_group != d2.is_finite_group:
        return IsoAnswer(Decision.NO, "group cardinality: one group is finite, the other is infinite")
    if d1.is_finite_group and d2.is_finite_group:
        if factorial(d1.k) == factorial(d2.k):
            return IsoAnswer(Decision.YES, "group cardinality: Sym(0) and Sym(1) are both the trivial group")
        return IsoAnswer(Decision.NO, f"group cardinality: {d1.k}! differs from {d2.k}!")
    if d1.family is GroupFamily.G and d2.family is GroupFamily.G:
        return IsoAnswer(Decision.NO, CITE_THM29)
    inv1, inv2 = _invariants_reference(d1), _invariants_reference(d2)
    if inv1 != inv2:
        return IsoAnswer(
            Decision.NO,
            "invariant mismatch: (max finite quotient, epsilon) = "
            f"({inv1[0]}, {inv1[1]}) vs ({inv2[0]}, {inv2[1]})",
        )
    if d1.family is GroupFamily.H and d2.family is GroupFamily.H:
        if d1.k >= 2 and d2.k >= 2:
            return IsoAnswer(
                Decision.NO,
                "no isomorphisms within the H family once k >= 2 "
                "(the invariants (k-1)! and epsilon determine alpha and k)",
            )
        if {d1.k, d2.k} == {1, 2} and d1.alpha == d2.alpha:
            return IsoAnswer(Decision.UNKNOWN, CITE_Q31)
    if {d1.family, d2.family} == {GroupFamily.G, GroupFamily.H}:
        g, h = (d1, d2) if d1.family is GroupFamily.G else (d2, d1)
        if h.k == g.k + 1 and g.alpha == h.alpha:
            return IsoAnswer(Decision.UNKNOWN, CITE_Q32)
    if d1.family is GroupFamily.I and d2.family is GroupFamily.I:
        if (d1.alpha, d1.k) == (d2.alpha, d2.k):
            return IsoAnswer(Decision.UNKNOWN, CITE_Q33)
    if GroupFamily.I in (d1.family, d2.family):
        i_desc, other = (d1, d2) if d1.family is GroupFamily.I else (d2, d1)
        if other.family is GroupFamily.G and (other.alpha, other.k) == (i_desc.alpha, i_desc.k):
            return IsoAnswer(Decision.UNKNOWN, CITE_Q33)
        if other.family is GroupFamily.H and other.alpha == i_desc.alpha and other.k == i_desc.k + 1:
            return IsoAnswer(Decision.UNKNOWN, CITE_Q33)
    return IsoAnswer(
        Decision.UNKNOWN,
        "undetermined: the computed invariants agree and no published statement decides this pair",
    )


def test_oracle_matches_the_factorial_reference_up_to_k_30():
    ks = range(1, 31)
    alphas = [o("1"), o("2"), o("w")]
    descriptors = [sym_finite(k) for k in range(31)]
    descriptors += [family(alpha, k) for family in (G, H) for alpha in alphas for k in ks]
    descriptors += [I(o("2"), k, o("1")) for k in ks]
    descriptors += [I(o("w"), k, beta) for k in ks for beta in alphas[:2]]
    for d1, d2 in itertools.product(descriptors, repeat=2):
        assert groups_isomorphic(d1, d2) == _groups_isomorphic_reference(d1, d2), (d1, d2)
    for d in descriptors:
        inv = invariants(d)
        assert (inv.max_finite_quotient, inv.epsilon) == _invariants_reference(d)


def test_oracle_never_computes_the_factorials_it_compares():
    big = 10**20
    answer = groups_isomorphic(sym_finite(big), sym_finite(1700))
    assert answer == IsoAnswer(Decision.NO, f"group cardinality: {big}! differs from 1700!")
    answer = groups_isomorphic(sym_finite(10**7), sym_finite(10**7 + 1))
    assert answer.justification == "group cardinality: 10000000! differs from 10000001!"
    assert groups_isomorphic(G(o("1"), big), H(o("1"), big + 1)) == IsoAnswer(Decision.UNKNOWN, CITE_Q32)
    # a mismatch prints both quotients, so one too long to print is refused
    with pytest.raises(DomainError, match="more than 4300 digits"):
        groups_isomorphic(H(o("1"), 2 * big), H(o("1"), 2 * big + 1))


def test_invariants_refuse_a_quotient_too_long_to_print():
    assert MAX_DIGITS == 4300
    assert len(str(invariants(sym_finite(1558)).max_finite_quotient)) == 4300
    assert invariants(H(o("1"), 1559)).max_finite_quotient == factorial(1558)
    for d in (sym_finite(1559), G(o("1"), 1700), H(o("1"), 1560), sym_finite(10**20)):
        with pytest.raises(DomainError, match="cannot print a factorial of more than 4300 digits"):
            invariants(d)


def test_umf_descriptor_ordinal():
    umf = umf_descriptor(o("w^2*3 + 1"))
    assert [size for _, size in umf.factors] == [ALEPH0, ALEPH0, 3]
    assert umf.metrisable and umf.amenable and umf.roelcke_precompact
    assert any("Theorem 15" in c for c in umf.citations)
    assert umf.factor_string() == "LO(aleph0) x LO(aleph0) x LO(3)"


def test_umf_descriptor_matches_rank_count():
    for text in ("w + 1", "w^2", "w^3*2 + w + 5", "7"):
        gamma = o(text)
        from scatterkit.classify import class_profile

        assert len(umf_descriptor(gamma).factors) == len(class_profile(gamma))


def test_umf_descriptor_finite_space():
    umf = umf_descriptor(discrete_space(4))
    assert [size for _, size in umf.factors] == [4]
    assert umf.metrisable


def test_umf_descriptor_requires_full_transitivity():
    fans = FiniteSpace(
        ("a1", "a2", "c1", "b1", "b2", "b3", "c2"),
        {
            "a1": {"a1"},
            "a2": {"a2"},
            "c1": {"c1", "a1", "a2"},
            "b1": {"b1"},
            "b2": {"b2"},
            "b3": {"b3"},
            "c2": {"c2", "b1", "b2", "b3"},
        },
    )
    with pytest.raises(DomainError):
        umf_descriptor(fans)


def test_umf_descriptor_unrepresentable_for_infinite_rank():
    with pytest.raises(UnrepresentableProfileError):
        umf_descriptor(o("w^(w)"))
