"""Symbolic descriptors of homeomorphism groups of ordinal spaces.

The four families are G(alpha, k) for compact spaces [0, w^alpha * k],
H(alpha, k) for the pure limits w^alpha * k, I(alpha, k, beta) for the
mixed limits w^alpha * k + w^beta, and Sym(k) for finite spaces.  Two
invariants of the topological group are computable from the descriptor:
the largest finite discrete quotient (k! or (k-1)!) and the ordinal
epsilon measuring the chain of infinite-index closed normal subgroups.

``groups_isomorphic`` is a transcription of the published decision
table: Yes and No answers carry the theorem they quote or the invariant
that separates the groups, and the pairs left open (Questions 31 to 33)
answer Unknown with their citation.  The oracle never tries to settle
an open question.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import factorial
from typing import TYPE_CHECKING

from .classify import Family, class_profile, classify
from .errors import DomainError
from .ordinal import MAX_DIGITS, ZERO, Ordinal, format_natural

if TYPE_CHECKING:
    from .finite import FiniteSpace

__all__ = [
    "GroupFamily",
    "GroupDescriptor",
    "GroupInvariants",
    "IsoAnswer",
    "Decision",
    "UmfDescriptor",
    "descriptor_of",
    "invariants",
    "groups_isomorphic",
    "umf_descriptor",
    "CITE_THM14",
    "CITE_THM15",
    "CITE_THM27",
    "CITE_THM29",
    "CITE_COR23",
    "CITE_REM16",
    "CITE_Q31",
    "CITE_Q32",
    "CITE_Q33",
]

CITE_THM14 = "Theorem 14 (fully transitive scattered: amenable, Roelcke-precompact)"
CITE_THM15 = "Theorem 15 (universal minimal flow = product of LO over similarity classes)"
CITE_THM27 = "Theorem 27 (classification of ordinal spaces)"
CITE_THM29 = "Theorem 29 (alpha and k are topological-group invariants)"
CITE_COR23 = "Corollary 23 (locally compact scattered: amenable, Roelcke-precompact, UMF)"
CITE_REM16 = "Remark 16 (metrisability of the universal minimal flow)"
CITE_Q31 = "Question 31 (open: H(alpha,1) vs H(alpha,2))"
CITE_Q32 = "Question 32 (open: G(alpha,k) vs H(alpha,k+1))"
CITE_Q33 = "Question 33 (open: I(alpha,k,beta) vs I/G/H relatives)"
CITE_H1G1 = "noncompact classification: H(alpha,1) = G(alpha,1) via one-point compactification"


class GroupFamily(Enum):
    G = "G"
    H = "H"
    I = "I"
    SYM_FINITE = "Sym"


class Decision(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class GroupDescriptor:
    family: GroupFamily
    k: int
    alpha: Ordinal | None = None
    beta: Ordinal | None = None

    def __post_init__(self):
        if self.family is GroupFamily.SYM_FINITE:
            if self.k < 0 or self.alpha is not None or self.beta is not None:
                raise ValueError("Sym takes a single parameter k >= 0")
            return
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.alpha is None or self.alpha.is_zero:
            raise ValueError("alpha must be a nonzero ordinal")
        if self.family is GroupFamily.I:
            if self.beta is None or self.beta.is_zero or not self.beta < self.alpha:
                raise ValueError("I requires 0 < beta < alpha")
        elif self.beta is not None:
            raise ValueError(f"{self.family.value} takes no beta parameter")

    @property
    def is_finite_group(self) -> bool:
        return self.family is GroupFamily.SYM_FINITE

    def __str__(self):
        if self.family is GroupFamily.SYM_FINITE:
            return f"Sym({format_natural(self.k)})"
        if self.family is GroupFamily.I:
            return f"I({self.alpha}, {format_natural(self.k)}, {self.beta})"
        return f"{self.family.value}({self.alpha}, {format_natural(self.k)})"


def G(alpha: Ordinal, k: int) -> GroupDescriptor:
    return GroupDescriptor(GroupFamily.G, k, alpha)


def H(alpha: Ordinal, k: int) -> GroupDescriptor:
    return GroupDescriptor(GroupFamily.H, k, alpha)


def I(alpha: Ordinal, k: int, beta: Ordinal) -> GroupDescriptor:
    return GroupDescriptor(GroupFamily.I, k, alpha, beta)


def sym_finite(k: int) -> GroupDescriptor:
    return GroupDescriptor(GroupFamily.SYM_FINITE, k)


def descriptor_of(gamma: Ordinal | int) -> GroupDescriptor:
    """Descriptor of the homeomorphism group of the ordinal space gamma."""
    cls = classify(gamma)
    if cls.family is Family.FINITE:
        return sym_finite(cls.k)
    if cls.family is Family.COMPACT_INFINITE:
        return G(cls.alpha, cls.k)
    if cls.family is Family.LIMIT_PURE:
        return H(cls.alpha, cls.k)
    return I(cls.alpha, cls.k, cls.beta)


@dataclass(frozen=True)
class GroupInvariants:
    """Computable topological-group invariants of a descriptor."""

    max_finite_quotient: int
    epsilon: Ordinal
    note: str | None = None


def _quotient_k(d: GroupDescriptor) -> int:
    """The k of the largest finite quotient k!: the descriptor's k, or k - 1
    for family H."""
    return d.k - 1 if d.family is GroupFamily.H else d.k


def _same_factorial(k: int, m: int) -> bool:
    """Whether k! = m!, without computing either: 0! = 1! and the factorial
    is strictly increasing from 1 on."""
    return k == m or (k <= 1 and m <= 1)


def _printable_factorial(k: int) -> int:
    """k!, or DomainError when it has more than ``MAX_DIGITS`` digits.

    k! > 10^k for k >= 25, so a k past ``MAX_DIGITS`` is refused before
    k! is computed.
    """
    value = factorial(k) if k <= MAX_DIGITS else None
    # a value of at most 3 bits a digit is below 8^MAX_DIGITS, so below 10^MAX_DIGITS
    if value is None or value.bit_length() > 3 * MAX_DIGITS and value >= 10**MAX_DIGITS:
        raise DomainError(f"cannot print a factorial of more than {MAX_DIGITS} digits")
    return value


def invariants(d: GroupDescriptor) -> GroupInvariants:
    """The descriptor's invariants; DomainError when its largest finite
    quotient has too many digits to print."""
    quotient = _printable_factorial(_quotient_k(d))
    if d.family is GroupFamily.SYM_FINITE:
        return GroupInvariants(
            quotient,
            ZERO,
            note="finite group of order k!; the group is its own largest finite quotient",
        )
    return GroupInvariants(quotient, d.alpha)


@dataclass(frozen=True)
class IsoAnswer:
    decision: Decision
    justification: str

    def __str__(self):
        return f"{self.decision.value}: {self.justification}"


def groups_isomorphic(d1: GroupDescriptor, d2: GroupDescriptor) -> IsoAnswer:
    """Decide isomorphism of two descriptors from published statements only."""
    if d1 == d2:
        return IsoAnswer(Decision.YES, "identical descriptors")

    if {d1.family, d2.family} == {GroupFamily.G, GroupFamily.H}:
        g, h = (d1, d2) if d1.family is GroupFamily.G else (d2, d1)
        if g.k == 1 and h.k == 1 and g.alpha == h.alpha:
            return IsoAnswer(Decision.YES, CITE_H1G1)

    if d1.is_finite_group != d2.is_finite_group:
        return IsoAnswer(
            Decision.NO,
            "group cardinality: one group is finite, the other is infinite",
        )
    if d1.is_finite_group and d2.is_finite_group:
        if _same_factorial(d1.k, d2.k):
            return IsoAnswer(
                Decision.YES,
                "group cardinality: Sym(0) and Sym(1) are both the trivial group",
            )
        return IsoAnswer(
            Decision.NO,
            f"group cardinality: {format_natural(d1.k)}! differs from {format_natural(d2.k)}!",
        )

    if d1.family is GroupFamily.G and d2.family is GroupFamily.G:
        return IsoAnswer(Decision.NO, CITE_THM29)

    # both groups are infinite here, so epsilon is alpha
    if not _same_factorial(_quotient_k(d1), _quotient_k(d2)) or d1.alpha != d2.alpha:
        inv1, inv2 = invariants(d1), invariants(d2)
        return IsoAnswer(
            Decision.NO,
            "invariant mismatch: (max finite quotient, epsilon) = "
            f"({inv1.max_finite_quotient}, {inv1.epsilon}) vs "
            f"({inv2.max_finite_quotient}, {inv2.epsilon})",
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
        "undetermined: the computed invariants agree and no published statement "
        "decides this pair",
    )


@dataclass(frozen=True)
class UmfDescriptor:
    """Shape of the universal minimal flow: a product of LO factors.

    Each factor is the space of linear orders on one similarity class,
    labelled with its cardinality (a natural number or ALEPH0).
    """

    factors: tuple[tuple[str, object], ...]
    metrisable: bool
    amenable: bool
    roelcke_precompact: bool
    citations: tuple[str, ...]

    def factor_string(self) -> str:
        if not self.factors:
            return "trivial (empty product)"
        return " x ".join(f"LO({size})" for _, size in self.factors)


def umf_descriptor(source: Ordinal | int | FiniteSpace) -> UmfDescriptor:
    """Universal minimal flow of the homeomorphism group of the input space.

    Ordinal spaces are always fully transitive; a finite space must pass
    the full-transitivity check first.
    """
    is_space = not isinstance(source, (Ordinal, int))
    if is_space:  # only a non-ordinal input loads finite
        from .finite import FiniteSpace, is_fully_transitive

        is_space = isinstance(source, FiniteSpace)
    if is_space:
        report = is_fully_transitive(source)
        if not report.holds:
            raise DomainError(
                "universal minimal flow description requires a fully transitive space; "
                f"counterexample pair {report.failure}"
            )
        part = report.partition
        factors = tuple(
            (f"class of {block[0]} (rank {part.block_rank(block)})", len(block))
            for block in part.blocks
        )
        citations = (CITE_THM15, CITE_THM14)
    else:
        profile = class_profile(source)
        factors = tuple((f"rank {rank}", size) for rank, size in profile)
        citations = (CITE_THM15, CITE_COR23)
    return UmfDescriptor(
        factors=factors,
        # Remark 16: the flow is metrisable iff every class is countable and
        # only countably many are non-singletons; every factor here has a
        # natural or aleph_0 size and the factor list is finite
        metrisable=True,
        amenable=True,
        roelcke_precompact=True,
        citations=citations + (CITE_REM16,),
    )
