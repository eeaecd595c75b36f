"""Classification of ordinal spaces up to homeomorphism and their rank data.

Every ordinal space falls into one of four families: finite discrete
spaces, compact infinite spaces omega^alpha * k + 1, pure limits
omega^alpha * k, and mixed limits omega^alpha * k + omega^beta with
0 < beta < alpha.  The family plus its parameters is a complete
homeomorphism invariant, and both are read off the Cantor normal form.

Rank data for the space [0, gamma): the rank of a nonzero point is the
smallest exponent of its CNF, the derived subspaces have order types
given by dividing gamma by powers of omega, and the rank levels form at
most two runs read off the leading term.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BoundExceededError, OutOfSpaceError, UnrepresentableProfileError
from .ordinal import ONE, ZERO, Ordinal, add, as_ordinal, divide_by_power, omega_power
from .ordinal import format_natural

__all__ = [
    "Family",
    "SpaceClass",
    "ALEPH0",
    "Size",
    "classify",
    "canonical",
    "homeomorphic",
    "compactify",
    "point_rank",
    "derived_order_type",
    "profile_runs",
    "class_profile",
    "MAX_PROFILE_LEVELS",
]

#: The most rank levels ``class_profile`` lists; checked before any is built.
MAX_PROFILE_LEVELS = 100_000


class Family(Enum):
    FINITE = "Finite"
    COMPACT_INFINITE = "CompactInfinite"
    LIMIT_PURE = "LimitPure"
    LIMIT_MIXED = "LimitMixed"


class _Aleph0:
    """Cardinality token for countably infinite rank levels."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "aleph0"


ALEPH0 = _Aleph0()

#: A level size: a natural number or ALEPH0.
Size = "int | _Aleph0"


@dataclass(frozen=True)
class SpaceClass:
    """A homeomorphism class of ordinal spaces: family plus parameters."""

    family: Family
    k: int
    alpha: Ordinal | None = None
    beta: Ordinal | None = None

    def __post_init__(self):
        if self.family is Family.FINITE:
            if self.k < 0 or self.alpha is not None or self.beta is not None:
                raise ValueError("Finite takes a single size parameter k >= 0")
            return
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.alpha is None or self.alpha.is_zero:
            raise ValueError("alpha must be a nonzero ordinal")
        if self.family is Family.LIMIT_MIXED:
            if self.beta is None or self.beta.is_zero or not self.beta < self.alpha:
                raise ValueError("LimitMixed requires 0 < beta < alpha")
        elif self.beta is not None:
            raise ValueError(f"{self.family.value} takes no beta parameter")

    def canonical_ordinal(self) -> Ordinal:
        """The canonical representative: k, w^a*k+1, w^a*k or w^a*k+w^b."""
        if self.family is Family.FINITE:
            return Ordinal.from_int(self.k)
        lead = omega_power(self.alpha, self.k)
        if self.family is Family.COMPACT_INFINITE:
            return add(lead, ONE)
        if self.family is Family.LIMIT_PURE:
            return lead
        return add(lead, omega_power(self.beta))

    def __str__(self):
        if self.family is Family.FINITE:
            return f"Finite({format_natural(self.k)})"
        if self.family is Family.LIMIT_MIXED:
            return f"LimitMixed(alpha={self.alpha}, k={format_natural(self.k)}, beta={self.beta})"
        return f"{self.family.value}(alpha={self.alpha}, k={format_natural(self.k)})"


def classify(gamma: Ordinal | int) -> SpaceClass:
    """The homeomorphism class of the ordinal space gamma = [0, gamma)."""
    gamma = as_ordinal(gamma)
    if gamma.is_finite:
        return SpaceClass(Family.FINITE, int(gamma))
    alpha, k = gamma.terms[0]
    if gamma.is_successor:
        return SpaceClass(Family.COMPACT_INFINITE, k, alpha)
    if len(gamma.terms) == 1:
        return SpaceClass(Family.LIMIT_PURE, k, alpha)
    return SpaceClass(Family.LIMIT_MIXED, k, alpha, gamma.smallest_exponent)


def canonical(gamma: Ordinal | int) -> Ordinal:
    """The canonical ordinal homeomorphic to gamma; idempotent."""
    return classify(gamma).canonical_ordinal()


def homeomorphic(g1: Ordinal | int, g2: Ordinal | int) -> bool:
    return classify(g1) == classify(g2)


def compactify(gamma: Ordinal | int) -> Ordinal:
    """gamma + 1 for a limit, gamma itself when already compact."""
    gamma = as_ordinal(gamma)
    return add(gamma, ONE) if gamma.is_limit else gamma


def point_rank(x: Ordinal | int, gamma: Ordinal | int) -> Ordinal:
    """Cantor-Bendixson rank of the point x in the space [0, gamma)."""
    x, gamma = as_ordinal(x), as_ordinal(gamma)
    if not x < gamma:
        raise OutOfSpaceError(f"{x} is not a point of the space [0, {gamma})")
    if x.is_zero:
        return ZERO
    return x.smallest_exponent


def derived_order_type(gamma: Ordinal | int, beta: Ordinal | int) -> Ordinal:
    """Order type of the beta-th derived subspace of [0, gamma).

    Writing gamma = omega^beta * q + r, the points of rank >= beta are the
    nonzero multiples of omega^beta, an interval [1, q] (when r > 0) or
    [1, q) (when r = 0) in the multiplier.
    """
    gamma, beta = as_ordinal(gamma), as_ordinal(beta)
    if beta.is_zero:
        return gamma
    q, r = divide_by_power(gamma, beta)
    if q.is_zero:
        return ZERO
    if not r.is_zero:
        # closed interval [1, q]
        return q if q.is_finite else add(q, ONE)
    # half-open interval [1, q)
    return Ordinal.from_int(int(q) - 1) if q.is_finite else q


def profile_runs(gamma: Ordinal | int) -> list[tuple[int, int, "int | _Aleph0"]]:
    """The rank levels of [0, gamma) as runs (first rank, number of levels,
    size of each), in O(terms).

    Writing gamma = omega^a * k + rho with rho < omega^a and a >= 1, ranks
    0 .. a-1 each hold aleph0 points and rank a holds k points, or k - 1
    when rho = 0 (and is left out when that is 0); a finite gamma = n is
    one level of n points.  Runs exist only for finite a (gamma <
    omega^omega); beyond that an UnrepresentableProfileError is raised.
    """
    gamma = as_ordinal(gamma)
    if gamma.is_zero:
        return []
    lead, k = gamma.terms[0]
    if not lead.is_finite:
        raise UnrepresentableProfileError(
            f"[0, {gamma}) has infinitely many rank levels; "
            "profiles are listable only for gamma < w^w"
        )
    a = int(lead)
    if a == 0:
        return [(0, 1, k)]
    top = k if len(gamma.terms) > 1 else k - 1
    return [(0, a, ALEPH0), (a, 1, top)] if top else [(0, a, ALEPH0)]


def class_profile(gamma: Ordinal | int) -> list[tuple[Ordinal, "int | _Aleph0"]]:
    """Sizes of the rank levels of [0, gamma), one entry per nonempty level:
    the expansion of ``profile_runs``.

    Levels are listed only for spaces of finite Cantor-Bendixson rank
    (gamma < omega^omega); beyond that the list would be infinite and an
    UnrepresentableProfileError is raised.  A space with more than
    ``MAX_PROFILE_LEVELS`` levels raises BoundExceededError before any
    level is built.
    """
    runs = profile_runs(gamma)
    if sum(count for _, count, _ in runs) > MAX_PROFILE_LEVELS:
        raise BoundExceededError(
            f"[0, {as_ordinal(gamma)}) has more rank levels than the cap of "
            f"{MAX_PROFILE_LEVELS} on listing them"
        )
    return [
        (Ordinal.from_int(rank), size)
        for first, count, size in runs
        for rank in range(first, first + count)
    ]
