"""Finite checks of the linear-order dynamics.

LO(X) is the set of linear orders on X, acted on by permutations via
x (g<) y iff g^-1(x) < g^-1(y); on a ranked sequence this is plain
relabelling.  For finite X the action is simply transitive, and for a
fully transitive finite space the homeomorphism group acts simply
transitively on the product of the LO spaces of its similarity classes,
matching the flow of the (compact, because finite) group.

Simple transitivity is decided by the orbit map g -> g.x0 at one base
point x0, over all elements of the group: the action is simply transitive
iff |G| = |X|, the |G| images are pairwise distinct and every image lies
in X.  Distinct images make the stabiliser of x0 trivial; stabilisers
along an orbit are conjugate (Stab(g.x0) = g Stab(x0) g^-1), so with a
single orbit every stabiliser is trivial.  This costs O(|G| k) for points
of size k instead of tabulating all |G| |X| (source, target) pairs.
Minimality of the product flow is checked apart from it, by a
breadth-first orbit under the group's generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BoundExceededError, DomainError

if TYPE_CHECKING:
    from .finite import FiniteSpace

__all__ = [
    "lo_space",
    "act",
    "check_simply_transitive",
    "product_flow_check",
    "FlowReport",
]

DEFAULT_MAX_ENUMERATION = 8
DEFAULT_MAX_FLOW_SIZE = 40320


def lo_space(n: int, max_n: int = DEFAULT_MAX_ENUMERATION) -> list[tuple[int, ...]]:
    """All linear orders on {1..n}, each as its increasing sequence."""
    if n < 0:
        raise DomainError(f"the number of elements must be non-negative, got {n}")
    if n > max_n:
        raise BoundExceededError(f"LO enumeration is limited to {max_n} elements")
    return list(itertools.permutations(range(1, n + 1)))


def act(g, order):
    """Translate a ranked sequence by a permutation (a mapping or a dict)."""
    if isinstance(g, dict):
        missing = [x for x in order if x not in g]
        if missing:
            raise DomainError(f"permutation does not cover {missing[0]!r}")
        return tuple(g[x] for x in order)
    if len(g) != len(order):
        raise DomainError("permutation and order have different ground sets")
    return tuple(g[x - 1] for x in order)


def _acts_simply_transitively(elements, points, move) -> bool:
    """Does the group with these elements act simply transitively on points?

    ``move(g, x)`` is the action.  With x0 = points[0], the orbit map
    g -> move(g, x0) is a bijection onto the points exactly when |G| = |X|,
    the images are pairwise distinct and every image is a point; a free
    orbit of x0 that is all of X gives trivial stabilisers everywhere,
    since stabilisers along an orbit are conjugate.
    """
    if len(elements) != len(points):
        return False
    base = points[0]
    images = {move(g, base) for g in elements}
    # |images| = |X| = |G|: the orbit map is injective
    return len(images) == len(points) and images.issubset(points)


def check_simply_transitive(n: int, max_n: int = DEFAULT_MAX_ENUMERATION) -> bool:
    """Exactly one permutation carries any linear order to any other.

    Decided by the orbit map of the first order over all n! permutations
    (see the module docstring): n! distinct images, each a linear order.
    """
    # each order on {1..n} is also the permutation i -> order[i-1]
    orders = lo_space(n, max_n=max_n)
    return _acts_simply_transitively(orders, orders, act)


@dataclass(frozen=True)
class FlowReport:
    flow_size: int
    group_order: int
    simply_transitive: bool
    minimal: bool
    factor_sizes: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.simply_transitive and self.minimal


def product_flow_check(space: FiniteSpace) -> FlowReport:
    """Let the homeomorphism group act factor-wise on the product of the
    LO spaces of the similarity classes and verify the action is simply
    transitive and every orbit is the whole product.

    Simple transitivity uses the orbit map of one point over all |G|
    elements (module docstring); minimality is a separate breadth-first
    orbit of the same point under the generators only.
    """
    from .finite import is_fully_transitive  # only the space check needs finite

    report = is_fully_transitive(space)
    if not report.holds:
        raise DomainError(
            "product flow check requires a fully transitive space; "
            f"counterexample pair {report.failure}"
        )
    group, part = report.group, report.partition
    blocks = part.blocks
    flow_size = report.expected_order
    if flow_size > DEFAULT_MAX_FLOW_SIZE:
        raise BoundExceededError(
            f"flow has {flow_size} points, above the bound of {DEFAULT_MAX_FLOW_SIZE}"
        )

    block_orders = [list(itertools.permutations(block)) for block in blocks]
    flow = list(itertools.product(*block_orders))

    def move(mapping, pt):
        return tuple(act(mapping, order) for order in pt)

    mappings = [group.as_mapping(perm) for perm in group.elements]
    simply = _acts_simply_transitively(mappings, flow, move)
    orbit = {flow[0]}
    frontier = [flow[0]]
    generators = [group.as_mapping(perm) for perm in group.generators]
    while frontier:
        pt = frontier.pop()
        for mapping in generators:
            target = move(mapping, pt)
            if target not in orbit:
                orbit.add(target)
                frontier.append(target)
    minimal = len(orbit) == len(flow)
    return FlowReport(
        flow_size=len(flow),
        group_order=group.order,
        simply_transitive=simply,
        minimal=minimal,
        factor_sizes=tuple(len(b) for b in blocks),
    )
