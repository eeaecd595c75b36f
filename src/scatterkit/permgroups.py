"""Permutation groups held as stabiliser chains.

A permutation is a tuple of images over the ground order.  A stabiliser
chain on the base 0, 1, ..., n-1 is a list of (b, orbit) pairs, one for
each base point b that some element of the pointwise stabiliser G_(0..b-1)
moves: orbit maps each point j of b's orbit under that stabiliser to a
transversal element, one fixing 0..b-1 and sending b to j (Sims 1970;
Seress, Permutation Group Algorithms, 2003, ch. 4).  The identity stands
for b itself.  |G| is the product of the orbit sizes, membership is
sifting, and with this base the transversal tree lists the elements in
lex order.

Groups are built only as chains, from generators by Schreier-Sims or
from a chain the homeomorphism search built; there is no constructor from
an element set, which would have to trust the set to be closed.
"""

from __future__ import annotations

import functools
from math import prod
from operator import itemgetter

from .errors import BoundExceededError

__all__ = ["PermutationGroup", "MAX_ELEMENTS", "by_order_then_lex"]

#: Cap on listing a group's elements, checked against its order first.
MAX_ELEMENTS = 1_000_000


class PermutationGroup:
    """A concrete permutation group on named points, held as its
    stabiliser chain on the base of the point order.

    Build one with ``from_generators``, ``symmetric``, ``trivial`` or
    ``pointwise_stabiliser``.  Order, membership, equality, hashing and
    normality never list the elements.  The generators are the lex-first
    ones, computed when first read, so they depend only on the group.  The
    elements are walked from the chain, in lex order, each time they are
    asked for; nothing else is kept beside the chain.
    """

    @classmethod
    def _from_chain(cls, ground, chain) -> PermutationGroup:
        group = cls.__new__(cls)
        group.ground = tuple(ground)
        group._chain = chain
        group._generators = None
        return group

    @classmethod
    def from_generators(cls, ground, generators) -> PermutationGroup:
        ground = tuple(ground)
        gens = tuple(tuple(g) for g in generators)
        return cls._from_chain(ground, _schreier_sims(len(ground), gens))

    @classmethod
    def symmetric(cls, ground) -> PermutationGroup:
        """Written as its chain: level k sends k to each j >= k by the
        transposition (k j)."""
        ground = tuple(ground)
        n = len(ground)
        identity = tuple(range(n))
        chain = []
        for k in range(n - 1):
            orbit = {k: identity}
            for j in range(k + 1, n):
                swap = list(identity)
                swap[k], swap[j] = j, k
                orbit[j] = tuple(swap)
            chain.append((k, orbit))
        return cls._from_chain(ground, chain)

    @classmethod
    def trivial(cls, ground) -> PermutationGroup:
        return cls._from_chain(ground, [])

    @property
    def order(self) -> int:
        return prod(len(orbit) for _, orbit in self._chain)

    @property
    def elements(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self._lex_elements())

    def sorted_elements(self) -> list[tuple[int, ...]]:
        return list(self._lex_elements())

    def _lex_elements(self):
        """A lazy walk of every element in lex order, refused up front when
        the order is above ``MAX_ELEMENTS``."""
        order = self.order
        if order > MAX_ELEMENTS:
            raise BoundExceededError(
                f"the group has {order} elements, above the cap of {MAX_ELEMENTS} "
                "on listing them"
            )
        levels = [[(j, itemgetter(*u)) for j, u in orbit.items()] for _, orbit in self._chain]
        return _walk(levels, 0, self.identity)

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        if self._generators is None:
            self._generators = tuple(_lex_generators(self._chain, self.identity))
        return self._generators

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(range(len(self.ground)))

    def __contains__(self, perm) -> bool:
        return _sift(self._chain, tuple(perm)) == self.identity

    def __eq__(self, other):
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        # of two finite groups of one order, each holds the other if one does
        return (
            self.ground == other.ground
            and self.order == other.order
            and all(g in other for g in self.generators)
        )

    def __hash__(self):
        # The lex-first generators (cached) hold only ints and depend only on
        # the group, so the hash does too and is the same in every run.
        return hash(self.generators)

    def as_mapping(self, perm) -> dict[str, str]:
        return {self.ground[i]: self.ground[j] for i, j in enumerate(perm)}

    def cycle_string(self, perm) -> str:
        seen, parts = set(), []
        for i in range(len(perm)):
            if i in seen or perm[i] == i:
                seen.add(i)
                continue
            cycle, j = [], i
            while j not in seen:
                seen.add(j)
                cycle.append(self.ground[j])
                j = perm[j]
            parts.append("(" + " ".join(cycle) + ")")
        return "".join(parts) if parts else "id"

    def pointwise_stabiliser(self, points) -> PermutationGroup:
        """The subgroup G_(P) fixing each of the given point indices P,
        read off the tail of one chain (Seress, Permutation Group
        Algorithms, 2003, 4.1).

        Relabel so that P comes first, sorted, then the other points in
        increasing order, and build the chain of the relabelled group.  Past
        P, its level k acts in the stabiliser of P and of every point below
        b = back[k], the point that label k stands for, which is G_(P)'s
        level b on the natural base; mapped back, its transversal elements
        are that level's.  When P is 0..k-1 the relabelling is the
        identity, and the tail of this group's own chain is read.
        """
        n = len(self.ground)
        fixed = set(points)
        back = (*sorted(fixed), *(i for i in range(n) if i not in fixed))  # new label -> old
        chain = self._chain
        if back != self.identity:
            to = _inverse(back)
            relabelled = [_compose(to, _compose(g, back)) for g in self.generators]
            chain = [
                (back[k], {back[j]: _compose(back, _compose(u, to)) for j, u in orbit.items()})
                for k, orbit in _schreier_sims(n, relabelled)
            ]
        tail = [(b, orbit) for b, orbit in chain if b not in fixed]
        return PermutationGroup._from_chain(self.ground, tail)

    def is_normal(self, sub: PermutationGroup) -> bool:
        """Whether each generator g of self normalises sub.  Conjugation by
        g is an automorphism, so it is enough that g h g^-1 sifts through
        sub's chain for each generator h of sub (Holt, Eick & O'Brien,
        Handbook of Computational Group Theory, 2005, 3.3); no element is
        listed."""
        if sub.ground != self.ground:
            raise ValueError("subgroup on a different ground set")
        for g in self.generators:
            g_inv = _inverse(g)
            for h in sub.generators:
                if _compose(g, _compose(h, g_inv)) not in sub:
                    return False
        return True

    def __repr__(self):
        return f"PermutationGroup(order={self.order}, ground={list(self.ground)!r})"


def _compare(g, h):
    """By order, then by the lex listings, compared as far as their first
    difference, one coset of a shared stabiliser at a time.

    Let S be the stabiliser the two chains share at their deepest levels
    (``_shared_tail``).  Each listing is the left cosets c S, each sorted,
    one after another in the order of their least elements, and distinct
    cosets are disjoint; so the listings first differ where the least
    elements of their cosets first do.  Each listing begins with the cosets
    in its own stabiliser one level above S, and those stabilisers differ,
    so that happens within n + 1 cosets and no cap on listing is needed.
    """
    if g.order != h.order:
        return g.order - h.order
    shared = _shared_tail(g._chain, h._chain, g.identity)
    leasts = (_coset_leasts(chain, len(chain) - shared, g.identity) for chain in (g._chain, h._chain))
    for a, b in zip(*leasts):
        if a != b:
            return -1 if a < b else 1
    return 0


def _shared_tail(chain, other, identity):
    """How many of the deepest levels of the two chains make the same group:
    levels on the same base points, with the same orbits, whose transversal
    elements in ``other`` sift through ``chain``'s levels from there on.
    The groups of the deeper levels are already equal, so this shows the
    one from ``other`` lies in the one from ``chain``, with the same order."""
    shared = 0
    for (b, orbit), (c, theirs) in zip(reversed(chain), reversed(other)):
        tail = chain[len(chain) - shared - 1:]
        if b != c or orbit.keys() != theirs.keys():
            break
        if any(_sift(tail, u) != identity for u in theirs.values()):
            break
        shared += 1
    return shared


def _coset_leasts(chain, cut, identity):
    """The least element of each left coset c S, in lex order, where S is
    the group of the chain's levels from ``cut`` on and the walk over the
    levels above gives the representatives c."""
    levels = [[(j, itemgetter(*u)) for j, u in orbit.items()] for _, orbit in chain[:cut]]
    for c in _walk(levels, 0, identity):
        yield _least_below(c, chain[cut:])


def _least_below(c, levels):
    """The lex-least of the elements below node c of the walk over
    ``levels``: at each level, the child with the least image."""
    for _, orbit in levels:
        c = _compose(c, orbit[min(orbit, key=c.__getitem__)])
    return c


#: Sort key ordering groups by order, then by lex listing.  It is not
#: ``__lt__``, since ``<`` on groups would read as "subgroup".
by_order_then_lex = functools.cmp_to_key(_compare)


def _compose(g, h):
    """Apply h first, then g."""
    return tuple(map(g.__getitem__, h))


def _inverse(g):
    inv = [0] * len(g)
    for i, j in enumerate(g):
        inv[j] = i
    return tuple(inv)


def _grow_orbit(orbit, gens):
    """Close ``orbit`` (point -> transversal element) under ``gens`` in place."""
    frontier = list(orbit)
    for p in frontier:
        u = orbit[p]
        for g in gens:
            q = g[p]
            if q not in orbit:
                orbit[q] = _compose(g, u)
                frontier.append(q)
    return orbit


def _sift(chain, perm):
    """Divide perm on the right, level by level: at base point b, perm sends
    some point i to b, and composing with the transversal element u sending
    b to i fixes b and the earlier base points.  The residue is the identity
    iff perm lies in the group."""
    for b, orbit in chain:
        u = orbit.get(perm.index(b))
        if u is None:
            return perm
        perm = _compose(perm, u)
    return perm


def _walk(levels, k, c):
    """Yield the elements below node c of level k in lex order.

    ``levels[k]`` pairs each orbit point j with ``itemgetter(*u)`` for its
    transversal element u, which maps c to the composite of c and u.  With
    the base 0..n-1 the elements below a node share their images of the
    earlier base points, so visiting the children of c by increasing c(j)
    lists them in lex order.
    """
    if k == len(levels):
        yield c
        return
    for _, compose in sorted((c[j], g) for j, g in levels[k]):
        yield from _walk(levels, k + 1, compose(c))


def _lex_generators(chain, identity):
    """Each generator is the lex-first element outside the group H the
    earlier ones generate, found by a search of the coset tree.

    Write G^k for the pointwise stabiliser of the base points before b_k,
    the group chain level k acts in.  Levels are finished from the deepest
    up, so when level k is reached H is G^(k+1) and afterwards lies between
    G^(k+1) and G^k.  Every element outside G^k moves some point below b_k
    to a larger one, so it comes after all of G^k in lex order; and the
    members of G^k sending b_k to j form one coset of G^(k+1), inside H
    iff j is in H's orbit of b_k.  So the lex-first element outside H sends
    b_k to the least point of G's orbit not in H's, and below that takes,
    level by level, the child with the least image.  H holds all of
    G^(k+1), so its own chain below level k is G's, and its orbit of b_k
    under the generators so far is the rest of it.
    """
    gens = []
    for k in range(len(chain) - 1, -1, -1):
        b, orbit = chain[k]
        reached = _grow_orbit({b: identity}, gens)
        while len(reached) < len(orbit):
            c = _least_below(orbit[min(j for j in orbit if j not in reached)], chain[k + 1:])
            gens.append(c)
            _grow_orbit(reached, gens)
    return gens


def _schreier_sims(n, generators):
    """The chain of <generators> on the base 0..n-1, by the incremental
    Schreier-Sims method of Knuth, Efficient representation of perm groups
    (1991).

    Level k's orbit holds elements of <strong[k]> fixing 0..k-1, one for
    each image of k.  Adding a generator to level k ("add") maps every
    orbit element of k through it; a product with a new image of k joins
    the orbit and is mapped through every generator of k ("image");
    otherwise its Schreier generator, which fixes k, is added to level k+1
    unless it already sifts through the deeper levels.  At the end each
    level's orbit is a transversal of <strong[k]> over <strong[k+1]>.
    Each orbit element's inverse is taken once, when it joins the orbit,
    and kept for the Schreier generators' residues.
    """
    identity = tuple(range(n))
    chain = [(k, {k: identity}) for k in range(n)]
    inverses = [{k: identity} for k in range(n)]
    strong = [[] for _ in range(n)]
    todo = [("add", 0, g) for g in reversed(generators)]
    while todo:
        step, k, g = todo.pop()
        if step == "add" and _sift(chain[k:], g) == identity:
            continue
        orbit = chain[k][1]
        if step == "add":
            strong[k].append(g)
            todo.extend(("image", k, _compose(g, u)) for u in orbit.values())
        elif g[k] not in orbit:
            orbit[g[k]] = g
            inverses[k][g[k]] = _inverse(g)
            todo.extend(("image", k, _compose(s, g)) for s in strong[k])
        else:
            residue = _compose(inverses[k][g[k]], g)
            if residue != identity:
                todo.append(("add", k + 1, residue))
    return [(k, orbit) for k, orbit in chain if len(orbit) > 1]
