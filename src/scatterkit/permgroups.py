"""Permutation groups held as stabiliser chains.

A permutation is a tuple of images over the ground order.  A stabiliser
chain on the base 0, 1, ..., n-1 is a list of (b, orbit) pairs, one for
each base point b that some element of the pointwise stabiliser G_(0..b-1)
moves: orbit maps each point j of b's orbit under that stabiliser to a
transversal element, one fixing 0..b-1 and sending b to j (Sims 1970;
Seress, Permutation Group Algorithms, 2003, ch. 4).  The identity stands
for b itself.  |G| is the product of the orbit sizes, membership is
sifting, and with this base the transversal tree lists the elements in
lex order.  Sifting divides by transversal elements, so their inverses
are kept beside the chain, one dict j -> u^-1 per level: a group builds
them at its first membership test, and Schreier-Sims keeps its own while
it grows the chain.

Groups are built only as chains, from generators by Schreier-Sims or
from a chain the homeomorphism search built; there is no constructor from
an element set, which would have to trust the set to be closed.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter

from .errors import BoundExceededError

__all__ = ["PermutationGroup", "MAX_ELEMENTS"]

#: Cap on listing a group's elements, checked against its order first.
MAX_ELEMENTS = 1_000_000


class PermutationGroup:
    """A concrete permutation group on named points, held as its
    stabiliser chain on the base of the point order.

    Build one with ``from_generators``, ``symmetric``, ``trivial`` or
    ``pointwise_stabiliser``.  Order, membership, equality, hashing and
    normality never list the elements.  The generators are the lex-first
    ones, computed when first read, so they depend only on the group.  The
    elements are listed from the chain, in lex order, when first asked for
    and kept.
    """

    @classmethod
    def _from_chain(cls, ground, chain) -> PermutationGroup:
        group = cls.__new__(cls)
        group.ground = tuple(ground)
        group._chain = chain
        group._inverses = None
        group._elements = group._sorted = group._generators = None
        return group

    @classmethod
    def from_generators(cls, ground, generators) -> PermutationGroup:
        ground = tuple(ground)
        gens = tuple(tuple(g) for g in generators)
        return cls._from_chain(ground, _schreier_sims(len(ground), gens))

    @classmethod
    def symmetric(cls, ground) -> PermutationGroup:
        """Generated by the adjacent transpositions."""
        ground = tuple(ground)
        n = len(ground)
        swaps = [(*range(i), i + 1, i, *range(i + 2, n)) for i in reversed(range(n - 1))]
        return cls.from_generators(ground, swaps)

    @classmethod
    def trivial(cls, ground) -> PermutationGroup:
        return cls._from_chain(ground, [])

    @property
    def order(self) -> int:
        return prod(len(orbit) for _, orbit in self._chain)

    @property
    def elements(self) -> frozenset[tuple[int, ...]]:
        if self._elements is None:
            self._elements = frozenset(self._lex_elements())
        return self._elements

    def sorted_elements(self) -> list[tuple[int, ...]]:
        return list(self._lex_elements())

    def _lex_elements(self):
        """Every element in lex order, walked from the chain once and kept.

        With the base 0..n-1 the elements below a node of the transversal
        tree share their images of the earlier base points, so visiting
        the children of a node c by increasing c(j) lists them in lex order.
        """
        if self._sorted is None:
            order = self.order
            if order > MAX_ELEMENTS:
                raise BoundExceededError(
                    f"the group has {order} elements, above the cap of {MAX_ELEMENTS} "
                    "on listing them"
                )
            levels = [[(j, itemgetter(*u)) for j, u in orbit.items()] for _, orbit in self._chain]
            self._sorted = []
            _walk(levels, 0, self.identity, self._sorted)
        return self._sorted

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        if self._generators is None:
            self._generators = tuple(_lex_generators(self._chain, self.identity))
        return self._generators

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(range(len(self.ground)))

    def __contains__(self, perm) -> bool:
        if self._inverses is None:
            self._inverses = [{j: _inverse(u) for j, u in orbit.items()} for _, orbit in self._chain]
        return _sift(self._chain, self._inverses, tuple(perm)) == self.identity

    def __eq__(self, other):
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        return (
            self.ground == other.ground
            and self.order == other.order
            and all(g in other for g in self.generators)
            and all(g in self for g in other.generators)
        )

    def __hash__(self):
        return hash((self.ground, self.order))

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
        """The subgroup fixing each of the given point indices.

        The generators are conjugated by a relabelling that puts the points
        first, so Schreier-Sims builds a chain whose levels past them
        generate their pointwise stabiliser; those transversal elements,
        conjugated back, generate the answer on the natural base.
        """
        n = len(self.ground)
        first = dict.fromkeys(points)
        back = (*first, *(i for i in range(n) if i not in first))  # new label -> old
        to = _inverse(back)
        chain = _schreier_sims(n, [_compose(to, _compose(g, back)) for g in self.generators])
        tail = [
            _compose(back, _compose(u, to))
            for b, orbit in chain
            if b >= len(first)
            for j, u in orbit.items()
            if j != b
        ]
        return PermutationGroup._from_chain(self.ground, _schreier_sims(n, tail))

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


def _sift(chain, inverses, perm):
    """Divide perm by the transversal element of its image at each level,
    composing with its kept inverse; the residue is the identity iff perm
    lies in the group."""
    for (b, _), inverse in zip(chain, inverses):
        u_inv = inverse.get(perm[b])
        if u_inv is None:
            return perm
        perm = _compose(u_inv, perm)
    return perm


def _walk(levels, k, c, out):
    """Append the elements below node c of level k to out, in lex order.

    ``levels[k]`` pairs each orbit point j with ``itemgetter(*u)`` for its
    transversal element u, which maps c to the composite of c and u.
    """
    if k == len(levels):
        out.append(c)
        return
    for _, compose in sorted((c[j], g) for j, g in levels[k]):
        _walk(levels, k + 1, compose(c), out)


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
            c = orbit[min(j for j in orbit if j not in reached)]
            for _, deeper in chain[k + 1:]:
                c = _compose(c, deeper[min(deeper, key=c.__getitem__)])
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
    and kept for the sifts.
    """
    identity = tuple(range(n))
    chain = [(k, {k: identity}) for k in range(n)]
    inverses = [{k: identity} for k in range(n)]
    strong = [[] for _ in range(n)]
    todo = [("add", 0, g) for g in reversed(generators)]
    while todo:
        step, k, g = todo.pop()
        if step == "add" and _sift(chain[k:], inverses[k:], g) == identity:
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
