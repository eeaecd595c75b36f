"""Element-based references for the tests: a permutation group built from
its element set, closure of an element set by hand, and the normal
subgroup lattice searched on element sets."""

from scatterkit.finite import conjugacy_classes
from scatterkit.permgroups import PermutationGroup, _compose


def group_from_elements(ground, elements):
    """The group whose elements are ``elements``, which must be closed.

    An element whose first moved point is b lies in G_(0..b-1) and sends b
    into b's orbit, so one element for each pair of a first moved point
    and its image makes up the stabiliser chain's transversals.
    """
    ground = tuple(ground)
    elements = frozenset(tuple(e) for e in elements)
    assert PermutationGroup.from_generators(ground, elements).order == len(elements), (
        "the element set is not closed under composition"
    )
    identity = tuple(range(len(ground)))
    levels = {}
    for g in elements:
        for b in range(len(ground)):
            if g[b] != b:
                levels.setdefault(b, {b: identity}).setdefault(g[b], g)
                break
    return PermutationGroup._from_chain(ground, sorted(levels.items()))


def _grow_closure(elements, gens, extra):
    """Grow ``elements`` = <gens> in place to <gens, extra>.

    Each member of ``extra`` not yet inside is appended to ``gens``.  Only
    the new elements are multiplied by every generator; the old ones need
    the added generator alone, since they are already closed under the rest.
    """
    for g in extra:
        if g in elements:
            continue
        gens.append(g)
        frontier = []
        for h in list(elements):
            new = _compose(h, g)
            if new not in elements:
                elements.add(new)
                frontier.append(new)
        while frontier:
            nxt = []
            for h in frontier:
                for s in gens:
                    new = _compose(h, s)
                    if new not in elements:
                        elements.add(new)
                        nxt.append(new)
            frontier = nxt


def _normal_subgroups_reference(group):
    """Every normal subgroup, by closing the joins of the class-generated
    subgroups on element sets, sorted by size and then lex listing.

    A normal subgroup is generated by the classes it contains, so closing
    the class-generated subgroups under pairwise join reaches each one.
    """
    trivial = frozenset([group.identity])
    class_subgroups = []  # (a class member, generators of the class-generated subgroup)
    for cls in conjugacy_classes(group):
        gens = []
        _grow_closure(set(trivial), gens, sorted(cls))
        class_subgroups.append((min(cls), gens))
    found = {trivial: []}  # element set -> generators
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for member, cls_gens in class_subgroups:
                # sub is normal, so holding one member means holding the class
                if member in sub:
                    continue
                elements, gens = set(sub), list(found[sub])
                _grow_closure(elements, gens, cls_gens)
                join = frozenset(elements)
                if join not in found:
                    found[join] = gens
                    nxt.append(join)
        frontier = nxt
    return [
        group_from_elements(group.ground, elements)
        for elements in sorted(found, key=lambda e: (len(e), sorted(e)))
    ]
