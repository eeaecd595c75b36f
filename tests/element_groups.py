"""A permutation group built from its element set, for element-based
references in the tests."""

from scatterkit.permgroups import PermutationGroup


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
