"""Isomorphism-search kernel: colour refinement plus a backtracking search.

The search problem: given two families of subsets ``masks_a`` and
``masks_b`` of {0..n-1} (one subset per point, encoded as bitmasks), find
the bijections p with p(masks_a[i]) == masks_b[p(i)] for every i.  With
minimal-open-set masks these are exactly the homeomorphisms of a finite
Alexandrov space; with adjacency masks they are graph isomorphisms.

The search itself is ``pure.search``, on arbitrary-size Python ints, so
there is no point ceiling.
"""

from __future__ import annotations

from . import pure

__all__ = ["isomorphisms", "backend_name", "refine_colors"]


def backend_name() -> str:
    # perfbench records this name and traces pure.search by its module path; both stay.
    return "pure"


def _signature_colors(masks, member_of, colors):
    sigs = []
    for i, mask in enumerate(masks):
        inside = sorted(colors[j] for j in _bits(mask))
        around = sorted(colors[j] for j in _bits(member_of[i]))
        sigs.append((colors[i], tuple(inside), tuple(around)))
    return sigs


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _transpose(n, masks):
    member_of = [0] * n
    for j, mask in enumerate(masks):
        for i in _bits(mask):
            member_of[i] |= 1 << j
    return member_of


def refine_colors(masks_a, masks_b, colors_a=None, colors_b=None):
    """Jointly refine point colours on both structures to a stable partition.

    Returns (colors_a, colors_b) or None when the colour multisets differ,
    in which case no isomorphism exists.  When both sides are the same
    masks with the same colours (automorphisms), each round's signatures
    are computed once.
    """
    na, nb = len(masks_a), len(masks_b)
    if colors_a is None:
        colors_a = [0] * na
    if colors_b is None:
        colors_b = [0] * nb
    colors_a, colors_b = list(colors_a), list(colors_b)
    same = masks_a is masks_b and colors_a == colors_b
    member_a = _transpose(na, masks_a)
    member_b = member_a if same else _transpose(nb, masks_b)
    for _ in range(max(na, nb) + 1):
        sig_a = _signature_colors(masks_a, member_a, colors_a)
        sig_b = sig_a if same else _signature_colors(masks_b, member_b, colors_b)
        table = {s: c for c, s in enumerate(sorted(set(sig_a) | set(sig_b)))}
        new_a = [table[s] for s in sig_a]
        new_b = new_a if same else [table[s] for s in sig_b]
        if sorted(new_a) != sorted(new_b):
            return None
        if new_a == colors_a and new_b == colors_b:
            break
        colors_a, colors_b = new_a, new_b
    return colors_a, colors_b


def isomorphisms(masks_a, masks_b, colors_a=None, colors_b=None, pins=(), limit=0):
    """All bijections p with p(masks_a[i]) == masks_b[p(i)], as index tuples.

    ``colors_*`` are optional initial invariants (equal colour required for
    i -> p(i)), ``pins`` forces individual images, ``limit`` > 0 stops the
    search after that many bijections.  Results are in a deterministic
    order.
    """
    na, nb = len(masks_a), len(masks_b)
    if na != nb:
        return []
    if na == 0:
        return [()]
    refined = refine_colors(masks_a, masks_b, colors_a, colors_b)
    if refined is None:
        return []
    colors_a, colors_b = refined
    cand = []
    for i in range(na):
        mask = 0
        for j in range(nb):
            if colors_b[j] == colors_a[i]:
                mask |= 1 << j
        cand.append(mask)
    for i, j in pins:
        cand[i] &= 1 << j
        if not cand[i]:
            return []
    return pure.search(masks_a, masks_b, cand, limit)
