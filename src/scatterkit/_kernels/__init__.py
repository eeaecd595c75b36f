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

__all__ = ["isomorphisms", "backend_name", "candidates", "refine_colors"]


def backend_name() -> str:
    # perfbench records this name and traces pure.search by its module path; both stay.
    return "pure"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _index_lists(masks):
    """Each point's members, and the points whose mask holds it, as index lists."""
    inside = [list(_bits(mask)) for mask in masks]
    around = [[] for _ in masks]
    for j, members in enumerate(inside):
        for i in members:
            around[i].append(j)
    return inside, around


def _signatures(colors, inside, around):
    get = colors.__getitem__
    return [
        (c, tuple(sorted(map(get, ins))), tuple(sorted(map(get, aro))))
        for c, ins, aro in zip(colors, inside, around)
    ]


def refine_colors(masks_a, masks_b):
    """Jointly refine point colours on both structures to a stable partition.

    Starts from the uniform colouring and returns (colors_a, colors_b), or
    None when the colour multisets differ, in which case no isomorphism
    exists.  A point's signature holds its own colour, so each round
    refines the one before; the first round that adds no cell, counted
    over both sides together, is stable and the loop stops there.  That
    is the coarsest equitable partition for the masks and their
    transpose, which already separates every invariant counted cell by
    cell over them, such as the CB rank, minimal open size and closure
    size of a finite space (README).  New colours are numbered in order of
    first appearance, side a before side b, so only the cells carry
    meaning.  When both sides are the same masks (automorphisms), each
    round's signatures are computed once.
    """
    colors_a, colors_b = [0] * len(masks_a), [0] * len(masks_b)
    same = masks_a is masks_b
    inside_a, around_a = _index_lists(masks_a)
    inside_b, around_b = (inside_a, around_a) if same else _index_lists(masks_b)
    cells = 1 if masks_a else 0
    while True:
        sig_a = _signatures(colors_a, inside_a, around_a)
        sig_b = sig_a if same else _signatures(colors_b, inside_b, around_b)
        table = {}
        for s in sig_a if same else sig_a + sig_b:
            if s not in table:
                table[s] = len(table)
        colors_a = [table[s] for s in sig_a]
        colors_b = colors_a if same else [table[s] for s in sig_b]
        if not same and sorted(colors_a) != sorted(colors_b):
            return None
        if len(table) == cells:
            return colors_a, colors_b
        cells = len(table)


def candidates(masks_a, masks_b):
    """Each point's cell after joint refinement, as the bitmask of the
    points of b it may map to, or None when refinement refutes the pair."""
    refined = refine_colors(masks_a, masks_b)
    if refined is None:
        return None
    colors_a, colors_b = refined
    cells = {}
    for j, c in enumerate(colors_b):
        cells[c] = cells.get(c, 0) | 1 << j
    return [cells[c] for c in colors_a]


def isomorphisms(masks_a, masks_b, pins=(), limit=0):
    """All bijections p with p(masks_a[i]) == masks_b[p(i)], as index tuples.

    The candidate images of each point are its cell under ``candidates``;
    ``pins`` forces individual images, ``limit`` > 0 stops the search after
    that many bijections.  Results are in a deterministic order.
    """
    cand = candidates(masks_a, masks_b)
    if cand is None:
        return []
    for i, j in pins:
        cand[i] &= 1 << j
        if not cand[i]:
            return []
    return pure.search(masks_a, masks_b, cand, limit)
