"""Isomorphism-search kernel: colour refinement plus a backtracking search.

The search problem: given two families of subsets ``masks_a`` and
``masks_b`` of {0..n-1} (one subset per point, encoded as bitmasks), find
the bijections p with p(masks_a[i]) == masks_b[p(i)] for every i.  With
minimal-open-set masks these are exactly the homeomorphisms of a finite
Alexandrov space; with adjacency masks they are graph isomorphisms.

The kernel's unit is a *structure*: the pair ``(masks, member)``, where
``member = pure.transpose(masks)`` holds, for each point i, the points
whose mask holds i.  Every step reads both, so a caller builds the pair
once and hands the same pair to ``refine_colors`` and ``pure.search``; a
``FiniteSpace`` builds its own once (``finite._structure``).  For
automorphisms the caller passes one pair object as both sides.

Refinement (``refine_colors``) is a splitter queue on bitmask cells.  It
hands the search each point's candidate images, read off its cell, and
the *settled* points, those alone in their cell, which the search
assigns up front and never checks again.  The search itself is
``pure.search``, on arbitrary-size Python ints, so there is no point
ceiling.
"""

from __future__ import annotations

from . import pure

__all__ = ["isomorphisms", "backend_name", "refine_colors"]


def backend_name() -> str:
    # perfbench records this name and traces pure.search by its module path; both stay.
    return "pure"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def refine_colors(a, b):
    """Jointly refine the structures ``a`` and ``b``, each a pair
    ``(masks, member)``, to their coarsest equitable partition.

    Returns ``(cand, settled)``, or None when refinement refutes the pair,
    in which case no isomorphism exists.  ``cand[i]`` is the bitmask of the
    points of b in the cell of a's point i: its candidate images.
    ``settled`` is the bitmask of the points of a alone in their cell.
    Every cell agrees on membership with respect to a singleton cell
    {s} -> {t}: for x, y in one cell, s in masks_a[x] iff t in masks_b[y],
    and x in masks_a[s] iff y in masks_b[t].  So every constraint between
    a settled point and a point mapped within its cell already holds, and
    ``pure.search`` assigns settled points up front and never checks them.

    Two structures are refined as one: their disjoint union, b's points
    shifted up by n, starting from a single cell.  A cell S taken from
    the queue splits every cell it touches by the key
    (|masks[x] & S|, |member[x] & S|), ``member`` being the pair's
    transpose: how many of x's members lie in S, and how many points
    of S hold x.  This is Hopcroft's "smaller half" splitter queue
    (Paige & Tarjan 1987; McKay & Piperno, *Practical graph isomorphism
    II*, 2014): when a cell that is not queued splits, every part but the
    largest is queued, since stability under the old cell and the other
    parts gives stability under the largest by subtraction; when a
    queued cell splits, all its new parts are queued.  The pair is
    refuted as soon as a part holds unequal numbers of points of a and of
    b, which covers a key found on one side only.  With one structure on
    both sides (automorphisms), one pair object passed as both ``a`` and
    ``b``, there is no union and no such check.  Either way refinement
    stops at n cells, since no cell can split further and stay balanced.
    On one side the partition is then discrete, which is equitable.  On
    two sides each cell holds one point of a and one of b, and the
    partition is equitable exactly when the bijection the cells make is
    an isomorphism: that one bijection is checked, and the pair is refuted
    when it fails.  The coarsest equitable partition is unique, so the
    order of the queue changes no cell.
    """
    (masks_a, member_a), (masks_b, member_b) = a, b
    n = len(masks_a)
    if len(masks_b) != n:
        return None
    same = a is b
    lower = (1 << n) - 1
    if same:
        masks, member, shift = masks_a, member_a, 0
    else:
        masks = list(masks_a) + [m << n for m in masks_b]
        member = list(member_a) + [m << n for m in member_b]
        shift = n
    size = n + shift
    near_of = [out | into for out, into in zip(masks, member)]
    cells, cell_of = [(1 << size) - 1], [0] * size
    queue, queued = [0], [True]
    radix = size + 1
    while queue and len(cells) < n:
        s = queue.pop()
        queued[s] = False
        splitter = cells[s]
        near, m = 0, splitter
        while m:
            low = m & -m
            near |= near_of[low.bit_length() - 1]
            m ^= low
        touched, m = [], near
        while m:
            c = cell_of[(m & -m).bit_length() - 1]
            touched.append(c)
            m &= ~cells[c]
        for c in touched:
            cell = cells[c]
            if same and not cell & (cell - 1):
                continue
            # Only the points near the splitter can have a nonzero key.
            m = cell & near
            parts = {0: cell ^ m} if cell ^ m else {}
            while m:
                low = m & -m
                x = low.bit_length() - 1
                key = (masks[x] & splitter).bit_count() * radix + (member[x] & splitter).bit_count()
                parts[key] = parts.get(key, 0) | low
                m ^= low
            if not same:
                for part in parts.values():
                    if (part & lower).bit_count() != (part >> n).bit_count():
                        return None
            if len(parts) == 1:
                continue
            parts = list(parts.values())
            if not queued[c]:
                parts.sort(key=int.bit_count)  # the largest part stays unqueued
            cells[c] = parts.pop()
            for part in parts:
                new = len(cells)
                cells.append(part)
                queued.append(True)
                queue.append(new)
                while part:
                    low = part & -part
                    cell_of[low.bit_length() - 1] = new
                    part ^= low
    if not same and len(cells) == n:
        image = [0] * n  # image[i]: the bit of the point of b in a's point i's cell
        for cell in cells:
            image[(cell & lower).bit_length() - 1] = cell >> n
        for i, mask in enumerate(masks_a):
            mapped = 0
            while mask:
                low = mask & -mask
                mapped |= image[low.bit_length() - 1]
                mask ^= low
            if mapped != masks_b[image[i].bit_length() - 1]:
                return None
        return image, lower
    settled = 0
    for cell in cells:
        points_a = cell & lower
        if not points_a & (points_a - 1):
            settled |= points_a
    return [cells[c] >> shift for c in cell_of[:n]], settled


def isomorphisms(masks_a, masks_b, pins=(), limit=0):
    """All bijections p with p(masks_a[i]) == masks_b[p(i)], as index tuples.

    The candidate images of each point are its cell under ``refine_colors``;
    ``pins`` forces individual images, ``limit`` > 0 stops the search after
    that many bijections.  Results are in a deterministic order.  Each
    side's structure is built once, for both the refinement and the
    search; the same masks object on both sides is one structure.
    """
    a = (masks_a, pure.transpose(masks_a))
    b = a if masks_b is masks_a else (masks_b, pure.transpose(masks_b))
    return _isomorphisms(a, b, pins, limit)


def _isomorphisms(a, b, pins=(), limit=0):
    """``isomorphisms`` between the structures ``a`` and ``b``, each a pair
    ``(masks, member)`` its caller built once."""
    refined = refine_colors(a, b)
    if refined is None:
        return []
    cand, settled = refined
    for i, j in pins:
        cand[i] &= 1 << j
        if not cand[i]:
            return []
    return pure.search(a, b, cand, limit, settled)
