"""Pure-Python backtracking search for mask-equivariant bijections.

This is the one implementation of the kernel contract.  Masks are
arbitrary-size Python ints, so there is no point ceiling.
"""

from __future__ import annotations

__all__ = ["search", "transpose"]


def transpose(masks):
    """member[i] = the points j with i in masks[j], as bitmasks."""
    n = len(masks)
    member = [0] * n
    for j, m in enumerate(masks):
        bit = 1 << j
        while m:
            low = m & -m
            member[low.bit_length() - 1] |= bit
            m ^= low
    return member


def search(a, b, cand, limit=0, settled=0):
    """Backtracking with forward checking on candidate masks, between the
    structures ``a = (masks_a, member_a)`` and ``b = (masks_b, member_b)``,
    each member list the transpose of its masks.

    ``cand[i]`` is the bitmask of allowed images of i; the invariant kept
    during the search is that an assignment i -> j is consistent with every
    earlier assignment k -> p(k):

        k in masks_a[i]  iff  p(k) in masks_b[j]
        i in masks_a[k]  iff  j in masks_b[p(k)]

    which at a full assignment is equivalent to p(masks_a[i]) ==
    masks_b[p(i)] for all i.

    ``settled`` is the mask of points alone in their cell that
    ``refine_colors`` returns, with ``cand`` inside those cells (pins may
    narrow it).  Each is assigned its one candidate up front; it is never
    branched on and never forward-checked.  Each constraint against a
    settled point already holds (``refine_colors`` gives the reason), so
    its forward checks narrow nothing, and as it never changes another
    point's candidates, the points branched on, the results and their
    order are the same as without ``settled``.  A settled point with no
    candidate left (a contradicting pin) means no result.
    """
    (masks_a, member_a), (masks_b, member_b) = a, b
    n = len(masks_a)
    full = (1 << n) - 1
    results = []
    assignment = [-1] * n
    m = settled
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if not cand[i]:
            return []
        assignment[i] = cand[i].bit_length() - 1
        m &= m - 1

    def narrow(cand, i, low, rest):
        """Set cand[i] to ``low``, the bit of i's image j, and forward-check
        the points of ``rest`` against i -> j in place; False when one of
        them is left with no candidate."""
        j = low.bit_length() - 1
        cand[i] = low
        # The points of rest are grouped by their relation to i (k in
        # masks_a[i], i in masks_a[k]); a group may map only to points
        # other than j with the same relation to j.
        out_i, in_i = masks_a[i], member_a[i]
        out_j, in_j = masks_b[j] & ~low, member_b[j] & ~low
        for m, allowed in (
            (rest & out_i & in_i, out_j & in_j),
            (rest & out_i & ~in_i, out_j & ~in_j),
            (rest & ~out_i & in_i, in_j & ~out_j),
            (rest & ~out_i & ~in_i, ~(out_j | in_j | low)),
        ):
            while m:
                lo = m & -m
                k = lo.bit_length() - 1
                m ^= lo
                c = cand[k] & allowed
                if not c:
                    return False
                cand[k] = c
        return True

    # Depth first on an explicit stack, so the depth is not bounded by
    # Python's recursion limit: one frame [point, options left, cand,
    # assigned mask] per point branched on, options taken in increasing
    # order, which is the result order ``limit`` cuts by.  A point with one
    # candidate left has nothing to branch on: it is assigned in place, in
    # the state's own cand list, which no frame holds yet.
    stack = []
    cand, assigned_mask = list(cand), settled
    while True:
        if assigned_mask == full:
            results.append(tuple(assignment))
            if len(results) == limit:
                return results
        else:
            # most-constrained unassigned point first
            best, best_count = -1, None
            m = full & ~assigned_mask
            while m:
                low = m & -m
                i = low.bit_length() - 1
                count = cand[i].bit_count()
                if count == 0:
                    best = -1
                    break
                if best_count is None or count < best_count:
                    best, best_count = i, count
                    if count == 1:
                        break
                m &= m - 1
            if best >= 0:
                if best_count > 1:
                    stack.append([best, cand[best], cand, assigned_mask])
                else:
                    bit = 1 << best
                    if narrow(cand, best, cand[best], full & ~assigned_mask & ~bit):
                        assignment[best] = cand[best].bit_length() - 1
                        assigned_mask |= bit
                        continue
        # Take the next option of the deepest frame that survives forward
        # checking; frames with none left are popped.
        while stack:
            frame = stack[-1]
            i, options, cand, assigned_mask = frame
            if not options:
                stack.pop()
                continue
            low = options & -options
            frame[1] = options & (options - 1)
            new_cand = list(cand)
            if narrow(new_cand, i, low, full & ~assigned_mask & ~(1 << i)):
                assignment[i] = low.bit_length() - 1
                cand, assigned_mask = new_cand, assigned_mask | (1 << i)
                break
        else:
            return results
