"""Pure-Python backtracking search for mask-equivariant bijections.

This is the one implementation of the kernel contract.  Masks are
arbitrary-size Python ints, so there is no point ceiling.
"""

from __future__ import annotations

__all__ = ["search"]


def search(masks_a, masks_b, cand, limit=0):
    """Backtracking with forward checking on candidate masks.

    ``cand[i]`` is the bitmask of allowed images of i; the invariant kept
    during the search is that an assignment i -> j is consistent with every
    earlier assignment k -> p(k):

        k in masks_a[i]  iff  p(k) in masks_b[j]
        i in masks_a[k]  iff  j in masks_b[p(k)]

    which at a full assignment is equivalent to p(masks_a[i]) ==
    masks_b[p(i)] for all i.
    """
    n = len(masks_a)
    member_b = [0] * n
    for j, mask in enumerate(masks_b):
        m = mask
        while m:
            low = m & -m
            member_b[low.bit_length() - 1] |= 1 << j
            m &= m - 1

    full = (1 << n) - 1
    results = []
    assignment = [-1] * n
    # Depth first on an explicit stack, so the depth is not bounded by
    # Python's recursion limit: one frame [point, options left, cand,
    # assigned mask] per assigned point, options taken in increasing
    # order, which is the result order ``limit`` cuts by.
    stack = []
    cand, assigned_mask = list(cand), 0
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
                stack.append([best, cand[best], cand, assigned_mask])
        # Take the next option of the deepest frame that survives forward
        # checking; frames with none left are popped.
        while stack:
            frame = stack[-1]
            i, options, cand, assigned_mask = frame
            if not options:
                stack.pop()
                continue
            low = options & -options
            j = low.bit_length() - 1
            frame[1] = options & (options - 1)
            new_cand = list(cand)
            new_cand[i] = low
            ok = True
            m = full & ~assigned_mask & ~(1 << i)
            not_j = ~low
            while m:
                lo = m & -m
                k = lo.bit_length() - 1
                m &= m - 1
                c = new_cand[k] & not_j
                if (masks_a[i] >> k) & 1:
                    c &= masks_b[j]
                else:
                    c &= ~masks_b[j]
                if (masks_a[k] >> i) & 1:
                    c &= member_b[j]
                else:
                    c &= ~member_b[j]
                if not c:
                    ok = False
                    break
                new_cand[k] = c
            if ok:
                assignment[i] = j
                cand, assigned_mask = new_cand, assigned_mask | (1 << i)
                break
        else:
            return results
