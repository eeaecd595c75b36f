"""Pure-Python backtracking search for mask-equivariant bijections.

Reference implementation of the kernel contract; the compiled module in
_native.pyx mirrors this algorithm on C arrays.  Masks are arbitrary-size
Python ints, so there is no 64-point ceiling here.
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

    def recurse(cand, assigned_mask):
        if assigned_mask == full:
            results.append(tuple(assignment))
            return len(results) != limit
        # most-constrained unassigned point first
        best, best_count = -1, None
        remaining = full & ~assigned_mask
        m = remaining
        while m:
            low = m & -m
            i = low.bit_length() - 1
            count = cand[i].bit_count()
            if count == 0:
                return True
            if best_count is None or count < best_count:
                best, best_count = i, count
                if count == 1:
                    break
            m &= m - 1
        i = best
        options = cand[i]
        while options:
            low = options & -options
            j = low.bit_length() - 1
            options &= options - 1
            new_cand = list(cand)
            new_cand[i] = 1 << j
            ok = True
            m = remaining & ~(1 << i)
            not_j = ~(1 << j)
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
                if not recurse(new_cand, assigned_mask | (1 << i)):
                    return False
                assignment[i] = -1
        return True

    recurse(list(cand), 0)
    # recurse reaches itself through its closure; unbinding it breaks that
    # cycle, so the search state and a discarded result list are freed now
    # rather than at the next full collection.
    del recurse
    return results
