import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit._kernels import _bits, backend_name, isomorphisms, pure, refine_colors
from scatterkit.finite import cb_data, enumerate_preorder_spaces
from scatterkit.graphs import encode, random_graph
from scatterkit.verify import chain_space, discrete_space, double_fan_space, star_space

from spaces import fan_forest, layered_space


def random_structure(rng, n, density=0.3):
    """Random reflexive-transitive mask family (a valid minimal-open map)."""
    masks = []
    for i in range(n):
        m = 1 << i
        for j in range(n):
            if j != i and rng.random() < density:
                m |= 1 << j
        masks.append(m)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            merged = masks[i]
            probe = merged
            while probe:
                low = probe & -probe
                merged |= masks[low.bit_length() - 1]
                probe &= probe - 1
            if merged != masks[i]:
                masks[i] = merged
                changed = True
    return masks


def structure(masks):
    """The kernel's unit: the masks with their transpose."""
    return masks, pure.transpose(masks)


def relabelled(masks, perm):
    n = len(masks)
    out = [0] * n
    for i in range(n):
        m = 0
        probe = masks[i]
        while probe:
            low = probe & -probe
            m |= 1 << perm[low.bit_length() - 1]
            probe &= probe - 1
        out[perm[i]] = m
    return out


def test_empty_and_singleton():
    assert isomorphisms([], []) == [()]
    assert isomorphisms([1], [1]) == [(0,)]
    assert isomorphisms([1], []) == []


def test_mask_condition_is_enforced():
    masks = [0b001, 0b010, 0b111]
    result = isomorphisms(masks, masks)
    assert (2, 1, 0) not in result  # would move the top point onto an isolated one
    assert set(result) == {(0, 1, 2), (1, 0, 2)}


def test_pins_restrict_images():
    masks = [0b001, 0b010, 0b111]
    assert isomorphisms(masks, masks, pins=[(0, 1)]) == [(1, 0, 2)]
    assert isomorphisms(masks, masks, pins=[(0, 2)]) == []


def test_limit_truncates():
    masks = [1 << i for i in range(5)]  # discrete: all 120 bijections
    assert len(isomorphisms(masks, masks)) == 120
    assert len(isomorphisms(masks, masks, limit=7)) == 7


def test_results_satisfy_the_defining_condition():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 8)
        masks = random_structure(rng, n)
        for p in isomorphisms(masks, masks):
            for i in range(n):
                image = 0
                probe = masks[i]
                while probe:
                    low = probe & -probe
                    image |= 1 << p[low.bit_length() - 1]
                    probe &= probe - 1
                assert image == masks[p[i]]


def test_relabelled_structures_are_isomorphic():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 7)
        masks = random_structure(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        other = relabelled(masks, perm)
        found = isomorphisms(masks, other)
        assert tuple(perm) in found


def test_refinement_detects_impossible_pairs():
    # a chain of length 2 versus a discrete pair
    assert refine_colors(structure([0b01 | 0b10, 0b10]), structure([0b01, 0b10])) is None


def test_transpose_on_sparse_and_dense_families():
    rng = random.Random(5)
    for n in (0, 1, 5, 17, 70, 200):
        for density in (0.02, 0.5, 0.95):
            masks = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
            want = [sum(1 << j for j in range(n) if masks[j] >> i & 1) for i in range(n)]
            assert pure.transpose(masks) == want


def test_backend_name_reports_a_backend():
    assert backend_name() == "pure"


def test_large_ground_sets_fall_back_to_pure():
    # 70 isolated points do not fit a 64-bit mask; there is no point ceiling
    masks = [1 << i for i in range(70)]
    found = isomorphisms(masks, masks, limit=3)
    assert len(found) == 3
    for p in found:
        assert sorted(p) == list(range(70))


# --- the search against its recursive reference ------------------------------------


def _search_reference(masks_a, masks_b, cand, limit=0):
    """The kernel search written recursively, one call per assigned point:
    the reference the iterative ``pure.search`` must match, order included."""
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
    return results


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2**32),
            st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
            st.integers(1, 12),
        )
    ),
    st.booleans(),
)
def test_search_matches_recursive_reference(case, graph):
    n, seed, cand, limit = case
    rng = random.Random(seed)
    if graph:
        # A relabelled graph encoding, up to 36 points: with the refined
        # candidates and a few pins most points have one candidate left,
        # so the forced chains are long.
        masks_a = list(encode(random_graph(rng.randint(2, 8), rng))._masks)
        n = len(masks_a)
        perm = list(range(n))
        rng.shuffle(perm)
        masks_b = relabelled(masks_a, perm)
        cand, _ = refine_colors(structure(masks_a), structure(masks_b))
        for i in rng.sample(range(n), rng.randint(0, 3)):
            # a pin inside the cell, or now and then anywhere
            targets = list(_bits(cand[i])) if rng.random() < 0.8 else range(n)
            cand[i] &= 1 << rng.choice(targets)
    else:
        masks_a = random_structure(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        masks_b = relabelled(masks_a, perm) if rng.random() < 0.7 else random_structure(rng, n)
        # Full candidate sets half the time, so long result lists are common too.
        if rng.random() < 0.5:
            cand = [(1 << n) - 1] * n
    full = _search_reference(masks_a, masks_b, cand)
    a, b = structure(masks_a), structure(masks_b)
    assert pure.search(a, b, cand) == full
    assert pure.search(a, b, cand, limit) == full[:limit]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32), st.integers(1, 6), st.booleans())
def test_search_with_settled_points_matches_search_without(n, seed, limit, relabel):
    rng = random.Random(seed)
    masks_a = _random_masks(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    masks_b = relabelled(masks_a, perm) if relabel else _random_masks(rng, n)
    a, b = structure(masks_a), structure(masks_b)
    refined = refine_colors(a, b)
    if refined is None:
        return
    cand, fixed = refined
    for i in rng.sample(range(n), rng.randint(0, n)):
        cand[i] &= 1 << rng.randrange(n)  # a random pin, which may contradict the cell
    full = pure.search(a, b, cand)
    assert full == _search_reference(masks_a, masks_b, cand)
    assert pure.search(a, b, cand, 0, fixed) == full
    assert pure.search(a, b, cand, limit, fixed) == full[:limit]


def test_pins_on_settled_points():
    masks = [0b001, 0b010, 0b111]  # the top point 2 is alone in its cell
    pair = structure(masks)
    assert refine_colors(pair, pair)[1] == 0b100
    assert isomorphisms(masks, masks, pins=[(2, 0)]) == []
    assert isomorphisms(masks, masks, pins=[(2, 2)]) == [(0, 1, 2), (1, 0, 2)]
    assert isomorphisms(masks, masks, pins=[(2, 2), (0, 1)]) == [(1, 0, 2)]
    chain = chain_space(6)._masks
    assert isomorphisms(chain, chain, pins=[(3, 3)]) == [tuple(range(6))]
    assert isomorphisms(chain, chain, pins=[(3, 4)]) == []


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_needs_no_recursion_per_point():
    masks = [1 << i for i in range(300)]
    cand = [(1 << 300) - 1] * 300
    identity = tuple(range(300))
    swapped = identity[:-2] + (299, 298)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        pair = structure(masks)
        assert pure.search(pair, pair, cand, 2) == [identity, swapped]
        with pytest.raises(RecursionError):
            _search_reference(masks, masks, cand, 2)
    finally:
        sys.setrecursionlimit(saved)


# --- refinement against the round-based reference ------------------------------------


def _refine_reference(masks_a, masks_b, colors_a=None, colors_b=None):
    """Round-based refinement that stops only when a round leaves every
    colour number unchanged, numbering colours by sorted signature."""
    na, nb = len(masks_a), len(masks_b)
    colors_a = [0] * na if colors_a is None else list(colors_a)
    colors_b = [0] * nb if colors_b is None else list(colors_b)

    def transpose(n, masks):
        member_of = [0] * n
        for j, mask in enumerate(masks):
            for i in _bits(mask):
                member_of[i] |= 1 << j
        return member_of

    def signatures(masks, member_of, colors):
        return [
            (
                colors[i],
                tuple(sorted(colors[j] for j in _bits(mask))),
                tuple(sorted(colors[j] for j in _bits(member_of[i]))),
            )
            for i, mask in enumerate(masks)
        ]

    member_a, member_b = transpose(na, masks_a), transpose(nb, masks_b)
    for _ in range(max(na, nb) + 1):
        sig_a = signatures(masks_a, member_a, colors_a)
        sig_b = signatures(masks_b, member_b, colors_b)
        table = {s: c for c, s in enumerate(sorted(set(sig_a) | set(sig_b)))}
        new_a = [table[s] for s in sig_a]
        new_b = [table[s] for s in sig_b]
        if sorted(new_a) != sorted(new_b):
            return None
        if new_a == colors_a and new_b == colors_b:
            break
        colors_a, colors_b = new_a, new_b
    return colors_a, colors_b


def _reference_cells(masks_a, masks_b, colors_a=None, colors_b=None):
    """The joint partition the reference reaches: (points of a, points of
    b) per colour, independent of how the colours are numbered; None when
    it refutes the pair."""
    refined = _refine_reference(masks_a, masks_b, colors_a, colors_b)
    if refined is None:
        return None
    cells = {}
    for side, colors in enumerate(refined):
        for i, c in enumerate(colors):
            cells.setdefault(c, ([], []))[side].append(i)
    return sorted((tuple(a), tuple(b)) for a, b in cells.values())


def _cells(refined):
    """The kernel's cells in the form of ``_reference_cells``, read off
    the candidate masks: the points of a with one candidate mask, and
    that mask."""
    if refined is None:
        return None
    cells = {}
    for i, c in enumerate(refined[0]):
        cells.setdefault(c, []).append(i)
    return sorted((tuple(a), tuple(_bits(b))) for b, a in cells.items())


def _preorders():
    return [space for n in range(5) for space in enumerate_preorder_spaces(n)]


def test_refinement_cells_match_reference_on_every_small_preorder():
    spaces = _preorders() + list(enumerate_preorder_spaces(5))
    assert len(spaces) == 390 + 6942
    for space in spaces:
        masks = space._masks
        want = _reference_cells(masks, masks)
        # one structure against itself, then against an equal copy
        pair = structure(masks)
        assert _cells(refine_colors(pair, pair)) == want, space
        assert _cells(refine_colors(pair, structure(list(masks)))) == want, space


def _random_masks(rng, n):
    """A random family of n subsets of {0..n-1}: a preorder half the time,
    otherwise arbitrary (not reflexive, not transitive)."""
    if rng.random() < 0.5:
        return random_structure(rng, n, rng.choice((0.15, 0.3, 0.5)))
    return [rng.getrandbits(n) if n else 0 for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32), st.sampled_from(("relabelled", "unrelated", "longer")))
def test_refinement_cells_match_reference_on_random_two_sided_pairs(n, seed, kind):
    rng = random.Random(seed)
    masks_a = _random_masks(rng, n)
    if kind == "relabelled":
        perm = list(range(n))
        rng.shuffle(perm)
        masks_b = relabelled(masks_a, perm)
    else:
        masks_b = _random_masks(rng, n + (kind == "longer"))
    want = _reference_cells(masks_a, masks_b)
    a, b = structure(masks_a), structure(masks_b)
    assert _cells(refine_colors(a, b)) == want
    assert _cells(refine_colors(b, a)) == _reference_cells(masks_b, masks_a)
    if kind == "relabelled":
        assert want is not None
    if kind == "longer":
        assert want is None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32), st.booleans())
def test_settled_points_are_the_singleton_cells_of_the_reference(n, seed, relabel):
    rng = random.Random(seed)
    masks_a = _random_masks(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    masks_b = relabelled(masks_a, perm) if relabel else _random_masks(rng, n)
    want = _reference_cells(masks_a, masks_b)
    refined = refine_colors(structure(masks_a), structure(masks_b))
    if want is None:
        assert refined is None
        return
    assert refined[1] == sum(1 << a[0] for a, _ in want if len(a) == 1)


def test_refinement_stops_at_the_discrete_partition_on_a_long_chain():
    # every point of a chain is alone in its cell after the first split;
    # the singleton stop leaves the other 1,099 queued cells untaken
    pair = structure(chain_space(1100)._masks)
    cand, settled = refine_colors(pair, pair)
    assert cand == [1 << i for i in range(1100)]
    assert settled == (1 << 1100) - 1


def _invariant_colors(space):
    """Each point's homeomorphism invariants (CB rank, minimal open size,
    closure size), numbered by their sorted order."""
    n = space.size
    ranks = cb_data(space).rank_of
    closure_sizes = [0] * n
    for i in range(n):
        for j in _bits(space._masks[i]):
            closure_sizes[j] += 1
    colors = [
        (ranks[space.points[i]], space._masks[i].bit_count(), closure_sizes[i])
        for i in range(n)
    ]
    palette = {c: k for k, c in enumerate(sorted(set(colors)))}
    return [palette[c] for c in colors]


def test_uniform_start_gives_the_cells_of_the_invariant_seeded_reference():
    """Refinement from the uniform colouring reaches the coarsest equitable
    partition, which already separates CB rank, minimal open size and
    closure size, so seeding with them changes no cell."""
    rng = random.Random(14)
    spaces = _preorders()
    spaces += [discrete_space(n) for n in range(1, 8)] + [chain_space(30)]
    spaces += [star_space(leaves, tiers) for leaves in (3, 4, 5) for tiers in (1, 2)]
    spaces += [double_fan_space(), layered_space((2, 2)), layered_space((3, 3, 3))]
    spaces += [layered_space((4, 4, 2)), fan_forest((2, 2, 2)), fan_forest((3, 3))]
    spaces += [encode(random_graph(rng.randint(3, 8), rng)) for _ in range(200)]
    for space in spaces:
        masks, colors = space._masks, _invariant_colors(space)
        want = _reference_cells(masks, masks, colors, colors)
        pair = structure(masks)
        assert _cells(refine_colors(pair, pair)) == want, space
        cell_of = {i: sum(1 << j for j in a) for a, _ in want for i in a}
        assert refine_colors(pair, pair)[0] == [cell_of[i] for i in range(len(masks))], space


def test_refinement_cells_match_reference_on_relabelled_and_refuted_pairs():
    rng = random.Random(11)
    refuted = 0
    for n in range(1, 5):
        spaces = list(enumerate_preorder_spaces(n))
        for k, space in enumerate(spaces):
            perm = list(range(n))
            rng.shuffle(perm)
            pairs = [(space._masks, relabelled(space._masks, perm))]
            others = spaces if n <= 3 else spaces[k + 1 : k + 3]
            pairs += [(space._masks, other._masks) for other in others]
            for masks_a, masks_b in pairs:
                want = _reference_cells(masks_a, masks_b)
                refined = refine_colors(structure(masks_a), structure(masks_b))
                assert _cells(refined) == want, (masks_a, masks_b)
                refuted += want is None
    assert refuted > 100
