import random

from scatterkit._kernels import backend_name, isomorphisms, refine_colors


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
    assert refine_colors([0b01 | 0b10, 0b10], [0b01, 0b10]) is None


def test_backend_name_reports_a_backend():
    assert backend_name() == "pure"


def test_large_ground_sets_fall_back_to_pure():
    # 70 isolated points do not fit a 64-bit mask; there is no point ceiling
    masks = [1 << i for i in range(70)]
    found = isomorphisms(masks, masks, limit=3)
    assert len(found) == 3
    for p in found:
        assert sorted(p) == list(range(70))
