"""Twins before the kernel, and searches that stop at their answer, each
compared with the loop it replaced.

Points are *twins* when their minimal open sets agree off themselves, and
so do the sets of points whose minimal open set holds them: their swap is
then a homeomorphism fixing every other point.  The stabiliser chain seeds
each level with the swaps of its point's twins, the direct full-transitivity
check drops every block of pairwise twins, and the similarity partition
accepts without a search two points whose minimal open sets agree off
themselves, as twins' do.  Two-sided refinement stops at n cells, and the
labelled enumeration prunes at the first intransitive pair.  The
references below are the loops these replaced.
"""

import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterkit._kernels as kernels
from scatterkit import finite
from scatterkit._kernels import _bits, isomorphisms, pure, refine_colors
from scatterkit.errors import InternalCheckError
from scatterkit.finite import (
    FiniteSpace,
    PermutationGroup,
    enumerate_preorder_spaces,
    homeo_group,
    is_fully_transitive,
    similar,
    similarity_partition,
)
from scatterkit.verify import chain_space, discrete_space, double_fan_space, star_space

from spaces import fan_forest, layered_space


# --- references: the replaced loops ------------------------------------------------


def _stabiliser_chain_reference(structure, refined):
    """The chain from pinned searches alone: no twin is read.  Level i's
    orbit is grown under the known elements fixing 0..i-1, and one
    ``limit=1`` search at a time reaches the rest of its cell; with no
    known element, one ``limit=2`` search finds one or ends the chain."""
    n = len(structure[0])
    identity = tuple(range(n))
    cand, fixed = refined
    pinned = list(cand)
    chain = []
    known = []
    for i in range(n):
        cell = cand[i] >> i << i
        if cell != 1 << i:
            if not known:
                found = pure.search(structure, structure, pinned, 2, fixed)
                known = [g for g in found if g != identity]
                if not known:
                    break
            orbit = finite._grow_orbit({i: identity}, known)
            reached = sum(1 << j for j in orbit)
            while cell & ~reached:
                pinned[i] = cell & ~reached
                found = pure.search(structure, structure, pinned, 1, fixed)
                if not found:
                    break
                known.append(found[0])
                finite._grow_orbit(orbit, known)
                reached = sum(1 << j for j in orbit)
            if len(orbit) > 1:
                chain.append((i, orbit))
            known = [g for g in known if g[i] == i]
        pinned[i] = 1 << i
    return chain


def _direct_failure_reference(space, part):
    """The direct check over every count vector of every block with more
    than one point, all built and sorted by (length, xs) before the first
    is run."""
    structure = finite._structure(space)
    blocks = [tuple(map(space.index, block)) for block in part.blocks]
    cand = [0] * space.size
    for block in blocks:
        mask = sum(1 << i for i in block)
        for i in block:
            cand[i] = mask
    movable = [block for block in blocks if len(block) > 1]
    checks = []
    for counts in itertools.product(*(range(len(block)) for block in movable)):
        prefix = sorted(i for block, m in zip(movable, counts) for i in block[:m])
        for block, m in zip(movable, counts):
            if m + 1 < len(block):
                checks.append(((*prefix, block[m]), block[m + 1:]))
    checks.sort(key=lambda check: (len(check[0]), check[0]))
    for xs, others in checks:
        pinned = list(cand)
        for i in xs[:-1]:
            pinned[i] = 1 << i
        for y in others:
            pinned[xs[-1]] = 1 << y
            if not pure.search(structure, structure, pinned, 1):
                return (
                    tuple(space.points[i] for i in xs),
                    tuple(space.points[i] for i in (*xs[:-1], y)),
                )
    return None


def _similarity_partition_reference(space):
    """Each point joins the first block whose first point has its rank and
    is similar to it by a witness search."""
    rank_of = finite.cb_data(space).rank_of
    blocks = []
    for name in space.points:
        for block in blocks:
            if rank_of[block[0]] == rank_of[name] and similar(space, block[0], name):
                block.append(name)
                break
        else:
            blocks.append([name])
    return tuple(tuple(block) for block in blocks)


def _refine_reference(a, b):
    """Joint refinement run until the splitter queue is empty, also on two
    sides once every cell is one point of a and one of b."""
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
    while queue and not (same and len(cells) == n):
        s = queue.pop()
        queued[s] = False
        splitter = cells[s]
        near = 0
        for x in _bits(splitter):
            near |= near_of[x]
        touched, m = [], near
        while m:
            c = cell_of[(m & -m).bit_length() - 1]
            touched.append(c)
            m &= ~cells[c]
        for c in touched:
            cell = cells[c]
            if same and not cell & (cell - 1):
                continue
            m = cell & near
            parts = {0: cell ^ m} if cell ^ m else {}
            for x in _bits(m):
                key = (masks[x] & splitter).bit_count() * radix + (member[x] & splitter).bit_count()
                parts[key] = parts.get(key, 0) | 1 << x
            if not same:
                for part in parts.values():
                    if (part & lower).bit_count() != (part >> n).bit_count():
                        return None
            if len(parts) == 1:
                continue
            parts = list(parts.values())
            if not queued[c]:
                parts.sort(key=int.bit_count)
            cells[c] = parts.pop()
            for part in parts:
                new = len(cells)
                cells.append(part)
                queued.append(True)
                queue.append(new)
                for x in _bits(part):
                    cell_of[x] = new
    settled = 0
    for cell in cells:
        points_a = cell & lower
        if not points_a & (points_a - 1):
            settled |= points_a
    return [cells[c] >> shift for c in cell_of[:n]], settled


# --- spaces ------------------------------------------------------------------------


def _closed(masks):
    """The smallest transitive masks holding the given reflexive ones."""
    masks = list(masks)
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(masks):
            grown = mask
            for j in _bits(mask):
                grown |= masks[j]
            if grown != mask:
                masks[i], changed = grown, True
    return masks


def _space(masks):
    return FiniteSpace.from_masks([f"p{i}" for i in range(len(masks))], masks)


def _random_preorder(rng, n):
    density = rng.choice((0.15, 0.3, 0.5))
    masks = [1 << i | sum(1 << j for j in range(n) if j != i and rng.random() < density) for i in range(n)]
    return _space(_closed(masks))


def _blow_up(masks, copies, together):
    """Each point i becomes copies[i] points: incomparable twins, or, where
    together[i], points sharing one minimal open set (a non-T0 class).  A
    copy's minimal open set holds every copy of the points below i; the
    result is closed under transitivity."""
    first = list(itertools.accumulate(copies, initial=0))
    rows = []
    for i, mask in enumerate(masks):
        below = sum(((1 << copies[j]) - 1) << first[j] for j in _bits(mask) if j != i)
        own = ((1 << copies[i]) - 1) << first[i]
        for c in range(copies[i]):
            rows.append(below | (own if together[i] else 1 << (first[i] + c)))
    return _closed(rows)


def _named_twin_spaces():
    spaces = [discrete_space(n) for n in (1, 2, 5, 8)]
    spaces += [layered_space(sizes) for sizes in ((2, 2), (3, 3, 3), (4, 4, 2), (5, 1, 5), (2, 3, 2, 3))]
    spaces += [star_space(leaves, tiers) for leaves in (3, 4, 5) for tiers in (1, 2, 3)]
    spaces += [fan_forest(widths) for widths in ((2, 2), (2, 2, 2), (3, 3), (2, 3), (3, 1, 3), (4,))]
    spaces += [double_fan_space(), chain_space(6)]
    # non-T0 blow-ups: a class of points sharing one minimal open set
    spaces += [
        _space(_blow_up(double_fan_space()._masks, (2, 1, 1, 2), (True, False, False, True))),
        _space(_blow_up(layered_space((2, 2))._masks, (2, 2, 1, 1), (True, False, False, False))),
        _space(_blow_up(chain_space(3)._masks, (2, 3, 2), (False, True, False))),
        _space(_blow_up(star_space(3)._masks, (1, 1, 1, 3), (False, False, False, True))),
    ]
    return spaces


def _small_preorders():
    return [space for n in range(6) for space in enumerate_preorder_spaces(n)]


def _random_preorders(count, seed):
    rng = random.Random(seed)
    return [_random_preorder(rng, rng.randint(6, 8)) for _ in range(count)]


# --- the chain -----------------------------------------------------------------------


def _same_group_as_reference(space):
    structure = finite._structure(space)
    refined = refine_colors(structure, structure)
    got = PermutationGroup._from_chain(space.points, finite._stabiliser_chain(structure, refined))
    want = PermutationGroup._from_chain(space.points, _stabiliser_chain_reference(structure, refined))
    assert got.order == want.order, space.to_text()
    assert got.generators == want.generators, space.to_text()
    if want.order <= 720:
        assert got.sorted_elements() == want.sorted_elements(), space.to_text()


def test_chain_matches_the_search_only_reference_on_every_small_preorder():
    spaces = _small_preorders()
    assert len(spaces) == 1 + 1 + 4 + 29 + 355 + 6942
    for space in spaces:
        _same_group_as_reference(space)


def test_chain_matches_the_search_only_reference_on_random_and_named_spaces():
    for space in _random_preorders(1500, 28) + _named_twin_spaces():
        _same_group_as_reference(space)


def test_twins_answer_the_chain_without_a_search(monkeypatch):
    searches = []
    search = pure.search

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(pure, "search", counted)
    assert homeo_group(discrete_space(60), max_points=60).order == factorial(60)
    assert homeo_group(layered_space((5, 5, 5)), max_points=15).order == factorial(5) ** 3
    assert not searches


# --- the direct check ---------------------------------------------------------------


def _same_failure_as_reference(space):
    part = similarity_partition(space)
    assert finite._direct_failure(space, part) == _direct_failure_reference(space, part), space.to_text()


def test_direct_check_matches_the_all_vectors_reference_on_every_small_preorder():
    for space in _small_preorders():
        _same_failure_as_reference(space)


def test_direct_check_matches_the_all_vectors_reference_on_random_and_named_spaces():
    failures = 0
    for space in _random_preorders(1500, 29) + _named_twin_spaces():
        _same_failure_as_reference(space)
        failures += finite._direct_failure(space, similarity_partition(space)) is not None
    assert failures > 100


def test_a_twin_key_that_pairs_non_twins_is_caught_by_the_direct_check(monkeypatch):
    for space in (fan_forest((2, 2)), fan_forest((2, 3))):
        part = similarity_partition(space)
        monkeypatch.setattr(finite, "_twin_key", lambda structure, i: 0)
        with pytest.raises(InternalCheckError, match="do not swap by a homeomorphism"):
            finite._direct_failure(space, part)
        monkeypatch.undo()


def test_twin_blocks_need_no_search_in_the_direct_check(monkeypatch):
    space = layered_space((30, 30, 30))
    part = similarity_partition(space)
    monkeypatch.setattr(pure, "search", None)  # any search would fail
    assert finite._direct_failure(space, part) is None


# --- the similarity partition --------------------------------------------------------


def test_similarity_partition_matches_the_witness_reference():
    spaces = _small_preorders()[:390] + _random_preorders(300, 30) + _named_twin_spaces()
    for space in spaces:
        assert similarity_partition(space).blocks == _similarity_partition_reference(space), space


# --- two-sided refinement -----------------------------------------------------------


def _relabelled(masks, perm):
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        out[perm[i]] = sum(1 << perm[j] for j in _bits(mask))
    return out


def _pairs(seed):
    """Two-sided pairs: each space against a relabelling of itself, and
    against the next space in the list."""
    rng = random.Random(seed)
    spaces = _small_preorders()[:390] + _random_preorders(1500, seed) + _named_twin_spaces()
    pairs = []
    for k, space in enumerate(spaces):
        masks = space._masks
        perm = list(range(len(masks)))
        rng.shuffle(perm)
        pairs.append((masks, _relabelled(masks, perm)))
        other = spaces[k + 1]._masks if k + 1 < len(spaces) else masks
        pairs.append((masks, list(other)))
    return pairs


def test_two_sided_refinement_matches_the_run_to_empty_queue_reference():
    refuted = settled_all = 0
    for masks_a, masks_b in _pairs(31):
        a = (masks_a, pure.transpose(masks_a))
        b = (masks_b, pure.transpose(masks_b))
        got = refine_colors(a, b)
        assert got == _refine_reference(a, b), (masks_a, masks_b)
        refuted += got is None
        settled_all += got is not None and got[1] == (1 << len(masks_a)) - 1
    assert refuted > 100 and settled_all > 100


def test_isomorphisms_match_the_run_to_empty_queue_reference(monkeypatch):
    pairs = _pairs(32)[::3]

    def results():
        found = [isomorphisms(a, b, limit=100) for a, b in pairs]
        return found + [isomorphisms(a, b, [(0, j)], 1) for a, b in pairs if a for j in range(len(a))]

    got = results()
    monkeypatch.setattr(kernels, "refine_colors", _refine_reference)
    assert got == results()
    assert sum(map(bool, got)) > 1000


def test_two_sided_refinement_checks_the_one_bijection():
    # one point each, with and without its own bit: the one bijection fails
    assert refine_colors(([1], [1]), ([0], [0])) is None
    # a 7-point chain and a relabelling: every point settled, the relabelling read off the cells
    masks = chain_space(7)._masks
    perm = [3, 0, 6, 1, 5, 2, 4]
    other = _relabelled(masks, perm)
    cand, settled = refine_colors((masks, pure.transpose(masks)), (other, pure.transpose(other)))
    assert cand == [1 << j for j in perm] and settled == (1 << 7) - 1


# --- twin-rich random spaces ---------------------------------------------------------


@st.composite
def blown_up_preorders(draw):
    """A random preorder on at most 4 points with each point blown up into
    a class of 1-3 twins, incomparable or sharing their minimal open set."""
    n = draw(st.integers(1, 4))
    masks = _closed([1 << i | draw(st.integers(0, (1 << n) - 1)) for i in range(n)])
    copies = [draw(st.integers(1, 3)) for _ in range(n)]
    together = [draw(st.booleans()) for _ in range(n)]
    return _space(_blow_up(masks, copies, together))


@settings(max_examples=150, deadline=None)
@given(blown_up_preorders())
def test_blown_up_preorders_match_every_reference(space):
    _same_group_as_reference(space)
    _same_failure_as_reference(space)
    assert similarity_partition(space).blocks == _similarity_partition_reference(space)
    report = is_fully_transitive(space, max_points=space.size)
    assert report.holds == (report.group.order == report.expected_order)
