"""Finite topological spaces via minimal open sets, and their symmetries.

A finite space is presented Alexandrov-style: each point x carries the
minimal open set U_x containing it.  Validity means x is in U_x and
y in U_x implies U_y is a subset of U_x; every open set is then a union
of minimal opens, and the self-homeomorphisms are exactly the
permutations h with h(U_x) = U_{h(x)}.

The module computes Cantor-Bendixson data, similarity classes, the full
homeomorphism group (as a stabiliser chain from pinned searches),
fixators, full transitivity by two independent methods, swap witnesses,
and the normal subgroup lattice: in closed form for a product of
symmetric groups, by a search over conjugacy classes for other small
groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial, prod
from types import MappingProxyType

from ._kernels import _bits, isomorphisms, pure, refine_colors
from .errors import (
    BoundExceededError,
    DomainError,
    InternalCheckError,
    ParseError,
    UnknownPointError,
    ValidationError,
)
from .permgroups import PermutationGroup, _compose, _grow_orbit, _inverse, by_order_then_lex

__all__ = [
    "FiniteSpace",
    "PermutationGroup",
    "SimilarityPartition",
    "CBData",
    "SeparationReport",
    "FullTransitivityReport",
    "SwapResult",
    "Remark19Report",
    "cb_data",
    "separation_report",
    "similar",
    "similarity_witness",
    "similar_exhaustive",
    "similarity_partition",
    "homeo_group",
    "fixator",
    "is_fully_transitive",
    "swap_homeo",
    "conjugacy_classes",
    "normal_subgroups",
    "verify_remark19",
    "enumerate_preorder_spaces",
    "enumerate_t0_spaces",
]

DEFAULT_MAX_POINTS = 12
DEFAULT_MAX_GROUP_ORDER = 40320
#: Cap on the normal subgroups the closed-form census builds, checked
#: against their count before any is built.
MAX_CENSUS = 4096


class FiniteSpace:
    """A finite topological space given by its minimal open sets.

    ``points`` fixes the reporting order, and the space is held as one
    bitmask per point: bit j of ``_masks[i]`` is set when point j lies in
    U_i.  ``min_open``, each point name mapped to the member names of its
    minimal open set, is built from the masks on first read.  A space is
    fixed once built, so the kernel's structure (``_structure``),
    ``cb_data``, ``similarity_partition``, ``homeo_group`` and
    ``is_fully_transitive`` each derive their result once per space
    object, keep it in ``_derived`` and hand the same object to every
    later call.
    """

    def __init__(self, points, min_open):
        """From a table mapping each point name to the member names of its
        minimal open set.

        Errors come in this order: a point with no entry, then, point by
        point, an unknown member or a point missing from its own set, then
        an entry for an unknown point, then the first point (in point
        order) whose set holds a point with a set not inside its own.
        """
        points = tuple(points)
        index = _point_index(points)
        masks = []
        for x, name in enumerate(points):
            if name not in min_open:
                raise ValidationError(f"no minimal open set given for {name!r}")
            mask = 0
            for m in min_open[name]:
                i = index.get(m)
                if i is None:
                    raise ValidationError(f"unknown point {m!r} in the minimal open set of {name!r}")
                mask |= 1 << i
            if not (mask >> x) & 1:
                raise _reflexivity_error(name)
            masks.append(mask)
        for name in min_open:
            if name not in index:
                raise ValidationError(f"minimal open set given for unknown point {name!r}")
        self._adopt(points, index, masks)

    @classmethod
    def from_masks(cls, points, masks) -> FiniteSpace:
        """From one bitmask per point over the point order: bit j of
        ``masks[i]`` set when point j lies in U_i.  Validated like a table:
        point by point, a bit past the last point or a point missing from
        its own set, then transitivity."""
        points, masks = tuple(points), tuple(masks)
        index = _point_index(points)
        n = len(points)
        if len(masks) != n:
            raise ValidationError(f"{len(masks)} minimal open sets given for {n} points")
        for x, mask in enumerate(masks):
            if mask < 0 or mask >> n:
                raise ValidationError(
                    f"minimal open set of {points[x]!r} holds a point outside the space"
                )
            if not (mask >> x) & 1:
                raise _reflexivity_error(points[x])
        space = cls.__new__(cls)
        space._adopt(points, index, masks)
        return space

    def _adopt(self, points, index, masks):
        """Check transitivity (``_intransitive``) and take the masks."""
        bad = _intransitive(masks)
        if bad is not None:
            x, y = points[bad[0]], points[bad[1]]
            raise ValidationError(
                f"transitivity violated: {y!r} lies in the minimal open set of "
                f"{x!r} but U_{y} is not contained in U_{x}"
            )
        self.points = points
        self._index = index
        self._masks = tuple(masks)
        self._min_open = None
        self._derived = {}

    @property
    def min_open(self) -> dict[str, frozenset[str]]:
        """Each point name -> the member names of its minimal open set."""
        if self._min_open is None:
            points = self.points
            self._min_open = {
                name: frozenset([points[j] for j in _bits(mask)])
                for name, mask in zip(points, self._masks)
            }
        return self._min_open

    def _mask(self, names) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._index[name]
        return mask

    def _names(self, mask) -> tuple[str, ...]:
        return tuple(name for i, name in enumerate(self.points) if (mask >> i) & 1)

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownPointError(f"unknown point {name!r}") from None

    def closure(self, names) -> frozenset[str]:
        """Smallest closed superset: the points whose minimal open meets the set."""
        mask = self._mask(frozenset(names))
        return frozenset(self.points[i] for i in range(self.size) if self._masks[i] & mask)

    def open_sets(self) -> list[frozenset[str]]:
        """Every open set, as unions of minimal opens (exponential; small spaces only)."""
        if self.size > 16:
            raise BoundExceededError("open-set enumeration is limited to 16 points")
        found = set()
        for olist in itertools.chain.from_iterable(
            itertools.combinations(range(self.size), r) for r in range(self.size + 1)
        ):
            mask = 0
            for i in olist:
                mask |= self._masks[i]
            found.add(mask)
        return sorted((frozenset(self._names(m)) for m in found), key=lambda s: (len(s), sorted(s)))

    @classmethod
    def parse(cls, text: str) -> FiniteSpace:
        """Parse the text format: one ``name: m1 m2 m3`` line per point."""
        points, table = [], {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ParseError("expected 'name: members'", line=lineno)
            name, _, rest = line.partition(":")
            name = name.strip()
            if not name:
                raise ParseError("empty point name", line=lineno)
            if name in table:
                raise ValidationError(f"duplicate point name {name!r}")
            points.append(name)
            table[name] = rest.split()
        return cls(points, table)

    def to_text(self) -> str:
        points = self.points
        lines = [
            f"{name}: {' '.join([points[j] for j in _bits(mask)])}"
            for name, mask in zip(points, self._masks)
        ]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self._masks == other._masks

    def __hash__(self):
        return hash((self.points, self._masks))

    def __repr__(self):
        return f"FiniteSpace({list(self.points)!r})"


def _point_index(points):
    """Each point name's position; duplicate names are refused."""
    index = {name: i for i, name in enumerate(points)}
    if len(index) != len(points):
        raise ValidationError("duplicate point names")
    return index


def _intransitive(masks):
    """The first (x, y) with y in U_x but U_y not inside U_x, or None when
    the masks are transitive: for each x in point order, the members of
    U_x other than x are walked in point order."""
    for x, mask in enumerate(masks):
        outside = ~mask
        below = mask & ~(1 << x)
        while below:
            low = below & -below
            y = low.bit_length() - 1
            if masks[y] & outside:
                return x, y
            below ^= low
    return None


def _reflexivity_error(name):
    return ValidationError(f"reflexivity violated: {name!r} not in its own minimal open set")


def _derive(space, key, compute):
    """compute(space), run once per space object and kept in its ``_derived``."""
    derived = space._derived
    if key not in derived:
        derived[key] = compute(space)
    return derived[key]


def _structure(space):
    """The space's kernel structure ``(masks, member)``, built once:
    member[i] is the mask of the points whose minimal open set holds i."""
    masks = space._masks
    return _derive(space, "structure", lambda _: (masks, pure.transpose(masks)))


@dataclass(frozen=True)
class CBData:
    """Derived sequence, per-point ranks and the space rank."""

    levels: tuple[frozenset[str], ...]
    rank_of: MappingProxyType[str, int]
    rank: int
    scattered: bool


def cb_data(space: FiniteSpace) -> CBData:
    """The derived-set sequence up to stabilisation, and each point's rank.

    A point of a subset A is in A's derived set iff its minimal open set
    meets A in more than the point itself.
    """
    return _derive(space, "cb_data", _cb_data)


def _cb_data(space):
    # A point leaves the derived sets one level after the last point below
    # it (at level 0 if nothing is below it), so its rank is one more than
    # the largest rank in U_x - {x}.  Visiting the points by |U_x| reaches
    # every point after all the points below it.  A point that shares its
    # minimal open set with another, or lies above such a point, never
    # leaves: together they are the perfect kernel, ranked at the top.
    masks, n = space._masks, space.size
    counts = [mask.bit_count() for mask in masks]
    shared = ()
    if len(set(masks)) < n:
        seen, shared = set(), set()
        for mask in masks:
            (shared if mask in seen else seen).add(mask)
    ranks = [0] * n
    of_rank = [0] * (n + 1)  # of_rank[k]: the points of rank k, as a mask
    rank = kernel = 0  # rank: how many ranks are taken so far
    for x in sorted(range(n), key=counts.__getitem__):
        bit = 1 << x
        below = masks[x] ^ bit
        if below & kernel or masks[x] in shared:
            kernel |= bit
            continue
        # a point of rank k has k points below it, so the largest rank in
        # below is under |below|: scan down from there
        r = counts[x] - 1
        if r > rank:
            r = rank
        while r and not below & of_rank[r - 1]:
            r -= 1
        ranks[x] = r
        of_rank[r] |= bit
        if r == rank:
            rank += 1
    if kernel:
        for i in _bits(kernel):
            ranks[i] = rank
    # level k holds exactly the points of rank >= k
    by_rank = [[] for _ in range(rank + 1)]
    for name, r in zip(space.points, ranks):
        by_rank[r].append(name)
    levels, level = [], frozenset()
    for names in reversed(by_rank):
        level = level.union(names)
        levels.append(level)
    return CBData(
        levels=tuple(reversed(levels)),
        rank_of=MappingProxyType(dict(zip(space.points, ranks))),
        rank=rank,
        scattered=not kernel,
    )


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    scattered: bool


def separation_report(space: FiniteSpace) -> SeparationReport:
    masks = space._masks
    t0 = len(set(masks)) == len(masks)
    t1 = all(masks[i] == 1 << i for i in range(space.size))
    return SeparationReport(t0=t0, t1=t1, scattered=cb_data(space).scattered)


def _submasks(space: FiniteSpace, indices: tuple[int, ...]) -> list[int]:
    """Minimal opens of an open subset, translated to local indices."""
    local = {g: l for l, g in enumerate(indices)}
    out = []
    for g in indices:
        m = 0
        for member in _bits(space._masks[g]):
            if member in local:
                m |= 1 << local[member]
        out.append(m)
    return out


def similarity_witness(space: FiniteSpace, x: str, y: str) -> dict[str, str] | None:
    """An isomorphism of minimal open neighbourhoods sending x to y, if any.

    Minimal opens are themselves neighbourhoods, and any neighbourhood
    isomorphism restricts to one of the minimal opens, so this criterion
    decides similarity; ``similar_exhaustive`` is the brute-force
    cross-check over all open pairs.
    """
    ix, iy = space.index(x), space.index(y)
    ux, uy = space._masks[ix], space._masks[iy]
    if ux.bit_count() != uy.bit_count():
        return None
    if ux == 1 << ix and uy == 1 << iy:
        return {x: y}
    a_idx = tuple(_bits(ux))
    b_idx = tuple(_bits(uy))
    pins = [(a_idx.index(ix), b_idx.index(iy))]
    found = isomorphisms(_submasks(space, a_idx), _submasks(space, b_idx), pins=pins, limit=1)
    if not found:
        return None
    return {space.points[a_idx[l]]: space.points[b_idx[m]] for l, m in enumerate(found[0])}


def similar(space: FiniteSpace, x: str, y: str) -> bool:
    return similarity_witness(space, x, y) is not None


def similar_exhaustive(space: FiniteSpace, x: str, y: str) -> bool:
    """Search all pairs of open neighbourhoods for a witness isomorphism."""
    ix, iy = space.index(x), space.index(y)
    opens = space.open_sets()
    opens_x = [o for o in opens if x in o]
    opens_y = [o for o in opens if y in o]
    for ox in opens_x:
        a_idx = tuple(sorted(space.index(p) for p in ox))
        sub_a = _submasks(space, a_idx)
        for oy in opens_y:
            if len(ox) != len(oy):
                continue
            b_idx = tuple(sorted(space.index(p) for p in oy))
            sub_b = _submasks(space, b_idx)
            pins = [(a_idx.index(ix), b_idx.index(iy))]
            if isomorphisms(sub_a, sub_b, pins=pins, limit=1):
                return True
    return False


@dataclass(frozen=True)
class SimilarityPartition:
    """Similarity classes in point order, with the shared rank per block."""

    blocks: tuple[tuple[str, ...], ...]
    rank_of: MappingProxyType[str, int]

    def block_of(self, name: str) -> tuple[str, ...]:
        for block in self.blocks:
            if name in block:
                return block
        raise UnknownPointError(f"unknown point {name!r}")

    def block_rank(self, block) -> int:
        return self.rank_of[block[0]]


def similarity_partition(space: FiniteSpace) -> SimilarityPartition:
    return _derive(space, "similarity_partition", _similarity_partition)


def _similarity_partition(space):
    data = cb_data(space)
    blocks: list[list[str]] = []
    for name in space.points:
        for block in blocks:
            rep = block[0]
            if data.rank_of[rep] == data.rank_of[name] and similar(space, rep, name):
                block.append(name)
                break
        else:
            blocks.append([name])
    return SimilarityPartition(
        blocks=tuple(tuple(b) for b in blocks),
        rank_of=data.rank_of,
    )


def _stabiliser_chain(structure, refined):
    """The chain of the group of permutations p with p(masks[i]) ==
    masks[p(i)] for every i, from pinned kernel searches on the kernel
    structure (masks, member).  ``refined`` is ``refine_colors(structure,
    structure)``: each point's cell in the coarsest equitable partition,
    which every such p preserves, and the settled points, those alone in
    their cell.

    Level i pins 0..i-1 to themselves.  The orbit of i is first grown by
    closure under the elements already found that fix that prefix; then
    one ``limit=1`` search at a time asks for an element sending i into
    the part of its candidate cell not yet reached, until none exists.
    When no element fixing the prefix is known, one ``limit=2`` search
    either finds one or shows the prefix's pointwise stabiliser is
    trivial, which ends the chain, so a rigid structure costs at most one
    search.  A point whose cell holds no other unpinned point is fixed,
    and its level needs no search.  The settled points are passed to every
    search: assigned up front, never checked.
    """
    n = len(structure[0])
    identity = tuple(range(n))
    cand, fixed = refined
    pinned = list(cand)
    chain = []
    known = []  # elements found so far that fix 0..i-1
    for i in range(n):
        cell = cand[i] >> i << i
        if cell != 1 << i:
            if not known:
                found = pure.search(structure, structure, pinned, 2, fixed)
                known = [g for g in found if g != identity]
                if not known:
                    break
            orbit = _grow_orbit({i: identity}, known)
            reached = sum(1 << j for j in orbit)
            while cell & ~reached:
                pinned[i] = cell & ~reached
                found = pure.search(structure, structure, pinned, 1, fixed)
                if not found:
                    break
                known.append(found[0])
                _grow_orbit(orbit, known)
                reached = sum(1 << j for j in orbit)
            if len(orbit) > 1:
                chain.append((i, orbit))
            known = [g for g in known if g[i] == i]
        pinned[i] = 1 << i
    return chain


def homeo_group(space: FiniteSpace, max_points: int = DEFAULT_MAX_POINTS) -> PermutationGroup:
    """All permutations preserving the minimal-open-set assignment, as a
    stabiliser chain on the base of the point order.

    The candidate images of a point are its cell under colour refinement
    from the uniform colouring (``refine_colors``), which already separates
    the CB rank, the minimal open size and the closure size;
    ``_stabiliser_chain`` then makes the pinned kernel searches.  No
    element is listed until one is asked for.
    """
    n = space.size
    if n > max_points:
        raise BoundExceededError(
            f"space has {n} points, above the bound of {max_points}; raise max_points to force"
        )
    return _derive(space, "homeo_group", _homeo_group)


def _homeo_group(space):
    structure = _structure(space)
    chain = _stabiliser_chain(structure, refine_colors(structure, structure))
    return PermutationGroup._from_chain(space.points, chain)


def fixator(group: PermutationGroup, names) -> PermutationGroup:
    """The subgroup fixing the given points one by one, from the group's
    generators; no element is listed."""
    idx = []
    for name in names:
        if name not in group.ground:
            raise UnknownPointError(f"unknown point {name!r}")
        idx.append(group.ground.index(name))
    return group.pointwise_stabiliser(idx)


@dataclass(frozen=True)
class FullTransitivityReport:
    holds: bool
    expected_order: int
    failure: tuple[tuple[str, ...], tuple[str, ...]] | None
    group: PermutationGroup = field(compare=False)
    partition: SimilarityPartition = field(compare=False)


def is_fully_transitive(
    space: FiniteSpace, max_points: int = DEFAULT_MAX_POINTS
) -> FullTransitivityReport:
    """Decide full transitivity by two methods that must agree.

    (a) The direct check: every pair of distinct-entry tuples with
    coordinatewise similar points is realised by some homeomorphism, for
    every tuple length up to the point count.  It rests on induction on
    the length k: if G is transitive on the injective (k-1)-tuples of
    each block signature, it is transitive on the k-tuples iff, for every
    (k-1)-point prefix P, the pointwise stabiliser G_(P) is transitive on
    B minus P for each similarity block B.  Under the (k-1) case two
    prefixes with the same count vector (m_B)_B are conjugate, and G_(P)
    depends only on the set P, so one prefix per vector is enough: the
    first m_B points of each block with more than one point.  The checks
    run by increasing sum of m_B, so the first that fails lies at the
    first failing level.  Bounding m_B < |B| and skipping singleton
    blocks loses nothing there: every homeomorphism fixes a singleton
    block's point and, once |B| - 1 points of B are fixed, the last one,
    so a failing prefix holding such a point or a whole block would have
    failed one level lower.  Transitivity of G_(P) on B minus P is |B minus P| - 1 kernel
    searches for one homeomorphism each, pinning P pointwise and the
    first point of B minus P to each other one (the individualisation step
    of McKay & Piperno, Practical graph isomorphism II, 2014).  The
    search candidates of a point are its similarity block, since a
    homeomorphism keeps every point in its block.  The ``failure`` pair is
    the first tuple, in ``itertools.permutations`` order, that some
    coordinatewise similar tuple is not an image of, with the first such
    image in ``itertools.product`` order.  (b) The order
    formula |Homeo| = prod |X_i|! over the similarity blocks.  (a) never
    reads the group, so the two stay independent; disagreement raises
    InternalCheckError.
    """
    n = space.size
    if n > max_points:
        raise BoundExceededError(f"space has {n} points, above the bound of {max_points}")
    return _derive(space, "full_transitivity", _full_transitivity)


def _full_transitivity(space):
    part = similarity_partition(space)
    group = homeo_group(space, max_points=space.size)  # the caller checked the bound
    expected = 1
    for block in part.blocks:
        expected *= factorial(len(block))
    order_ok = group.order == expected
    failure = _direct_failure(space, part)
    direct_ok = failure is None
    if direct_ok != order_ok:
        raise InternalCheckError(
            f"full-transitivity methods disagree: direct={direct_ok}, "
            f"order formula={order_ok} (|G|={group.order}, expected={expected})"
        )
    return FullTransitivityReport(
        holds=direct_ok,
        expected_order=expected,
        failure=failure,
        group=group,
        partition=part,
    )


def _direct_failure(space, part):
    """The first unrealised pair (xs, ys) of the direct check, or None.

    See ``is_fully_transitive`` for the criterion.  Each stabiliser check
    is named by the tuple xs = sorted(P) + (first point u of B minus P),
    and the checks run in (length, xs) order, so the first that fails is
    the first failing tuple: the first m_B points of each block give the
    least sorted prefix of any set with those counts.  Its first
    unrealised image keeps the prefix, which is the first injective one
    of its signature, and sends u to the first point of B the check
    found out of reach.
    """
    structure = _structure(space)
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


@dataclass(frozen=True)
class SwapResult:
    """Outcome of the clopen swap construction."""

    ok: bool
    permutation: dict[str, str] | None
    reason: str | None
    piece_x: tuple[str, ...] = ()
    piece_y: tuple[str, ...] = ()


def _component(structure, start):
    """The connected component of ``start`` in the comparability graph of
    the kernel structure (masks, member), as a bitmask."""
    masks, member = structure
    comp = frontier = 1 << start
    while frontier:
        near = 0
        for v in _bits(frontier):
            near |= masks[v] | member[v]
        frontier = near & ~comp
        comp |= frontier
    return comp


def swap_homeo(space: FiniteSpace, x: str, y: str, fixed=()) -> SwapResult:
    """The three-case swap: h on a clopen piece around x, its inverse on a
    disjoint clopen piece around y, identity elsewhere.

    The pieces are the components around x and y of ``sub``, the
    structure of the masks with the fixed set's rows and bits cleared,
    built once for both component walks, the refinement and the search
    on ``sub``.  One refinement of ``sub`` gives every point its
    candidate images, narrowed so that each piece maps onto the other,
    x to y and every other point to itself.  Every swap fixes the fixed
    set pointwise, so it is an automorphism of ``sub`` and lies within
    the candidates.  Searched on the whole space's own structure, they
    give a homeomorphism p, and the swap glued from p on x's piece and
    its inverse is then one too; every homeomorphic swap is such a p.
    When there is none, a search on ``sub`` tells whether the pieces are
    isomorphic with x -> y at all, which deleting the fixed set can allow
    while minimal opens that straddle a piece forbid every swap.  Only
    the search on ``sub`` is given its settled points: a point alone in
    its cell of ``sub`` is not checked against the fixed set.
    """
    ix, iy = space.index(x), space.index(y)
    fixed = tuple(fixed)
    fixed_idx = {space.index(f) for f in fixed}
    if ix in fixed_idx or iy in fixed_idx:
        raise DomainError("x and y must avoid the fixed set")
    if not similar(space, x, y):
        raise DomainError(f"{x!r} and {y!r} are not similar")
    n = space.size
    if ix == iy:
        return SwapResult(True, {p: p for p in space.points}, None, (x,), (y,))
    rest = ((1 << n) - 1) & ~sum(1 << i for i in fixed_idx)
    cleared = [m & rest if rest >> i & 1 else 0 for i, m in enumerate(space._masks)]
    sub = (cleared, pure.transpose(cleared))
    comp_x = _component(sub, ix)
    if comp_x >> iy & 1:
        return SwapResult(
            False,
            None,
            "x and y lie in the same connected component of the space minus the "
            "fixed set, so no disjoint clopen pieces around them exist",
        )
    comp_y = _component(sub, iy)
    piece_x = tuple(space.points[i] for i in _bits(comp_x))
    piece_y = tuple(space.points[i] for i in _bits(comp_y))
    if len(piece_x) != len(piece_y):
        return SwapResult(
            False, None,
            "the clopen pieces around x and y have different sizes",
            piece_x, piece_y,
        )
    cand, settled = refine_colors(sub, sub)
    for i in range(n):
        if comp_x >> i & 1:
            cand[i] &= comp_y
        elif comp_y >> i & 1:
            cand[i] &= comp_x
        else:
            cand[i] = 1 << i
    cand[ix] &= 1 << iy
    whole = _structure(space)
    found = pure.search(whole, whole, cand, 1)
    if not found:
        if not pure.search(sub, sub, cand, 1, settled):
            reason = "the clopen pieces around x and y admit no isomorphism carrying x to y"
        else:
            reason = "every candidate swap breaks a minimal open set that meets the fixed set"
        return SwapResult(False, None, reason, piece_x, piece_y)
    p, perm = found[0], list(range(n))
    for i in _bits(comp_x):
        perm[i], perm[p[i]] = p[i], i
    if not _is_homeo(space, perm):
        raise InternalCheckError(f"the swap of {x!r} and {y!r} glued from a homeomorphism is not one")
    return SwapResult(
        True,
        {space.points[i]: space.points[perm[i]] for i in range(n)},
        None,
        piece_x,
        piece_y,
    )


def _is_homeo(space, perm) -> bool:
    for i in range(space.size):
        image = 0
        for j in _bits(space._masks[i]):
            image |= 1 << perm[j]
        if image != space._masks[perm[i]]:
            return False
    return True


def conjugacy_classes(group: PermutationGroup) -> list[frozenset[tuple[int, ...]]]:
    """Orbits under conjugation, in order of their lex-first members."""
    gens_with_inv = [(g, _inverse(g)) for g in group.generators]
    seen, classes = set(), []
    for rep in group.sorted_elements():
        if rep in seen:
            continue
        orbit, frontier = {rep}, [rep]
        for h in frontier:
            for g, g_inv in gens_with_inv:
                c = _compose(g, _compose(h, g_inv))
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def normal_subgroups(group: PermutationGroup) -> list[PermutationGroup]:
    """All normal subgroups, by order and then by lex listing.

    A group that is the product of the symmetric groups on its orbits, as
    the homeomorphism group of a fully transitive space is, has them in
    closed form (``_closed_form_census``): no element is listed, and the
    only bound is ``MAX_CENSUS`` on their number, checked before any is
    built.  Any other group is searched as the closed sets of its
    conjugacy classes (``_class_mask_census``), within
    ``DEFAULT_MAX_GROUP_ORDER``.
    """
    orbits = _product_orbits(group)
    if orbits is None:
        return _class_mask_census(group)
    if not orbits:  # the trivial group, a rigid space's; the census gives [group] too, slower
        return [group]
    return sorted((sub for sub, _, _ in _closed_form_census(group, orbits)), key=by_order_then_lex)


def _product_orbits(group):
    """The orbits of more than one point, as sorted index lists, when the
    group is the product of the symmetric groups on its orbits, else None.
    Every group lies in that product, so it is the product exactly when its
    order is the product of the orbit sizes' factorials."""
    gens = group.generators
    seen, orbits = set(), []
    for g in gens:
        for p, q in enumerate(g):
            if p != q and p not in seen:
                seen.add(p)
                orbit = [p]
                for x in orbit:
                    for h in gens:
                        if h[x] not in seen:
                            seen.add(h[x])
                            orbit.append(h[x])
                orbits.append(sorted(orbit))
    if group.order != prod(factorial(len(orbit)) for orbit in orbits):
        return None
    return sorted(orbits)


def _orbit_roles(n):
    """(role, order, index 2) for each normal subgroup of Sym(n), named by
    its ``_role_generators`` role.  For n >= 2 exactly one has index 2: the
    trivial group for n = 2, else the alternating group."""
    roles = [("J", 1, n == 2), ("free", factorial(n), False)]
    if n >= 3:
        roles.append(("K", factorial(n) // 2, True))
    if n == 4:
        roles.append(("L", 4, False))
    return roles


def _unit_free_bases(t):
    """The reduced echelon basis, as bitmasks, of each subspace of F_2^t
    that holds no unit vector.

    A subspace has one such basis, and a vector in it is fixed by its
    coordinates on the pivot columns, so it holds e_j exactly when j is a
    pivot whose row is e_j.  Scanning the columns from the last, each is
    either a non-pivot or a pivot whose row adds a nonempty subset of the
    non-pivot columns after it.
    """

    def scan(c, free, rows):
        if c < 0:
            yield rows
            return
        yield from scan(c - 1, free + [1 << c], rows)
        for subset in range(1, 1 << len(free)):
            row = 1 << c | sum(bit for k, bit in enumerate(free) if subset >> k & 1)
            yield from scan(c - 1, free, rows + [row])

    return scan(t - 1, [], [])


def _unit_free_count(t):
    """How many bases ``_unit_free_bases(t)`` yields, by its scan: ways[m]
    counts the echelon forms of the columns scanned so far that have m
    non-pivots, and a pivot column has 2^m - 1 rows to choose from."""
    ways = [1]
    for _ in range(t):
        ways = [w * ((1 << m) - 1) + (ways[m - 1] if m else 0) for m, w in enumerate(ways + [0])]
    return sum(ways)


def _census_size(orbits):
    """The number of normal subgroups of prod Sym(O_i): the sum over role
    choices of ``_unit_free_count(|T|)``.  Each orbit has one index-2 role,
    so the role choices with |T| = t are the x^t coefficient of the
    product over the orbits of (the number of other roles + x)."""
    poly = [1]
    for orbit in orbits:
        others = len(_orbit_roles(len(orbit))) - 1
        poly = [a * others + b for a, b in zip(poly + [0], [0] + poly)]
    return sum(c * _unit_free_count(t) for t, c in enumerate(poly))


def _closed_form_census(group, orbits):
    """Every normal subgroup N of G = prod Sym(O_i), with the role of each
    orbit and the dimension of its D, on the orbits ``_product_orbits``
    returned.

    N_i = N meet Sym(O_i) is normal in Sym(O_i), so it is 1, A_n, V_4 or
    S_n, and N / prod N_i is central in prod Sym(O_i) / N_i, whose centre
    is F_2^T on the orbits T where N_i has index 2.  So N is a choice of
    the N_i and a subspace D of F_2^T holding no unit vector (a unit vector
    would enlarge N_i), and each basis vector of D adds the transposition
    (o0 o1) of every orbit in its support (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, 2005, 3.3).  The census is counted and
    bounded first.  N = G and N = 1 are the group itself and the trivial
    group.  Every other N is built from its generators: its order must be
    prod |N_i| 2^dim D, it must be normal, and it must not hold (o0 o1) for
    an orbit of T, so that it meets each Sym(O_i) in N_i and no two choices
    give the same N.
    """
    count = _census_size(orbits)
    if count > MAX_CENSUS:
        raise BoundExceededError(
            f"the group has {count} normal subgroups, above the bound of {MAX_CENSUS} "
            "on building them"
        )
    n = len(group.ground)
    census = []
    for choice in itertools.product(*(_orbit_roles(len(orbit)) for orbit in orbits)):
        roles = [role for role, _, _ in choice]
        base = [g for role, orbit in zip(roles, orbits) for g in _role_generators(role, orbit, n)]
        base_order = prod(size for _, size, _ in choice)
        signs = [orbit[:2] for (_, _, two), orbit in zip(choice, orbits) if two]
        for rows in _unit_free_bases(len(signs)):
            if not rows and all(role == "free" for role in roles):
                sub = group
            elif not rows and all(role == "J" for role in roles):
                sub = PermutationGroup.trivial(group.ground)
            else:
                gens = base + [_perm_of_cycles([signs[k] for k in _bits(row)], n) for row in rows]
                sub = PermutationGroup.from_generators(group.ground, gens)
                order = base_order << len(rows)
                if sub.order != order:
                    raise InternalCheckError(
                        f"normal subgroup of order {sub.order} does not match its closed-form "
                        f"order {order}"
                    )
                if not group.is_normal(sub):
                    raise InternalCheckError(f"subgroup of order {sub.order} is not normal")
                for sign in signs:
                    swap = _perm_of_cycles([sign], n)
                    if swap in sub:
                        raise InternalCheckError(
                            f"subgroup of order {sub.order} holds the transposition "
                            f"{group.cycle_string(swap)} of an index-2 orbit"
                        )
            census.append((sub, tuple(roles), len(rows)))
    return census


def _class_mask_census(group):
    """All normal subgroups of any group within ``DEFAULT_MAX_GROUP_ORDER``,
    by order and then by lex listing.

    A normal subgroup is a union of conjugacy classes that holds the
    identity and is closed under products (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, 2005), so the lattice is searched on
    bitmasks over the classes.  Classes A and B meet in A B the classes of
    r y for one r in A and every y in B, as g (r y) g^-1 = (g r g^-1)(g y g^-1);
    r y is conjugate to y r, so the smaller class is the one walked.  Each
    subgroup is built by Schreier-Sims from the classes it was joined from;
    its order must equal the total size of its classes, and it must be
    normal in the group.  Last, each class size must divide the group
    order, which catches a class list that is wrong but closed under the
    products it implies.
    """
    if group.order > DEFAULT_MAX_GROUP_ORDER:
        raise BoundExceededError(
            f"group order {group.order} is above the bound of {DEFAULT_MAX_GROUP_ORDER}"
        )
    classes = [sorted(cls) for cls in conjugacy_classes(group)]
    class_of = {g: k for k, cls in enumerate(classes) for g in cls}
    products = [[0] * len(classes) for _ in classes]  # [a][b]: the classes that A B meets
    for a, b in itertools.combinations_with_replacement(range(len(classes)), 2):
        small, large = sorted((classes[a], classes[b]), key=len)
        products[a][b] = products[b][a] = sum({1 << class_of[_compose(large[0], y)] for y in small})
    found = {1 << class_of[group.identity]: []}  # closed mask -> the classes it was joined from
    todo = list(found)
    while todo:
        mask = todo.pop()
        for k in range(len(classes)):
            if not (mask >> k) & 1:
                join = _close_classes(products, mask, k)
                if join not in found:
                    found[join] = found[mask] + [k]
                    todo.append(join)
    groups = []
    for mask, joined in found.items():
        sub = PermutationGroup.from_generators(group.ground, [g for k in joined for g in classes[k]])
        size = sum(len(classes[k]) for k in _bits(mask))
        if sub.order != size:
            raise InternalCheckError(
                f"normal subgroup of order {sub.order} does not match the {size} elements "
                "of its conjugacy classes"
            )
        if not group.is_normal(sub):
            raise InternalCheckError(f"subgroup of order {sub.order} is not normal")
        groups.append(sub)
    for cls in classes:
        if group.order % len(cls):
            raise InternalCheckError(
                f"conjugacy class of {len(cls)} elements in a group of order {group.order}"
            )
    groups.sort(key=by_order_then_lex)
    return groups


def _close_classes(products, mask, k):
    """The smallest closed mask holding the closed ``mask``, a normal
    subgroup M, and class k, K: the union of the K^n M.  K^(n+1) M is K^n M
    times K, so after K M each class reached is multiplied by K alone."""
    grown = mask
    for b in _bits(mask):
        grown |= products[k][b]
    todo = list(_bits(grown & ~mask))
    while todo:
        reached = products[todo.pop()][k] & ~grown
        grown |= reached
        todo += _bits(reached)
    return grown


@dataclass(frozen=True)
class Remark19Report:
    """Normal-subgroup census against the three-role candidate list.

    Candidates: choose disjoint block sets J (pointwise fixed), K (even
    restriction, block size >= 3) and L (identity or fixed-point-free
    involution, block size exactly 4); unrestricted elsewhere.  The
    off-list normal subgroups are the sign diagonals.
    """

    candidates: tuple[tuple[tuple[str, ...], PermutationGroup], ...]
    off_list: tuple[PermutationGroup, ...]

    @property
    def matches_exactly(self) -> bool:
        return not self.off_list


def _role_generators(role, block, n):
    """Generators, on n points, of a role's subgroup of Sym(block): the
    adjacent transpositions for "free", the 3-cycles (b0 b1 bi), which
    generate the alternating group, for K, the two double transpositions
    (b0 b1)(b2 b3) and (b0 b2)(b1 b3) of V_4 for L, and none for J."""
    cycles = {
        "free": [[block[i:i + 2]] for i in range(len(block) - 1)],
        "K": [[(block[0], block[1], b)] for b in block[2:]],
        "L": [[block[0:2], block[2:4]], [block[0::2], block[1::2]]],
        "J": [],
    }
    return [_perm_of_cycles(gen, n) for gen in cycles[role]]


def _perm_of_cycles(cycles, n):
    """The permutation of n points made of the given disjoint cycles."""
    perm = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return tuple(perm)


def verify_remark19(space: FiniteSpace) -> Remark19Report:
    """Compare the candidate list with the normal subgroups of a fully
    transitive space's homeomorphism group G.

    Full transitivity gives |G| = prod |B_i|! and G preserves each
    similarity block B_i, so G = prod Sym(B_i): its orbits of more than one
    point must be those blocks.  The closed form then lists every normal
    subgroup, and must agree with the class-mask search, which knows
    nothing of roles.  Its D = 0 subgroups are the candidates, labelled by
    the role of each block ("J" for a one-point block, whose roles all give
    the same group); its others are the off-list ones.
    """
    ft = is_fully_transitive(space)
    if not ft.holds:
        raise DomainError("the candidate list applies to fully transitive spaces only")
    group = ft.group
    normal = _class_mask_census(group)
    block_idx = [sorted(map(space.index, block)) for block in ft.partition.blocks]
    orbits = _product_orbits(group)
    if orbits != sorted(idx for idx in block_idx if len(idx) > 1):
        raise InternalCheckError("the group is not the product of its blocks' symmetric groups")
    census = sorted(_closed_form_census(group, orbits), key=lambda c: by_order_then_lex(c[0]))
    if [sub for sub, _, _ in census] != normal:
        raise InternalCheckError("the closed-form census differs from the class-mask search")
    slot = {orbit[0]: k for k, orbit in enumerate(orbits)}
    return Remark19Report(
        candidates=tuple(
            (tuple(roles[slot[idx[0]]] if len(idx) > 1 else "J" for idx in block_idx), sub)
            for sub, roles, dim in census
            if not dim
        ),
        off_list=tuple(sub for sub, _, dim in census if dim),
    )


def enumerate_preorder_spaces(n: int):
    """All labelled topologies on n points a, b, c, ..., as minimal-open
    presentations."""
    if n > 5:
        raise BoundExceededError("labelled-topology enumeration is limited to 5 points")
    names = tuple("abcde"[:n])
    if n == 0:
        yield FiniteSpace.from_masks((), ())
        return
    choices = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        masks_i = []
        for extra in range(1 << (n - 1)):
            m = 1 << i
            for b, j in enumerate(others):
                if (extra >> b) & 1:
                    m |= 1 << j
            masks_i.append(m)
        choices.append(masks_i)
    for masks in itertools.product(*choices):
        if _intransitive(masks) is None:
            yield FiniteSpace.from_masks(names, masks)


def enumerate_t0_spaces(n: int):
    for space in enumerate_preorder_spaces(n):
        if len(set(space._masks)) == space.size:
            yield space
