"""Finite topological spaces via minimal open sets, and their symmetries.

A finite space is presented Alexandrov-style: each point x carries the
minimal open set U_x containing it.  Validity means x is in U_x and
y in U_x implies U_y is a subset of U_x; every open set is then a union
of minimal opens, and the self-homeomorphisms are exactly the
permutations h with h(U_x) = U_{h(x)}.

The module computes Cantor-Bendixson data, similarity classes, the full
homeomorphism group (as a stabiliser chain from pinned searches),
fixators, full transitivity by two independent methods, swap witnesses,
and the normal subgroup lattice of small permutation groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial
from types import MappingProxyType

from ._kernels import _bits, candidates, isomorphisms, pure, settled
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


class FiniteSpace:
    """A finite topological space given by its minimal open sets.

    ``points`` fixes the reporting order; ``min_open`` maps each point
    name to the member set of its minimal open neighbourhood.  A space is
    fixed once built, so ``cb_data``, ``similarity_partition``,
    ``homeo_group`` and the direct check of ``is_fully_transitive`` each
    derive their result once per space object, keep it in ``_derived`` and
    hand the same object to every later call.
    """

    def __init__(self, points, min_open):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValidationError("duplicate point names")
        index = {name: i for i, name in enumerate(points)}
        opens, inside, masks = {}, [], []
        for name in points:
            if name not in min_open:
                raise ValidationError(f"no minimal open set given for {name!r}")
            given = list(min_open[name])
            members, mask = [], 0
            for m in given:
                i = index.get(m)
                if i is None:
                    raise ValidationError(f"unknown point {m!r} in the minimal open set of {name!r}")
                members.append(i)
                mask |= 1 << i
            if not (mask >> index[name]) & 1:
                raise ValidationError(f"reflexivity violated: {name!r} not in its own minimal open set")
            opens[name] = frozenset(given)
            inside.append(members)
            masks.append(mask)
        for name in min_open:
            if name not in index:
                raise ValidationError(f"minimal open set given for unknown point {name!r}")
        for x, mask in enumerate(masks):
            outside = ~mask
            for y in inside[x]:
                if masks[y] & outside:
                    y = min(z for z in inside[x] if masks[z] & outside)  # the first offender
                    raise ValidationError(
                        f"transitivity violated: {points[y]!r} lies in the minimal open set of "
                        f"{points[x]!r} but U_{points[y]} is not contained in U_{points[x]}"
                    )
        self.points = points
        self.min_open = opens
        self._index = index
        self._masks = tuple(masks)
        self._derived = {}

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
        lines = []
        for name in self.points:
            members = sorted(self.min_open[name], key=self._index.__getitem__)
            lines.append(f"{name}: {' '.join(members)}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self._masks == other._masks

    def __hash__(self):
        return hash((self.points, self._masks))

    def __repr__(self):
        return f"FiniteSpace({list(self.points)!r})"


@dataclass(frozen=True)
class CBData:
    """Derived sequence, per-point ranks and the space rank."""

    levels: tuple[frozenset[str], ...]
    rank_of: MappingProxyType[str, int]
    rank: int
    scattered: bool


def cb_data(space: FiniteSpace) -> CBData:
    """Iterate the derived-set operator to stabilisation.

    A point of a subset A is in A's derived set iff its minimal open set
    meets A in more than the point itself.
    """
    derived = space._derived
    if "cb_data" not in derived:
        derived["cb_data"] = _cb_data(space)
    return derived["cb_data"]


def _cb_data(space):
    masks, n = space._masks, space.size
    levels = []
    ranks = [0] * n
    current = (1 << n) - 1
    while True:
        levels.append(current)
        nxt = 0
        for i in _bits(current):
            if masks[i] & current != 1 << i:
                nxt |= 1 << i
            else:
                ranks[i] = len(levels) - 1  # i leaves the derived set here
        if nxt == current:
            break
        current = nxt
    rank = len(levels) - 1
    for i in _bits(current):  # the perfect kernel, which never empties
        ranks[i] = rank
    return CBData(
        levels=tuple(frozenset(space._names(m)) for m in levels),
        rank_of=MappingProxyType(dict(zip(space.points, ranks))),
        rank=rank,
        scattered=(levels[-1] == 0),
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
    derived = space._derived
    if "similarity_partition" not in derived:
        derived["similarity_partition"] = _similarity_partition(space)
    return derived["similarity_partition"]


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


def _stabiliser_chain(masks, cand):
    """The chain of the group of permutations p with p(masks[i]) ==
    masks[p(i)] and p(i) in cand[i] for every i, from pinned kernel
    searches; ``cand`` gives each point its cell in the equitable partition
    of ``candidates``, which every such p preserves.

    Level i pins 0..i-1 to themselves.  The orbit of i is first grown by
    closure under the elements already found that fix that prefix; then
    one ``limit=1`` search at a time asks for an element sending i into
    the part of its candidate cell not yet reached, until none exists.
    When no element fixing the prefix is known, one ``limit=2`` search
    either finds one or shows the prefix's pointwise stabiliser is
    trivial, which ends the chain, so a rigid structure costs at most one
    search.  A point whose cell holds no other unpinned point is fixed,
    and its level needs no search.  The points whose cell is a singleton
    are ``settled`` for every search: assigned up front, never checked.
    """
    n = len(masks)
    identity = tuple(range(n))
    fixed = settled(cand)
    pinned = list(cand)
    chain = []
    known = []  # elements found so far that fix 0..i-1
    for i in range(n):
        cell = cand[i] >> i << i
        if cell != 1 << i:
            if not known:
                known = [g for g in pure.search(masks, masks, pinned, 2, fixed) if g != identity]
                if not known:
                    break
            orbit = _grow_orbit({i: identity}, known)
            reached = sum(1 << j for j in orbit)
            while cell & ~reached:
                pinned[i] = cell & ~reached
                found = pure.search(masks, masks, pinned, 1, fixed)
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
    from the uniform colouring (``candidates``), which already separates
    the CB rank, the minimal open size and the closure size;
    ``_stabiliser_chain`` then makes the pinned kernel searches.  No
    element is listed until one is asked for.
    """
    n = space.size
    if n > max_points:
        raise BoundExceededError(
            f"space has {n} points, above the bound of {max_points}; raise max_points to force"
        )
    derived = space._derived
    if "homeo_group" not in derived:
        derived["homeo_group"] = _homeo_group(space)
    return derived["homeo_group"]


def _homeo_group(space):
    masks = space._masks
    chain = _stabiliser_chain(masks, candidates(masks, masks))
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
    direct_check: bool
    order_formula: bool
    group_order: int
    expected_order: int
    failure: tuple[tuple[str, ...], tuple[str, ...]] | None
    group: PermutationGroup = field(compare=False)
    partition: SimilarityPartition = field(compare=False)


def is_fully_transitive(
    space: FiniteSpace,
    max_points: int = DEFAULT_MAX_POINTS,
    group: PermutationGroup | None = None,
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
    part = similarity_partition(space)
    if group is None:
        group = homeo_group(space, max_points=max_points)
    expected = 1
    for block in part.blocks:
        expected *= factorial(len(block))
    order_ok = group.order == expected

    derived = space._derived
    if "direct_failure" not in derived:
        derived["direct_failure"] = _direct_failure(space, part)
    failure = derived["direct_failure"]
    direct_ok = failure is None

    if direct_ok != order_ok:
        raise InternalCheckError(
            f"full-transitivity methods disagree: direct={direct_ok}, "
            f"order formula={order_ok} (|G|={group.order}, expected={expected})"
        )
    return FullTransitivityReport(
        holds=direct_ok,
        direct_check=direct_ok,
        order_formula=order_ok,
        group_order=group.order,
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
    masks = space._masks
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
            # No point is passed as settled: the similarity blocks are not
            # an equitable partition, so the constraints against a point
            # alone in its block still need checking.
            if not pure.search(masks, masks, pinned, 1):
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


def _components(n, masks, inside_mask):
    """Connected components of the comparability graph on the given subset."""
    adj = [0] * n
    for i in _bits(inside_mask):
        m = masks[i] & inside_mask
        adj[i] |= m
        for j in _bits(m):
            adj[j] |= 1 << i
    comp_of = {}
    for start in _bits(inside_mask):
        if start in comp_of:
            continue
        comp = 1 << start
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in _bits(adj[v] & ~comp):
                comp |= 1 << w
                frontier.append(w)
        for v in _bits(comp):
            comp_of[v] = comp
    return comp_of


def swap_homeo(space: FiniteSpace, x: str, y: str, fixed=()) -> SwapResult:
    """The three-case swap: h on a clopen piece around x, its inverse on a
    disjoint clopen piece around y, identity elsewhere.

    The pieces are clopen in the subspace obtained by deleting the fixed
    set; the glued permutation is returned only after verifying it is a
    homeomorphism of the whole space, since deleting points can hide
    minimal opens that straddle a piece.
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
    sub_mask = 0
    for i in range(n):
        if i not in fixed_idx:
            sub_mask |= 1 << i
    sub_masks = [space._masks[i] & sub_mask for i in range(n)]
    comp_of = _components(n, sub_masks, sub_mask)
    if comp_of[ix] == comp_of[iy]:
        return SwapResult(
            False,
            None,
            "x and y lie in the same connected component of the space minus the "
            "fixed set, so no disjoint clopen pieces around them exist",
        )
    comp_x = tuple(_bits(comp_of[ix]))
    comp_y = tuple(_bits(comp_of[iy]))
    piece_x = tuple(space.points[i] for i in comp_x)
    piece_y = tuple(space.points[i] for i in comp_y)
    if len(comp_x) != len(comp_y):
        return SwapResult(
            False, None,
            "the clopen pieces around x and y have different sizes",
            piece_x, piece_y,
        )
    sub_a = _submasks(space, comp_x)
    sub_b = _submasks(space, comp_y)
    isos = isomorphisms(sub_a, sub_b, pins=[(comp_x.index(ix), comp_y.index(iy))])
    if not isos:
        return SwapResult(
            False, None,
            "the clopen pieces around x and y admit no isomorphism carrying x to y",
            piece_x, piece_y,
        )
    for iso in isos:
        perm = list(range(n))
        for l, m in enumerate(iso):
            perm[comp_x[l]] = comp_y[m]
            perm[comp_y[m]] = comp_x[l]
        if _is_homeo(space, perm):
            return SwapResult(
                True,
                {space.points[i]: space.points[perm[i]] for i in range(n)},
                None,
                piece_x,
                piece_y,
            )
    return SwapResult(
        False, None,
        "every candidate swap breaks a minimal open set that meets the fixed set",
        piece_x, piece_y,
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


def _check_order(group, max_order):
    if group.order > max_order:
        raise BoundExceededError(f"group order {group.order} is above the bound of {max_order}")


def normal_subgroups(
    group: PermutationGroup, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[PermutationGroup]:
    """All normal subgroups, by order and then by lex listing.

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
    _check_order(group, max_order)
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
    involution, block size exactly 4); unrestricted elsewhere.
    """

    candidates: tuple[tuple[tuple[str, ...], PermutationGroup], ...]
    normal: tuple[PermutationGroup, ...]
    off_list: tuple[PermutationGroup, ...]
    non_normal_candidates: tuple[PermutationGroup, ...]

    @property
    def ok(self) -> bool:
        return not self.non_normal_candidates

    @property
    def matches_exactly(self) -> bool:
        return self.ok and not self.off_list


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
    gens = []
    for gen in cycles[role]:
        perm = list(range(n))
        for cycle in gen:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
        gens.append(tuple(perm))
    return gens


def verify_remark19(
    space: FiniteSpace,
    max_points: int = DEFAULT_MAX_POINTS,
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> Remark19Report:
    """Compare the candidate list with the normal subgroups of a fully
    transitive space's homeomorphism group G.

    Each role assignment's candidate is generated by the role generators
    of its blocks.  That is the subgroup of G the roles describe, since
    full transitivity gives |G| = prod |B_i|! and G preserves each block,
    so G = prod Sym(B_i); each generator is still checked to lie in G.
    Assignments giving the same group are merged under the lex-least one.
    """
    ft = is_fully_transitive(space, max_points=max_points)
    if not ft.holds:
        raise DomainError("the candidate list applies to fully transitive spaces only")
    group, part = ft.group, ft.partition
    _check_order(group, max_order)
    blocks = part.blocks
    block_idx = [tuple(space.index(p) for p in block) for block in blocks]

    role_choices = []
    for block in blocks:
        roles = ["free", "J"]
        if len(block) >= 3:
            roles.append("K")
        if len(block) == 4:
            roles.append("L")
        role_choices.append(roles)

    by_group: dict[PermutationGroup, list[tuple[str, ...]]] = {}
    for assignment in itertools.product(*role_choices):
        gens = [
            gen
            for role, idx in zip(assignment, block_idx)
            for gen in _role_generators(role, idx, space.size)
        ]
        for gen in gens:
            if gen not in group:
                raise InternalCheckError(
                    f"candidate generator {group.cycle_string(gen)} lies outside the group"
                )
        cand = PermutationGroup.from_generators(space.points, gens)
        by_group.setdefault(cand, []).append(assignment)

    candidates = sorted(
        ((min(labels), cand) for cand, labels in by_group.items()),
        key=lambda c: by_order_then_lex(c[1]),
    )
    normal = normal_subgroups(group, max_order=max_order)
    off_list = tuple(g for g in normal if g not in by_group)
    non_normal = tuple(
        cand for _, cand in candidates if not group.is_normal(cand)
    )
    return Remark19Report(
        candidates=tuple(candidates),
        normal=tuple(normal),
        off_list=off_list,
        non_normal_candidates=non_normal,
    )


def enumerate_preorder_spaces(n: int, names=None):
    """All labelled topologies on n points, as minimal-open presentations."""
    if n > 5:
        raise BoundExceededError("labelled-topology enumeration is limited to 5 points")
    if names is None:
        names = tuple("abcdefghij"[:n])
    if n == 0:
        yield FiniteSpace((), {})
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
        ok = True
        for i in range(n):
            for j in _bits(masks[i]):
                if masks[j] & ~masks[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            table = {names[i]: frozenset(names[j] for j in _bits(masks[i])) for i in range(n)}
            yield FiniteSpace(names, table)


def enumerate_t0_spaces(n: int, names=None):
    for space in enumerate_preorder_spaces(n, names):
        if len(set(space._masks)) == space.size:
            yield space
