"""Finite topological spaces via minimal open sets, and their symmetries.

A finite space is presented Alexandrov-style: each point x carries the
minimal open set U_x containing it.  Validity means x is in U_x and
y in U_x implies U_y is a subset of U_x; every open set is then a union
of minimal opens, and the self-homeomorphisms are exactly the
permutations h with h(U_x) = U_{h(x)}.

The module computes Cantor-Bendixson data, similarity classes, the full
homeomorphism group (by pruned backtracking), fixators, full
transitivity by two independent methods, swap witnesses, and the normal
subgroup lattice of small permutation groups.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import factorial

from ._kernels import _bits, isomorphisms
from .errors import (
    BoundExceededError,
    DomainError,
    InternalCheckError,
    ParseError,
    UnknownPointError,
    ValidationError,
)

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
DEFAULT_HOMEO_ELEMENT_CAP = 1_000_000
DEFAULT_TRANSITIVITY_WORK = 50_000_000


class FiniteSpace:
    """A finite topological space given by its minimal open sets.

    ``points`` fixes the reporting order; ``min_open`` maps each point
    name to the member set of its minimal open neighbourhood.
    """

    def __init__(self, points, min_open):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValidationError("duplicate point names")
        index = {name: i for i, name in enumerate(points)}
        opens = {}
        for name in points:
            if name not in min_open:
                raise ValidationError(f"no minimal open set given for {name!r}")
            members = frozenset(min_open[name])
            for m in members:
                if m not in index:
                    raise ValidationError(f"unknown point {m!r} in the minimal open set of {name!r}")
            if name not in members:
                raise ValidationError(f"reflexivity violated: {name!r} not in its own minimal open set")
            opens[name] = members
        for name in min_open:
            if name not in index:
                raise ValidationError(f"minimal open set given for unknown point {name!r}")
        for x in points:
            for y in opens[x]:
                if not opens[y] <= opens[x]:
                    raise ValidationError(
                        f"transitivity violated: {y!r} lies in the minimal open set of {x!r} "
                        f"but U_{y} is not contained in U_{x}"
                    )
        self.points = points
        self.min_open = opens
        self._index = index
        self._masks = tuple(self._mask(opens[name]) for name in points)

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

    def is_open(self, names) -> bool:
        mask = self._mask(frozenset(names))
        return all(self._masks[i] & ~mask == 0 for i in _bits(mask))

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
    def from_dict(cls, min_open, order=None) -> FiniteSpace:
        points = tuple(order) if order is not None else tuple(min_open)
        return cls(points, min_open)

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
    rank_of: dict[str, int]
    rank: int
    scattered: bool


def cb_data(space: FiniteSpace) -> CBData:
    """Iterate the derived-set operator to stabilisation.

    A point of a subset A is in A's derived set iff its minimal open set
    meets A in more than the point itself.
    """
    masks, n = space._masks, space.size
    levels = []
    current = (1 << n) - 1
    while True:
        levels.append(current)
        nxt = 0
        for i in _bits(current):
            if masks[i] & current != 1 << i:
                nxt |= 1 << i
        if nxt == current:
            break
        current = nxt
    rank = len(levels) - 1
    rank_of = {}
    for i, name in enumerate(space.points):
        r = 0
        for lvl, mask in enumerate(levels):
            if (mask >> i) & 1:
                r = lvl
        rank_of[name] = r
    return CBData(
        levels=tuple(frozenset(space._names(m)) for m in levels),
        rank_of=rank_of,
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


def _similarity_iso(space, ix, iy, limit=1):
    ux, uy = space._masks[ix], space._masks[iy]
    if ux.bit_count() != uy.bit_count():
        return []
    a_idx = tuple(_bits(ux))
    b_idx = tuple(_bits(uy))
    sub_a = _submasks(space, a_idx)
    sub_b = _submasks(space, b_idx)
    pins = [(a_idx.index(ix), b_idx.index(iy))]
    return [
        {space.points[a_idx[l]]: space.points[b_idx[m]] for l, m in enumerate(iso)}
        for iso in isomorphisms(sub_a, sub_b, pins=pins, limit=limit)
    ]


def similarity_witness(space: FiniteSpace, x: str, y: str) -> dict[str, str] | None:
    """An isomorphism of minimal open neighbourhoods sending x to y, if any.

    Minimal opens are themselves neighbourhoods, and any neighbourhood
    isomorphism restricts to one of the minimal opens, so this criterion
    decides similarity; ``similar_exhaustive`` is the brute-force
    cross-check over all open pairs.
    """
    ix, iy = space.index(x), space.index(y)
    found = _similarity_iso(space, ix, iy, limit=1)
    return found[0] if found else None


def similar(space: FiniteSpace, x: str, y: str, cross_check: bool = False) -> bool:
    answer = similarity_witness(space, x, y) is not None
    if cross_check:
        exhaustive = similar_exhaustive(space, x, y)
        if exhaustive != answer:
            raise InternalCheckError(
                f"similarity criterion disagreement on ({x!r}, {y!r}): "
                f"minimal-neighbourhood {answer}, exhaustive {exhaustive}"
            )
    return answer


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
    rank_of: dict[str, int]

    def block_of(self, name: str) -> tuple[str, ...]:
        for block in self.blocks:
            if name in block:
                return block
        raise UnknownPointError(f"unknown point {name!r}")

    def block_rank(self, block) -> int:
        return self.rank_of[block[0]]


def similarity_partition(space: FiniteSpace) -> SimilarityPartition:
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
    for block in blocks:
        ranks = {data.rank_of[p] for p in block}
        if len(ranks) != 1:
            raise InternalCheckError(f"similar points with distinct ranks in block {block}")
    return SimilarityPartition(
        blocks=tuple(tuple(b) for b in blocks),
        rank_of=dict(data.rank_of),
    )


class PermutationGroup:
    """A concrete permutation group on named points.

    Elements are stored explicitly as image tuples over the ground order;
    a reduced generator list is kept for reporting and conjugation.
    """

    def __init__(self, ground, elements, generators=None):
        self.ground = tuple(ground)
        n = len(self.ground)
        elements = frozenset(tuple(e) for e in elements)
        identity = tuple(range(n))
        if identity not in elements:
            raise ValueError("a permutation group must contain the identity")
        self.elements = elements
        if generators is None:
            generators = _reduce_generators(n, elements)
        self.generators = tuple(tuple(g) for g in generators)

    @classmethod
    def from_generators(cls, ground, generators) -> PermutationGroup:
        n = len(tuple(ground))
        gens = [tuple(g) for g in generators]
        return cls(ground, _close(n, gens), gens)

    @classmethod
    def symmetric(cls, ground) -> PermutationGroup:
        ground = tuple(ground)
        n = len(ground)
        return cls(ground, itertools.permutations(range(n)))

    @classmethod
    def trivial(cls, ground) -> PermutationGroup:
        ground = tuple(ground)
        return cls(ground, [tuple(range(len(ground)))])

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(range(len(self.ground)))

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self.elements

    def __eq__(self, other):
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        return self.ground == other.ground and self.elements == other.elements

    def __hash__(self):
        return hash((self.ground, self.elements))

    def as_mapping(self, perm) -> dict[str, str]:
        return {self.ground[i]: self.ground[j] for i, j in enumerate(perm)}

    def cycle_string(self, perm) -> str:
        seen, parts = set(), []
        for i in range(len(perm)):
            if i in seen or perm[i] == i:
                seen.add(i)
                continue
            cycle, j = [], i
            while j not in seen:
                seen.add(j)
                cycle.append(self.ground[j])
                j = perm[j]
            parts.append("(" + " ".join(cycle) + ")")
        return "".join(parts) if parts else "id"

    def subgroup(self, elements) -> PermutationGroup:
        return PermutationGroup(self.ground, elements)

    def sorted_elements(self) -> list[tuple[int, ...]]:
        return sorted(self.elements)

    def is_normal(self, sub: PermutationGroup) -> bool:
        if sub.ground != self.ground:
            raise ValueError("subgroup on a different ground set")
        sub_set = sub.elements
        for g in self.generators:
            g_inv = _inverse(g)
            for h in sub_set:
                if _compose(g, _compose(h, g_inv)) not in sub_set:
                    return False
        return True

    def __repr__(self):
        return f"PermutationGroup(order={self.order}, ground={list(self.ground)!r})"


def _compose(g, h):
    """Apply h first, then g."""
    return tuple(map(g.__getitem__, h))


def _inverse(g):
    inv = [0] * len(g)
    for i, j in enumerate(g):
        inv[j] = i
    return tuple(inv)


def _close(n, generators):
    elements = {tuple(range(n))}
    _grow_closure(elements, [], generators)
    return elements


def _grow_closure(elements, gens, extra):
    """Grow ``elements`` = <gens> in place to <gens, extra>.

    Each member of ``extra`` not yet inside is appended to ``gens``.  Only
    the new elements are multiplied by every generator; the old ones need
    the added generator alone, since they are already closed under the rest.
    """
    for g in extra:
        if g in elements:
            continue
        gens.append(g)
        frontier = []
        for h in list(elements):
            prod = _compose(h, g)
            if prod not in elements:
                elements.add(prod)
                frontier.append(prod)
        while frontier:
            nxt = []
            for h in frontier:
                for s in gens:
                    prod = _compose(h, s)
                    if prod not in elements:
                        elements.add(prod)
                        nxt.append(prod)
            frontier = nxt


def _reduce_generators(n, elements):
    gens: list[tuple[int, ...]] = []
    have = {tuple(range(n))}
    for g in sorted(elements):
        if g not in have:
            _grow_closure(have, gens, [g])
            if len(have) == len(elements):
                break
    return gens


def homeo_group(
    space: FiniteSpace,
    max_points: int = DEFAULT_MAX_POINTS,
    max_order: int = DEFAULT_HOMEO_ELEMENT_CAP,
) -> PermutationGroup:
    """All permutations preserving the minimal-open-set assignment.

    The backtracking search is pruned by the homeomorphism invariants
    (CB rank, minimal open size, closure size) before branching.
    """
    n = space.size
    if n > max_points:
        raise BoundExceededError(
            f"space has {n} points, above the bound of {max_points}; raise max_points to force"
        )
    if n == 0:
        return PermutationGroup((), [()])
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
    colors = [palette[c] for c in colors]
    perms = isomorphisms(space._masks, space._masks, colors, colors, limit=max_order + 1)
    if len(perms) > max_order:
        raise BoundExceededError(
            f"homeomorphism group has more than {max_order} elements; raise max_order to force"
        )
    return PermutationGroup(space.points, perms)


def fixator(group: PermutationGroup, names) -> PermutationGroup:
    """The subgroup fixing the given points one by one."""
    idx = []
    for name in names:
        if name not in group.ground:
            raise UnknownPointError(f"unknown point {name!r}")
        idx.append(group.ground.index(name))
    kept = [g for g in group.elements if all(g[i] == i for i in idx)]
    return PermutationGroup(group.ground, kept)


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
    max_work: int = DEFAULT_TRANSITIVITY_WORK,
    group: PermutationGroup | None = None,
) -> FullTransitivityReport:
    """Decide full transitivity by two methods that must agree.

    (a) The direct check: every pair of distinct-entry tuples with
    coordinatewise similar points is realised by some homeomorphism, for
    every tuple length up to the point count.  The injective k-tuples are
    split into orbits under the group's generators by breadth-first
    search, each orbit once; a tuple passes when its orbit holds every
    tuple of its block signature, i.e. prod |B|!/(|B|-m_B)! of them, where
    m_B counts its entries in block B.  Only the first tuple that fails
    is walked against the product of its similarity pools, to name the
    first unrealised image.  (b) The order formula |Homeo| = prod |X_i|!
    over the similarity blocks.  (a) never looks at |Homeo| or at that
    product, so the two stay independent; disagreement raises
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

    block_of = [0] * n
    for b, block in enumerate(part.blocks):
        for name in block:
            block_of[space.index(name)] = b
    block_indices = [tuple(space.index(p) for p in block) for block in part.blocks]
    block_sizes = [len(block) for block in part.blocks]

    # each injective tuple is reached once by the orbit search and mapped
    # by every generator, and its signature and lookup cost about one
    # more such map, of at most n entries
    tuple_count = sum(
        factorial(n) // factorial(n - k) for k in range(1, n + 1)
    )
    work = tuple_count * (len(group.generators) + 1) * n
    if work > max_work:
        raise BoundExceededError(
            f"direct full-transitivity check needs about {work} operations, "
            f"above the bound of {max_work}"
        )

    failure = None
    for k in range(1, n + 1):
        xs = _first_unrealised_tuple(n, k, group.generators, block_of, block_sizes)
        if xs is None:
            continue
        realized = _tuple_orbit(xs, group.generators)
        pools = [block_indices[block_of[i]] for i in xs]
        ys = next(
            (ys for ys in itertools.product(*pools) if len(set(ys)) == k and ys not in realized),
            None,
        )
        if ys is None:
            raise InternalCheckError(f"orbit count of {xs} is short, yet every image is realised")
        failure = (tuple(space.points[i] for i in xs), tuple(space.points[j] for j in ys))
        break
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


def _tuple_orbit(xs, generators) -> set[tuple[int, ...]]:
    """Orbit of a tuple of point indices under the group the generators generate."""
    orbit = {xs}
    frontier = [xs]
    while frontier:
        ys = frontier.pop()
        for g in generators:
            zs = tuple(map(g.__getitem__, ys))
            if zs not in orbit:
                orbit.add(zs)
                frontier.append(zs)
    return orbit


def _first_unrealised_tuple(n, k, generators, block_of, block_sizes):
    """First injective k-tuple, in ``itertools.permutations`` order, whose
    orbit lacks some tuple of its own block signature; None if none does.

    Each orbit is searched once, from its first member; the verdicts of
    its later members wait in ``pending`` until the walk reaches them.
    """
    alone = [block_sizes[b] == 1 for b in block_of]
    pending = {}
    for xs in itertools.permutations(range(n), k):
        ok = pending.pop(xs, None)
        if ok is None:
            orbit = _tuple_orbit(xs, generators)
            if len(orbit) == 1:
                # the only tuple of its signature iff each point is alone in its block
                ok = all(map(alone.__getitem__, xs))
            else:
                signature = {ys: tuple(map(block_of.__getitem__, ys)) for ys in orbit}
                verdict = {
                    sig: count == _arrangements(sig, block_sizes)
                    for sig, count in Counter(signature.values()).items()
                }
                for ys, sig in signature.items():
                    pending[ys] = verdict[sig]
                ok = pending.pop(xs)
        if not ok:
            return xs
    return None


def _arrangements(signature, block_sizes) -> int:
    """Injective tuples with this block signature: prod |B|!/(|B|-m_B)! over blocks B."""
    count, used = 1, Counter()
    for b in signature:
        count *= block_sizes[b] - used[b]
        used[b] += 1
    return count


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
    """Orbits under conjugation, in a deterministic order."""
    remaining = set(group.elements)
    gens_with_inv = [(g, _inverse(g)) for g in group.generators]
    classes = []
    for rep in sorted(group.elements):
        if rep not in remaining:
            continue
        orbit = {rep}
        frontier = [rep]
        while frontier:
            h = frontier.pop()
            for g, g_inv in gens_with_inv:
                c = _compose(g, _compose(h, g_inv))
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        remaining -= orbit
        classes.append(frozenset(orbit))
    return classes


def normal_subgroups(
    group: PermutationGroup, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[PermutationGroup]:
    """All normal subgroups, as joins of subgroups generated by conjugacy classes.

    A normal subgroup is a union of conjugacy classes and is generated by
    the classes it contains, so closing the class-generated subgroups
    under pairwise join enumerates every normal subgroup exactly once.
    Each class-generated subgroup is built once, from the few class
    members needed to generate it, and each join grows the elements of
    the current subgroup by the class subgroup's generators only, so no
    closure ever treats every element as a generator.  The returned groups
    are built from their element sets, so their reported generators do not
    depend on how the lattice was searched.
    """
    if group.order > max_order:
        raise BoundExceededError(
            f"group order {group.order} is above the bound of {max_order}"
        )
    n = len(group.ground)
    trivial = frozenset([tuple(range(n))])
    class_subgroups = []  # (a class member, generators of the class-generated subgroup)
    for cls in conjugacy_classes(group):
        gens = []
        _grow_closure(set(trivial), gens, sorted(cls))
        class_subgroups.append((min(cls), gens))
    found = {trivial: []}  # element set -> generators
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for member, cls_gens in class_subgroups:
                # sub is normal, so holding one member means holding the class
                if member in sub:
                    continue
                elements, gens = set(sub), list(found[sub])
                _grow_closure(elements, gens, cls_gens)
                join = frozenset(elements)
                if join not in found:
                    found[join] = gens
                    nxt.append(join)
        frontier = nxt
    groups = [PermutationGroup(group.ground, elems) for elems in found]
    groups.sort(key=lambda g: (g.order, g.sorted_elements()))
    return groups


def _restriction_parity(perm, block_idx) -> int:
    """Sign of the permutation restricted to an invariant block: +1 even, -1 odd."""
    seen = set()
    sign = 1
    for i in block_idx:
        if i in seen:
            continue
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _is_fpf_involution_or_id(perm, block_idx) -> bool:
    if all(perm[i] == i for i in block_idx):
        return True
    return all(perm[perm[i]] == i and perm[i] != i for i in block_idx)


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


def verify_remark19(
    space: FiniteSpace,
    max_points: int = DEFAULT_MAX_POINTS,
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> Remark19Report:
    ft = is_fully_transitive(space, max_points=max_points)
    if not ft.holds:
        raise DomainError("the candidate list applies to fully transitive spaces only")
    group, part = ft.group, ft.partition
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

    by_elements: dict[frozenset, list[tuple[str, ...]]] = {}
    for assignment in itertools.product(*role_choices):
        kept = []
        for perm in group.sorted_elements():
            ok = True
            for b, role in enumerate(assignment):
                idx = block_idx[b]
                if role == "J":
                    if any(perm[i] != i for i in idx):
                        ok = False
                        break
                elif role == "K":
                    if _restriction_parity(perm, idx) != 1:
                        ok = False
                        break
                elif role == "L":
                    if not _is_fpf_involution_or_id(perm, idx):
                        ok = False
                        break
            if ok:
                kept.append(perm)
        by_elements.setdefault(frozenset(kept), []).append(assignment)

    candidates = []
    for elems in sorted(by_elements, key=lambda e: (len(e), sorted(e))):
        labels = sorted(by_elements[elems])[0]
        candidates.append((labels, PermutationGroup(space.points, elems)))

    normal = normal_subgroups(group, max_order=max_order)
    candidate_sets = {cand.elements for _, cand in candidates}
    off_list = tuple(g for g in normal if g.elements not in candidate_sets)
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
