"""Encoding graphs as scattered finite spaces with the same symmetries.

A simple graph (V, E) with at least one edge becomes the space on
V and E where vertices are isolated and each edge point has minimal open
set {e} plus its two endpoints.  Restriction to the isolated points is
then a group isomorphism from the homeomorphism group of the space onto
the automorphism group of the graph; ``verify_prop24`` machine-checks
this together with the rank and closure structure of the encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    BoundExceededError,
    InternalCheckError,
    ParseError,
    UnknownPointError,
    ValidationError,
)
from .finite import FiniteSpace, PermutationGroup, cb_data, homeo_group

__all__ = [
    "Graph",
    "encode",
    "aut",
    "verify_prop24",
    "Prop24Report",
    "edge_name",
    "enumerate_graphs",
    "random_graph",
]

DEFAULT_MAX_VERTICES = 8


class Graph:
    """A simple undirected graph with named vertices and at least one edge."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        known = set(self.vertices)
        seen = set()
        pairs = []
        for edge in edges:
            u, v = tuple(edge)
            if u == v:
                raise ValidationError(f"loop at vertex {u!r}")
            for w in (u, v):
                if w not in known:
                    raise ValidationError(f"unknown vertex {w!r} in edge")
            key = frozenset((u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge {u!r} -- {v!r}")
            seen.add(key)
            pairs.append(key)
        if not pairs:
            raise ValidationError("a graph must have at least one edge")
        self.edges = frozenset(pairs)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._adj = [0] * len(self.vertices)
        for key in self.edges:
            u, v = sorted(key, key=self._index.__getitem__)
            iu, iv = self._index[u], self._index[v]
            self._adj[iu] |= 1 << iv
            self._adj[iv] |= 1 << iu

    @property
    def size(self) -> int:
        return len(self.vertices)

    def adjacent(self, u: str, v: str) -> bool:
        for w in (u, v):
            if w not in self._index:
                raise UnknownPointError(f"unknown vertex {w!r}")
        return frozenset((u, v)) in self.edges

    def sorted_edges(self) -> list[tuple[str, str]]:
        out = []
        for key in self.edges:
            u, v = sorted(key, key=self._index.__getitem__)
            out.append((u, v))
        out.sort(key=lambda e: (self._index[e[0]], self._index[e[1]]))
        return out

    @classmethod
    def parse(cls, text: str) -> Graph:
        """One edge per line, ``u v`` or ``u -- v``; ``vertex u`` declares an
        isolated vertex; '#' starts a comment."""
        vertices: list[str] = []
        seen = set()
        edges = []

        def note(name):
            if name not in seen:
                seen.add(name)
                vertices.append(name)

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] == "vertex":
                if len(tokens) != 2:
                    raise ParseError("expected 'vertex <name>'", line=lineno)
                note(tokens[1])
                continue
            if len(tokens) == 3 and tokens[1] == "--":
                tokens = [tokens[0], tokens[2]]
            if len(tokens) != 2:
                raise ParseError("expected 'u v' or 'u -- v'", line=lineno)
            note(tokens[0])
            note(tokens[1])
            edges.append((tokens[0], tokens[1]))
        return cls(vertices, edges)

    def __repr__(self):
        return f"Graph({list(self.vertices)!r}, {len(self.edges)} edges)"


def edge_name(u: str, v: str) -> str:
    return "--".join(sorted((u, v)))


def encode(g: Graph) -> FiniteSpace:
    """The space on V and E: vertices isolated, U_e = {e} plus e's endpoints."""
    table = {v: frozenset([v]) for v in g.vertices}
    order = list(g.vertices)
    for u, v in g.sorted_edges():
        e = edge_name(u, v)
        if e in table:
            raise ValidationError(f"point name collision: {e!r} is already a vertex")
        order.append(e)
        table[e] = frozenset([e, u, v])
    return FiniteSpace(order, table)


def aut(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> PermutationGroup:
    """The automorphism group, by backtracking with degree and adjacency pruning.

    Deliberately kept in this module and still independent of the
    homeomorphism search, so the two sides of the encoding check do not
    share code.  The first automorphism found for each (first moved point b,
    image j) pair fixes 0..b-1 and sends b to j, a transversal element of
    the stabiliser chain, whose order must be the number found.
    """
    n = g.size
    if n > max_vertices:
        raise BoundExceededError(f"graph has {n} vertices, above the bound of {max_vertices}")
    identity = tuple(range(n))
    found = _automorphisms(g._adj)
    orbits = {}
    for perm in found:
        for b in range(n):
            if perm[b] != b:
                orbits.setdefault(b, {b: identity}).setdefault(perm[b], perm)
                break
    group = PermutationGroup._from_chain(g.vertices, sorted(orbits.items()))
    if group.order != len(found):
        raise InternalCheckError(
            f"the automorphism chain has order {group.order}, but the search found {len(found)}"
        )
    return group


def _automorphisms(adj):
    """Every automorphism of the graph with adjacency masks ``adj``, as image
    tuples in the lexicographic order of ``itertools.permutations``."""
    n = len(adj)
    degree = [row.bit_count() for row in adj]
    same_degree = [sum(1 << x for x in range(n) if degree[x] == d) for d in degree]
    kept = []
    _extend(adj, same_degree, [0] * n, 0, 0, kept)
    return kept


def _extend(adj, same_degree, perm, i, placed, kept):
    """Give vertex i each unused image of its degree in increasing order,
    then recurse.

    Target x is accepted for vertex i only if, for every j < i, i is
    adjacent to j exactly when x is adjacent to perm[j]: with ``placed`` the
    mask of images so far and ``wanted`` the images of i's earlier
    neighbours, that is ``adj[x] & placed == wanted``.  An automorphism
    keeps degrees, so skipping the other targets loses none.
    """
    if i == len(adj):
        kept.append(tuple(perm))
        return
    row = adj[i]
    wanted = 0
    for j in range(i):
        if (row >> j) & 1:
            wanted |= 1 << perm[j]
    free = same_degree[i] & ~placed
    while free:
        low = free & -free
        free ^= low
        x = low.bit_length() - 1
        if adj[x] & placed == wanted:
            perm[i] = x
            _extend(adj, same_degree, perm, i + 1, placed | low, kept)


@dataclass(frozen=True)
class Prop24Report:
    """Result of checking the encoding against its four defining claims,
    with the encoded space it checked."""

    graph_vertices: int
    graph_edges: int
    homeo_order: int
    aut_order: int
    restriction_injective: bool
    restriction_image_is_aut: bool
    restriction_is_isomorphism: bool
    derived_is_edges: bool
    second_derived_empty: bool
    closures_match: bool
    isolated_are_vertices: bool
    space: FiniteSpace = field(compare=False)
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.restriction_injective
            and self.restriction_image_is_aut
            and self.restriction_is_isomorphism
            and self.derived_is_edges
            and self.second_derived_empty
            and self.closures_match
            and self.isolated_are_vertices
        )


def verify_prop24(
    g: Graph,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> Prop24Report:
    """Check the encoding: the restriction map is a group isomorphism onto
    the automorphism group, the derived sets are E then empty, vertex
    closures are vertex plus incident edges, and the isolated points are
    exactly the vertices.

    The restriction side works from the homeomorphism group's generators
    and chain order, and lists no element: the generators must map V into
    V, so every element permutes V and restriction r to V is a
    homomorphism; the restricted generators generate the image r(G), r is
    injective iff |r(G)| = |G|, and r(G) is compared with the automorphism
    group by equal order plus mutual generator membership.

    The vertex bound v is checked first, by ``aut``; the encoding of a
    graph inside it has at most v vertices and v(v-1)/2 edges, and that sum
    is the bound passed on to ``homeo_group``.
    """
    space = encode(g)
    auto = aut(g, max_vertices=max_vertices)
    group = homeo_group(space, max_points=max_vertices * (max_vertices + 1) // 2)
    counterexample = None

    # Point index -> vertex position, -1 off V.
    vertex_idx = [space.index(v) for v in g.vertices]
    position = [-1] * space.size
    for k, i in enumerate(vertex_idx):
        position[i] = k

    def restrict(perm):
        return tuple(position[perm[i]] for i in vertex_idx)

    restricted = []
    for s in group.generators:
        r = restrict(s)
        if -1 in r:
            counterexample = f"homeomorphism moves a vertex off V: {group.cycle_string(s)}"
            break
        restricted.append(r)
    injective = image_is_aut = False
    if counterexample is None:
        image = PermutationGroup.from_generators(g.vertices, restricted)
        injective = image.order == group.order
        if not injective:
            kernel = group.pointwise_stabiliser(vertex_idx).generators
            counterexample = (
                f"homeomorphism {group.cycle_string(kernel[0])} restricts to the identity on V"
            )
        else:
            image_is_aut = image == auto
            if not image_is_aut:
                extra = [r for r in image.generators if r not in auto]
                missing = [a for a in auto.generators if a not in image]
                sample = auto.cycle_string((extra or missing)[0])
                side = "not an automorphism" if extra else "not induced by any homeomorphism"
                counterexample = f"vertex permutation {sample} is {side}"

    data = cb_data(space)
    # The edge points, and each vertex's expected closure (itself and its
    # incident edges), in one pass over the edges.
    edge_points, expected_closure = set(), {v: {v} for v in g.vertices}
    for u, w in g.sorted_edges():
        e = edge_name(u, w)
        edge_points.add(e)
        expected_closure[u].add(e)
        expected_closure[w].add(e)
    derived_is_edges = data.levels[1] == edge_points if len(data.levels) > 1 else False
    second_empty = len(data.levels) > 2 and data.levels[2] == frozenset()

    closures_match = True
    for v in g.vertices:
        expected = expected_closure[v]
        actual = space.closure([v])
        if actual != expected:
            closures_match = False
            counterexample = f"closure of {{{v}}} is {sorted(actual)}, expected {sorted(expected)}"
            break

    isolated = frozenset(p for p in space.points if space.min_open[p] == frozenset([p]))
    isolated_ok = isolated == frozenset(g.vertices)

    return Prop24Report(
        graph_vertices=g.size,
        graph_edges=len(g.edges),
        homeo_order=group.order,
        aut_order=auto.order,
        restriction_injective=injective,
        restriction_image_is_aut=image_is_aut,
        restriction_is_isomorphism=injective and image_is_aut,
        derived_is_edges=derived_is_edges,
        second_derived_empty=second_empty,
        closures_match=closures_match,
        isolated_are_vertices=isolated_ok,
        space=space,
        counterexample=counterexample,
    )


def enumerate_graphs(n: int, up_to_iso: bool = True):
    """All graphs on exactly n labelled vertices with at least one edge.

    With ``up_to_iso`` one representative per isomorphism class is kept:
    the first edge bitmask of each class, whose relabellings under every
    vertex order are then all marked seen.
    """
    if n > 6:
        raise BoundExceededError("graph enumeration is limited to 6 vertices")
    names = tuple(f"v{i + 1}" for i in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    if up_to_iso:
        # For each vertex order, pair index -> bit of the relabelled pair.
        pair_bit = {pair: 1 << k for k, pair in enumerate(pairs)}
        relabel = [
            tuple(pair_bit[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
            for perm in itertools.permutations(range(n))
        ]
    seen = set()
    for bits in range(1, 1 << len(pairs)):
        if bits in seen:
            continue
        present = [k for k in range(len(pairs)) if (bits >> k) & 1]
        if up_to_iso:
            seen.update(sum(map(table.__getitem__, present)) for table in relabel)
        yield Graph(names, [(names[pairs[k][0]], names[pairs[k][1]]) for k in present])


def random_graph(n: int, rng) -> Graph:
    """A random labelled graph with at least one edge (rejection sampled)."""
    names = tuple(f"v{i + 1}" for i in range(n))
    while True:
        edges = [
            (names[a], names[b])
            for a, b in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        if edges:
            return Graph(names, edges)
