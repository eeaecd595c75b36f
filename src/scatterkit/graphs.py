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
from dataclasses import dataclass

from .errors import (
    BoundExceededError,
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
DEFAULT_MAX_POINTS_FOR_ENCODING = 40


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
    """The automorphism group, by backtracking with adjacency pruning.

    Deliberately kept in this module and still independent of the
    homeomorphism search, so the two sides of the encoding check do not
    share code.
    """
    n = g.size
    if n > max_vertices:
        raise BoundExceededError(f"graph has {n} vertices, above the bound of {max_vertices}")
    return PermutationGroup(g.vertices, _automorphisms(g._adj))


def _automorphisms(adj):
    """Every automorphism of the graph with adjacency masks ``adj``, as image
    tuples in the lexicographic order of ``itertools.permutations``."""
    kept = []
    _extend(adj, [0] * len(adj), 0, 0, kept)
    return kept


def _extend(adj, perm, i, placed, kept):
    """Give vertex i each unused image in increasing order, then recurse.

    Target x is accepted for vertex i only if, for every j < i, i is
    adjacent to j exactly when x is adjacent to perm[j]: with ``placed`` the
    mask of images so far and ``wanted`` the images of i's earlier
    neighbours, that is ``adj[x] & placed == wanted``.
    """
    n = len(adj)
    if i == n:
        kept.append(tuple(perm))
        return
    row = adj[i]
    wanted = 0
    for j in range(i):
        if (row >> j) & 1:
            wanted |= 1 << perm[j]
    for x in range(n):
        if not (placed >> x) & 1 and adj[x] & placed == wanted:
            perm[i] = x
            _extend(adj, perm, i + 1, placed | (1 << x), kept)


@dataclass(frozen=True)
class Prop24Report:
    """Result of checking the encoding against its four defining claims."""

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
    pairwise_limit: int = 200,
) -> Prop24Report:
    """Check the encoding: the restriction map is a group isomorphism onto
    the automorphism group, the derived sets are E then empty, vertex
    closures are vertex plus incident edges, and the isolated points are
    exactly the vertices."""
    space = encode(g)
    group = homeo_group(space, max_points=DEFAULT_MAX_POINTS_FOR_ENCODING)
    auto = aut(g, max_vertices=max_vertices)
    counterexample = None

    vertex_idx = [space.index(v) for v in g.vertices]
    vertex_set = set(vertex_idx)
    restrictions = {}
    injective = True
    for perm in group.sorted_elements():
        restricted = tuple(
            vertex_idx.index(perm[i]) if perm[i] in vertex_set else -1 for i in vertex_idx
        )
        if -1 in restricted:
            injective = False
            counterexample = f"homeomorphism moves a vertex off V: {group.cycle_string(perm)}"
            break
        if restricted in restrictions:
            injective = False
            counterexample = (
                "two homeomorphisms share the restriction "
                f"{group.cycle_string(perm)} / {group.cycle_string(restrictions[restricted])}"
            )
            break
        restrictions[restricted] = perm

    image_is_aut = injective and set(restrictions) == set(auto.elements)
    if injective and not image_is_aut:
        extra = set(restrictions) - set(auto.elements)
        missing = set(auto.elements) - set(restrictions)
        sample = sorted(extra or missing)[0]
        side = "not an automorphism" if extra else "not induced by any homeomorphism"
        counterexample = f"vertex permutation {auto.cycle_string(sample)} is {side}"

    # Restriction of a composite is the composite of restrictions whenever
    # vertices stay vertices; verified pairwise on small groups.
    is_isomorphism = injective and image_is_aut
    if is_isomorphism and group.order <= pairwise_limit:
        elems = group.sorted_elements()
        restricted_of = {p: restrictions_of(p, vertex_idx) for p in elems}
        for p in elems:
            rp = restricted_of[p]
            for q in elems:
                composite = tuple(p[q[i]] for i in range(space.size))
                rq = restricted_of[q]
                if restrictions_of(composite, vertex_idx) != tuple(rp[rq[i]] for i in range(len(rq))):
                    is_isomorphism = False
                    counterexample = "restriction fails to respect composition"
                    break
            if not is_isomorphism:
                break

    data = cb_data(space)
    edge_points = frozenset(edge_name(u, v) for u, v in g.sorted_edges())
    derived_is_edges = data.levels[1] == edge_points if len(data.levels) > 1 else False
    second_empty = len(data.levels) > 2 and data.levels[2] == frozenset()

    closures_match = True
    for v in g.vertices:
        expected = {v} | {edge_name(u, w) for u, w in g.sorted_edges() if v in (u, w)}
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
        restriction_is_isomorphism=is_isomorphism,
        derived_is_edges=derived_is_edges,
        second_derived_empty=second_empty,
        closures_match=closures_match,
        isolated_are_vertices=isolated_ok,
        counterexample=counterexample,
    )


def restrictions_of(perm, vertex_idx):
    return tuple(vertex_idx.index(perm[i]) for i in vertex_idx)


def enumerate_graphs(n: int, up_to_iso: bool = True):
    """All graphs on exactly n labelled vertices with at least one edge.

    With ``up_to_iso`` one representative per isomorphism class is kept
    (canonical form: the minimum relabelled edge bitmask over all vertex
    orders).
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
        present = [k for k in range(len(pairs)) if (bits >> k) & 1]
        if up_to_iso:
            canon = min(sum(map(table.__getitem__, present)) for table in relabel)
            if canon in seen:
                continue
            seen.add(canon)
        yield Graph(names, [(names[pairs[k][0]], names[pairs[k][1]]) for k in present])


def random_graph(n: int, rng, edge_probability: float = 0.5) -> Graph:
    """A random labelled graph with at least one edge (rejection sampled)."""
    names = tuple(f"v{i + 1}" for i in range(n))
    while True:
        edges = [
            (names[a], names[b])
            for a, b in itertools.combinations(range(n), 2)
            if rng.random() < edge_probability
        ]
        if edges:
            return Graph(names, edges)
