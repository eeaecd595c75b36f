import itertools
import random

import pytest

from scatterkit._kernels import isomorphisms
from scatterkit.errors import BoundExceededError, ParseError, ValidationError
from scatterkit.finite import PermutationGroup, cb_data, homeo_group, separation_report
from scatterkit.graphs import (
    Graph,
    _automorphisms,
    aut,
    edge_name,
    encode,
    enumerate_graphs,
    random_graph,
    verify_prop24,
)


def path(n):
    names = [str(i) for i in range(1, n + 1)]
    return Graph(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def cycle(n):
    names = [str(i) for i in range(n)]
    return Graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


def complete(n):
    names = [str(i) for i in range(n)]
    return Graph(names, list(itertools.combinations(names, 2)))


def petersen():
    names = [f"v{i}" for i in range(10)]
    outer = [(names[i], names[(i + 1) % 5]) for i in range(5)]
    inner = [(names[5 + i], names[5 + (i + 2) % 5]) for i in range(5)]
    spokes = [(names[i], names[i + 5]) for i in range(5)]
    return Graph(names, outer + inner + spokes)


# --- construction and parsing -------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValidationError, match="loop"):
        Graph(("a", "b"), [("a", "a")])
    with pytest.raises(ValidationError, match="duplicate edge"):
        Graph(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(ValidationError, match="at least one edge"):
        Graph(("a", "b"), [])
    with pytest.raises(ValidationError, match="unknown vertex"):
        Graph(("a", "b"), [("a", "z")])


def test_graph_parse():
    g = Graph.parse("# a triangle plus an isolated vertex\na b\nb -- c\nc a\nvertex d\n")
    assert g.vertices == ("a", "b", "c", "d")
    assert len(g.edges) == 3
    with pytest.raises(ParseError):
        Graph.parse("a b c\n")


# --- encoding -------------------------------------------------------------------

def test_encode_single_edge():
    space = encode(Graph(("u", "v"), [("u", "v")]))
    assert space.points == ("u", "v", "u--v")
    assert space.min_open["u--v"] == {"u--v", "u", "v"}
    assert space.min_open["u"] == {"u"}


def test_encode_path_ranks():
    space = encode(path(3))
    data = cb_data(space)
    assert sorted(p for p in space.points if data.rank_of[p] == 1) == ["1--2", "2--3"]
    assert data.rank == 2


def test_encode_triangle_derived_set():
    space = encode(complete(3))
    data = cb_data(space)
    assert data.levels[1] == {edge_name(a, b) for a, b in itertools.combinations("012", 2)}
    assert data.levels[2] == frozenset()


def test_encoding_is_scattered_t0_not_t1():
    for g in (path(2), path(3), cycle(4)):
        rep = separation_report(encode(g))
        assert rep.scattered and rep.t0 and not rep.t1


def test_adjacency_iff_closures_intersect():
    for g in (path(4), cycle(5), complete(4)):
        space = encode(g)
        for u, v in itertools.combinations(g.vertices, 2):
            meets = bool(space.closure([u]) & space.closure([v]))
            assert meets == g.adjacent(u, v)


# --- automorphisms ----------------------------------------------------------------

def test_aut_examples():
    assert aut(path(3)).order == 2
    assert aut(cycle(4)).order == 8
    assert aut(Graph(("u", "v"), [("u", "v")])).order == 2
    assert aut(complete(4)).order == 24
    assert aut(cycle(5)).order == 10


def _aut_reference(g):
    """Automorphisms by filtering all n! vertex permutations, in the order
    ``itertools.permutations`` yields them."""
    n = g.size
    adj = g._adj
    pairs = [(i, j, (adj[i] >> j) & 1) for i in range(n) for j in range(i + 1, n)]
    kept = []
    for perm in itertools.permutations(range(n)):
        for i, j, bit in pairs:
            if (adj[perm[i]] >> perm[j]) & 1 != bit:
                break
        else:
            kept.append(perm)
    return kept


def test_aut_matches_reference():
    rng = random.Random(24)
    graphs = [g for n in range(2, 6) for g in enumerate_graphs(n, up_to_iso=False)]
    graphs += [random_graph(rng.randint(6, 8), rng) for _ in range(20)]
    graphs.append(petersen())
    for g in graphs:
        kept = _aut_reference(g)
        assert _automorphisms(g._adj) == kept, g
        group = aut(g, max_vertices=10)
        reference = PermutationGroup(g.vertices, kept)
        assert group.elements == reference.elements, g
        assert group.generators == reference.generators, g


def test_aut_vertex_bound():
    g = Graph([f"v{i}" for i in range(9)], [("v0", "v1")])
    with pytest.raises(BoundExceededError, match="^graph has 9 vertices, above the bound of 8$"):
        aut(g)
    assert aut(g, max_vertices=9).order == 2 * 5040


# --- the encoding theorem -----------------------------------------------------------

def test_verify_prop24_examples():
    for g, order in ((Graph(("u", "v"), [("u", "v")]), 2), (cycle(4), 8), (cycle(5), 10)):
        report = verify_prop24(g)
        assert report.ok, report.counterexample
        assert report.homeo_order == order == report.aut_order


def test_verify_prop24_petersen():
    report = verify_prop24(petersen(), max_vertices=10)
    assert report.ok
    assert report.homeo_order == 120


def test_isomorphic_graphs_give_homeomorphic_encodings():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(5, rng)
        relabel = list(g.vertices)
        rng.shuffle(relabel)
        table = dict(zip(g.vertices, relabel))
        h = Graph(
            sorted(relabel),
            [(table[u], table[v]) for u, v in g.sorted_edges()],
        )
        sa, sb = encode(g), encode(h)
        assert isomorphisms(sa._masks, sb._masks, limit=1), (g, h)


def test_non_isomorphic_graphs_distinguished():
    g = path(4)
    h = Graph(("1", "2", "3", "4"), [("1", "2"), ("1", "3"), ("1", "4")])  # star
    sa, sb = encode(g), encode(h)
    assert not isomorphisms(sa._masks, sb._masks, limit=1)


def test_enumerate_graphs_counts():
    assert [len(list(enumerate_graphs(n))) for n in (2, 3, 4, 5)] == [1, 3, 10, 33]
    labelled = len(list(enumerate_graphs(3, up_to_iso=False)))
    assert labelled == 7  # 2^3 - 1 edge subsets


def _enumerate_reference(n):
    """Representatives by the minimum sorted relabelled edge list."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for bits in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        canon = min(
            tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
            for perm in itertools.permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            yield edges


def test_enumerate_graphs_matches_reference():
    for n in range(2, 6):
        names = tuple(f"v{i + 1}" for i in range(n))
        got = [(g.vertices, g.sorted_edges()) for g in enumerate_graphs(n)]
        want = [
            (names, [(names[a], names[b]) for a, b in edges])
            for edges in _enumerate_reference(n)
        ]
        assert got == want


def test_homeo_matches_aut_elementwise_on_path():
    g = path(3)
    space = encode(g)
    group = homeo_group(space)
    restricted = {
        tuple(perm[i] for i in range(3)) for perm in group.elements
    }
    assert restricted == set(aut(g).elements)
