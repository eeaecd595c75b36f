import dataclasses
import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import graphs
from scatterkit._kernels import isomorphisms, pure
from scatterkit.cli import main
from scatterkit.errors import (
    BoundExceededError,
    InternalCheckError,
    ParseError,
    ScatterkitError,
    ValidationError,
)
from scatterkit.finite import FiniteSpace, PermutationGroup, cb_data, homeo_group, separation_report
from scatterkit.graphs import (
    DEFAULT_MAX_VERTICES,
    Graph,
    Prop24Report,
    _automorphisms,
    aut,
    edge_name,
    encode,
    enumerate_graphs,
    random_graph,
    verify_prop24,
)

from element_groups import group_from_elements


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


def labelled_graphs(n):
    """Every graph with at least one edge on the labelled vertices v1..vn,
    by increasing edge bitmask over the vertex pairs in order."""
    names = tuple(f"v{i + 1}" for i in range(n))
    pairs = list(itertools.combinations(names, 2))
    for bits in range(1, 1 << len(pairs)):
        yield Graph(names, [pair for k, pair in enumerate(pairs) if bits >> k & 1])


def test_graph_parse_round_trip():
    """``vertex v`` lines for every vertex, then ``u v`` lines for every edge,
    parse back to the same vertices and edges."""
    rng = random.Random(24)
    graphs = [g for n in range(2, 6) for g in labelled_graphs(n)]
    graphs += [random_graph(rng.randint(6, 8), rng) for _ in range(20)]
    graphs += [make(n) for make in (path, cycle, complete) for n in range(3, 8)]
    graphs.append(petersen())
    for g in graphs:
        text = "".join(f"vertex {v}\n" for v in g.vertices)
        text += "".join(f"{u} {v}\n" for u, v in g.sorted_edges())
        back = Graph.parse(text)
        assert back.vertices == g.vertices, g
        assert back.sorted_edges() == g.sorted_edges(), g


def _graph_reference(vertices, edges):
    """Graph validation as it was on name pairs: (vertices, edges, sorted
    edges) of a valid graph, else the ValidationError it raises."""
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise ValidationError("duplicate vertex names")
    seen, pairs = set(), []
    for edge in edges:
        u, v = tuple(edge)
        if u == v:
            raise ValidationError(f"loop at vertex {u!r}")
        for w in (u, v):
            if w not in vertices:
                raise ValidationError(f"unknown vertex {w!r} in edge")
        key = frozenset((u, v))
        if key in seen:
            raise ValidationError(f"duplicate edge {u!r} -- {v!r}")
        seen.add(key)
        pairs.append(key)
    if not pairs:
        raise ValidationError("a graph must have at least one edge")
    index = {v: i for i, v in enumerate(vertices)}
    ordered = sorted(tuple(sorted(key, key=index.__getitem__)) for key in pairs)
    ordered.sort(key=lambda e: (index[e[0]], index[e[1]]))
    return vertices, frozenset(pairs), ordered


def _outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


_vertex = st.sampled_from("abcdx")


@settings(max_examples=300, deadline=None)
@given(st.lists(_vertex, max_size=5), st.lists(st.tuples(_vertex, _vertex), max_size=8))
def test_graph_validation_matches_name_pair_reference(vertices, edges):
    """Edges are validated on vertex indices with the same errors, in the
    same order, as on name pairs, and kept in the same order."""
    def build():
        g = Graph(vertices, edges)
        return g.vertices, g.edges, g.sorted_edges()

    assert _outcome(build) == _outcome(lambda: _graph_reference(vertices, edges))


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


def _encode_reference(g):
    """The encoding as it was built from a name table, with ``min_open``
    made eagerly by the table constructor."""
    table = {v: frozenset([v]) for v in g.vertices}
    order = list(g.vertices)
    for u, v in g.sorted_edges():
        e = edge_name(u, v)
        if e in table:
            raise ValidationError(f"point name collision: {e!r} is already a vertex")
        order.append(e)
        table[e] = frozenset([e, u, v])
    return FiniteSpace(order, table), table


def test_encode_matches_name_table_reference():
    rng = random.Random(22)
    cases = [g for n in range(2, 5) for g in labelled_graphs(n)]
    cases += [random_graph(rng.randint(2, 8), rng) for _ in range(40)]
    cases += [petersen(), complete(8)]
    for g in cases:
        want, table = _encode_reference(g)
        space = encode(g)
        assert (space.points, space._masks) == (want.points, want._masks), g
        assert space.min_open == table, g


def test_encode_refuses_name_collisions_like_the_reference():
    cases = [
        Graph(("a", "b", "a--b"), [("a", "b")]),  # an edge named like a vertex
        Graph(("a--b", "c", "a", "b--c"), [("a--b", "c"), ("a", "b--c")]),  # two edges alike
    ]
    for g in cases:
        assert _outcome(lambda: encode(g)) == _outcome(lambda: _encode_reference(g))
        assert _outcome(lambda: encode(g))[1].startswith("point name collision: ")


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
    graphs = [g for n in range(2, 6) for g in labelled_graphs(n)]
    graphs += [random_graph(rng.randint(6, 8), rng) for _ in range(20)]
    graphs.append(petersen())
    for g in graphs:
        kept = _aut_reference(g)
        assert _automorphisms(g._adj) == kept, g
        group = aut(g, max_vertices=10)
        reference = group_from_elements(g.vertices, kept)
        assert group.elements == reference.elements, g
        assert group.generators == reference.generators, g


def test_aut_checks_its_chain_against_the_search(monkeypatch):
    """A search that missed an automorphism leaves a chain of a larger order."""
    listed = _automorphisms
    monkeypatch.setattr(graphs, "_automorphisms", lambda adj: listed(adj)[:-1])
    with pytest.raises(InternalCheckError, match="has order 24, but the search found 23"):
        aut(Graph("abcd", list(itertools.combinations("abcd", 2))))


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


def test_verify_prop24_transposes_the_encoding_once(monkeypatch):
    """The group's searches and the closure check read one structure."""
    transposed = []
    transpose = pure.transpose

    def counted(masks):
        transposed.append(masks)
        return transpose(masks)

    monkeypatch.setattr(pure, "transpose", counted)
    for g in (cycle(5), complete(4), petersen()):
        transposed.clear()
        report = verify_prop24(g, max_vertices=10)
        assert report.ok
        assert len(transposed) == 1 and transposed[0] is report.space._masks, g


def _verify_prop24_reference(g, max_vertices=DEFAULT_MAX_VERTICES, pairwise_limit=200):
    """Prop 24 from the listed homeomorphisms: restrict each one to V,
    compare the restriction set with aut's elements, and assert that
    restriction respects composition on all pairs when |G| <= pairwise_limit."""
    space = encode(g)
    group = homeo_group(space, max_points=space.size)
    auto = aut(g, max_vertices=max_vertices)
    counterexample = None

    vertex_idx = [space.index(v) for v in g.vertices]
    vertex_set = set(vertex_idx)

    def restrictions_of(perm):
        return tuple(vertex_idx.index(perm[i]) for i in vertex_idx)

    restrictions = {}
    injective = True
    for perm in group.sorted_elements():
        if any(perm[i] not in vertex_set for i in vertex_idx):
            injective = False
            counterexample = f"homeomorphism moves a vertex off V: {group.cycle_string(perm)}"
            break
        restricted = restrictions_of(perm)
        if restricted in restrictions:
            injective = False
            counterexample = "two homeomorphisms share a restriction"
            break
        restrictions[restricted] = perm

    image_is_aut = injective and set(restrictions) == set(auto.elements)
    if image_is_aut and group.order <= pairwise_limit:
        elems = group.sorted_elements()
        for p in elems:
            for q in elems:
                composite = tuple(p[q[i]] for i in range(space.size))
                rp, rq = restrictions_of(p), restrictions_of(q)
                assert restrictions_of(composite) == tuple(rp[rq[i]] for i in range(len(rq)))

    data = cb_data(space)
    edge_points = frozenset(edge_name(u, v) for u, v in g.sorted_edges())
    closures_match = all(
        space.closure([v]) == {v} | {edge_name(u, w) for u, w in g.sorted_edges() if v in (u, w)}
        for v in g.vertices
    )
    isolated = frozenset(p for p in space.points if space.min_open[p] == frozenset([p]))
    return Prop24Report(
        graph_vertices=g.size,
        graph_edges=len(g.edges),
        homeo_order=group.order,
        aut_order=auto.order,
        restriction_injective=injective,
        restriction_image_is_aut=image_is_aut,
        derived_is_edges=len(data.levels) > 1 and data.levels[1] == edge_points,
        second_derived_empty=len(data.levels) > 2 and data.levels[2] == frozenset(),
        closures_match=closures_match,
        isolated_are_vertices=isolated == frozenset(g.vertices),
        space=space,
        counterexample=counterexample,
    )


def _fields(report):
    return dataclasses.replace(report, counterexample=None)


def test_verify_prop24_matches_reference():
    rng = random.Random(24)
    cases = [g for n in range(2, 6) for g in labelled_graphs(n)]
    cases += [complete(6), complete(7)]
    cases += [random_graph(rng.randint(6, 8), rng) for _ in range(30)]
    for g in cases:
        assert _fields(verify_prop24(g)) == _fields(_verify_prop24_reference(g)), g
    want = _verify_prop24_reference(petersen(), max_vertices=10)
    assert _fields(verify_prop24(petersen(), max_vertices=10)) == _fields(want)


def _swap(n, i, j):
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return tuple(perm)


def _trivial(space):
    return PermutationGroup.trivial(space.points)


def _symmetric(space):
    return PermutationGroup.symmetric(space.points)


def _vertex_swap(space):
    # on path(3), of aut's order, but (1 2) is no automorphism
    return PermutationGroup.from_generators(space.points, [_swap(space.size, 0, 1)])


def _with_edge_swap(space):
    true = homeo_group(space)
    n = space.size
    return PermutationGroup.from_generators(space.points, [*true.generators, _swap(n, n - 2, n - 1)])


@pytest.mark.parametrize(
    "wrong_group, flag",
    [
        (_trivial, "restriction_image_is_aut"),
        (_vertex_swap, "restriction_image_is_aut"),
        (_symmetric, "restriction_injective"),
        (_with_edge_swap, "restriction_injective"),
    ],
)
def test_verify_prop24_rejects_wrong_groups(monkeypatch, wrong_group, flag):
    monkeypatch.setattr(graphs, "homeo_group", lambda space, max_points: wrong_group(space))
    for g in (path(3), cycle(4), complete(4)):
        report = verify_prop24(g)
        assert not report.ok and not getattr(report, flag), g
        assert report.counterexample, g


@pytest.mark.parametrize(
    "g, max_vertices, order",
    [
        (complete(4), DEFAULT_MAX_VERTICES, 24),
        (petersen(), 10, 120),
        (complete(7), DEFAULT_MAX_VERTICES, 5040),
    ],
    ids=["K4", "petersen", "K7"],
)
def test_verify_prop24_lists_no_homeomorphisms(monkeypatch, g, max_vertices, order):
    def unlisted(space, max_points):
        group = homeo_group(space, max_points)

        def refuse():
            raise AssertionError("listed the homeomorphism group's elements")

        group._lex_elements = refuse
        return group

    monkeypatch.setattr(graphs, "homeo_group", unlisted)
    report = verify_prop24(g, max_vertices=max_vertices)
    assert report.ok and report.homeo_order == order


# Random text, edge lists (most of them graphs the --verify path checks),
# and long or deeply repeated inputs.
_names = st.sampled_from("abcdefghij")
_graph_text = st.one_of(
    st.text(max_size=200),
    st.text(alphabet="ab -#\nvertex", max_size=400),
    st.lists(st.tuples(_names, st.sampled_from(["", "-- "]), _names), max_size=25).map(
        lambda edges: "".join(f"{u} {sep}{v}\n" for u, sep, v in edges)
    ),
    st.builds(
        lambda line, times: line * times,
        st.sampled_from(["a b\n", "a -- b\n", "vertex a\n", "(", "-- ", "#", "x" * 50]),
        st.integers(1, 3000),
    ),
    st.integers(1, 3000).map(lambda k: "".join(f"vertex v{i}\n" for i in range(k)) + "v0 v1\n"),
)


def _graph_parse_reference(text):
    """Graph.parse as it was: vertices noted through a seen set, each line
    stripped before it is split."""
    vertices, seen, edges = [], set(), []

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
    return Graph(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(_graph_text)
def test_graph_parse_fuzz(text):
    """Any text parses to the reference's graph or fails with its error."""
    def outcome(parse):
        try:
            g = parse(text)
        except ScatterkitError as exc:
            return type(exc), str(exc)
        return g.vertices, g.edges, g.sorted_edges()

    assert outcome(Graph.parse) == outcome(_graph_parse_reference)


@settings(max_examples=60, deadline=None)
@given(_graph_text)
def test_encode_graph_cli_fuzz(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "graph.txt"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["encode-graph", str(path), "--verify"])
    assert code in (0, 1, 2)


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


def test_enumerate_graphs_bound():
    # n=7 would mark all 2^21 edge masks seen, each through 5040 vertex orders
    with pytest.raises(BoundExceededError, match="limited to 6 vertices"):
        next(enumerate_graphs(7))


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


def test_verify_prop24_names_the_first_vertex_whose_closure_is_wrong(monkeypatch):
    # edges a--b and c--d each lose an endpoint, so the closures of b and
    # c both miss an edge; the counterexample names b, the first of them
    def tampered(g):
        space = encode(g)
        opens = {p: set(space.min_open[p]) for p in space.points}
        opens["a--b"].discard("b")
        opens["c--d"].discard("c")
        return FiniteSpace(space.points, opens)

    monkeypatch.setattr(graphs, "encode", tampered)
    report = verify_prop24(Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]))
    assert not report.closures_match and not report.ok
    assert report.counterexample == "closure of {b} is ['b', 'b--c'], expected ['a--b', 'b', 'b--c']"
