"""Groups held as stabiliser chains, against element-based references."""

import io
import itertools
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import factorial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scatterkit import finite, permgroups
from scatterkit._kernels import isomorphisms
from scatterkit.cli import main
from scatterkit.errors import BoundExceededError, InternalCheckError
from scatterkit.finite import (
    FiniteSpace,
    enumerate_preorder_spaces,
    enumerate_t0_spaces,
    fixator,
    homeo_group,
    is_fully_transitive,
    normal_subgroups,
    verify_remark19,
)
from scatterkit.graphs import Graph, aut, encode
from scatterkit.permgroups import (
    PermutationGroup,
    _compose,
    _inverse,
    _schreier_sims,
    _sift,
)
from scatterkit.verify import chain_space, discrete_space, double_fan_space, star_space

from element_groups import _grow_closure, _normal_subgroups_reference, group_from_elements
from spaces import fan_forest, layered_space


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# --- references ------------------------------------------------------------------


def _homeo_reference(space):
    """Every homeomorphism, from one unpinned enumeration of the kernel."""
    return isomorphisms(space._masks, space._masks, limit=0)


def _close(n, generators):
    elements = {tuple(range(n))}
    _grow_closure(elements, [], generators)
    return elements


def _reduce_generators(n, elements):
    """The greedy generators, by re-closing: each is the lex-first element
    not yet in the group the earlier ones generate."""
    gens = []
    have = {tuple(range(n))}
    for g in sorted(elements):
        if g not in have:
            _grow_closure(have, gens, [g])
            if len(have) == len(elements):
                break
    return gens


def _is_normal_reference(group, sub):
    """Normality by conjugating every element of sub by each generator."""
    sub_set = sub.elements
    for g in group.generators:
        g_inv = _inverse(g)
        for h in sub_set:
            if _compose(g, _compose(h, g_inv)) not in sub_set:
                return False
    return True


def _pointwise_stabiliser_reference(group, points):
    """The pointwise stabiliser by two Schreier-Sims runs: one on the
    generators relabelled so that the points come first, and one on the
    transversal elements of its levels past them, relabelled back."""
    n = len(group.ground)
    first = dict.fromkeys(points)
    back = (*first, *(i for i in range(n) if i not in first))  # new label -> old
    to = _inverse(back)
    chain = _schreier_sims(n, [_compose(to, _compose(g, back)) for g in group.generators])
    tail = [
        _compose(back, _compose(u, to))
        for b, orbit in chain
        if b >= len(first)
        for j, u in orbit.items()
        if j != b
    ]
    return PermutationGroup._from_chain(group.ground, _schreier_sims(n, tail))


def _assert_matches(group, elements):
    n = len(group.ground)
    reference = sorted(elements)
    assert group.order == len(reference)
    assert group.elements == frozenset(reference)
    assert group.sorted_elements() == reference
    assert list(group.generators) == _reduce_generators(n, reference)


# --- inputs ------------------------------------------------------------------------


def complete_graph(n):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, list(itertools.combinations(names, 2)))


def petersen():
    names = [f"v{i}" for i in range(10)]
    outer = [(names[i], names[(i + 1) % 5]) for i in range(5)]
    inner = [(names[5 + i], names[5 + (i + 2) % 5]) for i in range(5)]
    spokes = [(names[i], names[i + 5]) for i in range(5)]
    return Graph(names, outer + inner + spokes)


GRAPHS = [complete_graph(4), complete_graph(5), complete_graph(6), petersen()]


def named_spaces():
    spaces = [discrete_space(n) for n in range(1, 9)]
    spaces += [fan_forest((3, 3, 3)), fan_forest((4, 5)), double_fan_space()]
    spaces += [star_space(leaves, tiers) for leaves in (3, 4, 5) for tiers in (1, 2)]
    return spaces + [encode(g) for g in GRAPHS]


def remark19_spaces():
    """The spaces of the remark19 verify suite."""
    spaces = [discrete_space(1), chain_space(2), chain_space(3)]
    spaces += [discrete_space(n) for n in (3, 4, 5)]
    spaces += [star_space(leaves, tiers) for tiers in (1, 2) for leaves in (3, 4, 5)]
    return spaces + [double_fan_space()]


# --- chain-built groups against the references ----------------------------------------


def test_chain_groups_match_reference_on_small_preorders():
    for n in range(0, 6):
        for space in enumerate_preorder_spaces(n):
            _assert_matches(homeo_group(space), _homeo_reference(space))


def test_chain_groups_match_reference_on_named_spaces():
    for space in named_spaces():
        group = homeo_group(space, max_points=40)
        _assert_matches(group, _homeo_reference(space))
        if group.order <= 720:
            for sub in normal_subgroups(group):
                _assert_matches(sub, sub.elements)


def test_element_built_groups_match_reference():
    for g in GRAPHS:
        group = aut(g, max_vertices=10)
        _assert_matches(group, group.elements)
    for space in named_spaces():
        elements = _homeo_reference(space)
        group = group_from_elements(space.points, elements)
        _assert_matches(group, elements)
        assert group == homeo_group(space, max_points=40)


def test_group_forms_agree_on_named_spaces():
    """A group's order, generators, listing, hash and membership depend only
    on the group, not on the form it was built from."""
    rng = random.Random(0)
    for space in named_spaces():
        group = homeo_group(space, max_points=40)
        if group.order > 720:
            continue
        elements = group.sorted_elements()
        n = len(group.ground)
        probes = elements + [tuple(rng.sample(range(n), n)) for _ in range(50)]
        for other in (
            group_from_elements(space.points, elements),
            PermutationGroup.from_generators(space.points, reversed(elements)),
        ):
            assert other.order == group.order
            assert other.generators == group.generators
            assert other.sorted_elements() == elements
            assert hash(other) == hash(group)
            assert [p in other for p in probes] == [p in group for p in probes]


def test_equal_orders_do_not_make_groups_equal():
    swap_front = PermutationGroup.from_generators(range(4), [(1, 0, 2, 3)])
    swap_back = PermutationGroup.from_generators(range(4), [(0, 1, 3, 2)])
    assert swap_front.order == swap_back.order == 2
    assert swap_front != swap_back
    assert swap_front != group_from_elements(range(4), [(0, 1, 2, 3), (0, 1, 3, 2)])
    assert swap_front == group_from_elements(range(4), [(0, 1, 2, 3), (1, 0, 2, 3)])



def test_groups_of_one_order_sharing_elements_are_unequal():
    """Equality checks one inclusion once ground and order match; the
    Klein group and the cyclic group of order 4 share (0 2)(1 3) but are
    unequal, and each side's generators already show it."""
    klein = PermutationGroup.from_generators(range(4), [(1, 0, 3, 2), (2, 3, 0, 1)])
    cyclic = PermutationGroup.from_generators(range(4), [(1, 2, 3, 0)])
    assert klein.order == cyclic.order == 4
    assert (2, 3, 0, 1) in klein and (2, 3, 0, 1) in cyclic
    assert klein != cyclic and cyclic != klein
    # they share their basic orbits, but not their lex-first generators
    assert hash(klein) != hash(cyclic)
    assert klein != PermutationGroup.from_generators("abcd", [(1, 0, 3, 2), (2, 3, 0, 1)])
    rng = random.Random(22)
    perms = list(itertools.permutations(range(4)))
    for _ in range(300):
        a, b = (
            PermutationGroup.from_generators(range(4), rng.sample(perms, rng.randint(0, 2)))
            for _ in range(2)
        )
        assert (a == b) == (b == a) == (a.elements == b.elements)

def test_no_group_is_built_from_an_unclosed_element_set():
    """Three elements of S3 that are not closed under composition: there is
    no element-set constructor to trust them, and as generators they give S3."""
    elements = [(0, 1, 2), (1, 0, 2), (0, 2, 1)]
    with pytest.raises(TypeError):
        PermutationGroup(range(3), elements)
    group = PermutationGroup.from_generators(range(3), elements)
    assert group.order == 6
    assert (1, 2, 0) in group
    with pytest.raises(AssertionError, match="not closed"):
        group_from_elements(range(3), elements)


def test_groups_on_the_empty_ground():
    for group in (
        PermutationGroup.from_generators((), [()]),
        PermutationGroup.from_generators((), []),
        PermutationGroup.trivial(()),
    ):
        assert group.order == 1
        assert group.sorted_elements() == [()]
        assert group.generators == ()


def test_symmetric_group_is_the_discrete_homeo_group():
    for n in range(0, 7):
        space = discrete_space(n)
        assert PermutationGroup.symmetric(space.points) == homeo_group(space)
        assert PermutationGroup.symmetric(space.points).sorted_elements() == sorted(
            itertools.permutations(range(n))
        )


def test_symmetric_group_of_degree_100_is_written_as_its_chain():
    start = time.perf_counter()
    group = PermutationGroup.symmetric(range(100))
    assert time.perf_counter() - start < 0.5
    assert group.order == factorial(100)
    assert len(group.generators) == 99
    assert tuple(reversed(range(100))) in group


# --- the Schreier-Sims chain ---------------------------------------------------------


@st.composite
def generator_lists(draw):
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(n)), max_size=4))
    probes = draw(st.lists(st.permutations(range(n)), max_size=20))
    return n, [tuple(g) for g in gens], [tuple(p) for p in probes]


@settings(max_examples=150, deadline=None)
@given(generator_lists())
@example((4, [], [(1, 0, 2, 3)]))
@example((4, [(0, 1, 2, 3)], [(0, 1, 2, 3), (1, 0, 2, 3)]))
@example((5, [(1, 0, 2, 3, 4)], [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4)]))
def test_schreier_sims_against_closure(case):
    n, gens, probes = case
    closed = _close(n, gens)
    group = PermutationGroup.from_generators(range(n), gens)
    assert group.order == len(closed)
    assert list(group.generators) == _reduce_generators(n, closed)
    chain = _schreier_sims(n, gens)
    identity = tuple(range(n))
    for g in closed:
        assert _sift(chain, g) == identity
    for p in probes:
        assert (p in group) == (p in closed)
    if len(closed) <= 720:
        _assert_matches(PermutationGroup._from_chain(range(n), chain), closed)


# --- pointwise stabilisers --------------------------------------------------------


@st.composite
def small_spaces(draw):
    """A labelled preorder on at most 7 points: random minimal open sets,
    closed under transitivity."""
    n = draw(st.integers(0, 7))
    masks = [draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n)]
    for k in range(n):
        for i in range(n):
            if masks[i] >> k & 1:
                masks[i] |= masks[k]
    names = [f"p{i}" for i in range(n)]
    opens = {names[i]: {names[j] for j in range(n) if masks[i] >> j & 1} for i in range(n)}
    return FiniteSpace(names, opens)


@st.composite
def stabiliser_cases(draw):
    named = st.sampled_from([discrete_space(12), layered_space((4, 3))])
    space = draw(st.one_of(small_spaces(), named))
    n = space.size
    points = draw(st.one_of(
        st.lists(st.integers(0, max(n - 1, 0)), max_size=n + 2) if n else st.just([]),
        st.permutations(range(n)),
    ))
    return homeo_group(space), list(points)


@settings(max_examples=200, deadline=None)
@given(stabiliser_cases())
@example((PermutationGroup.symmetric(range(5)), []))
@example((PermutationGroup.symmetric(range(5)), [3, 1, 3]))
@example((PermutationGroup.symmetric(range(5)), [4, 2, 0, 1, 3]))
def test_pointwise_stabiliser_matches_the_two_run_reference(case):
    group, points = case
    got = group.pointwise_stabiliser(points)
    want = _pointwise_stabiliser_reference(group, points)
    assert [(b, set(o)) for b, o in got._chain] == [(b, set(o)) for b, o in want._chain]
    assert got.generators == want.generators
    for b, orbit in got._chain:
        for j, u in orbit.items():
            assert u[b] == j
            assert all(u[i] == i for i in (*points, *range(b)))


def test_pointwise_stabiliser_runs_schreier_sims_at_most_once(monkeypatch):
    group = homeo_group(discrete_space(30), max_points=30)
    calls = []
    real = permgroups._schreier_sims

    def counted(n, generators):
        calls.append(n)
        return real(n, generators)

    monkeypatch.setattr(permgroups, "_schreier_sims", counted)
    # a prefix of the base: the tail of the group's own chain
    assert group.pointwise_stabiliser([1, 0]).order == factorial(28)
    assert fixator(group, ["p1"]).order == factorial(29)
    assert calls == []
    assert fixator(group, ["p30", "p4"]).order == factorial(28)
    assert calls == [30]


# --- normal subgroups ---------------------------------------------------------------


def test_normal_subgroups_match_element_closure_reference():
    spaces = [space for n in range(0, 5) for space in enumerate_t0_spaces(n)]
    spaces += remark19_spaces()
    spaces += [
        layered_space(sizes)
        for sizes in ((2, 2), (3, 2), (3, 3), (2, 2, 2), (1, 2, 1, 2), (4, 4), (3, 3, 3))
    ]
    spaces += [fan_forest(widths) for widths in ((2, 2), (3, 3), (2, 2, 2))]
    for space in spaces:
        group = homeo_group(space)
        got, want = normal_subgroups(group), _normal_subgroups_reference(group)
        assert [sub.order for sub in got] == [sub.order for sub in want], space.to_text()
        assert [sub.generators for sub in got] == [sub.generators for sub in want]
        assert [sub.sorted_elements() for sub in got] == [sub.sorted_elements() for sub in want]


def _preorder_space(n, bits):
    """The space of the preorder generated by the relation ``bits``, n by n:
    each point's minimal open set is the points below it."""
    below = [1 << i | sum(1 << j for j in range(n) if bits[i * n + j]) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if below[i] >> k & 1:
                below[i] |= below[k]
    names = [f"q{i}" for i in range(n)]
    return FiniteSpace(names, {names[i]: {names[j] for j in range(n) if below[i] >> j & 1} for i in range(n)})


_product_spaces = st.one_of(
    st.integers(1, 7).map(discrete_space),
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(layered_space),
    st.sets(st.integers(1, 5), min_size=1, max_size=3).map(lambda widths: fan_forest(sorted(widths))),
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda bits: _preorder_space(n, bits)
        )
    ),
)


@settings(max_examples=30, deadline=None)
@given(_product_spaces)
def test_closed_form_census_matches_the_class_mask_search(tmp_path_factory, space):
    group = homeo_group(space, max_points=20)
    orbits = finite._product_orbits(group)
    assume(orbits is not None and group.order <= finite.DEFAULT_MAX_GROUP_ORDER)
    got = normal_subgroups(group)
    want = finite._class_mask_census(group)
    assert len(got) == finite._census_size(orbits)
    assert [sub.order for sub in got] == [sub.order for sub in want]
    assert got == want
    assert [sub.generators for sub in got] == [sub.generators for sub in want]
    path = tmp_path_factory.mktemp("census") / "space.txt"
    path.write_text(space.to_text())
    argv = ("--format", "structured", "fspace", str(path), "--normal", "--max-points", "20")
    closed = run_cli(*argv)
    with mock.patch.object(finite, "normal_subgroups", lambda g: want):
        assert run_cli(*argv) == closed


def test_groups_that_are_not_products_keep_the_class_mask_search(monkeypatch):
    calls = []
    search = finite._class_mask_census

    def counted(group):
        calls.append(group.order)
        return search(group)

    monkeypatch.setattr(finite, "_class_mask_census", counted)
    for widths in ((2, 2), (3, 3), (2, 2, 2)):
        normal_subgroups(homeo_group(fan_forest(widths)))
    normal_subgroups(homeo_group(layered_space((3, 2))))
    normal_subgroups(homeo_group(discrete_space(5)))
    assert calls == [8, 72, 48]


def _wrong_roles(wrong_role, wrong_cycles):
    roles = finite._role_generators

    def role_generators(role, block, n):
        if role != wrong_role:
            return roles(role, block, n)
        return [finite._perm_of_cycles([cycle], n) for cycle in wrong_cycles(block)]

    return role_generators


@pytest.mark.parametrize(
    "role, cycles, message",
    [
        # (b0 b1) alone for A_4: order 2 where 12 was claimed
        ("K", lambda block: [block[:2]], "^normal subgroup of order 2 does not match its closed-form order 12$"),
        # (b0 b1) and (b2 b3) for V_4: the right order, but not normal
        ("L", lambda block: [block[:2], block[2:4]], "^subgroup of order 4 is not normal$"),
    ],
)
def test_closed_form_checks_the_role_generators(monkeypatch, role, cycles, message):
    monkeypatch.setattr(finite, "_role_generators", _wrong_roles(role, cycles))
    with pytest.raises(InternalCheckError, match=message):
        normal_subgroups(homeo_group(discrete_space(4)))


@pytest.mark.parametrize(
    "space, extra, message",
    [
        # e_1 for S_3's alternating group: A_3 and (p1 p2) make S_3, of the
        # claimed order 6 and normal, but another role choice's subgroup
        (discrete_space(3), {1: [[1]]}, r"^subgroup of order 6 holds the transposition \(p1 p2\) of an index-2 orbit$"),
        # a repeated basis row: one sign diagonal, half the claimed order
        (layered_space((2, 2)), {2: [[3, 3]]}, "^normal subgroup of order 2 does not match its closed-form order 4$"),
    ],
)
def test_closed_form_checks_the_subspaces(monkeypatch, space, extra, message):
    bases = finite._unit_free_bases
    monkeypatch.setattr(finite, "_unit_free_bases", lambda t: [*bases(t), *extra.get(t, [])])
    with pytest.raises(InternalCheckError, match=message):
        normal_subgroups(homeo_group(space))


def test_closed_form_census_above_the_class_mask_bound(monkeypatch):
    """Products of symmetric groups far above 40320 answer, with no element
    listed; layered (4, 4, 4) in under a second."""

    def refuse(self):
        raise AssertionError("elements were listed")

    monkeypatch.setattr(PermutationGroup, "_lex_elements", refuse)
    group = homeo_group(discrete_space(12))
    assert [sub.order for sub in normal_subgroups(group)] == [1, factorial(12) // 2, factorial(12)]
    for sizes, count in (((4, 4, 5), 61), ((5, 5, 5), 38), ((6, 6, 6), 38)):
        group = homeo_group(layered_space(sizes), max_points=18)
        subs = normal_subgroups(group)
        assert len(subs) == count and subs[0].order == 1 and subs[-1] is group
    group = homeo_group(layered_space((4, 4, 4)))
    start = time.perf_counter()
    assert len(normal_subgroups(group)) == 78
    assert time.perf_counter() - start < 1


def test_group_ordering_matches_the_listings():
    """``by_order_then_lex`` compares coset by coset of a shared stabiliser;
    the reference compares the whole lex listings."""
    s4 = PermutationGroup.symmetric(range(4))
    groups = {frozenset(_close(4, [a, b])) for a, b in itertools.combinations(s4.sorted_elements(), 2)}
    cases = [[group_from_elements(range(4), elements) for elements in groups]]
    rng = random.Random(5)
    for n in (5, 6):
        gens = [[tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 2))] for _ in range(40)]
        cases.append([PermutationGroup.from_generators(range(n), g) for g in gens])
    cases.append(normal_subgroups(homeo_group(layered_space((2, 3, 2)))))
    for case in cases:
        got = sorted(case, key=permgroups.by_order_then_lex)
        assert got == sorted(case, key=lambda sub: (sub.order, sub.sorted_elements()))


# --- normality ----------------------------------------------------------------------


def test_is_normal_against_reference_on_s4_subgroups():
    """Every subgroup of S4 is generated by two elements."""
    s4 = PermutationGroup.symmetric(range(4))
    elements = s4.sorted_elements()
    subgroups = {}
    for a, b in itertools.combinations_with_replacement(elements, 2):
        closed = frozenset(_close(4, [a, b]))
        subgroups.setdefault(closed, group_from_elements(range(4), closed))
    assert len(subgroups) == 30
    verdicts = [s4.is_normal(sub) for sub in subgroups.values()]
    assert verdicts == [_is_normal_reference(s4, sub) for sub in subgroups.values()]
    assert sorted(sub.order for sub, v in zip(subgroups.values(), verdicts) if v) == [1, 4, 12, 24]


def test_is_normal_against_reference_on_remark19_candidates():
    for space in remark19_spaces():
        group = homeo_group(space)
        for _, cand in verify_remark19(space).candidates:
            assert group.is_normal(cand) == _is_normal_reference(group, cand)


# --- cheap paths --------------------------------------------------------------------------


@pytest.fixture
def no_listing(monkeypatch):
    """Fail if any chain-built group lists its elements."""

    def refuse(*args):
        raise AssertionError("elements were listed")

    monkeypatch.setattr(permgroups, "_walk", refuse)


_COUNT_REMARK19_WORK = """
from scatterkit import permgroups, verify

counts = {"sift": 0, "eq": 0}
sift, eq = permgroups._sift, permgroups.PermutationGroup.__eq__

def counted_sift(*args):
    counts["sift"] += 1
    return sift(*args)

def counted_eq(*args):
    counts["eq"] += 1
    return eq(*args)

permgroups._sift = counted_sift
permgroups.PermutationGroup.__eq__ = counted_eq
assert verify.suite_remark19().ok
print(counts["sift"], counts["eq"])
"""


def test_remark19_work_counts_do_not_depend_on_the_hash_seed():
    """Nothing on the Remark 19 path iterates point names in hash order,
    and groups hash from their lex-first generators, which hold only ints,
    so the sifts and group comparisons are the same in every interpreter."""
    counts = []
    for seed in ("0", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_REMARK19_WORK],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        counts.append(proc.stdout)
    assert counts[0] == counts[1]


def test_large_groups_answer_without_listing_elements(no_listing):
    space = discrete_space(12)
    group = homeo_group(space)
    assert group.order == factorial(12)
    other = homeo_group(space)
    assert group == other and hash(group) == hash(other)
    assert group == PermutationGroup.symmetric(space.points)
    assert len(group.generators) == 11
    report = is_fully_transitive(space)
    assert report.holds and report.group is group
    with pytest.raises(BoundExceededError, match="above the cap of 1000000"):
        group.elements


def test_is_normal_lists_no_elements(no_listing):
    group = homeo_group(discrete_space(12))
    assert not group.is_normal(fixator(group, ["p1"]))
    assert group.is_normal(group)


def test_remark19_refuses_before_listing_elements(no_listing):
    with pytest.raises(BoundExceededError, match="^group order 362880 is above the bound of 40320$"):
        verify_remark19(discrete_space(9))


def test_fspace_group_at_twelve_points(tmp_path):
    discrete = tmp_path / "discrete12.txt"
    discrete.write_text(discrete_space(12).to_text())
    code, out = run_cli(
        "--format", "structured", "fspace", str(discrete), "--group", "--full-transitivity"
    )
    assert code == 0
    lines = out.splitlines()
    assert "homeo_order=479001600" in lines
    assert "fully_transitive=true" in lines and "expected_order=479001600" in lines
    assert [line for line in lines if line.startswith("generator.")] == [
        f"generator.{i}=(p{11 - i} p{12 - i})" for i in range(11)
    ]
    # leaves permuted within each fan, fans of one width permuted among themselves
    for widths, order, expected in (((3, 3, 3), 1296, 2177280), ((5, 5), 28800, 7257600)):
        fans = tmp_path / "fans.txt"
        fans.write_text(fan_forest(widths).to_text())
        code, out = run_cli(
            "--format", "structured", "fspace", str(fans), "--group", "--full-transitivity"
        )
        assert code == 0
        lines = out.splitlines()
        assert f"homeo_order={order}" in lines
        assert "fully_transitive=false" in lines and f"expected_order={expected}" in lines


def test_fspace_normal_refuses_large_groups(tmp_path, capsys):
    """Two fans of six leaves that swap: not a product of symmetric groups,
    so the class-mask search's order bound applies."""
    path = tmp_path / "fans66.txt"
    path.write_text(fan_forest((6, 6)).to_text())
    code, _ = run_cli("--format", "structured", "fspace", str(path), "--normal", "--max-points", "14")
    assert code == 1
    assert capsys.readouterr().err == "error: group order 1036800 is above the bound of 40320\n"
