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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatterkit import permgroups
from scatterkit._kernels import isomorphisms
from scatterkit.cli import main
from scatterkit.errors import BoundExceededError
from scatterkit.finite import (
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
    """Groups hash from their basic orbits, which hold only ints, so the
    dict of candidate groups probes the same way in every interpreter."""
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
    report = is_fully_transitive(space, group=group)
    assert report.holds and report.group_order == factorial(12)
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
    path = tmp_path / "discrete10.txt"
    path.write_text(discrete_space(10).to_text())
    code, _ = run_cli("--format", "structured", "fspace", str(path), "--normal")
    assert code == 1
    assert capsys.readouterr().err == "error: group order 3628800 is above the bound of 40320\n"
