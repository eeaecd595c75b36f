import itertools
import random
from math import factorial

import pytest

from scatterkit.cli import main
from scatterkit.errors import BoundExceededError, DomainError
from scatterkit.finite import FiniteSpace, enumerate_t0_spaces, is_fully_transitive
from scatterkit.flows import (
    _acts_simply_transitively,
    act,
    check_simply_transitive,
    lo_space,
    product_flow_check,
)
from scatterkit.verify import chain_space, discrete_space, double_fan_space, star_space


def test_lo_space_sizes():
    assert len(lo_space(0)) == 1
    assert len(lo_space(1)) == 1
    assert len(lo_space(3)) == 6
    for n in range(6):
        assert len(lo_space(n)) == factorial(n)
    with pytest.raises(BoundExceededError):
        lo_space(9)


def test_act_examples():
    identity = (1, 2, 3)
    assert act(identity, (1, 2, 3)) == (1, 2, 3)
    assert act((2, 1, 3), (1, 2, 3)) == (2, 1, 3)
    assert act((2, 3, 1), (1, 2, 3)) == (2, 3, 1)
    # named ground sets act through mappings
    assert act({"a": "b", "b": "a"}, ("a", "b")) == ("b", "a")


def test_act_is_a_left_action_small():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        orders = lo_space(n)
        identity = tuple(range(1, n + 1))
        for order in orders:
            assert act(identity, order) == order
        for g, h in itertools.product(perms, repeat=2):
            gh = tuple(g[h[i] - 1] for i in range(n))
            for order in orders:
                assert act(g, act(h, order)) == act(gh, order)


def test_act_is_a_left_action_sampled_n5():
    rng = random.Random(3)
    perms = list(itertools.permutations(range(1, 6)))
    orders = lo_space(5)
    for _ in range(300):
        g, h, order = rng.choice(perms), rng.choice(perms), rng.choice(orders)
        gh = tuple(g[h[i] - 1] for i in range(5))
        assert act(g, act(h, order)) == act(gh, order)


def test_simply_transitive():
    for n in range(6):
        assert check_simply_transitive(n)


def _incidence_reference(elements, points, move):
    """The (source, target) incidence table: simply transitive iff every
    pair of points is joined by exactly one element."""
    index = {x: i for i, x in enumerate(points)}
    counts = {}
    for g in elements:
        for i, x in enumerate(points):
            target = move(g, x)
            if target not in index:
                return False
            key = (i, index[target])
            counts[key] = counts.get(key, 0) + 1
    return len(counts) == len(points) ** 2 and all(c == 1 for c in counts.values())


def _move_product(mapping, pt):
    return tuple(tuple(mapping[x] for x in order) for order in pt)


def test_simply_transitive_matches_reference():
    for n in range(6):
        perms = list(itertools.permutations(range(1, n + 1)))
        assert check_simply_transitive(n) == _incidence_reference(perms, lo_space(n), act)


def test_product_flow_matches_reference():
    spaces = [sp for n in range(0, 5) for sp in enumerate_t0_spaces(n)]
    spaces += [discrete_space(5), star_space(4, 2)]
    checked = 0
    for space in spaces:
        transitivity = is_fully_transitive(space)
        if not transitivity.holds:
            continue
        group = transitivity.group
        block_orders = [list(itertools.permutations(b)) for b in transitivity.partition.blocks]
        flow = list(itertools.product(*block_orders))
        mappings = [group.as_mapping(g) for g in group.sorted_elements()]
        expected = _incidence_reference(mappings, flow, _move_product)
        report = product_flow_check(space)
        assert report.simply_transitive == expected, space.to_text()
        assert report.ok, space.to_text()
        checked += 1
    assert checked == 95  # 93 T0 spaces on <= 4 points, discrete 5, star(4, 2)


def _move_point(g, x):
    return g[x - 1]


def _move_copy(g, pt):
    copy, x = pt
    return copy, g[x - 1]


def test_orbit_map_conditions():
    # each negative case breaks exactly one of the three conditions
    s3 = list(itertools.permutations((1, 2, 3)))
    cases = [
        # |G| = 6 but |X| = 3; the 3 images are all of X
        (s3, [1, 2, 3], _move_point),
        # |G| = |X| = 6 but the orbit of (0, 1) has only 3 images
        (s3, [(c, x) for c in (0, 1) for x in (1, 2, 3)], _move_copy),
        # |G| = |X| = 2, distinct images, but (1 2) sends (1, 2, 3) to (2, 1, 3)
        ([(1, 2, 3), (2, 1, 3)], [(1, 2, 3), (1, 3, 2)], act),
    ]
    for elements, points, move in cases:
        assert not _acts_simply_transitively(elements, points, move)
        assert not _incidence_reference(elements, points, move)
    # S3 on its own six orders is the positive case
    assert _acts_simply_transitively(s3, lo_space(3), act)


def test_larger_sizes_answered_within_bound(capsys):
    assert check_simply_transitive(7)
    assert check_simply_transitive(8)
    with pytest.raises(BoundExceededError):
        check_simply_transitive(9)
    with pytest.raises(BoundExceededError):
        lo_space(9)
    assert main(["flows", "--n", "9"]) == 1
    assert "limited to 8 elements" in capsys.readouterr().err


def test_negative_sizes_are_refused(capsys):
    message = "the number of elements must be non-negative, got -1"
    with pytest.raises(DomainError, match=f"^{message}$"):
        lo_space(-1)
    with pytest.raises(DomainError, match=f"^{message}$"):
        check_simply_transitive(-1)
    assert main(["flows", "--n", "-1"]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert "orders" not in out and "simply_transitive" not in out


def test_stabilizers_are_trivial():
    for n in range(1, 6):
        for order in lo_space(n):
            fixers = [
                g
                for g in itertools.permutations(range(1, n + 1))
                if act(g, order) == order
            ]
            assert fixers == [tuple(range(1, n + 1))]


def test_product_flow_examples():
    chain = FiniteSpace(("a", "b", "c"), {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"}})
    report = product_flow_check(chain)
    assert report.ok and report.flow_size == 2 and report.group_order == 2
    report = product_flow_check(discrete_space(3))
    assert report.ok and report.flow_size == 6
    report = product_flow_check(discrete_space(1))
    assert report.ok and report.flow_size == 1
    report = product_flow_check(double_fan_space())
    assert report.ok and report.flow_size == 4
    report = product_flow_check(chain_space(3))
    assert report.ok and report.flow_size == 1


def test_product_flow_requires_full_transitivity():
    p3_encoding = FiniteSpace(
        ("1", "2", "3", "e12", "e23"),
        {
            "1": {"1"},
            "2": {"2"},
            "3": {"3"},
            "e12": {"e12", "1", "2"},
            "e23": {"e23", "2", "3"},
        },
    )
    with pytest.raises(DomainError):
        product_flow_check(p3_encoding)
