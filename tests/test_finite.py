import io
import itertools
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import cli, finite
from scatterkit._kernels import _bits, isomorphisms, pure
from scatterkit.errors import (
    BoundExceededError,
    DomainError,
    InternalCheckError,
    ScatterkitError,
    UnknownPointError,
    ValidationError,
)
from scatterkit.finite import (
    FiniteSpace,
    PermutationGroup,
    cb_data,
    conjugacy_classes,
    enumerate_preorder_spaces,
    enumerate_t0_spaces,
    fixator,
    homeo_group,
    is_fully_transitive,
    normal_subgroups,
    separation_report,
    similar,
    similar_exhaustive,
    similarity_partition,
    similarity_witness,
    SwapResult,
    swap_homeo,
    verify_remark19,
)
from scatterkit.verify import chain_space, discrete_space, double_fan_space, run_suite, star_space

from element_groups import group_from_elements
from spaces import fan_forest, layered_space

CHAIN3 = FiniteSpace(("a", "b", "c"), {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"}})


def two_fans():
    return FiniteSpace(
        ("a1", "a2", "c1", "b1", "b2", "b3", "c2"),
        {
            "a1": {"a1"},
            "a2": {"a2"},
            "c1": {"c1", "a1", "a2"},
            "b1": {"b1"},
            "b2": {"b2"},
            "b3": {"b3"},
            "c2": {"c2", "b1", "b2", "b3"},
        },
    )


# --- validation ---------------------------------------------------------------

def test_validate_accepts_good_spaces():
    assert CHAIN3.size == 3
    assert discrete_space(4).size == 4
    assert FiniteSpace((), {}).size == 0


def test_validate_rejects_transitivity_failure():
    with pytest.raises(ValidationError, match="transitivity"):
        FiniteSpace(("a", "b", "c"), {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}})


def test_validate_rejects_reflexivity_failure():
    with pytest.raises(ValidationError, match="reflexivity"):
        FiniteSpace(("a", "b"), {"a": {"b"}, "b": {"b"}})


def test_validate_rejects_bad_names():
    with pytest.raises(ValidationError, match="unknown point"):
        FiniteSpace(("a",), {"a": {"a", "z"}})
    with pytest.raises(ValidationError, match="duplicate"):
        FiniteSpace(("a", "a"), {"a": {"a"}})


def test_validation_errors_name_the_first_offender_under_any_hash_seed(tmp_path):
    """Members are checked in the order given and transitivity in point
    order, so the error does not depend on how a frozenset iterates."""
    cases = {
        "a: a x y z\n": "error: unknown point 'x' in the minimal open set of 'a'\n",
        "a: a b c\nb: b d\nc: c d\nd: d\n": (
            "error: transitivity violated: 'b' lies in the minimal open set of 'a' "
            "but U_b is not contained in U_a\n"
        ),
    }
    for i, (text, expected) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(text, encoding="utf-8")
        for seed in ("1", "5"):
            proc = subprocess.run(
                [sys.executable, "-m", "scatterkit", "fspace", str(path)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert (proc.returncode, proc.stderr) == (1, expected)


def _finite_space_reference(points, min_open):
    """The table constructor as it was when a space built ``min_open``
    eagerly: (points, masks, min_open) of a valid table, else the
    ValidationError it raises."""
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
                y = min(z for z in inside[x] if masks[z] & outside)
                raise ValidationError(
                    f"transitivity violated: {points[y]!r} lies in the minimal open set of "
                    f"{points[x]!r} but U_{points[y]} is not contained in U_{points[x]}"
                )
    return points, tuple(masks), opens


def _outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


def _space_outcome(build):
    def run():
        space = build()
        return space.points, space._masks, space.min_open

    return _outcome(run)


_NAMES = "abcdef"


@st.composite
def point_tables(draw):
    """A point list and a table: half the time a real space, each a few
    mistakes away from one, so every error and every precedence between
    two of them comes up: a duplicate point, a missing or unknown key, an
    unknown member, a point missing from its own set, a set not closed."""
    n = draw(st.integers(0, 6))
    points = list(_NAMES[:n])
    masks = [draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n)]
    if draw(st.booleans()):
        for _ in range(n):  # close under transitivity
            for i, j in itertools.product(range(n), repeat=2):
                if masks[i] >> j & 1:
                    masks[i] |= masks[j]
    table = {p: [points[j] for j in range(n) if m >> j & 1] for p, m in zip(points, masks)}
    for p in table:
        draw(st.randoms()).shuffle(table[p])
    mistakes = st.sampled_from(["drop_key", "extra_key", "unknown_member", "drop_self",
                                "drop_member", "add_member", "duplicate_point"])
    for mistake in draw(st.lists(mistakes, max_size=3)):
        if mistake == "extra_key":
            table[draw(st.sampled_from("xyz"))] = ["x"]
        elif mistake == "duplicate_point" and points:
            points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(points)))
        elif table:
            key = draw(st.sampled_from(sorted(table)))
            if mistake == "drop_key":
                del table[key]
            elif mistake == "unknown_member":
                table[key].insert(draw(st.integers(0, len(table[key]))), "z")
            elif mistake == "drop_self" and key in table[key]:
                table[key].remove(key)
            elif mistake == "drop_member" and table[key]:
                table[key].pop(draw(st.integers(0, len(table[key]) - 1)))
            elif mistake == "add_member" and points:
                table[key].append(draw(st.sampled_from(points)))
    return points, table


@settings(max_examples=500, deadline=None)
@given(point_tables())
def test_table_constructor_matches_eager_reference(case):
    """Same masks and min_open on valid tables, and on invalid ones the
    same error, first missing point, then per point an unknown member or
    a point outside its own set, then an unknown key, then the first
    transitivity offender."""
    points, table = case
    want = _outcome(lambda: _finite_space_reference(points, table))
    assert _space_outcome(lambda: FiniteSpace(points, table)) == want


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)),
    st.booleans(),
)
def test_mask_constructor_matches_eager_reference(masks, reflexive):
    """A mask list validates like the table that names the same sets."""
    if reflexive:  # so that transitivity, not reflexivity, decides most lists
        masks = [m | 1 << i for i, m in enumerate(masks)]
    points = _NAMES[:len(masks)]
    table = {p: [points[j] for j in range(len(masks)) if m >> j & 1] for p, m in zip(points, masks)}
    want = _outcome(lambda: _finite_space_reference(points, table))
    assert _space_outcome(lambda: FiniteSpace.from_masks(points, masks)) == want


def test_mask_constructor_rejects_points_outside_the_space():
    with pytest.raises(ValidationError, match="'b' holds a point outside the space"):
        FiniteSpace.from_masks("ab", [0b01, 0b110])
    with pytest.raises(ValidationError, match="outside the space"):
        FiniteSpace.from_masks("a", [-1])
    with pytest.raises(ValidationError, match="2 minimal open sets given for 1 points"):
        FiniteSpace.from_masks("a", [1, 1])
    with pytest.raises(ValidationError, match="duplicate point names"):
        FiniteSpace.from_masks("aa", [1, 2])


def test_min_open_is_built_on_first_read():
    space = FiniteSpace.parse("a: a\nb: b\nc: a b c\n")
    assert space._min_open is None
    assert space.min_open == {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"}}
    assert space.min_open is space.min_open


def test_long_chain_validates_quickly():
    start = time.perf_counter()
    space = chain_space(1100)
    assert time.perf_counter() - start < 1.0
    assert space.size == 1100


def test_parse_round_trip():
    text = "# demo\na: a\nb: b\nc: a b c\n"
    space = FiniteSpace.parse(text)
    assert space == CHAIN3
    assert FiniteSpace.parse(space.to_text()) == space


def test_parse_round_trip_on_every_small_space():
    for n in range(0, 5):
        for space in enumerate_preorder_spaces(n):
            assert FiniteSpace.parse(space.to_text()) == space


# Random text, random tables over a few names (most of them invalid, some
# real spaces the --group path handles), and long or repeated inputs.
_point = st.sampled_from("abcde")
_space_text = st.one_of(
    st.text(max_size=200),
    st.text(alphabet="ab :#\n", max_size=400),
    st.lists(st.tuples(_point, st.lists(_point, max_size=5)), max_size=8).map(
        lambda rows: "".join(f"{name}: {' '.join(members)}\n" for name, members in rows)
    ),
    st.builds(
        lambda line, times: line * times,
        st.sampled_from(["a: a\n", "a: a b\n", ":", "a:", "#", "x" * 50, "\n"]),
        st.integers(1, 3000),
    ),
    # discrete spaces above the 12-point bound
    st.integers(13, 2000).map(lambda k: "".join(f"p{i}: p{i}\n" for i in range(k))),
)


@settings(max_examples=150, deadline=None)
@given(_space_text)
def test_finite_space_parse_fuzz(text):
    try:
        FiniteSpace.parse(text)
    except ScatterkitError:
        pass


@settings(max_examples=60, deadline=None)
@given(_space_text)
def test_fspace_cli_fuzz(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "space.txt"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["fspace", str(path), "--group", "--normal", "--full-transitivity"])
    assert code in (0, 1, 2)


# --- separation and CB data ---------------------------------------------------

def test_separation_examples():
    rep = separation_report(CHAIN3)
    assert (rep.t0, rep.t1, rep.scattered) == (True, False, True)
    indiscrete = FiniteSpace(("a", "b"), {"a": {"a", "b"}, "b": {"a", "b"}})
    rep2 = separation_report(indiscrete)
    assert (rep2.t0, rep2.scattered) == (False, False)
    rep3 = separation_report(discrete_space(4))
    assert (rep3.t0, rep3.t1, rep3.scattered) == (True, True, True)


def test_cb_data_examples():
    data = cb_data(CHAIN3)
    assert data.levels == (frozenset("abc"), frozenset("c"), frozenset())
    assert data.rank_of == {"a": 0, "b": 0, "c": 1}
    assert data.rank == 2
    assert cb_data(discrete_space(3)).rank == 1
    chain = chain_space(3)
    assert [cb_data(chain).rank_of[p] for p in chain.points] == [0, 1, 2]


def _cb_data_reference(space):
    """CB data by the derived-set loop itself, every level testing every
    point still in it, with each point's rank found by scanning every level
    mask: the last level holding the point."""
    masks, n = space._masks, space.size
    levels = []
    current = (1 << n) - 1
    while True:
        levels.append(current)
        nxt = 0
        for i in range(n):
            if (current >> i) & 1 and masks[i] & current != 1 << i:
                nxt |= 1 << i
        if nxt == current:
            break
        current = nxt
    rank_of = {}
    for i, name in enumerate(space.points):
        rank_of[name] = max(lvl for lvl, mask in enumerate(levels) if (mask >> i) & 1)
    return (
        tuple(frozenset(space._names(m)) for m in levels),
        rank_of,
        len(levels) - 1,
        levels[-1] == 0,
    )


def test_cb_data_matches_rank_scan_reference():
    spaces = [space for n in range(5) for space in enumerate_preorder_spaces(n)]
    assert len(spaces) == 390  # every labelled topology on at most 4 points
    spaces += [chain_space(30), chain_space(200), discrete_space(5), double_fan_space()]
    for space in spaces:
        data = finite._cb_data(space)
        assert (data.levels, dict(data.rank_of), data.rank, data.scattered) == _cb_data_reference(
            space
        ), space


@st.composite
def preorder_spaces(draw):
    """A random finite space: random minimal open sets, closed under
    transitivity (U_x holds U_y for every y in U_x)."""
    n = draw(st.integers(0, 10))
    masks = [draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = masks[i]
            for j in range(n):
                if (masks[i] >> j) & 1:
                    grown |= masks[j]
            changed |= grown != masks[i]
            masks[i] = grown
    names = [f"p{i}" for i in range(n)]
    return FiniteSpace(names, {p: {names[j] for j in range(n) if (m >> j) & 1} for p, m in zip(names, masks)})


@settings(max_examples=300, deadline=None)
@given(preorder_spaces())
def test_cb_data_matches_rank_scan_reference_on_random_spaces(space):
    data = finite._cb_data(space)
    assert (data.levels, dict(data.rank_of), data.rank, data.scattered) == _cb_data_reference(space)


def test_rank_of_is_read_only():
    space = chain_space(3)
    for data in (cb_data(space), similarity_partition(space)):
        with pytest.raises(TypeError):
            data.rank_of["p1"] = 5
    ranks = {"p1": 0, "p2": 1, "p3": 2}
    assert cb_data(space).rank_of == similarity_partition(space).rank_of == ranks


# --- derived data kept on the space -------------------------------------------

def test_derived_data_is_computed_once_per_space():
    space, twin = two_fans(), two_fans()
    for derive in (cb_data, similarity_partition, homeo_group):
        first = derive(space)
        assert derive(space) is first
        # an equal but distinct space derives its own, equal result
        assert derive(twin) is not first
        assert derive(twin) == first
    report = is_fully_transitive(space)
    again = is_fully_transitive(space)
    assert again.group is report.group and again.partition is report.partition
    assert again == report


def test_bounds_are_checked_before_the_stored_result():
    space = discrete_space(5)
    assert homeo_group(space).order == factorial(5)
    assert is_fully_transitive(space).holds
    with pytest.raises(BoundExceededError):
        homeo_group(space, max_points=4)
    with pytest.raises(BoundExceededError):
        is_fully_transitive(space, max_points=4)


def test_order_formula_reads_the_group_argument(monkeypatch):
    """The order formula reads the homeomorphism group's chain, so a wrong
    chain shows as a disagreement with the direct check."""
    assert is_fully_transitive(discrete_space(3)).holds
    monkeypatch.setattr(finite, "_stabiliser_chain", lambda masks, cand: [])
    with pytest.raises(InternalCheckError, match="disagree"):
        is_fully_transitive(discrete_space(3))


def test_verify_records_a_transitivity_disagreement_as_a_failure(monkeypatch):
    monkeypatch.setattr(finite, "_stabiliser_chain", lambda masks, cand: [])
    [result] = run_suite("full-transitivity")
    assert not result.ok
    assert "FAIL - direct tuple check agrees with the order formula on every T0 space, n=2" in result.lines


def test_each_request_derives_the_space_data_once(tmp_path, monkeypatch):
    calls = {}

    def counted(name):
        worker = getattr(finite, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return worker(*args)

        monkeypatch.setattr(finite, name, wrapper)

    workers = ("_cb_data", "_similarity_partition", "_stabiliser_chain", "_direct_failure")
    for name in workers:
        counted(name)
    path = tmp_path / "fan.txt"
    path.write_text(double_fan_space().to_text(), encoding="utf-8")
    requests = (
        ["fspace", str(path), "--group", "--normal", "--full-transitivity"],
        ["flows", "--fspace", str(path)],
    )
    for argv in requests:
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert calls == dict.fromkeys(workers, 1), argv


def test_one_space_is_transposed_once(monkeypatch):
    """The group, full transitivity, the normal subgroups and a swap all
    read the space's one kernel structure; the similarity checks and the
    swap's cleared masks build structures of their own."""
    transposed = []
    transpose = pure.transpose

    def counted(masks):
        transposed.append(masks)
        return transpose(masks)

    monkeypatch.setattr(pure, "transpose", counted)
    space = fan_forest((2, 2))
    normal_subgroups(homeo_group(space))
    assert not is_fully_transitive(space).holds
    assert swap_homeo(space, "l0_0", "l1_1").ok
    assert swap_homeo(space, "l0_0", "l0_1", ["c0"]).ok
    assert sum(masks is space._masks for masks in transposed) == 1
    assert len(transposed) > 1


def test_scattered_iff_t0_small():
    for n in range(0, 4):
        for space in enumerate_preorder_spaces(n):
            rep = separation_report(space)
            assert rep.scattered == rep.t0


# --- similarity -----------------------------------------------------------------

def test_similar_examples():
    fans = two_fans()
    for space, x, y, expected in (
        (CHAIN3, "a", "b", True),
        (CHAIN3, "c", "c", True),
        (CHAIN3, "a", "c", False),
        (fans, "c1", "c2", False),
        (fans, "a1", "b3", True),
    ):
        assert similar(space, x, y) == similar_exhaustive(space, x, y) == expected


def test_similarity_witness_maps_x_to_y():
    witness = similarity_witness(CHAIN3, "a", "b")
    assert witness == {"a": "b"}
    assert similarity_witness(CHAIN3, "a", "c") is None


def _random_preorder(rng, n):
    names = tuple("abcdefg"[:n])
    masks = []
    for i in range(n):
        m = 1 << i
        for j in range(n):
            if j != i and rng.random() < 0.3:
                m |= 1 << j
        masks.append(m)
    changed = True
    while changed:  # transitive closure
        changed = False
        for i in range(n):
            merged = masks[i]
            probe = merged
            while probe:
                low = probe & -probe
                merged |= masks[low.bit_length() - 1]
                probe &= probe - 1
            if merged != masks[i]:
                masks[i] = merged
                changed = True
    table = {
        names[i]: {names[j] for j in range(n) if (masks[i] >> j) & 1} for i in range(n)
    }
    return FiniteSpace(names, table)


def test_minimal_criterion_agrees_with_exhaustive_search():
    for n in range(0, 5):
        for space in enumerate_preorder_spaces(n):
            for x, y in itertools.combinations(space.points, 2):
                assert similar(space, x, y) == similar_exhaustive(space, x, y)
    # random 5-point preorders on top of the exhaustive small cases
    rng = random.Random(5)
    for _ in range(150):
        space = _random_preorder(rng, 5)
        for x, y in itertools.combinations(space.points, 2):
            assert similar(space, x, y) == similar_exhaustive(space, x, y)


def test_similarity_partition_examples():
    assert similarity_partition(CHAIN3).blocks == (("a", "b"), ("c",))
    assert similarity_partition(discrete_space(5)).blocks == (tuple(f"p{i}" for i in range(1, 6)),)
    fans = two_fans()
    assert similarity_partition(fans).blocks == (
        ("a1", "a2", "b1", "b2", "b3"),
        ("c1",),
        ("c2",),
    )


# --- homeomorphism group ---------------------------------------------------------

def test_homeo_group_examples():
    group = homeo_group(CHAIN3)
    assert group.order == 2
    assert sorted(group.cycle_string(g) for g in group.sorted_elements()) == ["(a b)", "id"]
    assert homeo_group(discrete_space(4)).order == factorial(4)
    assert homeo_group(two_fans()).order == factorial(2) * factorial(3)


def test_homeo_group_respects_blocks():
    for space in (CHAIN3, two_fans(), double_fan_space(), star_space(3, 2)):
        part = similarity_partition(space)
        group = homeo_group(space)
        for perm in group.elements:
            mapping = group.as_mapping(perm)
            for block in part.blocks:
                assert {mapping[p] for p in block} == set(block)


def _brute_force_homeos(space):
    n = space.size
    opens = [space.min_open[p] for p in space.points]
    found = []
    for perm in itertools.permutations(range(n)):
        if all(
            {space.points[perm[space.index(q)]] for q in opens[i]}
            == opens[perm[i]]
            for i in range(n)
        ):
            found.append(perm)
    return set(found)


def test_homeo_group_complete_against_brute_force():
    # guards the search kernel (and its colour refinement) against
    # over-pruning: the pruned search must find every homeomorphism
    for n in range(0, 5):
        for space in enumerate_preorder_spaces(n):
            assert set(homeo_group(space).elements) == _brute_force_homeos(space)
    rng = random.Random(9)
    for _ in range(40):
        space = _random_preorder(rng, 6)
        assert set(homeo_group(space).elements) == _brute_force_homeos(space)


def test_homeo_group_bounds():
    with pytest.raises(BoundExceededError):
        homeo_group(discrete_space(13))
    # the element cap is checked against the chain order when elements are listed
    with pytest.raises(BoundExceededError, match="3628800 elements, above the cap of 1000000"):
        homeo_group(discrete_space(10)).elements
    assert homeo_group(discrete_space(7), max_points=7).order == factorial(7)


def test_fixator():
    group = homeo_group(CHAIN3)
    assert fixator(group, []).order == 2
    assert fixator(group, ["a"]).order == 1
    assert fixator(group, CHAIN3.points).order == 1
    with pytest.raises(UnknownPointError):
        fixator(group, ["zz"])


def _fixator_reference(group, names):
    """The fixator by filtering the group's listed elements."""
    idx = [group.ground.index(name) for name in names]
    return group_from_elements(
        group.ground, [g for g in group.elements if all(g[i] == i for i in idx)]
    )


def test_fixator_matches_reference():
    rng = random.Random(12)
    groups = [homeo_group(_random_preorder(rng, rng.randint(3, 7))) for _ in range(50)]
    groups += [homeo_group(space) for space in (discrete_space(5), two_fans(), star_space(3, 2))]
    while len(groups) < 150:
        n = rng.randint(2, 7)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        groups.append(PermutationGroup.from_generators([f"x{i}" for i in range(n)], gens))
    for group in groups:
        names = rng.sample(group.ground, rng.randint(0, len(group.ground)))
        got, want = fixator(group, names), _fixator_reference(group, names)
        assert got.elements == want.elements, (group, names)
        assert got.generators == want.generators, (group, names)


def test_fixator_lists_no_elements():
    # |G| = 12! is far above the cap on listing elements
    group = fixator(homeo_group(discrete_space(12)), ["p1"])
    assert group.order == factorial(11)
    assert fixator(group, ["p5", "p3", "p5"]).order == factorial(9)


# --- full transitivity ------------------------------------------------------------

def test_full_transitivity_examples():
    assert is_fully_transitive(CHAIN3).holds
    assert is_fully_transitive(discrete_space(1)).holds
    assert is_fully_transitive(FiniteSpace((), {})).holds
    report = is_fully_transitive(two_fans())
    assert not report.holds
    assert report.failure == (("a1",), ("b1",))
    assert report.group.order == 12
    assert report.expected_order == factorial(5)


def test_full_transitivity_methods_agree_exhaustively():
    for n in range(0, 5):
        for space in enumerate_t0_spaces(n):
            report = is_fully_transitive(space)
            assert report.holds == (report.group.order == report.expected_order)


def _direct_check_reference(space, group, part):
    """The realised-set definition, tuple by tuple: every distinct-entry
    tuple of coordinatewise similar points must be the image of xs under
    some group element.  Returns (holds, first failing pair)."""
    n = space.size
    block_of = {space.index(p): b for b, block in enumerate(part.blocks) for p in block}
    block_indices = [tuple(space.index(p) for p in block) for block in part.blocks]
    elements = group.sorted_elements()
    for k in range(1, n + 1):
        for xs in itertools.permutations(range(n), k):
            realized = {tuple(g[i] for i in xs) for g in elements}
            pools = [block_indices[block_of[i]] for i in xs]
            for ys in itertools.product(*pools):
                if len(set(ys)) == k and ys not in realized:
                    return False, (
                        tuple(space.points[i] for i in xs),
                        tuple(space.points[j] for j in ys),
                    )
    return True, None


def disjoint_union(*spaces):
    points, opens = [], {}
    for t, space in enumerate(spaces):
        for p in space.points:
            points.append(f"{p}_{t}")
            opens[f"{p}_{t}"] = {f"{q}_{t}" for q in space.min_open[p]}
    return FiniteSpace(points, opens)


def test_direct_check_matches_reference():
    spaces = [sp for n in range(0, 5) for sp in enumerate_t0_spaces(n)]
    spaces += [two_fans(), discrete_space(5), star_space(5, 1)]
    spaces += [
        # pinning a pins its whole block {a, b} (m_B = |B| - 1), and that pins c
        FiniteSpace.parse("a: a\nb: b\nc: a c\nd: b d\n"),
        disjoint_union(chain_space(2), chain_space(2), chain_space(2)),
        disjoint_union(star_space(3), star_space(2)),  # two_fans() in the other order
        layered_space((2, 2)),
    ]
    for space in spaces:
        report = is_fully_transitive(space)
        holds, failure = _direct_check_reference(space, report.group, report.partition)
        assert (report.holds, report.failure) == (holds, failure), space.to_text()


def test_full_transitivity_of_discrete_eight():
    report = is_fully_transitive(discrete_space(8), max_points=8)
    assert report.holds and report.group.order == factorial(8)


def test_full_transitivity_at_default_bounds():
    # the direct check pins stabilisers instead of walking the n!-sized tuple sets
    report = is_fully_transitive(chain_space(10))
    assert report.holds and report.group.order == 1
    report = is_fully_transitive(layered_space((3, 3, 3, 3)))
    assert report.holds and report.group.order == factorial(3) ** 4 == 1296


# --- swaps -------------------------------------------------------------------------

def test_swap_on_discrete_space():
    space = discrete_space(4)
    result = swap_homeo(space, "p1", "p3", ["p2"])
    assert result.ok
    assert result.permutation == {"p1": "p3", "p3": "p1", "p2": "p2", "p4": "p4"}


def test_swap_with_fixed_edge_point():
    result = swap_homeo(CHAIN3, "a", "b", ["c"])
    assert result.ok
    assert result.permutation == {"a": "b", "b": "a", "c": "c"}


def test_swap_fails_without_clopen_separation():
    result = swap_homeo(CHAIN3, "a", "b", [])
    assert not result.ok
    assert "component" in result.reason


def test_swap_verifies_the_glued_permutation():
    # u and v are similar, {u} and {v} are clopen after deleting c, but the
    # minimal open of c only contains u, so the naive swap is not a
    # homeomorphism and must be rejected
    space = FiniteSpace(("u", "v", "c"), {"u": {"u"}, "v": {"v"}, "c": {"c", "u"}})
    assert similar(space, "u", "v") and similar_exhaustive(space, "u", "v")
    result = swap_homeo(space, "u", "v", ["c"])
    assert not result.ok
    assert "minimal open" in result.reason


def test_swap_precondition_errors():
    with pytest.raises(DomainError, match="not similar"):
        swap_homeo(CHAIN3, "a", "c", [])
    with pytest.raises(DomainError, match="avoid"):
        swap_homeo(CHAIN3, "a", "b", ["a"])


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


def _swap_reference(space, x, y, fixed):
    """The swap by enumeration: every isomorphism of the two pieces that
    carries x to y is glued with its inverse, and the first glued
    permutation that is a homeomorphism is returned."""
    n = space.size
    ix, iy = space.index(x), space.index(y)
    rest = sum(1 << i for i in range(n)) & ~sum(1 << space.index(f) for f in fixed)
    comp_of = _components(n, [m & rest for m in space._masks], rest)
    if comp_of[ix] == comp_of[iy]:
        return SwapResult(
            False,
            None,
            "x and y lie in the same connected component of the space minus the "
            "fixed set, so no disjoint clopen pieces around them exist",
        )
    comp_x, comp_y = tuple(_bits(comp_of[ix])), tuple(_bits(comp_of[iy]))
    pieces = (tuple(space.points[i] for i in comp_x), tuple(space.points[i] for i in comp_y))
    if len(comp_x) != len(comp_y):
        return SwapResult(False, None, "the clopen pieces around x and y have different sizes", *pieces)
    isos = isomorphisms(
        finite._submasks(space, comp_x),
        finite._submasks(space, comp_y),
        pins=[(comp_x.index(ix), comp_y.index(iy))],
    )
    if not isos:
        reason = "the clopen pieces around x and y admit no isomorphism carrying x to y"
        return SwapResult(False, None, reason, *pieces)
    for iso in isos:
        perm = list(range(n))
        for l, m in enumerate(iso):
            perm[comp_x[l]] = comp_y[m]
            perm[comp_y[m]] = comp_x[l]
        if finite._is_homeo(space, perm):
            return SwapResult(True, {space.points[i]: space.points[perm[i]] for i in range(n)}, None, *pieces)
    reason = "every candidate swap breaks a minimal open set that meets the fixed set"
    return SwapResult(False, None, reason, *pieces)


def test_swap_matches_the_enumerating_reference_on_small_spaces():
    cases = 0
    for n in range(5):
        for space in enumerate_preorder_spaces(n):
            for x, y in itertools.permutations(space.points, 2):
                if not similar(space, x, y):
                    continue
                rest = [p for p in space.points if p not in (x, y)]
                for r in range(len(rest) + 1):
                    for fixed in itertools.combinations(rest, r):
                        want = _swap_reference(space, x, y, fixed)
                        assert swap_homeo(space, x, y, fixed) == want, (space, x, y, fixed)
                        cases += 1
    assert cases == 4192


def test_swap_of_fan_centres_makes_one_search():
    # enumerating the pieces' isomorphisms would list 12! of them
    space = fan_forest((12, 12))
    start = time.perf_counter()
    result = swap_homeo(space, "c0", "c1")
    assert time.perf_counter() - start < 0.1
    assert result.ok
    assert result.permutation["c0"] == "c1" and result.permutation["c1"] == "c0"
    assert sorted(result.permutation.values()) == sorted(space.points)


def _two_centre_piece(tag, left, right):
    """A top over two centres, with ``left`` and ``right`` leaves under them."""
    leaves = [[f"{tag}{side}_{i}" for i in range(width)] for side, width in ((0, left), (1, right))]
    opens = {leaf: {leaf} for side in leaves for leaf in side}
    for side, members in enumerate(leaves):
        opens[f"{tag}c{side}"] = {f"{tag}c{side}", *members}
    opens[f"{tag}top"] = {f"{tag}top"}.union(*opens.values())
    return opens


def test_swap_refutes_non_isomorphic_pieces_by_refinement():
    # 32 points each, leaves split 15 + 14 against 16 + 13; a search that
    # only pins x -> y meets the counting argument one leaf at a time
    table = {**_two_centre_piece("a", 15, 14), **_two_centre_piece("b", 16, 13)}
    space = FiniteSpace(sorted(table), table)
    start = time.perf_counter()
    result = swap_homeo(space, "a0_0", "b0_0")
    assert time.perf_counter() - start < 0.1
    assert not result.ok and len(result.piece_x) == len(result.piece_y) == 32
    assert result.reason == "the clopen pieces around x and y admit no isomorphism carrying x to y"


def test_swap_answers_without_the_two_sided_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("swap_homeo called isomorphisms")

    # x and y have singleton minimal opens, so the similarity check needs no search either
    monkeypatch.setattr(finite, "isomorphisms", refuse)
    result = swap_homeo(fan_forest((5, 5)), "l0_0", "l1_3")
    assert result.ok
    assert result.permutation["l0_0"] == "l1_3" and result.permutation["c0"] == "c1"
    table = {**_two_centre_piece("a", 15, 14), **_two_centre_piece("b", 16, 13)}
    result = swap_homeo(FiniteSpace(sorted(table), table), "a0_0", "b0_0")
    assert result.reason == "the clopen pieces around x and y admit no isomorphism carrying x to y"
    straddled = FiniteSpace(("u", "v", "c"), {"u": {"u"}, "v": {"v"}, "c": {"c", "u"}})
    result = swap_homeo(straddled, "u", "v", ["c"])
    assert result.reason == "every candidate swap breaks a minimal open set that meets the fixed set"


# --- normal subgroups ----------------------------------------------------------------

def test_conjugacy_class_count_s3():
    group = homeo_group(discrete_space(3))
    assert len(conjugacy_classes(group)) == 3


def test_normal_subgroups_s3():
    group = homeo_group(discrete_space(3))
    subs = normal_subgroups(group)
    assert [s.order for s in subs] == [1, 3, 6]


def test_normal_subgroups_s4_has_klein_four():
    group = homeo_group(discrete_space(4))
    subs = normal_subgroups(group)
    assert [s.order for s in subs] == [1, 4, 12, 24]


def test_normal_subgroups_symmetric_5_and_6():
    for n, orders in ((5, [1, 60, 120]), (6, [1, 360, 720])):
        subs = normal_subgroups(homeo_group(discrete_space(n)))
        assert [s.order for s in subs] == orders


def test_normal_subgroups_2x2():
    group = homeo_group(double_fan_space())
    assert group.order == 4
    subs = normal_subgroups(group)
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]


def test_normal_subgroups_trivial():
    group = PermutationGroup.trivial(("x",))
    assert [s.order for s in normal_subgroups(group)] == [1]


def test_normal_subgroup_bound():
    """Two fans of six leaves: the fans swap, so the group is not the product
    of the symmetric groups on its orbits, and the class-mask search
    refuses its order."""
    group = homeo_group(fan_forest((6, 6)), max_points=14)
    assert group.order == 1036800
    with pytest.raises(BoundExceededError, match="^group order 1036800 is above the bound of 40320$"):
        normal_subgroups(group)


def test_closed_form_census_is_bounded_by_its_size(monkeypatch, tmp_path):
    """Seven layers of two points: 29212 normal subgroups, every subspace of
    F_2^7, counted and refused before any is built."""
    space = layered_space((2,) * 7)
    group = homeo_group(space, max_points=14)
    message = "the group has 29212 normal subgroups, above the bound of 4096 on building them"
    assert finite.MAX_CENSUS == 4096
    path = tmp_path / "layers.txt"
    path.write_text(space.to_text())

    def refuse(*args):
        raise AssertionError("a subgroup was built")

    monkeypatch.setattr(PermutationGroup, "from_generators", refuse)
    with pytest.raises(BoundExceededError, match=f"^{message}$"):
        normal_subgroups(group)
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        code = cli.main(["fspace", str(path), "--normal", "--max-points", "14"])
    assert code == 1 and stderr.getvalue() == f"error: {message}\n"


def test_normal_subgroups_check_orders_against_the_classes(monkeypatch):
    """Merging the identity's class with another, or splitting a 3-cycle
    off its class, gives a class algebra that Schreier-Sims contradicts."""
    group = homeo_group(discrete_space(4))
    classes = conjugacy_classes(group)
    three_cycles = sorted(next(cls for cls in classes if len(cls) == 8))
    merged = [classes[0] | classes[1], *classes[2:]]
    split = [cls for cls in classes if len(cls) != 8]
    split += [frozenset(three_cycles[:1]), frozenset(three_cycles[1:])]
    for wrong, order in ((merged, 1), (split, 3)):
        monkeypatch.setattr(finite, "conjugacy_classes", lambda g, wrong=wrong: wrong)
        with pytest.raises(InternalCheckError, match=f"order {order} does not match"):
            finite._class_mask_census(group)


def _s4_classes_split_or_merged(kind):
    """S4's class list made wrong yet consistent with its own products:
    (0 1)(2 3) split off its class, or the transpositions merged into the
    3-cycles."""
    classes = conjugacy_classes(homeo_group(discrete_space(4)))
    double = next(cls for cls in classes if (1, 0, 3, 2) in cls)
    transpositions = next(cls for cls in classes if (1, 0, 2, 3) in cls)
    three_cycles = next(cls for cls in classes if len(cls) == 8)
    if kind == "split":
        rest = [cls for cls in classes if cls is not double]
        return rest + [frozenset({(1, 0, 3, 2)}), double - {(1, 0, 3, 2)}]
    rest = [cls for cls in classes if cls not in (transpositions, three_cycles)]
    return rest + [transpositions | three_cycles]


@pytest.mark.parametrize(
    "kind, message",
    [("split", "order 2 is not normal"), ("merged", "class of 14 elements in a group of order 24")],
)
def test_normal_subgroups_check_results_against_the_group(monkeypatch, kind, message):
    """The split list gives a non-normal subgroup of order 2; the merged
    one a class whose size does not divide the group order."""
    group = homeo_group(discrete_space(4))
    wrong = _s4_classes_split_or_merged(kind)
    monkeypatch.setattr(finite, "conjugacy_classes", lambda g: wrong)
    with pytest.raises(InternalCheckError, match=message):
        finite._class_mask_census(group)


def test_normal_subgroups_of_a_layered_space_in_seconds():
    group = homeo_group(layered_space((4, 4, 2)))
    start = time.perf_counter()
    subs = normal_subgroups(group)
    assert time.perf_counter() - start < 3
    assert len(subs) == 44


# --- Remark 19 verifier ----------------------------------------------------------------

def test_remark19_single_class_of_three():
    report = verify_remark19(discrete_space(3))
    assert report.matches_exactly
    assert sorted(c[1].order for c in report.candidates) == [1, 3, 6]


def test_remark19_size_four_includes_klein_group():
    report = verify_remark19(discrete_space(4))
    assert report.matches_exactly
    assert sorted(c[1].order for c in report.candidates) == [1, 4, 12, 24]


def test_remark19_double_fan_reports_diagonal():
    report = verify_remark19(double_fan_space())
    assert not report.matches_exactly
    assert len(report.off_list) == 1
    off = report.off_list[0]
    assert off.order == 2
    assert set(off.elements) == {(0, 1, 2, 3), (1, 0, 3, 2)}


def test_remark19_requires_full_transitivity():
    with pytest.raises(DomainError):
        verify_remark19(two_fans())


_NOT_A_PRODUCT = "^the group is not the product of its blocks' symmetric groups$"


@pytest.mark.parametrize(
    "name, wrong, message",
    [
        # no sign diagonal: the closed form misses the 2+2 diagonal the classes find
        ("_unit_free_bases", lambda t: iter([[]]), "^the closed-form census differs from the class-mask search$"),
        # orbits that are not the blocks, or no product at all
        ("_product_orbits", lambda group: [[0, 1]], _NOT_A_PRODUCT),
        ("_product_orbits", lambda group: None, _NOT_A_PRODUCT),
    ],
    ids=["no-sign-diagonal", "orbits-not-blocks", "not-a-product"],
)
def test_remark19_checks_the_closed_form_against_the_class_search(monkeypatch, name, wrong, message):
    """A closed form that misses a subgroup, or a group whose orbits are
    not the blocks, raises rather than reporting a candidate list."""
    monkeypatch.setattr(finite, name, wrong)
    with pytest.raises(InternalCheckError, match=message):
        verify_remark19(double_fan_space())


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


def _remark19_reference(space):
    """The candidates by filtering the group's elements for each role
    assignment, labelled by the lex-least assignment, and the off-list
    normal subgroups by comparing element sets."""
    ft = is_fully_transitive(space)
    group = ft.group
    blocks = ft.partition.blocks
    block_idx = [tuple(space.index(p) for p in block) for block in blocks]
    role_choices = []
    for block in blocks:
        roles = ["free", "J"]
        if len(block) >= 3:
            roles.append("K")
        if len(block) == 4:
            roles.append("L")
        role_choices.append(roles)

    def keeps(perm, role, idx):
        if role == "J":
            return all(perm[i] == i for i in idx)
        if role == "K":
            return _restriction_parity(perm, idx) == 1
        if role == "L":
            return _is_fpf_involution_or_id(perm, idx)
        return True

    by_elements = {}
    for assignment in itertools.product(*role_choices):
        kept = frozenset(
            perm
            for perm in group.sorted_elements()
            if all(keeps(perm, role, idx) for role, idx in zip(assignment, block_idx))
        )
        by_elements.setdefault(kept, []).append(assignment)
    candidates = [
        (sorted(by_elements[elems])[0], group_from_elements(space.points, elems))
        for elems in sorted(by_elements, key=lambda e: (len(e), sorted(e)))
    ]
    off_list = [g for g in normal_subgroups(group) if g.elements not in by_elements]
    return candidates, off_list


def test_remark19_candidates_match_element_filter_reference():
    spaces = [
        discrete_space(1),
        chain_space(2),
        chain_space(3),
        discrete_space(3),
        discrete_space(4),
        discrete_space(5),
        *(star_space(leaves, tiers) for tiers in (1, 2) for leaves in (3, 4, 5)),
        double_fan_space(),
    ]
    for sizes in ((2, 2), (3, 3), (3, 2), (2, 2, 2), (1, 2, 1, 2), (4, 3), (2, 2, 2, 2)):
        spaces.append(layered_space(sizes))
    for n in range(0, 5):
        spaces += [sp for sp in enumerate_t0_spaces(n) if is_fully_transitive(sp).holds]
    off_list_seen = 0
    for space in spaces:
        report = verify_remark19(space)
        candidates, off_list = _remark19_reference(space)
        assert [labels for labels, _ in report.candidates] == [labels for labels, _ in candidates]
        for (_, got), (_, want) in zip(report.candidates, candidates):
            assert got == want
            assert got.sorted_elements() == want.sorted_elements()
        assert list(report.off_list) == off_list
        off_list_seen += bool(off_list)
    assert off_list_seen  # the double fan and the layered spaces have sign diagonals


# --- enumeration -------------------------------------------------------------------------

def _enumerate_preorder_reference(n):
    """The enumerator's mask tuples, each kept by an inline transitivity
    check over every member of every minimal open set."""
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
            yield masks


def test_preorder_enumeration_matches_the_inline_check_reference():
    for n in range(5):
        got = [space._masks for space in enumerate_preorder_spaces(n)]
        assert got == list(_enumerate_preorder_reference(n))
    assert sum(1 for _ in enumerate_preorder_spaces(5)) == 6942


def test_preorder_counts():
    assert [sum(1 for _ in enumerate_preorder_spaces(n)) for n in range(5)] == [1, 1, 4, 29, 355]


def test_t0_counts():
    assert [sum(1 for _ in enumerate_t0_spaces(n)) for n in range(5)] == [1, 1, 3, 19, 219]
