"""Property suites exercising every advertised law at brute-force scale.

Each suite draws its inputs from fixed deterministic grids or a seeded
generator, checks the law against an independent computation where one
exists, and reports one line per checked family.  The suites back both
the `scatterkit verify` subcommand and the acceptance test module.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from math import factorial

from . import finite as fin
from . import flows as fl
from . import graphs as gr
from . import groups as gp
from .classify import (
    Family,
    SpaceClass,
    canonical,
    classify,
    derived_order_type,
    homeomorphic,
    point_rank,
)
from .errors import InternalCheckError
from .ordinal import ZERO, Ordinal, add, divide_by_power, mul_power, omega_power, parse

__all__ = ["SuiteResult", "SUITES", "run_suite", "suite_names", "random_ordinal", "POOL"]

#: Exponent pool used by every randomised grid.
POOL_TEXT = ("1", "2", "3", "w", "w + 1", "w^2", "w^(w)")
POOL = tuple(parse(t) for t in POOL_TEXT)

DEFAULT_SEED = 0


@dataclass
class SuiteResult:
    name: str
    ok: bool
    lines: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def add(self, ok: bool, message: str) -> bool:
        self.lines.append(f"{'ok' if ok else 'FAIL'} - {message}")
        if not ok:
            self.ok = False
        return ok


def random_ordinal(rng: random.Random) -> Ordinal:
    """A random ordinal with up to three pool exponents, coefficients 1..4
    and an optional finite tail; covers zero, successors and limits."""
    count = rng.randint(0, 3)
    exponents = sorted(rng.sample(POOL, count), reverse=True)
    value = ZERO
    for e in exponents:
        value = add(value, omega_power(e, rng.randint(1, 4)))
    if rng.random() < 0.5:
        value = add(value, Ordinal.from_int(rng.randint(1, 4)))
    return value


def _random_infinite(rng: random.Random) -> Ordinal:
    while True:
        value = random_ordinal(rng)
        if not value.is_finite:
            return value


# ---------------------------------------------------------------------------
# criterion 1: ordinal arithmetic laws


ORDINAL_ROUNDS = 10_000


def _in_normal_form(values) -> bool:
    """Whether each value, and each exponent inside one, passes the checked
    constructor: ``Ordinal(o.terms) == o``.  Each object is checked once."""
    seen, stack = set(), list(values)
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        try:
            if Ordinal(o.terms) != o:
                return False
        except (TypeError, ValueError):
            return False
        stack.extend(e for e, _ in o.terms)
    return True


def suite_ordinal_laws(seed: int = DEFAULT_SEED) -> SuiteResult:
    result = SuiteResult("ordinal-laws", True)
    rng = random.Random(seed)
    assoc_ok = absorb_ok = division_ok = True
    absorb_hits = 0
    results = []  # every value the arithmetic built, re-checked below
    for _ in range(ORDINAL_ROUNDS):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        ab, bc = add(a, b), add(b, c)
        left, right = add(ab, c), add(a, bc)
        results += (a, b, c, ab, bc, left, right)
        if left != right:
            assoc_ok = False
            break
        if add(a, ZERO) != a or add(ZERO, a) != a:
            assoc_ok = False
            break
        e = rng.choice(POOL)
        power = omega_power(e)
        results.append(power)
        if b < power:
            absorb_hits += 1
            absorbed = add(b, power)
            results.append(absorbed)
            if absorbed != power:
                absorb_ok = False
                break
        beta = rng.choice(POOL + (ZERO,))
        q, r = divide_by_power(c, beta)
        product = mul_power(beta, q)
        back, power = add(product, r), omega_power(beta)
        results += (q, r, product, back, power)
        if back != c or not r < power:
            division_ok = False
            break
    result.add(assoc_ok, f"associativity and neutrality of + over {ORDINAL_ROUNDS} seeded triples")
    result.add(
        absorb_ok and absorb_hits > ORDINAL_ROUNDS // 20,
        f"left absorption b + w^e = w^e on {absorb_hits} applicable pairs",
    )
    result.add(division_ok, f"division round-trip gamma = w^beta*q + r with r < w^beta, {ORDINAL_ROUNDS} draws")
    result.add(
        _in_normal_form(results),
        f"all {len(results)} results are in normal form: the checked constructor rebuilds each",
    )
    return result


# ---------------------------------------------------------------------------
# criterion 2: classifier laws and the canonical grid


def _canonical_grid():
    classes = [SpaceClass(Family.FINITE, k) for k in range(0, 5)]
    for alpha in POOL:
        for k in range(1, 5):
            classes.append(SpaceClass(Family.COMPACT_INFINITE, k, alpha))
            classes.append(SpaceClass(Family.LIMIT_PURE, k, alpha))
            for beta in POOL:
                if beta < alpha:
                    classes.append(SpaceClass(Family.LIMIT_MIXED, k, alpha, beta))
    return classes


def suite_classifier(seed: int = DEFAULT_SEED) -> SuiteResult:
    result = SuiteResult("classifier", True)
    rng = random.Random(seed)

    idempotent = True
    for _ in range(1000):
        g = random_ordinal(rng)
        can = canonical(g)
        if classify(can) != classify(g) or canonical(can) != can:
            idempotent = False
            break
    result.add(idempotent, "canonical is idempotent and preserves the class on 1000 random ordinals")

    commutes = True
    for _ in range(500):
        a, b = _random_infinite(rng), _random_infinite(rng)
        left = add(add(a, b), Ordinal.from_int(1))
        right = add(add(b, a), Ordinal.from_int(1))
        if classify(left) != classify(right):
            commutes = False
            break
    result.add(commutes, "classify(a+b+1) = classify(b+a+1) on 500 random infinite pairs")

    grid = _canonical_grid()
    round_trip = all(classify(c.canonical_ordinal()) == c for c in grid)
    result.add(round_trip, f"each of the {len(grid)} canonical representatives classifies to its own tuple")

    distinct = True
    reps = [c.canonical_ordinal() for c in grid]
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            if homeomorphic(reps[i], reps[j]):
                distinct = False
                break
        if not distinct:
            break
    result.add(distinct, "distinct parameter tuples are pairwise non-homeomorphic over the grid")
    return result


# ---------------------------------------------------------------------------
# criterion 3: Cantor-Bendixson consistency below w^3
#
# Independent oracle: points of [0, gamma) for gamma < w^3 are lexicographic
# triples (p, q, r) meaning w^2*p + w*q + r.  One derivative step keeps the
# points with r = 0 (other than 0 itself) and renames (p, q, 0) to the pair
# (p, q); the order type of the surviving set is counted blockwise with plain
# integer arithmetic, with no ordinal division involved.


def _oracle_step(triple: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = triple
    if a == 0 and b == 0:
        return (0, 0, 0)
    bound_a, bound_b = (a, b + 1) if c > 0 else (a, b)
    if bound_a == 0:
        return (0, 0, max(bound_b - 1, 0))
    return (0, bound_a, bound_b)


def _oracle_derived(triple: tuple[int, int, int], steps: int) -> tuple[int, int, int]:
    for _ in range(steps):
        triple = _oracle_step(triple)
    return triple


def _triple_ordinal(triple: tuple[int, int, int]) -> Ordinal:
    a, b, c = triple
    value = add(omega_power(2, a) if a else ZERO, omega_power(1, b) if b else ZERO)
    return add(value, Ordinal.from_int(c))


def _oracle_rank(p: int, q: int, r: int) -> int:
    if r > 0 or (p, q, r) == (0, 0, 0):
        return 0
    return 1 if q > 0 else 2


def suite_cb_consistency(seed: int = DEFAULT_SEED) -> SuiteResult:
    result = SuiteResult("cb-rank", True)
    derived_ok = rank_ok = True
    witness = None
    for a, b, c in itertools.product(range(5), repeat=3):
        if (a, b, c) == (0, 0, 0):
            continue
        gamma = _triple_ordinal((a, b, c))
        for beta in range(4):
            got = derived_order_type(gamma, Ordinal.from_int(beta))
            want = _triple_ordinal(_oracle_derived((a, b, c), beta))
            if got != want:
                derived_ok = False
                witness = f"derived({gamma}, {beta}) = {got}, oracle says {want}"
                break
        for p, q, r in itertools.product(range(7), repeat=3):
            if (p, q, r) >= (a, b, c):
                continue
            x = _triple_ordinal((p, q, r))
            if point_rank(x, gamma) != Ordinal.from_int(_oracle_rank(p, q, r)):
                rank_ok = False
                witness = f"rank({x}) in [0, {gamma}) disagrees with the triple model"
                break
        if not (derived_ok and rank_ok):
            break
    result.add(derived_ok, witness if not derived_ok else
               "derived order types match one-step derivative iteration for all gamma < w^3, beta <= 3")
    result.add(rank_ok, witness if not rank_ok else
               "point ranks match the smallest-exponent rule on every grid point")
    return result


# ---------------------------------------------------------------------------
# criterion 4: graph encoding


EXPECTED_GRAPH_COUNTS = {2: 1, 3: 3, 4: 10, 5: 33}
SIX_VERTEX_ROUNDS = 100


def suite_prop24(seed: int = DEFAULT_SEED, max_points: int | None = None) -> SuiteResult:
    result = SuiteResult("prop24", True)
    rng = random.Random(seed)
    for n in range(2, 6):
        if max_points is not None and n + n * (n - 1) // 2 > max_points:
            result.add(True, f"skipped graphs on {n} vertices (encoding exceeds max points {max_points})")
            continue
        graphs = list(gr.enumerate_graphs(n))
        count_ok = len(graphs) == EXPECTED_GRAPH_COUNTS[n]
        result.add(count_ok, f"{len(graphs)} isomorphism classes of graphs on {n} vertices with an edge")
        bad = None
        for g in graphs:
            report = gr.verify_prop24(g)
            if not report.ok:
                bad = report
                break
        result.add(bad is None, f"encoding checks pass on every graph with {n} vertices"
                   + (f" (failed: {bad.counterexample})" if bad else ""))
    if max_points is not None and 21 > max_points:
        result.add(True, f"skipped 6-vertex graphs (encoding exceeds max points {max_points})")
        return result
    bad = None
    for _ in range(SIX_VERTEX_ROUNDS):
        g = gr.random_graph(6, rng)
        report = gr.verify_prop24(g)
        if not report.ok:
            bad = report
            break
    result.add(bad is None, f"encoding checks pass on {SIX_VERTEX_ROUNDS} random 6-vertex graphs"
               + (f" (failed: {bad.counterexample})" if bad else ""))
    return result


# ---------------------------------------------------------------------------
# criterion 5: full transitivity over all small labelled topologies


EXPECTED_PREORDER_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}
EXPECTED_T0_COUNTS = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219}


def suite_full_transitivity(seed: int = DEFAULT_SEED) -> SuiteResult:
    result = SuiteResult("full-transitivity", True)
    for n in range(0, 5):
        spaces = list(fin.enumerate_preorder_spaces(n))
        result.add(
            len(spaces) == EXPECTED_PREORDER_COUNTS[n],
            f"{len(spaces)} labelled topologies on {n} points",
        )
        scatter_ok = True
        t0_spaces = []
        for sp in spaces:
            rep = fin.separation_report(sp)
            if rep.scattered != rep.t0:
                scatter_ok = False
            if rep.t0:
                t0_spaces.append(sp)
        result.add(scatter_ok, f"scattered coincides with T0 on all topologies with {n} points")
        result.add(
            len(t0_spaces) == EXPECTED_T0_COUNTS[n],
            f"{len(t0_spaces)} of them are T0",
        )
        agree = True
        for sp in t0_spaces:
            try:
                fin.is_fully_transitive(sp)
            except InternalCheckError:  # the direct check and the order formula disagree
                agree = False
                break
        result.add(agree, f"direct tuple check agrees with the order formula on every T0 space, n={n}")
    return result


# ---------------------------------------------------------------------------
# criterion 6: flows


def suite_flows(seed: int = DEFAULT_SEED) -> SuiteResult:
    result = SuiteResult("flows", True)
    sizes_ok = all(len(fl.lo_space(n)) == factorial(n) for n in range(0, 6))
    result.add(sizes_ok, "|LO(n)| = n! for n <= 5")
    transitive_ok = all(fl.check_simply_transitive(n) for n in range(0, 6))
    result.add(transitive_ok, "the permutation action on LO(n) is simply transitive for n <= 5")
    bad = None
    for n in range(0, 5):
        for sp in fin.enumerate_preorder_spaces(n):
            rep = fin.separation_report(sp)
            if not rep.t0:
                continue
            ft = fin.is_fully_transitive(sp)
            if not ft.holds:
                continue
            flow = fl.product_flow_check(sp)
            if not flow.ok:
                bad = (sp, flow)
                break
        if bad:
            break
    result.add(bad is None, "product flow is simply transitive and minimal on every fully "
               "transitive T0 space with at most 4 points")
    return result


# ---------------------------------------------------------------------------
# criterion 7: the isomorphism oracle over the descriptor grid


def _descriptor_grid():
    out = []
    for alpha in POOL:
        for k in range(1, 4):
            out.append(gp.G(alpha, k))
            out.append(gp.H(alpha, k))
            for beta in POOL:
                if beta < alpha:
                    out.append(gp.I(alpha, k, beta))
    return out


def _expected_unknown(d1: gp.GroupDescriptor, d2: gp.GroupDescriptor) -> str | None:
    """Hand-written pattern list of the open pairs, kept independent of the
    oracle's own branching."""
    fams = {d1.family, d2.family}
    if fams == {gp.GroupFamily.H} and d1.alpha == d2.alpha and {d1.k, d2.k} == {1, 2}:
        return "Question 31"
    if fams == {gp.GroupFamily.G, gp.GroupFamily.H}:
        g, h = (d1, d2) if d1.family is gp.GroupFamily.G else (d2, d1)
        if g.alpha == h.alpha and h.k == g.k + 1:
            return "Question 32"
    if fams == {gp.GroupFamily.I} and (d1.alpha, d1.k) == (d2.alpha, d2.k) and d1.beta != d2.beta:
        return "Question 33"
    if gp.GroupFamily.I in fams and len(fams) == 2:
        i_d, other = (d1, d2) if d1.family is gp.GroupFamily.I else (d2, d1)
        if other.family is gp.GroupFamily.G and (other.alpha, other.k) == (i_d.alpha, i_d.k):
            return "Question 33"
        if other.family is gp.GroupFamily.H and other.alpha == i_d.alpha and other.k == i_d.k + 1:
            return "Question 33"
        if other.family is gp.GroupFamily.H and other.alpha == i_d.alpha and other.k == 1 and i_d.k == 1:
            return "undetermined"
    return None


def suite_iso_oracle(seed: int = DEFAULT_SEED) -> SuiteResult:
    result = SuiteResult("iso-oracle", True)
    grid = _descriptor_grid()

    table_ok = True
    for d in grid:
        inv = gp.invariants(d)
        want = factorial(d.k - 1) if d.family is gp.GroupFamily.H else factorial(d.k)
        if inv.max_finite_quotient != want or inv.epsilon != d.alpha:
            table_ok = False
            break
    result.add(table_ok, f"invariants (k!, (k-1)!, epsilon) match the table on {len(grid)} descriptors")

    gg_ok = hg_ok = sym_ok = True
    unknown_ok = True
    witness = None
    for d1 in grid:
        for d2 in grid:
            ans = gp.groups_isomorphic(d1, d2)
            back = gp.groups_isomorphic(d2, d1)
            if ans.decision != back.decision:
                sym_ok = False
                witness = f"asymmetric answer on ({d1}, {d2})"
            if d1.family is gp.GroupFamily.G and d2.family is gp.GroupFamily.G:
                want_yes = (d1.alpha, d1.k) == (d2.alpha, d2.k)
                if (ans.decision is gp.Decision.YES) != want_yes:
                    gg_ok = False
                    witness = f"G-vs-G wrong on ({d1}, {d2}): {ans}"
            if (
                d1.family is gp.GroupFamily.H
                and d2.family is gp.GroupFamily.G
                and d1.k == 1
                and d2.k == 1
                and d1.alpha == d2.alpha
            ):
                if ans.decision is not gp.Decision.YES:
                    hg_ok = False
                    witness = f"H(a,1) vs G(a,1) not Yes: {ans}"
            expected = _expected_unknown(d1, d2)
            if d1 == d2:
                expected = None
            if (expected is not None) != (ans.decision is gp.Decision.UNKNOWN):
                unknown_ok = False
                witness = f"unknown-set mismatch on ({d1}, {d2}): {ans} (expected {expected})"
            elif expected not in (None, "undetermined") and expected not in ans.justification:
                unknown_ok = False
                witness = f"citation missing on ({d1}, {d2}): {ans}"
    result.add(sym_ok, witness if not sym_ok else "the oracle is symmetric on the grid")
    result.add(gg_ok, witness if not gg_ok else "G-vs-G answers Yes exactly on matching (alpha, k)")
    result.add(hg_ok, witness if not hg_ok else "H(alpha,1) vs G(alpha,1) answers Yes")
    result.add(unknown_ok, witness if not unknown_ok else
               "Unknown appears exactly on the Question 31/32/33 patterns plus the "
               "equal-invariant undetermined pairs, each with its citation")
    return result


# ---------------------------------------------------------------------------
# criterion 8: the normal-subgroup census


def discrete_space(n: int) -> fin.FiniteSpace:
    names = [f"p{i + 1}" for i in range(n)]
    return fin.FiniteSpace(names, {p: {p} for p in names})


def chain_space(n: int) -> fin.FiniteSpace:
    names = [f"p{i + 1}" for i in range(n)]
    return fin.FiniteSpace(names, {p: set(names[: i + 1]) for i, p in enumerate(names)})


def star_space(leaves: int, tiers: int = 1) -> fin.FiniteSpace:
    """Leaves are isolated; tier j's centre sees all leaves and lower centres."""
    leaf_names = [f"l{i + 1}" for i in range(leaves)]
    centre_names = [f"c{j + 1}" for j in range(tiers)]
    table = {p: {p} for p in leaf_names}
    for j, c in enumerate(centre_names):
        table[c] = set(leaf_names) | set(centre_names[: j + 1])
    return fin.FiniteSpace(leaf_names + centre_names, table)


def double_fan_space() -> fin.FiniteSpace:
    """Two similar rank-1 points over the same two isolated points."""
    return fin.FiniteSpace(
        ("a", "b", "z", "w"),
        {"a": {"a"}, "b": {"b"}, "z": {"z", "a", "b"}, "w": {"w", "a", "b"}},
    )


def suite_remark19(seed: int = DEFAULT_SEED, max_points: int | None = None) -> SuiteResult:
    result = SuiteResult("remark19", True)
    single_big = [
        discrete_space(1),
        chain_space(2),
        chain_space(3),
        discrete_space(3),
        discrete_space(4),
        discrete_space(5),
        star_space(3, 1),
        star_space(4, 1),
        star_space(5, 1),
        star_space(3, 2),
        star_space(4, 2),
        star_space(5, 2),
    ]
    if max_points is not None:
        skipped = sum(1 for sp in single_big if sp.size > max_points)
        single_big = [sp for sp in single_big if sp.size <= max_points]
        if skipped:
            result.add(True, f"skipped {skipped} spaces above max points {max_points}")
    all_match = True
    witness = None
    for sp in single_big:
        report = fin.verify_remark19(sp)
        if not report.matches_exactly:
            all_match = False
            witness = f"{sp!r}: off-list {len(report.off_list)}"
            break
    result.add(all_match, witness if not all_match else
               "candidate list = normal subgroup lattice on every space with at most "
               "one block of size >= 2 (sizes from {1,3,4,5})")

    fan = double_fan_space()
    report = fin.verify_remark19(fan)
    diagonal = {(0, 1, 2, 3), (1, 0, 3, 2)}
    ok_diag = len(report.off_list) == 1 and set(report.off_list[0].elements) == diagonal
    result.add(ok_diag, "the 2+2 space reports exactly one off-list normal subgroup, the diagonal")
    return result


# ---------------------------------------------------------------------------


SUITES = {
    "ordinal-laws": suite_ordinal_laws,
    "classifier": suite_classifier,
    "cb-rank": suite_cb_consistency,
    "prop24": suite_prop24,
    "full-transitivity": suite_full_transitivity,
    "flows": suite_flows,
    "iso-oracle": suite_iso_oracle,
    "remark19": suite_remark19,
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str, seed: int = DEFAULT_SEED, max_points: int | None = None) -> list[SuiteResult]:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    results = []
    for n in names:
        func = SUITES[n]
        kwargs = {"seed": seed}
        if max_points is not None and n in ("prop24", "remark19"):
            kwargs["max_points"] = max_points
        start = time.perf_counter()
        res = func(**kwargs)
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
