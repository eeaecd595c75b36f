"""Inputs of the perfbench workloads: named structures and seeded pools.

Named inputs are fixed: the complete graphs K6 and K7, the Petersen graph,
the fan forests of ``benchmarks/bench_kernels.py``, and the Remark 19
discrete, chain, star and 2+2 spaces of ``scatterkit.verify``.

Generated inputs come from pools.  Member ``i`` of a pool depends only on
the pool's name and ``i``, so its expected output can be recorded once
(``digests.json``); a benchmark seed chooses which members a run uses.
Every generator here writes plain input text, as a user would, and uses
no scatterkit code.
"""

from __future__ import annotations

import itertools
import random
from math import factorial

# ---------------------------------------------------------------------------
# named structures


def complete_graph(n):
    """Vertex names and edges of K_n."""
    names = [f"v{i}" for i in range(n)]
    return names, list(itertools.combinations(names, 2))


def petersen():
    """Vertex names and edges of the Petersen graph (|Aut| = 120)."""
    names = [f"v{i}" for i in range(10)]
    outer = [(names[i], names[(i + 1) % 5]) for i in range(5)]
    inner = [(names[5 + i], names[5 + (i + 2) % 5]) for i in range(5)]
    spokes = [(names[i], names[i + 5]) for i in range(5)]
    return names, outer + inner + spokes


def discrete(n):
    names = [f"p{i + 1}" for i in range(n)]
    return {p: [p] for p in names}


def chain(n):
    names = [f"p{i + 1}" for i in range(n)]
    return {p: names[: i + 1] for i, p in enumerate(names)}


def star(leaves, tiers=1):
    """Isolated leaves; the centre of tier j sees every leaf and the lower centres."""
    leaf_names = [f"l{i + 1}" for i in range(leaves)]
    centres = [f"c{j + 1}" for j in range(tiers)]
    table = {p: [p] for p in leaf_names}
    for j, c in enumerate(centres):
        table[c] = leaf_names + centres[: j + 1]
    return table


def double_fan():
    """Two similar rank-1 points over the same two isolated points."""
    return {"a": ["a"], "b": ["b"], "z": ["z", "a", "b"], "w": ["w", "a", "b"]}


def fan_forest(widths):
    """Disjoint fans, as minimal open sets: per fan, isolated leaves under one centre."""
    table = {}
    for f, width in enumerate(widths):
        leaves = [f"f{f}l{i}" for i in range(width)]
        for leaf in leaves:
            table[leaf] = [leaf]
        table[f"f{f}c"] = leaves + [f"f{f}c"]
    return table


def fan_forest_order(widths):
    """|Homeo| of a fan forest: leaves permute within a fan, equal fans permute."""
    order = 1
    for width in widths:
        order *= factorial(width)
    for width in set(widths):
        order *= factorial(widths.count(width))
    return order


def graph_text(names, edges):
    """Graph file text; every vertex is declared so isolated ones survive."""
    lines = [f"vertex {v}" for v in names]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def space_text(table):
    """Finite-space file text from a mapping point -> minimal open set."""
    return "".join(f"{name}: {' '.join(members)}\n" for name, members in table.items())


# ---------------------------------------------------------------------------
# seeded pools


def random_graph(n, index):
    """Pool member ``index`` of the random graphs on n vertices with half of all
    possible edges; a fixed edge count keeps the cost of brute-force
    automorphism filtering alike across members."""
    rng = random.Random(f"graph-{n}-{index}")
    names = [f"v{i + 1}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    return names, rng.sample(pairs, len(pairs) // 2)


def _signatures_distinct(below, n):
    """Whether no two points share (down-set size, up-set size).

    Every homeomorphism preserves both sizes, so such a space has only the
    identity homeomorphism.
    """
    signatures = {(below[i].bit_count(), sum((below[j] >> i) & 1 for j in range(n))) for i in range(n)}
    return len(signatures) == n


def random_rigid_space(n, index):
    """Pool member ``index`` of the random rigid T0 spaces on n points.

    A random partial order (each pair of a hidden linear extension related
    with a per-space probability in [0.2, 0.6], then closed transitively);
    the minimal open set of x is its down-set.  Orders in which two points
    share their down-set and up-set sizes are redrawn, so every member has
    the trivial group and costs a few milliseconds: these ops form one
    dense latency band that holds op_p50_ms and op_p90_ms of group-census
    steady across seeds.  Nontrivial groups are measured on the named spaces.
    """
    rng = random.Random(f"t0-{n}-{index}")
    while True:
        p = rng.uniform(0.2, 0.6)
        below = [1 << i for i in range(n)]
        for j in range(n):
            for i in range(j):
                if rng.random() < p:
                    below[j] |= below[i]
        if _signatures_distinct(below, n):
            break
    names = [f"x{i + 1}" for i in range(n)]
    listing = list(range(n))
    rng.shuffle(listing)
    return {names[j]: [names[i] for i in range(n) if (below[j] >> i) & 1] for j in listing}


# ---------------------------------------------------------------------------
# ordinal query text


def _exponent(rng, finite_only, nested):
    r = rng.random()
    if finite_only or r < 0.55:
        e = rng.randint(1, 4)
        return "" if e == 1 else f"^{e}"
    if r < 0.7 or not nested:
        return "^w"
    return f"^({ordinal_text(rng, nested=False)})"


def ordinal_text(rng, finite_only=False, nested=True):
    """A random ordinal expression; terms come in any order, so parsing absorbs some."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            terms.append(str(rng.randint(1, 9)))
            continue
        term = "w" + _exponent(rng, finite_only, nested)
        k = rng.choice((1, 1, 2, 3, 5))
        if k > 1:
            term += f"*{k}"
        terms.append(term)
    spacer = rng.choice((" + ", "+", " +  "))
    return spacer.join(terms)


def classified_text(rng):
    """An ordinal from a small alphabet, so that equal classes and the open
    Questions 31-33 come up often in pairs."""
    alpha = rng.choice(("1", "2", "w"))
    k = rng.randint(1, 3)
    lead = f"w^{alpha}*{k}" if alpha != "1" else f"w*{k}"
    form = rng.randrange(4)
    if form == 0:
        return str(rng.randint(0, 4))
    if form == 1:
        return f"{lead} + {rng.randint(1, 3)}"
    if form == 2:
        return lead
    beta = {"1": None, "2": "w", "w": rng.choice(("w", "w^2", "w^3"))}[alpha]
    return f"{lead} + {beta}" if beta else lead


def infinite_rank_text(rng):
    """An ordinal >= w^w, whose rank-level profile is not listable."""
    exponent = rng.choice(("w", "(w + 1)", "(w^2*2)", "(w^w)"))
    tail = ordinal_text(rng, finite_only=True)
    return f"w^{exponent}*{rng.randint(1, 3)} + {tail}"


def malformed_text(rng):
    """Syntactically invalid ordinal text."""
    text = ordinal_text(rng)
    return rng.choice(
        (
            text + " +",
            "+ " + text,
            text + ")",
            "(" + text,
            text + "^",
            text.replace("w", "v", 1) if "w" in text else text + " v",
        )
    )
