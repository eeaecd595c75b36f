"""Finite spaces the tests share."""

from scatterkit.finite import FiniteSpace


def layered_space(sizes):
    """Layers of the given sizes, lowest first; each point's minimal open
    set is itself plus every point of the layers below it."""
    points, opens, below = [], {}, set()
    for layer, width in enumerate(sizes):
        row = [f"x{layer}_{i}" for i in range(width)]
        for p in row:
            opens[p] = below | {p}
        points += row
        below |= set(row)
    return FiniteSpace(points, opens)


def fan_forest(widths):
    """One fan per width: that many isolated leaves under a centre whose
    minimal open set holds them."""
    points, opens = [], {}
    for t, width in enumerate(widths):
        leaves = [f"l{t}_{i}" for i in range(width)]
        for leaf in leaves:
            points.append(leaf)
            opens[leaf] = {leaf}
        points.append(f"c{t}")
        opens[f"c{t}"] = {f"c{t}", *leaves}
    return FiniteSpace(points, opens)
