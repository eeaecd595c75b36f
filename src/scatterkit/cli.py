"""Command-line surface.

Exit codes: 0 success, 1 domain error (bad precondition, exceeded bound,
failed verification suite), 2 usage or parse error.  Output is either
human-readable text or a line-oriented ``key=value`` form selected with
--format; identical arguments always produce identical structured
output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .classify import (
    SpaceClass,
    class_profile,
    classify,
    derived_order_type,
    homeomorphic,
    point_rank,
)
from .errors import ParseError, ScatterkitError
from .ordinal import parse

ENV_MAX_POINTS = "SCATTERKIT_MAX_POINTS"
#: ``verify --help``'s suite list and ``--seed`` default, kept here so that
#: building the parser does not load ``verify``; the tests tie both to
#: ``verify.suite_names()`` and ``verify.DEFAULT_SEED``.
SUITE_NAMES = (
    "ordinal-laws",
    "classifier",
    "cb-rank",
    "prop24",
    "full-transitivity",
    "flows",
    "iso-oracle",
    "remark19",
    "all",
)
DEFAULT_SEED = 0


class _Emitter:
    def __init__(self, structured: bool):
        self.structured = structured
        self.rows: list[tuple[str, str]] = []

    def put(self, key: str, value) -> None:
        """Queue one row; a bool prints as ``true`` or ``false``."""
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.rows.append((key, str(value)))

    def flush(self) -> None:
        sep = "=" if self.structured else ": "
        sys.stdout.write("".join(f"{key}{sep}{value}\n" for key, value in self.rows))


def _max_points(args, default: int | None) -> int | None:
    """The ``--max-points`` bound, else ``SCATTERKIT_MAX_POINTS``, else
    ``default``; a bound of 0 or less is a usage error."""
    if args.max_points is not None:
        bound, source = args.max_points, "--max-points"
    else:
        env = os.environ.get(ENV_MAX_POINTS)
        if not env:
            return default
        try:
            bound = int(env)
        except ValueError:
            raise ParseError(f"{ENV_MAX_POINTS} must be an integer, got {env!r}") from None
        source = ENV_MAX_POINTS
    if bound <= 0:
        raise ParseError(f"{source} must be a positive integer, got {bound}")
    return bound


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a parse error naming
    the offset of the first bad one."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ScatterkitError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte offset {exc.start}") from None


def _put_class(out: _Emitter, c: SpaceClass) -> None:
    out.put("family", c.family.value)
    out.put("k", c.k)
    if c.alpha is not None:
        out.put("alpha", c.alpha)
    if c.beta is not None:
        out.put("beta", c.beta)
    out.put("canonical", c.canonical_ordinal())


def cmd_classify(args, out: _Emitter) -> int:
    gamma = parse(args.ordinal)
    out.put("ordinal", gamma)
    _put_class(out, classify(gamma))
    return 0


def cmd_homeomorphic(args, out: _Emitter) -> int:
    g1, g2 = parse(args.first), parse(args.second)
    out.put("first", classify(g1))
    out.put("second", classify(g2))
    out.put("homeomorphic", homeomorphic(g1, g2))
    return 0


def cmd_rank(args, out: _Emitter) -> int:
    x, gamma = parse(args.point), parse(args.space)
    out.put("point", x)
    out.put("space", gamma)
    out.put("rank", point_rank(x, gamma))
    return 0


def cmd_derive(args, out: _Emitter) -> int:
    gamma, level = parse(args.ordinal), parse(args.level)
    out.put("space", gamma)
    out.put("level", level)
    out.put("derived_order_type", derived_order_type(gamma, level))
    return 0


def cmd_profile(args, out: _Emitter) -> int:
    gamma = parse(args.ordinal)
    out.put("space", gamma)
    profile = class_profile(gamma)
    out.put("levels", len(profile))
    for rank, size in profile:
        out.put(f"level.{rank}.size", size)
    return 0


def cmd_group(args, out: _Emitter) -> int:
    from . import groups as gp

    gamma = parse(args.ordinal)
    descriptor = gp.descriptor_of(gamma)
    inv = gp.invariants(descriptor)
    out.put("space", gamma)
    out.put("descriptor", descriptor)
    out.put("max_finite_quotient", inv.max_finite_quotient)
    out.put("epsilon", inv.epsilon)
    if inv.note:
        out.put("note", inv.note)
    umf = gp.umf_descriptor(gamma)
    out.put("umf", umf.factor_string())
    out.put("umf.metrisable", umf.metrisable)
    out.put("umf.citation", gp.CITE_THM15)
    out.put("metrisable.citation", gp.CITE_REM16)
    out.put("amenable", f"true [{gp.CITE_COR23}]")
    out.put("roelcke_precompact", f"true [{gp.CITE_COR23}]")
    return 0


def cmd_groups_iso(args, out: _Emitter) -> int:
    from . import groups as gp

    d1 = gp.descriptor_of(parse(args.first))
    d2 = gp.descriptor_of(parse(args.second))
    answer = gp.groups_isomorphic(d1, d2)
    out.put("first", d1)
    out.put("second", d2)
    out.put("answer", answer.decision.value)
    out.put("justification", answer.justification)
    return 0


def cmd_fspace(args, out: _Emitter) -> int:
    from . import finite as fin

    space = fin.FiniteSpace.parse(_read(args.file))
    bound = _max_points(args, fin.DEFAULT_MAX_POINTS)
    out.put("points", space.size)
    sep = fin.separation_report(space)
    out.put("t0", sep.t0)
    out.put("t1", sep.t1)
    out.put("scattered", sep.scattered)
    data = fin.cb_data(space)
    out.put("cb_rank", data.rank)
    for i, level in enumerate(data.levels):
        members = " ".join(sorted(level, key=space.index)) or "-"
        out.put(f"derived.{i}", members)
    part = fin.similarity_partition(space)
    for i, block in enumerate(part.blocks):
        out.put(f"block.{i}", f"rank {part.block_rank(block)}: {' '.join(block)}")
    if args.group or args.normal or args.full_transitivity:
        group = fin.homeo_group(space, max_points=bound)
        out.put("homeo_order", group.order)
        if args.group:
            for i, gen in enumerate(group.generators):
                out.put(f"generator.{i}", group.cycle_string(gen))
        if args.full_transitivity:
            report = fin.is_fully_transitive(space, max_points=bound)
            out.put("fully_transitive", report.holds)
            out.put("expected_order", report.expected_order)
            if report.failure:
                out.put("failure", f"{report.failure[0]} !-> {report.failure[1]}")
        if args.normal:
            subs = fin.normal_subgroups(group)
            out.put("normal_subgroups", len(subs))
            for i, sub in enumerate(subs):
                gens = ", ".join(sub.cycle_string(g) for g in sub.generators) or "id"
                out.put(f"normal.{i}", f"order {sub.order}: <{gens}>")
    return 0


def cmd_encode_graph(args, out: _Emitter) -> int:
    from . import graphs as gr
    from ._kernels import _bits

    graph = gr.Graph.parse(_read(args.file))
    bound = _max_points(args, gr.DEFAULT_MAX_VERTICES)
    if args.verify:
        report = gr.verify_prop24(graph, max_vertices=bound)
        space = report.space
    else:
        space = gr.encode(graph)
    out.put("vertices", graph.size)
    out.put("edges", len(graph.edges))
    out.put("points", space.size)
    points = space.points
    for name, mask in zip(points, space._masks):
        out.put(f"min_open.{name}", " ".join([points[j] for j in _bits(mask)]))
    if args.verify:
        out.put("homeo_order", report.homeo_order)
        out.put("aut_order", report.aut_order)
        out.put("restriction_is_isomorphism", report.restriction_is_isomorphism)
        out.put("derived_is_edges", report.derived_is_edges)
        out.put("second_derived_empty", report.second_derived_empty)
        out.put("closures_match", report.closures_match)
        out.put("isolated_are_vertices", report.isolated_are_vertices)
        out.put("ok", report.ok)
        if report.counterexample:
            out.put("counterexample", report.counterexample)
        if not report.ok:
            return 1
    return 0


def cmd_flows(args, out: _Emitter) -> int:
    from . import flows as fl

    if (args.n is None) == (args.fspace is None):
        raise ParseError("flows needs exactly one of --n or --fspace")
    bound = _max_points(args, fl.DEFAULT_MAX_ENUMERATION)
    if args.n is not None:
        out.put("n", args.n)
        out.put("orders", len(fl.lo_space(args.n, max_n=bound)))
        out.put("simply_transitive", fl.check_simply_transitive(args.n, max_n=bound))
        return 0
    from .finite import FiniteSpace

    space = FiniteSpace.parse(_read(args.fspace))
    report = fl.product_flow_check(space)
    out.put("factors", " x ".join(f"LO({s})" for s in report.factor_sizes))
    out.put("flow_size", report.flow_size)
    out.put("group_order", report.group_order)
    out.put("simply_transitive", report.simply_transitive)
    out.put("minimal", report.minimal)
    out.put("citation", "UMF(G) = G for compact (here finite) groups")
    return 0


def cmd_verify(args, out: _Emitter) -> int:
    from . import verify as vf

    try:
        results = vf.run_suite(args.suite, seed=args.seed, max_points=_max_points(args, None))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    failed = 0
    for res in results:
        out.put(f"suite.{res.name}", "pass" if res.ok else "FAIL")
        for line in res.lines:
            out.put(f"suite.{res.name}.check", line)
        out.put(f"suite.{res.name}.seconds", f"{res.seconds:.2f}")
        if not res.ok:
            failed += 1
    out.put("failed_suites", failed)
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls.

    ``parse_args`` keeps no state in the parser (each call fills a new
    namespace), so one instance serves every ``main`` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="scatterkit",
        description="Scattered spaces: ordinal classification, Cantor-Bendixson data, "
        "homeomorphism groups and their flows.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output style: human text or key=value lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="homeomorphism class of an ordinal space")
    p.add_argument("ordinal")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("homeomorphic", help="are two ordinal spaces homeomorphic")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_homeomorphic)

    p = sub.add_parser("rank", help="Cantor-Bendixson rank of a point")
    p.add_argument("point")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("derive", help="order type of an iterated derived subspace")
    p.add_argument("ordinal")
    p.add_argument("--level", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("profile", help="rank level sizes of an ordinal space")
    p.add_argument("ordinal")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("group", help="homeomorphism group descriptor, invariants and flow")
    p.add_argument("ordinal")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("groups-iso", help="isomorphism oracle for two ordinal spaces' groups")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_groups_iso)

    p = sub.add_parser("fspace", help="analyse a finite space file")
    p.add_argument("file")
    p.add_argument("--group", action="store_true", help="compute the homeomorphism group")
    p.add_argument("--normal", action="store_true", help="list its normal subgroups")
    p.add_argument("--full-transitivity", action="store_true", help="run both transitivity checks")
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cmd_fspace)

    p = sub.add_parser("encode-graph", help="encode a graph file as a finite space")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true", help="check the encoding theorems")
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cmd_encode_graph)

    p = sub.add_parser("flows", help="linear-order flows for {1..n} or a space file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--fspace", default=None)
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Emitter(structured=args.format == "structured")
    try:
        code = args.func(args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScatterkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out.flush()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: send what is still buffered nowhere, so the
        # interpreter's own flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
