"""Command-line surface.

Exit codes: 0 success, 1 domain error (bad precondition, exceeded bound,
failed verification suite), 2 usage or parse error.  Output is either
human-readable text or a line-oriented ``key=value`` form selected with
--format; identical arguments always produce identical structured
output.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import finite as fin
from . import flows as fl
from . import graphs as gr
from . import groups as gp
from . import verify as vf
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


class _Emitter:
    def __init__(self, structured: bool):
        self.structured = structured
        self.rows: list[tuple[str, str]] = []

    def put(self, key: str, value) -> None:
        self.rows.append((key, str(value)))

    def flush(self) -> None:
        for key, value in self.rows:
            if self.structured:
                print(f"{key}={value}")
            else:
                print(f"{key}: {value}")


def _max_points(args) -> int | None:
    if getattr(args, "max_points", None) is not None:
        return args.max_points
    env = os.environ.get(ENV_MAX_POINTS)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{ENV_MAX_POINTS} must be an integer, got {env!r}") from None
    return None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ScatterkitError(f"cannot read {path}: {exc}") from None


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
    out.put("homeomorphic", "true" if homeomorphic(g1, g2) else "false")
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
    out.put("umf.metrisable", "true" if umf.metrisable else "false")
    out.put("umf.citation", gp.CITE_THM15)
    out.put("metrisable.citation", gp.CITE_REM16)
    out.put("amenable", f"true [{gp.CITE_COR23}]")
    out.put("roelcke_precompact", f"true [{gp.CITE_COR23}]")
    return 0


def cmd_groups_iso(args, out: _Emitter) -> int:
    d1 = gp.descriptor_of(parse(args.first))
    d2 = gp.descriptor_of(parse(args.second))
    answer = gp.groups_isomorphic(d1, d2)
    out.put("first", d1)
    out.put("second", d2)
    out.put("answer", answer.decision.value)
    out.put("justification", answer.justification)
    return 0


def cmd_fspace(args, out: _Emitter) -> int:
    space = fin.FiniteSpace.parse(_read(args.file))
    bound = _max_points(args) or fin.DEFAULT_MAX_POINTS
    out.put("points", space.size)
    sep = fin.separation_report(space)
    out.put("t0", "true" if sep.t0 else "false")
    out.put("t1", "true" if sep.t1 else "false")
    out.put("scattered", "true" if sep.scattered else "false")
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
            report = fin.is_fully_transitive(space, max_points=bound, group=group)
            out.put("fully_transitive", "true" if report.holds else "false")
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
    graph = gr.Graph.parse(_read(args.file))
    bound = _max_points(args)
    space = gr.encode(graph)
    out.put("vertices", graph.size)
    out.put("edges", len(graph.edges))
    out.put("points", space.size)
    for name in space.points:
        members = " ".join(sorted(space.min_open[name], key=space.index))
        out.put(f"min_open.{name}", members)
    if args.verify:
        report = gr.verify_prop24(graph, max_vertices=bound or gr.DEFAULT_MAX_VERTICES)
        out.put("homeo_order", report.homeo_order)
        out.put("aut_order", report.aut_order)
        out.put("restriction_is_isomorphism", "true" if report.restriction_is_isomorphism else "false")
        out.put("derived_is_edges", "true" if report.derived_is_edges else "false")
        out.put("second_derived_empty", "true" if report.second_derived_empty else "false")
        out.put("closures_match", "true" if report.closures_match else "false")
        out.put("isolated_are_vertices", "true" if report.isolated_are_vertices else "false")
        out.put("ok", "true" if report.ok else "false")
        if report.counterexample:
            out.put("counterexample", report.counterexample)
        if not report.ok:
            return 1
    return 0


def cmd_flows(args, out: _Emitter) -> int:
    if (args.n is None) == (args.fspace is None):
        raise ParseError("flows needs exactly one of --n or --fspace")
    bound = _max_points(args) or fl.DEFAULT_MAX_ENUMERATION
    if args.n is not None:
        out.put("n", args.n)
        out.put("orders", len(fl.lo_space(args.n, max_n=bound)))
        out.put("simply_transitive", "true" if fl.check_simply_transitive(args.n, max_n=bound) else "false")
        return 0
    space = fin.FiniteSpace.parse(_read(args.fspace))
    report = fl.product_flow_check(space)
    out.put("factors", " x ".join(f"LO({s})" for s in report.factor_sizes))
    out.put("flow_size", report.flow_size)
    out.put("group_order", report.group_order)
    out.put("simply_transitive", "true" if report.simply_transitive else "false")
    out.put("minimal", "true" if report.minimal else "false")
    out.put("citation", "UMF(G) = G for compact (here finite) groups")
    return 0


def cmd_verify(args, out: _Emitter) -> int:
    try:
        results = vf.run_suite(args.suite, seed=args.seed, max_points=_max_points(args))
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(vf.suite_names())}")
    p.add_argument("--seed", type=int, default=vf.DEFAULT_SEED)
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
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
