"""Command-line surface.

Exit codes: 0 success, 1 domain error (bad precondition, exceeded bound,
failed verification suite), 2 usage or parse error.  Output is either
human-readable text or a line-oriented ``key=value`` form selected with
--format; identical arguments always produce identical structured
output.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .classify import (
    SpaceClass,
    class_profile,
    classify,
    derived_order_type,
    homeomorphic,
    point_rank,
)
from .errors import ParseError, ScatterkitError
from .ordinal import format_natural, parse, parse_natural

if TYPE_CHECKING:
    import argparse

ENV_MAX_POINTS = "SCATTERKIT_MAX_POINTS"
#: ``verify --help``'s suite list and ``--seed`` default, kept here so that
#: the command table does not load ``verify``; the tests tie both to
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
#: ``--format`` values; the first is the default.
FORMATS = ("text", "structured")


class _Emitter:
    def __init__(self, structured: bool):
        self.structured = structured
        self.rows: list[tuple[str, str]] = []

    def put(self, key: str, value) -> None:
        """Queue one row; a bool prints as ``true`` or ``false``, an int
        through ``_signed``."""
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, int):
            value = _signed(value)
        self.rows.append((key, str(value)))

    def flush(self) -> None:
        sep = "=" if self.structured else ": "
        sys.stdout.write("".join(f"{key}{sep}{value}\n" for key, value in self.rows))


def _read_int(text: str) -> int:
    """``int(text)`` as under the interpreter's default conversion limit,
    whatever its own setting: the same text is refused (ValueError), and
    at most ``ordinal.MAX_DIGITS`` digits are read, in pieces."""
    # each digit run stands as one digit, so int() checks the sign,
    # whitespace and underscores at any length
    int(re.sub(r"\d+", "0", text))
    value = parse_natural("".join(re.findall(r"\d", text)))
    return -value if "-" in text else value


# argparse names the type in its usage error: "invalid int value: ..."
_read_int.__name__ = "int"


def _signed(n: int) -> str:
    """n in decimal through ``format_natural``, with its sign."""
    return "-" + format_natural(-n) if n < 0 else format_natural(n)


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
            bound = _read_int(env)
        except ValueError:
            raise ParseError(f"{ENV_MAX_POINTS} must be an integer, got {env!r}") from None
        source = ENV_MAX_POINTS
    if bound <= 0:
        raise ParseError(f"{source} must be a positive integer, got {_signed(bound)}")
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


_MAX_POINTS = {"--max-points": (int, None, False, None)}

#: The command table, the one description of the command line: each
#: subcommand's handler, help text, positionals and options.  An option
#: maps its name to (kind, default, required, help), the kind being bool
#: for a flag, else the type of its value.  ``main`` reads well-formed argv
#: off it; ``build_parser`` builds argparse from it for everything else.
COMMANDS = {
    "classify": (cmd_classify, "homeomorphism class of an ordinal space", ("ordinal",), {}),
    "homeomorphic": (cmd_homeomorphic, "are two ordinal spaces homeomorphic", ("first", "second"), {}),
    "rank": (cmd_rank, "Cantor-Bendixson rank of a point", ("point",), {"--space": (str, None, True, None)}),
    "derive": (cmd_derive, "order type of an iterated derived subspace", ("ordinal",),
               {"--level": (str, None, True, None)}),
    "profile": (cmd_profile, "rank level sizes of an ordinal space", ("ordinal",), {}),
    "group": (cmd_group, "homeomorphism group descriptor, invariants and flow", ("ordinal",), {}),
    "groups-iso": (cmd_groups_iso, "isomorphism oracle for two ordinal spaces' groups",
                   ("first", "second"), {}),
    "fspace": (cmd_fspace, "analyse a finite space file", ("file",), {
        "--group": (bool, False, False, "compute the homeomorphism group"),
        "--normal": (bool, False, False, "list its normal subgroups"),
        "--full-transitivity": (bool, False, False, "run both transitivity checks"),
        **_MAX_POINTS,
    }),
    "encode-graph": (cmd_encode_graph, "encode a graph file as a finite space", ("file",),
                     {"--verify": (bool, False, False, "check the encoding theorems"), **_MAX_POINTS}),
    "flows": (cmd_flows, "linear-order flows for {1..n} or a space file", (),
              {"--n": (int, None, False, None), "--fspace": (str, None, False, None), **_MAX_POINTS}),
    "verify": (cmd_verify, "run a verification suite", (), {
        "--suite": (str, None, True, f"one of: {', '.join(SUITE_NAMES)}"),
        "--seed": (int, DEFAULT_SEED, False, None),
        **_MAX_POINTS,
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command table, built on first use and
    shared by later calls.

    ``parse_args`` keeps no state in the parser (each call fills a new
    namespace), so one instance serves every ``main`` call in a process.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="scatterkit",
        description="Scattered spaces: ordinal classification, Cantor-Bendixson data, "
        "homeomorphism groups and their flows.",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=FORMATS[0],
        help="output style: human text or key=value lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in positionals:
            p.add_argument(name)
        for flag, (kind, default, required, text) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
            else:
                kind = _read_int if kind is int else kind
                p.add_argument(flag, type=kind, default=default, required=required, help=text)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives a well-formed argv, read
    off the command table in one pass; None for anything else (help, an
    abbreviation, ``--opt=value``, ``--``, a token or value that starts with
    '-', a missing or extra positional, a missing required option or an
    integer value ``_read_int`` refuses), which argparse then handles."""
    fmt = FORMATS[0]
    if argv[:1] == ["--format"]:
        fmt = argv[1] if len(argv) > 1 else None
        if fmt not in FORMATS:
            return None
        argv = argv[2:]
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, names, options = COMMANDS[argv[0]]
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token not in options:
            return None
        kind = options[token][0]
        if kind is bool:
            given[token] = True
            continue
        value = next(tokens, "-")  # a missing value defers, as a leading '-' does
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = _read_int(value)
            except ValueError:
                return None
        given[token] = value
    if len(positionals) != len(names):
        return None
    args = dict(zip(names, positionals), format=fmt, command=argv[0], func=func)
    for flag, (_, default, required, _) in options.items():
        if required and flag not in given:
            return None
        args[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        # Some argparse versions (Python 3.11's among them) hand over a
        # positional given as a second '--' as an empty list; others keep
        # the '--'.
        for name in COMMANDS[args.command][2]:
            if getattr(args, name) == []:
                setattr(args, name, "--")
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
