import argparse
import functools
import io
import itertools
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from scatterkit import cli, graphs
from scatterkit.cli import COMMANDS, build_parser, main
from scatterkit.verify import chain_space, discrete_space


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_classify_text_and_structured():
    code, out = run_cli("classify", "w^2*3 + w*2 + 5")
    assert code == 0
    assert "family: CompactInfinite" in out
    assert "canonical: w^2*3 + 1" in out
    code, out = run_cli("--format", "structured", "classify", "w^2*3 + w*2 + 5")
    assert code == 0
    assert "family=CompactInfinite" in out


def test_structured_output_is_deterministic():
    runs = {run_cli("--format", "structured", "group", "w^2*2 + w + 3")[1] for _ in range(3)}
    assert len(runs) == 1


def test_homeomorphic():
    code, out = run_cli("homeomorphic", "w^2 + w + 1", "w + w^2 + 1")
    assert code == 0 and "homeomorphic: true" in out
    code, out = run_cli("homeomorphic", "w^2 + w", "w^2")
    assert code == 0 and "homeomorphic: false" in out


def test_rank_and_derive():
    code, out = run_cli("rank", "w^2*3", "--space", "w^2*3 + 1")
    assert code == 0 and "rank: 2" in out
    code, out = run_cli("derive", "w^2 + 1", "--level", "1")
    assert code == 0 and "derived_order_type: w + 1" in out


def test_groups_iso_cites_its_source():
    code, out = run_cli("groups-iso", "w^2*2 + 1", "w^2*3 + 1")
    assert code == 0
    assert "answer: No" in out
    assert "Theorem 29" in out


def test_group_report_carries_citations():
    code, out = run_cli("group", "w^2*3 + 1")
    assert code == 0
    assert "amenable: true" in out and "Corollary 23" in out
    assert "roelcke_precompact: true" in out
    assert "umf: LO(aleph0) x LO(aleph0) x LO(3)" in out
    assert "Theorem 15" in out


def test_parse_error_exits_2():
    code, _ = run_cli("classify", "w^^")
    assert code == 2


def test_over_long_literal_exits_2(capsys):
    code, _ = run_cli("classify", "7" * 5000)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: integer literal of 5000 digits")


def test_non_ascii_digits_exit_2(capsys):
    code, out = run_cli("classify", "w*\u00b2")  # a superscript two
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: expected a number (at position 2)\n"


def test_over_long_coefficient_exits_1(capsys):
    nines = "9" * 4300
    code, out = run_cli("classify", f"{nines} + {nines}")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: cannot print a coefficient of more than 4300 digits\n"


def test_domain_error_exits_1():
    code, _ = run_cli("rank", "w^2", "--space", "w")
    assert code == 1
    code, _ = run_cli("profile", "w^(w)")
    assert code == 1
    # a raised bound cannot make 10^20! linear orders listable
    code, _ = run_cli("flows", "--n", "99999999999999999999", "--max-points", "99999999999999999999")
    assert code == 1


def test_a_second_double_dash_is_a_positional(capsys):
    # argparse on Python 3.11 hands it over as an empty list
    for argv in (("homeomorphic", "0", "--", "--"), ("classify", "--", "--")):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == "error: expected 'w' or a number (at position 0)\n"


def test_fspace_commands(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("a: a\nb: b\nc: a b c\n")
    code, out = run_cli("fspace", str(path), "--group", "--normal", "--full-transitivity")
    assert code == 0
    assert "scattered: true" in out
    assert "homeo_order: 2" in out
    assert "fully_transitive: true" in out
    assert "normal_subgroups: 2" in out


def test_fspace_full_transitivity_at_default_bounds(tmp_path):
    chain = tmp_path / "chain10.txt"
    chain.write_text(chain_space(10).to_text())
    code, out = run_cli("--format", "structured", "fspace", str(chain), "--full-transitivity")
    assert code == 0
    assert "fully_transitive=true" in out.splitlines()
    # four layers of three points, each point above every point of the lower layers
    layered = tmp_path / "layered.txt"
    layered.write_text(
        "".join(
            f"x{layer}_{i}: x{layer}_{i} {' '.join(f'x{lo}_{j}' for lo in range(layer) for j in range(3))}\n"
            for layer in range(4)
            for i in range(3)
        )
    )
    code, out = run_cli("--format", "structured", "fspace", str(layered), "--full-transitivity")
    assert code == 0
    lines = out.splitlines()
    assert "homeo_order=1296" in lines and "fully_transitive=true" in lines


def test_fspace_normal_generators_are_pinned(tmp_path):
    # the reported generators come from the element sets, whatever way the
    # lattice search finds them
    s4 = tmp_path / "s4.txt"
    s4.write_text("p1: p1\np2: p2\np3: p3\np4: p4\n")
    fan = tmp_path / "fan.txt"
    fan.write_text("a: a\nb: b\nz: a b z\nw: a b w\n")
    expected = {
        s4: [
            "normal.0=order 1: <id>",
            "normal.1=order 4: <(p1 p2)(p3 p4), (p1 p3)(p2 p4)>",
            "normal.2=order 12: <(p2 p3 p4), (p1 p2)(p3 p4)>",
            "normal.3=order 24: <(p3 p4), (p2 p3), (p1 p2)>",
        ],
        fan: [
            "normal.0=order 1: <id>",
            "normal.1=order 2: <(z w)>",
            "normal.2=order 2: <(a b)>",
            "normal.3=order 2: <(a b)(z w)>",
            "normal.4=order 4: <(z w), (a b)>",
        ],
    }
    for path, lines in expected.items():
        code, out = run_cli("--format", "structured", "fspace", str(path), "--normal")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("normal.")] == lines


def test_fspace_validation_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a: a b\nb: b c\nc: c\n")
    code, _ = run_cli("fspace", str(path))
    assert code == 1



def _run_with_stderr(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command", [["fspace"], ["encode-graph"], ["encode-graph", "--verify"], ["flows", "--fspace"]]
)
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a: a\n\xff\xfe: b\n")
    code, out, err = _run_with_stderr(*command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path} is not UTF-8: invalid start byte at byte offset 5\n"


def test_files_are_read_as_utf8_with_any_line_ending(tmp_path):
    path = tmp_path / "space.txt"
    path.write_bytes("\u00e9: \u00e9\r\nb: b \u00e9\rc: c\n".encode())
    code, out = run_cli("--format", "structured", "fspace", str(path))
    assert code == 0 and "block.0=rank 0: \u00e9 c" in out


def test_group_and_encoding_commands_never_build_min_open(tmp_path, monkeypatch):
    from scatterkit import finite

    def refuse(self):
        raise AssertionError("min_open was built")

    monkeypatch.setattr(finite.FiniteSpace, "min_open", property(refuse))
    space = tmp_path / "fans.txt"
    space.write_text("a: a\nb: b\nc: a b c\nd: d\n")
    graph = tmp_path / "p3.txt"
    graph.write_text("1 2\n2 3\n")
    assert run_cli("fspace", str(space), "--group", "--normal", "--full-transitivity")[0] == 0
    assert run_cli("--format", "structured", "encode-graph", str(graph), "--verify") == (0, P3_VERIFY)

def test_fspace_size_bound_env(tmp_path, monkeypatch):
    path = tmp_path / "five.txt"
    path.write_text("".join(f"p{i}: p{i}\n" for i in range(5)))
    monkeypatch.setenv("SCATTERKIT_MAX_POINTS", "3")
    code, _ = run_cli("fspace", str(path), "--group")
    assert code == 1
    monkeypatch.setenv("SCATTERKIT_MAX_POINTS", "6")
    code, out = run_cli("fspace", str(path), "--group")
    assert code == 0 and "homeo_order: 120" in out


def test_encode_graph(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("1 2\n2 3\n")
    code, out = run_cli("encode-graph", str(path), "--verify")
    assert code == 0
    assert "points: 5" in out
    assert "ok: true" in out


P3_VERIFY = """\
vertices=3
edges=2
points=5
min_open.1=1
min_open.2=2
min_open.3=3
min_open.1--2=1 2 1--2
min_open.2--3=2 3 2--3
homeo_order=2
aut_order=2
restriction_is_isomorphism=true
derived_is_edges=true
second_derived_empty=true
closures_match=true
isolated_are_vertices=true
ok=true
"""


def test_encode_graph_verify_encodes_once(tmp_path, monkeypatch):
    path = tmp_path / "p3.txt"
    path.write_text("1 2\n2 3\n")
    encoded = []

    def counting_encode(g):
        encoded.append(g)
        return original(g)

    original = graphs.encode
    monkeypatch.setattr(graphs, "encode", counting_encode)
    assert run_cli("--format", "structured", "encode-graph", str(path), "--verify") == (0, P3_VERIFY)
    assert len(encoded) == 1
    code, out = run_cli("--format", "structured", "encode-graph", str(path))
    assert code == 0 and out == P3_VERIFY[: P3_VERIFY.index("homeo_order")]
    assert len(encoded) == 2


def test_encode_graph_verify_sizes_its_point_bound_by_the_vertex_bound(tmp_path):
    """K9 minus four disjoint edges encodes as 41 points, which the vertex
    bound of 9 allows (at most 9 + 36 points)."""
    names = [str(i) for i in range(1, 10)]
    removed = {("1", "2"), ("3", "4"), ("5", "6"), ("7", "8")}
    path = tmp_path / "k9_minus_matching.txt"
    path.write_text(
        "".join(f"{u} {v}\n" for u, v in itertools.combinations(names, 2) if (u, v) not in removed)
    )
    code, out = run_cli(
        "--format", "structured", "encode-graph", str(path), "--verify", "--max-points", "9"
    )
    lines = out.splitlines()
    assert code == 0
    assert "points=41" in lines and "homeo_order=384" in lines and "ok=true" in lines


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ("fspace", "{space}", "--group"),
        ("encode-graph", "{graph}", "--verify"),
        ("flows", "--n", "3"),
        ("verify", "--suite", "cb-rank"),
    ],
)
def test_bound_of_zero_or_less_is_a_usage_error(tmp_path, monkeypatch, command, bound):
    space, graph = tmp_path / "two.txt", tmp_path / "p3.txt"
    space.write_text("a: a\nb: b\n")
    graph.write_text("1 2\n2 3\n")
    argv = [arg.format(space=space, graph=graph) for arg in command]
    assert run_cli(*argv)[0] == 0
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli(*argv, "--max-points", bound)[0] == 2
    assert err.getvalue() == f"error: --max-points must be a positive integer, got {bound}\n"
    monkeypatch.setenv("SCATTERKIT_MAX_POINTS", bound)
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli(*argv)[0] == 2
    assert err.getvalue() == f"error: SCATTERKIT_MAX_POINTS must be a positive integer, got {bound}\n"
    # the flag still takes precedence over the environment
    assert run_cli(*argv, "--max-points", "10")[0] == 0


def test_flows_commands(tmp_path):
    code, out = run_cli("flows", "--n", "4")
    assert code == 0 and "orders: 24" in out and "simply_transitive: true" in out
    path = tmp_path / "space.txt"
    path.write_text("a: a\nb: b\nc: a b c\n")
    code, out = run_cli("flows", "--fspace", str(path))
    assert code == 0 and "minimal: true" in out
    code, _ = run_cli("flows")
    assert code == 2


def test_shared_parser_keeps_no_state(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("a: a\nb: b\nc: a b c\n")
    calls = [
        ("--format", "structured", "flows", "--n", "4"),
        ("fspace", str(path), "--group"),
        # spellings the table reader defers, so argparse parses them
        ("--format=structured", "flows", "--n=4"),
        ("fspace", str(path), "--gr"),
    ]
    for argv in calls:
        build_parser.cache_clear()
        first = run_cli(*argv)
        assert first[0] == 0
        with pytest.raises(SystemExit) as rejected:
            run_cli("flows", "--n", "four")
        assert rejected.value.code == 2
        assert run_cli("flows")[0] == 2  # a ParseError from the command
        assert run_cli(*argv) == first
    assert build_parser() is build_parser()


def test_verify_suite():
    code, out = run_cli("verify", "--suite", "cb-rank")
    assert code == 0
    assert "suite.cb-rank: pass" in out
    code, _ = run_cli("verify", "--suite", "nonsense")
    assert code == 2


def test_verify_help_and_seed_match_the_verify_module():
    from scatterkit import verify

    sub = build_parser()._subparsers._group_actions[0].choices["verify"]
    suite = next(a for a in sub._actions if a.dest == "suite")
    assert suite.help == f"one of: {', '.join(verify.suite_names())}"
    assert f"one of: {', '.join(verify.suite_names())}" in " ".join(sub.format_help().split())
    assert build_parser().parse_args(["verify", "--suite", "all"]).seed == verify.DEFAULT_SEED


FRESH = [
    ("classify", "w^2*3 + w*2 + 5"),
    ("homeomorphic", "w^2 + w + 1", "w + w^2 + 1"),
    ("rank", "w^2*3", "--space", "w^2*3 + 1"),
    ("derive", "w^2 + 1", "--level", "1"),
    ("profile", "w^2*2 + w + 3"),
    ("group", "w^2*2 + w + 3"),
    ("groups-iso", "w^2*2 + 1", "w^2*3 + 1"),
    ("fspace", "{space}", "--group", "--normal", "--full-transitivity"),
    ("encode-graph", "{graph}", "--verify"),
    ("flows", "--n", "3"),
    ("flows", "--fspace", "{space}"),
    ("verify", "--suite", "flows"),
]


@pytest.mark.parametrize("argv", FRESH, ids=lambda argv: " ".join(argv[:2]))
def test_each_command_runs_in_a_fresh_interpreter(tmp_path, argv):
    """In this process other tests have loaded every module, so a command
    that uses a module it never imports still passes here; a fresh
    ``python -m scatterkit`` shows it."""
    space = tmp_path / "space.txt"
    space.write_text("a: a\nb: b\nc: a b c\n")
    graph = tmp_path / "graph.txt"
    graph.write_text("1 2\n2 3\n")
    argv = ["--format", "structured", *(a.format(space=space, graph=graph) for a in argv)]
    proc = subprocess.run(
        [sys.executable, "-m", "scatterkit", *argv], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    seconds = re.compile(r"^suite\.[^=]*\.seconds=.*$", re.M)
    assert seconds.sub("", proc.stdout) == seconds.sub("", run_cli(*argv)[1])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scatterkit", "classify", "w"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "LimitPure" in proc.stdout


def test_closed_pipe_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "discrete4.txt"
    path.write_text(discrete_space(4).to_text(), encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "scatterkit", "--format", "structured", "fspace", str(path),
             "--group", "--normal"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "scatterkit", "no-such-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@functools.cache
def _reference_parser():
    """The parser as it was written out by hand before the command table."""
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
    p.set_defaults(func=cli.cmd_classify)

    p = sub.add_parser("homeomorphic", help="are two ordinal spaces homeomorphic")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cli.cmd_homeomorphic)

    p = sub.add_parser("rank", help="Cantor-Bendixson rank of a point")
    p.add_argument("point")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cli.cmd_rank)

    p = sub.add_parser("derive", help="order type of an iterated derived subspace")
    p.add_argument("ordinal")
    p.add_argument("--level", required=True)
    p.set_defaults(func=cli.cmd_derive)

    p = sub.add_parser("profile", help="rank level sizes of an ordinal space")
    p.add_argument("ordinal")
    p.set_defaults(func=cli.cmd_profile)

    p = sub.add_parser("group", help="homeomorphism group descriptor, invariants and flow")
    p.add_argument("ordinal")
    p.set_defaults(func=cli.cmd_group)

    p = sub.add_parser("groups-iso", help="isomorphism oracle for two ordinal spaces' groups")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cli.cmd_groups_iso)

    p = sub.add_parser("fspace", help="analyse a finite space file")
    p.add_argument("file")
    p.add_argument("--group", action="store_true", help="compute the homeomorphism group")
    p.add_argument("--normal", action="store_true", help="list its normal subgroups")
    p.add_argument("--full-transitivity", action="store_true", help="run both transitivity checks")
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cli.cmd_fspace)

    p = sub.add_parser("encode-graph", help="encode a graph file as a finite space")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true", help="check the encoding theorems")
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cli.cmd_encode_graph)

    p = sub.add_parser("flows", help="linear-order flows for {1..n} or a space file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--fspace", default=None)
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cli.cmd_flows)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(cli.SUITE_NAMES)}")
    p.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    p.add_argument("--max-points", type=int, default=None)
    p.set_defaults(func=cli.cmd_verify)

    return parser


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def test_help_matches_the_reference_parser():
    assert build_parser().format_help() == _reference_parser().format_help()
    table, reference = _subparsers(build_parser()), _subparsers(_reference_parser())
    assert list(table) == list(reference) == list(COMMANDS)
    for command in COMMANDS:
        assert table[command].format_help() == reference[command].format_help(), command
        assert table[command].format_usage() == reference[command].format_usage(), command


def _reference_vars(argv):
    try:
        with redirect_stderr(io.StringIO()):
            return vars(_reference_parser().parse_args(argv))
    except SystemExit as exc:
        raise AssertionError(f"the reader accepted {argv}, which argparse rejects") from exc


_OPTIONS = sorted({flag for *_, options in COMMANDS.values() for flag in options})
#: Spellings argparse accepts and the reader defers, and plain mistakes.
_OTHER_TOKENS = [
    "-h", "--help", "--", "-", "--max", "--full", "--gr", "--no", "--ver", "--su", "--se",
    "--lev", "--sp", "--fs", "--max-points=3", "--n=4", "--format", "--format=structured",
    "-n", "--nope",
]
#: Only the fast suites, so that the tests that run the commands stay
#: within seconds.
_SUITES = ["classifier", "cb-rank", "nonsense"]
_VALUES = [
    "0", "3", "8", "-3", "+4", " 5", "1_0", "x", "", "w^2 + 1", "99999999999999999999",
    "-99999999999999999999", "text", "structured", *_SUITES,
]
_PREFIXES = [[], ["--format", "text"], ["--format", "structured"], ["--format"], ["--format", "json"],
             ["--format=text"], ["-h"]]


def _argv(values):
    """argv from the CLI's own vocabulary: a format prefix, a command or a
    mistake, then in any order the command's positionals and some of its
    options with values; half of them also take a wrong positional count,
    a few tokens of any kind and any prefix."""

    def option(flag, kind):
        return st.just([flag]) if kind is bool else st.sampled_from(values).map(lambda v: [flag, v])

    def body(command, clean):
        _, _, names, options = COMMANDS.get(command, (None, None, ("x",), {}))
        slack = 0 if clean else 1
        pieces = [
            st.lists(st.sampled_from(values).map(lambda v: [v]),
                     min_size=max(len(names) - slack, 0), max_size=len(names) + slack),
            *(st.lists(option(flag, kind), max_size=1) for flag, (kind, *_) in options.items()),
            st.lists(st.sampled_from(_OTHER_TOKENS + _OPTIONS + values).map(lambda t: [t]),
                     max_size=2 * slack),
        ]
        return st.tuples(*pieces).flatmap(
            lambda groups: st.permutations([piece for group in groups for piece in group])
        ).map(lambda shuffled: [token for piece in shuffled for token in piece])

    def argv(clean):
        prefixes = _PREFIXES[:3] if clean else _PREFIXES
        return st.tuples(st.sampled_from(prefixes), st.sampled_from([*COMMANDS, "nosuch"])).flatmap(
            lambda pc: body(pc[1], clean).map(lambda tokens: [*pc[0], pc[1], *tokens])
        )

    return st.booleans().flatmap(argv)


@settings(max_examples=600, deadline=None)
@given(_argv(_VALUES))
def test_every_argv_the_reader_accepts_parses_the_same_under_argparse(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == _reference_vars(argv)


def _canonical_argvs():
    """For each command, with each --format prefix: its positionals and
    required options only, then every option given, values of the right
    kind."""
    for command, (_, _, positionals, options) in COMMANDS.items():
        sample = {str: "w + 1", int: "7"}
        required = [t for flag, (kind, _, req, _) in options.items() if req
                    for t in (flag, sample[kind])]
        every = [t for flag, (kind, *_) in options.items()
                 for t in ((flag,) if kind is bool else (flag, sample[kind]))]
        for prefix in ([], ["--format", "text"], ["--format", "structured"]):
            yield [*prefix, command, *(["x"] * len(positionals)), *required]
            yield [*prefix, command, *every, *(["x"] * len(positionals))]


def test_every_canonical_argv_is_read_off_the_table():
    for argv in _canonical_argvs():
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == _reference_vars(argv)


def test_main_defers_to_argparse_only_when_the_reader_does(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or _reference_parser())
    with redirect_stdout(io.StringIO()):
        assert main(["--format", "structured", "classify", "w"]) == 0
        assert built == []
        assert main(["classify", "--", "w"]) == 0
    assert built == [1]


# ---------------------------------------------------------------------------
# no traceback from any argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    files = {
        "space.txt": "a: a\nb: b\nc: a b c\n".encode(),
        "bad-space.txt": b"a: a b\nb: b c\nc: c\n",
        "graph.txt": b"1 2\n2 3\n",
        "not-utf8.txt": b"a: a\n\xff\xfe: b\n",
    }
    for name, data in files.items():
        (root / name).write_bytes(data)
    (root / "a-directory").mkdir()
    return [str(root / name) for name in [*files, "a-directory", "missing.txt"]]


#: Ordinal texts: k! past 4300 digits (group, groups-iso), k itself past
#: 4300 digits (homeomorphic, groups-iso), huge and negative numbers, huge
#: exponents (profile, group), and text that does not parse.
_ORDINALS = [
    "w", "w^2*3 + w*2 + 5", "1558", "1559", "w*1700", "w^2*99999999999999999999 + w",
    "99999999999999999999", "w*20000000000000000000", "w*20000000000000000001", "w^w",
    "-1", "w^^", "9" * 4300 + " + " + "9" * 4300,
    "w^99999999999999999999", "w^" + "9" * 4300 + "*3 + w",
]

#: Wall-clock seconds one argv may take before it counts as a hang.
_HANG_SECONDS = 10


def _hang(signum, frame):
    pytest.fail(f"no answer within {_HANG_SECONDS} s")


# No shrinking: each smaller candidate of a hang would wait out the cap again.
@settings(max_examples=400, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.data())
def test_no_argv_ends_in_a_traceback(cli_files, data):
    argv = data.draw(_argv(_VALUES + _ORDINALS + cli_files))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, _HANG_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)


@pytest.mark.parametrize("ordinal", ["w^99999999999999999999", "w^" + "9" * 4300 + "*3 + w"])
@pytest.mark.parametrize("command", ["profile", "group"])
def test_huge_profiles_are_refused_at_once(capsys, command, ordinal):
    import scatterkit.groups  # noqa: F401  (imported before the clock starts)

    start = time.perf_counter()
    assert run_cli(command, ordinal) == (1, "")
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err == (
        f"error: [0, {ordinal}) has more rank levels than the cap of 100000 on listing them\n"
    )


def test_profile_lists_up_to_the_bound():
    code, out = run_cli("--format", "structured", "profile", "w^100000")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["space=w^100000", "levels=100000", "level.0.size=aleph0"]
    assert lines[-1] == "level.99999.size=aleph0" and len(lines) == 100002
    assert run_cli("profile", "w^100000 + 1") == (1, "")


def test_group_prints_k_factorial_up_to_4300_digits(capsys):
    code, out = run_cli("--format", "structured", "group", "1558")
    assert code == 0
    assert len(re.search(r"^max_finite_quotient=(\d+)$", out, re.M).group(1)) == 4300
    for ordinal in ("1559", "w*1700", "99999999999999999999"):
        assert run_cli("group", ordinal) == (1, "")
        assert capsys.readouterr().err == "error: cannot print a factorial of more than 4300 digits\n"


def test_huge_k_exits_1_in_every_command_that_prints_it(capsys):
    nines = "9" * 4300
    for argv in (
        ("homeomorphic", f"{nines} + {nines}", "1"),
        ("homeomorphic", f"w*{nines} + w*{nines}", "1"),
        ("groups-iso", f"{nines} + {nines}", "1"),
        ("groups-iso", f"w*{nines} + w*{nines} + 1", "w+1"),
    ):
        assert run_cli(*argv) == (1, ""), argv[0]
        assert capsys.readouterr().err == "error: cannot print a coefficient of more than 4300 digits\n"


def test_the_print_bound_does_not_follow_the_interpreter_limit():
    """The 4300-digit bound is scatterkit's own: with Python's conversion
    limit off or at its least, the same numbers are read, printed and
    refused as under the default."""
    nines = "9" * 4300
    for limit in ("0", "640"):
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": limit}

        def run(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "scatterkit", "--format", "structured", *argv],
                capture_output=True, text=True, env=env,
            )
            return proc.returncode, proc.stdout, proc.stderr

        assert run("group", "99999999999999999999") == (
            1, "", "error: cannot print a factorial of more than 4300 digits\n"
        )
        code, out, _ = run("group", "1558")
        assert code == 0
        assert len(re.search(r"^max_finite_quotient=(\d+)$", out, re.M).group(1)) == 4300
        assert run("classify", nines)[:2] == (0, run_cli("--format", "structured", "classify", nines)[1])
        assert run("classify", "9" + nines)[0] == 2


def _outcome(argv, env=None):
    """(exit code, stdout, stderr) of the CLI: in this process, or with env
    in a fresh interpreter."""
    if env is not None:
        proc = subprocess.run([sys.executable, "-m", "scatterkit", *argv], capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_integer_options_do_not_follow_the_interpreter_limit(tmp_path, monkeypatch):
    """--n, --seed, --max-points and SCATTERKIT_MAX_POINTS take up to 4300
    digits, read in pieces, whatever PYTHONINTMAXSTRDIGITS says."""
    monkeypatch.delenv("SCATTERKIT_MAX_POINTS", raising=False)
    space = tmp_path / "one.txt"
    space.write_text("a: a\n")
    long, too_long = "9" * 1000, "9" * 5000
    cases = [
        (["fspace", str(space), "--group", "--max-points", long], 0),
        (["fspace", str(space), "--group", "--max-points", too_long], 2),
        (["fspace", str(space), "--group", "--max-points", "-" + long], 2),
        (["flows", "--n", long], 1),
        (["flows", "--n", "-" + long], 1),
        (["flows", "--n", long + "9", "--max-points", long], 1),
        (["verify", "--suite", "classifier", "--seed", long], 0),
    ]
    for argv, code in cases:
        expected = _outcome(argv)
        assert expected[0] == code, (argv[:2], expected[2][:100])
        for limit in ("0", "640"):
            env = {**os.environ, "PYTHONINTMAXSTRDIGITS": limit}
            got = _outcome(argv, env)
            if argv[0] == "verify":  # the suite's timing line differs
                assert got[0] == expected[0], limit
            else:
                assert got == expected, (argv[:2], limit)
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "SCATTERKIT_MAX_POINTS": long}
    assert _outcome(["fspace", str(space), "--group"], env)[0] == 0
    env["SCATTERKIT_MAX_POINTS"] = too_long
    assert _outcome(["fspace", str(space), "--group"], env) == (
        2, "", f"error: SCATTERKIT_MAX_POINTS must be an integer, got {too_long!r}\n"
    )


def test_integer_option_errors_match_argparse_int():
    for argv in (
        ["flows", "--n", "four"],
        ["flows", "--n", "9" * 5000],
        ["flows", "--n", "1.5", "--max-points", "3"],
        ["verify", "--suite", "classifier", "--seed", "0x10"],
    ):
        with pytest.raises(SystemExit) as ours, redirect_stderr(io.StringIO()) as ours_err:
            build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as theirs, redirect_stderr(io.StringIO()) as their_err:
            _reference_parser().parse_args(argv)
        assert ours.value.code == theirs.value.code == 2
        assert ours_err.getvalue() == their_err.getvalue()
        assert "invalid int value" in ours_err.getvalue()


def test_groups_iso_of_huge_finite_spaces_answers_at_once():
    code, out = run_cli("--format", "structured", "groups-iso", "1000000", "1000001")
    assert code == 0
    assert "justification=group cardinality: 1000000! differs from 1000001!" in out.splitlines()
    assert run_cli("groups-iso", "99999999999999999999", "1700")[0] == 0
