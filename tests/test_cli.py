import io
import itertools
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from scatterkit import graphs
from scatterkit.cli import build_parser, main
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
