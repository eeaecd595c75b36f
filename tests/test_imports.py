"""Each entry point loads only the modules it runs.

Every check that counts modules starts a fresh interpreter: in this
process the other test modules have long since imported the whole
package, so only a new one shows what a start really loads.
"""

import importlib
import json
import subprocess
import sys

import pytest

import scatterkit

BASE = {"scatterkit", "errors", "ordinal", "classify", "cli"}
FINITE = BASE | {"finite", "permgroups", "_kernels", "_kernels.pure"}

#: Runs the CLI on argv (none: only imports it) and prints the scatterkit
#: modules loaded, without the package prefix, and argparse if it loaded.
_PROBE = """
import contextlib, io, json, sys
import scatterkit.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = scatterkit.cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
    assert code == 0, code
print(json.dumps(sorted(
    name.partition(".")[2] or name for name in sys.modules
    if name in ("scatterkit", "argparse") or name.startswith("scatterkit.")
)))
"""


def loaded(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    space = root / "space.txt"
    space.write_text("a: a\nb: b\nc: a b c\n")
    graph = root / "graph.txt"
    graph.write_text("1 2\n2 3\n")
    return {"space": str(space), "graph": str(graph)}


@pytest.mark.parametrize(
    "argv, modules",
    [
        ((), BASE),
        (("classify", "w^2 + 1"), BASE),
        (("homeomorphic", "w", "w + 1"), BASE),
        (("rank", "w", "--space", "w + 1"), BASE),
        (("derive", "w^2", "--level", "1"), BASE),
        (("profile", "w^2 + 3"), BASE),
        (("group", "w^2 + 1"), BASE | {"groups"}),
        (("groups-iso", "w + 1", "w^2 + 1"), BASE | {"groups"}),
        (("fspace", "{space}", "--group"), FINITE),
        (("encode-graph", "{graph}", "--verify"), FINITE | {"graphs"}),
        (("flows", "--n", "3"), BASE | {"flows"}),
        (("flows", "--fspace", "{space}"), FINITE | {"flows"}),
    ],
)
def test_each_command_loads_only_its_modules(files, argv, modules):
    assert loaded(*(arg.format(**files) for arg in argv)) == modules


def test_only_verify_loads_verify():
    modules = loaded("verify", "--suite", "classifier")
    assert "verify" in modules and "argparse" not in modules


def test_only_help_and_usage_errors_load_argparse():
    assert loaded("fspace", "--help") == BASE | {"argparse"}


LAZY = {
    "FiniteSpace": "finite",
    "SimilarityPartition": "finite",
    "PermutationGroup": "permgroups",
    "Graph": "graphs",
    "GroupDescriptor": "groups",
    "UmfDescriptor": "groups",
    "descriptor_of": "groups",
    "groups_isomorphic": "groups",
}


def test_bare_import_loads_no_lazy_module():
    code = (
        "import sys, scatterkit; "
        "print(sorted(n for n in sys.modules if n.startswith('scatterkit.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str(
        ["scatterkit.classify", "scatterkit.errors", "scatterkit.ordinal"]
    )


@pytest.mark.parametrize("name, module", sorted(LAZY.items()))
def test_lazy_name_is_its_defining_modules_object(name, module):
    assert getattr(scatterkit, name) is getattr(importlib.import_module(f"scatterkit.{module}"), name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from scatterkit import *", namespace)
    assert set(scatterkit.__all__) <= set(namespace)
    for name in scatterkit.__all__:
        assert namespace[name] is getattr(scatterkit, name)


def test_dir_lists_the_lazy_names_before_their_first_use():
    code = "import scatterkit; print(sorted(set(scatterkit.__all__) - set(dir(scatterkit))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    assert set(LAZY) <= set(scatterkit.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scatterkit.no_such_name  # noqa: B018
    assert not hasattr(scatterkit, "no_such_name")


def test_classify_stays_the_function_after_every_submodule_loads():
    code = (
        "import importlib, scatterkit\n"
        "for name in ('finite', 'permgroups', 'graphs', 'groups', 'flows', 'verify', 'cli', 'classify'):\n"
        "    importlib.import_module('scatterkit.' + name)\n"
        "for name in scatterkit.__all__:\n"
        "    getattr(scatterkit, name)\n"
        "print(scatterkit.classify is importlib.import_module('scatterkit.classify').classify)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "True"
    assert scatterkit.classify is importlib.import_module("scatterkit.classify").classify


def test_submodules_resolve_on_the_bare_package():
    code = "import scatterkit; print(scatterkit.finite.FiniteSpace.__module__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "scatterkit.finite"
