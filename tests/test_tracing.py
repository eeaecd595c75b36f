"""The benchmark's tracer must keep resolving the functions it wraps.

``perfbench/tracing.py`` patches scatterkit's functions by attribute path
(``_kernels.refine_colors``, ``_kernels.pure.search``, ...).  A rename in
``src/`` would break ``perfbench/run.py --trace 1`` without failing any
other test, so these resolve every traced path by name, then build the
tracer, install it and take it down.
"""

import importlib
import os
import sys

import pytest

import scatterkit._kernels as kernels

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


tracing = _tracing()


@pytest.mark.parametrize(
    "module, path", [(module, path) for module, path, _, _ in tracing.targets("pure")]
)
def test_every_traced_target_is_a_scatterkit_function(module, path):
    owner = importlib.import_module("scatterkit." + module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner) and owner.__module__.startswith("scatterkit.")


def _namespaces():
    return {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if name == "scatterkit" or name.startswith("scatterkit.")
    }


def test_tracer_resolves_every_traced_path_and_puts_the_originals_back():
    tracer = tracing.Tracer("pure")  # raises if a traced attribute path no longer resolves
    before = _namespaces()  # after the tracer imported every module it traces
    traced = {owner.__name__ + "." + attr for owner, attr, _, _ in tracer._patches}
    for path in ("scatterkit._kernels.refine_colors", "scatterkit._kernels.pure.search"):
        assert path in traced

    tracer.install()
    try:
        for owner, attr, _, wrapper in tracer._patches:
            assert vars(owner)[attr] is wrapper, (owner, attr)
        masks = [0b001, 0b010, 0b111]
        assert kernels.isomorphisms(masks, masks) == [(0, 1, 2), (1, 0, 2)]
        tracer.fold()
    finally:
        tracer.uninstall()

    assert tracer.calls["kernels.refine_colors"] == 1
    assert tracer.calls["kernels.search"] == 1
    for owner, attr, original, _ in tracer._patches:
        assert vars(owner)[attr] is original, (owner, attr)
    after = _namespaces()
    for name, namespace in before.items():
        assert after[name] == namespace, name
