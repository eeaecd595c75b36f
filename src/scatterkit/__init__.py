"""scatterkit: scattered spaces, their ranks and their homeomorphism groups.

Exact, brute-force-verifiable tooling: Cantor normal form ordinal
arithmetic, classification of ordinal spaces up to homeomorphism,
Cantor-Bendixson data, finite Alexandrov spaces with full homeomorphism
group computation, the graph-to-space encoding, symbolic descriptors of
homeomorphism groups of ordinal spaces, and linear-order flows.

Only ``errors``, ``ordinal`` and ``classify`` load with the package.  The
finite-space, graph and group-descriptor names load their modules on
first use (PEP 562), so a start that never touches them never pays for
them.
"""

import importlib

from .classify import (
    ALEPH0,
    Family,
    SpaceClass,
    canonical,
    class_profile,
    classify,
    compactify,
    derived_order_type,
    homeomorphic,
    point_rank,
)
from .errors import (
    BoundExceededError,
    DomainError,
    InternalCheckError,
    OutOfSpaceError,
    ParseError,
    ScatterkitError,
    UnknownPointError,
    UnrepresentableProfileError,
    ValidationError,
)
from .ordinal import OMEGA, ONE, ZERO, Kind, Ordinal, omega_power

__version__ = "0.1.0"

__all__ = [
    "Ordinal",
    "Kind",
    "ZERO",
    "ONE",
    "OMEGA",
    "omega_power",
    "Family",
    "SpaceClass",
    "ALEPH0",
    "classify",
    "canonical",
    "homeomorphic",
    "compactify",
    "point_rank",
    "derived_order_type",
    "class_profile",
    "FiniteSpace",
    "PermutationGroup",
    "SimilarityPartition",
    "Graph",
    "GroupDescriptor",
    "UmfDescriptor",
    "descriptor_of",
    "groups_isomorphic",
    "ScatterkitError",
    "ParseError",
    "DomainError",
    "ValidationError",
    "UnknownPointError",
    "OutOfSpaceError",
    "BoundExceededError",
    "UnrepresentableProfileError",
    "InternalCheckError",
    "__version__",
]

#: Each name that loads its module on first use, and that module.
_LAZY = {
    "FiniteSpace": "finite",
    "SimilarityPartition": "finite",
    "PermutationGroup": "permgroups",
    "Graph": "graphs",
    "GroupDescriptor": "groups",
    "UmfDescriptor": "groups",
    "descriptor_of": "groups",
    "groups_isomorphic": "groups",
}

#: Submodules that ``import scatterkit`` used to load eagerly; they still
#: resolve as attributes of the bare package.
_SUBMODULES = ("finite", "permgroups", "graphs", "groups", "_kernels")


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
