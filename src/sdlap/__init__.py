"""Signed distance matrices, signed distance Laplacians, balance
certificates, and spectra of signed graphs.

Importing the package loads only ``sdlap.core``, which needs no numpy.
Each public name (``__all__``) and each submodule (``sdlap.distance``,
``sdlap.verify``, ...) is bound on first access by the module
``__getattr__`` (PEP 562), which loads the submodule that defines it
through the import system. So ``from sdlap import sym_eig`` loads numpy,
while ``from sdlap import generate`` does not, and ``dir(sdlap)`` lists
every public name.
"""

import importlib

from . import core

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_PUBLIC = {
    "core": (
        "NEGATIVE", "POSITIVE", "DisconnectedGraphError", "GenerationError",
        "GraphFormatError", "SignedGraph", "SizeBoundError", "canonical_orientation",
        "components", "distance_summary", "generate", "parse_edge_list", "path_sign",
        "serialize", "switch",
    ),
    "balance": (
        "BalanceReport", "ForestComponent", "OneForest", "closed_form_det", "det_exact",
        "enumerate_spanning_1forests", "forest_census", "forest_det", "is_balanced_det",
        "is_balanced_forest", "is_balanced_switching",
    ),
    "distance": (
        "DistanceTable", "IncompatibleGraphError", "associated_complete",
        "distance_laplacian", "distance_matrix", "distance_table", "is_compatible",
        "transmission",
    ),
    "matrices": (
        "IncidenceMatrix", "SquareMatrix", "adjacency_matrix", "incidence_matrix",
        "weighted_degree_matrix", "weighted_laplacian",
    ),
    "spectra": ("Spectrum", "cycle_spectrum", "odd_cycle_formula_spectrum", "sym_eig"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_SOURCE)
_SUBMODULES = {*_PUBLIC, "cli", "exact", "verify"}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
