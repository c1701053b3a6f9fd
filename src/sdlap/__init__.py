"""Signed distance matrices, signed distance Laplacians, balance
certificates, and spectra of signed graphs."""

from .balance import (
    BalanceReport,
    ForestComponent,
    OneForest,
    SizeBoundError,
    closed_form_det,
    det_exact,
    enumerate_spanning_1forests,
    forest_census,
    forest_det,
    is_balanced_det,
    is_balanced_forest,
    is_balanced_switching,
)
from .core import (
    NEGATIVE,
    POSITIVE,
    GenerationError,
    GraphFormatError,
    SignedGraph,
    canonical_orientation,
    components,
    generate,
    parse_edge_list,
    path_sign,
    serialize,
    switch,
)
from .distance import (
    DisconnectedGraphError,
    DistanceTable,
    IncompatibleGraphError,
    associated_complete,
    distance_laplacian,
    distance_matrix,
    distance_table,
    is_compatible,
    transmission,
)
from .matrices import (
    IncidenceMatrix,
    SquareMatrix,
    adjacency_matrix,
    incidence_matrix,
    weighted_degree_matrix,
    weighted_laplacian,
)
from .spectra import Spectrum, cycle_spectrum, odd_cycle_formula_spectrum, sym_eig

__version__ = "0.1.0"
