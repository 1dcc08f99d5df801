"""Exact computation of vector bundle cohomology on ADE flag varieties.

Homogeneous bundles are modeled as finite-dimensional quiver
representations over the rationals; global sections come out as kernels
of explicit pairing matrices, decomposed into irreducible summands.
"""

__version__ = "1.0.0"

from .bott import SINGULAR, BottResult, bott, dominantize, weyl_dim
from .bundle import (
    AmPath,
    GabrielDecomposition,
    QuiverRep,
    RelationError,
    check_relations,
    colon_quotient,
    cotangent,
    direct_sum,
    gabriel_decompose,
    irreducible,
    is_am_type,
    line_bundle,
    solve_derived_arrows,
    subrep_generated,
    tangent,
    validate,
)
from .bundleio import BundleFormatError, load_rep, rep_from_dict, rep_to_dict, save_rep
from .cohomology import (
    GModuleDecomposition,
    IsotypicEntry,
    Pairing,
    compose_path,
    euler,
    find_pairings,
    h0,
    h0_am,
    h_graded,
)
from .geometry import ParabolicGeometry, build_geometry
from .levi import (
    arrow_multiplicity,
    freudenthal,
    klimyk_tensor,
    levi_weyl_dim,
)
from .linalg import Matrix
from .quiver import (
    DERIVED,
    GENERATING,
    Arrow,
    QuiverWindow,
    RelationInstance,
    arrows_from,
    borel_relation_instances,
    is_vertex,
    quiver_window,
)
from .rootsystem import CartanType, Root, RootSystem, build_root_system

__all__ = [
    "SINGULAR",
    "BottResult",
    "bott",
    "dominantize",
    "weyl_dim",
    "AmPath",
    "GabrielDecomposition",
    "QuiverRep",
    "RelationError",
    "check_relations",
    "colon_quotient",
    "cotangent",
    "direct_sum",
    "gabriel_decompose",
    "irreducible",
    "is_am_type",
    "line_bundle",
    "solve_derived_arrows",
    "subrep_generated",
    "tangent",
    "validate",
    "BundleFormatError",
    "load_rep",
    "rep_from_dict",
    "rep_to_dict",
    "save_rep",
    "GModuleDecomposition",
    "IsotypicEntry",
    "Pairing",
    "compose_path",
    "euler",
    "find_pairings",
    "h0",
    "h0_am",
    "h_graded",
    "ParabolicGeometry",
    "build_geometry",
    "arrow_multiplicity",
    "freudenthal",
    "klimyk_tensor",
    "levi_weyl_dim",
    "Matrix",
    "DERIVED",
    "GENERATING",
    "Arrow",
    "QuiverWindow",
    "RelationInstance",
    "arrows_from",
    "borel_relation_instances",
    "is_vertex",
    "quiver_window",
    "CartanType",
    "Root",
    "RootSystem",
    "build_root_system",
]
