"""Exact-arithmetic toolkit for extremal planar point-set structures:
cup/cap detection, convex-position analysis, grid-poset fingerprints,
lower-bound constructions with machine verification, and structures
relative to a convex body.

The public names, and the submodules as attributes (``cupcap.extremal``),
load their submodule on first access (PEP 562), so ``import cupcap`` and a
CLI step load only the modules they use.
"""

import importlib

_EXPORTS = {
    "bounds": ("BoundsConfig", "bound_table", "convex_forcing_lower",
               "convex_forcing_upper", "cup_cap_threshold",
               "cup_cap_upper_bound", "free_set_size_bound"),
    "constructions": ("ConstructionCertificate", "ConstructionError",
                      "build_base_capfree", "build_base_cupfree",
                      "build_convex_free", "build_free_set", "combine_flat",
                      "normalize_integer_coords", "verify_construction"),
    "extremal": ("DownSet", "PairLabel", "StructureWitness", "WitnessKind",
                 "count_downsets", "downset_of", "downsets_by_point",
                 "enumerate_downsets", "find_structure", "is_cap",
                 "is_collinear_run", "is_cup", "longest_cap",
                 "longest_cap_size", "longest_cup", "longest_cup_size",
                 "max_collinear", "max_convex_subset", "pair_labels"),
    "geom": ("Coord", "HalfPlane", "Orientation", "Point", "PointSet",
             "convex_hull", "coord", "is_convex_position", "orientation",
             "point_in_convex_hull", "point_in_convex_region",
             "shear_distinct_x"),
    "relative": ("AvoidanceError", "CellProfile", "ConvexBody",
                 "DilworthResult", "GeometryPreconditionError",
                 "OrderViolation", "PartialOrderInstance", "SeparationError",
                 "SupportOccupancy", "SupportRegion", "TransversalReport",
                 "TripleKind", "cell_profile", "check_selection_tuples",
                 "classify_triple", "conv_order", "dilworth", "find_fat_cap",
                 "hulls_strictly_disjoint", "longest_inner_cap",
                 "longest_outer_cup", "populate_support", "radial_order",
                 "support_regions", "transversal_check"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
