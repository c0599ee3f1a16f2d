"""Exact-arithmetic toolkit for extremal planar point-set structures:
cup/cap detection, convex-position analysis, grid-poset fingerprints,
lower-bound constructions with machine verification, and structures
relative to a convex body."""

from .bounds import (BoundsConfig, bound_table, convex_forcing_lower,
                     convex_forcing_upper, cup_cap_threshold,
                     cup_cap_upper_bound, free_set_size_bound)
from .constructions import (ConstructionCertificate, ConstructionError,
                            build_base_capfree, build_base_cupfree,
                            build_convex_free, build_free_set, combine_flat,
                            normalize_integer_coords, verify_construction)
from .extremal import (DownSet, PairLabel, StructureWitness, WitnessKind,
                       count_downsets, downset_of, downsets_by_point,
                       enumerate_downsets, find_structure, is_cap,
                       is_collinear_run, is_cup, longest_cap,
                       longest_cap_size, longest_cup, longest_cup_size,
                       max_collinear, max_convex_subset, pair_labels)
from .geom import (Coord, HalfPlane, Orientation, Point, PointSet, convex_hull,
                   coord, is_convex_position, orientation,
                   point_in_convex_hull, point_in_convex_region,
                   shear_distinct_x)
from .relative import (AvoidanceError, CellProfile, ConvexBody, DilworthResult,
                       GeometryPreconditionError, OrderViolation,
                       PartialOrderInstance, SeparationError, SupportOccupancy,
                       SupportRegion, TransversalReport, TripleKind,
                       cell_profile, check_selection_tuples, classify_triple,
                       conv_order, dilworth, find_fat_cap,
                       hulls_strictly_disjoint, longest_inner_cap,
                       longest_outer_cup, populate_support, radial_order,
                       support_regions, transversal_check)

__version__ = "0.1.0"
