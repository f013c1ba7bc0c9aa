"""Andersen's points-to analysis for C (paper Section 3).

Quick use::

    from repro.andersen import analyze_source, solve_points_to

    program = analyze_source(open("prog.c").read())
    result = solve_points_to(program)          # IF-Online by default
    result.points_to_named("p")                # frozenset of location names
"""

from .analysis import (
    AndersenProgram,
    ConstraintGenerator,
    FunctionInfo,
    analyze_file,
    analyze_source,
    analyze_unit,
)
from .locations import AbstractLocation, LocationKind, LocationTable
from .pointsto import (
    PointsToResult,
    points_to_sets_equal,
    solve_points_to,
)
from .steensgaard import (
    SteensgaardAnalysis,
    SteensgaardResult,
    analyze_unit_steensgaard,
)
from .walker import HEAP_FUNCTIONS

__all__ = [
    "AbstractLocation",
    "AndersenProgram",
    "ConstraintGenerator",
    "FunctionInfo",
    "HEAP_FUNCTIONS",
    "LocationKind",
    "LocationTable",
    "PointsToResult",
    "SteensgaardAnalysis",
    "SteensgaardResult",
    "analyze_file",
    "analyze_source",
    "analyze_unit",
    "analyze_unit_steensgaard",
    "points_to_sets_equal",
    "solve_points_to",
]
