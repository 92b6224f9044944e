"""The package's public surface, and the independence of its checkers.

The property checkers and the brute-force oracles audit the solver, so they
must not call it: neither module may expose a solver entry point.
"""

import leximinflow
from leximinflow import oracle, properties

SOLVER_ENTRY_POINTS = ("breakpoints", "lexicographic_allocation", "min_ratio")

EXPORTS = (
    "Allocation",
    "BreakpointProfile",
    "Instance",
    "InternalCheckError",
    "InvalidInstanceError",
    "ParseError",
    "Rational",
    "UtilityVector",
    "breakpoints",
    "capped_supply",
    "envy_report",
    "format_rational",
    "is_frugal",
    "is_nw",
    "leximin_cmp",
    "lexicographic_allocation",
    "lorenz_dominates",
    "parse_rational",
    "si_ratio",
    "structure_check",
    "sub_instance",
    "utility_vector",
    "validate_instance",
)


def test_package_exports():
    assert sorted(leximinflow.__all__) == sorted(EXPORTS)
    assert all(hasattr(leximinflow, name) for name in leximinflow.__all__)


def test_checkers_and_oracles_do_not_reach_the_solver():
    for module in (properties, oracle):
        exposed = [name for name in SOLVER_ENTRY_POINTS if hasattr(module, name)]
        assert exposed == [], module.__name__
