"""Exact leximin-fair allocation of divisible objects under demand caps.

Agents with positive endowments share objects with limited supplies; each
agent's utility from an object is capped by its stated demand.  The mechanism
here computes, with exact rational arithmetic and via parametric max flow, the
allocation whose sorted endowment-normalized utility vector is
lexicographically maximal — while never giving anyone more than it asked for.
The output provably wastes nothing, is envy-free, guarantees everyone at least
half of its proportional entitlement, and cannot be gamed by misreporting
demands; the `properties`, `harness`, and `oracle` modules check all of that
independently, with zero numeric tolerance.
"""

from .core import (
    Allocation,
    Instance,
    InternalCheckError,
    InvalidInstanceError,
    UtilityVector,
    capped_supply,
    sub_instance,
    utility,
    utility_vector,
    validate_instance,
)
from .leximin import (
    BreakpointProfile,
    breakpoints,
    lexicographic_allocation,
    structure_check,
)
from .properties import (
    envy_report,
    is_frugal,
    is_nw,
    leximin_cmp,
    lorenz_dominates,
    si_ratio,
)
from .rational import ParseError, Rational, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
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
    "utility",
    "utility_vector",
    "validate_instance",
]
