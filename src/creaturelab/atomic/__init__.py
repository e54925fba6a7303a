"""Atomic creature systems: finite value-carrying objects with norms and
successor structure, plus exhaustive property checkers and verified
transformations.

The base classes and the families load with the package.  The checks,
certificates, niceness and ops load together on the first read of one of
their names, so a command that only builds families (`ml`, `params`)
never loads them."""

from .base import AtomicParameter, ExplicitAtomicParameter
from .families import (
    HalvingPairFamily,
    ReservoirFamily,
    SubsetLadderFamily,
    TrivialTwoPointFamily,
    capped_ladder,
    plateau_family,
    subset_log_family,
    toy_witness_pair,
)

# submodule -> the names it gives the package, bound here on first read
_ON_FIRST_USE = {
    "certificates": ("PropertyCertificate",),
    "checks": ("check_bigness", "check_decisive", "check_halving", "check_nice",
               "replay_certificate", "validate_atomic"),
    "niceness": ("ScaleBudget", "make_nice"),
    "ops": ("decisive_order", "disjoint_successors", "homogenize_product"),
}


def __getattr__(name):
    if not any(name in names for names in _ON_FIRST_USE.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement, so that -X importtime reports these loads
    from . import certificates, checks, niceness, ops  # noqa: F401 (binds each here)

    for module, names in _ON_FIRST_USE.items():
        globals().update((n, getattr(globals()[module], n)) for n in names)
    return globals()[name]


__all__ = [
    "AtomicParameter",
    "ExplicitAtomicParameter",
    "PropertyCertificate",
    "SubsetLadderFamily",
    "HalvingPairFamily",
    "ReservoirFamily",
    "TrivialTwoPointFamily",
    "subset_log_family",
    "capped_ladder",
    "plateau_family",
    "toy_witness_pair",
    "validate_atomic",
    "check_bigness",
    "check_halving",
    "check_decisive",
    "check_nice",
    "replay_certificate",
    "ScaleBudget",
    "make_nice",
    "decisive_order",
    "disjoint_successors",
    "homogenize_product",
]
