"""Constructor for regular parameters: given a strength target M and a
maximal norm m_max, build a finite family that passes check_nice, or refuse
with an honest account of why none fits in a workbench-sized budget.

Three regimes:

- m_max <= 1: a two-point family.  No creature has norm above 1, so the
  regularity demands are vacuous and any M is served.
- M == 1, 1 < m_max <= 15/8: a capped subset ladder on eight points.  The
  singleton norm 15/16 exceeds m_max - 1, so singletons alone witness the
  small half of decisiveness and make every creature its own half.
- everything else: refused.  For M == 1 with m_max >= 2 no finite family
  exists at all (a creature of norm above 2 needs a one-point successor of
  norm above 1, which the singleton cap forbids under the ladder arithmetic
  this module uses).  For M >= 2 with m_max > 1 the bigness and decision
  demands feed each other and force base sets of tower-of-exponentials
  size, far past any enumerable budget.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NotNice, SizeInfeasible, UsageError
from ..logreal import as_fraction
from ..records import Frozen
from .base import AtomicParameter
from .checks import check_nice
from .families import TrivialTwoPointFamily, capped_ladder


class ScaleBudget(Frozen):
    """Hard caps a construction may not exceed."""

    __slots__ = ("max_base_size", "max_creature_count")

    def __init__(self, max_base_size: int = 1 << 16, max_creature_count: int = 1 << 20):
        object.__setattr__(self, "max_base_size", max_base_size)
        object.__setattr__(self, "max_creature_count", max_creature_count)


_LADDER_CAP = Fraction(15, 8)


def make_nice(M: int, m_max, budget: ScaleBudget | None = None) -> AtomicParameter:
    """Build a parameter with maximal norm exactly m_max that passes
    check_nice(p, M, m_max), or raise SizeInfeasible."""
    if M < 1:
        raise UsageError("M must be a positive integer")
    m = as_fraction(m_max)
    if m <= 0:
        raise UsageError("m_max must be positive")
    budget = budget or ScaleBudget()

    if m <= 1:
        p = TrivialTwoPointFamily(m)
        base_size, count = 2, 3
    elif M == 1 and m <= _LADDER_CAP:
        p = capped_ladder(m)
        base_size, count = 8, 255
    elif M == 1 and m >= 2:
        raise SizeInfeasible(
            f"no finite parameter reaches norm {m} at strength 1: decisiveness "
            "would need a one-point successor of norm above 1, and singleton "
            "norms are capped at 1"
        )
    else:
        raise SizeInfeasible(
            f"a parameter of norm {m} at strength {M} needs a base of "
            "tower-of-exponentials size; nothing enumerable fits a workbench budget"
        )

    if base_size > budget.max_base_size or count > budget.max_creature_count:
        raise SizeInfeasible(
            f"construction needs base {base_size} / {count} creatures, "
            f"budget allows {budget.max_base_size} / {budget.max_creature_count}"
        )

    cert = check_nice(p, M, m)
    if not cert.verdict:
        raise NotNice(f"constructed family failed replay: {cert.counterexample}")
    return p
